"""No module imports a name it never reads.

Parses every module of ``src/``, ``tests/``, ``examples/`` and the top-level
``benchmarks/*.py`` and fails on an imported name that its module neither
reads (a name, the root of an attribute chain, or a name inside a string
annotation) nor re-exports through ``__all__``.  A line that carries
``# noqa`` is exempt: an import kept for its side effect says so there.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _modules() -> List[Path]:
    trees = [ROOT / "src", ROOT / "tests", ROOT / "examples"]
    files = [path for tree in trees for path in sorted(tree.rglob("*.py"))]
    return files + sorted((ROOT / "benchmarks").glob("*.py"))


def _quoted_names(annotation: ast.AST) -> Iterator[str]:
    """The names the quoted forward references of an annotation read (``"Plan"``, ``Type["Plan"]``)."""
    for child in ast.walk(annotation):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                quoted = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            yield from (node.id for node in ast.walk(quoted) if isinstance(node, ast.Name))
            yield from _quoted_names(quoted)


def _read_names(tree: ast.Module) -> Set[str]:
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs, arguments.vararg, arguments.kwarg]
            for annotation in [arg.annotation for arg in every if arg is not None] + [node.returns]:
                if annotation is not None:
                    read.update(_quoted_names(annotation))
        elif isinstance(node, ast.AnnAssign):
            read.update(_quoted_names(node.annotation))
    return read


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a top-level ``__all__`` list or tuple."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return names


def unused_imports(path: Path) -> List[str]:
    """``"<line>: <name>"`` of every name ``path`` imports and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _read_names(tree) | _exported(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in lines[number - 1] for number in range(node.lineno, (node.end_lineno or node.lineno) + 1)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                found.append(f"{node.lineno}: {bound}")
    return found


@pytest.mark.parametrize("path", _modules(), ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path) == []


def test_the_check_finds_an_unused_import_and_passes_a_read_or_exported_one(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from typing import Dict, List, TYPE_CHECKING\n"
        "import os.path\n"
        "import json  # noqa: F401 - for its side effect\n"
        "import re\n"
        "__all__ = ['re']\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "def f(x: 'OrderedDict[str, int]') -> Dict[str, int]:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(module) == ["1: List"]
