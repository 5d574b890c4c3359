"""The docs cite tests and modules that exist.

``README.md``, the verify skill and the CI workflow point readers at
``tests/<file>.py::Class::test`` ids and ``src/repro/<path>.py`` modules.  A
rename or a deletion that leaves such a citation behind fails here: every
cited file must exist and every ``::Name`` chain must resolve, with
:mod:`ast`, to class / function definitions nested in that order.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")
CITATION = re.compile(r"(?<![\w/.])((?:tests|src/repro)/[\w/]+\.py)((?:::\w+)*)")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def citations(doc):
    """``(line, path, chain)`` of every citation in ``doc``."""
    text = (ROOT / doc).read_text()
    for match in CITATION.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        yield line, match.group(1), tuple(name for name in match.group(2).split("::") if name)


def resolves(path, chain):
    """Whether ``path`` exists and defines ``chain[0]``, which defines ``chain[1]``, and so on."""
    if not path.is_file():
        return False
    scope = ast.parse(path.read_text()).body
    for name in chain:
        found = [node for node in scope if isinstance(node, DEFINITIONS) and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


def test_every_cited_test_and_module_exists():
    broken = [
        f"{doc}:{line}: {path}{''.join('::' + name for name in chain)}"
        for doc in DOCS
        for line, path, chain in citations(doc)
        if not resolves(ROOT / path, chain)
    ]
    assert not broken, "the docs cite what does not exist:\n" + "\n".join(broken)


def test_each_document_is_scanned_and_a_missing_name_is_caught():
    for doc in DOCS:
        assert any(chain for _, _, chain in citations(doc)), f"{doc} cites no tests/...py::Name any more"
    here = Path(__file__)
    assert resolves(here, ("test_every_cited_test_and_module_exists",))
    assert not resolves(here, ("test_every_cited_test_and_module_exists", "inner"))
    assert not resolves(here, ("NoSuchTest",)) and not resolves(here.with_name("no_such_file.py"), ())
