"""The docs cite tests, modules, members and benchmark records that exist.

``README.md``, the verify skill and the CI workflow point readers at
``tests/<file>.py::Class::test`` ids and ``src/repro/<path>.py`` modules.  A
rename or a deletion that leaves such a citation behind fails here: every
cited file must exist and every ``::Name`` chain must resolve, with
:mod:`ast`, to class / function definitions nested in that order.  The same
documents name members of the package's classes (`` `KFAC.step` ``; every
class defined under ``src/repro`` is indexed), modules to run
(``python -m repro.analysis.lint``) and benchmark records
(``BENCH_memory.json``); each must name a member of that class, a module file
and a file under ``benchmarks/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")
CITATION = re.compile(r"(?<![\w/.])((?:tests|src/repro)/[\w/]+\.py)((?:::\w+)*)")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def class_index():
    """Class name -> the modules under ``src/repro`` that define a top-level class of that name."""
    index = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                index.setdefault(node.name, []).append(path)
    return index


#: Every class of the package: the docs name their members as `` `Class.member` ``.
CLASSES = class_index()
MEMBER = re.compile(r"`(\w+)\.(\w+)")
RUN_MODULE = re.compile(r"python3? -m (repro(?:\.\w+)+)")
BENCH_RECORD = re.compile(r"\bBENCH_\w+\.json")


def citations(doc):
    """``(line, path, chain)`` of every citation in ``doc``."""
    for line, match in named(doc, CITATION):
        yield line, match.group(1), tuple(name for name in match.group(2).split("::") if name)


def named(doc, pattern):
    """``(line, match)`` of every match of ``pattern`` in ``doc``."""
    text = (ROOT / doc).read_text()
    for match in pattern.finditer(text):
        yield text.count("\n", 0, match.start()) + 1, match


def members(path, cls):
    """The methods, properties, class-level fields and ``self.x =`` assignments of class ``cls`` in ``path``."""
    node = next(n for n in ast.parse(path.read_text()).body if isinstance(n, ast.ClassDef) and n.name == cls)
    names = {child.name for child in node.body if isinstance(child, DEFINITIONS)}
    for child in ast.walk(node):
        targets = child.targets if isinstance(child, ast.Assign) else [child.target] if isinstance(child, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and child in node.body:  # a class-level field
                names.add(target.id)
            elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) and target.value.id == "self":
                names.add(target.attr)
    return names


def module_file(dotted):
    """Whether ``python -m dotted`` has a file to run under ``src/``."""
    path = ROOT / "src" / Path(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__main__.py").is_file()


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


def known_members(cls):
    """The members of every class named ``cls`` (``ReLU`` is defined twice: a member of either counts)."""
    return set().union(*(members(path, cls) for path in CLASSES[cls]))


def test_every_named_member_module_and_record_exists():
    records = {path.name for path in (ROOT / "benchmarks").rglob("BENCH_*.json")}
    broken = []
    for doc in DOCS:
        broken += [
            f"{doc}:{line}: `{m.group(1)}.{m.group(2)}` is no member of {m.group(1)}"
            for line, m in named(doc, MEMBER)
            if m.group(1) in CLASSES and m.group(2) not in known_members(m.group(1))
        ]
        broken += [
            f"{doc}:{line}: python -m {m.group(1)} has no module file"
            for line, m in named(doc, RUN_MODULE)
            if not module_file(m.group(1))
        ]
        broken += [
            f"{doc}:{line}: {m.group(0)} is not under benchmarks/"
            for line, m in named(doc, BENCH_RECORD)
            if m.group(0) not in records
        ]
    assert not broken, "the docs name what does not exist:\n" + "\n".join(broken)


def test_members_modules_and_records_are_read_and_a_missing_one_is_caught():
    kfac = known_members("KFAC")
    assert {"step", "plan", "refresh", "kernel_backend"} <= kfac  # method, self.x =, self.x: T =, property
    assert {"grad_worker_frac", "bucket_cap_mb"} <= known_members("KFACConfig")  # fields
    assert "no_such_member" not in kfac
    assert {"OverlapScheduler", "SolveStrategy", "IterationTimeModel"} <= set(CLASSES)  # every module is indexed
    assert len(CLASSES["ReLU"]) == 2 and "forward" in known_members("ReLU")
    assert module_file("repro.analysis.lint") and not module_file("repro.analysis.no_such_module")
    text = "`KFAC.step` `Trainer.fit()` ``RefreshQueue.take`` python -m repro.analysis.lint BENCH_memory.json"
    assert [m.groups() for m in MEMBER.finditer(text)] == [("KFAC", "step"), ("Trainer", "fit"), ("RefreshQueue", "take")]
    assert [m.group(1) for m in RUN_MODULE.finditer(text)] == ["repro.analysis.lint"]
    assert [m.group(0) for m in BENCH_RECORD.finditer(text)] == ["BENCH_memory.json"]
