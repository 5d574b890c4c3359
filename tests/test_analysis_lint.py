"""Tests for the SPMD static lint pass (repro.analysis).

Every rule gets a positive fixture (the hazard is flagged) and a
suppressed-negative fixture (the same hazard under ``# spmd-ignore`` is
silenced), plus clean-code negatives for the known false-positive traps
(``sorted(set)``, dict iteration, membership tests, ``__init__`` mutation).
The whole ``src/repro`` tree must lint clean — that is the acceptance
criterion CI enforces via ``python -m repro.analysis.lint src/repro``.
"""

import json
import os
import subprocess
import sys

from repro.analysis import all_rule_ids, lint_paths, lint_sources, result_payload
from repro.analysis.lint import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def ids_of(result):
    return [f.rule_id for f in result.findings]


def lint_one(source, path="fixture.py"):
    return lint_sources({path: source})


class TestRuleSPMD101RankDependentCollective:
    def test_positive_if_rank_branch(self):
        result = lint_one(
            """
def f(comm, x):
    if comm.rank == 0:
        comm.broadcast(x, src=0)
"""
        )
        assert ids_of(result) == ["SPMD101"]
        assert "rank-dependent" in result.findings[0].rule_name

    def test_positive_else_branch_and_while(self):
        result = lint_one(
            """
def f(comm, rank, x):
    if rank == 0:
        pass
    else:
        comm.allreduce_average(x)
    while rank < 2:
        comm.barrier()
"""
        )
        assert ids_of(result) == ["SPMD101", "SPMD101"]

    def test_suppressed_negative(self):
        result = lint_one(
            """
def f(comm, x):
    if comm.rank == 0:
        comm.broadcast(x, src=0)  # spmd-ignore: SPMD101
"""
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_negative_rank_guards_payload_only(self):
        # The codebase's sanctioned pattern: the rank test selects the
        # payload, the collective itself runs unconditionally on every rank.
        result = lint_one(
            """
def f(comm, x):
    payload = x if comm.rank == 0 else None
    if comm.rank == 0:
        packed = pack(x)
    return comm.broadcast(payload, src=0)
"""
        )
        assert not result.findings

    def test_negative_nested_def_resets_branch(self):
        result = lint_one(
            """
def f(comm, rank, x):
    if rank == 0:
        def helper():
            return comm.allreduce_average(x)
    return helper
"""
        )
        assert not result.findings


class TestRuleSPMD102LostWorkHandle:
    def test_positive_discarded_expression(self):
        result = lint_one(
            """
def f(comm, x):
    comm.iallreduce_average(x)
"""
        )
        assert ids_of(result) == ["SPMD102"]

    def test_positive_assigned_never_used(self):
        result = lint_one(
            """
def f(comm, x):
    handle = comm.ibroadcast(x, src=0)
    return None
"""
        )
        assert ids_of(result) == ["SPMD102"]
        assert "never" in result.findings[0].message

    def test_suppressed_negative(self):
        result = lint_one(
            """
def f(comm, x):
    comm.iallreduce_average(x)  # spmd-ignore: SPMD102
"""
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_negative_handle_waited_or_escaping(self):
        result = lint_one(
            """
def f(comm, x):
    handle = comm.iallreduce_average(x)
    result = handle.wait()
    return comm.ibroadcast(result, src=0)
"""
        )
        assert not result.findings

    def test_negative_handle_appended_to_list(self):
        result = lint_one(
            """
def f(comm, xs):
    handles = []
    for x in xs:
        handle = comm.iallreduce_average(x)
        handles.append(handle)
    return [h.wait() for h in handles]
"""
        )
        assert not result.findings


class TestRuleSPMD103UnorderedIteration:
    def test_positive_set_literal_and_local(self):
        result = lint_one(
            """
def f():
    pending = {1, 2, 3}
    out = []
    for gate in pending:
        out.append(gate)
    return [x for x in {4, 5}]
"""
        )
        assert ids_of(result) == ["SPMD103", "SPMD103"]

    def test_positive_set_typed_attribute_across_classes(self):
        # The bug shape this rule exists for: an attribute assigned from a
        # set-typed parameter in one class, iterated through another
        # object's reference elsewhere.
        result = lint_one(
            """
class Planned:
    def __init__(self, pending: set):
        self.pending = pending

class Pipeline:
    def arm(self, specs):
        for spec in specs:
            for gate in spec.pending:
                self.register(gate)
"""
        )
        assert ids_of(result) == ["SPMD103"]
        assert "'pending'" in result.findings[0].message

    def test_suppressed_negative(self):
        result = lint_one(
            """
def f():
    for gate in {1, 2}:  # spmd-ignore: SPMD103
        print(gate)
"""
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_negative_sorted_set_is_sanctioned(self):
        result = lint_one(
            """
def f(items):
    for key in sorted(set(items)):
        print(key)
    return tuple(sorted({1, 2}))
"""
        )
        assert not result.findings

    def test_negative_dict_iteration_and_membership(self):
        # Dict preserves insertion order (deterministic); membership tests on
        # sets are order-independent. Neither may be flagged.
        result = lint_one(
            """
def f(plan, due: set):
    for name in plan:
        if name in due:
            print(name)
    for key, value in plan.items():
        print(key, value)
"""
        )
        assert not result.findings


class TestRuleSPMD104UnlockedSharedMutation:
    FIXTURE = """
import threading

class Shared:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def locked_add(self, x):
        with self._lock:
            self.items.append(x)

    def racy_add(self, x):
        self.items.append(x){suffix}
"""

    def test_positive_mutation_outside_lock(self):
        result = lint_one(self.FIXTURE.format(suffix=""))
        assert ids_of(result) == ["SPMD104"]
        assert "self.items" in result.findings[0].message

    def test_suppressed_negative(self):
        result = lint_one(self.FIXTURE.format(suffix="  # spmd-ignore: SPMD104"))
        assert not result.findings
        assert result.suppressed == 1

    def test_negative_init_is_exempt_and_nested_with_counts(self):
        result = lint_one(
            """
import threading

class Shared:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def add(self, x):
        if x:
            with self._lock:
                self.items.append(x)

    def reset(self):
        with self._lock:
            self.items = []
"""
        )
        assert not result.findings


class TestRuleSPMD105UnorderedAccumulation:
    def test_positive_sum_over_set(self):
        result = lint_one(
            """
def f(values: set):
    return sum(values)
"""
        )
        assert ids_of(result) == ["SPMD105"]

    def test_positive_generator_over_set(self):
        result = lint_one(
            """
def f():
    weights = {0.1, 0.2, 0.7}
    return sum(w * 2 for w in weights)
"""
        )
        # SPMD103 also fires: the generator itself iterates the set.
        assert set(ids_of(result)) == {"SPMD103", "SPMD105"}

    def test_suppressed_negative(self):
        result = lint_one(
            """
def f(values: set):
    return sum(values)  # spmd-ignore: SPMD105
"""
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_negative_sum_over_sorted_or_list(self):
        result = lint_one(
            """
def f(values: set, items):
    return sum(sorted(values)) + sum(items) + sum(x.nbytes for x in items)
"""
        )
        assert not result.findings


class TestRuleSPMD106CollectiveInExcept:
    def test_positive(self):
        result = lint_one(
            """
def f(comm, x):
    try:
        risky(x)
    except ValueError:
        comm.allreduce_average(x)
"""
        )
        assert ids_of(result) == ["SPMD106"]

    def test_suppressed_negative(self):
        result = lint_one(
            """
def f(comm, x):
    try:
        risky(x)
    except ValueError:
        comm.barrier()  # spmd-ignore: SPMD106
"""
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_negative_collective_in_try_or_finally(self):
        # try-body and finally run on every rank; only except is asymmetric.
        result = lint_one(
            """
def f(comm, x):
    try:
        comm.allreduce_average(x)
    finally:
        comm.barrier()
"""
        )
        assert not result.findings


class TestRuleSPMD107NondeterministicGuard:
    def test_positive_time_guard(self):
        result = lint_one(
            """
import time

def f(comm, x):
    if time.perf_counter() - start > 5.0:
        comm.barrier()
"""
        )
        assert ids_of(result) == ["SPMD107"]

    def test_positive_random_guard(self):
        result = lint_one(
            """
import random

def f(comm, x):
    if random.random() < 0.5:
        comm.allreduce_average(x)
"""
        )
        assert ids_of(result) == ["SPMD107"]

    def test_suppressed_negative(self):
        result = lint_one(
            """
import time

def f(comm, x):
    if time.monotonic() > deadline:
        comm.barrier()  # spmd-ignore: SPMD107
"""
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_negative_deterministic_guard(self):
        result = lint_one(
            """
def f(comm, step, x):
    if step % 10 == 0:
        comm.allreduce_average(x)
"""
        )
        assert not result.findings


class TestSuppressionSyntax:
    def test_bare_ignore_suppresses_all_rules(self):
        result = lint_one(
            """
def f(comm, x):
    if comm.rank == 0:
        comm.broadcast(x, src=0)  # spmd-ignore
"""
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_ignore_with_other_id_does_not_suppress(self):
        result = lint_one(
            """
def f(comm, x):
    if comm.rank == 0:
        comm.broadcast(x, src=0)  # spmd-ignore: SPMD103
"""
        )
        assert ids_of(result) == ["SPMD101"]

    def test_file_level_ignore(self):
        result = lint_one(
            """# spmd-ignore-file: SPMD103
def f():
    for gate in {1, 2}:
        print(gate)
"""
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_file_level_bare_ignores_everything(self):
        result = lint_one(
            """# spmd-ignore-file
def f(comm, x):
    if comm.rank == 0:
        comm.broadcast(x, src=0)
    for gate in {1, 2}:
        comm.iallreduce_average(gate)
"""
        )
        assert not result.findings
        assert result.suppressed >= 2


class TestDriverAndReport:
    def test_rule_catalog_has_at_least_six_ids(self):
        ids = all_rule_ids()
        assert len(ids) >= 6
        assert len(set(ids)) == len(ids)

    def test_syntax_error_reported_as_lint_error(self):
        result = lint_sources({"bad.py": "def f(:\n"})
        assert not result.ok
        assert result.errors and "syntax error" in result.errors[0].message

    def test_findings_sorted_and_json_payload_shape(self):
        result = lint_sources(
            {
                "b.py": "def f(comm, x):\n    comm.iallreduce_average(x)\n",
                "a.py": "def f(values: set):\n    return sum(values)\n",
            }
        )
        assert [f.path for f in result.findings] == ["a.py", "b.py"]
        payload = result_payload(result)
        assert payload["version"] == 1
        assert payload["files_checked"] == 2
        assert {entry["rule_id"] for entry in payload["findings"]} == {"SPMD102", "SPMD105"}
        for entry in payload["findings"]:
            assert set(entry) == {"rule_id", "rule_name", "path", "line", "col", "message"}
        json.dumps(payload)  # must be serializable as-is

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(comm, x):\n    comm.iallreduce_average(x)\n")
        missing = str(tmp_path / "missing.py")

        assert lint_main([str(clean)]) == 0
        assert lint_main([str(dirty)]) == 1
        assert lint_main([missing]) == 2
        assert lint_main(["--list-rules"]) == 0
        assert lint_main(["--select", "SPMD999", str(clean)]) == 2
        # SPMD102 deselected: the dirty file is clean under SPMD101 only.
        assert lint_main(["--select", "SPMD101", str(dirty)]) == 0
        capsys.readouterr()

    def test_cli_json_format(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(comm, x):\n    comm.iallreduce_average(x)\n")
        assert lint_main(["--format", "json", str(dirty)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule_id"] == "SPMD102"

    def test_module_entry_point(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(clean)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestWholeTreeClean:
    def test_src_repro_lints_clean(self):
        """The shipped code must satisfy its own linter (CI acceptance gate)."""
        result = lint_paths([SRC_REPRO])
        assert result.files_checked > 50
        messages = [f.format() for f in result.findings] + [e.message for e in result.errors]
        assert result.ok, "\n".join(messages)
