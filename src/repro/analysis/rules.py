"""AST lint rules for SPMD correctness hazards.

Each rule is a subclass of :class:`Rule` with a stable ``rule_id`` (used in
reports and ``# spmd-ignore:`` suppressions).  Rules run in two phases over a
batch of modules: :meth:`Rule.collect` sees every module first (to gather
project-wide facts such as "attribute ``pending`` is set-typed somewhere"),
then :meth:`Rule.check` re-visits each module and yields findings.

The rules target the hazard classes of this codebase's async comm stack:

========  ============================  ==========================================
ID        name                          hazard
========  ============================  ==========================================
SPMD101   rank-dependent-collective     collective posted under a rank-dependent
                                        branch → ranks diverge → deadlock
SPMD102   lost-work-handle              nonblocking post whose WorkHandle is
                                        dropped or never waited → lost comm
SPMD103   unordered-iteration           iterating a ``set``/``frozenset`` while
                                        planning comm → cross-rank schedule
                                        divergence (hash order is per-process)
SPMD104   unlocked-shared-mutation      attribute guarded by a lock elsewhere in
                                        the class mutated outside that lock
SPMD105   unordered-accumulation        float reduction (``sum``/``fsum``/
                                        ``np.sum``) over a set → accumulation
                                        order, hence rounding, is per-process
SPMD106   collective-in-except          collective inside ``except:`` — only the
                                        raising rank runs it → deadlock
SPMD107   nondeterministic-guard        collective under a branch conditioned on
                                        time/random → ranks may disagree
========  ============================  ==========================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Finding", "Rule", "DEFAULT_RULES", "all_rule_ids"]

#: Method/function names that perform (or drive) a collective in this codebase.
COLLECTIVE_CALLS = frozenset(
    {
        "allreduce_average",
        "broadcast",
        "ibroadcast",
        "iallreduce_average",
        "barrier",
        "post_collective",
        "finish_collective",
        "run_allreduces",
        "run_broadcasts",
        "post_allreduces",
        "post_broadcasts",
        "drain",
    }
)

#: Nonblocking posts that return a WorkHandle the caller must finish.
NONBLOCKING_CALLS = frozenset({"iallreduce_average", "ibroadcast", "post_collective"})

#: Method calls that mutate a container in place (for SPMD104).
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "remove",
        "discard",
        "extend",
        "insert",
        "setdefault",
        "sort",
    }
)

#: Set-returning method names on set objects (for SPMD103/105 inference).
SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference", "copy"})

#: Call names in a branch condition that make it nondeterministic (SPMD107).
NONDETERMINISTIC_CALLS = frozenset(
    {
        "perf_counter",
        "monotonic",
        "process_time",
        "time",
        "time_ns",
        "random",
        "randint",
        "randn",
        "rand",
        "randrange",
        "choice",
        "shuffle",
        "uniform",
        "normal",
        "now",
        "getrandbits",
    }
)


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source location."""

    rule_id: str
    rule_name: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} [{self.rule_name}] {self.message}"


class Rule:
    """Base class for lint rules (two-phase: collect across modules, then check)."""

    rule_id: str = "SPMD000"
    rule_name: str = "abstract"

    def collect(self, path: str, tree: ast.Module) -> None:
        """First pass over every module: gather project-wide facts."""

    def check(self, path: str, tree: ast.Module) -> Iterator[Finding]:
        """Second pass: yield findings for one module."""
        return iter(())

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            rule_name=self.rule_name,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# --------------------------------------------------------------------------- helpers


def call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _mentions_rank(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in ("rank", "global_rank", "local_rank"):
            return True
        if isinstance(node, ast.Attribute) and node.attr in ("rank", "_rank", "global_rank", "local_rank"):
            return True
    return False


def _mentions_nondeterminism(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in NONDETERMINISTIC_CALLS:
                return True
    return False


def _is_self_attr(node: ast.AST, attr: Optional[str] = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.AST, set_locals: Set[str], set_attrs: Set[str]) -> bool:
    """Conservatively: does this expression produce a set/frozenset?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and name in SET_METHODS:
            return _is_set_expr(node.func.value, set_locals, set_attrs)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left, set_locals, set_attrs) or _is_set_expr(
            node.right, set_locals, set_attrs
        )
    if isinstance(node, ast.Name):
        return node.id in set_locals
    if isinstance(node, ast.Attribute):
        return node.attr in set_attrs
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body, set_locals, set_attrs) or _is_set_expr(
            node.orelse, set_locals, set_attrs
        )
    return False


_TRANSPARENT_ITER_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})


def _unwrap_iter(node: ast.AST) -> ast.AST:
    """Peel list()/tuple()/enumerate()/reversed() — they preserve order.

    ``sorted()`` is deliberately *not* peeled: it is the sanctioned way to
    iterate a set deterministically.
    """
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _TRANSPARENT_ITER_WRAPPERS
        and node.args
    ):
        node = node.args[0]
    return node


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet")
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet", "MutableSet", "AbstractSet")
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.strip()
        return text.split("[", 1)[0].strip().lower() in ("set", "frozenset")
    return False


def _function_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _iter_comprehension_iters(node: ast.AST) -> Iterator[ast.AST]:
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for comp in node.generators:
            yield comp.iter


class _BranchWalker:
    """Shared recursive walker for "collective inside a flagged branch" rules."""

    def __init__(self, predicate) -> None:
        self._predicate = predicate

    def walk(self, tree: ast.Module) -> Iterator[Tuple[ast.Call, str, ast.AST]]:
        yield from self._walk_body(tree.body, flagged=None)

    def _walk_body(self, body: Sequence[ast.stmt], flagged: Optional[ast.AST]) -> Iterator:
        for stmt in body:
            yield from self._walk_stmt(stmt, flagged)

    def _walk_stmt(self, stmt: ast.stmt, flagged: Optional[ast.AST]) -> Iterator:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested def is not executed here; reset the branch context.
            yield from self._walk_body(stmt.body, flagged=None)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            inner = stmt if self._predicate(stmt.test) else flagged
            yield from self._walk_body(stmt.body, inner)
            # `else:` of a flagged `if` is just as rank-dependent as the body.
            yield from self._walk_body(stmt.orelse, inner)
            return
        for child_body in self._stmt_bodies(stmt):
            yield from self._walk_body(child_body, flagged)
        if flagged is not None:
            for node in self._stmt_exprs(stmt):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and call_name(call) in COLLECTIVE_CALLS:
                        yield call, call_name(call), flagged

    @staticmethod
    def _stmt_bodies(stmt: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
        for field in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                yield value
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
        for field, value in ast.iter_fields(stmt):
            if field in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.AST):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        yield item


# ----------------------------------------------------------------------------- rules


class RankDependentCollectiveRule(Rule):
    """SPMD101: a collective lexically inside a rank-conditioned branch.

    If only some ranks execute a collective, the others wait forever (or the
    rendezvous pairs the wrong calls).  Rank tests may guard *payload
    construction* (e.g. only the source rank packs a broadcast buffer), but
    the collective call itself must sit outside the branch.
    """

    rule_id = "SPMD101"
    rule_name = "rank-dependent-collective"

    def check(self, path: str, tree: ast.Module) -> Iterator[Finding]:
        walker = _BranchWalker(_mentions_rank)
        for call, name, branch in walker.walk(tree):
            yield self.finding(
                path,
                call,
                f"collective {name}() executed under a rank-dependent branch "
                f"(condition at line {branch.test.lineno}); ranks that skip it will "
                "deadlock or mis-pair the rendezvous — hoist the call out and guard "
                "only the payload",
            )


class LostWorkHandleRule(Rule):
    """SPMD102: a nonblocking post whose WorkHandle is dropped or never waited."""

    rule_id = "SPMD102"
    rule_name = "lost-work-handle"

    def check(self, path: str, tree: ast.Module) -> Iterator[Finding]:
        for func in _function_nodes(tree):
            yield from self._check_function(path, func)

    def _check_function(self, path: str, func: ast.AST) -> Iterator[Finding]:
        candidates: Dict[str, ast.Call] = {}
        loads: Set[str] = set()
        dels: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                name = call_name(node.value)
                if name in NONBLOCKING_CALLS:
                    yield self.finding(
                        path,
                        node.value,
                        f"WorkHandle returned by {name}() is discarded; the collective "
                        "is never finished (lost comm) — keep the handle and call "
                        "finish()/wait(), or use the blocking variant",
                    )
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                name = call_name(node.value)
                if (
                    name in NONBLOCKING_CALLS
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    candidates[node.targets[0].id] = node.value
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                elif isinstance(node.ctx, ast.Del):
                    dels.add(node.id)
        for var, call in candidates.items():
            if var not in loads:
                verb = "del'd" if var in dels else "assigned but never used"
                yield self.finding(
                    path,
                    call,
                    f"WorkHandle {var!r} from {call_name(call)}() is {verb}; the "
                    "collective is never finished (lost comm)",
                )


class UnorderedIterationRule(Rule):
    """SPMD103: iterating a set/frozenset (hash order ⇒ cross-rank divergence).

    Set iteration order depends on insertion history and per-process hash
    state.  Any comm plan, bucket layout, or gate registration derived from it
    can differ across ranks.  ``sorted(...)`` is the sanctioned escape hatch.

    Inference sources: literal set expressions, set-typed locals (assigned
    only set-producing values), and attribute names that *anywhere in the
    linted tree* are assigned a set (or annotated as one) — membership tests
    (``x in s``) are always fine and never flagged.
    """

    rule_id = "SPMD103"
    rule_name = "unordered-iteration"

    def __init__(self) -> None:
        self._set_attrs: Set[str] = set()

    def collect(self, path: str, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, set(), self._set_attrs):
                for target in node.targets:
                    if _is_self_attr(target):
                        self._set_attrs.add(target.attr)
            elif isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
                if _is_self_attr(node.target):
                    self._set_attrs.add(node.target.attr)
                elif isinstance(node.target, ast.Name):
                    # `pending: set` parameter-style annotation inside a class body
                    self._set_attrs.add(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotated = {
                    arg.arg
                    for arg in list(node.args.args) + list(node.args.kwonlyargs)
                    if _annotation_is_set(arg.annotation)
                }
                if annotated:
                    for inner in ast.walk(node):
                        if isinstance(inner, ast.Assign):
                            if isinstance(inner.value, ast.Name) and inner.value.id in annotated:
                                for target in inner.targets:
                                    if _is_self_attr(target):
                                        self._set_attrs.add(target.attr)

    def check(self, path: str, tree: ast.Module) -> Iterator[Finding]:
        for func in _function_nodes(tree):
            set_locals = self._set_locals(func)
            for node in ast.walk(func):
                iters: List[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                iters.extend(_iter_comprehension_iters(node))
                for raw_iter in iters:
                    target = _unwrap_iter(raw_iter)
                    if _is_set_expr(target, set_locals, self._set_attrs):
                        yield self.finding(
                            path,
                            raw_iter,
                            self._message(target),
                        )

    @staticmethod
    def _message(target: ast.AST) -> str:
        if isinstance(target, ast.Attribute):
            what = f"set-typed attribute '{target.attr}'"
        elif isinstance(target, ast.Name):
            what = f"set-typed local '{target.id}'"
        else:
            what = "a set expression"
        return (
            f"iteration over {what}: set order is per-process hash order, so any "
            "comm plan or schedule derived from it can diverge across ranks — "
            "iterate a deterministic sequence or wrap in sorted(...)"
        )

    @staticmethod
    def _set_locals(func: ast.AST) -> Set[str]:
        assigned_set: Set[str] = set()
        assigned_other: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                is_set = _is_set_expr(node.value, assigned_set, set())
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        (assigned_set if is_set else assigned_other).add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _annotation_is_set(node.annotation):
                    assigned_set.add(node.target.id)
                elif node.value is not None:
                    assigned_other.add(node.target.id)
        for arg in _func_args(func):
            if _annotation_is_set(arg.annotation):
                assigned_set.add(arg.arg)
        return assigned_set - assigned_other


def _func_args(func: ast.AST) -> List[ast.arg]:
    args = func.args
    return list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)


class UnlockedSharedMutationRule(Rule):
    """SPMD104: lock-guarded attribute mutated outside the lock.

    Per class: attributes mutated under ``with self.<lock>:`` (where
    ``self.<lock>`` was assigned ``threading.Lock()``/``RLock()``) form the
    guarded set; any mutation of a guarded attribute outside such a block —
    except in ``__init__`` — is a race against the comm/trace threads.
    """

    rule_id = "SPMD104"
    rule_name = "unlocked-shared-mutation"

    def check(self, path: str, tree: ast.Module) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(path, node)

    def _check_class(self, path: str, cls: ast.ClassDef) -> Iterator[Finding]:
        lock_attrs = self._lock_attrs(cls)
        if not lock_attrs:
            return
        guarded: Set[str] = set()
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan(method.body, lock_attrs, in_lock=False, guarded=guarded, findings=None)
        if not guarded:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction happens-before sharing
            findings: List[Tuple[ast.AST, str]] = []
            self._scan(method.body, lock_attrs, in_lock=False, guarded=guarded, findings=findings)
            for node, attr in findings:
                yield self.finding(
                    path,
                    node,
                    f"attribute 'self.{attr}' is mutated under the lock elsewhere in "
                    f"class {cls.name!r} but mutated here without holding it — a race "
                    "against the threads that respect the lock",
                )

    @staticmethod
    def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
        locks: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                name = call_name(node.value)
                if name in ("Lock", "RLock", "Condition"):
                    for target in node.targets:
                        if _is_self_attr(target):
                            locks.add(target.attr)
        return locks

    def _scan(self, body, lock_attrs, in_lock, guarded, findings) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan(stmt.body, lock_attrs, in_lock, guarded, findings)
                continue
            if isinstance(stmt, ast.With):
                holds = any(
                    _is_self_attr(item.context_expr, None)
                    and item.context_expr.attr in lock_attrs
                    for item in stmt.items
                )
                self._scan(stmt.body, lock_attrs, in_lock or holds, guarded, findings)
                continue
            for mutated_node, attr in self._mutations(stmt):
                if in_lock:
                    guarded.add(attr)
                elif findings is not None and attr in guarded:
                    findings.append((mutated_node, attr))
            for child in self._child_bodies(stmt):
                self._scan(child, lock_attrs, in_lock, guarded, findings)

    @staticmethod
    def _child_bodies(stmt: ast.stmt):
        for field in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                yield value
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    @staticmethod
    def _mutations(stmt: ast.stmt) -> Iterator[Tuple[ast.AST, str]]:
        """Mutations in this statement's *own* expressions (child bodies are
        scanned by the recursive walk so nested ``with lock:`` is respected)."""
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if _is_self_attr(base):
                yield target, base.attr
        for expr in _BranchWalker._stmt_exprs(stmt):
            for node in ast.walk(expr):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS
                ):
                    base = node.func.value
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    if _is_self_attr(base):
                        yield node, base.attr


class UnorderedAccumulationRule(Rule):
    """SPMD105: float reduction over a set — accumulation order is hash order.

    ``sum()`` over a set of floats gives different roundings on different
    ranks (and different runs); anything allreduced or compared cross-rank
    must accumulate in a deterministic order (``sum(sorted(s))`` or a list).
    """

    rule_id = "SPMD105"
    rule_name = "unordered-accumulation"

    _REDUCERS = frozenset({"sum", "fsum", "prod", "mean"})

    def check(self, path: str, tree: ast.Module) -> Iterator[Finding]:
        for func in _function_nodes(tree):
            set_locals = UnorderedIterationRule._set_locals(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name not in self._REDUCERS or not node.args:
                    continue
                arg = _unwrap_iter(node.args[0])
                hazardous = _is_set_expr(arg, set_locals, set())
                if not hazardous and isinstance(arg, ast.GeneratorExp):
                    hazardous = any(
                        _is_set_expr(_unwrap_iter(comp.iter), set_locals, set())
                        for comp in arg.generators
                    )
                if hazardous:
                    yield self.finding(
                        path,
                        node,
                        f"{name}() over a set accumulates in per-process hash order; "
                        "float rounding then differs across ranks — accumulate over "
                        "sorted(...) or an ordered sequence",
                    )


class CollectiveInExceptRule(Rule):
    """SPMD106: a collective inside an ``except`` handler.

    Only the rank that raised runs the handler; its collective has no peers
    and deadlocks the group.  Error recovery must re-synchronize out-of-band
    (poison/abort), never via a collective on the failing path.
    """

    rule_id = "SPMD106"
    rule_name = "collective-in-except"

    def check(self, path: str, tree: ast.Module) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            for inner in self._walk_pruned(node.body):
                if isinstance(inner, ast.Call) and call_name(inner) in COLLECTIVE_CALLS:
                    yield self.finding(
                        path,
                        inner,
                        f"collective {call_name(inner)}() inside an except handler: "
                        "only the raising rank executes it, so the group deadlocks — "
                        "recover out-of-band instead",
                    )

    @staticmethod
    def _walk_pruned(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
        """ast.walk, but without descending into nested function/class defs."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


class NondeterministicGuardRule(Rule):
    """SPMD107: a collective under a branch conditioned on time or randomness."""

    rule_id = "SPMD107"
    rule_name = "nondeterministic-guard"

    def check(self, path: str, tree: ast.Module) -> Iterator[Finding]:
        walker = _BranchWalker(_mentions_nondeterminism)
        for call, name, branch in walker.walk(tree):
            yield self.finding(
                path,
                call,
                f"collective {name}() guarded by a time/random-dependent condition "
                f"(line {branch.test.lineno}); ranks evaluate it independently and may "
                "disagree — derive the decision from rank-invariant (allreduced) state",
            )


def DEFAULT_RULES() -> List[Rule]:
    """Fresh instances of every built-in rule (rules hold collect-phase state)."""
    return [
        RankDependentCollectiveRule(),
        LostWorkHandleRule(),
        UnorderedIterationRule(),
        UnlockedSharedMutationRule(),
        UnorderedAccumulationRule(),
        CollectiveInExceptRule(),
        NondeterministicGuardRule(),
    ]


def all_rule_ids() -> List[str]:
    return [rule.rule_id for rule in DEFAULT_RULES()]
