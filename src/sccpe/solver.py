"""Satisfiability and entailment of constraint formulas.

Three routes:

* an internal decision procedure, complete for the difference-logic
  fragment: formulas are lowered to DNF and each conjunct is checked for a
  negative cycle in its constraint graph (Bellman-Ford);
* an external SMT-LIB2 solver spoken to over a child process's stdin/stdout,
  for formulas the fragment cannot express (arithmetic, conditionals,
  Boolean equality);
* a brute-force model enumerator used as a test oracle, independent of the
  other two.

``entails(c, d)`` is unsatisfiability of ``c and not(d)``.  A solver
timeout surfaces as an ``unknown`` verdict; by default that raises
:class:`SolverInconclusive`, while the ``paper`` policy silently treats
unknown as unsatisfiable (reproducing the behavior of engines that map
timeouts to "not satisfiable" -- unsound for entailment, hence not the
default).
"""

from __future__ import annotations

import itertools
import subprocess
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .formula import (
    And,
    Arith,
    BoolConst,
    BoolEq,
    BoolITE,
    BoolLit,
    BoolNeq,
    Cmp,
    DLAtom,
    Formula,
    FragmentUnsupported,
    Implies,
    IntITE,
    IntLit,
    Neg,
    Not,
    Or,
    Sort,
    Var,
    Xor,
    canonicalize,
    children,
    conjoin,
    free_vars,
    negate,
    to_dnf,
)


class SolverInconclusive(RuntimeError):
    """The backend answered `unknown` under the strict policy."""


class ExternalSolverError(RuntimeError):
    """Spawn or protocol failure of the external solver process."""


@dataclass(frozen=True)
class SatResult:
    kind: str  # 'sat' | 'unsat' | 'unknown'
    reason: Optional[str] = None

    @property
    def is_sat(self) -> bool:
        return self.kind == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.kind == "unsat"


SAT = SatResult("sat")
UNSAT = SatResult("unsat")


def unknown(reason: str) -> SatResult:
    return SatResult("unknown", reason)


@dataclass(frozen=True)
class SolverConfig:
    """Backend selection and policies.

    With the internal backend, `external_cmd` (an argv tuple) is the
    failover target for formulas outside the fragment; without one, such
    formulas raise FragmentUnsupported.
    """

    backend: str = "internal"  # 'internal' | 'external'
    external_cmd: Optional[tuple] = None
    timeout_ms: int = 5000
    unknown_policy: str = "error"  # 'error' | 'paper'

    def __post_init__(self):
        if self.backend not in ("internal", "external"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "external" and not self.external_cmd:
            raise ValueError("external backend requires a solver command line")
        if self.timeout_ms < 1:
            raise ValueError("timeout_ms must be positive")
        if self.unknown_policy not in ("error", "paper"):
            raise ValueError(f"unknown unknown_policy {self.unknown_policy!r}")


class Solver:
    """A solving session: a configuration plus a verdict cache.

    Sessions are not thread-safe; concurrent explorations should each use
    their own session.  Verdicts are immutable values and can be shared.
    """

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self._memo: dict[Formula, SatResult] = {}

    def check_sat(self, c: Formula) -> SatResult:
        key = canonicalize(c)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.config.backend == "external":
            result = self._external(key)
        else:
            try:
                result = _internal_sat(key)
            except FragmentUnsupported:
                if self.config.external_cmd is None:
                    raise
                result = self._external(key)
        self._memo[key] = result
        return result

    def check_unsat(self, c: Formula) -> bool:
        result = self.check_sat(c)
        if result.kind == "unknown":
            if self.config.unknown_policy == "error":
                raise SolverInconclusive(
                    f"solver returned unknown ({result.reason}) for: {c}"
                )
            return True  # unknown counted as not-satisfiable
        return result.is_unsat

    def entails(self, c: Formula, d: Formula) -> bool:
        return self.check_unsat(conjoin(c, negate(d)))

    def _external(self, c: Formula) -> SatResult:
        return _run_external(self.config.external_cmd, smtlib_script(c), self.config.timeout_ms)


def check_sat(c: Formula, config: SolverConfig | None = None) -> SatResult:
    return Solver(config).check_sat(c)


def check_unsat(c: Formula, config: SolverConfig | None = None) -> bool:
    return Solver(config).check_unsat(c)


def entails(c: Formula, d: Formula, config: SolverConfig | None = None) -> bool:
    return Solver(config).entails(c, d)


# ---------------------------------------------------------------------------
# Internal procedure


def _internal_sat(c: Formula) -> SatResult:
    for conjunct in to_dnf(c):
        polarity: dict[str, bool] = {}
        consistent = True
        atoms = []
        for lit in conjunct:
            if isinstance(lit, BoolLit):
                seen = polarity.get(lit.name)
                if seen is not None and seen != lit.positive:
                    consistent = False
                    break
                polarity[lit.name] = lit.positive
            else:
                atoms.append(lit)
        if consistent and dl_conjunct_sat(atoms):
            return SAT
    return UNSAT


def dl_conjunct_sat(atoms: Iterable[DLAtom]) -> bool:
    """Satisfiability of a conjunction of difference atoms over the integers.

    Builds the constraint graph (edge y -> x of weight k for x - y <= k,
    bounds hung off a virtual zero vertex) and runs Bellman-Ford from an
    implicit all-zero source; a relaxation that still fires after |V|-1
    rounds witnesses a negative cycle, i.e. unsatisfiability.  Complete for
    integer difference logic.
    """
    edges = []
    vertices = {None}
    for a in atoms:
        vertices.add(a.x)
        if a.kind == "ub":
            edges.append((None, a.x, a.k))
        elif a.kind == "lb":
            edges.append((a.x, None, -a.k))
        else:
            vertices.add(a.y)
            edges.append((a.y, a.x, a.k))
    dist = dict.fromkeys(vertices, 0)
    changed = False
    for _ in range(len(vertices)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return True
    return not changed


# ---------------------------------------------------------------------------
# External SMT-LIB2 backend


def smtlib_script(c: Formula) -> str:
    """Render a QF_LIA check-sat script for c."""
    lines = ["(set-logic QF_LIA)"]
    for v in sorted(free_vars(c), key=lambda v: v.name):
        smt_sort = "Int" if v.sort is Sort.INT else "Bool"
        lines.append(f"(declare-const {v.name} {smt_sort})")
    lines.append(f"(assert {_smt(c)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _smt(t) -> str:
    if isinstance(t, BoolConst):
        return "true" if t.value else "false"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if isinstance(t, Neg):
        return f"(- {_smt(t.arg)})"
    if isinstance(t, Arith):
        return f"({t.op} {_smt(t.left)} {_smt(t.right)})"
    if isinstance(t, Not):
        return f"(not {_smt(t.arg)})"
    if isinstance(t, (And, Or, Xor)):
        op = {And: "and", Or: "or", Xor: "xor"}[type(t)]
        return f"({op} {' '.join(_smt(a) for a in t.args)})"
    if isinstance(t, Implies):
        return f"(=> {_smt(t.left)} {_smt(t.right)})"
    if isinstance(t, (BoolEq, BoolNeq)):
        inner = f"(= {_smt(t.left)} {_smt(t.right)})"
        return inner if isinstance(t, BoolEq) else f"(not {inner})"
    if isinstance(t, Cmp):
        if t.op == "===":
            return f"(= {_smt(t.left)} {_smt(t.right)})"
        if t.op == "=/==":
            return f"(not (= {_smt(t.left)} {_smt(t.right)}))"
        return f"({t.op} {_smt(t.left)} {_smt(t.right)})"
    if isinstance(t, (IntITE, BoolITE)):
        return f"(ite {_smt(t.cond)} {_smt(t.then)} {_smt(t.orelse)})"
    raise TypeError(f"not a term: {t!r}")


def _run_external(cmd: tuple, script: str, timeout_ms: int) -> SatResult:
    try:
        proc = subprocess.run(
            list(cmd),
            input=script,
            capture_output=True,
            text=True,
            timeout=timeout_ms / 1000.0,
        )
    except subprocess.TimeoutExpired:
        return unknown(f"timeout after {timeout_ms} ms")
    except OSError as exc:
        raise ExternalSolverError(f"cannot run {cmd[0]}: {exc}") from exc
    for line in proc.stdout.splitlines():
        verdict = line.strip()
        if verdict == "sat":
            return SAT
        if verdict == "unsat":
            return UNSAT
        if verdict == "unknown":
            return unknown("solver answered unknown")
    raise ExternalSolverError(
        f"no verdict from {cmd[0]} (exit {proc.returncode}): {proc.stderr.strip()[:200]}"
    )


# ---------------------------------------------------------------------------
# Brute-force oracle


def small_model_bound(c: Formula) -> int:
    """Sufficient enumeration bound for the fragment: sum of absolute
    literal constants plus the number of integer variables plus one."""
    total = 0

    def walk(t):
        nonlocal total
        if isinstance(t, IntLit):
            total += abs(t.value)
        for kid in children(t):
            walk(kid)

    walk(c)
    n_int = sum(1 for v in free_vars(c) if v.sort is Sort.INT)
    return total + n_int + 1


def _assert_fragment(t: Formula) -> None:
    # Deliberately independent of to_dnf: a plain whitelist walk.
    if isinstance(t, BoolConst):
        return
    if isinstance(t, Var):
        if t.sort is not Sort.BOOL:
            raise FragmentUnsupported(f"integer variable {t.name} in formula position")
        return
    if isinstance(t, Not):
        _assert_fragment(t.arg)
        return
    if isinstance(t, (And, Or, Xor)):
        for a in t.args:
            _assert_fragment(a)
        return
    if isinstance(t, Implies):
        _assert_fragment(t.left)
        _assert_fragment(t.right)
        return
    if isinstance(t, Cmp):
        for side in (t.left, t.right):
            if isinstance(side, Var):
                if side.sort is not Sort.INT:
                    raise FragmentUnsupported(f"Boolean variable {side.name} in a comparison")
            elif not isinstance(side, IntLit):
                raise FragmentUnsupported("comparison operands must be variables or literals")
        return
    raise FragmentUnsupported(f"{type(t).__name__} is outside the difference-logic fragment")


def _compile_eval(f: Formula) -> Callable[[dict], bool]:
    """Pre-resolve dispatch into closures; same semantics as eval_formula."""
    if isinstance(f, BoolConst):
        value = f.value
        return lambda env: value
    if isinstance(f, Var):
        name = f.name
        return lambda env: env[name]
    if isinstance(f, Not):
        g = _compile_eval(f.arg)
        return lambda env: not g(env)
    if isinstance(f, And):
        gs = tuple(_compile_eval(a) for a in f.args)
        return lambda env: all(g(env) for g in gs)
    if isinstance(f, Or):
        gs = tuple(_compile_eval(a) for a in f.args)
        return lambda env: any(g(env) for g in gs)
    if isinstance(f, Xor):
        gs = tuple(_compile_eval(a) for a in f.args)
        return lambda env: sum(g(env) for g in gs) % 2 == 1
    if isinstance(f, Implies):
        gl, gr = _compile_eval(f.left), _compile_eval(f.right)
        return lambda env: (not gl(env)) or gr(env)
    if isinstance(f, Cmp):
        op = f.op
        left, right = f.left, f.right

        def side(e):
            if isinstance(e, IntLit):
                value = e.value
                return lambda env: value
            name = e.name
            return lambda env: env[name]

        ls, rs = side(left), side(right)
        if op == "<":
            return lambda env: ls(env) < rs(env)
        if op == "<=":
            return lambda env: ls(env) <= rs(env)
        if op == ">":
            return lambda env: ls(env) > rs(env)
        if op == ">=":
            return lambda env: ls(env) >= rs(env)
        if op == "===":
            return lambda env: ls(env) == rs(env)
        return lambda env: ls(env) != rs(env)
    raise FragmentUnsupported(f"{type(f).__name__} is outside the difference-logic fragment")


def brute_force_sat(c: Formula, bound: int) -> bool:
    """Enumerate integer assignments over [-bound, bound] and Boolean
    assignments over {false, true}; true iff some assignment satisfies c.

    Only valid on the fragment, where `small_model_bound(c)` is a
    sufficient bound.
    """
    _assert_fragment(c)
    variables = free_vars(c)
    int_names = sorted(v.name for v in variables if v.sort is Sort.INT)
    bool_names = sorted(v.name for v in variables if v.sort is Sort.BOOL)
    fn = _compile_eval(c)
    env: dict[str, object] = {}
    domain = range(-bound, bound + 1)
    for bools in itertools.product((False, True), repeat=len(bool_names)):
        for name, value in zip(bool_names, bools):
            env[name] = value
        for ints in itertools.product(domain, repeat=len(int_names)):
            for name, value in zip(int_names, ints):
                env[name] = value
            if fn(env):
                return True
    return False
