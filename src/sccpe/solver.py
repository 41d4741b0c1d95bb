"""Satisfiability and entailment of constraint formulas.

A `Solver` session decides them with one of two backends:

* an internal decision procedure, complete for every term the engine can
  build (difference logic): `formula.lower` turns a formula into
  difference atoms ``x - y <= k`` and open splits; the atoms' graph is
  checked for a negative cycle (Bellman-Ford), and a split is branched on
  only when the model this yields satisfies none of its alternatives;
* an external SMT-LIB2 solver spoken to over a child process's stdin/stdout,
  which decides the same formulas in its place, as a cross-check.

The brute-force model enumerator that the internal procedure is tested
against lives in ``tests/model_oracle.py`` and shares no code with it.

``Solver.entails(c, d)`` is unsatisfiability of ``c and not(d)``.  A session
holds two tables: one verdict per canonical formula, and one per ``(c, d)``
entailment, so a guard asked again of the same store costs one lookup.  A
solver timeout surfaces as an ``unknown`` verdict; by default that raises
:class:`SolverInconclusive`, while the ``paper`` policy silently treats
unknown as unsatisfiable (reproducing the behavior of engines that map
timeouts to "not satisfiable" -- unsound for entailment, hence not the
default).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .formula import (
    And,
    BoolConst,
    BoolEq,
    BoolNeq,
    Cmp,
    DLAtom,
    DLGoal,
    Formula,
    Implies,
    IntLit,
    Not,
    Or,
    Record,
    Sort,
    Var,
    Xor,
    canonicalize,
    conjoin,
    free_vars,
    negate,
    lower,
)


class SolverInconclusive(RuntimeError):
    """The backend answered `unknown` under the strict policy."""


class ExternalSolverError(RuntimeError):
    """Spawn or protocol failure of the external solver process."""


class SatResult(Record):
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


class SolverConfig(Record):
    """Backend selection and policies.

    Without `external_cmd` the internal procedure decides every formula;
    with one (an argv tuple), the external solver it starts decides every
    formula instead.
    """

    external_cmd: Optional[tuple] = None
    timeout_ms: int = 5000
    unknown_policy: str = "error"  # 'error' | 'paper'

    def __post_init__(self):
        if self.external_cmd is not None and not self.external_cmd:
            raise ValueError("external backend requires a solver command line")
        if self.timeout_ms < 1:
            raise ValueError("timeout_ms must be positive")
        if self.unknown_policy not in ("error", "paper"):
            raise ValueError(f"unknown unknown_policy {self.unknown_policy!r}")


class Solver:
    """A solving session: a configuration plus its verdict caches.  The
    entailment table keeps only verdicts: an entailment that raised
    `SolverInconclusive` is decided afresh each time it is asked.

    Sessions are not thread-safe; concurrent explorations should each use
    their own session.  Verdicts are immutable values and can be shared.
    """

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self._memo: dict[Formula, SatResult] = {}
        self._entailed: dict[tuple, bool] = {}  # (c, d) -> entails(c, d)

    def check_sat(self, c: Formula) -> SatResult:
        key = canonicalize(c)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        cmd = self.config.external_cmd
        if cmd is None:
            result = SAT if _search(lower(key)) else UNSAT
        else:
            result = _run_external(cmd, smtlib_script(key), self.config.timeout_ms)
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
        verdict = self._entailed.get((c, d))
        if verdict is None:
            verdict = self._entailed[c, d] = self.check_unsat(conjoin(c, negate(d)))
        return verdict


# ---------------------------------------------------------------------------
# Internal procedure


def _search(goal: DLGoal) -> bool:
    """Satisfiability of a goal, depth first on an explicit stack: branch only
    on the first split that its atoms' model leaves unsatisfied (Cotton & Maler 2006)."""
    todo = [goal]
    while todo:
        atoms, splits = todo.pop()
        model = dl_conjunct_sat(atoms)
        if model is None:
            continue
        for i, split in enumerate(splits):
            if not any(_satisfied_by(alt, model) for alt in split):
                rest = splits[:i] + splits[i + 1 :]
                todo.extend(DLGoal(atoms + alt.atoms, rest + alt.splits) for alt in split[::-1])
                break
        else:
            return True
    return False


def _satisfied_by(goal: DLGoal, model: dict) -> bool:
    """Whether the model (unlisted variables are 0) satisfies the goal."""
    value = model.get
    return all(value(a.x, 0) - value(a.y, 0) <= a.k for a in goal.atoms) and all(
        any(_satisfied_by(alt, model) for alt in split) for split in goal.splits
    )


def dl_conjunct_sat(atoms: Iterable[DLAtom]) -> dict | None:
    """An integer model of a conjunction of difference atoms, or None.

    One edge y -> x of weight k per atom x - y <= k; None is the zero vertex
    that bounds and Boolean (0/1) vertices hang off.  Two opposite edges of
    negative sum (P and not P) are a negative cycle found at once; otherwise
    Bellman-Ford from an implicit all-zero source finds one as a relaxation
    that still fires after |V|-1 rounds.  Complete for difference logic.
    The model is each vertex's distance less the zero vertex's.
    """
    edges = [(a.y, a.x, a.k) for a in atoms]
    weight = {(u, v): w for u, v, w in edges}
    if any((v, u) in weight and w + weight[v, u] < 0 for (u, v), w in weight.items()):
        return None
    dist = {None: 0}  # the zero vertex, counted in the rounds even when unused
    for u, v, _ in edges:
        dist[u] = dist[v] = 0
    for _ in range(len(dist)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return {v: d - dist[None] for v, d in dist.items()}
    return None


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
    raise TypeError(f"not a term: {t!r}")


def _run_external(cmd: tuple, script: str, timeout_ms: int) -> SatResult:
    import subprocess  # not at the top: it would slow every start-up that never needs it
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
