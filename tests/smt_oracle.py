"""An external SMT-LIB2 solver as a reference for `sccpe.solver`.

`smt_check(cmd, formula, timeout_s)` writes a QF_LIA script for the formula
(`smtlib_script`), runs the solver command line `cmd` on it, such as
``("z3", "-in")``, and returns the verdict it prints: "sat", "unsat" or
"unknown".  A solver still running after `timeout_s` seconds is stopped and
counts as "unknown".  A solver that cannot be started or prints no verdict
raises `RuntimeError`: a broken oracle must fail loudly, never pass.

It reads the term classes of `sccpe.formula` and nothing of the solver or
the difference-logic lowering, so agreement with the solver is agreement
of two independent procedures.  `tests/test_solver.py` compares the two
on random formulas when z3, cvc5 or yices is on PATH, and checks the
protocol against stub solvers otherwise.
"""

from __future__ import annotations

import subprocess

from builders import free_vars
from sccpe.formula import And, BoolConst, BoolEq, BoolNeq, Cmp, IntLit, Sort, Var


def smt_check(cmd, formula, timeout_s: float = 5) -> str:
    """The verdict of the solver `cmd` (an argv sequence) on `formula`."""
    if not cmd:
        raise ValueError("smt_check needs a solver command line, e.g. ('z3', '-in')")
    if timeout_s < 1:
        raise ValueError(f"timeout_s must be at least 1, got {timeout_s}")
    return _run_external(tuple(cmd), smtlib_script(formula), timeout_s)


def smtlib_script(c) -> str:
    """Render a QF_LIA check-sat script for c (`free_vars` raises
    `SortConflict` on a name used with two sorts)."""
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
    if isinstance(t, And):
        return f"(and {' '.join(_smt(a) for a in t.args)})"
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


def _run_external(cmd: tuple, script: str, timeout_s: float) -> str:
    try:
        proc = subprocess.run(list(cmd), input=script, capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return "unknown"
    except OSError as exc:
        raise RuntimeError(f"cannot run {cmd[0]}: {exc}") from exc
    for line in proc.stdout.splitlines():
        verdict = line.strip()
        if verdict in ("sat", "unsat", "unknown"):
            return verdict
    raise RuntimeError(f"no verdict from {cmd[0]} (exit {proc.returncode}): {proc.stderr.strip()[:200]}")
