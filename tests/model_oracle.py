"""Brute-force model enumeration: the reference that the solver is checked against.

`brute_force_sat` decides satisfiability of a difference-logic formula by
trying every assignment in a box that `small_model_bound` makes large
enough.  It shares no code with the solver or the difference-logic lowering: the
fragment is a whitelist walk of its own, and formulas are evaluated by
closures compiled straight from the term tree.  `compile_term` is the one
evaluator of the whole term language;
`literal_holds` gives the truth of a lowered literal, a difference
``x - y <= k`` whose sides are variable names or None for 0, by reading
its fields, with a Boolean valued 1 when true and 0 when false.
"""

from __future__ import annotations

import itertools
from typing import Callable

from builders import free_vars
from sccpe.formula import (
    And,
    BoolConst,
    BoolEq,
    BoolNeq,
    Cmp,
    IntLit,
    Sort,
    SortConflict,
    Var,
    children,
)


def small_model_bound(c) -> int:
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


def _assert_fragment(t) -> None:
    # Deliberately independent of the solver's lowering: a plain whitelist walk.
    if isinstance(t, BoolConst):
        return
    if isinstance(t, Var):
        if t.sort is not Sort.BOOL:
            raise SortConflict(f"integer variable {t.name} in formula position")
        return
    if isinstance(t, And):
        for a in t.args:
            _assert_fragment(a)
        return
    if isinstance(t, (BoolEq, BoolNeq)):
        _assert_fragment(t.left)
        _assert_fragment(t.right)
        return
    if isinstance(t, Cmp):
        for side in (t.left, t.right):
            if isinstance(side, Var):
                if side.sort is not Sort.INT:
                    raise SortConflict(f"Boolean variable {side.name} in a comparison")
            elif not isinstance(side, IntLit):
                raise ValueError("comparison operands must be variables or literals")
        return
    raise ValueError(f"{type(t).__name__} is outside the difference-logic fragment")


# Per operator, a builder of the closure over the operands' closures.
_BINARY = {
    "<": lambda l, r: lambda env: l(env) < r(env),
    "<=": lambda l, r: lambda env: l(env) <= r(env),
    ">": lambda l, r: lambda env: l(env) > r(env),
    ">=": lambda l, r: lambda env: l(env) >= r(env),
    "===": lambda l, r: lambda env: l(env) == r(env),
    "=/==": lambda l, r: lambda env: l(env) != r(env),
}


def compile_term(t) -> Callable[[dict], object]:
    """A function from an assignment (variable name to bool or int) to the
    value of t: a bool for a formula, an int for an integer expression."""
    if isinstance(t, (BoolConst, IntLit)):
        value = t.value
        return lambda env: value
    if isinstance(t, Var):
        name = t.name
        return lambda env: env[name]
    if isinstance(t, And):
        gs = tuple(compile_term(a) for a in t.args)
        return lambda env: all(g(env) for g in gs)
    if isinstance(t, (BoolEq, BoolNeq)):
        gl, gr = compile_term(t.left), compile_term(t.right)
        if isinstance(t, BoolEq):
            return lambda env: gl(env) == gr(env)
        return lambda env: gl(env) != gr(env)
    if isinstance(t, Cmp):
        return _BINARY[t.op](compile_term(t.left), compile_term(t.right))
    raise TypeError(f"not a term: {t!r}")


def literal_holds(lit, env: dict) -> bool:
    """Truth of one lowered literal ``x - y <= k`` under env, read from its
    fields: a name of None stands for 0, and a Boolean counts 1 when true
    and 0 when false."""

    def value(name) -> int:
        return 0 if name is None else int(env[name])

    return value(lit.x) - value(lit.y) <= lit.k


def brute_force_sat(c, bound: int) -> bool:
    """Enumerate integer assignments over [-bound, bound] and Boolean
    assignments over {false, true}; true iff some assignment satisfies c.

    Only valid on the fragment, where `small_model_bound(c)` is a
    sufficient bound.
    """
    _assert_fragment(c)
    variables = free_vars(c)
    int_names = sorted(v.name for v in variables if v.sort is Sort.INT)
    bool_names = sorted(v.name for v in variables if v.sort is Sort.BOOL)
    fn = compile_term(c)
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
