"""Builders for writing terms and reading states in Python tests.

The analyzer builds its terms from the surface syntax (`sccpe.lang`), and
the package's term classes take their fields by position:
``Cmp("<", Var("X", Sort.INT), IntLit(1))``.  The tests write the same
terms more briefly:

* `intvar` and `boolvar` name a variable of each sort;
* `lt`, `le`, `gt` and `ge` build a comparison, and `eq_` and `ne_` an
  equality or a disequality whose form follows the operands' sort (a
  `Cmp` over integers, a `BoolEq` or `BoolNeq` over formulas); a Python
  int is a literal, and a Python bool a constant;
* `free_vars` collects a formula's variables with their sorts;
* `store_map` reads a state's stores by agent.

The term classes have no ordering, so ``X < 1`` of an integer variable
raises TypeError; it is ``lt(X, 1)`` here.
"""

from __future__ import annotations

from sccpe.calculus import StoreObj, SysState
from sccpe.formula import (
    BOOL_KINDS,
    FALSE,
    INT_KINDS,
    TRUE,
    BoolEq,
    BoolNeq,
    Cmp,
    Formula,
    IntLit,
    Sort,
    SortConflict,
    Var,
    children,
    note_sort,
)


def intvar(name: str) -> Var:
    return Var(name, Sort.INT)


def boolvar(name: str) -> Var:
    return Var(name, Sort.BOOL)


def _as_int(x):
    if isinstance(x, int) and not isinstance(x, bool):
        return IntLit(x)
    if isinstance(x, Var) and x.sort is not Sort.INT:
        raise SortConflict(f"Boolean variable {x.name} used as an integer")
    if type(x) in INT_KINDS:
        return x
    raise TypeError(f"not an integer expression: {x!r}")


def lt(left, right) -> Cmp:
    return Cmp("<", _as_int(left), _as_int(right))


def le(left, right) -> Cmp:
    return Cmp("<=", _as_int(left), _as_int(right))


def gt(left, right) -> Cmp:
    return Cmp(">", _as_int(left), _as_int(right))


def ge(left, right) -> Cmp:
    return Cmp(">=", _as_int(left), _as_int(right))


def eq_(left, right) -> Formula:
    """Equality atom: integer `===` or Boolean `===` depending on operands."""
    return _equality("===", BoolEq, left, right)


def ne_(left, right) -> Formula:
    return _equality("=/==", BoolNeq, left, right)


def _equality(op: str, bool_cls: type, left, right) -> Formula:
    (lsort, lterm), (rsort, rterm) = _operand_sort(left), _operand_sort(right)
    if lsort is not rsort:
        raise TypeError(f"cannot equate {left} ({lsort.value}) with {right} ({rsort.value})")
    return Cmp(op, lterm, rterm) if lsort is Sort.INT else bool_cls(lterm, rterm)


def _operand_sort(x) -> tuple:
    """(sort, term) of an equality operand, a Python bool or int made a constant."""
    if isinstance(x, (bool, int)):
        x = (TRUE if x else FALSE) if isinstance(x, bool) else IntLit(x)
    if type(x) not in BOOL_KINDS and type(x) not in INT_KINDS:
        raise TypeError(f"not a term: {x!r}")
    return x.sort if isinstance(x, Var) else Sort.INT if type(x) in INT_KINDS else Sort.BOOL, x


def free_vars(c: Formula) -> frozenset:
    """All variables of c with their sorts; rejects inconsistent sorts."""
    acc: dict[str, Sort] = {}
    _collect_vars(c, acc)
    return frozenset(Var(n, s) for n, s in acc.items())


def _collect_vars(t, acc: dict) -> None:
    if isinstance(t, Var):
        note_sort(t.name, t.sort, acc)
        return
    if type(t) not in BOOL_KINDS and type(t) not in INT_KINDS:
        raise TypeError(f"not a term: {t!r}")
    for kid in children(t):
        _collect_vars(kid, acc)


def store_map(s: SysState) -> dict:
    """Agent -> store constraint for every store object in the state."""
    return {o.aid: o.constraint for o in s.objects if isinstance(o, StoreObj)}
