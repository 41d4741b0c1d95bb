"""Quantifier-free Boolean/integer constraint terms.

Constraints are immutable trees of the forms the surface language writes:
the Boolean constants and variables, conjunction, Boolean equality and
disequality, and comparisons between integer variables and literals.
These are functionally complete (``not f`` is ``f =/== true``), so there
is no other connective.  A term is built from its class, fields by
position (``Cmp("<", Var("X", Sort.INT), IntLit(1))``), and terms have no
ordering.  A node (`Node`, shared with the processes and objects of
`calculus`) is interned: building one returns the one live node of its
class with the same fields, so equal terms are one object, and equality
and hashing are identity (hash-consing: Filliatre & Conchon, "Type-Safe
Modular Hash-Consing", ML Workshop 2006).  A node computes its order key
once, when it is built, from its fields and its children's stored keys.
Its one later write is its canonical flag, a write-once cache that
`canonical` sets on the node it returns.  The module provides:

* `Record`, the slotted immutable value with fields that the package's
  other values are (but the agent, `calculus.AgentId`, which is its path
  tuple), whose fields are its annotations, taken by position and all
  compared, and `Node`, which has fields as a record has but is interned;
* ``conjoin`` with the unit and absorbing identities applied at the top
  (``c and true = c``, ``c and false = false``), so stores never
  accumulate redundant ``true`` conjuncts;
* ``rebuild``, the one map over a node's children, and ``canonical``, the
  one canonical form, which both read each class's `_kids` schema;
  ``canonicalize`` is ``canonical`` at a formula position, a purely
  syntactic normal form: conjunctions are flattened and sorted under a
  fixed total term order, ``true`` conjuncts dropped, ``false`` absorbing,
  syntactic duplicates removed.  Canonical terms are the engine's
  state-identity currency; a term that `canonical` returned is returned
  as it is, so its outputs cost one flag test when they come back;
* ``lower``, which lowers every well-sorted term to one literal form,
  the difference atom ``x - y <= k`` (`DLAtom`: a bound is a difference
  against 0, a Boolean an integer positive exactly when it holds), and each
  disjunctive choice (a negated conjunction, a Boolean equality, a
  disequality) to one split of a goal, the plain pair ``(atoms, splits)``,
  expanded only when the solver asks;
* a printer for the concrete constraint syntax used in logs
  (``X:Integer === 25 and Y:Integer < 5``).

The module has no evaluator and no reader: the brute-force model
enumerator that checks the solver (``tests/model_oracle.py``) and the
reader that checks the printer (``tests/formula_reader.py``) live with the
tests.

Everything here is a pure function over immutable values.
"""

from __future__ import annotations

from _thread import RLock
from collections.abc import Callable
from enum import Enum
from operator import attrgetter, is_
from weakref import WeakValueDictionary


class Sort(Enum):
    INT = "Int"
    BOOL = "Bool"


class SortConflict(ValueError):
    """The same variable name is used with two different sorts."""


# ---------------------------------------------------------------------------
# Immutable records and term structure


class _Slotted(type):
    """Metaclass of `Record` and `Node`.  A class's own public annotations,
    in order, are its fields: after its base's fields, they are its
    `__match_args__` and `_setters` (slot setters)."""

    def __new__(mcs, name, bases, ns):
        own = tuple(n for n in ns.get("__annotations__", ()) if not n.startswith("_"))
        ns.setdefault("__slots__", own)
        names = ns["__match_args__"] = getattr(bases[0], "__match_args__", ()) + own if bases else own
        cls = super().__new__(mcs, name, bases, ns)
        cls._setters = tuple([getattr(cls, n).__set__ for n in names])
        return cls


class _Fields(metaclass=_Slotted):
    """Immutable value with named fields, declared as class annotations.

    It is built from its fields by position, all of them; a wrong count
    raises TypeError.  It prints as ``Name(field=value, ...)``, and copy
    and pickle rebuild it through its class.
    """

    def __init__(self, *args):
        if len(args) != len(self._setters):
            raise TypeError(f"{type(self).__name__}() takes {self.__match_args__} by position")
        for put, value in zip(self._setters, args):
            put(self, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the class
        return type(self), tuple([getattr(self, n) for n in self.__match_args__])


class Record(_Fields):
    """Immutable value with named fields (`_Fields`): records of one class
    with equal fields are equal and hash alike.  Both use `_compared`: the
    tuple of the fields, or with `_bare` the one field's value."""

    def __init_subclass__(cls):
        names = cls.__match_args__
        cls._compared = attrgetter(*names) if names else staticmethod(lambda r: ())
        cls._bare = len(names) == 1

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:  # the hash of the tuple of fields
        return hash((self._compared(self),) if self._bare else self._compared(self))


_NODES = WeakValueDictionary()  # (class, fields, their types) -> the live node
_INTERNING = RLock()  # one node per key, also when threads build at once


class _Interned(_Slotted):
    """Metaclass of `Node`: a class called with fields returns the live node
    of that class whose fields are equal and of the same types, and builds
    one only when there is none.  The types keep a plain tuple apart from
    an `AgentId`, and ``1`` apart from ``True``, which compare equal.  The
    table holds its nodes weakly, so a node leaves it when the last
    reference to it goes."""

    def __call__(cls, *args):
        if not cls._interned:
            return super().__call__(*args)
        key = (cls, args, tuple(map(type, args)))
        with _INTERNING:
            node = _NODES.get(key)
            if node is None:
                node = _NODES[key] = super().__call__(*args)
        return node


class Node(_Fields, metaclass=_Interned):
    """Immutable tree node, interned: equal fields make one object, so two
    nodes are equal exactly when they are the same object, and a node
    hashes by identity.  Its order key is computed once, when it is built,
    and never changes afterwards.

    Each subclass declares its fields, its order `_tag` and its child
    fields in `_kids`, as ``(field, kinds, many)``: `kinds` is the set of
    node classes that the position admits in canonical form (`Kinds`), and
    `many` marks a tuple of children.  The other fields are payload.  The
    order key is ``(tag, payload..., child keys...)``, where a tuple of
    children stands as the tuple of their keys.  Its `_canon` flag means
    "returned by `canonical`" (a state's: by `calculus._canonical_state`);
    a node is built unflagged, but as it is shared, a call may return a
    node that `canonical` flagged before, and a flagged node is returned
    as it is whenever `canonical` meets it again.  A chain class (`And`,
    `calculus.Par`) makes its canonical form from canonical arguments in
    its `_chain`.  A class with `_interned` false (`calculus.SysState`)
    builds a new node at each call.
    """

    __slots__ = ("_key", "_canon", "__weakref__")
    _tag = -1
    _kids: tuple = ()
    _lits: tuple = ()  # the payload fields
    _chain = None
    _interned = True

    def __init_subclass__(cls):
        kids = [name for name, _, _ in cls._kids]
        cls._lits = tuple(n for n in cls.__match_args__ if n not in kids)

    def __init__(self, *args):
        super().__init__(*args)
        key = [self._tag, *self._head()]
        for name, _, many in self._kids:
            value = getattr(self, name)
            key.append(tuple([kid._key for kid in value]) if many else value._key)
        _put_key(self, tuple(key))
        _put_canon(self, False)

    def _head(self) -> tuple:
        return tuple([getattr(self, name) for name in self._lits])


_put_key, _put_canon = Node._key.__set__, Node._canon.__set__


def children(t: Node) -> list:
    """The child nodes of t, in field order."""
    out = []
    for name, _, many in t._kids:
        value = getattr(t, name)
        if many:
            out.extend(value)
        else:
            out.append(value)
    return out


def rebuild(t: Node, fn: Callable) -> Node:
    """t with each child c replaced by ``fn(c, kinds)``, `kinds` being the
    set its position admits; a tuple of children is mapped member by
    member.  Returns t itself when every child comes back as it is."""
    fields, same = {n: getattr(t, n) for n in t.__match_args__}, True
    for name, kinds, many in t._kids:
        old = fields[name]
        new = fields[name] = tuple([fn(k, kinds) for k in old]) if many else fn(old, kinds)
        same = same and (all(map(is_, new, old)) if many else new is old)
    return t if same else type(t)(*fields.values())


class Kinds(set):
    """The node classes a child position admits in canonical form, and the
    name `canonical` gives them when it refuses a node (``not a formula``)."""

    def __init__(self, name: str, *classes):
        super().__init__(classes)
        self.name = name


# The node classes a Boolean and an integer position admit; filled in below,
# once the classes exist.
BOOL_KINDS = Kinds("a formula")
INT_KINDS = Kinds("an integer expression")


class Var(Node):
    """A sorted variable; Bool variables double as atomic formulas."""

    name: str
    sort: Sort
    _tag = 1

    def _head(self) -> tuple:
        return (0 if self.sort is Sort.INT else 1, self.name)

    def __str__(self) -> str:
        return format_formula(self) if self.sort is Sort.BOOL else format_int_expr(self)


class IntLit(Node):
    value: int
    _tag = 2

    def __str__(self) -> str:
        return str(self.value)


class _Bool(Node):
    """Base of the formulas other than variables."""

    def __str__(self) -> str:
        return format_formula(self)


class BoolConst(_Bool):
    value: bool
    _tag = 0

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class And(_Bool):
    args: tuple  # >= 2 formulas
    _tag = 7
    _kids = (("args", BOOL_KINDS, True),)

    @staticmethod
    def _chain(args) -> "Formula":
        """The canonical conjunction of the canonical formulas `args`; the
        first ``false`` ends the reading."""
        parts = []
        for a in args:
            if type(a) is And:
                parts.extend(a.args)
            elif a == FALSE:
                return FALSE
            elif a != TRUE:
                parts.append(a)
        parts = sorted(dict.fromkeys(parts), key=term_key)
        if len(parts) < 2:
            return parts[0] if parts else TRUE
        return And(tuple(parts))


class BoolEq(_Bool):
    left: "Formula"
    right: "Formula"
    _tag = 11
    _kids = (("left", BOOL_KINDS, False), ("right", BOOL_KINDS, False))


class BoolNeq(_Bool):
    left: "Formula"
    right: "Formula"
    _tag = 12
    _kids = BoolEq._kids


class Cmp(_Bool):
    """Integer comparison; op is one of < <= > >= === =/==, and any other
    is refused when the node is built."""

    op: str
    left: "IntExpr"
    right: "IntExpr"
    _tag = 13
    _kids = (("left", INT_KINDS, False), ("right", INT_KINDS, False))

    def _head(self) -> tuple:  # the key's payload, read as the node is built
        if self.op not in _NEG_OP:
            raise TypeError(f"unknown comparison operator {self.op!r}")
        return (self.op,)


IntExpr = Var | IntLit
Formula = BoolConst | Var | And | BoolEq | BoolNeq | Cmp

INT_KINDS.update((Var, IntLit))
BOOL_KINDS.update((BoolConst, Var, And, BoolEq, BoolNeq, Cmp))


# ---------------------------------------------------------------------------
# Conjunction identities


def conjoin(c: Formula, d: Formula) -> Formula:
    """Conjunction with the unit/absorbing identities applied at the top."""
    if c == TRUE:
        return d
    if d == TRUE:
        return c
    if c == FALSE or d == FALSE:
        return FALSE
    parts = (c.args if isinstance(c, And) else (c,)) + (d.args if isinstance(d, And) else (d,))
    return And(parts)


# ---------------------------------------------------------------------------
# Total term order and canonical form


term_key = attrgetter("_key")  # the fixed total term order's key, stored at construction


def canonical(t: Node, kinds: Kinds) -> Node:
    """The canonical form of t at a position that admits `kinds`; idempotent.

    Raises TypeError when t or a node below it is not of a kind its
    position admits, and SortConflict on a Boolean variable at an integer
    position.  A chain is its class's `_chain` of its canonical arguments,
    and any other node is `rebuild` with its canonical children (t itself
    when they all come back as they are).  The result is flagged, and a
    flagged node is returned as it is: flagging t in place caches a fact
    that holds.
    """
    if type(t) not in kinds:
        raise TypeError(f"not {kinds.name}: {t!r}")
    if kinds is INT_KINDS and type(t) is Var and t.sort is Sort.BOOL:
        raise SortConflict(f"Boolean variable {t.name} used as an integer")
    if t._canon:
        return t
    if t._chain is None:
        out = rebuild(t, canonical)
    else:
        ((_, arg_kinds, _),) = t._kids
        out = t._chain(tuple([canonical(a, arg_kinds) for a in t.args]))
    _put_canon(out, True)
    return out


def canonicalize(c: Formula) -> Formula:
    """Syntactic canonical form of a formula; idempotent.

    Conjunctions are flattened, stripped of ``true``, collapsed on
    ``false``, deduplicated, and sorted; one left with one argument is that
    argument, and one left with none is ``true``.  No semantic reasoning
    happens here.  A term that `canonical` returned is returned as it is,
    and of any other only the chains and what is not canonical are rebuilt.
    """
    return canonical(c, BOOL_KINDS)


def note_sort(name: str, sort: Sort, sorts: dict) -> None:
    """Record name's sort in sorts (name -> sort); raises SortConflict when
    the name already has the other sort."""
    seen = sorts.setdefault(name, sort)
    if seen is not sort:
        raise SortConflict(f"variable {name} used with sorts {seen.value} and {sort.value}")


# ---------------------------------------------------------------------------
# Difference-logic lowering


class DLAtom(Record):
    """Closed integer difference constraint ``x - y <= k``, the one literal.

    `x` and `y` are variable names, or None for the constant 0 (the zero
    vertex of the constraint graph): ``X <= k`` is ``DLAtom("X", None, k)``
    and ``X >= k`` is ``DLAtom(None, "X", -k)``.  A Boolean variable P
    stands for an integer that is positive exactly when P holds, so P is
    ``DLAtom(None, "P", -1)`` and ``not P`` is ``DLAtom("P", None, 0)``.
    Strict inequalities are tightened before construction (x < k becomes
    x <= k-1).
    """

    x: str | None
    y: str | None
    k: int

    def __str__(self) -> str:
        x, y = ("0" if v is None else v for v in (self.x, self.y))
        return f"{x} - {y} <= {self.k}"


def lower(c: Formula, pos: bool = True, sorts: dict | None = None) -> tuple:
    """c, or not(c) when pos is false, as a goal with the same integer
    models: the pair (atoms, splits) of lists, all of whose members must
    hold, where a split is a tuple of alternative goals and holds when one
    of them does (so a split with no alternative is false).

    Walking with polarity, a conjunctive goal adds its atoms (an
    equality two), and a disjunctive one adds one split: a negated and
    (one alternative per conjunct), a Boolean = (both sides true, then both
    false) or =/= (left true and right false, then the converse), either
    one negated (the other's alternatives), or a disequality (left < right,
    then left > right).  Raises SortConflict when a name is used at both
    sorts (the two uses would share a vertex), checked on each variable as
    the walk meets it, or a variable sits in a position of the other sort,
    and TypeError on anything that is not a formula.  Names met go into
    `sorts` (name -> sort), when given."""
    return _goal({} if sorts is None else sorts, (c, pos))


# The perfbench tracer times the lowering under its former name.
to_dnf = lower


def _goal(sorts: dict, *parts) -> tuple:
    goal = [], []
    for f, pos in parts:
        _lower(f, pos, goal, sorts)
    return goal


def _lower(f: Formula, pos: bool, goal: tuple, sorts: dict) -> None:
    atoms, splits = goal
    if isinstance(f, BoolConst):
        if f.value != pos:
            splits.append(())
    elif isinstance(f, Var):
        note_sort(f.name, f.sort, sorts)
        if f.sort is not Sort.BOOL:
            raise SortConflict(f"integer variable {f.name} used as a formula")
        atoms.append(DLAtom(None, f.name, -1) if pos else DLAtom(f.name, None, 0))
    elif isinstance(f, And):
        if pos:
            for g in f.args:
                _lower(g, True, goal, sorts)
        else:
            splits.append(tuple(_goal(sorts, (g, False)) for g in f.args))
    elif isinstance(f, (BoolEq, BoolNeq)):  # the sides agree, or they differ
        same = pos == isinstance(f, BoolEq)
        splits.append(
            (_goal(sorts, (f.left, True), (f.right, same)),
             _goal(sorts, (f.left, False), (f.right, not same)))
        )
    elif isinstance(f, Cmp):
        _compare(f.op if pos else _NEG_OP[f.op], f.left, f.right, goal, sorts)
    else:
        raise TypeError(f"not a formula: {f!r}")


_NEG_OP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "===": "=/==", "=/==": "==="}


def _compare(op: str, left: IntExpr, right: IntExpr, goal: tuple, sorts: dict) -> None:
    # left op right, with left = x + a and right = y + b, is x - y op b - a
    (x, a), (y, b) = _operand(left, sorts), _operand(right, sorts)
    k = b - a
    if op in ("<", "<=", "==="):
        _le(x, y, k - (op == "<"), goal)
    if op in (">", ">=", "==="):
        _le(y, x, -k - (op == ">"), goal)
    if op == "=/==":
        goal[1].append((_le(x, y, k - 1, ([], [])), _le(y, x, -k - 1, ([], []))))


def _operand(e: IntExpr, sorts: dict) -> tuple:
    """A comparison operand as (variable name or None, constant)."""
    if isinstance(e, IntLit):
        return None, e.value
    if isinstance(e, Var):
        note_sort(e.name, e.sort, sorts)
        if e.sort is not Sort.INT:
            raise SortConflict(f"Boolean variable {e.name} used as an integer")
        return e.name, 0
    raise TypeError(f"not an integer expression: {e!r}")


def _le(x: str | None, y: str | None, k: int, goal: tuple) -> tuple:
    """Add x - y <= k to goal, folded to true or false when x and y coincide."""
    atoms, splits = goal
    if x != y:
        atoms.append(DLAtom(x, y, k))
    elif k < 0:
        splits.append(())
    return goal


# ---------------------------------------------------------------------------
# Concrete syntax: printer

# Binding powers: ``and`` binds looser than ``===`` and ``=/==``, which do
# not chain; a comparison binds as they do, so that it is parenthesized as
# the side of a Boolean (dis)equality (``(X:Integer === 1) =/== true``).
_B_AND, _B_EQ = 1, 2
_EQ_WORD = {BoolEq: " === ", BoolNeq: " =/== "}


def format_formula(f: Formula) -> str:
    """Render in the concrete constraint syntax, e.g. ``X:Integer === 25``."""
    return _fmt_bool(f, 0)


def format_int_expr(e: IntExpr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Var):
        return f"{e.name}:Integer"
    raise TypeError(f"not an integer expression: {e!r}")


def _wrap(s: str, bp: int, parent: int) -> str:
    return f"({s})" if bp < parent else s


def _fmt_bool(f: Formula, parent: int) -> str:
    if isinstance(f, BoolConst):
        return str(f)
    if isinstance(f, Var):
        return f"{f.name}:Boolean"
    if isinstance(f, And):
        if not f.args:  # an empty conjunction is its unit
            return "true"
        return _wrap(" and ".join(_fmt_bool(a, _B_AND + 1) for a in f.args), _B_AND, parent)
    if type(f) in _EQ_WORD:
        s = _EQ_WORD[type(f)].join((_fmt_bool(f.left, _B_EQ + 1), _fmt_bool(f.right, _B_EQ + 1)))
        return _wrap(s, _B_EQ, parent)
    if isinstance(f, Cmp):
        return _wrap(f"{format_int_expr(f.left)} {f.op} {format_int_expr(f.right)}", _B_EQ, parent)
    raise TypeError(f"not a formula: {f!r}")
