"""Executable semantics of spatial constraint processes with extrusion.

A system state is a multiset of objects: per-agent constraint stores and
running processes, both addressed by a qualified agent name (a path of
naturals ending at the root).  Two invisible normalizations keep states
canonical -- nil processes vanish and same-agent stores merge by
conjunction -- and six observable rules drive execution:

* tell    posts a constraint into the local store;
* ask     unblocks a guarded process once the local store entails the guard;
* parallel splits a composition into separately scheduled processes;
* space   pushes a process one level down the agent hierarchy, creating the
          child's (empty) store;
* recursion unfolds a recursive definition by substitution;
* extrusion moves a process from an agent's space up to its parent.

``canon_process`` is `formula.canonical` at a process position (flat,
sorted parallel compositions, ``Par._chain``), and ``replace``, the
substitution of the recursion rule, is `formula.rebuild` over the process
children, stopping at a nested ``r(j, ...)``.

``_transitions`` enumerates the moves of a state, one per rule applied at
one position, and ``_successor`` builds the objects of a move's successor;
``run``, ``explore`` and ``step`` share both.  States are canonical by
construction: each successor's objects are its normalized parent's
with the rewritten process object removed and at most two new objects
put in key order (or a store replaced in place), reusing every other
object and its stored hash and key, so no successor is ever re-normalized
as a whole.  A successor (and ``normalize``'s result) is built by
``_canonical_state``, with the key and hash taken straight from its
objects' stored ones and the canonical flag set, as `formula.canonical`
sets it on what it returns; ``SysState(...)`` never sets it.
``normalize`` stays total on raw states built by hand, and returns a
flagged state as it is.  The rules are local (as in CCP: Saraswat,
Rinard & Panangaden, POPL 1991), so ``explore`` and ``run`` keep one memo
of each process object's moves per store, which lasts for their call.  A
canonical state's store objects are the key-ordered prefix of its
objects (a store's key starts ``(0, path)``, a process's ``(1, path)``),
so ``store_count`` finds them by bisection and ``_transitions`` walks
only the process objects.

``explore`` is the breadth-first loop over all reachable states, the
engine of ``search.search``; it builds a successor as a state only when
it is new, found by an O(1) fingerprint and its object tuple (see
``explore``).  ``run`` follows a single path instead, building only the
successor of the first move at each step: the calculus has no choice
operator, stores only grow and distinct transitions rewrite distinct
objects, so any two distinct successors of a state have a common
successor (the one-step diamond property).  Then every maximal run from a
state has the same length and ends in the same state (van Oostrom,
"Random descent", RTA 2007), and the first move at each step reaches it
as well as any other.  ``step`` builds every successor of a state,
sorted; no CLI path calls it.

Rule application mirrors pattern-matching semantics: tell, ask, and space
all require the local store object to exist, and extrusion only fires
when the process sits in the space named by its own argument.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from operator import attrgetter
from typing import Callable, Union

from .formula import (
    BOOL_KINDS,
    TRUE,
    Formula,
    Kinds,
    Node,
    Record,
    _put_canon,
    _put_hash,
    _put_key,
    canonical,
    canonicalize,
    conjoin,
    rebuild,
    term_key,
)
from .solver import Solver


# ---------------------------------------------------------------------------
# Qualified agent names


class AgentId(Record):
    """Path of agent indices, innermost first; the empty path is the root.

    ``AgentId((2, 0))`` reads "agent 2 within agent 0 within the root" and
    prints as ``2 . 0 . root``.
    """

    path: tuple

    def child(self, index: int) -> "AgentId":
        return AgentId((index,) + self.path)

    @property
    def parent(self) -> "AgentId":
        return AgentId(self.path[1:])

    @property
    def is_root(self) -> bool:
        return not self.path

    def __str__(self) -> str:
        if not self.path:
            return "root"
        return " . ".join(str(n) for n in self.path) + " . root"


ROOT = AgentId(())


# ---------------------------------------------------------------------------
# Processes

# The node classes a process position admits; filled in below.
PROC_KINDS = Kinds("a process")


class _Proc(Node):
    """Base of the processes."""

    def __str__(self) -> str:
        return format_process(self)


class Nil(_Proc):
    _tag = 100


class Tell(_Proc):
    constraint: Formula
    _tag = 101
    _kids = (("constraint", BOOL_KINDS, False),)


class Ask(_Proc):
    guard: Formula
    then: "Process"
    _tag = 102
    _kids = (("guard", BOOL_KINDS, False), ("then", PROC_KINDS, False))


class Par(_Proc):
    """Parallel composition; associative-commutative, kept flat and sorted
    in canonical form (duplicates are meaningful: it is a multiset)."""

    args: tuple  # >= 2 processes
    _tag = 103
    _kids = (("args", PROC_KINDS, True),)

    @staticmethod
    def _chain(args) -> "Process":
        """The canonical composition of the canonical processes `args`."""
        flat = []
        for p in args:
            if type(p) is Par:
                flat.extend(p.args)
            else:
                flat.append(p)
        if len(flat) < 2:
            return flat[0] if flat else NIL
        return Par(tuple(sorted(flat, key=term_key)))


class Space(_Proc):
    agent: int
    body: "Process"
    _tag = 104
    _kids = (("body", PROC_KINDS, False),)


class Rec(_Proc):
    var: int
    body: "Process"
    _tag = 105
    _kids = Space._kids


class Extr(_Proc):
    agent: int
    body: "Process"
    _tag = 106
    _kids = Space._kids


class ProcVar(_Proc):
    var: int
    _tag = 107


Process = Union[Nil, Tell, Ask, Par, Space, Rec, Extr, ProcVar]
PROC_KINDS.update((Nil, Tell, Ask, Par, Space, Rec, Extr, ProcVar))

NIL = Nil()


def canon_process(p: Process) -> Process:
    """Canonical form: flat, sorted parallel compositions (`Par._chain`)
    and canonical constraint subterms, recursively.  A canonical process is
    returned as it is, and only the parts of one that is not are rebuilt."""
    return canonical(p, PROC_KINDS)


def replace(p: Process, n: int, q: Process) -> Process:
    """Substitute q for every occurrence of the process variable n.

    Substitution maps every process child (`rebuild`) but does not descend
    into recursion bodies, matching the unfolding discipline of the rewrite
    rules: a v(n) inside a nested r(j, ...) is never replaced.  Subterms
    without an occurrence are returned as they are.
    """
    if type(p) not in PROC_KINDS:
        raise TypeError(f"not a process: {p!r}")
    if type(p) is ProcVar:
        return q if p.var == n else p
    if type(p) is Rec:
        return p
    return rebuild(p, lambda kid, kinds: replace(kid, n, q) if kinds is PROC_KINDS else kid)


def format_process(p: Process, parent: int = 0) -> str:
    """Process rendering in the object-notation style, e.g.
    ``ask Y:Integer < 20 -> xtr(0, tell(...))``."""
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Tell):
        return f"tell({p.constraint})"
    if isinstance(p, Ask):
        s = f"ask {p.guard} -> {format_process(p.then, 2)}"
        return f"({s})" if parent > 1 else s
    if isinstance(p, Par):
        s = " || ".join(format_process(a, 2) for a in p.args)
        return f"({s})" if parent > 1 else s
    if isinstance(p, Space):
        return f"< {p.agent} >[ {format_process(p.body)} ]"
    if isinstance(p, Rec):
        return f"rec({p.var}, {format_process(p.body)})"
    if isinstance(p, Extr):
        return f"xtr({p.agent}, {format_process(p.body)})"
    if isinstance(p, ProcVar):
        return f"v({p.var})"
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Objects and states


class StoreObj(Node):
    aid: AgentId
    constraint: Formula
    _tag = 0
    _kids = (("constraint", BOOL_KINDS, False),)

    def _head(self) -> tuple:
        return (self.aid.path,)


class ProcObj(Node):
    aid: AgentId
    program: Process
    _tag = 1
    _kids = (("program", PROC_KINDS, False),)

    def _head(self) -> tuple:
        return (self.aid.path,)


OBJ_KINDS = Kinds("an object", StoreObj, ProcObj)


class SysState(Node):
    """A multiset of objects; canonical once normalized (sorted, one store
    per agent, no nil processes, canonical payloads)."""

    objects: tuple
    _tag = 200
    _kids = (("objects", OBJ_KINDS, True),)


_put_objects = SysState._setters[0]
_obj_hash = attrgetter("_hash")


def _canonical_state(objects: tuple) -> SysState:
    """The flagged SysState of canonical objects already in canonical order
    (sorted, one store per agent), with the key and hash that
    `Node.__init__` would compute, taken from the objects' stored ones."""
    s = SysState.__new__(SysState)
    _put_objects(s, objects)
    _put_key(s, (200, tuple(map(term_key, objects))))
    _put_hash(s, hash((200, tuple(map(_obj_hash, objects)))))
    _put_canon(s, True)
    return s


_FIRST_PROC = (ProcObj._tag,)  # above every store object's key, below every process's


def store_count(objs: tuple) -> int:
    """The number of store objects among a canonical state's objects, which
    are their key-ordered prefix: a store's key starts (0, path), a
    process's (1, path)."""
    return bisect_left(objs, _FIRST_PROC, key=term_key)


def normalize(s: SysState) -> SysState:
    """Exhaustive application of the invisible transitions plus canonical
    ordering: drop nil processes, merge same-agent stores by conjunction,
    canonicalize all payloads, sort.  Idempotent: a normalized state is
    returned as it is, and each object is `canonical` at an object
    position, so one with a canonical payload is kept."""
    if s._canon:
        return s
    stores: dict[AgentId, StoreObj] = {}
    procs = []
    for o in s.objects:
        if isinstance(o, StoreObj):
            prev = stores.get(o.aid)
            if prev is not None:
                o = StoreObj(o.aid, conjoin(prev.constraint, o.constraint))
            stores[o.aid] = o
        else:
            o = canonical(o, OBJ_KINDS)
            if not isinstance(o.program, Nil):
                procs.append(o)
    objects = [canonical(o, OBJ_KINDS) for o in stores.values()]
    objects.extend(procs)
    objects.sort(key=term_key)
    return _canonical_state(tuple(objects))


# ---------------------------------------------------------------------------
# Observable transitions


def _moves(o: ProcObj, current, has_child: bool, solver: Solver) -> tuple:
    """The local rewrites of the process object o, whose agent's store is
    `current` (None when the agent has no store) and, for a space, whose
    child's store exists iff has_child.

    Each move is (replacement store, ()) for a tell, or (None, objects
    added in place of o) with nil processes left out.
    """
    p = o.program
    if isinstance(p, Tell):
        if current is None:
            return ()
        return ((StoreObj(o.aid, canonicalize(conjoin(current, p.constraint))), ()),)
    if isinstance(p, Ask):
        if current is None or not solver.entails(current, p.guard):
            return ()
        added = [(ProcObj(o.aid, p.then),)]
    elif isinstance(p, Par):
        # the arguments are sorted: splitting at an argument equal to the
        # one before it, or at the second of two, adds the same objects again
        args, added = p.args, []
        for k in range(1 if len(args) == 2 else len(args)):
            if k and args[k] == args[k - 1]:
                continue
            rest = args[:k] + args[k + 1 :]
            sibling = rest[0] if len(rest) == 1 else Par(rest)
            added.append((ProcObj(o.aid, args[k]), ProcObj(o.aid, sibling)))
    elif isinstance(p, Space):
        if current is None:
            return ()
        child = o.aid.child(p.agent)
        body = ProcObj(child, p.body)  # merging a true store would change nothing
        added = [(body,) if has_child else (StoreObj(child, TRUE), body)]
    elif isinstance(p, Rec):
        added = [(ProcObj(o.aid, canon_process(replace(p.body, p.var, p))),)]
    elif isinstance(p, Extr) and not o.aid.is_root and o.aid.path[0] == p.agent:
        added = [(ProcObj(o.aid.parent, p.body),)]
    else:
        return ()
    return tuple(
        (None, tuple(a for a in objs if isinstance(a, StoreObj) or not isinstance(a.program, Nil)))
        for objs in added
    )


def _transitions(objs: tuple, solver: Solver, memo: dict):
    """The moves of the normalized state with objects objs, one rule at one
    position each: (index of the rewritten process object, index of the
    store it replaces or None, the new store or None, objects added, the
    move's fingerprint shift, `_shift(0, out, into)`).

    A rule's result depends only on the process object, its agent's store
    (or its absence) and, for a space, whether the child's store exists;
    never on the rest of the state.  `memo` maps that triple to the
    object's moves, so a caller that passes one dict to many calls rewrites
    each process in each store once.  Only the process objects, which
    follow the stores (`store_count`), are walked; of two equal ones
    (adjacent, since the objects are sorted) only the first is rewritten:
    the second would give the same moves.
    """
    n = store_count(objs)
    stores = {objs[j].aid.path: (j, objs[j].constraint) for j in range(n)}
    prev = None
    for i in range(n, len(objs)):
        o = objs[i]
        if prev is not None and o._hash == prev._hash and o == prev:
            continue
        prev = o
        path, p = o.aid.path, o.program
        j, current = stores.get(path, (None, None))
        key = (o, current, type(p) is Space and (p.agent,) + path in stores)
        moves = memo.get(key)
        if moves is None:
            # a tell replaces the store StoreObj(o.aid, current), so each
            # move's fingerprint shift too depends on the key alone
            moves = memo[key] = tuple(
                (store, added, _shift(0, (o,), added))
                if store is None
                else (store, added, _shift(0, (o, objs[j]), (store,)))
                for store, added in _moves(o, current, key[2], solver)
            )
        for store, added, shift in moves:
            yield i, (None if store is None else j), store, added, shift


def _successor(objs: tuple, i: int, j, store, added: tuple) -> tuple:
    """The objects of the successor that a move of `_transitions` makes:
    objs with object i removed, store j replaced in place (stores are
    ordered by agent) and the added objects put in key order."""
    new = list(objs)
    if j is not None:
        new[j] = store
    del new[i]
    for a in added:
        insort(new, a, key=term_key)
    return tuple(new)


def step(s: SysState, solver: Solver) -> list:
    """All states reachable from s by one rule applied at one position.

    Returns normalized states, deduplicated and sorted by canonical key:
    the moves of `_transitions`, each built by `_successor` and made a
    state by `_canonical_state`.  No CLI path calls it; the tests and the
    benchmark's tracer do.
    """
    objs = normalize(s).objects
    out = {_canonical_state(_successor(objs, *move[:4])) for move in _transitions(objs, solver, {})}
    return sorted(out, key=term_key)


def _shift(fp: int, out: tuple, into: tuple) -> int:
    """The fingerprint of the state whose objects are those of a state with
    fingerprint fp, less the objects `out`, plus the objects `into`.  A
    state's fingerprint is the sum of its objects' stored hashes, so it is
    updated in O(1) per move (Zobrist, 1970); equal states have equal
    fingerprints, and unequal ones may share one."""
    return fp - sum(map(_obj_hash, out)) + sum(map(_obj_hash, into))


def explore(init: SysState, solver: Solver, max_depth: int, visit: Callable) -> tuple:
    """Breadth-first search of every state reachable from normalize(init)
    within max_depth steps.

    States are numbered in discovery order (init is 0, the new successors
    of a state come in key order), and `visit(state, index, has_successor)`
    is called on each in that order before its successors are queued; a
    true return stops there.  Returns (states explored, depth reached,
    whether the depth bound kept a new state out, whether `visit` stopped
    the search).

    A successor is built as a `SysState` only when it is new.  Each state
    carries a fingerprint (`_shift`), and each move gives its successor's
    fingerprint from its parent's by adding the move's shift, which the
    memo of moves holds with the move, and the successor's object tuple
    from its parent's (`_successor`).  A per-call table maps each
    fingerprint to the object tuples of the states met with it, and a
    successor whose tuple is already there is skipped.  Tuples are
    compared, so two states that share a fingerprint are never merged.
    The new successors of a state at the depth bound are never built.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    start = normalize(init)
    memo: dict = {}  # the local moves of _transitions, for this call only
    fp = _shift(0, (), start.objects)
    table = {fp: [start.objects]}  # fingerprint -> object tuples met, for this call only
    queue = deque([(start, 0, 0, fp)])  # (state, discovery number, depth, fingerprint)
    explored, cut = 1, False
    while queue:
        state, index, depth, fp = queue.popleft()
        objs = state.objects
        fresh, moved = [], False
        for i, j, store, added, shift in _transitions(objs, solver, memo):
            moved = True
            f = fp + shift
            new = _successor(objs, i, j, store, added)
            bucket = table.get(f)
            if bucket is None:
                table[f] = [new]
            elif new in bucket:
                continue
            else:
                bucket.append(new)
            fresh.append((new, f))
        if visit(state, index, moved):
            return explored, depth, cut, True
        if fresh and depth >= max_depth:
            cut = True
            continue
        succs = [(_canonical_state(new), f) for new, f in fresh]
        succs.sort(key=lambda pair: pair[0]._key)
        for t, f in succs:
            queue.append((t, explored, depth + 1, f))
            explored += 1
    return explored, depth, cut, False


class RunResult(Record):
    """What `run` found on its path: the terminal state (none or one),
    whether the step bound stopped it, and the number of path states."""

    terminal_states: tuple
    truncated: bool
    states_explored: int


def run(s: SysState, solver: Solver, max_steps: int = 64) -> RunResult:
    """Follow one path from normalize(s) for at most max_steps steps,
    taking at each step the first move that `_transitions` yields: the
    first, in `_moves` order, of the first process object in key order that
    has one.  Only its successor is built, as an object tuple, and only a
    terminal state as a `SysState`.

    By the diamond property (see the module docstring) every maximal run
    ends in the same state, so a successor-free state on the path is the
    only terminal state, and a state met twice proves that no run
    terminates: there is then no terminal state, and `truncated` is false.
    `truncated` is true when the path is still going after max_steps steps.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    objs = normalize(s).objects
    path = {objs}
    memo: dict = {}  # the local moves of _transitions, for this call only
    while True:
        move = next(_transitions(objs, solver, memo), None)
        if move is None:
            return RunResult((_canonical_state(objs),), False, len(path))
        objs = _successor(objs, *move[:4])
        if objs in path:
            return RunResult((), False, len(path))
        if len(path) > max_steps:
            return RunResult((), True, len(path))
        path.add(objs)
