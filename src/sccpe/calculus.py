"""Executable semantics of spatial constraint processes with extrusion.

A system state is a multiset of objects: per-agent constraint stores and
running processes, both addressed by a qualified agent name.  An agent is
its path of naturals ending at the root, innermost first: an `AgentId` is
that tuple itself, and the root is the empty one.  Two invisible
normalizations keep states canonical -- nil processes vanish and
same-agent stores merge by conjunction -- and six observable rules drive
execution:

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
one position, and builds each one's successor as an object tuple as it
yields it; ``explore`` and ``step`` share it.  States are canonical by
construction: each successor's objects are its normalized parent's with
the rewritten process object removed and at most two new objects put in
key order (or a store replaced in place), reusing every other object and
its stored hash and key, so no successor is ever re-normalized as a whole.
A state's hash is its fingerprint, the sum of its objects' stored hashes,
which each move updates in O(1) (``_shift``).  A successor (and
``normalize``'s result) is built by ``_canonical_state``, with the key
taken straight from its objects' stored ones, the fingerprint its caller
carries as its hash, and the canonical flag set, as `formula.canonical`
sets it on what it returns; ``SysState(...)`` computes the same key and
hash but never sets the flag.  ``normalize`` stays total on raw states
built by hand, and returns a flagged state as it is.  The rules are local
(as in CCP: Saraswat, Rinard & Panangaden, POPL 1991), so ``explore``
keeps one memo of each process object's whole moves per store (``_moves``
makes each entry), which lasts for its call.  A canonical state's store
objects are the key-ordered prefix of its objects (a store's key starts
``(0, path)``, a process's ``(1, path)``), so ``store_count`` finds them
by bisection and ``_transitions`` walks only the process objects.
``store_index`` maps each agent path to its store's position; a move that
adds no store keeps every store where it was, so ``explore`` passes each
state's index on to its successors and builds a new one only after a move
that adds a store.

``explore`` is the one loop over states: breadth-first over all
reachable states, the engine of ``search.search``, it builds a successor
as a state only when it is new, found by its fingerprint and its object
tuple (see ``explore``).  Its table is the one place that drops repeated
successors: ``_transitions`` yields one per move, so equal process
objects, or equal arguments of a parallel composition, yield the same
successor more than once.  ``run`` is ``explore`` on each state's first
move: it follows a single path, building only the successor of the first
move at each step.  One path is enough, as the calculus has no choice
operator, stores only grow and distinct transitions rewrite distinct
objects, so any two distinct successors of a state have a common
successor (the one-step diamond property).  Then every maximal run from a
state has the same length and ends in the same state (van Oostrom,
"Random descent", RTA 2007), and the first move at each step reaches it
as well as any other.  ``step`` builds each distinct successor of a
state once, sorted; no CLI path calls it.

Rule application mirrors pattern-matching semantics: tell, ask, and space
all require the local store object to exist, and extrusion only fires
when the process sits in the space named by its own argument.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from collections.abc import Callable
from itertools import islice
from operator import attrgetter

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


class AgentId(tuple):
    """An agent's qualified name is its path of indices, innermost first:
    this tuple itself, which compares, hashes and orders as the plain
    tuple.  The empty path is the root.

    ``AgentId((2, 0))`` reads "agent 2 within agent 0 within the root" and
    prints as ``2 . 0 . root``.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return " . ".join(map(str, self)) + " . root" if self else "root"

    def __repr__(self) -> str:
        return f"AgentId({tuple(self)!r})"

    @property
    def path(self) -> "AgentId":
        # kept only for perfbench/selftest.py:60, until ROADMAP item 1 re-keys it
        return self


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


Process = Nil | Tell | Ask | Par | Space | Rec | Extr | ProcVar
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


class ProcObj(Node):
    aid: AgentId
    program: Process
    _tag = 1
    _kids = (("program", PROC_KINDS, False),)


OBJ_KINDS = Kinds("an object", StoreObj, ProcObj)


_obj_hash = attrgetter("_hash")


class SysState(Node):
    """A multiset of objects; canonical once normalized (sorted, one store
    per agent, no nil processes, canonical payloads).  Its key is a
    `Node`'s; its stored hash is its fingerprint, the sum of its objects'
    stored hashes (`_shift`), and as the sum may exceed a machine word,
    `hash(s)` is the sum's hash."""

    objects: tuple
    _tag = 200
    _kids = (("objects", OBJ_KINDS, True),)

    def __init__(self, *args):
        super().__init__(*args)
        _put_hash(self, sum(map(_obj_hash, self.objects)))

    def __hash__(self) -> int:
        return hash(self._hash)


_put_objects = SysState._setters[0]


def _canonical_state(objects: tuple, fp: int) -> SysState:
    """The flagged SysState of canonical objects already in canonical order
    (sorted, one store per agent), with the key that `SysState(objects)`
    would compute, taken from the objects' stored ones, and as its hash fp,
    which the caller carries: the objects' fingerprint, the sum of their
    stored hashes."""
    s = SysState.__new__(SysState)
    _put_objects(s, objects)
    _put_key(s, (200, tuple(map(term_key, objects))))
    _put_hash(s, fp)
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
    return _canonical_state(tuple(objects), sum(map(_obj_hash, objects)))


# ---------------------------------------------------------------------------
# Observable transitions


def _moves(o: ProcObj, store: StoreObj | None, has_child: bool, solver: Solver) -> tuple:
    """The local rewrites of the process object o, whose agent's store is
    `store` (None when the agent has no store) and, for a space, whose
    child's store exists iff has_child.

    Each move is whole: (the store that replaces `store`, or None; the
    objects added in place of o, nil processes left out; the fingerprint
    shift, `_shift(out, into)`; whether it adds a store).  A tell
    replaces the store and adds nothing; every other rule adds objects.
    """
    p = o.program
    if isinstance(p, Tell):
        if store is None:
            return ()
        told = StoreObj(o.aid, canonicalize(conjoin(store.constraint, p.constraint)))
        return ((told, (), _shift((o, store), (told,)), False),)
    if isinstance(p, Ask):
        if store is None or not solver.entails(store.constraint, p.guard):
            return ()
        added = [(ProcObj(o.aid, p.then),)]
    elif isinstance(p, Par):
        # splitting a pair at its second argument adds the same objects again
        args, added = p.args, []
        for k in range(1 if len(args) == 2 else len(args)):
            rest = args[:k] + args[k + 1 :]
            sibling = rest[0] if len(rest) == 1 else Par(rest)
            added.append((ProcObj(o.aid, args[k]), ProcObj(o.aid, sibling)))
    elif isinstance(p, Space):
        if store is None:
            return ()
        child = AgentId((p.agent,) + o.aid)
        body = ProcObj(child, p.body)  # merging a true store would change nothing
        added = [(body,) if has_child else (StoreObj(child, TRUE), body)]
    elif isinstance(p, Rec):
        added = [(ProcObj(o.aid, canon_process(replace(p.body, p.var, p))),)]
    elif isinstance(p, Extr) and o.aid[:1] == (p.agent,):
        added = [(ProcObj(AgentId(o.aid[1:]), p.body),)]
    else:
        return ()
    kept = (tuple(a for a in objs if type(a) is StoreObj or type(a.program) is not Nil) for objs in added)
    return tuple((None, objs, _shift((o,), objs), StoreObj in map(type, objs)) for objs in kept)


def store_index(objs: tuple) -> dict:
    """The position of each store among a canonical state's objects objs,
    keyed by its agent."""
    return {objs[j].aid: j for j in range(store_count(objs))}


def _transitions(objs: tuple, stores: dict, solver: Solver, memo: dict):
    """The successors of the normalized state with objects objs and store
    index `stores` (`store_index(objs)`), one per move, a rule applied at
    one position: (the successor's objects, the move's fingerprint shift,
    `_shift(out, into)`, whether the move added a store).

    A successor's objects are objs with the rewritten process object
    removed, its agent's store replaced in place (stores are ordered by
    agent) and the added objects put in key order; each is built only when
    it is yielded.  A move that adds no store keeps every store at its
    position, so its successor's store index is `stores` itself.

    A rule's result depends only on the process object, its agent's store
    (or its absence) and, for a space, whether the child's store exists;
    never on the rest of the state.  `memo` maps that triple, with the
    store object or None, to the object's whole moves as `_moves` makes
    them, so a caller that passes one dict to many calls rewrites each
    process in each store once.  Only the process objects, which
    follow the stores, are walked, each of them: two equal ones give equal
    successors, which the caller drops as repeats.
    """
    for i in range(len(stores), len(objs)):
        o = objs[i]
        aid, p = o.aid, o.program
        j = stores.get(aid)
        key = (o, None if j is None else objs[j], type(p) is Space and (p.agent,) + aid in stores)
        moves = memo.get(key)
        if moves is None:
            moves = memo[key] = _moves(*key, solver)
        for store, added, shift, grows in moves:
            new = list(objs)
            if store is not None:
                new[j] = store
            del new[i]
            for a in added:
                insort(new, a, key=term_key)
            yield tuple(new), shift, grows


def step(s: SysState, solver: Solver) -> list:
    """All states reachable from s by one rule applied at one position.

    Returns normalized states, deduplicated and sorted by canonical key:
    the distinct object tuples of `_transitions`, each made a state once
    by `_canonical_state`.  No CLI path calls it; the tests and the
    benchmark's tracer do.
    """
    s = normalize(s)
    objs, fp = s.objects, s._hash
    moves = _transitions(objs, store_index(objs), solver, {})
    succs = {new: fp + shift for new, shift, _ in moves}
    return sorted((_canonical_state(new, f) for new, f in succs.items()), key=term_key)


def _shift(out: tuple, into: tuple) -> int:
    """The change in fingerprint of a state that loses the objects `out`
    and gains the objects `into`.  A state's fingerprint, which is also its
    stored hash, is the sum of its objects' stored hashes, so it is updated
    in O(1) per move (Zobrist, 1970); equal states have equal
    fingerprints, and unequal ones may share one."""
    return sum(map(_obj_hash, into)) - sum(map(_obj_hash, out))


def explore(
    init: SysState, solver: Solver, max_depth: int, visit: Callable, *, first_move: bool = False
) -> tuple:
    """Breadth-first search of every state reachable from normalize(init)
    within max_depth steps, or with first_move of the one path that takes
    at each state only the first move `_transitions` yields.

    States are numbered in discovery order (init is 0, the new successors
    of a state come in key order), and `visit(state, index, has_successor)`
    is called on each in that order before its successors are queued; a
    true return stops there.  `has_successor` says whether the state has a
    move, even one to a state met before.  Returns (states explored, depth
    reached, whether the depth bound kept a new state out, whether `visit`
    stopped the search).

    A successor is built as a `SysState` only when it is new.  A state's
    hash is its fingerprint (`_shift`), and each move gives its successor's
    fingerprint from its parent's by adding the move's shift, which the
    memo of moves holds with the move, and the successor's object tuple
    from its parent's (`_transitions`); a new successor is built with that
    fingerprint as its hash, and the new successors of a state are sorted
    when there are two or more.  A per-call table maps each fingerprint to
    the object tuples of the states met with it, and a successor whose
    tuple is already there is skipped.  Tuples are compared, so two states
    that share a fingerprint are never merged.  Each state also carries its
    store index (`store_index`): a successor takes its parent's, unless
    its move added a store.  The new successors of a state at the depth
    bound are never built.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    start = normalize(init)
    objs = start.objects
    memo: dict = {}  # the local moves of _transitions, for this call only
    table = {start._hash: [objs]}  # fingerprint -> the object tuples met with it, for this call only
    # (state, discovery number, depth, store index)
    queue = deque([(start, 0, 0, store_index(objs))])
    explored, cut = 1, False
    while queue:
        state, index, depth, stores = queue.popleft()
        objs, fp = state.objects, state._hash
        fresh, moved = [], False
        moves = _transitions(objs, stores, solver, memo)
        for new, shift, grows in islice(moves, 1) if first_move else moves:
            moved = True
            f = fp + shift
            met = table.setdefault(f, [])
            if new in met:
                continue
            met.append(new)
            fresh.append((new, f, grows))
        if visit(state, index, moved):
            return explored, depth, cut, True
        if fresh and depth >= max_depth:
            cut = True
            continue
        succs = [
            (_canonical_state(new, f), store_index(new) if grows else stores) for new, f, grows in fresh
        ]
        if len(succs) > 1:
            succs.sort(key=lambda succ: succ[0]._key)
        for t, t_stores in succs:
            queue.append((t, explored, depth + 1, t_stores))
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
    taking at each state the first move that `_transitions` yields: the
    first, in `_moves` order, of the first process object in key order that
    has one.  It is `explore` with `first_move`, which builds only that
    move's successor and finds a state met before on the path by its
    fingerprint and its objects, as it finds any revisit.

    By the diamond property (see the module docstring) every maximal run
    ends in the same state, so a successor-free state on the path is the
    only terminal state, and a state met twice proves that no run
    terminates: there is then no terminal state, and `truncated` is false.
    `truncated` is true when the path is still going after max_steps steps.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    terminal = []

    def keep_terminal(state: SysState, index: int, has_successor: bool) -> None:
        if not has_successor:
            terminal.append(state)

    explored, _, cut, _ = explore(s, solver, max_steps, keep_terminal, first_move=True)
    return RunResult(tuple(terminal), cut, explored)
