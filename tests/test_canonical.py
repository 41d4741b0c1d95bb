"""Property tests for canonical terms and states.

Every formula, process, object and state stores its order key when it is
built, and its canonical flag is set only by the canonical-form functions,
on what they return.  Nodes are interned, so a constructor may return a
node that `canonical` flagged before; a state is not, and `SysState(...)`
returns an unflagged one.  `step` and `normalize` rely on three facts
checked here on random inputs from `randgen` and on JSON round trips: the
stored key agrees with a recomputation from the fields, and a node hashes
by identity and a state as its object tuple; building a term again
returns the same node; and the flag is sound: every flagged node is its
own reference canonical form written out below (the rebuild-everything
definition, with no shortcut for canonical inputs), and every node
reachable from an output of `canonical` or `normalize` is flagged and
comes back from the engine's canonical form as it is.  The states that
`step` builds from their objects' stored keys are also checked against
the state that `normalize` builds from the same objects.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import fragment_formula, process, raw_state, small_state
from state_reader import round_trip
from systems import ACCEPTANCE_SYSTEMS
from sccpe import (
    NIL,
    ROOT,
    AgentId,
    Ask,
    Extr,
    Nil,
    Par,
    ProcObj,
    ProcVar,
    Rec,
    Solver,
    Space,
    StoreObj,
    SysState,
    Tell,
    canon_process,
    canonicalize,
    normalize,
    step,
)
from sccpe.calculus import OBJ_KINDS, PROC_KINDS, explore, store_count
from sccpe.formula import (
    FALSE,
    INT_KINDS,
    TRUE,
    And,
    BoolConst,
    BoolEq,
    BoolNeq,
    Cmp,
    IntLit,
    Node,
    Sort,
    Var,
    canonical,
)

SEEDS = st.randoms(use_true_random=False)
_TAG = {BoolEq: 11, BoolNeq: 12, Space: 104, Rec: 105, Extr: 106}


def shape(t, f):
    """(tag, payload..., f(child)...) of a node, from its fields; the order
    tags are those of the engine's fixed total term order."""
    if isinstance(t, BoolConst):
        return (0, 1 if t.value else 0)
    if isinstance(t, Var):
        return (1, 0 if t.sort is Sort.INT else 1, t.name)
    if isinstance(t, IntLit):
        return (2, t.value)
    if isinstance(t, Cmp):
        return (13, t.op, f(t.left), f(t.right))
    if isinstance(t, And):
        return (7, tuple(f(a) for a in t.args))
    if isinstance(t, (BoolEq, BoolNeq)):
        return (_TAG[type(t)], f(t.left), f(t.right))
    if isinstance(t, Nil):
        return (100,)
    if isinstance(t, Tell):
        return (101, f(t.constraint))
    if isinstance(t, Ask):
        return (102, f(t.guard), f(t.then))
    if isinstance(t, Par):
        return (103, tuple(f(a) for a in t.args))
    if isinstance(t, (Space, Rec, Extr)):
        return (_TAG[type(t)], t.var if isinstance(t, Rec) else t.agent, f(t.body))
    if isinstance(t, ProcVar):
        return (107, t.var)
    if isinstance(t, (StoreObj, ProcObj)):
        payload = t.constraint if isinstance(t, StoreObj) else t.program
        return (0 if isinstance(t, StoreObj) else 1, tuple(t.aid), f(payload))
    if isinstance(t, SysState):
        return (200, tuple(f(o) for o in t.objects))
    raise TypeError(t)


def ref_key(t):
    return shape(t, ref_key)


def nodes(t):
    """t and all nodes below it."""
    out = [t]
    for name in t.__match_args__:
        value = getattr(t, name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, Node):
                out.extend(nodes(v))
    return out


def check_stored(t):
    for n in nodes(t):
        assert n._key == ref_key(n), n
        # a node hashes by identity, a state as its object tuple
        assert hash(n) == (hash(n.objects) if isinstance(n, SysState) else object.__hash__(n)), n


# Reference canonical form: every node rebuilt from its canonical children.


def ref_canon(f):
    if isinstance(f, (BoolConst, Var, IntLit)):
        return f
    if isinstance(f, And):
        parts = []
        for raw in f.args:
            a = ref_canon(raw)
            if isinstance(a, And):
                parts.extend(a.args)
            elif a == FALSE:
                return FALSE
            elif a != TRUE:
                parts.append(a)
        parts = sorted(dict.fromkeys(parts), key=ref_key)
        return TRUE if not parts else parts[0] if len(parts) == 1 else And(tuple(parts))
    if isinstance(f, Cmp):
        return Cmp(f.op, ref_canon(f.left), ref_canon(f.right))
    return type(f)(ref_canon(f.left), ref_canon(f.right))


def ref_canon_process(p):
    if isinstance(p, (Nil, ProcVar)):
        return p
    if isinstance(p, Tell):
        return Tell(ref_canon(p.constraint))
    if isinstance(p, Ask):
        return Ask(ref_canon(p.guard), ref_canon_process(p.then))
    if isinstance(p, Par):
        flat = []
        for a in map(ref_canon_process, p.args):
            flat.extend(a.args if isinstance(a, Par) else (a,))
        flat.sort(key=ref_key)
        return NIL if not flat else flat[0] if len(flat) == 1 else Par(tuple(flat))
    return type(p)(p.var if isinstance(p, Rec) else p.agent, ref_canon_process(p.body))


def ref_normalize(s):
    """The normal form of the state s: same-agent stores conjoined, nil
    processes dropped, payloads in reference canonical form, objects
    sorted by key."""
    stores, objs = {}, []
    for o in s.objects:
        if isinstance(o, StoreObj):
            stores[o.aid] = And((stores[o.aid], o.constraint)) if o.aid in stores else o.constraint
        elif not isinstance(program := ref_canon_process(o.program), Nil):
            objs.append(ProcObj(o.aid, program))
    objs += [StoreObj(aid, ref_canon(c)) for aid, c in stores.items()]
    return SysState(tuple(sorted(objs, key=ref_key)))


def ref_canon_node(n):
    """The reference canonical form of the node n: a state's normal form,
    an object with its payload's, or a process's or a formula's."""
    if isinstance(n, SysState):
        return ref_normalize(n)
    if isinstance(n, StoreObj):
        return StoreObj(n.aid, ref_canon(n.constraint))
    if isinstance(n, ProcObj):
        return ProcObj(n.aid, ref_canon_process(n.program))
    if type(n) in PROC_KINDS:
        return ref_canon_process(n)
    return ref_canon(n)


def engine_canon(n):
    """The engine's canonical form of the node n, at the kind of position
    that n takes."""
    if isinstance(n, SysState):
        return normalize(n)
    if isinstance(n, (StoreObj, ProcObj)):
        return canonical(n, OBJ_KINDS)
    if type(n) in PROC_KINDS:
        return canon_process(n)
    if isinstance(n, IntLit) or (isinstance(n, Var) and n.sort is Sort.INT):
        return canonical(n, INT_KINDS)
    return canonicalize(n)


def check_canonical_output(t):
    """t was returned by `canonical` or `normalize`: every node reachable
    from it is flagged, is its own reference canonical form, and comes
    back from the engine's canonical form as it is."""
    for n in nodes(t):
        assert n._canon, n
        assert ref_canon_node(n) == n, n
        assert engine_canon(n) is n, n
    check_built_again(t)


def check_built_again(t):
    """A copy of t, built node by node through the constructors, is t
    itself when t is a node, and an equal, unflagged state when t is a
    state; every flagged node of it is its own reference canonical form."""
    built = copy.deepcopy(t)
    if isinstance(t, SysState):
        assert built == t and built is not t and not built._canon
    else:
        assert built is t
    for n in nodes(built):
        assert not n._canon or ref_canon_node(n) == n, n


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_formula_canonical_form_is_returned_as_is(rng):
    t = fragment_formula(rng, max_atoms=rng.randint(1, 6))
    check_built_again(t)
    c = canonicalize(t)
    assert c == ref_canon(t)
    check_canonical_output(c)
    check_stored(t)
    check_stored(c)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_process_canonical_form_is_returned_as_is(rng):
    p = process(rng, depth=rng.randint(1, 5))
    check_built_again(p)
    c = canon_process(p)
    assert c == ref_canon_process(p)
    check_canonical_output(c)
    check_stored(p)
    check_stored(c)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_normalize_reuses_every_object_of_a_normal_state(rng):
    s = raw_state(rng)
    check_built_again(s)
    n = normalize(s)
    assert n == ref_normalize(s)
    check_canonical_output(n)
    again = normalize(SysState(n.objects))
    assert len(again.objects) == len(n.objects)
    assert all(a is b for a, b in zip(again.objects, n.objects))
    check_built_as_checked(n)
    check_stored(s)
    check_stored(n)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_json_round_trip_is_canonical_as_built(rng):
    s = small_state(rng)
    back = round_trip(s)
    assert back == s
    assert back._canon
    assert normalize(back) is back
    for o in back.objects:
        payload = o.constraint if isinstance(o, StoreObj) else o.program
        assert (canonicalize if isinstance(o, StoreObj) else canon_process)(payload) is payload
    check_stored(back)


def check_built_as_checked(t):
    """t, a flagged state that the engine built from its objects' stored
    keys and hashes, has the key and hash of the state that `normalize`
    builds from the same objects, and is its own reference normal form."""
    assert t._canon, t
    scratch = normalize(SysState(t.objects))
    assert scratch._key == t._key and hash(scratch) == hash(t), t
    assert t == scratch == ref_normalize(t)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_step_builds_normal_states_reusing_untouched_objects(rng):
    s = small_state(rng)
    for t in step(s, Solver()):
        check_built_as_checked(t)
        fresh = [o for o in t.objects if not any(o is p for p in s.objects)]
        assert len(fresh) <= 2, t
        check_stored(t)


def test_step_builds_normal_successors_of_every_acceptance_state():
    for make in ACCEPTANCE_SYSTEMS.values():
        seen = []
        explore(make(), Solver(), 64, lambda s, i, succs: seen.append(s))
        assert len(seen) > 1
        for s in seen:
            check_built_as_checked(s)
            for t in step(s, Solver()):
                check_built_as_checked(t)


def check_stores_first(s):
    """Every store object of the canonical state s precedes every process
    object, and `store_count` counts exactly the stores: `_transitions`
    and the search's query memo read the stores as that prefix."""
    assert s._canon, s
    n = store_count(s.objects)
    assert [type(o) for o in s.objects] == [StoreObj] * n + [ProcObj] * (len(s.objects) - n), s


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_stores_are_the_prefix_of_random_states(rng):
    for s in (normalize(small_state(rng)), normalize(raw_state(rng))):
        check_stores_first(s)
        for t in step(s, Solver()):
            check_stores_first(t)


def test_stores_are_the_prefix_of_every_explored_state():
    for make in ACCEPTANCE_SYSTEMS.values():
        seen = []
        explore(make(), Solver(), 64, lambda s, i, succs: seen.append(s))
        assert len(seen) > 1
        for s in seen:
            check_stores_first(s)


def test_every_node_class_stores_its_key_and_flag():
    X, Y, P, Q = Var("X", Sort.INT), Var("Y", Sort.INT), Var("P", Sort.BOOL), Var("Q", Sort.BOOL)
    terms = [
        And((Cmp("<", X, IntLit(-2)), Cmp("=/==", Y, X), BoolEq(Q, P))),
        BoolNeq(BoolEq(P, Q), BoolNeq(Q, BoolNeq(TRUE, TRUE))),
        And((Q,)),
        And(()),
        And((And((Q, P)), FALSE)),
        And((And((Q, TRUE)), P, P)),
        And((P, And((Q, P)), TRUE)),
        BoolNeq(BoolNeq(P, TRUE), TRUE),
    ]
    for t in terms:
        check_built_again(t)
        c = canonicalize(t)
        assert c == ref_canon(t)
        check_canonical_output(c)
        check_stored(t)
        check_stored(c)
    rec = Rec(1, Par((ProcVar(1), Extr(0, Space(2, Tell(P))), Par((NIL, Ask(Q, NIL))))))
    check_built_again(rec)
    c = canon_process(rec)
    assert c == ref_canon_process(rec)
    check_canonical_output(c)
    check_stored(c)
    s = SysState((ProcObj(AgentId((0,)), rec), StoreObj(AgentId((0,)), P), StoreObj(ROOT, Q)))
    check_stored(s)
    assert not s._canon
    check_canonical_output(normalize(s))
