"""`run` and `search` against a reference breadth-first search built on the
independent successor enumerator of `engine_oracle`, so the exploration
loop and `run`'s single path are checked by code that shares none of
them."""

import gc
import importlib
import operator
import random
from collections import Counter

import pytest

from builders import eq_, gt
from engine_oracle import oracle_moves, oracle_step
from randgen import small_state
from systems import (
    ACCEPTANCE_SYSTEMS,
    X,
    Z,
    base_system,
    inconsistent_variant,
    same_knowledge_variant,
    solutions,
)
from sccpe import (
    ROOT,
    TRUE,
    AgentId,
    Ask,
    Extr,
    InconsistentStore,
    NIL,
    Par,
    ProcObj,
    RunResult,
    Solver,
    StoreEntails,
    StoreObj,
    StoresEquivalent,
    Space,
    SysState,
    Tell,
    elaborate,
    evaluate_query,
    normalize,
    parse,
    run,
    step,
)
from sccpe.calculus import _transitions, explore, store_count, store_index
from sccpe.formula import Cmp, Node, term_key

# Equal parallel components: two equal root processes, and parallel
# compositions with equal arguments, whose splits make equal process objects
# in one agent.  Each yields some successors more than once.
EQUAL_COMPONENTS = """var X, Y Int
begin
[ tell(X > 1) || tell(X > 1) || tell(Y > 2) ]_1 .
[ tell(X > 1) ]_1 .
[ tell(X > 1) ]_1 .
end
"""


def equal_components():
    return elaborate(parse(EQUAL_COMPONENTS))


SYSTEMS = [base_system, inconsistent_variant, same_knowledge_variant, equal_components]
DEPTHS = [0, 1, 2, 3, 4, 64]


def reference_bfs(init, solver, max_depth):
    """(states within max_depth steps, whether a new state lies one step
    further, successor-free states among them)."""
    seen, layer, terminal = set(), {normalize(init)}, set()
    for _ in range(max_depth + 1):
        seen |= layer
        succs = {s: oracle_step(s, solver) for s in layer}
        terminal |= {s for s, ts in succs.items() if not ts}
        layer = set().union(*succs.values()) - seen
    return seen, bool(layer), terminal


def reference_depth(init, solver, max_depth):
    """The greatest distance from normalize(init), in steps, of a state
    within max_depth steps."""
    seen, layer, far = set(), {normalize(init)}, -1
    while layer and far < max_depth:
        seen |= layer
        far += 1
        layer = set().union(*(oracle_step(s, solver) for s in layer)) - seen
    return far


def reference_path(init, solver, max_steps):
    """The path that takes the first move at each step (at the first process
    object that has one, splitting a parallel composition at its first
    argument), up to a successor-free or repeated state or max_steps steps:
    its states as (state, index, has_successor), and whether it was still
    going after max_steps steps."""
    path, visits = [normalize(init)], []
    while True:
        nxt = next(oracle_moves(path[-1], solver), None)
        visits.append((path[-1], len(path) - 1, nxt is not None))
        if nxt is None or nxt in path:
            return visits, False
        if len(path) > max_steps:
            return visits, True
        path.append(nxt)


def reference_path_length(init, solver, max_steps):
    """Number of states on `reference_path`."""
    return len(reference_path(init, solver, max_steps)[0])


def successors(s, solver, memo):
    """The object tuples of the successors of s, from `_transitions` with
    the given memo of moves."""
    objs = normalize(s).objects
    return {new for new, _ in _transitions(objs, store_index(objs), solver, memo)}


def oracle_objects(s, solver):
    return {t.objects for t in oracle_step(s, solver)}


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_run_and_search_agree_with_reference_bfs(system, depth, solver):
    init = system()
    seen, truncated, terminal = reference_bfs(init, solver, depth)

    result = run(init, solver, max_steps=depth)
    # run counts the states of its one path, not every reachable state
    assert result.states_explored == reference_path_length(init, solver, depth)
    assert result.states_explored <= len(seen)
    assert result.truncated == truncated
    assert set(result.terminal_states) == terminal
    assert [term_key(s) for s in result.terminal_states] == sorted(map(term_key, terminal))

    # every store entails true, so each state matches once per store, in order
    anything = StoreEntails(TRUE)
    found, final = solutions(init, anything, mode="terminal", max_depth=depth, solver=solver)
    assert (final.states_explored, final.depth_cut, final.capped) == (len(seen), truncated, False)
    assert {state for state, _, _ in found} == terminal

    found, _ = solutions(init, anything, max_depth=depth, solver=solver)
    assert list(dict.fromkeys(index for _, index, _ in found)) == list(range(len(seen)))
    assert {state for state, _, _ in found} == seen


# One recursion that cycles (r(1) comes back to itself) beside one that
# nests spaces without end (r(3)): no run terminates.
CYCLE_PROGRAM = """var X Int
begin
r(1, ask true -> v(1)) || r(2, ask true -> tell(X > 0) || v(2)) .
r(3, ask true -> [ v(3) ]_1) .
end
"""


def test_run_stops_at_a_cycle_and_reports_no_terminal_state(solver):
    init = elaborate(parse(CYCLE_PROGRAM))
    seen, truncated, terminal = reference_bfs(init, solver, 8)
    assert terminal == set() and truncated
    # behaviour change: the path meets a state twice within 8 steps, which
    # proves that no run terminates, so run is not truncated where the
    # breadth-first search was cut by its bound
    result = run(init, solver, max_steps=8)
    assert result == run(init, solver, max_steps=64)
    assert (result.terminal_states, result.truncated) == ((), False)
    assert result.states_explored == reference_path_length(init, solver, 8) < len(seen)


# The shape of the benchmark's interleave-run workload: 3 sibling spaces
# x 2 tells, the first also extruding a tell to the root.
INTERLEAVED = """var D4, Q5, Y5, Z6 Int
begin
[ tell(Q5 >= 28) || tell(Q5 <= 80) || ask Q5 >= 28 -> x( tell(D4 >= 62) )_1 ]_1 .
[ tell(Z6 >= 41) || tell(Z6 <= 74) ]_4 .
[ tell(Y5 >= 13) || tell(Y5 <= 56) ]_9 .
end
"""

# A recursion that nests a new space at every unfolding, so that its states
# grow without end; no run of it terminates.
NESTING = "var X Int\nbegin r(1, tell(X > 0) || [ v(1) ]_0) . end\n"


def test_run_builds_one_successor_per_step(solver, monkeypatch):
    """`run` builds the successor of the move it takes and no other: one per
    step, counting the step that meets a revisit or passes the bound.
    Building every successor would take 55 builds for the 17 states of the
    interleaved path."""
    module = importlib.import_module("sccpe.calculus")
    built, transitions = [], module._transitions

    def counted(*args):  # `_transitions` builds each successor as it yields it
        for move in transitions(*args):
            built.append(move)
            yield move

    monkeypatch.setattr(module, "_transitions", counted)
    result = run(elaborate(parse(INTERLEAVED)), solver)
    assert (result.states_explored, result.truncated, len(result.terminal_states)) == (17, False, 1)
    assert len(built) == 16
    for program, steps, states in [(CYCLE_PROGRAM, 64, 3), (NESTING, 1000, 1001)]:
        built.clear()
        result = run(elaborate(parse(program)), solver, max_steps=steps)
        assert (result.states_explored, result.terminal_states) == (states, ())
        assert result.truncated == (states > steps)
        assert len(built) == states


# The five systems of the acceptance suite.
def test_a_shared_memo_agrees_with_the_oracle(solver):
    """One memo for unrelated random states and every reachable state of
    the acceptance systems: a rewrite reused from another state is right."""
    memo = {}
    rng = random.Random(977)
    states = [small_state(rng) for _ in range(150)]
    for make in ACCEPTANCE_SYSTEMS.values():
        states.extend(reference_bfs(make(), solver, 64)[0])
    for s in states:
        assert successors(s, solver, memo) == oracle_objects(s, solver), f"successors differ on {s}"
    # the memo did get reused: far fewer entries than process visits
    visits = sum(isinstance(o, ProcObj) for s in states for o in normalize(s).objects)
    assert len(memo) < visits / 2


# Agents whose paths are prefixes, suffixes and siblings of one another,
# and one whose index (10) shares a digit with others'.  Store i holds
# X = i, so a process that met a neighbour's store would see another value.
NESTED_PATHS = ((), (1,), (0, 1), (1, 0), (1, 1), (10,), (1, 0, 1))
NESTED_PROCS = (
    ProcObj(AgentId((0, 1)), Tell(gt(Z, 1))),  # a tell into a nested store
    ProcObj(AgentId((1, 0)), Ask(eq_(X, 3), Tell(gt(Z, 2)))),  # entailed by its own store only
    ProcObj(AgentId((1, 1)), Ask(eq_(X, 2), NIL)),  # blocked: X = 2 is its sibling's
    ProcObj(AgentId((1,)), Space(1, Tell(gt(Z, 3)))),  # the child store (1, 1) exists
    ProcObj(AgentId((0, 1)), Space(1, Tell(gt(Z, 3)))),  # and so does (1, 0, 1), not (0, 1, 1)
    ProcObj(AgentId((1,)), Space(2, Tell(gt(Z, 4)))),  # (2, 1) has none
    ProcObj(AgentId((10,)), Space(1, Tell(gt(Z, 5)))),  # nor has (1, 10), though (1,) and (10,) do
    ProcObj(AgentId((0, 1)), Extr(0, Tell(gt(Z, 6)))),  # extruded to (1,)
    ProcObj(AgentId((1, 0)), Extr(0, Tell(gt(Z, 7)))),  # stays: its space is 1, not 0
    ProcObj(AgentId((0,)), Tell(gt(Z, 8))),  # no store at (0,), the parent of (1, 0)
    ProcObj(AgentId((2,)), Space(0, NIL)),  # nor at (2,)
)


def test_store_lookup_where_paths_nest_and_share_indices(solver):
    stores = tuple(StoreObj(AgentId(path), eq_(X, i)) for i, path in enumerate(NESTED_PATHS))
    s = normalize(SysState(stores + NESTED_PROCS))
    objs = s.objects
    memo = {}
    n = store_count(objs)
    for _ in range(2):  # the second pass takes every move from the memo
        moves = list(_transitions(objs, store_index(objs), solver, memo))
        assert [new for new, _ in moves] == [t.objects for t in oracle_moves(s, solver)]
        assert len(moves) == 7
        for new, grows in moves:
            assert grows == (store_count(new) == n + 1)  # the space into (2, 1)
            if grows:
                continue
            # every store keeps its agent and position; a tell replaces the
            # store of the agent whose process object it removes
            assert [o.aid for o in new[:n]] == [o.aid for o in objs[:n]]
            changed = [k for k in range(n) if new[k] != objs[k]]
            if changed:
                (k,) = changed
                gone = Counter(objs[n:]) - Counter(new[n:])
                assert [o.aid for o in gone.elements()] == [objs[k].aid]
    # and so in every state reachable from it, through one shared memo
    for t in reference_bfs(s, solver, 3)[0]:
        assert successors(t, solver, memo) == oracle_objects(t, solver), f"successors differ on {t}"


def test_step_builds_each_successor_once(solver, monkeypatch):
    """Equal arguments of a `Par` and equal process objects yield equal
    successors, and `step` builds each distinct one once.  It builds each
    through `_canonical_state`, never through `SysState.__init__`."""
    states = [
        normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(ROOT, Par(tuple(tells))))))
        for tells in (
            [Tell(gt(X, 0)), Tell(gt(X, 0))],
            [Tell(gt(X, 0)), Tell(gt(X, 0)), Tell(gt(X, 1))],
        )
    ]
    twice = ProcObj(ROOT, Tell(gt(X, 0)))
    states.append(normalize(SysState((StoreObj(ROOT, TRUE), twice, twice))))
    for make in ACCEPTANCE_SYSTEMS.values():
        states.extend(reference_bfs(make(), solver, 64)[0])
    module = importlib.import_module("sccpe.calculus")
    built, checked = [], []
    trusted, init = module._canonical_state, SysState.__init__
    for s in states:
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(module, "_canonical_state", lambda *a: built.append(a[0]) or trusted(*a))
            m.setattr(SysState, "__init__", lambda self, *a: checked.append(a) or init(self, *a))
            succs = step(s, solver)
        assert not checked, f"step built a successor of {s} through SysState.__init__"
        assert len(built) == len(succs), f"a successor of {s} was built twice"
        assert set(succs) == oracle_step(s, solver)


def test_step_returns_each_successor_once(solver):
    """Equal process objects and equal `Par` arguments yield some successors
    more than once, and `step` returns each of them once."""
    for s in reference_bfs(equal_components(), solver, 64)[0]:
        succs = step(s, solver)
        assert len(succs) == len(set(succs)) and set(succs) == oracle_step(s, solver)


# The acceptance systems, the cycle program, whose states never close, and
# equal parallel components.
EXPLORED = {
    **ACCEPTANCE_SYSTEMS,
    "cycle-program": lambda: elaborate(parse(CYCLE_PROGRAM)),
    "equal-components": equal_components,
}


def numbered(init, solver, max_depth):
    """explore's result and its visits, as (state, index, has_successor)."""
    visits = []
    result = explore(init, solver, max_depth, lambda *args: visits.append(args))
    return result, visits


@pytest.mark.parametrize("name", sorted(EXPLORED))
@pytest.mark.parametrize("depth", DEPTHS)
def test_explore_builds_each_state_once(name, depth, solver, monkeypatch):
    """`explore` builds a state only when it numbers it: a successor that
    was seen before is found by its objects, never built as a state."""
    init = EXPLORED[name]()
    module = importlib.import_module("sccpe.calculus")
    built, checked = [], []
    trusted, checked_init = module._canonical_state, SysState.__init__
    monkeypatch.setattr(module, "_canonical_state", lambda *a: built.append(a[0]) or trusted(*a))
    monkeypatch.setattr(SysState, "__init__", lambda s, *a: checked.append(a) or checked_init(s, *a))
    (explored, _, _, _), visits = numbered(init, solver, depth)
    monkeypatch.undo()
    assert not checked, "explore built a state through SysState.__init__"
    # one build per numbered state but the initial one, which `normalize`
    # builds only when it is not normal yet
    assert len(built) == explored - init._canon
    assert set(built) == {s.objects for s, _, _ in visits[init._canon :]}
    assert [more for _, _, more in visits] == [bool(step(s, solver)) for s, _, _ in visits]


# Within 64 steps the cycle program has 7,761 states, too many to compare
# each new one with every state met so far.
COLLIDING = [(name, depth) for name in sorted(ACCEPTANCE_SYSTEMS) for depth in DEPTHS]
COLLIDING += [("cycle-program", depth) for depth in (0, 1, 2, 3, 4, 8)]


@pytest.mark.parametrize("name, depth", COLLIDING)
def test_hash_collisions_never_merge_states(name, depth, solver, monkeypatch):
    """With every node hashing alike, so that the object tuples of all the
    states of one size collide, `explore` tells states apart by their
    objects alone and numbers, cuts and stops as before.  The hash is
    patched before the initial state is built: the intern table finds a
    node by the hashes of its fields, so a node with children built before
    the patch is not found under it, and the run must meet only nodes
    built under it."""
    init = EXPLORED[name]()
    result, visits = numbered(init, solver, depth)
    monkeypatch.setattr(Node, "__hash__", lambda self: 0)
    collided, collided_visits = numbered(EXPLORED[name](), Solver(), depth)
    assert {hash(o) for s, _, _ in collided_visits for o in s.objects} == {0}
    assert collided == result
    assert [(s._key, i, more) for s, i, more in collided_visits] == [
        (s._key, i, more) for s, i, more in visits
    ]
    # drop the nodes built under the patch while it holds, so that the table
    # finds and removes their entries, whose keys were hashed under it
    del collided_visits
    gc.collect()
    monkeypatch.undo()
    seen, truncated, _ = reference_bfs(init, solver, depth)
    explored, reached, cut, stopped = result
    assert {s for s, _, _ in visits} == seen
    assert [i for _, i, _ in visits] == list(range(explored)) == list(range(len(seen)))
    assert (reached, cut, stopped) == (reference_depth(init, solver, depth), truncated, False)


@pytest.mark.parametrize("name", [*sorted(ACCEPTANCE_SYSTEMS), "knowledge-equiv"])
def test_a_state_is_its_object_tuple(name, solver):
    """Every state `explore` visits hashes as its object tuple.  Built by
    hand from its objects in another order and normalized, it is equal,
    hashes alike and holds the same objects: building an object returns
    the one live object of its class with those fields."""
    if name in ACCEPTANCE_SYSTEMS:
        init = ACCEPTANCE_SYSTEMS[name]()
    else:
        from test_output_digests import KNOWLEDGE

        init = elaborate(parse(KNOWLEDGE))
    _, visits = numbered(init, solver, 64)
    assert len(visits) > 1
    for s, _, _ in visits:
        assert hash(s) == hash(s.objects)
        again = normalize(SysState(s.objects[::-1]))
        assert again == s and hash(again) == hash(s)
        assert all(map(operator.is_, again.objects, s.objects))
        rebuilt = tuple(type(o)(*[getattr(o, n) for n in o.__match_args__]) for o in s.objects)
        assert all(map(operator.is_, rebuilt, s.objects))


# Programs whose moves add stores mid-search: spaces whose child store does
# not exist yet, nested twice, siblings whose stores come before one that
# exists (so its position shifts), a space into a store that another space
# made, and extrusions back up, to the root.
GROWING = [
    """var X, Y, Z Int
begin
[ [ tell(Y > 0) || x( x( tell(Z > 0) )_3 )_2 ]_2 || tell(X > 0) ]_3 || [ tell(X > 1) ]_1 .
end
""",
    """var X, Y, Z Int
begin
[ ask X > 5 -> x( tell(Y > 1) )_5 ]_5 || [ tell(X > 6) ]_5 || [ [ tell(Z > 0) ]_4 ]_2 .
end
""",
]


@pytest.mark.parametrize("program", GROWING, ids=["nested-and-extruded", "shifted-sibling"])
def test_the_carried_store_index_agrees_with_the_oracle(program, solver):
    """`explore` and `run` pass a state's store index on to its successors
    and build a new one after a move that adds a store: explore visits the
    oracle's breadth-first layers state for state, and run ends in the
    oracle's one terminal state."""
    init = elaborate(parse(program))
    (explored, _, cut, _), visits = numbered(init, solver, 64)
    seen, layer, at = set(), {normalize(init)}, 0
    while layer:
        assert {s for s, _, _ in visits[at : at + len(layer)]} == layer
        at += len(layer)
        seen |= layer
        layer = set().union(*(oracle_step(s, solver) for s in layer)) - seen
    assert at == explored == len(visits) and not cut
    assert [more for _, _, more in visits] == [bool(oracle_step(s, solver)) for s, _, _ in visits]
    assert max(store_count(s.objects) for s, _, _ in visits) > store_count(visits[0][0].objects)
    _, _, terminal = reference_bfs(init, solver, 64)
    result = run(init, solver)
    assert (result.terminal_states, result.truncated) == (tuple(terminal), False)


# Programs whose first-move path ends, meets itself again or grows without end.
FIRST_MOVE_PATHS = {
    **EXPLORED,
    "interleaved": lambda: elaborate(parse(INTERLEAVED)),
    "nesting": lambda: elaborate(parse(NESTING)),
    "nested-and-extruded": lambda: elaborate(parse(GROWING[0])),
    "shifted-sibling": lambda: elaborate(parse(GROWING[1])),
}


@pytest.mark.parametrize("name", sorted(FIRST_MOVE_PATHS))
@pytest.mark.parametrize("bound", [0, 1, 5, 64])
def test_explore_on_first_moves_follows_the_oracles_path(name, bound, solver):
    """With `first_move`, `explore` visits the oracle's first-move path state
    for state, with its discovery numbers and `has_successor` flags, and is
    cut exactly when the path is still going at the bound; `run` reports
    that path."""
    init = FIRST_MOVE_PATHS[name]()
    path, going = reference_path(init, solver, bound)
    visits = []
    result = explore(init, solver, bound, lambda *args: visits.append(args), first_move=True)
    assert visits == path
    assert result == (len(path), len(path) - 1, going, False)
    terminal = tuple(s for s, _, more in path if not more)
    assert run(init, solver, max_steps=bound) == RunResult(terminal, going, len(path))


def test_a_negative_bound_is_refused_by_its_name(solver):
    init = base_system()
    with pytest.raises(ValueError, match=r"^max_steps must be >= 0, got -1$"):
        run(init, solver, -1)
    with pytest.raises(ValueError, match=r"^max_depth must be >= 0, got -1$"):
        explore(init, solver, -1, lambda *args: False, first_move=True)


class Interrupted(Exception):
    """An entailment check cut short, as by an interrupt or a resource limit."""


class FailsOnce(Solver):
    """A solver whose first entailment check gives no answer."""

    def __init__(self):
        super().__init__()
        self.asked = 0

    def entails(self, c, d):
        self.asked += 1
        if self.asked == 1:
            raise Interrupted("check cut short")
        return super().entails(c, d)


def test_an_inconclusive_rewrite_is_not_memoized(solver):
    s = base_system()
    ask = ProcObj(ROOT, Ask(gt(X, 5), NIL))
    s = normalize(SysState(s.objects + (ask,)))
    flaky, memo = FailsOnce(), {}
    with pytest.raises(Interrupted):
        successors(s, flaky, memo)
    assert not any(key[0] == ask for key in memo)
    assert successors(s, flaky, memo) == oracle_objects(s, solver)
    assert flaky.asked == 2  # the second call asked the solver again
    # `explore` lets the solver's own exception through, unwrapped
    with pytest.raises(Interrupted, match=r"^check cut short$"):
        explore(s, FailsOnce(), 64, lambda *args: False)


def reference_matches(init, q, mode, solver):
    """The solutions of `search`, as its `found` receives them, with the
    query evaluated on every state."""
    out = []

    def visit(state, index, succs):
        if mode == "any" or not succs:
            out.extend((state, index, b) for b in evaluate_query(state, q, solver))
        return False

    explore(init, solver, 64, visit)
    return out


QUERIES = [InconsistentStore(), StoreEntails(gt(Z, 9)), StoreEntails(gt(X, 1)), StoresEquivalent()]


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_SYSTEMS))
@pytest.mark.parametrize("mode", ["any", "terminal"])
def test_the_query_memo_is_exact(name, mode, solver, monkeypatch):
    init = ACCEPTANCE_SYSTEMS[name]()
    calls = []
    module = importlib.import_module("sccpe.search")  # `sccpe.search` is the function
    monkeypatch.setattr(
        module, "evaluate_query", lambda s, q, sv: calls.append(s) or evaluate_query(s, q, sv)
    )
    for q in QUERIES:
        calls.clear()
        found, outcome = solutions(init, q, mode=mode, solver=solver)
        assert found == reference_matches(init, q, mode, solver)
        assert outcome.solutions == len(found)
        # the query ran once per distinct store tuple among the states it saw
        tuples = {tuple(o for o in s.objects if isinstance(o, StoreObj)) for s in calls}
        assert len(calls) == len(tuples)


def test_search_builds_no_comparison(monkeypatch):
    """`Cmp` checks its operator as it is built; a search builds none, so the
    check costs exploration and query evaluation nothing."""
    from test_output_digests import KNOWLEDGE

    inits = [make() for make in ACCEPTANCE_SYSTEMS.values()]
    inits.append(elaborate(parse(KNOWLEDGE)))
    built = []
    head = Cmp._head
    monkeypatch.setattr(Cmp, "_head", lambda c: built.append(c) or head(c))
    for init in inits:
        for q in QUERIES:
            solutions(init, q, solver=Solver())
    assert built == []
