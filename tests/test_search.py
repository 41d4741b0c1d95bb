import gc
import importlib
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from builders import eq_, ge, gt, intvar, lt, store_map
from randgen import AID_POOL, small_state, store_formula
from test_solver import oracle_entails
from systems import (
    ACCEPTANCE_SYSTEMS,
    AID0,
    AID01,
    AID1,
    AID20,
    base_system,
    inconsistent_variant,
    same_knowledge_variant,
    solutions,
)
from sccpe import (
    ROOT,
    TRUE,
    InconsistentStore,
    ProcObj,
    SearchOutcome,
    Solver,
    StoreEntails,
    StoreObj,
    StoresEquivalent,
    SysState,
    Tell,
    conjoin,
    elaborate,
    evaluate_query,
    normalize,
    parse,
    run,
    search,
    step,
)
from sccpe.calculus import explore

W, X, Y, Z = (intvar(n) for n in "WXYZ")


# ---------------------------------------------------------------------------
# evaluate_query


def test_consistent_state_has_no_inconsistent_witness(solver):
    state = base_system()
    assert evaluate_query(state, InconsistentStore(), solver) == []


def test_inconsistent_witness_found(solver):
    bad = conjoin(ge(Z, 10), eq_(Z, 9))
    state = normalize(SysState((StoreObj(ROOT, TRUE), StoreObj(AID1, bad))))
    witnesses = evaluate_query(state, InconsistentStore(), solver)
    assert len(witnesses) == 1
    ((aid, store),) = witnesses[0]
    assert aid == AID1
    assert not solver.check_sat(store)


def test_store_entails_witness_on_final_state(solver):
    final = normalize(
        SysState(
            (
                StoreObj(ROOT, TRUE),
                StoreObj(AID0, eq_(X, 25)),
                StoreObj(AID1, ge(Z, 10)),
                StoreObj(AID01, lt(Y, 5)),
                StoreObj(AID20, lt(W, Y)),
            )
        )
    )
    witnesses = evaluate_query(final, StoreEntails(gt(Z, 9)), solver)
    assert witnesses == [((AID1, ge(Z, 10)),)]


def test_equivalent_stores_reported_in_both_orders(solver):
    state = normalize(
        SysState((StoreObj(ROOT, TRUE), StoreObj(AID1, ge(Z, 10)), StoreObj(AID20, gt(Z, 9))))
    )
    witnesses = evaluate_query(state, StoresEquivalent(), solver)
    assert witnesses == [
        ((AID1, ge(Z, 10)), (AID20, gt(Z, 9))),
        ((AID20, gt(Z, 9)), (AID1, ge(Z, 10))),
    ]


def test_equivalent_stores_excludes_constant_true(solver):
    state = normalize(SysState((StoreObj(ROOT, TRUE), StoreObj(AID1, TRUE))))
    assert evaluate_query(state, StoresEquivalent(), solver) == []


def _reference_equivalent(s) -> list:
    """The StoresEquivalent bindings of s, each entailment decided by the
    brute-force model enumerator: every ordered pair of distinct agents
    whose non-true stores entail each other, the first agent's pairs first,
    in the order of normalize(s)'s stores."""
    stores = [(o.aid, o.constraint) for o in normalize(s).objects if isinstance(o, StoreObj)]
    out = []
    for k, first in enumerate(stores):
        for second in stores[k + 1 :]:
            if TRUE not in (first[1], second[1]) and _oracle_equivalent(first[1], second[1]):
                out.extend(((first, second), (second, first)))
    return out


@cache
def _oracle_equivalent(c, d) -> bool:
    return oracle_entails(c, d) and oracle_entails(d, c)


def _shared_stores(rng) -> SysState:
    """A random state whose stores are drawn from a pool of three formulas,
    so that equal stores at different agents are common."""
    pool = [store_formula(rng) for _ in range(3)]
    stores = [StoreObj(aid, rng.choice(pool)) for aid in AID_POOL if rng.random() < 0.8]
    return normalize(SysState(tuple(stores)))


def test_the_pair_verdict_agrees_with_the_model_oracle():
    """One solver session answers the equiv query on random states and on
    every reachable state of the acceptance systems, reusing each pair's
    verdict across states, as the brute-force oracle does on each pair."""
    solver, rng = Solver(), random.Random(2718)
    states = [small_state(rng) for _ in range(20)] + [_shared_stores(rng) for _ in range(40)]
    for make in ACCEPTANCE_SYSTEMS.values():
        explore(make(), solver, 64, lambda state, *_: states.append(state))
    positive = 0
    for s in states:
        expected = _reference_equivalent(s)
        assert evaluate_query(s, StoresEquivalent(), solver) == expected, f"bindings differ on {s}"
        positive += bool(expected)
    assert positive >= 20


def test_the_equiv_query_asks_each_entailment_once():
    """A knowledge-equiv search asks its 13 entailments and no more: a
    pair's second entailment only when the first holds, and each pair once."""
    from test_output_digests import KNOWLEDGE

    solver = Solver()
    found, outcome = solutions(elaborate(parse(KNOWLEDGE)), StoresEquivalent(), solver=solver)
    assert (len(found), outcome.states_explored) == (366, 612)
    assert len(solver._entailed) <= 13


def test_a_non_query_is_rejected(solver):
    with pytest.raises(TypeError, match="not a query"):
        evaluate_query(base_system(), gt(Z, 9), solver)


# ---------------------------------------------------------------------------
# search on the reachability examples


def test_search_no_inconsistency_in_base_system(solver):
    found, outcome = solutions(base_system(), InconsistentStore(), solver=solver)
    assert found == [] and outcome.solutions == 0
    assert outcome.states_explored == 19
    assert not outcome.truncated


def test_search_finds_injected_inconsistency(solver):
    found, outcome = solutions(inconsistent_variant(), InconsistentStore(), solver=solver)
    assert len(found) == outcome.solutions >= 1
    for _, _, binding in found:
        ((aid, store),) = binding
        assert aid == AID1
        assert not solver.check_sat(store)


def test_search_knowledge_never_y9(solver):
    found, outcome = solutions(base_system(), StoreEntails(gt(Y, 9)), solver=solver)
    assert found == [] and outcome.solutions == 0
    assert outcome.states_explored == 19


def test_search_knowledge_z9_eight_solutions(solver):
    found, outcome = solutions(base_system(), StoreEntails(gt(Z, 9)), solver=solver)
    assert len(found) == outcome.solutions == 8
    for _, _, binding in found:
        assert binding == ((AID1, ge(Z, 10)),)


def test_search_same_knowledge_negative(solver):
    found, outcome = solutions(base_system(), StoresEquivalent(), solver=solver)
    assert found == [] and outcome.solutions == 0


def test_search_same_knowledge_positive(solver):
    found, outcome = solutions(same_knowledge_variant(), StoresEquivalent(), solver=solver)
    assert outcome.solutions == 2
    (state, index, first), second = found
    assert second[:2] == (state, index)
    assert first == ((AID1, ge(Z, 10)), (AID20, gt(Z, 9)))
    assert second[2] == ((AID20, gt(Z, 9)), (AID1, ge(Z, 10)))


# ---------------------------------------------------------------------------
# modes, bounds, determinism


def test_terminal_mode_only_tests_final_states(solver):
    found, _ = solutions(base_system(), StoreEntails(TRUE), mode="terminal", solver=solver)
    matched = {state for state, _, _ in found}
    assert len(matched) == 1
    (terminal,) = matched
    assert step(terminal, solver) == []


def test_max_solutions_truncates(solver):
    found, outcome = solutions(base_system(), StoreEntails(TRUE), max_solutions=3, solver=solver)
    assert len(found) == outcome.solutions == 3
    assert outcome.truncated
    assert outcome.capped
    assert not outcome.depth_cut


def test_max_depth_truncates(solver):
    _, full = solutions(base_system(), InconsistentStore(), solver=solver)
    _, shallow = solutions(base_system(), InconsistentStore(), max_depth=2, solver=solver)
    assert shallow.truncated
    assert shallow.depth_cut
    assert not shallow.capped
    assert shallow.states_explored < full.states_explored
    assert shallow.depth_reached <= 2


def test_search_deterministic(solver):
    a = solutions(inconsistent_variant(), InconsistentStore(), solver=Solver())
    b = solutions(inconsistent_variant(), InconsistentStore(), solver=Solver())
    assert a == b


def test_solutions_arrive_while_the_search_runs(solver):
    """Each solution reaches `found` before the search visits a later state."""
    events = []
    searched = importlib.import_module("sccpe.search")  # `sccpe.search` is the function

    def visit_first(init, solver, max_depth, visit):
        return explore(init, solver, max_depth, lambda *a: events.append(("visit", a[1])) or visit(*a))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(searched, "explore", visit_first)
        outcome = search(
            base_system(), StoreEntails(gt(Z, 9)), lambda s, i, b: events.append(("found", i)), solver=solver
        )
    assert outcome.solutions == 8
    visited = 0  # the number of visits so far
    for event, index in events:
        if event == "visit":
            assert index == visited
            visited += 1
        else:
            assert index == visited - 1  # found in the state visited last
    assert visited == outcome.states_explored


def test_search_keeps_no_state_alive(solver):
    """With a consumer that keeps nothing, no state the search built outlives
    it: afterwards the only `SysState` objects are those alive before."""
    init = base_system()
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, SysState)]
    assert any(o is init for o in before)
    counted = []
    outcome = search(init, StoreEntails(gt(Z, 9)), lambda s, i, b: counted.append(i), solver=solver)
    gc.collect()
    kept = {id(o) for o in before}
    new = [o for o in gc.get_objects() if isinstance(o, SysState) and id(o) not in kept]
    assert (outcome.solutions, len(counted), outcome.states_explored) == (8, 8, 19)
    assert new == []


def test_the_consumer_is_required_and_the_outcome_holds_counts_only(solver):
    with pytest.raises(TypeError):
        search(base_system(), InconsistentStore(), solver=solver)
    fields = ("solutions", "states_explored", "depth_reached", "depth_cut", "capped")
    assert SearchOutcome.__match_args__ == fields


def _reachable_count(init, solver):
    return explore(init, solver, 64, lambda state, index, has_successor: False)[0]


def test_reachable_count_fixed_point(solver):
    assert _reachable_count(normalize(SysState((StoreObj(ROOT, TRUE),))), solver) == 1


def test_reachable_count_base_system(solver):
    assert _reachable_count(base_system(), solver) == 19


def test_bad_mode_rejected(solver):
    with pytest.raises(ValueError):
        solutions(base_system(), InconsistentStore(), mode="everything", solver=solver)


def test_bad_bounds_rejected(solver):
    for kwargs in ({"max_depth": -1}, {"max_solutions": 0}, {"max_solutions": -1}):
        with pytest.raises(ValueError):
            solutions(base_system(), InconsistentStore(), solver=solver, **kwargs)
    with pytest.raises(ValueError):
        run(base_system(), solver, max_steps=-1)


def test_search_normalizes_the_initial_state(solver):
    # two root stores merge into one unsatisfiable store only once normalized
    raw = SysState((StoreObj(ROOT, gt(X, 1)), StoreObj(ROOT, lt(X, 0))))
    found, _ = solutions(raw, InconsistentStore(), solver=solver)
    assert [(state, index) for state, index, _ in found] == [(normalize(raw), 0)]


# ---------------------------------------------------------------------------
# soundness / completeness properties


def _dfs_matching_states(init, q, solver, max_depth):
    """Depth-first brute explorer, independent of the BFS bookkeeping."""
    seen = set()
    matched = set()
    stack = [(init, 0)]
    while stack:
        state, depth = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        if evaluate_query(state, q, solver):
            matched.add(state)
        if depth < max_depth:
            for t in step(state, solver):
                stack.append((t, depth + 1))
    return matched


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_search_matches_recheck_and_agree_with_dfs(seed):
    solver = Solver()
    init = small_state(random.Random(seed))
    q = InconsistentStore()
    found, outcome = solutions(init, q, max_depth=6, solver=solver)
    for state, _, binding in found:
        ((aid, store),) = binding
        assert not solver.check_sat(store)
        assert store_map(state)[aid] == store
        assert binding in evaluate_query(state, q, solver)
    if not outcome.truncated:
        dfs = _dfs_matching_states(init, q, solver, max_depth=10**6)
        assert {state for state, _, _ in found} == dfs


def test_inconsistency_is_persistent(solver):
    found, _ = solutions(inconsistent_variant(), InconsistentStore(), solver=solver)
    matched = {state for state, _, _ in found}
    for state in matched:
        for succ in step(state, solver):
            if AID1 in store_map(succ):
                assert evaluate_query(succ, InconsistentStore(), solver)


class BrokenSolver(Solver):
    """A solver that fails on its first satisfiability check."""

    def check_sat(self, c):
        raise RuntimeError(f"solver failed on {c}")


def test_solver_failure_aborts_with_context():
    # no partial outcome: the solver's own exception, with its message, ends the search
    state = normalize(SysState((StoreObj(ROOT, lt(Y, 5)), ProcObj(ROOT, Tell(ge(Z, 10))))))
    with pytest.raises(RuntimeError, match=r"^solver failed on "):
        solutions(state, InconsistentStore(), solver=BrokenSolver())
