import random

import pytest
from hypothesis import given, settings, strategies as st

from randgen import small_state
from systems import AID0, AID01, AID1, AID20, base_system, inconsistent_variant, same_knowledge_variant
from sccpe import (
    ROOT,
    TRUE,
    InconsistentStore,
    ProcObj,
    Solver,
    StoreEntails,
    StoreObj,
    StoresEquivalent,
    SysState,
    Tell,
    conjoin,
    eq_,
    evaluate_query,
    intvar,
    normalize,
    run,
    search,
    step,
    store_map,
)
from sccpe.calculus import explore

W, X, Y, Z = (intvar(n) for n in "WXYZ")


# ---------------------------------------------------------------------------
# evaluate_query


def test_consistent_state_has_no_inconsistent_witness(solver):
    state = base_system()
    assert evaluate_query(state, InconsistentStore(), solver) == []


def test_inconsistent_witness_found(solver):
    bad = conjoin(Z >= 10, eq_(Z, 9))
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
                StoreObj(AID1, Z >= 10),
                StoreObj(AID01, Y < 5),
                StoreObj(AID20, W < Y),
            )
        )
    )
    witnesses = evaluate_query(final, StoreEntails(Z > 9), solver)
    assert witnesses == [((AID1, Z >= 10),)]


def test_equivalent_stores_reported_in_both_orders(solver):
    state = normalize(
        SysState((StoreObj(ROOT, TRUE), StoreObj(AID1, Z >= 10), StoreObj(AID20, Z > 9)))
    )
    witnesses = evaluate_query(state, StoresEquivalent(), solver)
    assert witnesses == [
        ((AID1, Z >= 10), (AID20, Z > 9)),
        ((AID20, Z > 9), (AID1, Z >= 10)),
    ]


def test_equivalent_stores_excludes_constant_true(solver):
    state = normalize(SysState((StoreObj(ROOT, TRUE), StoreObj(AID1, TRUE))))
    assert evaluate_query(state, StoresEquivalent(), solver) == []


def test_a_non_query_is_rejected(solver):
    with pytest.raises(TypeError, match="not a query"):
        evaluate_query(base_system(), Z > 9, solver)


# ---------------------------------------------------------------------------
# search on the reachability examples


def test_search_no_inconsistency_in_base_system(solver):
    outcome = search(base_system(), InconsistentStore(), solver=solver)
    assert outcome.matches == ()
    assert outcome.states_explored == 19
    assert not outcome.truncated


def test_search_finds_injected_inconsistency(solver):
    outcome = search(inconsistent_variant(), InconsistentStore(), solver=solver)
    assert len(outcome.matches) >= 1
    for m in outcome.matches:
        ((aid, store),) = m.witnesses
        assert aid == AID1
        assert not solver.check_sat(store)


def test_search_knowledge_never_y9(solver):
    outcome = search(base_system(), StoreEntails(Y > 9), solver=solver)
    assert outcome.matches == ()
    assert outcome.states_explored == 19


def test_search_knowledge_z9_eight_solutions(solver):
    outcome = search(base_system(), StoreEntails(Z > 9), solver=solver)
    assert len(outcome.matches) == 8
    for m in outcome.matches:
        assert m.witnesses == ((AID1, Z >= 10),)


def test_search_same_knowledge_negative(solver):
    outcome = search(base_system(), StoresEquivalent(), solver=solver)
    assert outcome.matches == ()


def test_search_same_knowledge_positive(solver):
    outcome = search(same_knowledge_variant(), StoresEquivalent(), solver=solver)
    assert len(outcome.matches) == 2
    first, second = outcome.matches
    assert first.state == second.state
    assert first.witnesses == ((AID1, Z >= 10), (AID20, Z > 9))
    assert second.witnesses == ((AID20, Z > 9), (AID1, Z >= 10))


# ---------------------------------------------------------------------------
# modes, bounds, determinism


def test_terminal_mode_only_tests_final_states(solver):
    outcome = search(base_system(), StoreEntails(TRUE), mode="terminal", solver=solver)
    matched = {m.state for m in outcome.matches}
    assert len(matched) == 1
    (terminal,) = matched
    assert step(terminal, solver) == []


def test_max_solutions_truncates(solver):
    outcome = search(base_system(), StoreEntails(TRUE), max_solutions=3, solver=solver)
    assert len(outcome.matches) == 3
    assert outcome.truncated
    assert outcome.capped
    assert not outcome.depth_cut


def test_max_depth_truncates(solver):
    full = search(base_system(), InconsistentStore(), solver=solver)
    shallow = search(base_system(), InconsistentStore(), max_depth=2, solver=solver)
    assert shallow.truncated
    assert shallow.depth_cut
    assert not shallow.capped
    assert shallow.states_explored < full.states_explored
    assert shallow.depth_reached <= 2


def test_search_deterministic(solver):
    a = search(inconsistent_variant(), InconsistentStore(), solver=Solver())
    b = search(inconsistent_variant(), InconsistentStore(), solver=Solver())
    assert a == b


def _reachable_count(init, solver):
    return explore(init, solver, 64, lambda state, index, has_successor: False)[0]


def test_reachable_count_fixed_point(solver):
    assert _reachable_count(normalize(SysState((StoreObj(ROOT, TRUE),))), solver) == 1


def test_reachable_count_base_system(solver):
    assert _reachable_count(base_system(), solver) == 19


def test_bad_mode_rejected(solver):
    with pytest.raises(ValueError):
        search(base_system(), InconsistentStore(), mode="everything", solver=solver)


def test_bad_bounds_rejected(solver):
    for kwargs in ({"max_depth": -1}, {"max_solutions": 0}, {"max_solutions": -1}):
        with pytest.raises(ValueError):
            search(base_system(), InconsistentStore(), solver=solver, **kwargs)
    with pytest.raises(ValueError):
        run(base_system(), solver, max_steps=-1)


def test_search_normalizes_the_initial_state(solver):
    # two root stores merge into one unsatisfiable store only once normalized
    raw = SysState((StoreObj(ROOT, X > 1), StoreObj(ROOT, X < 0)))
    outcome = search(raw, InconsistentStore(), solver=solver)
    assert [(m.state, m.state_index) for m in outcome.matches] == [(normalize(raw), 0)]


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
    outcome = search(init, q, max_depth=6, solver=solver)
    for m in outcome.matches:
        ((aid, store),) = m.witnesses
        assert not solver.check_sat(store)
        assert store_map(m.state)[aid] == store
        assert m.witnesses in evaluate_query(m.state, q, solver)
    if not outcome.truncated:
        dfs = _dfs_matching_states(init, q, solver, max_depth=10**6)
        assert {m.state for m in outcome.matches} == dfs


def test_inconsistency_is_persistent(solver):
    outcome = search(inconsistent_variant(), InconsistentStore(), solver=solver)
    matched = {m.state for m in outcome.matches}
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
    state = normalize(SysState((StoreObj(ROOT, Y < 5), ProcObj(ROOT, Tell(Z >= 10)))))
    with pytest.raises(RuntimeError, match=r"^solver failed on "):
        search(state, InconsistentStore(), solver=BrokenSolver())
