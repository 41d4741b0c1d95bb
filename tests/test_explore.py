"""`run` and `search` against a reference breadth-first search built on the
independent successor enumerator of `engine_oracle`, so the shared
exploration loop is checked by code that shares none of it."""

import pytest

from engine_oracle import oracle_step
from systems import base_system, inconsistent_variant, same_knowledge_variant
from sccpe import Predicate, normalize, run, search
from sccpe.calculus import state_key

SYSTEMS = [base_system, inconsistent_variant, same_knowledge_variant]
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


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_run_and_search_agree_with_reference_bfs(system, depth, solver):
    init = system()
    seen, truncated, terminal = reference_bfs(init, solver, depth)

    result = run(init, solver, max_steps=depth)
    assert result.states_explored == len(seen)
    assert result.truncated == truncated
    assert set(result.terminal_states) == terminal
    assert [state_key(s) for s in result.terminal_states] == sorted(map(state_key, terminal))

    final = search(init, Predicate(lambda s: True), mode="terminal", max_depth=depth, solver=solver)
    assert (final.states_explored, final.depth_cut, final.capped) == (len(seen), truncated, False)
    assert {m.state for m in final.matches} == terminal

    every = search(init, Predicate(lambda s: True), max_depth=depth, solver=solver)
    assert [m.state_index for m in every.matches] == list(range(len(seen)))
    assert {m.state for m in every.matches} == seen
