"""`run` and `search` against a reference breadth-first search built on the
independent successor enumerator of `engine_oracle`, so the exploration
loop and `run`'s single path are checked by code that shares none of
them."""

import pytest

from engine_oracle import oracle_step
from systems import base_system, inconsistent_variant, same_knowledge_variant
from sccpe import Predicate, elaborate, normalize, parse, run, search
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


def reference_path_length(init, solver, max_steps):
    """Number of states on the path that takes the least successor in key
    order at each step, up to a successor-free or repeated state or
    max_steps steps."""
    path = [normalize(init)]
    while len(path) <= max_steps:
        succs = oracle_step(path[-1], solver)
        if not succs:
            break
        nxt = min(succs, key=state_key)
        if nxt in path:
            break
        path.append(nxt)
    return len(path)


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
    assert [state_key(s) for s in result.terminal_states] == sorted(map(state_key, terminal))

    final = search(init, Predicate(lambda s: True), mode="terminal", max_depth=depth, solver=solver)
    assert (final.states_explored, final.depth_cut, final.capped) == (len(seen), truncated, False)
    assert {m.state for m in final.matches} == terminal

    every = search(init, Predicate(lambda s: True), max_depth=depth, solver=solver)
    assert [m.state_index for m in every.matches] == list(range(len(seen)))
    assert {m.state for m in every.matches} == seen


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
