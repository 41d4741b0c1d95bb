"""The one-step diamond property that `run` relies on: any two distinct
successors of a state have a common successor.  With it, every maximal run
from a state has the same length and ends in the same state, so following
one path finds the terminal state of all of them.  A calculus can be
confluent and still wrong (an `ask` that reads another agent's store is
one), so the end of `run`'s path is also checked against a full search
over the independent successor enumerator."""

import random
from itertools import combinations

import pytest

from conftest import PROGRAMS
from randgen import small_state
from systems import base_system, inconsistent_variant, same_knowledge_variant
from test_explore import reference_bfs
from sccpe import elaborate, parse, run, step
from sccpe.calculus import explore


def unjoinable_pairs(states, solver):
    """(state, b, c) for each pair of distinct successors b, c of a state
    that have no common successor, and the number of pairs checked."""
    failures, pairs = [], 0
    for a in states:
        succs = step(a, solver)
        nexts = [set(step(b, solver)) for b in succs]
        for (b, nb), (c, nc) in combinations(zip(succs, nexts), 2):
            pairs += 1
            if not nb & nc:
                failures.append((a, b, c))
    return failures, pairs


def reachable(init, solver):
    states = []
    _, _, cut, _ = explore(init, solver, 64, lambda s, i, succs: states.append(s))
    assert not cut
    return states


def test_random_states_have_the_diamond_property(solver):
    rng = random.Random(7031)
    failures, pairs = unjoinable_pairs([small_state(rng) for _ in range(500)], solver)
    assert pairs > 200
    assert failures == []


SOURCES = {
    "base_system": base_system,
    "inconsistent_variant": inconsistent_variant,
    "same_knowledge_variant": same_knowledge_variant,
    "message.sccp": lambda: elaborate(parse((PROGRAMS / "message.sccp").read_text())),
    "spaces.sccp": lambda: elaborate(parse((PROGRAMS / "spaces.sccp").read_text())),
}


@pytest.mark.parametrize("name", SOURCES)
def test_every_reachable_state_has_the_diamond_property(name, solver):
    failures, pairs = unjoinable_pairs(reachable(SOURCES[name](), solver), solver)
    assert pairs > 0
    assert failures == []


def test_run_ends_where_the_full_reference_search_ends(solver):
    rng = random.Random(5309)
    cycles = 0
    for _ in range(400):
        init = small_state(rng)
        for depth in (0, 1, 2, 4, 8):
            _, truncated, terminal = reference_bfs(init, solver, depth)
            result = run(init, solver, max_steps=depth)
            assert set(result.terminal_states) == terminal
            if result.truncated != truncated:
                # a cycle on the path: no run terminates, however deep
                assert truncated and not result.truncated and not terminal
                cycles += 1
    assert cycles < 20
