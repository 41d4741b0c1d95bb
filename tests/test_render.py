import random

import pytest
from hypothesis import given, settings, strategies as st

from builders import boolvar, eq_, intvar, lt
from randgen import small_state
from state_reader import _CONSTANTS, _NODES, read_state, round_trip, write_state
from systems import AID20, base_system
from sccpe import FALSE, ROOT, TRUE, AgentId, StoreObj, SysState, normalize, render_tree, run
from sccpe.calculus import NIL, Ask, Extr, Par, ProcObj, ProcVar, Rec, Space, Tell
from sccpe.formula import And, BoolEq, BoolNeq, Cmp
from sccpe.render import state_to_obj

W, X, Y, Z = (intvar(n) for n in "WXYZ")


# ---------------------------------------------------------------------------
# tree rendering


def test_render_single_root():
    s = normalize(SysState((StoreObj(ROOT, TRUE),)))
    assert render_tree(s) == "root: true\n"


def test_render_store_hierarchy_four_nodes():
    s = normalize(
        SysState(
            (
                StoreObj(ROOT, TRUE),
                StoreObj(AgentId((0,)), eq_(X, 25)),
                StoreObj(AgentId((1,)), TRUE),
                StoreObj(AgentId((0, 1)), lt(intvar("Y"), 5)),
            )
        )
    )
    assert render_tree(s) == (
        "root: true\n"
        "  0: X:Integer === 25\n"
        "  1: true\n"
        "    0: Y:Integer < 5\n"
    )


def test_render_initial_state_shape(solver):
    tree = render_tree(base_system())
    lines = tree.splitlines()
    assert lines[0] == "root: true"
    assert "  0: X:Integer === 25" in lines
    assert "  1: true" in lines
    assert "    0: Y:Integer < 5" in lines
    # the messenger process sits under agent 0
    assert any(line.startswith("    * xtr(0,") for line in lines)


def test_render_final_state_five_nodes(solver):
    result = run(base_system(), solver)
    tree = render_tree(result.terminal_states[0])
    lines = tree.splitlines()
    assert len(lines) == 5
    assert lines[0] == "root: true"
    assert lines[1] == "  0: X:Integer === 25"
    assert lines[2] == "    2: W:Integer < Y:Integer"
    assert lines[3] == "  1: Z:Integer >= 10"
    assert lines[4] == "    0: Y:Integer < 5"


def test_render_implied_store_shows_true():
    from sccpe import ProcObj, Tell

    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(AID20, Tell(TRUE)))))
    lines = render_tree(s).splitlines()
    assert "  0: true" in lines  # implied ancestor of 2 . 0 . root
    assert "    2: true" in lines


# ---------------------------------------------------------------------------
# JSON round-trip


def test_json_round_trip_initial_state():
    s = base_system()
    assert round_trip(s) == s


def test_json_round_trip_final_state(solver):
    result = run(base_system(), solver)
    s = result.terminal_states[0]
    assert round_trip(s) == s


def test_json_empty_state():
    assert read_state('{"objects": []}') == SysState(())


def test_json_schema_shape():
    doc = state_to_obj(base_system())
    assert set(doc) == {"objects"}
    kinds = {entry["kind"] for entry in doc["objects"]}
    assert kinds == {"store", "process"}
    for entry in doc["objects"]:
        assert isinstance(entry["aid"], list)
        assert "op" in entry["payload"]


def test_json_validates_against_published_schema():
    import jsonschema

    from schemas import STATE_SCHEMA

    jsonschema.validate(state_to_obj(base_system()), STATE_SCHEMA)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_json_round_trip_random_states(seed):
    s = small_state(random.Random(seed))
    assert round_trip(s) == s


def test_json_round_trip_of_a_store_built_from_a_short_and():
    for f in (And((boolvar("P"),)), And(()), And((BoolNeq(boolvar("P"), TRUE),))):
        s = normalize(SysState((StoreObj(ROOT, f),)))
        assert round_trip(s) == s


def test_json_big_integers_round_trip():
    big = 10**40
    s = normalize(SysState((StoreObj(ROOT, eq_(X, big)),)))
    assert round_trip(s) == s


P, Q = boolvar("P"), boolvar("Q")
_GUARD = Ask(P, Tell(Q))

# One state per op of the document, built by hand: the random states never
# hold some of them (`beq`, `bneq`).
OP_SAMPLES = {
    "true": StoreObj(ROOT, TRUE),
    "false": StoreObj(ROOT, FALSE),
    "var": StoreObj(ROOT, P),
    "int": StoreObj(ROOT, lt(X, 1)),
    "and": StoreObj(ROOT, And((P, lt(X, 1)))),
    "beq": StoreObj(ROOT, BoolEq(P, Q)),
    "bneq": StoreObj(ROOT, BoolNeq(P, TRUE)),
    "cmp": StoreObj(ROOT, Cmp("=/==", X, Y)),
    "nil": ProcObj(ROOT, Ask(P, NIL)),
    "tell": ProcObj(ROOT, Tell(Q)),
    "ask": ProcObj(ROOT, _GUARD),
    "par": ProcObj(ROOT, Par((_GUARD, Ask(Q, Tell(P))))),
    "space": ProcObj(ROOT, Space(1, _GUARD)),
    "rec": ProcObj(ROOT, Rec(0, Ask(P, ProcVar(0)))),
    "xtr": ProcObj(ROOT, Extr(0, _GUARD)),
    "procvar": ProcObj(ROOT, Rec(1, Space(0, Ask(Q, ProcVar(1))))),
}


def _ops(obj) -> set:
    if isinstance(obj, dict):
        found = {obj["op"]} if "op" in obj else set()
        return found.union(*(_ops(v) for v in obj.values()))
    if isinstance(obj, list):
        return set().union(*(_ops(v) for v in obj))
    return set()


def test_every_op_of_the_reader_has_a_sample():
    assert set(OP_SAMPLES) == set(_NODES) | set(_CONSTANTS)


@pytest.mark.parametrize("op", OP_SAMPLES)
def test_json_round_trip_of_each_op(op):
    import jsonschema

    from schemas import STATE_SCHEMA

    s = normalize(SysState((StoreObj(ROOT, TRUE), OP_SAMPLES[op])))
    doc = state_to_obj(s)
    assert op in _ops(doc)
    jsonschema.validate(doc, STATE_SCHEMA)
    assert round_trip(s) == s


def test_json_serialization_is_deterministic(solver):
    result = run(base_system(), solver)
    for s in (base_system(), result.terminal_states[0]):
        assert write_state(s) == write_state(s)
        assert write_state(round_trip(s)) == write_state(s)

