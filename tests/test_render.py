import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from randgen import small_state
from systems import AID20, base_system
from sccpe import (
    ROOT,
    TRUE,
    AgentId,
    StoreObj,
    SysState,
    boolvar,
    eq_,
    intvar,
    normalize,
    render_tree,
    run,
    state_from_json,
    state_to_json,
)
from sccpe.formula import Xor
from sccpe.render import JsonFormatError, dumps, state_to_obj

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
                StoreObj(AgentId((0, 1)), intvar("Y") < 5),
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
    assert state_from_json(state_to_json(s)) == s


def test_json_round_trip_final_state(solver):
    result = run(base_system(), solver)
    s = result.terminal_states[0]
    assert state_from_json(state_to_json(s)) == s


def test_json_empty_state():
    assert state_from_json('{"objects": []}') == SysState(())


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

    from sccpe.schemas import STATE_SCHEMA

    jsonschema.validate(state_to_obj(base_system()), STATE_SCHEMA)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_json_round_trip_random_states(seed):
    s = small_state(random.Random(seed))
    assert state_from_json(state_to_json(s)) == s


def test_json_round_trip_of_a_store_built_from_a_short_xor():
    s = normalize(SysState((StoreObj(ROOT, Xor((boolvar("P"),))),)))
    assert state_from_json(state_to_json(s)) == s


def test_json_big_integers_round_trip():
    big = 10**40
    s = normalize(SysState((StoreObj(ROOT, eq_(X, big)),)))
    assert state_from_json(state_to_json(s)) == s


def test_json_serialization_is_deterministic(solver):
    result = run(base_system(), solver)
    for s in (base_system(), result.terminal_states[0]):
        assert state_to_json(s) == state_to_json(s)
        assert state_to_json(state_from_json(state_to_json(s))) == state_to_json(s)


# ---------------------------------------------------------------------------
# the CLI's JSON writer prints the standard library's indented bytes

_SHARED = {"x": [1, {"y": None}]}
_LIST = [1, {"k": "v"}]
_DICT = {"l": _LIST, "again": _LIST}


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}]},
        # one object at two depths, met first at the shallower, then at the deeper
        {"a": _SHARED, "b": [[_SHARED]], "c": _SHARED["x"]},
        [[[_SHARED]], _SHARED, {"d": [_SHARED]}],
        # a shared list inside a shared dict
        [_DICT, {"deep": [_DICT, _LIST]}, _LIST],
        # non-ASCII text and keys that need escaping
        {"ключ": "värde ✓", 'tab\there "q"': "back\\slash\nnewline", "\u2028\x00": "😀\x1f"},
        # bool is an int: true and false must not print as 1 and 0
        [True, False, None, 0, 1, -7, 10**40, 2.5, -0.0, float("inf"), float("-inf")],
        {True: 1, False: 0, None: "null key", 2: "int key", 2.5: "float key"},
        (1, (2, [3])),
        "top-level string",
        7,
        None,
    ],
)
def test_dumps_prints_the_indented_stdlib_bytes(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_refuses_a_cycle_and_an_unknown_value():
    cycle = [1]
    cycle.append({"back": cycle})
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(cycle)
    with pytest.raises(TypeError):
        dumps({"set": {1}})


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)


def _containers(kids):
    return st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4)


@st.composite
def _aliased_documents(draw):
    """A JSON document whose subtrees may be one object at several places:
    the first subtree is drawn from scalars, each later one from the
    subtrees before it."""
    pool = [draw(st.recursive(_SCALARS, _containers, max_leaves=8))]
    for _ in range(draw(st.integers(0, 4))):
        pool.append(draw(st.recursive(st.sampled_from(pool), _containers, max_leaves=8)))
    return draw(_containers(st.sampled_from(pool)))


@given(_aliased_documents())
@settings(max_examples=300)
def test_dumps_matches_the_stdlib_on_aliased_documents(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# decode errors carry paths


_P, _ONE = '{"op": "var", "name": "P", "sort": "Bool"}', '{"op": "int", "value": 1}'
_CMP = '{"op": "cmp", "fn": "<", "left": %s, "right": %s}'


def _store(payload: str) -> str:
    return '{"objects": [{"kind": "store", "aid": [], "payload": %s}]}' % payload


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("[]", "$"),
        ('{"objects": 3}', "$.objects"),
        ('{"objects": [{"kind": "store"}]}', "$.objects[0]"),
        ('{"objects": [{"kind": "blob", "aid": [], "payload": {"op": "true"}}]}', "kind"),
        ('{"objects": [{"kind": "store", "aid": [0], "payload": {"op": "wat"}}]}', "payload.op"),
        ('{"objects": [{"kind": "store", "aid": ["x"], "payload": {"op": "true"}}]}', "aid[0]"),
        (
            '{"objects": [{"kind": "process", "aid": [], "payload": {"op": "par", "args": []}}]}',
            "args",
        ),
        ("{not json", "invalid JSON"),
        # each position admits one kind of term, and a variable of one sort
        (_store(_CMP % (_P, _ONE)), "payload.left.sort"),
        (_store('{"op": "var", "name": "X", "sort": "Int"}'), "payload.sort"),
        (_store(_CMP % ('{"op": "true"}', _ONE)), "payload.left.op"),
        (_store(_ONE), "payload.op"),
        (
            _store('{"op": "arith", "fn": "+", "left": %s, "right": %s}' % (_ONE, _ONE)),
            "payload.op",
        ),
    ],
)
def test_json_errors_name_the_path(doc, fragment):
    with pytest.raises(JsonFormatError) as exc:
        state_from_json(doc)
    assert fragment in str(exc.value)
