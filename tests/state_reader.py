"""A reader of the state JSON document, for the round-trip tests.

It reads the documents that `sccpe.render.state_to_obj` writes, and only
well-formed ones: nothing reads a state document from outside the
program.  Its op names and fields are written out here by hand, not
derived from the encoder's tables, so that a wrong op name, a wrong key or
a missing or extra field in the encoder fails the round trip;
`tests/test_oracle_boundary.py` checks that it imports none of them.
"""

import json

from sccpe import FALSE, TRUE, AgentId, ProcObj, StoreObj, SysState, normalize
from sccpe.calculus import Ask, Extr, Nil, Par, ProcVar, Rec, Space, Tell
from sccpe.formula import And, BoolEq, BoolNeq, Cmp, IntLit, Sort, Var
from sccpe.render import state_to_obj

# op -> (class, the keys of its fields in constructor order)
_NODES = {
    "var": (Var, "name", "sort"),
    "int": (IntLit, "value"),
    "and": (And, "args"),
    "beq": (BoolEq, "left", "right"),
    "bneq": (BoolNeq, "left", "right"),
    "cmp": (Cmp, "fn", "left", "right"),
    "nil": (Nil,),
    "tell": (Tell, "constraint"),
    "ask": (Ask, "guard", "then"),
    "par": (Par, "args"),
    "space": (Space, "agent", "body"),
    "rec": (Rec, "var", "body"),
    "xtr": (Extr, "agent", "body"),
    "procvar": (ProcVar, "var"),
}
_CONSTANTS = {"true": TRUE, "false": FALSE}
_OBJECTS = {"store": StoreObj, "process": ProcObj}
_TERM_KEYS = {"left", "right", "constraint", "guard", "then", "body"}


def read_term(obj: dict):
    """The formula, integer expression or process of a tagged object."""
    op = obj["op"]
    if op in _CONSTANTS:
        assert set(obj) == {"op"}, obj
        return _CONSTANTS[op]
    cls, *keys = _NODES[op]
    assert set(obj) == {"op", *keys}, obj
    return cls(*[_field(key, obj[key]) for key in keys])


def _field(key: str, value):
    if key == "args":
        return tuple(read_term(a) for a in value)
    if key in _TERM_KEYS:
        return read_term(value)
    if key == "sort":
        return Sort(value)
    return value


def read_state(text: str) -> SysState:
    """The normalized state of a state document."""
    doc = json.loads(text)
    assert set(doc) == {"objects"}, doc
    objects = []
    for entry in doc["objects"]:
        assert set(entry) == {"kind", "aid", "payload"}, entry
        cls = _OBJECTS[entry["kind"]]
        objects.append(cls(AgentId(tuple(entry["aid"])), read_term(entry["payload"])))
    return normalize(SysState(tuple(objects)))


def write_state(s: SysState) -> str:
    """The package's state document of s, as JSON text."""
    return json.dumps(state_to_obj(s))


def round_trip(s: SysState) -> SysState:
    return read_state(write_state(s))
