"""State rendering: indented space trees and a lossless JSON form.

The tree view prints one node per agent, two spaces of indentation per
nesting level, children sorted by agent index.  A node shows its store
constraint (``true`` when only implied by resident processes) and each
resident process on a ``* ``-prefixed line before the child spaces:

    root: true
      0: X:Integer === 25
        2: W:Integer < Y:Integer
      1: Z:Integer >= 10
        * ask Y:Integer < 20 -> ...
        0: Y:Integer < 5

The JSON schema is ``{"objects": [{"kind": "store"|"process",
"aid": [n, ...], "payload": <tagged term>}]}`` with the agent path
innermost-first and payloads as nested ``{"op": ...}`` objects in
canonical order.  The document determines the state: the reader in the
test suite, ``tests/state_reader.py``, rebuilds every normalized state
from it.

The CLI's ``--format json`` documents are written by ``dump``, which
writes the bytes of ``json.dumps(doc, indent=2)`` piece by piece, so a
search's long list of solutions is never held as one string, and encodes
each shared dict or list once: a search's witnesses share a few objects
hundreds of times, and the standard indented encoder, written in Python,
would walk each of them again every time.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from .calculus import (
    Ask,
    Extr,
    Nil,
    Par,
    ProcVar,
    Rec,
    Space,
    StoreObj,
    SysState,
    Tell,
    format_process,
    process_key,
)
from .formula import (
    And,
    BoolConst,
    BoolEq,
    BoolNeq,
    Cmp,
    Formula,
    IntLit,
    TRUE,
    Var,
    format_formula,
)


# ---------------------------------------------------------------------------
# Tree rendering


def render_tree(s: SysState) -> str:
    """Deterministic indented tree of the state's spatial hierarchy.  The
    agents are listed in the order of their root-first paths, which is the
    preorder with the children of each agent by index."""
    stores: dict[tuple, Formula] = {}
    procs: dict[tuple, list] = {}
    for o in s.objects:
        if isinstance(o, StoreObj):
            stores[o.aid.path] = o.constraint
        else:
            procs.setdefault(o.aid.path, []).append(o.program)
    nodes = {()}  # every agent with an object, and its ancestors
    for path in (*stores, *procs):
        nodes.update(path[i:] for i in range(len(path)))
    lines: list[str] = []
    for path in sorted(nodes, key=lambda p: p[::-1]):
        indent = "  " * len(path)
        label = str(path[0]) if path else "root"
        lines.append(f"{indent}{label}: {format_formula(stores.get(path, TRUE))}")
        for p in sorted(procs.get(path, ()), key=process_key):
            lines.append(f"{indent}  * {format_process(p)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON encoding

# The op name of each node class; fields follow in declaration order, under
# their own names except for the comparison's operator.
_OP_NAME = {
    Var: "var", IntLit: "int", And: "and", BoolEq: "beq", BoolNeq: "bneq", Cmp: "cmp",
    Nil: "nil", Tell: "tell", Ask: "ask", Par: "par", Space: "space", Rec: "rec", Extr: "xtr",
    ProcVar: "procvar",
}
_JSON_KEY = {"op": "fn"}
_LIT, _ONE, _MANY, _SORT = range(4)  # how a field is encoded


def _plan(cls) -> tuple:
    """(JSON key, field, encoding) for each field of cls, in order."""
    kids = {name: _MANY if many else _ONE for name, _, many in cls._kids}
    return tuple(
        (_JSON_KEY.get(n, n), n, kids.get(n, _SORT if n == "sort" else _LIT))
        for n in cls.__match_args__
    )


_PLAN = {cls: (op, _plan(cls)) for cls, op in _OP_NAME.items()}


def formula_to_obj(t) -> dict:
    """Tagged JSON object of a formula, integer expression or process."""
    if isinstance(t, BoolConst):
        return {"op": "true" if t.value else "false"}
    if type(t) not in _PLAN:
        raise TypeError(f"not a term or process: {t!r}")
    op, plan = _PLAN[type(t)]
    doc = {"op": op}
    for key, name, how in plan:
        value = getattr(t, name)
        if how == _ONE:
            value = formula_to_obj(value)
        elif how == _MANY:
            value = [formula_to_obj(a) for a in value]
        elif how == _SORT:
            value = value.value
        doc[key] = value
    return doc


def state_to_obj(s: SysState) -> dict:
    objects = []
    for o in s.objects:
        if isinstance(o, StoreObj):
            kind, payload = "store", o.constraint
        else:
            kind, payload = "process", o.program
        objects.append({"kind": kind, "aid": list(o.aid.path), "payload": formula_to_obj(payload)})
    return {"objects": objects}


_FLOAT_WORDS = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _scalar(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return "NaN" if v != v else _FLOAT_WORDS.get(v) or float.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key as the encoder writes it, with the separator after it."""
    return _quote(k if isinstance(k, str) else _scalar(k)) + ": "


def dump(doc, write: Callable[[str], object]) -> None:
    """Write exactly the text of `json.dumps(doc, indent=2)` through `write`,
    piece by piece, with each dict or list object encoded once however
    often it occurs in doc.

    The document and the containers directly inside it are written one
    member per call, so a long list of solutions is never joined into one
    string; each value below them is encoded to text once (`encode`).  The
    indented encoder puts a nested value's lines after a newline and its
    nesting level's indent, and nowhere else (a string's newline is
    escaped).  So the text of an object written at one indent becomes its
    text at another by swapping the indent after each newline.
    """
    done: dict = {}  # id of a list or dict in doc -> (its text, the indent it has there)

    def encode(v, indent: str) -> str:
        if isinstance(v, str):
            return _quote(v)
        if not isinstance(v, (list, tuple, dict)):
            return _scalar(v)
        if not v:
            return "{}" if isinstance(v, dict) else "[]"
        if id(v) in done:
            text, at = done[id(v)]
            if text is None:
                raise ValueError("Circular reference detected")
            return text if at == indent else text.replace("\n" + at, "\n" + indent)
        done[id(v)] = (None, indent)
        inner = indent + "  "
        if isinstance(v, dict):
            ends, items = "{}", [_key(k) + encode(x, inner) for k, x in v.items()]
        else:
            ends, items = "[]", [encode(x, inner) for x in v]
        text = f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"
        done[id(v)] = (text, indent)
        return text

    def emit(prefix: str, v, indent: str, depth: int) -> None:
        if depth == 2 or not isinstance(v, (list, tuple, dict)) or not v or id(v) in done:
            write(prefix + encode(v, indent))
            return
        done[id(v)] = (None, indent)  # a cycle back to v is refused
        inner = indent + "  "
        if isinstance(v, dict):
            ends, items = "{}", [(_key(k), x) for k, x in v.items()]
        else:
            ends, items = "[]", [("", x) for x in v]
        sep = f"{prefix}{ends[0]}\n{inner}"
        for key, x in items:
            emit(sep + key, x, inner, depth + 1)
            sep = f",\n{inner}"
        write(f"\n{indent}{ends[1]}")
        del done[id(v)]  # written, not kept: met again, it is encoded anew

    emit("", doc, "", 0)
