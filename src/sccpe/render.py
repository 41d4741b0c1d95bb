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

The CLI writes its ``--format json`` documents with the standard
library's ``json.dumps(doc, indent=2)``; a search's document is written
one solution at a time, as the search finds them (``sccpe.cli``).
"""

from __future__ import annotations

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
    term_key,
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
        for p in sorted(procs.get(path, ()), key=term_key):
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
