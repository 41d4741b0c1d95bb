"""The hierarchy-message system in its object form, with variation points.

This is the state the reachability examples start from: four stores plus a
messenger process already sitting inside space 0 (one space-step past the
source program's initial state).
"""

from __future__ import annotations

from conftest import PROGRAMS
from sccpe import (
    ROOT,
    AgentId,
    Ask,
    Extr,
    Par,
    ProcObj,
    Space,
    StoreObj,
    SysState,
    Tell,
    TRUE,
    elaborate,
    eq_,
    intvar,
    normalize,
    parse,
)

W, X, Y, Z = (intvar(n) for n in "WXYZ")

AID0 = AgentId((0,))
AID1 = AgentId((1,))
AID01 = AgentId((0, 1))
AID20 = AgentId((2, 0))


def messenger(first=None, last=None):
    """The process of the message program: tells `first` in space 1, then,
    once Y < 20 is readable under 1.0, extrudes twice and tells `last`
    inside a new space 2.0."""
    first = first if first is not None else Tell(Z >= 10)
    last = last if last is not None else Tell(W < Y)
    inner = Space(0, Ask(Y < 20, Extr(0, Extr(1, Space(0, Space(2, last))))))
    return Extr(0, Space(1, Par((first, inner))))


def base_system(first=None, last=None) -> SysState:
    return normalize(
        SysState(
            (
                StoreObj(ROOT, TRUE),
                StoreObj(AID0, eq_(X, 25)),
                StoreObj(AID1, TRUE),
                StoreObj(AID01, Y < 5),
                ProcObj(AID0, messenger(first, last)),
            )
        )
    )


def inconsistent_variant() -> SysState:
    """tell(Z >= 10) replaced by tell(Z >= 10) || tell(Z === 9)."""
    return base_system(first=Par((Tell(Z >= 10), Tell(eq_(Z, 9)))))


def same_knowledge_variant() -> SysState:
    """tell(W < Y) replaced by tell(Z > 9)."""
    return base_system(last=Tell(Z > 9))


# The five systems of the acceptance examples, by name: the two programs'
# elaborated initial states and the three object-form systems above.
ACCEPTANCE_SYSTEMS = {
    "message-program": lambda: elaborate(parse((PROGRAMS / "message.sccp").read_text())),
    "base": base_system,
    "inconsistent-variant": inconsistent_variant,
    "same-knowledge-variant": same_knowledge_variant,
    "spaces-program": lambda: elaborate(parse((PROGRAMS / "spaces.sccp").read_text())),
}
