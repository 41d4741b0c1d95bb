"""Independent successor enumerator for cross-checking the engine.

Deliberately written rule by rule, position by position, over the raw
object list, sharing none of the matching logic of `sccpe.calculus`, and
with its own substitution for the recursion rule, written out class by
class (`tests/test_oracle_boundary.py` keeps the engine's child map and
canonical form out of this module).
"""

from __future__ import annotations

from sccpe import (
    NIL,
    AgentId,
    Ask,
    Extr,
    Par,
    ProcObj,
    ProcVar,
    Rec,
    Space,
    StoreObj,
    SysState,
    Tell,
    TRUE,
    conjoin,
    normalize,
)


def substitute(p, n: int, q):
    """p with q in place of every v(n) that is not inside a recursion body:
    unfolding r(n, ...) replaces its own variable and stops at any nested
    r(j, ...), which binds its own."""
    if isinstance(p, ProcVar):
        return q if p.var == n else p
    if isinstance(p, Ask):
        return Ask(p.guard, substitute(p.then, n, q))
    if isinstance(p, Par):
        return Par(tuple(substitute(a, n, q) for a in p.args))
    if isinstance(p, Space):
        return Space(p.agent, substitute(p.body, n, q))
    if isinstance(p, Extr):
        return Extr(p.agent, substitute(p.body, n, q))
    return p  # nil, tell and recursion


def oracle_step(state: SysState, solver) -> set:
    """Every successor of state."""
    return set(oracle_moves(state, solver))


def oracle_moves(state: SysState, solver):
    """The successor of each rule applied at each position, in the order of
    the rewritten object's position and, for a parallel composition, of the
    argument split off."""
    objs = list(state.objects)
    n = len(objs)

    def store_positions(aid):
        return [j for j in range(n) if isinstance(objs[j], StoreObj) and objs[j].aid == aid]

    for i in range(n):
        o = objs[i]
        if not isinstance(o, ProcObj):
            continue
        p = o.program
        if isinstance(p, Tell):
            for j in store_positions(o.aid):
                new = list(objs)
                new[j] = StoreObj(o.aid, conjoin(objs[j].constraint, p.constraint))
                new[i] = ProcObj(o.aid, NIL)
                yield normalize(SysState(tuple(new)))
        elif isinstance(p, Ask):
            for j in store_positions(o.aid):
                if solver.entails(objs[j].constraint, p.guard):
                    new = list(objs)
                    new[i] = ProcObj(o.aid, p.then)
                    yield normalize(SysState(tuple(new)))
        elif isinstance(p, Par):
            for k in range(len(p.args)):
                rest = p.args[:k] + p.args[k + 1 :]
                sibling = rest[0] if len(rest) == 1 else Par(rest)
                new = objs[:i] + [ProcObj(o.aid, p.args[k]), ProcObj(o.aid, sibling)] + objs[i + 1 :]
                yield normalize(SysState(tuple(new)))
        elif isinstance(p, Space):
            for _ in store_positions(o.aid)[:1]:
                child = AgentId((p.agent,) + o.aid)
                new = list(objs)
                new[i] = ProcObj(o.aid, NIL)
                new.extend([StoreObj(child, TRUE), ProcObj(child, p.body)])
                yield normalize(SysState(tuple(new)))
        elif isinstance(p, Rec):
            new = list(objs)
            new[i] = ProcObj(o.aid, substitute(p.body, p.var, p))
            yield normalize(SysState(tuple(new)))
        elif isinstance(p, Extr):
            if o.aid and o.aid[0] == p.agent:
                new = list(objs)
                new[i] = ProcObj(o.aid, NIL)
                new.append(ProcObj(AgentId(o.aid[1:]), p.body))
                yield normalize(SysState(tuple(new)))
