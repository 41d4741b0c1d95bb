"""Breadth-first reachability over the transition system.

Three safety queries, each read off the stores alone:

* ``InconsistentStore``   -- some store has become unsatisfiable;
* ``StoreEntails(tau)``   -- some store has gained enough information to
                             entail the formula tau;
* ``StoresEquivalent``    -- two different agents hold mutually entailing,
                             non-trivial stores (the same knowledge).

``search`` is a front end of ``calculus.explore``, the one breadth-first
loop over canonical states: it evaluates the query on the states explore
visits and reports every witness binding inside every matching state, in
a fully deterministic order: states in discovery order (new successors
sorted by canonical key), witnesses in canonical (agent, store) order.
Explore tells ``search`` whether a state has a successor, not which: in
'terminal' mode only successor-free states are tested.  A query reads
only the stores, so one call of ``search`` evaluates it once per distinct
tuple of store objects, the prefix of a canonical state's objects
(``calculus.store_count``), and reads the witnesses in that order.  To
watch every state an exploration visits, call ``calculus.explore`` with a
callback of one's own.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Union

from .calculus import SysState, explore, normalize, store_count
from .formula import Formula, Record, TRUE
from .solver import Solver


class InconsistentStore(Record):
    pass


class StoreEntails(Record):
    tau: Formula


class StoresEquivalent(Record):
    pass


Query = Union[InconsistentStore, StoreEntails, StoresEquivalent]


class Match(Record):
    state: SysState
    state_index: int
    witnesses: tuple  # of (AgentId, Formula); one pair per witness binding


class SearchOutcome(Record):
    matches: tuple
    states_explored: int
    depth_reached: int
    depth_cut: bool  # the depth bound kept some state out
    capped: bool  # stopped on reaching max_solutions matches

    @property
    def truncated(self) -> bool:
        """The search stopped before closure, for either reason."""
        return self.depth_cut or self.capped


def evaluate_query(s: SysState, q: Query, solver: Solver) -> list:
    """All witness bindings for q in s, in canonical order.

    Each binding is a tuple of (agent, store) pairs: one pair for the
    single-store queries, two for StoresEquivalent (reported in both
    orders).  The bindings depend on the stores of s alone, read in the
    order of normalize(s)'s objects: one store per agent, by agent.
    """
    objs = normalize(s).objects
    stores = [(o.aid, o.constraint) for o in objs[: store_count(objs)]]
    if isinstance(q, InconsistentStore):
        return [((aid, c),) for aid, c in stores if not solver.check_sat(c)]
    if isinstance(q, StoreEntails):
        return [((aid, c),) for aid, c in stores if solver.entails(c, q.tau)]
    if isinstance(q, StoresEquivalent):
        out = []
        nontrivial = [(aid, c) for aid, c in stores if c != TRUE]
        for first, second in combinations(nontrivial, 2):
            if solver.entails(first[1], second[1]) and solver.entails(second[1], first[1]):
                out.extend(((first, second), (second, first)))
        return out
    raise TypeError(f"not a query: {q!r}")


def search(
    init: SysState,
    q: Query,
    mode: str = "any",
    max_depth: int = 64,
    max_solutions: Optional[int] = None,
    solver: Solver | None = None,
) -> SearchOutcome:
    """Explore breadth-first from init, testing q on every visited state
    (mode 'any') or on every successor-free state (mode 'terminal').

    A state with several witness bindings yields one match per binding.
    Exploration stops at closure, or once max_solutions matches are
    collected (`capped`); `depth_cut` reports that the max_depth bound
    kept some state out.
    """
    if mode not in ("any", "terminal"):
        raise ValueError(f"unknown search mode {mode!r}")
    if max_solutions is not None and max_solutions < 1:
        raise ValueError(f"max_solutions must be >= 1, got {max_solutions}")
    solver = solver or Solver()
    matches: list[Match] = []
    memo: dict = {}  # the bindings of each store tuple, for this call only

    def visit(state: SysState, index: int, has_successor: bool) -> bool:
        if mode == "terminal" and has_successor:
            return False
        objs = state.objects
        key = objs[: store_count(objs)]
        bindings = memo.get(key)
        if bindings is None:
            bindings = memo[key] = evaluate_query(state, q, solver)
        for b in bindings:
            matches.append(Match(state, index, b))
            if len(matches) == max_solutions:
                return True
        return False

    explored, depth, cut, capped = explore(init, solver, max_depth, visit)
    return SearchOutcome(tuple(matches), explored, depth, cut, capped)
