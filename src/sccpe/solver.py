"""Satisfiability and entailment of constraint formulas.

A `Solver` session decides them with a decision procedure that is complete
for every term the engine can build (difference logic): `formula.lower`
turns a formula into difference atoms ``x - y <= k`` and open splits; the
atoms' graph is checked for a negative cycle (Bellman-Ford), and a split
is branched on only when the model this yields satisfies none of its
alternatives.  It never answers "unknown".

The procedure is tested against two references that share no code with
it: the brute-force model enumerator in ``tests/model_oracle.py``, and an
external SMT-LIB2 solver driven by ``tests/smt_oracle.py`` when one is
installed.

``Solver.entails(c, d)`` is unsatisfiability of ``c and not(d)``.  A session
holds two tables: one verdict per canonical formula, and one per ``(c, d)``
entailment, so a guard asked again of the same store costs one lookup.
"""

from __future__ import annotations

from typing import Iterable

from .formula import DLAtom, DLGoal, Formula, canonicalize, conjoin, lower, negate


class Solver:
    """A solving session: the verdict tables of one analysis.

    Sessions are not thread-safe; concurrent explorations should each use
    their own session.
    """

    def __init__(self):
        self._memo: dict[Formula, bool] = {}  # canonical formula -> satisfiable
        self._entailed: dict[tuple, bool] = {}  # (c, d) -> entails(c, d)

    def check_sat(self, c: Formula) -> bool:
        key = canonicalize(c)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = _search(lower(key))
        return cached

    def entails(self, c: Formula, d: Formula) -> bool:
        verdict = self._entailed.get((c, d))
        if verdict is None:
            verdict = self._entailed[c, d] = not self.check_sat(conjoin(c, negate(d)))
        return verdict


# ---------------------------------------------------------------------------
# Internal procedure


def _search(goal: DLGoal) -> bool:
    """Satisfiability of a goal, depth first on an explicit stack: branch only
    on the first split that its atoms' model leaves unsatisfied (Cotton & Maler 2006)."""
    todo = [goal]
    while todo:
        atoms, splits = todo.pop()
        model = dl_conjunct_sat(atoms)
        if model is None:
            continue
        for i, split in enumerate(splits):
            if not any(_satisfied_by(alt, model) for alt in split):
                rest = splits[:i] + splits[i + 1 :]
                todo.extend(DLGoal(atoms + alt.atoms, rest + alt.splits) for alt in split[::-1])
                break
        else:
            return True
    return False


def _satisfied_by(goal: DLGoal, model: dict) -> bool:
    """Whether the model (unlisted variables are 0) satisfies the goal."""
    value = model.get
    return all(value(a.x, 0) - value(a.y, 0) <= a.k for a in goal.atoms) and all(
        any(_satisfied_by(alt, model) for alt in split) for split in goal.splits
    )


def dl_conjunct_sat(atoms: Iterable[DLAtom]) -> dict | None:
    """An integer model of a conjunction of difference atoms, or None.

    One edge y -> x of weight k per atom x - y <= k; None is the zero vertex
    that bounds and Boolean (0/1) vertices hang off.  Two opposite edges of
    negative sum (P and not P) are a negative cycle found at once; otherwise
    Bellman-Ford from an implicit all-zero source finds one as a relaxation
    that still fires after |V|-1 rounds.  Complete for difference logic.
    The model is each vertex's distance less the zero vertex's.
    """
    edges = [(a.y, a.x, a.k) for a in atoms]
    weight = {(u, v): w for u, v, w in edges}
    if any((v, u) in weight and w + weight[v, u] < 0 for (u, v), w in weight.items()):
        return None
    dist = {None: 0}  # the zero vertex, counted in the rounds even when unused
    for u, v, _ in edges:
        dist[u] = dist[v] = 0
    for _ in range(len(dist)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return {v: d - dist[None] for v, d in dist.items()}
    return None
