"""Satisfiability and entailment of constraint formulas.

A `Solver` session decides them with a decision procedure that is complete
for every term of `sccpe.formula` (difference logic): `formula.lower`
turns a formula into difference atoms ``x - y <= k`` and open splits; the
atoms' graph is checked for a negative cycle (Bellman-Ford), and a split
is branched on only when the model this yields satisfies none of its
alternatives.  It never answers "unknown".

The procedure is tested against two references that share no code with
it: the brute-force model enumerator in ``tests/model_oracle.py``, and an
external SMT-LIB2 solver driven by ``tests/smt_oracle.py`` when one is
installed.

``Solver.entails(c, d)`` is unsatisfiability of ``c and (d =/== true)``,
with d lowered at negative polarity, so that no negation is built.  A
session holds three tables: one lowering per ``(formula, polarity)``, a
conjunction's joined from its conjuncts' (so a grown store lowers only its
new conjunct), one verdict per ``(c, d)``, searched on c's lowering
joined to d's negated one, and one verdict of ``Solver.equivalent`` per
ordered pair ``(c, d)``, read from the entailment verdicts.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from .formula import FALSE, And, DLAtom, Formula, lower, note_sort


class Solver:
    """A solving session: the lowering and verdict tables of one analysis.
    Not thread-safe: concurrent explorations should each use their own."""

    def __init__(self):
        self._lowered: dict[tuple, tuple] = {}  # (f, polarity) -> (goal, name -> sort)
        self._entailed: dict[tuple, bool] = {}  # (c, d) -> entails(c, d)
        self._equivalent: dict[tuple, bool] = {}  # (c, d) -> equivalent(c, d)

    def check_sat(self, c: Formula) -> bool:
        return not self.entails(c, FALSE)

    def entails(self, c: Formula, d: Formula) -> bool:
        verdict = self._entailed.get((c, d))
        if verdict is None:
            goal, _ = _join((self._lower(c, True), self._lower(d, False)))
            verdict = self._entailed[c, d] = not _search(goal)
        return verdict

    def equivalent(self, c: Formula, d: Formula) -> bool:
        """Whether c and d entail each other, decided once per ordered pair
        (whether d entails c is asked only when c entails d)."""
        verdict = self._equivalent.get((c, d))
        if verdict is None:
            verdict = self._equivalent[c, d] = self.entails(c, d) and self.entails(d, c)
        return verdict

    def _lower(self, f: Formula, pos: bool) -> tuple:
        """f (not(f) when pos is false) lowered, with its sort map."""
        lowered = self._lowered.get((f, pos))
        if lowered is None:
            if pos and type(f) is And:
                lowered = _join([self._lower(g, True) for g in f.args])
            else:
                lowered = _frozen(lower(f, pos, sorts := {})), sorts
            self._lowered[f, pos] = lowered
        return lowered


# ---------------------------------------------------------------------------
# Internal procedure


def _join(parts) -> tuple:
    """The conjunction of lowered parts: their atoms and splits concatenated,
    their sort maps merged (SortConflict on a name they use at two sorts)."""
    sorts: dict = {}
    for _, part in parts:
        for name, sort in part.items():
            note_sort(name, sort, sorts)
    goals = [goal for goal, _ in parts]
    atoms = tuple(chain.from_iterable(atoms for atoms, _ in goals))
    return (atoms, tuple(chain.from_iterable(splits for _, splits in goals))), sorts


def _frozen(goal: tuple) -> tuple:
    """goal with tuples for its lists at every level: a cached goal is shared."""
    atoms, splits = goal
    return tuple(atoms), tuple(tuple(map(_frozen, split)) for split in splits)


def _search(goal: tuple) -> bool:
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
                todo.extend((atoms + more, rest + also) for more, also in split[::-1])
                break
        else:
            return True
    return False


def _satisfied_by(goal: tuple, model: dict) -> bool:
    """Whether the model (unlisted variables are 0) satisfies the goal."""
    atoms, splits = goal
    value = model.get
    return all(value(a.x, 0) - value(a.y, 0) <= a.k for a in atoms) and all(
        any(_satisfied_by(alt, model) for alt in split) for split in splits
    )


def dl_conjunct_sat(atoms: Iterable[DLAtom]) -> dict | None:
    """An integer model of a conjunction of difference atoms, or None.

    One edge y -> x of weight k per atom x - y <= k; None is the zero vertex
    that bounds and Boolean (0/1) vertices hang off.  Bellman-Ford from an
    implicit all-zero source finds a negative cycle as a relaxation that
    still fires after |V|-1 rounds.  Complete for difference logic.  The
    model is each vertex's distance less the zero vertex's.
    """
    edges = [(a.y, a.x, a.k) for a in atoms]
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
