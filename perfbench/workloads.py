"""Seeded program generators, each paired with the answer it must produce.

Every reference answer follows from how the program is built, never from
running the engine: the generator knows which constraints each agent
receives, and the checkers compare what the CLI printed against that.
Stores are compared by meaning (integer bounds per variable), not by
text, so a change of canonical form or conjunct order is not a failure.

The seed changes variable names, constants and agent indices only; the
shape of the state graph depends on the size parameters alone.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

# The surface syntax has no negative literals, so constants are >= 0.
# Sizes used by the benchmark.  diseq-solver must keep m <= 12: at m = 13
# the internal solver's DNF exceeds its 4096-conjunct limit and the CLI
# exits 2.
INTERLEAVE_N, INTERLEAVE_K = 3, 2
DISEQ_M = 12

_ATOM = re.compile(r"([A-Z][A-Z0-9]*):Integer (<=|>=|<|>|===|=/==) (-?\d+)")
# The CLI prints (in)equality as === and =/==, the source syntax is = and =/=.
_SOURCE_OP = {"===": "=", "=/==": "=/="}


@dataclass(frozen=True)
class Case:
    """One generated program: source text, CLI arguments after the
    subcommand's FILE (which is always ``-``, the program on stdin), the
    reference answer, and a checker returning the list of problems."""

    text: str
    argv: tuple
    expected: object
    check: Callable[["Case", str, str], list]


# ---------------------------------------------------------------------------
# Store meaning: per variable, an integer interval and excluded values


def store_value(atoms) -> tuple:
    """Meaning of a conjunction of (var, op, constant) atoms, op in the
    source syntax, over the integers: a sorted tuple of (var, low, high,
    excluded values)."""
    bounds: dict = {}
    for var, op, k in atoms:
        lo, hi, excl = bounds.get(var, (None, None, frozenset()))
        if op in (">=", ">", "="):
            k_lo = k + 1 if op == ">" else k
            lo = k_lo if lo is None else max(lo, k_lo)
        if op in ("<=", "<", "="):
            k_hi = k - 1 if op == "<" else k
            hi = k_hi if hi is None else min(hi, k_hi)
        if op == "=/=":
            excl = excl | {k}
        bounds[var] = (lo, hi, excl)
    return tuple(sorted((v, lo, hi, excl) for v, (lo, hi, excl) in bounds.items()))


def parse_store(text: str) -> tuple:
    """Meaning of a store as the CLI prints it (``true`` or atoms joined
    by ``and``); raises ValueError on anything else."""
    if text == "true":
        return store_value(())
    atoms = []
    for part in text.split(" and "):
        m = _ATOM.fullmatch(part)
        if m is None:
            raise ValueError(f"unexpected store atom {part!r}")
        atoms.append((m.group(1), _SOURCE_OP.get(m.group(2), m.group(2)), int(m.group(3))))
    return store_value(atoms)


def is_satisfiable(value: tuple) -> bool:
    """Whether a store meaning has an integer model."""
    return not any(
        lo is not None and hi is not None and all(x in excl for x in range(lo, hi + 1))
        for _, lo, hi, excl in value
    )


def _names(rng: random.Random, count: int) -> list:
    pool = [f"{a}{d}" for a in "ABCDEFGHJKLMNPQSTUVWYZ" for d in range(10)]
    return rng.sample(pool, count)


# ---------------------------------------------------------------------------
# interleave-run and knowledge-equiv: n sibling spaces x k concurrent tells


@dataclass(frozen=True)
class Spaces:
    """The sibling-spaces family: space agents[i] runs tells[i] (a tuple of
    (var, op, constant)) concurrently; the first space also runs one ask on
    its first tell that extrudes tell(root_atom) to the root."""

    agents: tuple
    tells: tuple
    root_atom: tuple

    def source(self) -> str:
        names = sorted({v for ts in self.tells for v, _, _ in ts} | {self.root_atom[0]})
        lines = [f"var {', '.join(names)} Int", "begin"]
        for i, (agent, ts) in enumerate(zip(self.agents, self.tells)):
            procs = [f"tell({v} {op} {k})" for v, op, k in ts]
            if i == 0:
                v, op, k = ts[0]
                rv, rop, rk = self.root_atom
                procs.append(f"ask {v} {op} {k} -> x( tell({rv} {rop} {rk}) )_{agent}")
            lines.append(f"[ {' || '.join(procs)} ]_{agent} .")
        lines.append("end")
        return "\n".join(lines) + "\n"


def _spaces(rng: random.Random, n: int, k: int, shared: bool) -> Spaces:
    names = _names(rng, n + 1)
    root_var, space_vars = names[0], ([names[1]] * n if shared else names[1:])
    agents = tuple(rng.sample(range(10), n))

    def bounds():
        # Lower bounds below every upper bound, so every store is consistent.
        lows = rng.sample(range(0, 50), (k + 1) // 2)
        highs = rng.sample(range(50, 100), k // 2)
        return [(">=", lows[j // 2]) if j % 2 == 0 else ("<=", highs[j // 2]) for j in range(k)]

    common = bounds()
    tells = tuple(
        tuple((v, op, c) for op, c in (common if shared else bounds())) for v in space_vars
    )
    return Spaces(agents, tells, (root_var, ">=", rng.randrange(0, 100)))


def interleave_run(seed: int, n: int = INTERLEAVE_N, k: int = INTERLEAVE_K) -> Case:
    """`run` on n spaces with k tells each over the space's own variable."""
    spaces = _spaces(random.Random(seed), n, k, shared=False)
    expected = {(): store_value([spaces.root_atom])}
    for agent, ts in zip(spaces.agents, spaces.tells):
        expected[(agent,)] = store_value(ts)
    return Case(spaces.source(), ("run", "-"), expected, check_run)


def check_run(case: Case, out: str, err: str) -> list:
    """The single terminal state holds exactly the expected stores and no
    process, and the depth bound was not reached."""
    problems = []
    if err.strip():
        problems.append(f"stderr not empty: {err.strip()[:200]!r}")
    lines = out.splitlines()
    if not lines or lines[0] != "Terminal state 1:":
        return problems + ["output does not start with 'Terminal state 1:'"]
    if not re.fullmatch(r"states: \d+  terminal: 1", lines[-1]):
        return problems + [f"expected one terminal state, summary is {lines[-1]!r}"]
    got, path = {}, []
    for line in lines[1:-1]:
        m = re.fullmatch(r"((?:  )*)(root|\d+): (.*)", line)
        if m is None:
            problems.append(f"unexpected line in terminal state: {line!r}")
            continue
        # path[d - 1] is the agent index at depth d; the root is depth 0.
        depth = len(m.group(1)) // 2
        path[max(depth - 1, 0) :] = [] if m.group(2) == "root" else [int(m.group(2))]
        try:
            got[tuple(reversed(path))] = parse_store(m.group(3))
        except ValueError as exc:
            problems.append(str(exc))
    if got != case.expected:
        problems.append(f"terminal stores {got} differ from the expected {case.expected}")
    return problems


def knowledge_equiv(seed: int, n: int = INTERLEAVE_N, k: int = INTERLEAVE_K) -> Case:
    """`search --query equiv` on the same shape with one shared variable
    and the same constants in every space."""
    spaces = _spaces(random.Random(seed), n, k, shared=True)
    return Case(
        spaces.source(),
        ("search", "-", "--query", "equiv", "--format", "json"),
        equiv_witnesses(spaces),
        check_equiv,
    )


def equiv_witnesses(spaces: Spaces) -> frozenset:
    """Every (agent, store, agent, store) pair of equivalent, non-trivial
    stores that some reachable state holds.

    The spaces run independently, so every combination of their local
    stores is reachable; a space's store is the conjunction of any subset
    of its tells.  The root only ever holds root_atom, over a variable no
    space tells, so it is equivalent to no space store.
    """
    reach = {(): {store_value([spaces.root_atom])}}
    for agent, ts in zip(spaces.agents, spaces.tells):
        reach[(agent,)] = {
            store_value(sub) for r in range(1, len(ts) + 1) for sub in itertools.combinations(ts, r)
        }
    out = set()
    for a, b in itertools.permutations(reach, 2):
        out.update((a, v, b, v) for v in reach[a] & reach[b])
    return frozenset(out)


def check_equiv(case: Case, out: str, err: str) -> list:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = [] if doc.get("truncated") is False else ["search was truncated"]
    got = set()
    for sol in doc.get("solutions", []):
        ws = sol["witnesses"]
        if len(ws) != 2:
            problems.append(f"solution {sol['solution']} has {len(ws)} witnesses, not 2")
            continue
        try:
            (a, va), (b, vb) = ((tuple(w["aid"]), parse_store(w["store"])) for w in ws)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        got.add((a, va, b, vb))
    if got != case.expected:
        problems.append(
            f"witness set differs: {len(got - case.expected)} unexpected,"
            f" {len(case.expected - got)} missing"
        )
    return problems


# ---------------------------------------------------------------------------
# diseq-solver: m disequalities on one store, serialized by asks


def diseq_solver(seed: int, m: int = DISEQ_M) -> Case:
    """`search --query inconsistent` on a root store that receives m
    disequalities one after another (each tell unblocks the ask that
    releases the next), beside two asks on bounds the store never entails.

    Every store is a conjunction of disequalities over the integers, so
    no store is ever inconsistent: the answer is no solution.
    """
    rng = random.Random(seed)
    (x,) = _names(rng, 1)
    consts = rng.sample(range(1, 90), m)
    chain = f"tell({x} =/= {consts[-1]})"
    for c in reversed(consts[:-1]):
        chain = f"tell({x} =/= {c}) || ask {x} =/= {c} -> {chain}"
    lines = [
        f"var {x} Int",
        "begin",
        f"{chain} .",
        f"ask {x} > 90 -> tell({x} = 91) .",
        f"ask {x} < 1 -> tell({x} = 0) .",
        "end",
    ]
    return Case(
        "\n".join(lines) + "\n",
        ("search", "-", "--query", "inconsistent", "--format", "json"),
        [],
        check_inconsistent,
    )


def check_inconsistent(case: Case, out: str, err: str) -> list:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = [] if doc.get("truncated") is False else ["search was truncated"]
    if doc.get("solutions") != case.expected:
        problems.append(f"expected no solution, got {len(doc.get('solutions') or [])}")
    return problems


WORKLOADS = {
    "interleave-run": interleave_run,
    "knowledge-equiv": knowledge_equiv,
    "diseq-solver": diseq_solver,
}
