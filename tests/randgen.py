"""Seeded random builders for formulas, processes, and states.

Everything takes an explicit random.Random so test corpora are
reproducible and the acceptance suite can guarantee exact sample counts.
Constants stay in [-8, 8] and formulas in the decidable fragment unless a
builder says otherwise.
"""

from __future__ import annotations

import random

from sccpe import (
    FALSE,
    ROOT,
    TRUE,
    AgentId,
    Ask,
    Extr,
    NIL,
    Par,
    ProcObj,
    ProcVar,
    Rec,
    Space,
    StoreObj,
    SysState,
    Tell,
    Var,
    normalize,
)
from program_printer import format_surface_formula, format_surface_process
from sccpe.formula import And, BoolEq, BoolNeq, Cmp, IntLit, Sort

INT_NAMES = ("X", "Y", "Z")
BOOL_NAMES = ("P", "Q")
CMP_OPS = ("<", "<=", ">", ">=", "===", "=/==")


def fragment_atom(rng: random.Random, int_names=INT_NAMES, bool_names=BOOL_NAMES):
    roll = rng.random()
    if roll < 0.12 and bool_names:
        return Var(rng.choice(bool_names), Sort.BOOL)
    if roll < 0.16:
        return TRUE if rng.random() < 0.5 else FALSE
    left = Var(rng.choice(int_names), Sort.INT)
    if rng.random() < 0.55:
        right = IntLit(rng.randint(-8, 8))
    else:
        right = Var(rng.choice(int_names), Sort.INT)
    return Cmp(rng.choice(CMP_OPS), left, right)


def fragment_formula(
    rng: random.Random,
    max_atoms: int = 3,
    int_names=INT_NAMES,
    bool_names=BOOL_NAMES,
):
    """Random formula in the decidable fragment with at most max_atoms atoms:
    atoms joined by and, Boolean === and =/==, with negation written as
    ``f =/== true``."""

    def build(n: int):
        if n <= 1:
            f = fragment_atom(rng, int_names, bool_names)
        else:
            k = rng.randint(1, n - 1)
            left, right = build(k), build(n - k)
            conn = rng.random()
            if conn < 0.45:
                f = And((left, right))
            elif conn < 0.75:
                f = BoolNeq(left, right)
            else:
                f = BoolEq(left, right)
        if rng.random() < 0.25:
            f = BoolNeq(f, TRUE)
        return f

    return build(rng.randint(1, max_atoms))


def tight_formula(rng: random.Random):
    """Conjunction of a few atoms over a narrow variable/constant range;
    unsatisfiable much more often than `fragment_formula`."""
    names = INT_NAMES[: rng.randint(1, 2)]
    atoms = []
    for _ in range(rng.randint(2, 4)):
        left = Var(rng.choice(names), Sort.INT)
        if rng.random() < 0.5:
            right = IntLit(rng.randint(-3, 3))
        else:
            right = Var(rng.choice(names), Sort.INT)
        atoms.append(Cmp(rng.choice(CMP_OPS), left, right))
    f = atoms[0]
    for a in atoms[1:]:
        f = And((f, a))
    return f


def store_formula(rng: random.Random):
    """Small conjunctive store content, occasionally trivial."""
    roll = rng.random()
    if roll < 0.15:
        return TRUE
    if roll < 0.55:
        return fragment_atom(rng)
    return And((fragment_atom(rng), fragment_atom(rng)))


AID_POOL = (ROOT, AgentId((0,)), AgentId((1,)), AgentId((0, 1)), AgentId((2, 0)))


def process(rng: random.Random, depth: int = 3, bound=()):
    """Random process about `depth` deep; process variables are drawn from
    `bound` (occasionally unbound, to produce stuck terms).  Half of the
    recursions r(i, ...) also run a guarded v(i) inside a nested
    r(j, ...), which unfolding r(i, ...) never replaces: about 15% of draws
    at depth 3 or 4 hold one, against 0.1% without it."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.55:
            return Tell(store_formula(rng))
        if roll < 0.65:
            return NIL
        if roll < 0.8 and bound:
            return ProcVar(rng.choice(bound))
        return Ask(fragment_atom(rng), Tell(store_formula(rng)))
    roll = rng.random()
    if roll < 0.25:
        return Ask(fragment_atom(rng), process(rng, depth - 1, bound))
    if roll < 0.5:
        return Par((process(rng, depth - 1, bound), process(rng, depth - 1, bound)))
    if roll < 0.7:
        return Space(rng.randint(0, 2), process(rng, depth - 1, bound))
    if roll < 0.85:
        var = rng.randint(1, 2)
        body = process(rng, depth - 1, tuple(set(bound) | {var}))
        if rng.random() < 0.5:  # a v(var) that a nested r(j, ...) hides from r(var, ...)
            body = Par((body, Rec(3 - var, Ask(fragment_atom(rng), ProcVar(var)))))
        return Rec(var, body)
    return Extr(rng.randint(0, 2), process(rng, depth - 1, bound))


def raw_state(rng: random.Random) -> SysState:
    """Unnormalized state: may contain nil processes and duplicate stores."""
    objects = []
    for aid in AID_POOL:
        if rng.random() < 0.6:
            objects.append(StoreObj(aid, store_formula(rng)))
        if rng.random() < 0.2:
            objects.append(StoreObj(aid, store_formula(rng)))
    for _ in range(rng.randint(1, 3)):
        objects.append(ProcObj(rng.choice(AID_POOL), process(rng)))
    rng.shuffle(objects)
    return SysState(tuple(objects))


def small_state(rng: random.Random) -> SysState:
    """Normalized state with <= 3 processes of depth <= 3."""
    return normalize(raw_state(rng))


def program(rng: random.Random) -> str:
    """Random program text over the fragment's variables: stores at some
    agents of AID_POOL and one to three process lines of depth <= 3.  A
    store or process that the surface syntax cannot write (a negative
    literal, two asks in one parallel composition) is drawn again."""
    def printable(draw, fmt):
        while True:
            try:
                return fmt(draw())
            except ValueError:
                continue

    lines = [f"var {', '.join(INT_NAMES)} Int", f"var {', '.join(BOOL_NAMES)} Bool", "begin"]
    for aid in AID_POOL[1:]:
        if rng.random() < 0.5:
            store = printable(lambda: store_formula(rng), format_surface_formula)
            lines.append("".join(f"{n} . " for n in aid) + f"root ; {store} .")
    for _ in range(rng.randint(1, 3)):
        lines.append(printable(lambda: process(rng), format_surface_process) + " .")
    return "\n".join(lines + ["end"]) + "\n"
