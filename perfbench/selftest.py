"""Self-test of the benchmark's generators, checkers and tracer.

Usage: python3 perfbench/selftest.py

For each workload, at reduced sizes and several seeds:

1. explore the generated program breadth-first with the independent
   successor enumerator `tests/engine_oracle.oracle_step` (not
   `sccpe.calculus.step`), derive the answer from the reachable states by
   store meaning, and require it to equal the generator's reference;
2. make one untraced and one traced CLI call through the benchmark's own
   call path and require the checker to accept both answers;
3. require the checker to reject a wrong reference or a truncated answer.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import sys

from run import ROOT, SRC, Call
from workloads import (
    check_equiv,
    check_inconsistent,
    check_run,
    diseq_solver,
    interleave_run,
    is_satisfiable,
    knowledge_equiv,
    parse_store,
)

sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]

from engine_oracle import oracle_step  # noqa: E402
from sccpe import Solver, StoreObj, elaborate, format_formula, parse  # noqa: E402


def explore(text: str) -> tuple:
    """All reachable states and the terminal ones, by oracle_step."""
    init = elaborate(parse(text))
    solver = Solver()
    seen, queue, terminal = {init}, [init], []
    for s in queue:
        succs = oracle_step(s, solver)
        if not succs:
            terminal.append(s)
        for t in succs:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return queue, terminal


def stores(s) -> dict:
    return {
        o.aid.path: parse_store(format_formula(o.constraint))
        for o in s.objects
        if isinstance(o, StoreObj)
    }


def oracle_answer(case, states: list, terminal: list):
    if case.check is check_run:
        (only,) = terminal
        assert len(stores(only)) == len(only.objects), "processes left in the terminal state"
        return stores(only)
    if case.check is check_equiv:
        out = set()
        for s in states:
            st = stores(s)
            out.update(
                (a, st[a], b, st[b]) for a in st for b in st if a != b and st[a] and st[a] == st[b]
            )
        return frozenset(out)
    return [st for s in states for st in stores(s).values() if not is_satisfiable(st)]


def corrupted(case):
    """The case with a wrong reference, or one whose checker sees the
    answer marked as truncated."""
    if case.check is check_run:
        key = next(iter(case.expected))
        return dataclasses.replace(case, expected={**case.expected, key: ()})
    if case.check is check_equiv:
        return dataclasses.replace(case, expected=case.expected - {next(iter(case.expected))})

    def check_truncated(c, out, err):
        return check_inconsistent(c, out.replace('"truncated": false', '"truncated": true'), err)

    return dataclasses.replace(case, check=check_truncated)


def main() -> int:
    cases = []
    for seed in (0, 1, 2):
        cases += [
            ("interleave-run", interleave_run(seed, n=2, k=2)),
            ("interleave-run", interleave_run(seed, n=3, k=1)),
            ("knowledge-equiv", knowledge_equiv(seed, n=2, k=3)),
            ("knowledge-equiv", knowledge_equiv(seed, n=3, k=2)),
            ("diseq-solver", diseq_solver(seed, m=4)),
        ]
    failures = 0
    for name, case in cases:
        states, terminal = explore(case.text)
        problems = []
        if oracle_answer(case, states, terminal) != case.expected:
            problems.append("oracle BFS disagrees with the generator's reference")
        for trace in (False, True):
            call = Call(case, trace)
            problems += [f"trace={int(trace)}: {p}" for p in call.problems]
        if not Call(corrupted(case), False).problems:
            problems.append("checker accepted a wrong answer")
        status = "FAIL" if problems else "ok"
        print(f"{status} {name}: {len(states)} states (oracle), {call.record.get('states')} (CLI)")
        for p in problems:
            print(f"    {p}")
        failures += bool(problems)
    print(f"{len(cases) - failures} of {len(cases)} cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
