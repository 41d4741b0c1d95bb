"""Command-line front end.

Subcommands:

* ``run FILE``     parse, validate, elaborate, and follow one path to the
                   terminal state, printed as a space tree (or JSON);
* ``search FILE --query inconsistent | entails FORMULA | equiv``
                   reachability queries with numbered solutions and a
                   ``states: N  solutions: M`` summary;
* ``check FILE --entails C1 C2``
                   a one-off entailment check (prints true/false).

``FILE`` is a program path or ``-`` for standard input.  Every formula is
decided by the built-in solver, which never answers "unknown".  Exit codes:
0 success (a "No solution." outcome is a success), 1 usage/parse/validate
error (diagnostics start FILE:, C1:/C2: or, for a query, Q:), 3 internal
error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import lang, render
from .calculus import run as run_engine
from .formula import format_formula
from .search import InconsistentStore, StoreEntails, StoresEquivalent
from .search import search as search_states
from .solver import Solver

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """Diagnostics already printed; abort with the usage exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", metavar="FILE", help="program file, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sccpe", description="Run and analyze spatial constraint programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program to its terminal states")
    _common_flags(p_run)
    p_run.add_argument("--max-depth", type=_at_least(0), default=64, metavar="N")

    p_search = sub.add_parser("search", help="reachability query over all executions")
    _common_flags(p_search)
    p_search.add_argument(
        "--query",
        nargs="+",
        required=True,
        metavar="QUERY",
        help="inconsistent | entails FORMULA | equiv",
    )
    p_search.add_argument("--mode", choices=("any", "final"), default="any")
    p_search.add_argument("--max-depth", type=_at_least(0), default=64, metavar="N")
    p_search.add_argument("--max-solutions", type=_at_least(1), default=None, metavar="N")

    p_check = sub.add_parser("check", help="one-off entailment between two constraints")
    _common_flags(p_check)
    p_check.add_argument("--entails", nargs=2, required=True, metavar=("C1", "C2"))

    return parser


def _load_program(path: str):
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), path
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")


def _reject(exc: lang.ParseError, name: str, err):
    for d in exc.diagnostics:
        print(f"{name}:{d}", file=err)
    raise _InputError from exc


def _parse_formula(source: str, label: str, table: dict, err, inferred=None):
    try:
        return lang.parse_constraint_text(source, table, inferred)
    except lang.ParseError as exc:
        _reject(exc, label, err)


def _parse_program(text: str, name: str, err):
    try:
        ast = lang.parse(text)
    except lang.ParseError as exc:
        _reject(exc, name, err)
    diagnostics = lang.validate(ast)
    for d in diagnostics:
        print(f"{name}:{d}", file=err)
    if any(d.severity == "error" for d in diagnostics):
        raise _InputError
    return ast


def _elaborate(text: str, name: str, err):
    ast = _parse_program(text, name, err)
    return ast, lang.elaborate(ast)


def _cmd_run(args, out, err) -> int:
    text, name = _load_program(args.input)
    _, state = _elaborate(text, name, err)
    result = run_engine(state, Solver(), max_steps=args.max_depth)
    if args.format == "json":
        doc = {
            "command": "run",
            "terminal_states": [render.state_to_obj(s) for s in result.terminal_states],
            "states": result.states_explored,
            "truncated": result.truncated,
        }
        print(render.dumps(doc), file=out)
    else:
        for i, s in enumerate(result.terminal_states, start=1):
            print(f"Terminal state {i}:", file=out)
            print(render.render_tree(s), end="", file=out)
        print(f"states: {result.states_explored}  terminal: {len(result.terminal_states)}", file=out)
    return _finish(result.truncated, args, err)


def _finish(depth_cut: bool, args, err) -> int:
    if depth_cut:
        print(f"warning: depth bound {args.max_depth} reached before closure", file=err)
    return EXIT_OK


def _parse_query(args, table, err):
    kind = args.query[0]
    if kind == "inconsistent":
        if len(args.query) != 1:
            raise _UsageError("--query inconsistent takes no argument")
        return InconsistentStore(), "inconsistent"
    if kind == "entails":
        if len(args.query) != 2:
            raise _UsageError('--query entails needs a formula, e.g. --query entails "Z > 9"')
        tau = _parse_formula(args.query[1], "Q", table, err)
        return StoreEntails(tau), f"entails {format_formula(tau)}"
    if kind == "equiv":
        if len(args.query) != 1:
            raise _UsageError("--query equiv takes no argument")
        return StoresEquivalent(), "equiv"
    raise _UsageError(f"unknown query {kind!r} (expected inconsistent, entails, or equiv)")


def _cmd_search(args, out, err) -> int:
    text, name = _load_program(args.input)
    ast, state = _elaborate(text, name, err)
    query, query_label = _parse_query(args, ast.var_table, err)
    mode = "terminal" if args.mode == "final" else "any"
    outcome = search_states(
        state,
        query,
        mode=mode,
        max_depth=args.max_depth,
        max_solutions=args.max_solutions,
    )
    if args.format == "json":
        # the witnesses repeat a few (agent, store) pairs and bindings many
        # times: build each once, so that render.dumps encodes it once
        witness = cache(
            lambda aid, c: {
                "aid": list(aid.path),
                "store": format_formula(c),
                "store_term": render.formula_to_obj(c),
            }
        )
        witnesses = cache(lambda binding: [witness(aid, c) for aid, c in binding])
        doc = {
            "command": "search",
            "query": query_label,
            "solutions": [
                {
                    "solution": i,
                    "state": m.state_index,
                    "witnesses": witnesses(m.witnesses),
                }
                for i, m in enumerate(outcome.matches, start=1)
            ],
            "states": outcome.states_explored,
            "truncated": outcome.truncated,
            "depth_cut": outcome.depth_cut,
            "capped": outcome.capped,
        }
        print(render.dumps(doc), file=out)
    else:
        store = cache(format_formula)
        for i, m in enumerate(outcome.matches, start=1):
            print(f"Solution {i} (state {m.state_index})", file=out)
            for aid, c in m.witnesses:
                print(f"  aid: {aid}", file=out)
                print(f"  store: {store(c)}", file=out)
        if not outcome.matches:
            print("No solution.", file=out)
        elif not outcome.capped:
            print("No more solutions.", file=out)
        print(f"states: {outcome.states_explored}  solutions: {len(outcome.matches)}", file=out)
    return _finish(outcome.depth_cut, args, err)


def _cmd_check(args, out, err) -> int:
    text, name = _load_program(args.input)
    table = {}
    if text.strip():
        table = _parse_program(text, name, err).var_table
    inferred = {}  # an undeclared name gets one sort across both formulas
    left = _parse_formula(args.entails[0], "C1", table, err, inferred)
    right = _parse_formula(args.entails[1], "C2", table, err, inferred)
    verdict = Solver().entails(left, right)
    if args.format == "json":
        doc = {
            "command": "check",
            "entails": verdict,
            "left": format_formula(left),
            "right": format_formula(right),
        }
        print(render.dumps(doc), file=out)
    else:
        print("true" if verdict else "false", file=out)
    return EXIT_OK


def main(argv=None) -> int:
    out, err = sys.stdout, sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args, out, err)
        if args.command == "search":
            return _cmd_search(args, out, err)
        return _cmd_check(args, out, err)
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except _InputError:
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
