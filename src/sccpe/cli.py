"""Command-line front end: the subcommands ``run``, ``search`` and ``check``,
with the flags that USAGE lists and ``-h`` or ``--help`` prints.

``run`` follows one path to the terminal state and prints it as a space tree
(or JSON); ``search`` answers a reachability query with numbered solutions,
each printed as the search finds it (in text or JSON), and a ``states: N
solutions: M`` summary; ``check`` prints whether C1 entails C2.  ``FILE`` is
a program path or ``-`` for standard input, either read as strict UTF-8.  A
flag's value follows it (``--max-depth 3``) or is attached by ``=``
(``--max-depth=3``), a unique prefix names a flag (``--max-d 3``), flags may
come before ``FILE``, and after ``--`` every argument is a value.  Every
formula is decided by the built-in solver, which never answers "unknown".
In text, a ``run`` or a search short of its solution cap that the depth
bound cut short prints ``Inconclusive: depth bound N reached.`` before its
summary, and never "No solution." or "No more solutions.".  Exit codes: 0
success (a "No solution." or "Inconclusive" outcome is a success), 1
usage/parse/validate error (diagnostics start FILE:, C1:/C2: or, for a
query, Q:), 3 internal error, 141 the reader closed standard output early
(128 + SIGPIPE, as a shell reports for a tool cut off the same way; nothing
is printed).
A search that fails after its first solutions leaves them on standard
output, and reports the failure as any other.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import cache
from itertools import count
from types import SimpleNamespace

from . import lang, render
from .calculus import run as run_engine
from .formula import format_formula
from .search import InconsistentStore, StoreEntails, StoresEquivalent
from .search import search as search_states
from .solver import Solver

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 3
EXIT_PIPE = 141

# What a run or a search that the depth bound cut short prints in text mode.
INCONCLUSIVE = "Inconclusive: depth bound {} reached."


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """Diagnostics already printed; abort with the usage exit code."""


# What -h and --help print: the usage block of the README's "Command line".
USAGE = '''\
sccpe run FILE [--max-depth N] [--format text|json]
sccpe search FILE --query inconsistent | entails "FORMULA" | equiv
            [--mode any|final] [--max-depth N] [--max-solutions N] [--format text|json]
sccpe check FILE --entails "C1" "C2"'''

# Each subcommand's flags, in the order an "ambiguous option" error lists
# them: flag -> (arity, check, default).  Arity "+" takes every value that
# follows; a check is a tuple of choices or an integer lower bound.
_HELP = {"-h": (0, None, None), "--help": (0, None, None)}
_FORMAT = {**_HELP, "--format": (1, ("text", "json"), "text")}
_FLAGS = {
    "run": {**_FORMAT, "--max-depth": (1, 0, 64)},
    "search": {**_FORMAT, "--query": ("+", None, None), "--mode": (1, ("any", "final"), "any"),
               "--max-depth": (1, 0, 64), "--max-solutions": (1, 1, None)},
    "check": {**_FORMAT, "--entails": (2, None, None)},
}
_REQUIRED = ("--query", "--entails")
_EXPECTED = {1: "one argument", 2: "2 arguments", "+": "at least one argument"}
_NUMBER = r"^-\d+$|^-\d*\.\d+$"  # a value, not an option (compiled on first use)


def _option(arg: str, flags: dict):
    """None for a value, () for "--", else the flag that `arg` names or
    abbreviates (None if none) and the value "=" attaches (None if none)."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return () if arg == "--" else None
    name, eq, value = arg.partition("=")
    if name not in flags and arg[1] != "-" and arg[:2] in flags:  # -hX, and -hh is -h twice
        value = arg[2:].lstrip(arg[1])
        name, eq = arg[:2], value != ""
    hits = [name] if name in flags else [f for f in flags if f.startswith(name) and arg[1] == "-"]
    if len(hits) > 1:
        raise _UsageError(f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits or not (re.match(_NUMBER, arg) or " " in arg):
        return (hits[0] if hits else None), (value if eq else None)
    return None


def _value(name: str, check, text: str):
    """`text` checked against a tuple of choices or an integer lower bound."""
    if isinstance(check, tuple):
        if text in check:
            return text
        listed = ", ".join(map(repr, check))
        raise _UsageError(f"argument {name}: invalid choice: {text!r} (choose from {listed})")
    try:
        number = int(text)
    except ValueError:
        raise _UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if number < check:
        raise _UsageError(f"argument {name}: must be at least {check}, got {number}")
    return number


def _read_args(argv: list):
    """The subcommand and its arguments, or None if help is asked for.  All
    of a subcommand's options are told from its values before any value is
    read, so an ambiguous option is reported before a bad value."""
    args, flags, extras, input_at = SimpleNamespace(command=None, input=None), _HELP, [], 0
    rest = [(arg, _option(arg, flags)) for arg in argv]
    while rest:
        arg, kind = rest.pop(0)
        if args.command is None and (kind is None or kind == () and rest):  # a last "--" is none
            args.command, flags = _value("command", tuple(_FLAGS), arg), _FLAGS[arg]
            vars(args).update((f[2:].replace("-", "_"), d) for f, (n, _, d) in flags.items() if n)
            cut = next((j for j, (a, _) in enumerate(rest) if a == "--"), len(rest))
            rest = [(a, _option(a, flags) if j <= cut else None) for j, (a, _) in enumerate(rest)]
        elif kind == ():  # "--": every argument after it is a value
            if args.input is not None and len(rest) != input_at - 1:  # unless FILE is next to it
                extras.append(arg)
        elif kind is None and args.input is None:
            args.input, input_at = arg, len(rest)
        elif kind is None or kind[0] is None:
            extras.append(arg)
        else:
            (flag, value), (arity, check, _) = kind, flags[kind[0]]
            if arity == 0 and value is None:
                return None
            if arity == 0:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            values = [] if value is None else [value]
            while value is None and rest and rest[0][1] is None and (arity == "+" or len(values) < arity):
                values.append(rest.pop(0)[0])
            if len(values) < (1 if arity == "+" else arity):
                raise _UsageError(f"argument {flag}: expected {_EXPECTED[arity]}")
            got = _value(flag, check, values[0]) if arity == 1 else values
            setattr(args, flag[2:].replace("-", "_"), got)
    missing = ["FILE" if args.command else "command"] * (args.input is None)
    missing += [flag for flag in _REQUIRED if flag in flags and getattr(args, flag[2:]) is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _load_program(path: str):
    name = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            # decoded and split into lines as a file is, in any locale
            sys.stdin.reconfigure(encoding="utf-8", errors="strict", newline=None)
            return sys.stdin.read(), name
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), name
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {name}: {exc}")


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


def _print_json(doc, out) -> None:
    out.write(json.dumps(doc, indent=2) + "\n")


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
        _print_json(doc, out)
    else:
        for i, s in enumerate(result.terminal_states, start=1):
            print(f"Terminal state {i}:", file=out)
            print(render.render_tree(s), end="", file=out)
        if result.truncated:
            print(INCONCLUSIVE.format(args.max_depth), file=out)
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
    as_json = args.format == "json"
    if as_json:  # the document's head; its tail follows "solutions"
        head = json.dumps({"command": "search", "query": query_label}, indent=2)
        out.write(head[:-2] + ',\n  "solutions": [')
    solution = _json_solution() if as_json else _text_solution()
    number = count(1)
    outcome = search_states(
        state,
        query,
        lambda _, index, binding: out.write(solution(next(number), index, binding)),
        mode="terminal" if args.mode == "final" else "any",
        max_depth=args.max_depth,
        max_solutions=args.max_solutions,
    )
    if as_json:
        tail = {
            "states": outcome.states_explored,
            "truncated": outcome.truncated,
            "depth_cut": outcome.depth_cut,
            "capped": outcome.capped,
        }
        out.write(("\n  ]," if outcome.solutions else "],") + json.dumps(tail, indent=2)[1:] + "\n")
    else:
        if outcome.depth_cut and not outcome.capped:
            print(INCONCLUSIVE.format(args.max_depth), file=out)
        elif not outcome.solutions:
            print("No solution.", file=out)
        elif not outcome.capped:
            print("No more solutions.", file=out)
        print(f"states: {outcome.states_explored}  solutions: {outcome.solutions}", file=out)
    return _finish(outcome.depth_cut, args, err)


def _text_solution():
    """The text of a search's solution, from its number, its state's number
    and its witness binding."""
    store = cache(format_formula)
    return lambda i, index, binding: f"Solution {i} (state {index})\n" + "".join(
        f"  aid: {aid}\n  store: {store(c)}\n" for aid, c in binding
    )


def _json_solution():
    """As `_text_solution`, the text of a solution in the "solutions" list of
    `json.dumps(doc, indent=2)`, with the comma before all but the first.
    Each distinct (agent, store) witness is encoded once and indented to
    its place in a "witnesses" list, and each distinct binding's list is
    joined from them once: the indented encoder puts a nested value's lines
    after a newline and nowhere else (a string's newline is escaped), and
    a list's items one to a line, separated by a comma."""
    witness = cache(
        lambda aid, c: json.dumps(
            {"aid": list(aid), "store": format_formula(c), "store_term": render.formula_to_obj(c)},
            indent=2,
        ).replace("\n", "\n        ")
    )
    witnesses = cache(
        lambda binding: "[\n        " + ",\n        ".join([witness(*w) for w in binding]) + "\n      ]"
    )
    return lambda i, index, binding: (
        f'{"," * (i > 1)}\n    {{\n      "solution": {i},\n      "state": {index},'
        f'\n      "witnesses": {witnesses(binding)}\n    }}'
    )


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
        _print_json(doc, out)
    else:
        print("true" if verdict else "false", file=out)
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "search": _cmd_search, "check": _cmd_check}


def main(argv=None) -> int:
    out, err = sys.stdout, sys.stderr
    try:
        args = _read_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(USAGE, file=out)
            code = EXIT_OK
        else:
            code = _COMMANDS[args.command](args, out, err)
        out.flush()  # a reader that closed the pipe early is met here, not at exit
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except _InputError:
        return EXIT_USAGE
    except BrokenPipeError:
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), 1)  # so the flush at exit stays silent
        os.close(devnull)
        return EXIT_PIPE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
