import io
import json
import os
import subprocess
import sys

import jsonschema
import pytest

import sccpe
from conftest import PROGRAMS
from test_explore import CYCLE_PROGRAM
from sccpe import cli
from schemas import CLI_OUTPUT_SCHEMA

MESSAGE = str(PROGRAMS / "message.sccp")
SPACES = str(PROGRAMS / "spaces.sccp")


def invoke(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# run


def test_run_message_program_prints_final_tree():
    code, out, err = invoke(["run", MESSAGE])
    assert code == 0
    assert "Terminal state 1:" in out
    assert "root: true" in out
    assert "    2: W:Integer < Y:Integer" in out
    assert "  1: Z:Integer >= 10" in out
    assert out.count("Terminal state") == 1


def test_run_depth_bound_warning(tmp_path):
    program = tmp_path / "loop.sccp"
    program.write_text("begin\nr(1, v(1) || tell(false)) .\nend\n")
    code, out, err = invoke(["run", str(program), "--max-depth", "4"])
    assert code == 0
    assert "depth bound 4 reached" in err


def test_run_json_output_validates():
    code, out, err = invoke(["run", MESSAGE, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, CLI_OUTPUT_SCHEMA)
    assert doc["command"] == "run"
    assert len(doc["terminal_states"]) == 1


def test_run_json_with_resident_process_validates():
    # the second program's terminal state still holds a blocked process
    code, out, err = invoke(["run", SPACES, "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, CLI_OUTPUT_SCHEMA)
    (terminal,) = doc["terminal_states"]
    kinds = {entry["kind"] for entry in terminal["objects"]}
    assert kinds == {"store", "process"}


def test_run_stops_at_a_cycle_without_a_depth_warning():
    # the cycle on run's path proves that no run terminates before the
    # bound is reached; a full exploration stopped at 7,761 states and warned
    code, out, err = invoke(["run", "-", "--max-depth", "64"], stdin=CYCLE_PROGRAM)
    assert (code, out) == (0, "states: 5  terminal: 0\n")
    assert "depth bound" not in err
    code, out, err = invoke(["run", "-", "--max-depth", "1"], stdin=CYCLE_PROGRAM)
    assert (code, out) == (0, "states: 2  terminal: 0\n")
    assert err.endswith("warning: depth bound 1 reached before closure\n")


def test_run_follows_one_path_through_six_interleaved_spaces():
    # 6 sibling spaces x 2 tells, the first also extruding a tell to the
    # root: the full interleaving graph grows about 6x per space (612
    # states for 3 spaces), while the one path run follows has 29 states
    program = """var B6, D4, G5, Q5, W5, Y5, Z6 Int
begin
[ tell(Q5 >= 31) || tell(Q5 <= 51) || ask Q5 >= 31 -> x( tell(D4 >= 29) )_1 ]_1 .
[ tell(Z6 >= 24) || tell(Z6 <= 77) ]_7 .
[ tell(Y5 >= 38) || tell(Y5 <= 98) ]_8 .
[ tell(W5 >= 49) || tell(W5 <= 50) ]_3 .
[ tell(B6 >= 44) || tell(B6 <= 78) ]_5 .
[ tell(G5 >= 17) || tell(G5 <= 96) ]_6 .
end
"""
    code, out, err = invoke(["run", "-"], stdin=program)
    assert (code, err) == (0, "")
    assert out == (
        "Terminal state 1:\n"
        "root: D4:Integer >= 29\n"
        "  1: Q5:Integer <= 51 and Q5:Integer >= 31\n"
        "  3: W5:Integer <= 50 and W5:Integer >= 49\n"
        "  5: B6:Integer <= 78 and B6:Integer >= 44\n"
        "  6: G5:Integer <= 96 and G5:Integer >= 17\n"
        "  7: Z6:Integer <= 77 and Z6:Integer >= 24\n"
        "  8: Y5:Integer <= 98 and Y5:Integer >= 38\n"
        "states: 29  terminal: 1\n"
    )


# ---------------------------------------------------------------------------
# search


def test_search_inconsistent_no_solution():
    code, out, err = invoke(["search", MESSAGE, "--query", "inconsistent"])
    assert code == 0
    assert "No solution." in out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("states: ")
    assert lines[-1].endswith("solutions: 0")


def test_search_entails_solutions():
    code, out, err = invoke(["search", MESSAGE, "--query", "entails", "Z > 9"])
    assert code == 0
    assert "Solution 1 (state " in out
    assert "aid: 1 . root" in out
    assert "store: Z:Integer >= 10" in out
    assert "No more solutions." in out
    assert "solutions: 8" in out.strip().splitlines()[-1]


def test_search_equiv_no_solution():
    code, out, err = invoke(["search", MESSAGE, "--query", "equiv"])
    assert code == 0
    assert "No solution." in out


def test_search_final_mode_and_max_solutions():
    code, out, err = invoke(
        ["search", MESSAGE, "--query", "entails", "Z > 9", "--mode", "final", "--max-solutions", "1"]
    )
    assert code == 0
    assert "solutions: 1" in out.strip().splitlines()[-1]


def test_search_text_and_json_agree():
    code_t, out_t, _ = invoke(["search", MESSAGE, "--query", "entails", "Z > 9"])
    code_j, out_j, _ = invoke(
        ["search", MESSAGE, "--query", "entails", "Z > 9", "--format", "json"]
    )
    assert code_t == code_j == 0
    doc = json.loads(out_j)
    summary = out_t.strip().splitlines()[-1]
    assert summary == f"states: {doc['states']}  solutions: {len(doc['solutions'])}"


def test_search_depth_flag_truncates_cleanly():
    code, out, err = invoke(["search", MESSAGE, "--query", "inconsistent", "--max-depth", "2"])
    assert code == 0
    assert "No solution." in out
    assert err == "warning: depth bound 2 reached before closure\n"
    code, out, err = invoke(
        ["search", MESSAGE, "--query", "inconsistent", "--max-depth", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["truncated"] is True
    assert err == "warning: depth bound 2 reached before closure\n"


def test_search_json_tells_the_depth_bound_from_the_solution_cap():
    argv = ["search", MESSAGE, "--query", "entails", "Z > 9", "--format", "json"]
    for extra, depth_cut, capped in (
        (["--max-solutions", "1"], False, True),
        (["--max-depth", "2"], True, False),
        ([], False, False),
    ):
        code, out, err = invoke(argv + extra)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, CLI_OUTPUT_SCHEMA)
        assert (doc["depth_cut"], doc["capped"]) == (depth_cut, capped)
        assert doc["truncated"] is (depth_cut or capped)


def test_search_to_closure_and_solution_cap_do_not_warn():
    for extra in ([], ["--max-solutions", "1"]):
        code, out, err = invoke(["search", MESSAGE, "--query", "entails", "Z > 9"] + extra)
        assert code == 0
        assert err == ""


def test_solution_cap_omits_no_more_solutions():
    argv = ["search", MESSAGE, "--query", "entails", "Z > 9", "--max-solutions"]
    code, out, err = invoke(argv + ["1"])
    assert code == 0
    assert out.strip().splitlines()[-2:] == ["  store: Z:Integer >= 10", "states: 9  solutions: 1"]
    # the cap stops the search on its 8th solution, even if it is the last
    code, out, err = invoke(argv + ["8"])
    assert "No more solutions." not in out
    code, out, err = invoke(argv + ["9"])
    assert "No more solutions." in out
    assert "solutions: 8" in out.strip().splitlines()[-1]


def test_depth_warning_fires_when_the_cap_also_stopped_the_search():
    argv = ["search", MESSAGE, "--query", "entails", "Z > 9", "--max-solutions", "1"]
    for fmt in ("text", "json"):
        code, out, err = invoke(argv + ["--max-depth", "5", "--format", fmt])
        assert code == 0
        assert err == "warning: depth bound 5 reached before closure\n"
        if fmt == "json":
            doc = json.loads(out)
            assert doc["truncated"] is True
            assert len(doc["solutions"]) == 1


# The usage errors, pinned byte for byte: an argv and the one line it prints
# to stderr, with exit code 1 and empty stdout.
Q = ["--query", "inconsistent"]
COMMANDS = "(choose from 'run', 'search', 'check')"
FORMATS = "(choose from 'text', 'json')"
SOLUTIONS = "argument --max-solutions"
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frobnicate"], f"argument command: invalid choice: 'frobnicate' {COMMANDS}"),
    (["--format", "json", "run", MESSAGE], f"argument command: invalid choice: 'json' {COMMANDS}"),
    (["run"], "the following arguments are required: FILE"),
    (["search"], "the following arguments are required: FILE, --query"),
    (["search", MESSAGE], "the following arguments are required: --query"),
    (["search", "--query", "equiv", MESSAGE], "the following arguments are required: FILE"),
    (["search", MESSAGE, "--query"], "argument --query: expected at least one argument"),
    (["check", "-", "--entails", "X > 1"], "argument --entails: expected 2 arguments"),
    (["check", "-", "--entails=X > 1", "X > 0"], "argument --entails: expected 2 arguments"),
    (["run", MESSAGE, "--format"], "argument --format: expected one argument"),
    (["run", MESSAGE, "--format", "xml"], f"argument --format: invalid choice: 'xml' {FORMATS}"),
    (["run", MESSAGE, "--format=xml"], f"argument --format: invalid choice: 'xml' {FORMATS}"),
    (
        ["search", MESSAGE, "--query", "equiv", "--mode", "sometimes"],
        "argument --mode: invalid choice: 'sometimes' (choose from 'any', 'final')",
    ),
    (["run", MESSAGE, "--max-depth", "x"], "argument --max-depth: invalid int value: 'x'"),
    (["run", MESSAGE, "--max-depth", "-1"], "argument --max-depth: must be at least 0, got -1"),
    (["search", MESSAGE, *Q, "--max-depth", "-1"], "argument --max-depth: must be at least 0, got -1"),
    (["search", MESSAGE, *Q, "--max-solutions", "0"], f"{SOLUTIONS}: must be at least 1, got 0"),
    (["search", MESSAGE, *Q, "--max-solutions", "-1"], f"{SOLUTIONS}: must be at least 1, got -1"),
    (["search", MESSAGE, *Q, "--max-solutions", "many"], f"{SOLUTIONS}: invalid int value: 'many'"),
    (["run", MESSAGE, "extra"], "unrecognized arguments: extra"),
    (["--verbose", "run", MESSAGE, "-x", "1"], "unrecognized arguments: --verbose -x 1"),
    (["run", MESSAGE, "--", "--format"], "unrecognized arguments: --format"),
    (["run", MESSAGE, "--format", "json", "--", "G"], "unrecognized arguments: -- G"),
    (["--"], "the following arguments are required: command"),
    (
        ["search", MESSAGE, "--query", "equiv", "--max", "3"],
        "ambiguous option: --max could match --max-depth, --max-solutions",
    ),
    (
        ["search", MESSAGE, "--max-depth", "x", "--m=3"],  # every option is read before any value
        "ambiguous option: --m=3 could match --mode, --max-depth, --max-solutions",
    ),
    (["run", MESSAGE, "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    (
        ["search", MESSAGE, "--query", "nonsense"],
        "unknown query 'nonsense' (expected inconsistent, entails, or equiv)",
    ),
]


@pytest.mark.parametrize(
    "argv, message",
    USAGE_ERRORS,
    ids=[" ".join(map(os.path.basename, argv)) or "no arguments" for argv, _ in USAGE_ERRORS],
)
def test_usage_errors(argv, message):
    assert invoke(argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    (
        ["run", MESSAGE, "--max-depth=3"],
        ["run", MESSAGE, "--max-d", "3"],
        ["run", "--max-depth", "3", "--format", "json", MESSAGE],
        ["run", "--max-depth", "3", "--", MESSAGE],
        ["run", "-", "--max-depth", "3"],
    ),
    ids=lambda argv: " ".join(map(os.path.basename, argv)),
)
def test_accepted_argument_forms(argv):
    # each form reads --max-depth 3: the warning names the bound
    stdin = (PROGRAMS / "message.sccp").read_text() if "-" in argv else ""
    code, out, err = invoke(argv, stdin)
    assert (code, err) == (0, "warning: depth bound 3 reached before closure\n")
    assert out.startswith("{") == ("json" in argv)


def test_help_prints_the_readme_usage_block():
    # the block under "## Command line" in the README, fence to fence
    readme = (PROGRAMS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```\n", 2)[1]
    for argv in (
        ["--help"],
        ["-h"],
        ["search", "-h"],
        ["run", MESSAGE, "--he"],
        ["run", "-hh"],
        ["--x", "check", "-h"],
    ):
        assert invoke(argv) == (0, block, "")


# The solver backend flags are gone: the built-in solver decides every formula.
REMOVED_FLAG_ARGVS = (
    ["run", MESSAGE],
    ["search", MESSAGE, "--query", "inconsistent"],
    ["check", "-", "--entails", "X > 1", "X > 0"],
)


def assert_flag_is_unrecognized(flag, value):
    for argv in REMOVED_FLAG_ARGVS:
        assert invoke(argv + [flag, value]) == (1, "", f"error: unrecognized arguments: {flag} {value}\n")


def test_timeout_below_one_is_a_usage_error():
    assert_flag_is_unrecognized("--timeout", "5")


def test_depth_bound_zero_explores_the_initial_state_only():
    code, out, err = invoke(["run", MESSAGE, "--max-depth", "0"])
    assert code == 0
    assert out == "states: 1  terminal: 0\n"
    assert err == "warning: depth bound 0 reached before closure\n"


def test_search_json_output_validates():
    code, out, err = invoke(
        ["search", MESSAGE, "--query", "entails", "Z > 9", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, CLI_OUTPUT_SCHEMA)
    assert doc["command"] == "search"
    assert len(doc["solutions"]) == 8
    first = doc["solutions"][0]
    assert first["witnesses"][0]["aid"] == [1]
    assert first["witnesses"][0]["store"] == "Z:Integer >= 10"


def test_boolean_equality_is_decided_by_the_internal_solver():
    program = "var P, Q Bool\nbegin\nroot ; P .\nask P = Q -> tell(Q) .\nend\n"
    code, out, err = invoke(["run", "-"], stdin=program)
    assert (code, err) == (0, "")
    assert out == (
        "Terminal state 1:\n"
        "root: P:Boolean\n"
        "  * ask P:Boolean === Q:Boolean -> tell(Q:Boolean)\n"
        "states: 1  terminal: 1\n"
    )
    code, out, err = invoke(["run", "-"], stdin=program.replace("root ; P", "root ; P and Q"))
    assert (code, err) == (0, "")
    assert "root: P:Boolean and Q:Boolean\n" in out
    assert "ask" not in out


# ---------------------------------------------------------------------------
# check


def test_check_entailment_false_from_stdin():
    code, out, err = invoke(["check", "-", "--entails", "Y < X", "Y < 3"], stdin="")
    assert code == 0
    assert out.strip() == "false"


def test_check_entailment_true():
    code, out, err = invoke(["check", "-", "--entails", "Y < 5", "Y < 20"], stdin="")
    assert code == 0
    assert out.strip() == "true"


def test_check_uses_program_declarations():
    code, out, err = invoke(["check", SPACES, "--entails", "B0", "B0"])
    assert code == 0
    assert out.strip() == "true"


def test_check_infers_each_name_once_across_both_formulas():
    code, out, err = invoke(["check", "-", "--entails", "P", "P =/= Q"], stdin="")
    assert code == 1
    assert out == ""
    assert err == "C2:1:1: error: variable P is used both as Bool and Int\n"


def test_check_diagnostics_name_the_formula():
    code, out, err = invoke(["check", "-", "--entails", "X <", "X > 0"], stdin="")
    assert (code, out) == (1, "")
    assert err == "C1:1:4: error: expected an identifier or an integer on the right of a comparison\n"
    code, out, err = invoke(["check", "-", "--entails", "X > 1", "X >"], stdin="")
    assert (code, out) == (1, "")
    assert err.startswith("C2:1:4: error: ")


def test_check_json_output_validates():
    code, out, err = invoke(
        ["check", "-", "--entails", "Y < X", "Y < 3", "--format", "json"], stdin=""
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, CLI_OUTPUT_SCHEMA)
    assert doc == {
        "command": "check",
        "entails": False,
        "left": "Y:Integer < X:Integer",
        "right": "Y:Integer < 3",
    }


# ---------------------------------------------------------------------------
# exit codes and diagnostics


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.sccp"
    bad.write_text("var X Int\nbegin\nend\n")
    code, out, err = invoke(["run", str(bad)])
    assert code == 1
    assert "error" in err
    assert str(bad) in err and ":3:" in err


def test_validate_error_exit_code(tmp_path):
    bad = tmp_path / "unbound.sccp"
    bad.write_text("begin\nv(1) .\nend\n")
    code, out, err = invoke(["run", str(bad)])
    assert code == 1
    assert "v(1)" in err


def test_warning_does_not_block(tmp_path):
    program = tmp_path / "warn.sccp"
    program.write_text("begin\nask false -> r(1, v(1) || tell(false)) .\nend\n")
    code, out, err = invoke(["run", str(program)])
    assert code == 0
    assert "warning" in err


def test_missing_file_exit_code():
    code, out, err = invoke(["run", "/nonexistent/nowhere.sccp"])
    assert code == 1


# The grammar is ASCII: a superscript digit is no integer and a letter
# with a diacritic no identifier, though Python's isdigit and isalpha
# accept them.
NON_ASCII_PROGRAMS = [
    ("begin [ tell(true) ]_\u00b2 . end\n", "<stdin>:1:22: error: unexpected character '\u00b2'\n"),
    ("var \u00c4 Int\nbegin\ntell(true) .\nend\n", "<stdin>:1:5: error: unexpected character '\u00c4'\n"),
]


@pytest.mark.parametrize("text, diagnostic", NON_ASCII_PROGRAMS, ids=["superscript-two", "a-umlaut"])
def test_a_character_outside_the_ascii_grammar_is_a_diagnostic(text, diagnostic):
    code, out, err = invoke(["run", "-"], stdin=text)
    assert (code, out, err) == (1, "", diagnostic)


def test_query_formula_parse_error():
    code, out, err = invoke(["search", MESSAGE, "--query", "entails", "Z >"])
    assert (code, out) == (1, "")
    assert err == "Q:1:4: error: expected an identifier or an integer on the right of a comparison\n"


def _diseq_chain(m: int, extra: str = "") -> str:
    """X receives m disequalities one after another, each tell unblocking
    the ask that releases the next, beside an ask the store never entails."""
    chain = f"tell(X =/= {m - 1})"
    for c in reversed(range(m - 1)):
        chain = f"tell(X =/= {c}) || ask X =/= {c} -> {chain}"
    return f"var X Int\nbegin\n{chain} .\n{extra}ask X > 90 -> tell(X = 91) .\nend\n"


def test_search_decides_thirteen_disequalities():
    # 2^13 conjuncts once expanded into DNF, which the solver used to refuse
    argv = ["search", "-", "--query", "inconsistent"]
    code, out, err = invoke(argv, stdin=_diseq_chain(13))
    assert (code, err) == (0, "")
    assert "No solution." in out
    code, out, err = invoke(argv, stdin=_diseq_chain(13, "tell(X >= 0) || tell(X < 13) .\n"))
    assert (code, err) == (0, "")
    assert out.startswith("Solution 1 (state ")


def test_solver_inconclusive_exit_code():
    assert_flag_is_unrecognized("--solver", "internal")


def test_unknown_as_paper_policy():
    assert_flag_is_unrecognized("--unknown-as", "paper")


def test_env_var_backend_override(tmp_path, monkeypatch):
    stub = tmp_path / "sat.py"
    stub.write_text("import sys\nsys.stdin.read()\nprint('sat')\n")
    # were the stub run, it would answer sat to every formula, and check would print false
    monkeypatch.setenv("SCCPE_SOLVER", f"external:{sys.executable} {stub}")
    assert invoke(["check", "-", "--entails", "X > 1", "X > 0"]) == (0, "true\n", "")


# ---------------------------------------------------------------------------
# determinism and module entry point


def test_byte_identical_reruns():
    for argv in (
        ["run", MESSAGE],
        ["search", MESSAGE, "--query", "inconsistent"],
        ["search", MESSAGE, "--query", "entails", "Z > 9", "--format", "json"],
    ):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


# Every query on each program, with a formula that has solutions there.
QUERIES = {
    MESSAGE: [["inconsistent"], ["equiv"], ["entails", "Z > 9"]],
    SPACES: [["inconsistent"], ["equiv"], ["entails", "X >= 5"]],
}
JSON_LAYOUT_ARGVS = (
    [["run", path] for path in QUERIES]
    + [["check", "-", "--entails", "Y < X", "Y < 3"], ["check", "-", "--entails", "X > 1", "X > 0"]]
    + [
        ["search", path, "--query", *q, "--mode", mode, *cap]
        for path, queries in QUERIES.items()
        for q in queries
        for mode in ("any", "final")
        for cap in ([], ["--max-solutions", "1"])
    ]
)


@pytest.mark.parametrize(
    "argv", JSON_LAYOUT_ARGVS, ids=lambda argv: " ".join(map(os.path.basename, argv))
)
def test_json_output_is_the_stdlib_indented_layout(argv):
    """The JSON layout is json.dumps(doc, indent=2), byte for byte."""
    code, out, err = invoke(argv + ["--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _module_env() -> dict:
    """The environment of a `python -m sccpe.cli` child, which finds the
    package where this process found it, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sccpe.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sccpe.cli", "check", "-", "--entails", "Y < X", "Y < 3"],
        input="",
        capture_output=True,
        text=True,
        env=_module_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "false"


def test_a_closed_reader_ends_the_call_with_141_and_no_message():
    # as `| head -c 10` does: the reader takes 10 bytes of a 454 KB document
    # and closes the pipe while the writer is still writing
    from test_output_digests import KNOWLEDGE

    argv = [sys.executable, "-m", "sccpe.cli", "search", "-", "--query", "equiv", "--format", "json"]
    pipes = dict(stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with subprocess.Popen(argv, env=_module_env(), **pipes) as proc:
        proc.stdin.write(KNOWLEDGE.encode())
        proc.stdin.close()
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head == b'{\n  "comma'
    assert (code, err) == (cli.EXIT_PIPE, b"")
    assert cli.EXIT_PIPE == 141
