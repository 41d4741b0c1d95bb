import random
import sys

import pytest

from builders import boolvar, eq_, ge, gt, intvar, lt, ne_, store_map
from program_printer import print_program, unplaced
from systems import AID0, AID01, AID1
from sccpe import (
    ROOT,
    TRUE,
    AgentId,
    Ask,
    Diagnostic,
    Extr,
    Par,
    ParseError,
    ProcObj,
    ProcVar,
    Rec,
    Solver,
    Space,
    Tell,
    elaborate,
    format_formula,
    parse,
    run,
    validate,
)
from sccpe.lang import MAX_NESTING, AgentDecl, ProcessLine, _lex, parse_constraint_text
from sccpe.formula import And, BoolNeq, Sort

W, X, Y, Z = (intvar(n) for n in "WXYZ")


# ---------------------------------------------------------------------------
# parsing the two reference programs


def test_parse_message_program(message_text):
    ast = parse(message_text)
    agents = [l for l in ast.lines if isinstance(l, AgentDecl)]
    processes = [l for l in ast.lines if isinstance(l, ProcessLine)]
    assert len(agents) == 4
    assert len(processes) == 1
    assert ast.var_table == {n: Sort.INT for n in "WXYZ"}
    assert agents[0].location == ()
    assert agents[1] == AgentDecl((0,), eq_(X, 25), 7, 1)
    assert agents[3] == AgentDecl((0, 1), lt(Y, 5), 9, 1)
    p = processes[0].process
    assert isinstance(p, Space) and p.agent == 0
    assert isinstance(p.body, Extr) and p.body.agent == 0
    inner = p.body.body
    assert isinstance(inner, Space) and inner.agent == 1
    assert isinstance(inner.body, Par)


def test_parse_spaces_program(spaces_text):
    ast = parse(spaces_text)
    assert len(ast.lines) == 6
    assert all(isinstance(l, ProcessLine) for l in ast.lines)
    assert ast.var_table["B0"] is Sort.BOOL
    assert ast.var_table["C"] is Sort.INT
    last = ast.lines[-1].process
    assert isinstance(last, Space)
    assert isinstance(last.body, Ask)
    assert isinstance(last.body.then, Rec)


def test_parse_empty_body_rejected():
    with pytest.raises(ParseError) as exc:
        parse("var X Int\nbegin\nend\n")
    assert "at least one line" in str(exc.value)


def test_parse_conflicting_sorts_rejected():
    with pytest.raises(ParseError) as exc:
        parse("var X Int\nvar X Bool\nbegin\ntell(X > 0) .\nend\n")
    assert "conflicting sorts" in str(exc.value)


def test_parse_missing_terminator():
    with pytest.raises(ParseError):
        parse("begin\ntell(true)\nend\n")


def test_parse_unknown_word():
    with pytest.raises(ParseError) as exc:
        parse("begin\ntelll(true) .\nend\n")
    assert "uppercase" in str(exc.value) or "expected" in str(exc.value)


@pytest.mark.parametrize(
    "text, where",
    [
        ("begin [ tell(true) ]_\u00b2 . end\n", (1, 22)),  # a superscript two is no digit
        ("var \u00c4 Int\nbegin\ntell(true) .\nend\n", (1, 5)),  # nor an A-umlaut a letter
        ("var X Int\nbegin\ntell(X > \u0661) .\nend\n", (3, 10)),  # an Arabic-Indic one
        ("var X\u00b2 Int\nbegin\ntell(true) .\nend\n", (1, 6)),  # a name ends before it
    ],
    ids=["superscript-two", "a-umlaut", "arabic-indic-one", "superscript-in-a-name"],
)
def test_the_lexer_reads_only_the_ascii_grammar(text, where):
    with pytest.raises(ParseError) as exc:
        parse(text)
    (diag,) = exc.value.diagnostics
    assert (diag.line, diag.col) == where
    assert diag.message.startswith("unexpected character")


def test_parse_comments_and_crlf():
    text = "-- header comment\r\nvar X Int\r\nbegin\r\ntell(X > 0) . -- trailing\r\nend\r\n"
    ast = parse(text)
    assert ast.lines == (ProcessLine(Tell(gt(X, 0)), 4, 1),)


@pytest.mark.parametrize(
    "text, where", [("begin tell(true) . -- note", (1, 27)), ("var X Int -- c", (1, 15))]
)
def test_end_of_input_is_past_a_trailing_comment(text, where):
    at = text.index("--")
    for t in (text, text[:at] + " " * (len(text) - at)):  # as far as the same number of blanks
        with pytest.raises(ParseError) as exc:
            parse(t)
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.col) == where


# Where the lexer puts each token, as (kind, value, line, column), or the
# error it stops at, as (line, column): a tab and a carriage return take one
# column each, a line feed starts the next line, and a comment, whatever it
# holds, runs to one or to the end of input.
LEXED = [
    ("", [("eof", "", 1, 1)]),
    ("\n\n   ", [("eof", "", 3, 4)]),
    ("\tX\t>= 12\n", [("id", "X", 1, 2), ("sym", ">=", 1, 4), ("int", "12", 1, 7), ("eof", "", 2, 1)]),
    ("X\r\n =/= Y\r\n", [("id", "X", 1, 1), ("sym", "=/=", 2, 2), ("id", "Y", 2, 6), ("eof", "", 3, 1)]),
    ("X -- note", [("id", "X", 1, 1), ("eof", "", 1, 10)]),
    ("X --c\n", [("id", "X", 1, 1), ("eof", "", 2, 1)]),
    (
        "AB12 345 ->||",
        [("id", "AB12", 1, 1), ("int", "345", 1, 6), ("sym", "->", 1, 10), ("sym", "||", 1, 12), ("eof", "", 1, 14)],
    ),
    ("X\r@", (1, 3)),
    ("-- ä ?\n  ä", (2, 3)),
    ("X -- c ?\r\n\tY ?", (2, 4)),
    ("begin\ttell(y)", (1, 12)),
    ("tell(X) -- ok\n\t\tX ~", (2, 5)),
]


@pytest.mark.parametrize("text, where", LEXED)
def test_the_lexer_columns(text, where):
    try:
        tokens = [(t.kind, t.value, t.line, t.col) for t in _lex(text)]
    except ParseError as exc:
        (diag,) = exc.diagnostics
        tokens = (diag.line, diag.col)
    assert tokens == where


def test_parse_root_alone_location():
    ast = parse("begin\nroot ; true .\ntell(true) .\nend\n")
    assert ast.lines[0] == AgentDecl((), TRUE, 2, 1)


def test_parallel_is_right_associative_and_flattened():
    ast = parse("begin\ntell(true) || tell(false) || v(1) .\nend\n")
    (line,) = ast.lines
    p = line.process
    assert isinstance(p, Par)
    assert len(p.args) == 3


def wide_parallel(n: int) -> str:
    """A program whose one line puts n tells in parallel."""
    tells = " || ".join(f"tell(X > {i})" for i in range(n))
    return f"var X Int\nbegin\n{tells} .\nend\n"


# The process forms with a body, each as the text before and after it; an
# ask's body is a || of a tell and the next form, so that a walk of the
# term meets a `Par` at every level, and no ask is ever entailed.
NESTING_FORMS = {
    "ask": ("tell(X > 0) || ask X > 5 -> ", ""),
    "space": ("[ ", " ]_0"),
    "extrusion": ("x( ", " )_0"),
    "recursion": ("r(1, ", ")"),
}


def nested(kinds, n: int) -> str:
    """A program whose one line nests n bodies, of the forms in `kinds` in turn."""
    forms = [NESTING_FORMS[kinds[i % len(kinds)]] for i in range(n)]
    body = "".join(o for o, _ in forms) + "tell(X > 0)" + "".join(c for _, c in reversed(forms))
    return f"var X Int\nbegin\n{body} .\nend\n"


@pytest.mark.parametrize("kinds", [(k,) for k in NESTING_FORMS] + [tuple(NESTING_FORMS)], ids="-".join)
def test_nesting_is_limited_and_reported_at_the_form_past_the_limit(kinds):
    ast = parse(nested(kinds, MAX_NESTING))
    assert validate(ast) == []
    depth, p = 0, ast.lines[0].process
    while not isinstance(p, Tell):
        if isinstance(p, Par):
            (p,) = [a for a in p.args if not isinstance(a, Tell)]
        depth += 1
        p = p.then if isinstance(p, Ask) else p.body
    assert depth == MAX_NESTING
    with pytest.raises(ParseError) as info:
        parse(nested(kinds, MAX_NESTING + 1))
    # at the form past the limit: its `ask`, `[`, `x` or `r`
    kind = kinds[MAX_NESTING % len(kinds)]
    before = "".join(NESTING_FORMS[kinds[i % len(kinds)]][0] for i in range(MAX_NESTING))
    col = len(before) + max(NESTING_FORMS[kind][0].find("ask"), 0) + 1
    message = f"process nested too deeply: more than {MAX_NESTING} levels"
    assert info.value.diagnostics == (Diagnostic("error", 3, col, message),)


def test_a_wide_parallel_composition_parses_and_elaborates():
    # the operands of a || chain are collected in a loop, with no call per ||
    ast = parse(wide_parallel(2000))
    (line,) = ast.lines
    assert isinstance(line.process, Par) and len(line.process.args) == 2000
    (proc,) = [o for o in elaborate(ast).objects if isinstance(o, ProcObj)]
    assert proc.program == line.process


LONG = "9" * 5000


@pytest.mark.parametrize(
    "text, where",
    [
        (f"var X Int\nbegin\ntell(X > {LONG}) .\nend\n", (3, 10)),
        (f"begin\n{LONG} . root ; true .\ntell(true) .\nend\n", (2, 1)),
        (f"begin\n[tell(true)]_{LONG} .\nend\n", (2, 14)),
        (f"begin\nx(tell(true))_{LONG} .\nend\n", (2, 15)),
        (f"begin\nr({LONG}, ask true -> v(1)) .\nend\n", (2, 3)),
        (f"begin\nr(1, ask true -> v({LONG})) .\nend\n", (2, 20)),
    ],
    ids=["comparison", "agent", "space", "extrusion", "recursion", "process-variable"],
)
def test_an_overlong_integer_literal_is_a_syntax_error_at_the_literal(text, where):
    with pytest.raises(ParseError) as exc:
        parse(text)
    (diag,) = exc.value.diagnostics
    assert (diag.severity, diag.line, diag.col) == ("error", *where)
    limit = sys.get_int_max_str_digits()
    assert diag.message == f"integer literal too long: 5000 digits, at most {limit}"


def test_the_longest_integer_literal_parses_and_prints():
    digits = "9" * sys.get_int_max_str_digits()
    f = parse_constraint_text(f"X > {digits}")
    assert f == gt(X, int(digits))
    assert format_formula(f) == f"X:Integer > {digits}"


def test_ask_takes_maximal_body():
    ast = parse("var X Int\nbegin\nask X > 1 -> tell(true) || tell(false) .\nend\n")
    (line,) = ast.lines
    p = line.process
    assert isinstance(p, Ask)
    assert isinstance(p.then, Par)


def test_trailing_ask_in_parallel():
    ast = parse("var X Int\nbegin\ntell(true) || ask X > 1 -> tell(false) .\nend\n")
    (line,) = ast.lines
    p = line.process
    assert isinstance(p, Par)
    assert sum(isinstance(a, Ask) for a in p.args) == 1


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_programs(message_text, spaces_text):
    assert validate(parse(message_text)) == []
    diags = validate(parse(spaces_text))
    assert [d.severity for d in diags] == ["warning"]


def test_validate_unbound_process_variable():
    ast = parse("begin\nv(1) .\nend\n")
    diags = validate(ast)
    assert any(d.severity == "error" and "v(1)" in d.message for d in diags)


def test_validate_unguarded_recursion_warning():
    ast = parse("begin\nr(1, v(1) || tell(false)) .\nend\n")
    diags = validate(ast)
    assert any(d.severity == "warning" and "not guarded" in d.message for d in diags)


def test_validate_true_ask_does_not_guard():
    ast = parse("begin\nr(1, ask true -> v(1)) .\nend\n")
    diags = validate(ast)
    assert any(d.severity == "warning" and "its guard always holds" in d.message for d in diags)


def test_validate_a_valid_guard_does_not_guard():
    # `X = X` holds in every store, so the ask fires at once and the
    # recursion loops, as under `ask true`; validation says so alike
    ast = parse("var X Int\nbegin r(1, ask X = X -> v(1)) . end\n")
    diags = validate(ast)
    assert [(d.severity, d.line, d.col) for d in diags] == [("warning", 2, 7)]
    assert diags == validate(parse("var X Int\nbegin r(1, ask true -> v(1)) . end\n"))
    result = run(elaborate(ast), Solver())
    assert result.terminal_states == () and result.states_explored == 2


def test_validate_real_guard_silences_warning():
    ast = parse("var X Int\nbegin\nr(1, ask X > 1 -> v(1)) .\nend\n")
    assert validate(ast) == []


def never_replaced(i: int, j: int) -> str:
    return (
        f"process variable v({i}) inside r({j}, ...) is never replaced:"
        f" unfolding r({i}, ...) does not substitute into another recursion's body"
    )


@pytest.mark.parametrize("inner", ["ask X > 0 -> v(1)", "v(1)"])
def test_validate_warns_of_a_variable_under_a_nested_recursion(inner):
    # unfolding r(1, ...) does not enter r(2, ...), so the v(1) there is
    # never replaced: the run ends on it, and it does not make r(1, ...) loop
    text = f"var X Int\nbegin r(1, tell(X > 0) || r(2, {inner})) . end\n"
    ast = parse(text)
    assert validate(ast) == [Diagnostic("warning", 2, 7, never_replaced(1, 2))]
    (terminal,) = run(elaborate(ast), Solver()).terminal_states
    assert ProcObj(ROOT, ProcVar(1)) in terminal.objects


def test_validate_an_inner_recursion_on_the_same_variable_rebinds_it():
    # the inner r(1, ...) binds v(1) afresh: no never-replaced warning, and
    # its own guardedness decides
    ast = parse("var X Int\nbegin r(1, r(1, v(1))) . end\n")
    assert validate(ast) == [
        Diagnostic("warning", 2, 7, "recursion r(1, ...): v(1) is not guarded by an ask")
    ]
    assert validate(parse("var X Int\nbegin r(1, r(1, ask X > 0 -> v(1))) . end\n")) == []


def test_validate_orders_scope_diagnostics_before_recursion_warnings():
    # per line: the scope diagnostics in preorder of the canonical process,
    # then the recursion warnings in preorder of the r's
    text = (
        "var X Int\nbegin\n"
        "r(1, v(1) || r(2, v(1) || ask true -> v(2)) || v(3)) .\n"
        "r(3, r(4, ask X > 0 -> v(3)) || v(3)) .\n"
        "end\n"
    )
    assert validate(parse(text)) == [
        Diagnostic("warning", 3, 1, never_replaced(1, 2)),
        Diagnostic("error", 3, 1, "process variable v(3) is not bound by an enclosing r(3, ...)"),
        Diagnostic("warning", 3, 1, "recursion r(1, ...): v(1) is not guarded by an ask"),
        Diagnostic(
            "warning",
            3,
            1,
            "recursion r(2, ...): an ask guards v(2), but its guard always holds,"
            " so v(2) may unfold without bound",
        ),
        Diagnostic("warning", 4, 1, never_replaced(3, 4)),
        Diagnostic("warning", 4, 1, "recursion r(3, ...): v(3) is not guarded by an ask"),
    ]


def test_validate_undeclared_identifier():
    ast = parse("begin\ntell(X > 0) .\nend\n")
    diags = validate(ast)
    assert any(d.severity == "error" and "undeclared" in d.message for d in diags)


def test_validate_bare_int_identifier():
    ast = parse("var X Int\nbegin\ntell(X) .\nend\n")
    diags = validate(ast)
    assert any(d.severity == "error" and "stand alone" in d.message for d in diags)


def test_validate_sort_misuse_in_comparison():
    ast = parse("var P Bool\nbegin\ntell(P > 1) .\nend\n")
    assert any(d.severity == "error" for d in validate(ast))


def test_bool_equality_atoms_parse():
    ast = parse("var P, Q Bool\nbegin\ntell(P =/= Q) .\nend\n")
    assert validate(ast) == []
    (line,) = ast.lines
    assert line.process == Tell(BoolNeq(boolvar("P"), boolvar("Q")))


# ---------------------------------------------------------------------------
# elaborate


def test_elaborate_message_program_matches_reference_state(message_text):
    state = elaborate(parse(message_text))
    stores = store_map(state)
    assert stores == {ROOT: TRUE, AID0: eq_(X, 25), AID1: TRUE, AID01: lt(Y, 5)}
    procs = [o for o in state.objects if isinstance(o, ProcObj)]
    assert len(procs) == 1
    assert procs[0].aid == ROOT


def test_elaborate_adds_implicit_root_store():
    state = elaborate(parse("begin\ntell(true) .\nend\n"))
    assert store_map(state) == {ROOT: TRUE}


def test_elaborate_adds_undeclared_ancestors():
    state = elaborate(parse("var Y Int\nbegin\n0 . 1 . root ; Y < 5 .\ntell(true) .\nend\n"))
    assert store_map(state) == {ROOT: TRUE, AID1: TRUE, AID01: lt(Y, 5)}


def test_elaborate_merges_duplicate_agent_declarations():
    state = elaborate(
        parse("var X Int\nbegin\n0 . root ; X > 1 .\n0 . root ; X < 5 .\ntell(true) .\nend\n")
    )
    assert store_map(state)[AID0] == And((lt(X, 5), gt(X, 1)))


def test_multidigit_agent_indices():
    ast = parse("begin\n[tell(true)]_12 .\n10 . root ; true .\nend\n")
    assert ast.lines[0].process == Space(12, Tell(TRUE))
    assert ast.lines[1] == AgentDecl((10,), TRUE, 3, 1)


def test_elaborate_line_permutation_invariant(message_text):
    ast = parse(message_text)
    reference = elaborate(ast)
    rng = random.Random(3)
    lines = list(ast.lines)
    for _ in range(10):
        rng.shuffle(lines)
        shuffled = type(ast)(ast.var_decls, tuple(lines), ast.deferred)
        assert elaborate(shuffled) == reference


def test_elaborate_spaces_program_runs_to_reference_state(spaces_text, solver):
    state = elaborate(parse(spaces_text))
    result = run(state, solver, max_steps=64)
    assert not result.truncated
    assert len(result.terminal_states) == 1
    terminal = result.terminal_states[0]
    stores = store_map(terminal)
    B0, B1, C = boolvar("B0"), boolvar("B1"), intvar("C")
    assert solver.entails(stores[ROOT], And((ge(X, 5), B1)))
    assert solver.entails(And((ge(X, 5), B1)), stores[ROOT])
    assert stores[AID1] == lt(Y, X)
    assert stores[AgentId((2,))] == ge(X, 5)
    assert solver.entails(stores[AgentId((1, 1))], And((ne_(C, 5), B0)))
    blocked = [o for o in terminal.objects if isinstance(o, ProcObj)]
    assert len(blocked) == 1
    assert isinstance(blocked[0].program, Ask)
    assert blocked[0].aid == AID1


# ---------------------------------------------------------------------------
# print / parse round-trip


def test_print_parse_round_trip_reference(message_text, spaces_text):
    for text in (message_text, spaces_text):
        ast = parse(text)
        assert unplaced(parse(print_program(ast))) == unplaced(ast)


def test_print_parse_round_trip_handmade():
    text = (
        "var A, B2 Int\nvar P Bool\nbegin\n"
        "root ; true .\n"
        "2 . root ; A = 3 and B2 =/= 4 and P .\n"
        "[ask A < 2 -> x(tell(P))_1 ]_1 || tell(B2 >= 0) .\n"
        "r(2, ask A > 1 -> v(2)) .\n"
        "end\n"
    )
    ast = parse(text)
    assert unplaced(parse(print_program(ast))) == unplaced(ast)


def test_print_program_rejects_double_ask_parallel():
    ast = parse("var X Int\nbegin\ntell(true) .\nend\n")
    bad = ProcessLine(Par((Ask(TRUE, Tell(TRUE)), Ask(gt(X, 1), Tell(TRUE)))), 3, 1)
    broken = type(ast)(ast.var_decls, (bad,), ())
    with pytest.raises(ValueError):
        print_program(broken)


# ---------------------------------------------------------------------------
# standalone constraint parsing (CLI surface)


def test_parse_constraint_text_with_table():
    table = {"Z": Sort.INT}
    assert parse_constraint_text("Z > 9", table) == gt(Z, 9)


def test_parse_constraint_text_infers_sorts():
    f = parse_constraint_text("Y < U")
    assert f == (lt(Y, intvar("U")))
    assert parse_constraint_text("P") == boolvar("P")


def test_parse_constraint_text_rejects_mixed_sorts():
    with pytest.raises(ParseError):
        parse_constraint_text("P and P > 1")


def test_parse_constraint_text_rejects_syntax_errors():
    with pytest.raises(ParseError):
        parse_constraint_text("Z > ")
