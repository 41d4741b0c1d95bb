"""Surface language: parser, validator, and elaboration to system states.

A program is a header of ``var`` declarations followed by a
``begin``/``end`` body of period-terminated lines, each either an agent
(``0 . 1 . root ; Y < 5``) or a process
(``[ tell(Z >= 10) || ask Y < 20 -> ... ]_1``).  Process forms: ``tell(c)``,
``ask c -> p``, ``p || p``, ``[p]_i`` (space), ``x(p)_i`` (extrusion),
``v(i)`` (process variable), ``r(i, p)`` (recursion).  Constraints are
``true``/``false``, a declared Boolean identifier, comparisons
``id op (id | int)`` with ``op`` one of ``> < = =/= >= <=``, and ``and``
chains.  Variable names are uppercase (``[A-Z][A-Z0-9]*``); a name cannot
be declared with two different types.  Line comments start with ``--``.

``parse`` raises :class:`ParseError` on syntax and declaration errors;
semantic issues (undeclared identifiers, unbound process variables,
process variables in another recursion's body, which unfolding never
replaces, and unguarded recursion) surface as diagnostics from
``validate``, in one walk of each process line.
``elaborate`` turns a valid program into the initial state: agent lines
become stores, process lines start at the root, and every referenced but
undeclared ancestor space gets an empty (``true``) store so the transition
rules always find their store object.

The operands of a chain of ``||`` form one parallel composition, and
``ask`` takes the longest possible body, so ``a || ask c -> b || d`` reads
``a || (ask c -> (b || d))``.  An integer literal has at most as many
digits as the interpreter converts (4,300 by default), and a process is
nested in at most ``MAX_NESTING`` bodies of ``ask``, ``[...]_i``,
``x(...)_i`` and ``r(i, ...)``, so that every recursive walk of a program
and of the states it reaches stays within the interpreter's recursion
limit.
"""

from __future__ import annotations

import sys

from .calculus import (
    PROC_KINDS,
    ROOT,
    AgentId,
    Ask,
    Extr,
    Par,
    ProcObj,
    ProcVar,
    Process,
    Rec,
    Space,
    StoreObj,
    SysState,
    Tell,
    canon_process,
    normalize,
)
from .formula import (
    FALSE,
    TRUE,
    BoolEq,
    BoolNeq,
    Cmp,
    Formula,
    IntLit,
    Record,
    Sort,
    Var,
    canonicalize,
    children,
    conjoin,
)
from .solver import Solver


class Diagnostic(Record):
    severity: str  # 'error' | 'warning'
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class AgentDecl(Record):
    location: tuple  # agent indices, innermost first; empty = root
    constraint: Formula
    line: int
    col: int


class ProcessLine(Record):
    process: Process
    line: int
    col: int


Line = AgentDecl | ProcessLine


class ProgramAst(Record):
    var_decls: tuple  # of (names tuple, Sort)
    lines: tuple  # of Line
    deferred: tuple  # parse-time semantic diagnostics

    @property
    def var_table(self) -> dict:
        table: dict[str, Sort] = {}
        for names, sort in self.var_decls:
            for n in names:
                table[n] = sort
        return table


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {
    "var",
    "begin",
    "end",
    "root",
    "tell",
    "ask",
    "true",
    "false",
    "r",
    "v",
    "x",
    "and",
    "Int",
    "Bool",
}

_SYMBOLS = ("=/=", ">=", "<=", "->", "||", ".", ",", ";", "(", ")", "[", "]", "_", ">", "<", "=")


class _Token(Record):
    kind: str  # 'id' | 'kw' | 'int' | 'sym' | 'eof'
    value: str
    line: int
    col: int


def _lex(text: str) -> list:
    """The tokens of text.  The grammar is ASCII: an integer is [0-9]+ and a
    word [A-Za-z][A-Za-z0-9]*, and any other character is unexpected."""
    tokens = []
    line, start, i = 1, 0, 0  # start: the index just past the last line feed
    n = len(text)

    def error(msg: str):
        raise ParseError([Diagnostic("error", line, col, msg)])

    while i < n:
        ch, col = text[i], i - start + 1
        if ch == "\n":
            i += 1
            line, start = line + 1, i
        elif ch in " \t\r":
            i += 1
        elif text.startswith("--", i):
            i = text.find("\n", i)
            if i < 0:
                i = n
        elif ch.isascii() and ch.isalpha():
            j = i
            while j < n and text[j].isascii() and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append(_Token("kw", word, line, col))
            elif word.isupper():
                tokens.append(_Token("id", word, line, col))
            else:
                error(f"unexpected word {word!r} (identifiers are uppercase, like X or B0)")
            i = j
        elif ch.isascii() and ch.isdigit():
            j = i
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            i = j
        else:
            for sym in _SYMBOLS:
                if text.startswith(sym, i):
                    tokens.append(_Token("sym", sym, line, col))
                    i += len(sym)
                    break
            else:
                error(f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", line, n - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


# The most bodies a process may be nested in.  A walk of a process takes a
# few frames per level (a `||` inside a body adds one), so a program at
# the limit leaves most of the interpreter's 1,000 frames to its caller.
MAX_NESTING = 100


class _Parser:
    def __init__(
        self,
        text: str,
        table: dict | None = None,
        lenient: bool = False,
        inferred: dict | None = None,
    ):
        self.tokens = _lex(text)
        self.pos = 0
        self.table: dict[str, Sort] = dict(table or {})
        self.inferred: dict[str, Sort] = {} if inferred is None else inferred
        self.deferred: list[Diagnostic] = []
        self.reported: set[str] = set()
        self.lenient = lenient  # CLI formulas: infer undeclared names silently
        self.nesting = 0  # the bodies around the process being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = value if value is not None else kind
            self.error(tok, f"expected {want!r}, found {tok.value or tok.kind!r}")
        return self.next()

    def integer(self) -> int:
        """Consume an integer literal, no longer than `int` converts."""
        tok = self.expect("int")
        try:
            return int(tok.value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            self.error(tok, f"integer literal too long: {len(tok.value)} digits, at most {limit}")

    def error(self, tok: _Token, msg: str):
        raise ParseError([Diagnostic("error", tok.line, tok.col, msg)])

    def defer(self, tok: _Token, severity: str, msg: str):
        self.deferred.append(Diagnostic(severity, tok.line, tok.col, msg))

    # -- header ------------------------------------------------------------

    def parse_program(self) -> ProgramAst:
        decls = []
        while self.at("kw", "var"):
            self.next()
            names = [self.expect("id").value]
            name_tok = self.tokens[self.pos - 1]
            first_toks = {names[0]: name_tok}
            while self.at("sym", ","):
                self.next()
                tok = self.expect("id")
                names.append(tok.value)
                first_toks[tok.value] = tok
            sort_tok = self.peek()
            if self.at("kw", "Int"):
                sort = Sort.INT
            elif self.at("kw", "Bool"):
                sort = Sort.BOOL
            else:
                self.error(sort_tok, "expected a type, Int or Bool")
            self.next()
            for name in names:
                seen = self.table.get(name)
                if seen is not None and seen is not sort:
                    tok = first_toks[name]
                    self.error(
                        tok,
                        f"variable {name} declared with conflicting sorts"
                        f" {seen.value} and {sort.value}",
                    )
                self.table[name] = sort
            decls.append((tuple(names), sort))
        self.expect("kw", "begin")
        lines = []
        while not self.at("kw", "end"):
            if self.at("eof"):
                self.error(self.peek(), "expected 'end'")
            lines.append(self.parse_line())
        end_tok = self.next()
        if not lines:
            self.error(end_tok, "the body requires at least one line between begin and end")
        self.expect("eof")
        return ProgramAst(tuple(decls), tuple(lines), tuple(self.deferred))

    # -- body lines ----------------------------------------------------------

    def parse_line(self) -> Line:
        tok = self.peek()
        if tok.kind == "int" or (tok.kind == "kw" and tok.value == "root"):
            location = []
            while self.at("int"):
                location.append(self.integer())
                self.expect("sym", ".")
            self.expect("kw", "root")
            self.expect("sym", ";")
            constraint = self.parse_constraint()
            self.expect("sym", ".")
            return AgentDecl(tuple(location), canonicalize(constraint), tok.line, tok.col)
        process = self.parse_process()
        self.expect("sym", ".")
        return ProcessLine(canon_process(process), tok.line, tok.col)

    # -- processes -----------------------------------------------------------

    def parse_process(self) -> Process:
        parts = [self.parse_process_prefix()]
        while self.at("sym", "||"):
            self.next()
            parts.append(self.parse_process_prefix())
        return Par(tuple(parts)) if len(parts) > 1 else parts[0]

    def parse_body(self, form: _Token) -> Process:
        """The process in the body of the form that `form` starts."""
        if self.nesting == MAX_NESTING:
            self.error(form, f"process nested too deeply: more than {MAX_NESTING} levels")
        self.nesting += 1
        body = self.parse_process()
        self.nesting -= 1
        return body

    def parse_process_prefix(self) -> Process:
        tok = self.peek()
        if self.at("kw", "tell"):
            self.next()
            self.expect("sym", "(")
            c = self.parse_constraint()
            self.expect("sym", ")")
            return Tell(c)
        if self.at("kw", "ask"):
            self.next()
            guard = self.parse_constraint()
            self.expect("sym", "->")
            return Ask(guard, self.parse_body(tok))
        if self.at("sym", "["):
            self.next()
            body = self.parse_body(tok)
            self.expect("sym", "]")
            self.expect("sym", "_")
            return Space(self.integer(), body)
        if self.at("kw", "x"):
            self.next()
            self.expect("sym", "(")
            body = self.parse_body(tok)
            self.expect("sym", ")")
            self.expect("sym", "_")
            return Extr(self.integer(), body)
        if self.at("kw", "v"):
            self.next()
            self.expect("sym", "(")
            index = self.integer()
            self.expect("sym", ")")
            return ProcVar(index)
        if self.at("kw", "r"):
            self.next()
            self.expect("sym", "(")
            index = self.integer()
            self.expect("sym", ",")
            body = self.parse_body(tok)
            self.expect("sym", ")")
            return Rec(index, body)
        self.error(tok, f"expected a process, found {tok.value or tok.kind!r}")

    # -- constraints -----------------------------------------------------------

    def parse_constraint(self) -> Formula:
        f = self.parse_constraint_atom()
        while self.at("kw", "and"):
            self.next()
            f = conjoin(f, self.parse_constraint_atom())
        return f

    def parse_constraint_atom(self) -> Formula:
        tok = self.peek()
        if self.at("kw", "true"):
            self.next()
            return TRUE
        if self.at("kw", "false"):
            self.next()
            return FALSE
        if self.at("id"):
            name_tok = self.next()
            op_tok = self.peek()
            if op_tok.kind == "sym" and op_tok.value in (">", "<", "=", "=/=", ">=", "<="):
                self.next()
                return self.parse_comparison(name_tok, op_tok)
            sort = self.resolve(name_tok, Sort.BOOL)
            if sort is Sort.INT:
                self.defer(
                    name_tok,
                    "error",
                    f"integer variable {name_tok.value} cannot stand alone as a constraint",
                )
                return TRUE
            return Var(name_tok.value, Sort.BOOL)
        self.error(tok, f"expected a constraint, found {tok.value or tok.kind!r}")

    def parse_comparison(self, left_tok: _Token, op_tok: _Token) -> Formula:
        op = {"=": "===", "=/=": "=/=="}.get(op_tok.value, op_tok.value)
        rhs_tok = self.peek()
        if self.at("int"):
            value = self.integer()
            left_sort = self.resolve(left_tok, Sort.INT)
            if left_sort is Sort.BOOL:
                self.defer(
                    left_tok,
                    "error",
                    f"Boolean variable {left_tok.value} cannot be compared with an integer",
                )
                return TRUE
            return Cmp(op, Var(left_tok.value, Sort.INT), IntLit(value))
        if self.at("id"):
            self.next()
            left_sort = self.resolve(left_tok, Sort.INT)
            right_sort = self.resolve(rhs_tok, left_sort)
            if left_sort is not right_sort:
                self.defer(
                    op_tok,
                    "error",
                    f"sort mismatch: {left_tok.value} is {left_sort.value}"
                    f" but {rhs_tok.value} is {right_sort.value}",
                )
                return TRUE
            if left_sort is Sort.BOOL:
                if op_tok.value not in ("=", "=/="):
                    self.defer(
                        op_tok,
                        "error",
                        f"operator {op_tok.value} needs integer operands",
                    )
                    return TRUE
                cls = BoolEq if op == "===" else BoolNeq
                return cls(Var(left_tok.value, Sort.BOOL), Var(rhs_tok.value, Sort.BOOL))
            return Cmp(op, Var(left_tok.value, Sort.INT), Var(rhs_tok.value, Sort.INT))
        self.error(rhs_tok, "expected an identifier or an integer on the right of a comparison")

    def resolve(self, tok: _Token, inferred: Sort) -> Sort:
        """Sort of an identifier: declared, previously inferred, or `inferred`."""
        name = tok.value
        declared = self.table.get(name)
        if declared is not None:
            return declared
        seen = self.inferred.get(name)
        if seen is not None:
            if seen is not inferred and name not in self.reported:
                self.reported.add(name)
                self.defer(
                    tok,
                    "error",
                    f"variable {name} is used both as {seen.value} and {inferred.value}",
                )
            return seen
        self.inferred[name] = inferred
        if not self.lenient and name not in self.reported:
            self.reported.add(name)
            self.defer(tok, "error", f"undeclared variable {name}")
        return inferred


def parse(text: str) -> ProgramAst:
    """Parse a program; raises ParseError on syntax or declaration errors.
    Semantic issues are deferred to ``validate``."""
    return _Parser(text).parse_program()


def parse_constraint_text(
    text: str, table: dict | None = None, inferred: dict | None = None
) -> Formula:
    """Parse a standalone constraint in the surface syntax.

    Identifier sorts come from `table` when given; undeclared names are
    inferred from use (comparison operands are Int, bare names Bool).
    The inferred sorts are recorded in `inferred` when given, so formulas
    parsed with the same dict must use each undeclared name with one sort.
    """
    parser = _Parser(text, table=table, lenient=True, inferred=inferred)
    f = parser.parse_constraint()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(tok, f"trailing input {tok.value!r}")
    errors = [d for d in parser.deferred if d.severity == "error"]
    if errors:
        raise ParseError(errors)
    return canonicalize(f)


# ---------------------------------------------------------------------------
# Validation


# How the path from a recursion r(i, ...) reaches a node below it, worst
# first: through no ask, through an ask whose guard `true` entails (which
# guards nothing), or through an ask with a real guard.
_BARE, _TRUE_ASK, _GUARDED = range(3)

_UNBOUND = "process variable v({0}) is not bound by an enclosing r({0}, ...)"
_HIDDEN = (
    "process variable v({0}) inside r({1}, ...) is never replaced:"
    " unfolding r({0}, ...) does not substitute into another recursion's body"
)
# The warning for a recursion whose variable is reached in each unguarded way.
_UNGUARDED = {
    _BARE: "recursion r({0}, ...): v({0}) is not guarded by an ask",
    _TRUE_ASK: "recursion r({0}, ...): an ask guards v({0}), but its guard always holds,"
    " so v({0}) may unfold without bound",
}


def validate(ast: ProgramAst) -> list:
    """Semantic diagnostics: undeclared identifiers and unbound process
    variables are errors; a process variable inside another recursion's
    body, which unfolding never replaces, and unguarded recursion variables
    are warnings.  Each process line is walked once, and gives its scope
    diagnostics in preorder, then its recursion warnings in the preorder
    of its recursions.  An ask guards a recursion variable unless one
    solver for the whole call finds its guard valid."""
    diags = list(ast.deferred)
    solver = Solver()
    for line in ast.lines:
        if isinstance(line, ProcessLine):
            found: list = []
            recs: list = []
            _walk(line.process, {}, recs, found, solver)
            found += [("warning", _UNGUARDED[w].format(i)) for i, w in recs if w != _GUARDED]
            diags.extend(Diagnostic(severity, line.line, line.col, m) for severity, m in found)
    return diags


def _walk(p: Process, scope: dict, recs: list, found: list, solver: Solver) -> None:
    """Add to `found` the (severity, message) of each process variable at
    or below p that no recursion replaces, in preorder, and record in
    `recs` how the worst path reaches each recursion's variable.  `scope`
    maps each process variable bound above p to (the [var, worst way] entry
    of its recursion in `recs`, how the path from that recursion reaches
    p), or, once the body of a nested r(j, ...) hides it from its own
    recursion's unfolding, to (None, j).  `solver` decides whether `true`
    entails an ask's guard, only where a recursion variable is in scope."""
    if type(p) is ProcVar:
        rec, how = scope.get(p.var, (None, None))
        if rec is not None:
            rec[1] = min(rec[1], how)
        elif how is None:
            found.append(("error", _UNBOUND.format(p.var)))
        else:
            found.append(("warning", _HIDDEN.format(p.var, how)))
        return
    if type(p) is Rec:
        rec = [p.var, _GUARDED]
        recs.append(rec)
        scope = {i: (None, p.var if r else how) for i, (r, how) in scope.items()}
        scope[p.var] = (rec, _BARE)
    elif type(p) is Ask and scope:
        way = _TRUE_ASK if solver.entails(TRUE, p.guard) else _GUARDED
        scope = {i: (r, max(how, way) if r else how) for i, (r, how) in scope.items()}
    for q in children(p):
        if type(q) in PROC_KINDS:
            _walk(q, scope, recs, found, solver)


# ---------------------------------------------------------------------------
# Elaboration


def elaborate(ast: ProgramAst) -> SysState:
    """Initial system state of a validated program.

    Agent lines become store objects, process lines become root processes,
    and ancestor spaces referenced but not declared (the root included)
    get `true` stores.
    """
    objects = []
    declared = set()
    for line in ast.lines:
        if isinstance(line, AgentDecl):
            aid = AgentId(line.location)
            declared.add(aid)
            objects.append(StoreObj(aid, line.constraint))
        else:
            objects.append(ProcObj(ROOT, line.process))
    needed = {ROOT} | {AgentId(aid[i:]) for aid in declared for i in range(1, len(aid))}
    for aid in needed - declared:
        objects.append(StoreObj(aid, TRUE))
    return normalize(SysState(tuple(objects)))
