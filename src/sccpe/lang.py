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
unguarded recursion) surface as diagnostics from ``validate``.
``elaborate`` turns a valid program into the initial state: agent lines
become stores, process lines start at the root, and every referenced but
undeclared ancestor space gets an empty (``true``) store so the transition
rules always find their store object.

``||`` associates to the right and ``ask`` takes the longest possible
body, so ``a || ask c -> b || d`` reads ``a || (ask c -> (b || d))``.
"""

from __future__ import annotations

from typing import Optional, Union

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
    line: int = 0
    col: int = 0
    _uncompared = ("line", "col")


class ProcessLine(Record):
    process: Process
    line: int = 0
    col: int = 0
    _uncompared = ("line", "col")


Line = Union[AgentDecl, ProcessLine]


class ProgramAst(Record):
    var_decls: tuple  # of (names tuple, Sort)
    lines: tuple  # of Line
    deferred: tuple = ()  # parse-time semantic diagnostics
    _uncompared = ("deferred",)

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
    line, col, i = 1, 1, 0
    n = len(text)

    def error(msg: str):
        raise ParseError([Diagnostic("error", line, col, msg)])

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isascii() and ch.isalpha():
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
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isdigit():
            j = i
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            error(f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(
        self,
        text: str,
        table: Optional[dict] = None,
        lenient: bool = False,
        inferred: Optional[dict] = None,
    ):
        self.tokens = _lex(text)
        self.pos = 0
        self.table: dict[str, Sort] = dict(table or {})
        self.inferred: dict[str, Sort] = {} if inferred is None else inferred
        self.deferred: list[Diagnostic] = []
        self.reported: set[str] = set()
        self.lenient = lenient  # CLI formulas: infer undeclared names silently

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value: Optional[str] = None) -> _Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = value if value is not None else kind
            self.error(tok, f"expected {want!r}, found {tok.value or tok.kind!r}")
        return self.next()

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
                location.append(int(self.next().value))
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
        left = self.parse_process_prefix()
        if self.at("sym", "||"):
            self.next()
            right = self.parse_process()
            rest = right.args if isinstance(right, Par) else (right,)
            return Par((left,) + rest)
        return left

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
            return Ask(guard, self.parse_process())
        if self.at("sym", "["):
            self.next()
            body = self.parse_process()
            self.expect("sym", "]")
            self.expect("sym", "_")
            index = int(self.expect("int").value)
            return Space(index, body)
        if self.at("kw", "x"):
            self.next()
            self.expect("sym", "(")
            body = self.parse_process()
            self.expect("sym", ")")
            self.expect("sym", "_")
            index = int(self.expect("int").value)
            return Extr(index, body)
        if self.at("kw", "v"):
            self.next()
            self.expect("sym", "(")
            index = int(self.expect("int").value)
            self.expect("sym", ")")
            return ProcVar(index)
        if self.at("kw", "r"):
            self.next()
            self.expect("sym", "(")
            index = int(self.expect("int").value)
            self.expect("sym", ",")
            body = self.parse_process()
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
            self.next()
            left_sort = self.resolve(left_tok, Sort.INT)
            if left_sort is Sort.BOOL:
                self.defer(
                    left_tok,
                    "error",
                    f"Boolean variable {left_tok.value} cannot be compared with an integer",
                )
                return TRUE
            return Cmp(op, Var(left_tok.value, Sort.INT), IntLit(int(rhs_tok.value)))
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
    text: str, table: Optional[dict] = None, inferred: Optional[dict] = None
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


def validate(ast: ProgramAst) -> list:
    """Semantic diagnostics: undeclared identifiers and unbound process
    variables are errors; unguarded recursion variables are warnings."""
    diags = list(ast.deferred)
    for line in ast.lines:
        if isinstance(line, ProcessLine):
            _check_scopes(line.process, frozenset(), line, diags)
            _check_recursion(line.process, line, diags)
    return diags


def _subprocesses(p: Process) -> list:
    """The processes directly inside p, in field order."""
    return [c for c in children(p) if type(c) in PROC_KINDS]


def _check_scopes(p: Process, bound: frozenset, line: ProcessLine, diags: list) -> None:
    if isinstance(p, ProcVar) and p.var not in bound:
        diags.append(
            Diagnostic(
                "error",
                line.line,
                line.col,
                f"process variable v({p.var}) is not bound by an enclosing r({p.var}, ...)",
            )
        )
    if isinstance(p, Rec):
        bound = bound | {p.var}
    for q in _subprocesses(p):
        _check_scopes(q, bound, line, diags)


def _check_recursion(p: Process, line: ProcessLine, diags: list) -> None:
    """Warn for each recursion whose variable has an occurrence that no
    non-trivial ask guards (an ask with guard `true` guards nothing)."""
    if isinstance(p, Rec):
        offending = _unguarded_occurrence(p.body, p.var, False)
        if offending == "true-ask":
            diags.append(
                Diagnostic(
                    "warning",
                    line.line,
                    line.col,
                    f"recursion r({p.var}, ...): ask(true) -> P is unguarded,"
                    f" v({p.var}) may unfold without bound",
                )
            )
        elif offending == "bare":
            diags.append(
                Diagnostic(
                    "warning",
                    line.line,
                    line.col,
                    f"recursion r({p.var}, ...): v({p.var}) is not guarded by an ask",
                )
            )
    for q in _subprocesses(p):
        _check_recursion(q, line, diags)


def _unguarded_occurrence(p: Process, var: int, saw_true_ask: bool):
    """Worst unguarded occurrence of v(var): 'bare', 'true-ask', or None."""
    if isinstance(p, ProcVar):
        if p.var == var:
            return "true-ask" if saw_true_ask else "bare"
        return None
    if isinstance(p, Ask):
        if canonicalize(p.guard) != TRUE:
            return None  # a real guard bounds every occurrence below it
        saw_true_ask = True
    if isinstance(p, Rec) and p.var == var:
        return None  # rebound inside
    worst = None
    for q in _subprocesses(p):
        got = _unguarded_occurrence(q, var, saw_true_ask)
        if got == "bare":
            return "bare"
        worst = worst or got
    return worst


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
    needed = {ROOT}
    for aid in declared:
        ancestor = aid.parent if not aid.is_root else aid
        while not ancestor.is_root:
            needed.add(ancestor)
            ancestor = ancestor.parent
    for aid in needed - declared:
        objects.append(StoreObj(aid, TRUE))
    return normalize(SysState(tuple(objects)))
