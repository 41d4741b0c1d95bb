"""Reader for the printed constraint syntax, the round-trip oracle of
`sccpe.formula.format_formula`.

Nothing in the analyzer reads this syntax: the command line reads the
surface language and machine readers get the JSON terms.  The reader
keeps its own precedence table, so a printer that drops a needed
parenthesis fails the round trip.
"""

from __future__ import annotations

import re

from sccpe.formula import (
    FALSE,
    TRUE,
    And,
    BoolEq,
    BoolNeq,
    Cmp,
    Formula,
    IntExpr,
    IntLit,
    Sort,
    Var,
)

# Binding powers, loosest first.
_B_AND, _B_EQ, _B_CMP = 1, 2, 3

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<int>\d+)"
    r"|(?P<op>===|=/==|<=|>=|[<>\-:().]))"
)

_KEYWORDS = {"and", "true", "false", "Integer", "Boolean"}


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"column {pos}: unexpected character {text[pos]!r}")
        pos = m.end()
        if m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start()))
        elif m.lastgroup == "int":
            tokens.append(("int", m.group("int"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Reader:
    """Pratt parser over the printed constraint syntax."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise ValueError(f"column {at}: expected {value!r}, found {val!r}")

    def fail(self, msg: str):
        kind, val, at = self.peek()
        raise ValueError(f"column {at}: {msg} (at {val!r})")

    # Each parse method returns ('bool', Formula) or ('int', IntExpr).

    def parse(self, min_bp: int):
        kind, node = self.parse_prefix()
        while True:
            tk, tv, _ = self.peek()
            if tk == "name" and tv == "and":
                opname = tv
            elif tk == "op" and tv in ("===", "=/==", "<=", ">=", "<", ">"):
                opname = tv
            else:
                break
            bp = _READ_BP[opname]
            if bp < min_bp:
                break
            self.next()
            if opname == "and":
                kind, node = self.parse_chain(kind, node, bp)
                continue
            rk, rn = self.parse(bp + 1)
            kind, node = self.combine(opname, kind, node, rk, rn)
        return kind, node

    def parse_chain(self, kind, node, bp: int):
        args = [self.require_bool(kind, node)]
        while True:
            rk, rn = self.parse(bp + 1)
            args.append(self.require_bool(rk, rn))
            tk, tv, _ = self.peek()
            if tk == "name" and tv == "and":
                self.next()
                continue
            break
        return "bool", And(tuple(args))

    def combine(self, op: str, lk, ln, rk, rn):
        if op in ("<", "<=", ">", ">="):
            return "bool", Cmp(op, self.require_int(lk, ln), self.require_int(rk, rn))
        if op in ("===", "=/=="):
            if lk == "int" and rk == "int":
                return "bool", Cmp(op, ln, rn)
            if lk == "bool" and rk == "bool":
                return "bool", (BoolEq if op == "===" else BoolNeq)(ln, rn)
            self.fail(f"operands of {op} have different sorts")
        raise AssertionError(op)

    def require_bool(self, kind, node) -> Formula:
        if kind != "bool":
            self.fail("expected a Boolean term")
        return node

    def require_int(self, kind, node) -> IntExpr:
        if kind != "int":
            self.fail("expected an integer term")
        return node

    def parse_prefix(self):
        tk, tv, at = self.next()
        if tk == "int":
            return "int", IntLit(int(tv))
        if tk == "op" and tv == "-":
            lk, lv, _ = self.next()
            if lk != "int":
                raise ValueError(f"column {at}: unary minus needs an integer literal")
            return "int", IntLit(-int(lv))
        if tk == "op" and tv == "(":
            kind, node = self.parse(0)
            self.expect(")")
            # accept the (10).Integer / (true).Boolean literal notation
            pk, pv, _ = self.peek()
            if pv == ".":
                self.next()
                sk, sv, sat = self.next()
                if sv not in ("Integer", "Boolean"):
                    raise ValueError(f"column {sat}: expected Integer or Boolean after '.'")
            return kind, node
        if tk == "name":
            if tv == "true":
                return "bool", TRUE
            if tv == "false":
                return "bool", FALSE
            if tv in _KEYWORDS:
                raise ValueError(f"column {at}: unexpected keyword {tv!r}")
            pk, pv, _ = self.peek()
            if pv == ":":
                self.next()
                sk, sv, sat = self.next()
                if sv == "Integer":
                    return "int", Var(tv, Sort.INT)
                if sv == "Boolean":
                    return "bool", Var(tv, Sort.BOOL)
                raise ValueError(f"column {sat}: expected Integer or Boolean sort annotation")
            raise ValueError(f"column {at}: variable {tv} needs a :Integer or :Boolean annotation")
        raise ValueError(f"column {at}: unexpected token {tv!r}")


_READ_BP = {
    "and": _B_AND,
    "===": _B_EQ,
    "=/==": _B_EQ,
    "<": _B_CMP,
    "<=": _B_CMP,
    ">": _B_CMP,
    ">=": _B_CMP,
}


def read_formula(text: str) -> Formula:
    """Parse the printer's concrete syntax back into a Formula."""
    reader = _Reader(text)
    kind, node = reader.parse(0)
    tk, tv, at = reader.peek()
    if tk != "eof":
        raise ValueError(f"column {at}: trailing input {tv!r}")
    if kind != "bool":
        raise ValueError("expected a Boolean formula, found an integer expression")
    return node
