"""Printer of a parsed program back into the surface language, the
round-trip oracle of `sccpe.lang.parse`: `parse(print_program(ast)) == ast`.

Nothing in the analyzer prints the surface language (the command line
prints the constraint syntax of `sccpe.formula.format_formula`), so the
printer lives with the tests that use it.
"""

from __future__ import annotations

from sccpe.calculus import Ask, Extr, Par, Process, ProcVar, Rec, Space, Tell
from sccpe.formula import And, BoolConst, BoolEq, BoolNeq, Cmp, Formula, IntLit, Var
from sccpe.lang import AgentDecl, ProgramAst


def print_program(ast: ProgramAst) -> str:
    out = []
    for names, sort in ast.var_decls:
        out.append(f"var {', '.join(names)} {sort.value}")
    out.append("begin")
    for line in ast.lines:
        if isinstance(line, AgentDecl):
            loc = "".join(f"{n} . " for n in line.location) + "root"
            out.append(f"{loc} ; {format_surface_formula(line.constraint)} .")
        else:
            out.append(f"{format_surface_process(line.process)} .")
    out.append("end")
    return "\n".join(out) + "\n"


def format_surface_formula(f: Formula) -> str:
    if isinstance(f, And):
        return " and ".join(format_surface_formula(a) for a in f.args)
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Cmp):
        op = {"===": "=", "=/==": "=/="}.get(f.op, f.op)
        return f"{_surface_side(f.left)} {op} {_surface_side(f.right)}"
    if isinstance(f, (BoolEq, BoolNeq)):
        op = "=" if isinstance(f, BoolEq) else "=/="
        return f"{_surface_side(f.left)} {op} {_surface_side(f.right)}"
    raise ValueError(f"{f!r} has no surface syntax")


def _surface_side(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, IntLit):
        if e.value < 0:
            raise ValueError("surface syntax has no negative literals")
        return str(e.value)
    raise ValueError(f"{e!r} has no surface syntax")


def format_surface_process(p: Process) -> str:
    if isinstance(p, Tell):
        return f"tell({format_surface_formula(p.constraint)})"
    if isinstance(p, Ask):
        return f"ask {format_surface_formula(p.guard)} -> {format_surface_process(p.then)}"
    if isinstance(p, Par):
        asks = [a for a in p.args if isinstance(a, Ask)]
        if len(asks) > 1:
            raise ValueError(
                "a parallel composition with two ask operands has no surface syntax"
            )
        others = [a for a in p.args if not isinstance(a, Ask)]
        ordered = others + asks  # a trailing ask parses back with the same scope
        return " || ".join(format_surface_process(a) for a in ordered)
    if isinstance(p, Space):
        return f"[{format_surface_process(p.body)}]_{p.agent}"
    if isinstance(p, Extr):
        return f"x({format_surface_process(p.body)})_{p.agent}"
    if isinstance(p, Rec):
        return f"r({p.var}, {format_surface_process(p.body)})"
    if isinstance(p, ProcVar):
        return f"v({p.var})"
    raise ValueError(f"{p!r} has no surface syntax")
