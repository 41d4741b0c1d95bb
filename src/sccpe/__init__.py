"""Interpreter and reachability analyzer for spatial constraint programs
with extrusion: per-agent constraint stores arranged in a tree, processes
that tell/ask constraints, move between spaces, and recurse, plus
breadth-first search for safety queries over all executions."""

from .calculus import (
    ROOT,
    AgentId,
    Ask,
    Extr,
    NIL,
    Nil,
    Par,
    ProcObj,
    ProcVar,
    Process,
    Rec,
    RunResult,
    Space,
    StoreObj,
    SysState,
    Tell,
    canon_process,
    normalize,
    par,
    replace,
    run,
    step,
    store_map,
)
from .formula import (
    FALSE,
    TRUE,
    DLAtom,
    Formula,
    Sort,
    SortConflict,
    Var,
    boolvar,
    canonicalize,
    conjoin,
    eq_,
    format_formula,
    free_vars,
    intvar,
    lower,
    ne_,
)
from .lang import Diagnostic, ParseError, ProgramAst, elaborate, parse, validate
from .render import render_tree
from .search import (
    InconsistentStore,
    Match,
    Query,
    SearchOutcome,
    StoreEntails,
    StoresEquivalent,
    evaluate_query,
    search,
)
from .solver import Solver, dl_conjunct_sat

__version__ = "0.1.0"
