"""The test oracles stay independent of the code they check.

The brute-force model enumerator and the SMT-LIB2 oracle decide the same
question as the solver, so they must share no code with the solver or the
difference-logic lowering; the printed-syntax reader keeps its own
precedence table, so it must share none with the printer; the state
document reader keeps its own table of op names and fields, so it must
share none with the encoder; and the oracles live here, not in the
package, which holds only what the analyzer runs.  The package has one
decision path: the names of the retired external backend must not come
back, nor those of the state reader, the schemas, the predicate query and
the connectives beyond and, === and =/==, which no path of the analyzer
used, nor the term builders and the record binding that only tests used,
nor the kept search answers and their JSON writer, nor the aliases of
the one order key, nor the hand-written traversals that the `_kids`
schema replaced.  The engine oracle substitutes by its own hand, so it
must not import the engine's substitution, child map or canonical form.
"""

import ast
import importlib
import pathlib

import sccpe
from sccpe.formula import BOOL_KINDS, INT_KINDS, And, BoolConst, BoolEq, BoolNeq, Cmp, IntLit, Var

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = pathlib.Path(sccpe.__file__).resolve().parent

# What the difference-logic lowering is made of, in sccpe.formula
# (`to_dnf` is the lowering's former name, still bound to it).
LOWERING_NAMES = {"lower", "to_dnf", "DLGoal", "DLAtom"}

# The printer in sccpe.formula, besides its `_fmt*` functions and `_B_*`
# binding powers.
PRINTER_NAMES = {"format_formula", "format_int_expr", "_EQ_WORD"}

# The encoder's tables in sccpe.render, and the function that builds them.
ENCODER_NAMES = {"_OP_NAME", "_JSON_KEY", "_PLAN", "_plan"}

# Test-only helpers, which no module of the package may define; `holds` is
# the old literal-semantics method of the DNF literal classes, and the
# solver's model check must not take the name back.
TEST_ONLY_NAMES = {
    "holds",
    "brute_force_sat",
    "small_model_bound",
    "_assert_fragment",
    "_compile_eval",
    "compile_term",
    "literal_holds",
    "eval_formula",
    "eval_int_expr",
    "read_formula",
    "_Reader",
    "_READ_BP",
    "_TOKEN_RE",
    "_tokenize",
    "print_program",
    "format_surface_formula",
    "format_surface_process",
    "_surface_side",
    "smtlib_script",
    "_smt",
    "smt_check",
    "_run_external",
    "read_state",
    "read_term",
}

# The external backend's API, removed from the package when the built-in
# solver became complete: its config, three-valued result and exceptions.
RETIRED_NAMES = {"SolverInconclusive", "ExternalSolverError", "SatResult", "SolverConfig", "check_unsat"}

# Capabilities no analyzer path reached, removed from the package: the user
# predicate query, the state document reader and its error, the JSON
# Schemas (now `tests/schemas.py`), the connectives that no program, query
# or check can write (negation is ``f =/== true``), and the kept search
# answer and the hand-written JSON writer with its helpers, which answers
# handed on as they are found made unneeded.
RETIRED_CAPABILITY_NAMES = {
    "Match",
    "dump",
    "_scalar",
    "_FLOAT_WORDS",
    "Not",
    "Or",
    "Xor",
    "Implies",
    "negate",
    "Predicate",
    "state_from_json",
    "obj_to_state",
    "obj_to_formula",
    "JsonFormatError",
    "STATE_SCHEMA",
    "CLI_OUTPUT_SCHEMA",
}

# Term builders that no CLI call runs, moved to `tests/builders.py`, and
# the keyword and default binding of records, which only tests used.
RETIRED_BUILDER_NAMES = {
    "intvar",
    "boolvar",
    "eq_",
    "ne_",
    "free_vars",
    "store_map",
    "_as_int",
    "_equality",
    "_operand_sort",
    "_collect_vars",
    "_bind",
    "_IntOps",
}

# Every order is `term_key`'s: the three other names of that key are gone.
RETIRED_ALIAS_NAMES = {"process_key", "obj_key", "state_key"}

# Every walk of a term reads its class's `_kids` schema: the per-sort
# canonical forms, the parallel-composition builder (`canon_process` of a
# `Par` does its job) and the validator's separate walks are gone.
RETIRED_TRAVERSAL_NAMES = {
    "_canon_bool",
    "_canon_int",
    "_canon_kid",
    "par",
    "_subprocesses",
    "_check_scopes",
    "_check_recursion",
    "_unguarded_occurrence",
}

# What the engine substitutes and canonicalizes with; `normalize` stays
# allowed, since `tests/test_canonical.py`'s independent reference gates it.
ENGINE_REWRITE_NAMES = {"replace", "rebuild", "canonical", "canonicalize", "canon_process"}


def imports(path: pathlib.Path) -> list:
    """(module, name) for every name a module imports; name is None for a
    plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.module, alias.name) for alias in node.names)
    return found


def definitions(path: pathlib.Path) -> set:
    """Names bound at module level, and the methods of its classes."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(item, ast.FunctionDef))
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def assert_shares_no_code_with_the_solver(oracle: str):
    found = imports(TESTS / oracle)
    assert found
    for module, name in found:
        assert module.split(".")[:2] != ["sccpe", "solver"], (module, name)
        assert (module, name) != ("sccpe", "solver"), (module, name)
        assert name not in LOWERING_NAMES, (module, name)


def test_model_oracle_shares_no_code_with_the_solver():
    assert_shares_no_code_with_the_solver("model_oracle.py")
    assert_shares_no_code_with_the_solver("builders.py")  # its free_vars


def test_smt_oracle_shares_no_code_with_the_solver():
    assert_shares_no_code_with_the_solver("smt_oracle.py")
    assert_shares_no_code_with_the_solver("builders.py")


def test_engine_oracle_substitutes_on_its_own():
    found = imports(TESTS / "engine_oracle.py")
    assert ("sccpe", "normalize") in found
    for module, name in found:
        assert name not in ENGINE_REWRITE_NAMES, (module, name)


def test_formula_reader_shares_no_code_with_the_printer():
    for module, name in imports(TESTS / "formula_reader.py"):
        assert name not in PRINTER_NAMES, (module, name)
        assert not (name or "").startswith(("_fmt", "_B_")), (module, name)


def test_state_reader_shares_no_table_with_the_encoder():
    found = imports(TESTS / "state_reader.py")
    assert ("sccpe.render", "state_to_obj") in found
    for module, name in found:
        assert name not in ENCODER_NAMES, (module, name)
    assert not ENCODER_NAMES & definitions(TESTS / "state_reader.py")
    # nor does it read the node classes' field lists in place of its own table
    text = (TESTS / "state_reader.py").read_text()
    assert "__match_args__" not in text and "_kids" not in text


def assert_package_defines_none_of(names: set):
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        clash = definitions(path) & names
        assert not clash, f"{path.name} defines {sorted(clash)}"


def test_package_defines_no_test_only_helper():
    assert_package_defines_none_of(TEST_ONLY_NAMES)


def test_package_defines_no_retired_solver_name():
    assert_package_defines_none_of(RETIRED_NAMES)


def assert_package_exports_none_of(names: set):
    # also catches a name brought back by import or assignment under another binding
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__main__":
            name = "sccpe" if path.stem == "__init__" else f"sccpe.{path.stem}"
            module = importlib.import_module(name)
            assert not names & set(dir(module)), name


def test_package_exports_no_retired_solver_name():
    assert_package_exports_none_of(RETIRED_NAMES)
    assert not {"SAT", "UNSAT", "unknown"} & set(dir(importlib.import_module("sccpe.solver")))
    assert not RETIRED_NAMES & set(dir(sccpe.Solver))


def test_package_defines_no_retired_capability():
    assert_package_defines_none_of(RETIRED_CAPABILITY_NAMES)
    assert not (PACKAGE / "schemas.py").exists()


def test_package_exports_no_retired_capability():
    assert_package_exports_none_of(RETIRED_CAPABILITY_NAMES)


def test_package_defines_no_retired_builder():
    assert_package_defines_none_of(RETIRED_BUILDER_NAMES)


def test_package_exports_no_retired_builder():
    assert_package_exports_none_of(RETIRED_BUILDER_NAMES)
    assert not RETIRED_BUILDER_NAMES & set(dir(sccpe.formula.Record))


def test_package_defines_no_retired_alias():
    assert_package_defines_none_of(RETIRED_ALIAS_NAMES)


def test_package_exports_no_retired_alias():
    assert_package_exports_none_of(RETIRED_ALIAS_NAMES)


def test_package_defines_no_retired_traversal():
    assert_package_defines_none_of(RETIRED_TRAVERSAL_NAMES)


def test_package_exports_no_retired_traversal():
    assert_package_exports_none_of(RETIRED_TRAVERSAL_NAMES)


def test_every_term_class_is_sampled_and_no_retired_one():
    # the per-class test of every consumer (lowering, printer, reader, state
    # document, SMT oracle) runs on exactly the classes of the term language
    from test_formula import SAMPLES, test_every_term_class_lowers_prints_reads_stores_and_renders

    (mark,) = test_every_term_class_lowers_prints_reads_stores_and_renders.pytestmark
    assert BOOL_KINDS == {BoolConst, Var, And, BoolEq, BoolNeq, Cmp}
    assert INT_KINDS == {Var, IntLit}
    assert set(mark.args[1]) == set(SAMPLES) == BOOL_KINDS | INT_KINDS
