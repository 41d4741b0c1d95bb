import random
import shutil
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from builders import boolvar, eq_, ge, gt, intvar, le, lt, ne_
from model_oracle import brute_force_sat, small_model_bound
from randgen import fragment_formula, tight_formula
from sccpe import (
    FALSE,
    TRUE,
    DLAtom,
    Solver,
    Sort,
    SortConflict,
    Var,
    canonicalize,
    conjoin,
    dl_conjunct_sat,
)
import sccpe.solver as solver_module
from sccpe.formula import And, BoolEq, BoolNeq, Cmp, IntLit, Node
from smt_oracle import smt_check, smtlib_script

W, X, Y, Z = (intvar(n) for n in "WXYZ")
P, Q = (boolvar(n) for n in "PQ")


def oracle_entails(c, d) -> bool:
    """Entailment as the brute-force oracle decides it: c and (d =/== true)
    has no model."""
    f = And((c, BoolNeq(d, TRUE)))
    return not brute_force_sat(f, small_model_bound(f))


# ---------------------------------------------------------------------------
# check_sat / entails


def test_check_sat_true():
    assert Solver().check_sat(TRUE) is True


def test_check_sat_inconsistent_store():
    assert not Solver().check_sat(And((ge(Z, 10), eq_(Z, 9))))


def test_check_sat_negative_cycle():
    f = And((lt(X, Y), lt(Y, X)))
    assert not Solver().check_sat(f)
    assert not any(
        x < y and y < x for x in range(-3, 4) for y in range(-3, 4)
    )


def test_check_unsat_examples():
    assert not Solver().check_sat(FALSE)
    assert not Solver().check_sat(And((ge(Z, 10), eq_(Z, 9))))
    assert Solver().check_sat(lt(Y, 5))


def test_entails_examples():
    assert Solver().entails(lt(Y, 5), lt(Y, 20))
    assert not Solver().entails(lt(Y, X), lt(Y, 3))
    assert Solver().entails(ge(Z, 10), gt(Z, 9))
    assert Solver().entails(lt(Y, 5), TRUE)
    assert Solver().entails(And((ge(Z, 10), eq_(Z, 9))), TRUE)


def test_entails_bool_atoms():
    assert Solver().entails(And((ge(X, 5), P)), P)
    assert not Solver().entails(ge(X, 5), P)


# ---------------------------------------------------------------------------
# difference-logic core


def test_dl_empty_is_sat():
    assert dl_conjunct_sat(set())


def test_dl_negative_cycle():
    atoms = {DLAtom("X", "Y", -1), DLAtom("Y", "X", -1)}
    assert not dl_conjunct_sat(atoms)


def test_dl_single_bound():
    assert dl_conjunct_sat({DLAtom("X", None, 4)})
    assert dl_conjunct_sat({DLAtom(None, "X", -4)})
    assert not dl_conjunct_sat({DLAtom("X", None, 3), DLAtom(None, "X", -4)})


def test_dl_boolean_vertex():
    # P is P > 0 and not P is P <= 0: a cycle of weight -1 through the zero vertex
    assert dl_conjunct_sat({DLAtom(None, "P", -1)})
    assert not dl_conjunct_sat({DLAtom(None, "P", -1), DLAtom("P", None, 0)})


def test_dl_opposite_edges():
    # a pair of opposite edges is a cycle: unsat only when its weight is negative
    assert dl_conjunct_sat({DLAtom("X", "Y", 0), DLAtom("Y", "X", 0)})
    assert dl_conjunct_sat({DLAtom("X", None, 3), DLAtom(None, "X", -3)})
    chain = {DLAtom(f"X{i}", f"X{i + 1}", -1) for i in range(40)}
    assert dl_conjunct_sat(chain | {DLAtom(None, "P", -1)})
    assert not dl_conjunct_sat(chain | {DLAtom(None, "P", -1), DLAtom("P", None, 0)})
    # two atoms on one pair of vertices: whichever the pair check sees, the verdict holds
    assert not dl_conjunct_sat({DLAtom("X", "Y", 5), DLAtom("X", "Y", -1), DLAtom("Y", "X", 0)})


def test_dl_chain_through_zero():
    atoms = {DLAtom(None, "X", -5), DLAtom("Y", "X", -2), DLAtom("Y", None, 2)}
    # X >= 5 and Y - X <= -2 allow Y = 3 <= 2? no: Y <= X - 2 >= 3, so Y >= ... not forced
    assert dl_conjunct_sat(atoms)
    atoms.add(DLAtom(None, "Y", -10))
    atoms.add(DLAtom("X", None, 6))
    # Y >= 10 with Y <= X - 2 <= 4: negative cycle
    assert not dl_conjunct_sat(atoms)


# ---------------------------------------------------------------------------
# brute force oracle


def test_brute_force_examples():
    assert brute_force_sat(TRUE, 1)
    assert not brute_force_sat(And((ge(Z, 10), eq_(Z, 9))), 21)
    assert brute_force_sat(lt(Y, 5), 6)


def test_brute_force_rejects_arithmetic():
    # a Boolean variable compared as an integer
    with pytest.raises(SortConflict):
        brute_force_sat(Cmp("<", P, Y), 4)


def test_small_model_bound():
    assert small_model_bound(And((ge(Z, 10), eq_(Z, 9)))) == 10 + 9 + 1 + 1
    assert small_model_bound(TRUE) == 1


def test_oracle_agreement_sample():
    rng = random.Random(1234)
    for _ in range(300):
        f = fragment_formula(rng)
        assert Solver().check_sat(f) == brute_force_sat(f, small_model_bound(f))
    for _ in range(150):
        f = tight_formula(rng)
        assert Solver().check_sat(f) == brute_force_sat(f, small_model_bound(f))


def _bool_equality_formula(rng, depth=3):
    """Boolean = or =/= between two sides, each a Boolean variable, a
    small fragment formula, or another such equality; sometimes negated."""
    sides = []
    for _ in range(2):
        roll = rng.random()
        if roll < 0.3:
            sides.append(boolvar(rng.choice("PQR")))
        elif roll < 0.7 or depth == 1:
            sides.append(fragment_formula(rng, 2, int_names=("X", "Y"), bool_names=("P", "Q", "R")))
        else:
            sides.append(_bool_equality_formula(rng, depth - 1))
    f = rng.choice((BoolEq, BoolNeq))(*sides)
    return BoolNeq(f, TRUE) if rng.random() < 0.2 else f


def test_bool_equality_agrees_with_brute_force():
    rng = random.Random(4242)
    verdicts = set()
    for _ in range(300):
        f = _bool_equality_formula(rng)
        if rng.random() < 0.5:
            f = And((f, _bool_equality_formula(rng)))
        sat = Solver().check_sat(f)
        assert sat == brute_force_sat(f, small_model_bound(f)), f"disagreement on {f}"
        verdicts.add(sat)
    assert verdicts == {True, False}


# Every variable is kept in [0, BOX] by conjuncts of the formula itself, so
# enumerating [-BOX, BOX] finds a model whenever there is one.
BOX = 4


@st.composite
def boxed_disequalities(draw):
    """13-20 disequalities and 0-4 bounds over at most 3 integer variables
    held in the box, sometimes with one negated guard (as entailment adds).
    A side is a variable other than the left one, or a literal in or just
    outside the box; about half the draws are satisfiable."""
    names = draw(st.sampled_from(("X", "XY", "XYZ")))
    sides = [intvar(n) for n in names] + [IntLit(k) for k in range(-1, BOX + 2)]

    def atoms(ops, n, m):
        drawn = st.tuples(st.sampled_from(ops), st.sampled_from(names), st.sampled_from(sides))
        return [
            Cmp(op, intvar(left), sides[-1] if right == intvar(left) else right)
            for op, left, right in draw(st.lists(drawn, min_size=n, max_size=m))
        ]

    parts = atoms(("=/==",), 13, 20) + atoms(("<", "<=", ">", ">="), 0, 4)
    parts += [c for n in names for c in (ge(intvar(n), 0), le(intvar(n), BOX))]
    if draw(st.booleans()):
        guard = And(tuple(atoms(("<", "<=", ">", ">=", "===", "=/=="), 1, 3)))
        parts.append(BoolNeq(guard, TRUE))
    return And(tuple(parts))


@given(boxed_disequalities())
@settings(max_examples=150, deadline=None)
def test_many_disequalities_agree_with_brute_force(f):
    assert Solver().check_sat(f) == brute_force_sat(f, BOX)


def test_short_and_is_decided():
    assert Solver().check_sat(And((P,)))
    assert not Solver().check_sat(And((P, BoolNeq(And((P,)), TRUE))))
    assert Solver().check_sat(And(()))
    assert not Solver().check_sat(BoolNeq(And(()), TRUE))


# ---------------------------------------------------------------------------
# order/lattice laws

formulas = st.builds(
    lambda seed: fragment_formula(random.Random(seed)),
    st.integers(0, 2**32 - 1),
)


@given(formulas)
@settings(max_examples=150)
def test_entails_reflexive(c):
    assert Solver().entails(c, c)


@given(formulas, formulas, formulas)
@settings(max_examples=150)
def test_entails_transitive(c, d, e):
    if Solver().entails(c, d) and Solver().entails(d, e):
        assert Solver().entails(c, e)


@given(formulas, formulas)
@settings(max_examples=150)
def test_conjoin_is_upper_bound(c, d):
    assert Solver().entails(conjoin(c, d), c)
    assert Solver().entails(conjoin(c, d), d)


@given(formulas, formulas, formulas)
@settings(max_examples=150)
def test_conjoin_is_least_upper_bound(e, c, d):
    if Solver().entails(e, c) and Solver().entails(e, d):
        assert Solver().entails(e, conjoin(c, d))


@given(formulas)
@settings(max_examples=100)
def test_top_and_bottom(c):
    assert Solver().entails(FALSE, c)
    assert Solver().entails(c, TRUE)


# ---------------------------------------------------------------------------
# the SMT-LIB2 oracle (tests/smt_oracle.py): script format and solver protocol


def test_smtlib_script_shape():
    script = smtlib_script(And((ge(Z, 10), eq_(Z, 9), P)))
    assert script.splitlines()[0] == "(set-logic QF_LIA)"
    assert "(declare-const P Bool)" in script
    assert "(declare-const Z Int)" in script
    assert "(assert (and (>= Z 10) (= Z 9) P))" in script
    assert script.rstrip().endswith("(check-sat)")


def _stub_solver(tmp_path, behavior: str):
    """A fake SMT-LIB2 solver: validates the envelope, answers `behavior`."""
    path = tmp_path / "fakesolver.py"
    path.write_text(
        textwrap.dedent(
            f"""\
            import sys, time
            text = sys.stdin.read()
            assert text.startswith("(set-logic QF_LIA)"), text
            assert "(check-sat)" in text, text
            if {behavior!r} == "hang":
                time.sleep(60)
            print({behavior!r})
            """
        )
    )
    return (sys.executable, str(path))


def assert_agrees(cmd, formulas):
    """The solver and the SMT oracle `cmd` give each formula one verdict; an
    oracle that answers `unknown` disagrees."""
    session = Solver()
    for f in formulas:
        expected = "sat" if session.check_sat(f) else "unsat"
        assert smt_check(cmd, f) == expected, f"disagreement on {f}"


def test_external_backend_sat(tmp_path):
    assert smt_check(_stub_solver(tmp_path, "sat"), And((ge(Z, 10), eq_(Z, 9)))) == "sat"


def test_external_backend_unsat(tmp_path):
    assert smt_check(_stub_solver(tmp_path, "unsat"), TRUE) == "unsat"


def test_dnf_blowup_failover():
    # 13 disequalities are 2^13 conjuncts once expanded into DNF, which the
    # solver once refused (handing them to an external solver if any); the
    # lazy search decides them itself, in agreement with brute force
    diseqs = tuple(ne_(X, k) for k in range(13))
    for f, sat in ((And(diseqs), True), (And(diseqs + (ge(X, 0), lt(X, 13))), False)):
        assert Solver().check_sat(f) is sat
        assert brute_force_sat(f, small_model_bound(f)) is sat


def test_sort_conflict_is_rejected_by_both_backends(tmp_path):
    f = And((Var("A", Sort.BOOL), lt(Var("A", Sort.INT), 0)))
    with pytest.raises(SortConflict):
        Solver().check_sat(f)
    with pytest.raises(SortConflict):
        smt_check(_stub_solver(tmp_path, "sat"), f)


def test_unknown_policy_error(tmp_path):
    with pytest.raises(AssertionError, match="disagreement on true"):
        assert_agrees(_stub_solver(tmp_path, "unknown"), [TRUE])
    assert_agrees(_stub_solver(tmp_path, "sat"), [TRUE])


def test_unknown_policy_paper(tmp_path):
    # the retired paper policy read `unknown` as unsat, so entails(true, false)
    # held; the agreement check takes `unknown` for neither verdict
    with pytest.raises(AssertionError, match="disagreement on false"):
        assert_agrees(_stub_solver(tmp_path, "unknown"), [FALSE])
    assert_agrees(_stub_solver(tmp_path, "unsat"), [FALSE])
    assert not Solver().entails(TRUE, FALSE)


def test_oracle_sends_the_whole_script_on_stdin(tmp_path):
    seen = tmp_path / "seen.smt2"
    stub = tmp_path / "recorder.py"
    stub.write_text(f"import sys\nopen({str(seen)!r}, 'w').write(sys.stdin.read())\nprint('sat')\n")
    f = And((ge(Z, 10), BoolNeq(P, TRUE), lt(X, -3)))
    assert smt_check((sys.executable, str(stub)), f) == "sat"
    assert seen.read_text() == smtlib_script(f)
    assert "(< X (- 3))" in smtlib_script(f)
    assert "(not (= P true))" in smtlib_script(f)


def test_timeout_maps_to_unknown(tmp_path):
    # the stub prints no verdict ("hang") if it is not stopped in time
    assert smt_check(_stub_solver(tmp_path, "hang"), TRUE, timeout_s=1) == "unknown"


def test_missing_solver_binary():
    with pytest.raises(RuntimeError, match="^cannot run definitely-not-a-solver-xyz: "):
        smt_check(("definitely-not-a-solver-xyz",), TRUE)


def test_garbage_solver_output(tmp_path):
    path = tmp_path / "garbage.py"
    path.write_text("print('flubber')\n")
    with pytest.raises(RuntimeError, match="^no verdict from "):
        smt_check((sys.executable, str(path)), TRUE)


REAL_SOLVER = next(
    ((name, "-in") if name == "z3" else (name,) for name in ("z3", "cvc5", "yices-smt2") if shutil.which(name)),
    None,
)


@pytest.mark.skipif(REAL_SOLVER is None, reason="no SMT solver (z3, cvc5 or yices-smt2) on PATH")
def test_backend_agreement_against_real_solver():
    rng = random.Random(5)
    assert_agrees(REAL_SOLVER, [fragment_formula(rng) for _ in range(100)])


def test_config_validation():
    with pytest.raises(ValueError):
        smt_check((), TRUE)
    for timeout_s in (0, 0.5):
        with pytest.raises(ValueError):
            smt_check((sys.executable, "-c", "print('sat')"), TRUE, timeout_s=timeout_s)


@given(formulas, formulas)
@settings(max_examples=150, deadline=None)
def test_entailment_memo_is_transparent(c, d):
    session = Solver()
    for left, right in ((c, d), (d, c), (c, d)):  # the last one from the table
        verdict = oracle_entails(left, right)
        assert session.entails(left, right) is verdict
        assert (not Solver().check_sat(And((left, BoolNeq(right, TRUE))))) is verdict


class Interrupted(Exception):
    """A decision cut short, as by an interrupt or a resource limit."""


def test_an_inconclusive_entailment_is_not_memoized(monkeypatch):
    decide, asked = solver_module._search, []

    def fails_once(goal):  # the first decision gives no answer
        asked.append(goal)
        if len(asked) == 1:
            raise Interrupted("decision cut short")
        return decide(goal)

    monkeypatch.setattr(solver_module, "_search", fails_once)
    session = Solver()
    with pytest.raises(Interrupted):
        session.entails(lt(Y, 5), lt(Y, 20))
    assert session.entails(lt(Y, 5), lt(Y, 20))
    assert session.entails(lt(Y, 5), lt(Y, 20))
    assert len(asked) == 2  # the third answer came from the entailment table


def _tell(rng):
    """A constraint as a program tells it: a disequality, a bound, a Boolean
    variable, or a Boolean === or =/== of two of these."""
    x, y = (intvar(n) for n in rng.sample("XY", 2))
    atoms = (
        lambda: ne_(x, rng.choice((y, rng.randint(0, 3)))),
        lambda: Cmp(rng.choice(("<", "<=", ">", ">=")), x, IntLit(rng.randint(0, 3))),
        lambda: boolvar(rng.choice("PQ")),
    )
    if rng.random() < 0.7:
        return rng.choice(atoms)()
    left, right = rng.choice(atoms)(), rng.choice(atoms)()
    return rng.choice((BoolEq, BoolNeq))(left, right)


def test_one_session_agrees_with_the_oracle_as_stores_grow():
    # one session for every store, each grown one tell at a time, as the
    # engine grows them, so later stores reuse the lowerings of earlier ones
    rng = random.Random(2006)
    session, queries = Solver(), []
    for _ in range(5):
        store = TRUE
        for _ in range(6):
            store = canonicalize(conjoin(store, _tell(rng)))
            negated = BoolNeq(And((_tell(rng), _tell(rng))), TRUE)
            guards = (_tell(rng), negated, And((_tell(rng), _tell(rng))))
            queries += [(store, d) for d in guards + (store.args[-1] if type(store) is And else store,)]
    expected = {}
    for c, d in queries:
        expected[c, d] = verdict = oracle_entails(c, d)
        assert session.entails(c, d) is verdict, f"{c} entails {d}"
        assert Solver().entails(c, d) is verdict
    assert set(expected.values()) == {True, False}
    # the same queries backwards: each store's cached lowering is searched
    # again under a new key, so a goal that a search changed gives itself away
    for c, d in queries[::-1]:
        assert session.entails(c, d) is expected[c, d]
        assert session.check_sat(And((c, BoolNeq(d, TRUE)))) is not expected[c, d]


def test_a_sort_conflict_across_cached_parts_is_raised_and_not_stored():
    a_bool, a_int = Var("A", Sort.BOOL), lt(Var("A", Sort.INT), 0)
    session = Solver()
    assert session.check_sat(a_bool)  # the Boolean use is lowered and cached
    for _ in range(2):  # nothing was stored for the failed calls
        with pytest.raises(SortConflict):
            session.entails(a_bool, a_int)  # store and guard
        with pytest.raises(SortConflict):
            session.check_sat(And((a_bool, a_int)))  # two conjuncts


def test_a_session_gives_each_name_one_sort():
    a_bool, a_int = Var("A", Sort.BOOL), lt(Var("A", Sort.INT), 0)
    session = Solver()
    assert session.check_sat(a_bool)
    with pytest.raises(SortConflict):  # though no call asks about both uses
        session.check_sat(a_int)
    assert Solver().check_sat(a_int)


@pytest.mark.parametrize("others", [(), ("C",)])
def test_a_formula_whose_own_lowering_conflicts_commits_none_of_its_names(others):
    b_bool, b_int = Var("B", Sort.BOOL), lt(Var("B", Sort.INT), 0)
    left = And((*(Var(n, Sort.BOOL) for n in others), b_bool)) if others else b_bool
    session = Solver()
    with pytest.raises(SortConflict):
        session.check_sat(BoolNeq(left, b_int))  # B is met as a Boolean first
    for name in others:
        assert session.check_sat(lt(Var(name, Sort.INT), 0))
    assert session.check_sat(b_int)
    with pytest.raises(SortConflict):  # now B is an integer in this session
        session.check_sat(b_bool)


def test_a_decision_builds_no_term(monkeypatch):
    # the store and the guard are lowered apart and joined: no conjunction
    # or negation of them is built (lowering itself builds none for these)
    store = And(tuple(ne_(X, k) for k in range(5)) + (BoolEq(P, gt(X, 9)), BoolNeq(Q, lt(Y, X))))
    guard, entailed = BoolNeq(And((gt(X, 0), P)), TRUE), ne_(X, 2)
    built, init = [], Node.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", counted)
    session = Solver()
    assert not session.entails(store, guard)
    assert session.entails(store, entailed)
    assert session.check_sat(store)
    assert built == []


def test_solver_takes_no_configuration():
    # the external backend and its config are gone: one built-in procedure
    with pytest.raises(TypeError):
        Solver(None)
    assert type(Solver().check_sat(lt(Y, 5))) is bool
    assert type(Solver().entails(lt(Y, 5), lt(Y, 20))) is bool


def test_session_caching_is_transparent():
    s = Solver()
    f = And((ge(Z, 10), eq_(Z, 9)))
    assert not s.check_sat(f)
    assert not s.check_sat(f)
    assert not s.check_sat(And((eq_(Z, 9), ge(Z, 10))))  # reordered: each conjunct's lowering is cached
