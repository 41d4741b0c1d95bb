import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from builders import boolvar, eq_, free_vars, ge, gt, intvar, le, lt, ne_
from formula_reader import read_formula
from model_oracle import compile_term, literal_holds
from randgen import BOOL_NAMES, INT_NAMES, fragment_formula
from sccpe import (
    FALSE,
    ROOT,
    TRUE,
    Solver,
    Sort,
    SortConflict,
    StoreObj,
    SysState,
    Var,
    canonicalize,
    conjoin,
    format_formula,
    lower,
    normalize,
)
from sccpe.formula import (
    BOOL_KINDS,
    INT_KINDS,
    And,
    BoolConst,
    BoolEq,
    BoolNeq,
    Cmp,
    DLAtom,
    DLGoal,
    IntLit,
    term_key,
)
from smt_oracle import smtlib_script
from state_reader import round_trip

W, X, Y, Z = (intvar(n) for n in "WXYZ")
P, Q = (boolvar(n) for n in "PQ")


# ---------------------------------------------------------------------------
# conjoin identities and negation


def test_conjoin_true_unit():
    assert conjoin(lt(Y, 5), TRUE) == lt(Y, 5)
    assert conjoin(TRUE, lt(Y, 5)) == lt(Y, 5)


def test_conjoin_true_true():
    assert conjoin(TRUE, TRUE) == TRUE


def test_conjoin_false_absorbs():
    assert conjoin(lt(Y, 5), FALSE) == FALSE
    assert conjoin(FALSE, lt(Y, 5)) == FALSE


def test_conjoin_plain_pair():
    got = conjoin(ge(Z, 10), eq_(Z, 9))
    assert got == And((ge(Z, 10), eq_(Z, 9)))
    assert format_formula(got) == "Z:Integer >= 10 and Z:Integer === 9"


def test_negation_is_a_disequality_with_true():
    # not f is written f =/== true (or f === false): a model satisfies it
    # exactly when it does not satisfy f
    for f in (lt(Y, 20), P, And((P, gt(X, 2))), TRUE, FALSE):
        for neg in (BoolNeq(f, TRUE), BoolEq(f, FALSE)):
            for env in ({"X": 3, "Y": 19, "P": True}, {"X": 0, "Y": 20, "P": False}):
                assert compile_term(neg)(env) is not compile_term(f)(env)
            assert not Solver().check_sat(And((f, neg)))
    assert Solver().check_sat(BoolNeq(lt(Y, 20), TRUE))
    assert not Solver().check_sat(BoolNeq(TRUE, TRUE))


def test_equality_sort_comes_from_both_operands():
    assert eq_(True, P) == BoolEq(TRUE, P)
    assert ne_(P, False) == BoolNeq(P, FALSE)
    assert eq_(3, X) == Cmp("===", IntLit(3), X)
    assert ne_(X, Y) == Cmp("=/==", X, Y)


def test_equality_of_mixed_sorts_names_both_operands():
    with pytest.raises(TypeError, match=r"^cannot equate P:Boolean \(Bool\) with 3 \(Int\)$"):
        eq_(P, 3)
    with pytest.raises(TypeError, match=r"^cannot equate True \(Bool\) with X:Integer \(Int\)$"):
        ne_(True, X)
    with pytest.raises(TypeError, match="not a term"):
        eq_(X, "3")


def test_terms_have_no_ordering():
    # no operator builds a comparison, so sorting terms fails instead of
    # taking a truthy comparison term for "less"
    for terms in ([Y, X], [X, Z, Y], [IntLit(2), IntLit(1)], [X, IntLit(1)]):
        with pytest.raises(TypeError):
            sorted(terms)
        with pytest.raises(TypeError):
            max(terms)
    with pytest.raises(TypeError):
        X < 1


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_drops_true_units():
    f = And((And((TRUE, eq_(X, 25))), TRUE))
    assert canonicalize(f) == eq_(X, 25)


def test_canonicalize_false_absorbs():
    assert canonicalize(And((FALSE, lt(Y, 5)))) == FALSE


def test_canonicalize_sorts_all_permutations():
    atoms = [lt(Y, 5), eq_(X, 25), ge(Z, 10), P]
    for size in (2, 3, 4):
        expected = None
        for perm in itertools.permutations(atoms[:size]):
            f = perm[0]
            for a in perm[1:]:
                f = And((f, a))
            got = canonicalize(f)
            if expected is None:
                expected = got
            assert got == expected


def test_canonicalize_dedups_conjuncts():
    assert canonicalize(And((lt(Y, 5), lt(Y, 5)))) == lt(Y, 5)


def test_canonicalize_folds_short_and():
    assert canonicalize(And((P,))) == P
    assert canonicalize(And((TRUE, P, TRUE))) == P
    assert canonicalize(And((TRUE,))) == TRUE
    assert canonicalize(And(())) == TRUE
    # an equality is rebuilt from canonical sides and never folded
    assert canonicalize(BoolNeq(And((TRUE, P)), TRUE)) == BoolNeq(P, TRUE)
    assert canonicalize(BoolEq(TRUE, TRUE)) == BoolEq(TRUE, TRUE)


formulas = st.builds(
    lambda seed, atoms: fragment_formula(random.Random(seed), max_atoms=atoms),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
)


@given(formulas)
@settings(max_examples=200)
def test_canonicalize_idempotent(f):
    once = canonicalize(f)
    assert canonicalize(once) == once


@given(formulas, formulas)
@settings(max_examples=100)
def test_conjoin_free_vars_union(c, d):
    got = free_vars(conjoin(c, d))
    if FALSE in (c, d):
        assert got == frozenset()  # the absorbing identity collapses the term
    else:
        assert got == free_vars(c) | free_vars(d)


# ---------------------------------------------------------------------------
# free_vars


def test_free_vars_empty():
    assert free_vars(TRUE) == frozenset()


def test_free_vars_collects_sorts():
    assert free_vars(And((ge(Z, 10), eq_(Z, 9)))) == frozenset({Var("Z", Sort.INT)})
    assert free_vars(lt(W, Y)) == frozenset({Var("W", Sort.INT), Var("Y", Sort.INT)})


def test_free_vars_sort_conflict():
    with pytest.raises(SortConflict):
        free_vars(And((Var("A", Sort.BOOL), lt(Var("A", Sort.INT), 5))))


# ---------------------------------------------------------------------------
# lower (the tests keep the name of the eager lowering they replaced)

TRUE_GOAL, FALSE_GOAL = DLGoal([], []), DLGoal([], [()])


def _atoms(*atoms) -> DLGoal:
    return DLGoal(list(atoms), [])


def test_to_dnf_tightens_strict():
    assert lower(lt(Y, 5)) == _atoms(DLAtom("Y", None, 4))


def test_dl_atom_prints_zero_for_none():
    assert str(DLAtom("Y", None, 4)) == "Y - 0 <= 4"
    assert str(DLAtom(None, "Y", -20)) == "0 - Y <= -20"
    assert str(DLAtom("X", "Y", -1)) == "X - Y <= -1"


def test_to_dnf_boolean_variables_are_bounds():
    assert lower(P) == _atoms(DLAtom(None, "P", -1))
    assert lower(P, False) == _atoms(DLAtom("P", None, 0))
    assert lower(And((P, Q)), True) == _atoms(DLAtom(None, "P", -1), DLAtom(None, "Q", -1))


def test_to_dnf_literal_on_the_left():
    assert lower(Cmp("<", IntLit(3), X)) == lower(gt(X, 3)) == _atoms(DLAtom(None, "X", -4))
    # 2 - 3 <= -1 holds and 3 - 2 <= -1 does not
    assert lower(Cmp("=/==", IntLit(2), IntLit(3))) == DLGoal([], [(TRUE_GOAL, FALSE_GOAL)])
    assert lower(Cmp("===", IntLit(2), IntLit(3))) == FALSE_GOAL


def test_lower_of_a_short_and():
    assert lower(And((P,))) == lower(P)
    assert lower(And((P,)), False) == DLGoal([], [(lower(P, False),)])
    assert lower(And(())) == TRUE_GOAL
    assert lower(And(()), False) == FALSE_GOAL


def test_to_dnf_rejects_a_name_used_at_both_sorts():
    with pytest.raises(SortConflict):
        lower(And((Var("A", Sort.BOOL), lt(Var("A", Sort.INT), 0))))
    # every subformula is lowered, so a disjunct that would never be split still counts
    with pytest.raises(SortConflict):
        lower(And((P, lt(Var("P", Sort.INT), 0))), False)
    with pytest.raises(SortConflict):
        lower(BoolNeq(P, lt(Var("P", Sort.INT), 0)))


def test_to_dnf_flips_negation():
    assert lower(lt(Y, 20), False) == _atoms(DLAtom(None, "Y", -20))
    assert lower(ne_(Y, 20), False) == lower(eq_(Y, 20))


def test_to_dnf_equality_splits_bounds():
    got = lower(And((ge(Z, 10), eq_(Z, 9))))
    assert got == _atoms(DLAtom(None, "Z", -10), DLAtom("Z", None, 9), DLAtom(None, "Z", -9))
    # brute force over Z in [0, 20] agrees this is unsatisfiable
    assert not any(z >= 10 and z == 9 for z in range(21))
    assert all(not all(literal_holds(a, {"Z": z}) for a in got.atoms) for z in range(21))


def test_to_dnf_disequality_two_disjuncts():
    assert lower(ne_(X, Y)) == DLGoal(
        [], [(_atoms(DLAtom("X", "Y", -1)), _atoms(DLAtom("Y", "X", -1)))]
    )
    # left < right comes first, whichever side the literal is on
    assert lower(ne_(X, 3)).splits == [(_atoms(DLAtom("X", None, 2)), _atoms(DLAtom(None, "X", -4)))]
    assert lower(Cmp("=/==", IntLit(3), X)).splits == [
        (_atoms(DLAtom(None, "X", -4)), _atoms(DLAtom("X", None, 2)))
    ]


def test_lower_keeps_each_disjunction_one_split():
    # 2^12 conjuncts once expanded; lowered, 12 splits of two single atoms
    goal = lower(And(tuple(ne_(X, k) for k in range(12))))
    assert goal.atoms == []
    assert len(goal.splits) == 12
    assert all(len(split) == 2 and all(len(alt.atoms) == 1 for alt in split) for split in goal.splits)
    # only the disjunctive polarity splits: P and Q is two atoms, its negation one split
    assert lower(And((P, Q))) == _atoms(DLAtom(None, "P", -1), DLAtom(None, "Q", -1))
    assert lower(And((P, Q)), False) == DLGoal(
        [], [(_atoms(DLAtom("P", None, 0)), _atoms(DLAtom("Q", None, 0)))]
    )


def test_lower_splits_a_boolean_equality_two_ways():
    p, q = DLAtom(None, "P", -1), DLAtom(None, "Q", -1)
    not_p, not_q = DLAtom("P", None, 0), DLAtom("Q", None, 0)
    # ===: both sides true, then both false; =/==: left true and right
    # false, then the converse; a negated equality has the other's split
    same = DLGoal([], [(_atoms(p, q), _atoms(not_p, not_q))])
    mixed = DLGoal([], [(_atoms(p, not_q), _atoms(not_p, q))])
    assert lower(BoolEq(P, Q)) == lower(BoolNeq(P, Q), False) == same
    assert lower(BoolNeq(P, Q)) == lower(BoolEq(P, Q), False) == mixed
    # compound sides are lowered inside each alternative, with its polarity
    assert lower(BoolNeq(And((P, Q)), TRUE)) == DLGoal(
        [], [(DLGoal([p, q], [()]), DLGoal([], [(_atoms(not_p), _atoms(not_q))]))]
    )


def test_to_dnf_same_variable_folds():
    assert lower(lt(X, X)) == FALSE_GOAL
    assert lower(le(X, X)) == TRUE_GOAL


def test_to_dnf_rejects_bool_equality():
    # a variable in a position of the other sort
    with pytest.raises(SortConflict):
        lower(BoolNeq(X, TRUE))
    with pytest.raises(SortConflict):
        lower(Cmp("<", P, IntLit(0)))


@pytest.mark.parametrize(
    "call, op",
    [
        (lambda: Cmp("=", X, IntLit(1)), "="),
        (lambda: lower(Cmp("==", X, IntLit(1))), "=="),
        (lambda: Solver().check_sat(Cmp("==", X, IntLit(1))), "=="),
        (lambda: Solver().entails(TRUE, Cmp("<<", X, IntLit(1))), "<<"),  # lowered negated
    ],
    ids=["constructor", "lower", "check_sat", "entails"],
)
def test_an_unknown_comparison_operator_is_refused(call, op):
    # the parser builds only the six operators; `Cmp` refuses any other
    # string as it is built, so no solver entry point ever meets one
    with pytest.raises(TypeError, match=f"^unknown comparison operator '{op}'$"):
        call()


def test_ill_sorted_comparison_is_never_canonical():
    # the constructor accepts it, so that `lower` and the oracle are tested
    # on it; `canonicalize`, and so the solver, reject it, and so never flag
    # it canonical.  No constructor sets the flag, on a well-sorted
    # comparison either: `canonicalize` sets it on what it returns.
    bad, good = Cmp("<", P, IntLit(1)), Cmp("<", X, IntLit(1))
    assert not bad._canon and not good._canon
    for term in (bad, And((gt(X, 0), bad)), BoolNeq(Cmp("===", X, Q), TRUE)):
        with pytest.raises(SortConflict, match="Boolean variable . used as an integer"):
            canonicalize(term)
    with pytest.raises(SortConflict):
        Solver().check_sat(bad)
    assert not bad._canon
    assert canonicalize(good) is good and good._canon


@pytest.mark.parametrize("args", [(FALSE, Cmp("<", P, IntLit(1))), (Cmp("<", P, IntLit(1)), FALSE)])
def test_a_sort_error_is_reported_after_false_as_before_it(args):
    # `false` absorbs a conjunction, but every conjunct is canonicalized,
    # and so checked, before the conjunction is read
    with pytest.raises(SortConflict, match="^Boolean variable P used as an integer$"):
        canonicalize(And(args))


def test_canonical_form_refuses_a_node_of_the_wrong_kind_by_its_name():
    from sccpe import NIL, Tell, canon_process, replace

    for call, kind in (
        (lambda: canonicalize(IntLit(1)), "a formula"),
        (lambda: canonicalize(And((TRUE, Cmp("<", TRUE, IntLit(1))))), "an integer expression"),
        (lambda: canon_process(TRUE), "a process"),
        (lambda: canon_process(Tell(NIL)), "a formula"),
        (lambda: replace(TRUE, 1, NIL), "a process"),
    ):
        with pytest.raises(TypeError, match=f"^not {kind}: "):
            call()


def _goal_true(goal, env):
    return all(literal_holds(a, env) for a in goal.atoms) and all(
        any(_goal_true(alt, env) for alt in split) for split in goal.splits
    )


@given(formulas, st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_to_dnf_preserves_semantics(f, seed):
    rng = random.Random(seed)
    goal = lower(f)
    for _ in range(10):
        env = {n: rng.randint(-12, 12) for n in INT_NAMES}
        env.update({n: rng.random() < 0.5 for n in BOOL_NAMES})
        assert compile_term(f)(env) == _goal_true(goal, env)


# ---------------------------------------------------------------------------
# printer / reader round-trip


def test_format_examples():
    assert format_formula(eq_(X, 25)) == "X:Integer === 25"
    assert format_formula(P) == "P:Boolean"
    # and binds looser than === and =/==, which do not chain; a comparison
    # is parenthesized as the side of a Boolean (dis)equality
    assert format_formula(BoolNeq(lt(Y, 20), TRUE)) == "(Y:Integer < 20) =/== true"
    assert format_formula(BoolEq(eq_(Y, X), P)) == "(Y:Integer === X:Integer) === P:Boolean"
    assert format_formula(And((eq_(Y, X), P))) == "Y:Integer === X:Integer and P:Boolean"
    assert format_formula(BoolNeq(And((P, Q)), FALSE)) == "(P:Boolean and Q:Boolean) =/== false"
    assert format_formula(And((BoolEq(P, Q), P))) == "P:Boolean === Q:Boolean and P:Boolean"
    assert format_formula(BoolEq(BoolNeq(P, Q), P)) == "(P:Boolean =/== Q:Boolean) === P:Boolean"
    assert format_formula(And((And((P, Q)), P))) == "(P:Boolean and Q:Boolean) and P:Boolean"


def test_format_empty_and_prints_its_unit():
    assert format_formula(And(())) == "true"
    assert read_formula("true") == canonicalize(And(()))


def test_read_examples():
    assert read_formula("X:Integer === 25") == eq_(X, 25)
    assert read_formula("Z:Integer >= (10).Integer and Z:Integer === (9).Integer") == And(
        (ge(Z, 10), eq_(Z, 9))
    )
    assert read_formula("(true).Boolean =/== true") == BoolNeq(TRUE, TRUE)
    assert read_formula("-5 < X:Integer") == Cmp("<", IntLit(-5), X)


def test_read_rejects_garbage():
    with pytest.raises(ValueError):
        read_formula("X:Integer ===")
    with pytest.raises(ValueError):
        read_formula("25")  # an integer is not a formula
    with pytest.raises(ValueError):
        read_formula("X === 25")  # missing sort annotation


@given(formulas)
@settings(max_examples=300)
def test_print_read_round_trip(f):
    assert read_formula(format_formula(f)) == f


def test_print_read_round_trip_exotic():
    exotic = [
        BoolNeq(P, BoolEq(Q, P)),
        BoolNeq(And((BoolEq(P, Q), BoolNeq(And((P, Q, P)), P))), TRUE),
        And((And((P, Q)), BoolEq(eq_(X, 1), Q))),
    ]
    for f in exotic:
        assert read_formula(format_formula(f)) == f


# ---------------------------------------------------------------------------
# term order sanity


def test_term_key_total_on_corpus():
    rng = random.Random(99)
    terms = [fragment_formula(rng) for _ in range(200)]
    terms += [X, IntLit(-3), TRUE, P]
    keys = sorted(term_key(t) for t in terms)  # all keys mutually comparable
    assert len(keys) == len(terms)
    assert term_key(canonicalize(And((P, Q)))) == term_key(canonicalize(And((Q, P))))


# ---------------------------------------------------------------------------
# the term language and its consumers stay in step

# One canonical sample per term class; an integer class is tested inside a
# comparison.
SAMPLES = {
    BoolConst: FALSE,
    Var: P,
    IntLit: IntLit(-3),
    And: And((P, lt(X, 1))),
    BoolEq: BoolEq(P, Q),
    BoolNeq: BoolNeq(P, TRUE),
    Cmp: Cmp("=/==", X, Y),
}


@pytest.mark.parametrize(
    "cls", sorted(BOOL_KINDS | INT_KINDS, key=lambda c: c._tag), ids=lambda c: c.__name__
)
def test_every_term_class_lowers_prints_reads_stores_and_renders(cls):
    assert cls in SAMPLES, f"no sample term for {cls.__name__}"
    t = SAMPLES[cls]
    assert type(t) is cls
    f = t if cls in BOOL_KINDS else Cmp("<", t, X)
    c = canonicalize(f)
    # `_chain` builds a new conjunction; any other canonical part of an
    # unflagged input is kept, flagged in place
    assert (c == f and canonicalize(c) is c) if cls is And else c is f
    lower(f)
    assert read_formula(format_formula(f)) == f
    s = normalize(SysState((StoreObj(ROOT, f),)))
    assert s.objects[0].constraint == f
    assert round_trip(s) == s
    assert smtlib_script(f).endswith("(check-sat)\n")


# ---------------------------------------------------------------------------
# the retired connectives, written with the forms that remain

# not, or, xor and implies left the term language; each is written with
# and, ===, =/== and the constants. The entry holds the connective's truth
# function and its encoding.
RETIRED = {
    "not": (lambda a, b: not a, lambda f, g: BoolNeq(f, TRUE)),
    "or": (
        lambda a, b: a or b,
        lambda f, g: BoolNeq(And((BoolNeq(f, TRUE), BoolNeq(g, TRUE))), TRUE),
    ),
    "xor": (lambda a, b: a != b, lambda f, g: BoolNeq(f, g)),
    "implies": (
        lambda a, b: not a or b,
        lambda f, g: BoolNeq(And((f, BoolNeq(g, TRUE))), TRUE),
    ),
}
# operand pairs whose four truth combinations are all satisfiable: two
# atoms, and two compound operands that lower to splits of their own
OPERANDS = [(P, Q), (lt(Y, 20), And((Q, gt(X, 2))))]


@pytest.mark.parametrize("op", RETIRED)
def test_a_retired_connective_is_written_with_the_remaining_forms(op):
    table, encode = RETIRED[op]
    rng = random.Random(op)
    for f, g in OPERANDS:
        e = encode(f, g)
        # the oracle and the lowering evaluate the encoding to the truth table
        goal = lower(e)
        for _ in range(40):
            env = {n: rng.randint(-12, 12) for n in INT_NAMES}
            env.update({n: rng.random() < 0.5 for n in BOOL_NAMES})
            want = table(compile_term(f)(env), compile_term(g)(env))
            assert compile_term(e)(env) is want
            assert _goal_true(goal, env) is want
        # the solver agrees once both operands are fixed
        for a, b in itertools.product((True, False), repeat=2):
            fix = And((BoolEq(f, TRUE if a else FALSE), BoolEq(g, TRUE if b else FALSE)))
            assert Solver().check_sat(And((e, fix))) is table(a, b)
            assert Solver().entails(fix, e) is table(a, b)


@pytest.mark.parametrize("op", RETIRED)
def test_a_retired_connective_encoding_prints_reads_stores_and_renders(op):
    _, encode = RETIRED[op]
    for f, g in OPERANDS:
        e = canonicalize(encode(f, g))
        assert canonicalize(e) is e
        assert read_formula(format_formula(e)) == e
        s = normalize(SysState((StoreObj(ROOT, e),)))
        assert s.objects[0].constraint == e
        assert round_trip(s) == s
        assert smtlib_script(e).endswith("(check-sat)\n")
