import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from formula_reader import read_formula
from model_oracle import compile_term, literal_holds
from randgen import BOOL_NAMES, INT_NAMES, fragment_formula
from sccpe import (
    FALSE,
    TRUE,
    FragmentUnsupported,
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
    ne_,
    negate,
    to_dnf,
)
from sccpe.formula import (
    And,
    Arith,
    BoolEq,
    BoolITE,
    Cmp,
    DLAtom,
    DnfLimitExceeded,
    Implies,
    IntITE,
    IntLit,
    Not,
    Or,
    Xor,
    term_key,
)

W, X, Y, Z = (intvar(n) for n in "WXYZ")
P, Q = (boolvar(n) for n in "PQ")


# ---------------------------------------------------------------------------
# conjoin / negate identities


def test_conjoin_true_unit():
    assert conjoin(Y < 5, TRUE) == (Y < 5)
    assert conjoin(TRUE, Y < 5) == (Y < 5)


def test_conjoin_true_true():
    assert conjoin(TRUE, TRUE) == TRUE


def test_conjoin_false_absorbs():
    assert conjoin(Y < 5, FALSE) == FALSE
    assert conjoin(FALSE, Y < 5) == FALSE


def test_conjoin_plain_pair():
    got = conjoin(Z >= 10, eq_(Z, 9))
    assert got == And((Z >= 10, eq_(Z, 9)))
    assert format_formula(got) == "Z:Integer >= 10 and Z:Integer === 9"


def test_negate_constants():
    assert negate(TRUE) == FALSE
    assert negate(FALSE) == TRUE


def test_negate_structural():
    assert negate(Y < 20) == Not(Y < 20)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_drops_true_units():
    f = And((And((TRUE, eq_(X, 25))), TRUE))
    assert canonicalize(f) == eq_(X, 25)


def test_canonicalize_false_absorbs():
    assert canonicalize(And((FALSE, Y < 5))) == FALSE


def test_canonicalize_sorts_all_permutations():
    atoms = [Y < 5, eq_(X, 25), Z >= 10, P]
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
    assert canonicalize(And((Y < 5, Y < 5))) == (Y < 5)


def test_canonicalize_or_identities():
    assert canonicalize(Or((FALSE, P))) == P
    assert canonicalize(Or((TRUE, P))) == TRUE
    assert canonicalize(Not(TRUE)) == FALSE


def test_canonicalize_folds_short_xor():
    assert canonicalize(Xor((P,))) == P
    assert canonicalize(Xor((FALSE, P, FALSE))) == P
    assert format_formula(canonicalize(Xor(()))) == "false"


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
    assert free_vars(And((Z >= 10, eq_(Z, 9)))) == frozenset({Var("Z", Sort.INT)})
    assert free_vars(W < Y) == frozenset({Var("W", Sort.INT), Var("Y", Sort.INT)})


def test_free_vars_sort_conflict():
    with pytest.raises(SortConflict):
        free_vars(And((Var("A", Sort.BOOL), Var("A", Sort.INT) < 5)))


# ---------------------------------------------------------------------------
# to_dnf


def test_to_dnf_tightens_strict():
    assert to_dnf(Y < 5) == [frozenset({DLAtom("Y", None, 4)})]


def test_dl_atom_prints_zero_for_none():
    assert str(DLAtom("Y", None, 4)) == "Y - 0 <= 4"
    assert str(DLAtom(None, "Y", -20)) == "0 - Y <= -20"
    assert str(DLAtom("X", "Y", -1)) == "X - Y <= -1"


def test_to_dnf_boolean_variables_are_bounds():
    assert to_dnf(P) == [frozenset({DLAtom(None, "P", -1)})]
    assert to_dnf(Not(P)) == [frozenset({DLAtom("P", None, 0)})]
    assert to_dnf(And((P, Not(P)))) == [frozenset({DLAtom(None, "P", -1), DLAtom("P", None, 0)})]


def test_to_dnf_literal_on_the_left():
    assert to_dnf(Cmp("<", IntLit(3), X)) == to_dnf(X > 3) == [frozenset({DLAtom(None, "X", -4)})]
    assert to_dnf(Cmp("=/==", IntLit(2), IntLit(3))) == [frozenset()]
    assert to_dnf(Cmp("===", IntLit(2), IntLit(3))) == []


def test_to_dnf_folds_short_xor():
    assert to_dnf(Xor((P,))) == to_dnf(P)
    assert to_dnf(Not(Xor((P,)))) == to_dnf(Not(P))
    assert to_dnf(Xor(())) == []
    assert to_dnf(Not(Xor(()))) == [frozenset()]


def test_to_dnf_rejects_a_name_used_at_both_sorts():
    with pytest.raises(SortConflict):
        to_dnf(And((Var("A", Sort.BOOL), Var("A", Sort.INT) < 0)))


def test_to_dnf_flips_negation():
    assert to_dnf(Not(Y < 20)) == [frozenset({DLAtom(None, "Y", -20)})]


def test_to_dnf_equality_splits_bounds():
    got = to_dnf(And((Z >= 10, eq_(Z, 9))))
    assert got == [frozenset({DLAtom(None, "Z", -10), DLAtom("Z", None, 9), DLAtom(None, "Z", -9)})]
    # brute force over Z in [0, 20] agrees this is unsatisfiable
    assert not any(z >= 10 and z == 9 for z in range(21))
    assert all(not all(literal_holds(a, {"Z": z}) for a in got[0]) for z in range(21))


def test_to_dnf_disequality_two_disjuncts():
    got = to_dnf(ne_(X, Y))
    assert set(got) == {
        frozenset({DLAtom("X", "Y", -1)}),
        frozenset({DLAtom("Y", "X", -1)}),
    }
    # left < right comes first, whichever side the literal is on
    assert to_dnf(ne_(X, 3)) == [frozenset({DLAtom("X", None, 2)}), frozenset({DLAtom(None, "X", -4)})]
    assert to_dnf(Cmp("=/==", IntLit(3), X)) == [
        frozenset({DLAtom(None, "X", -4)}),
        frozenset({DLAtom("X", None, 2)}),
    ]


def test_to_dnf_same_variable_folds():
    assert to_dnf(X < X) == []
    assert to_dnf(X <= X) == [frozenset()]


def test_to_dnf_rejects_arithmetic():
    with pytest.raises(FragmentUnsupported):
        to_dnf(X + 1 < Y)


def test_to_dnf_rejects_bool_equality():
    # Boolean = and =/= are lowered now; a Boolean conditional still is not
    with pytest.raises(FragmentUnsupported):
        to_dnf(BoolITE(P, Q, FALSE))


def test_to_dnf_limit():
    f = ne_(X, Y)
    for _ in range(14):
        f = And((f, ne_(X, Y)))
    with pytest.raises(DnfLimitExceeded):
        to_dnf(And((f, f)), limit=64)


def _dnf_holds(dnf, env):
    return any(all(literal_holds(lit, env) for lit in conj) for conj in dnf)


@given(formulas, st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_to_dnf_preserves_semantics(f, seed):
    rng = random.Random(seed)
    dnf = to_dnf(f)
    for _ in range(10):
        env = {n: rng.randint(-12, 12) for n in INT_NAMES}
        env.update({n: rng.random() < 0.5 for n in BOOL_NAMES})
        assert compile_term(f)(env) == _dnf_holds(dnf, env)


# ---------------------------------------------------------------------------
# evaluation details


def test_eval_euclidean_division():
    env = {}
    assert compile_term(eq_(Arith("div", IntLit(7), IntLit(2)), 3))(env)
    assert compile_term(eq_(Arith("mod", IntLit(7), IntLit(2)), 1))(env)
    assert compile_term(eq_(Arith("div", IntLit(-7), IntLit(2)), -4))(env)
    assert compile_term(eq_(Arith("mod", IntLit(-7), IntLit(2)), 1))(env)
    assert compile_term(eq_(Arith("mod", IntLit(-7), IntLit(-2)), 1))(env)


def test_eval_conditional_choice():
    f = eq_(IntITE(P, IntLit(1), IntLit(2)), 1)
    assert compile_term(f)({"P": True})
    assert not compile_term(f)({"P": False})
    g = BoolITE(P, Q, TRUE)
    assert compile_term(g)({"P": True, "Q": False}) is False
    assert compile_term(g)({"P": False, "Q": False}) is True


# ---------------------------------------------------------------------------
# printer / reader round-trip


def test_format_examples():
    assert format_formula(eq_(X, 25)) == "X:Integer === 25"
    assert format_formula(P) == "P:Boolean"
    assert format_formula(Not(Y < 20)) == "not(Y:Integer < 20)"
    assert format_formula(Or((And((P, Q)), FALSE))) == "P:Boolean and Q:Boolean or false"
    assert format_formula(And((Or((P, Q)), P))) == "(P:Boolean or Q:Boolean) and P:Boolean"


def test_format_empty_chain_prints_its_unit():
    for f, text in ((And(()), "true"), (Or(()), "false"), (Xor(()), "false")):
        assert format_formula(f) == text
        assert read_formula(text) == canonicalize(f)


def test_read_examples():
    assert read_formula("X:Integer === 25") == eq_(X, 25)
    assert read_formula("Z:Integer >= (10).Integer and Z:Integer === (9).Integer") == And(
        (Z >= 10, eq_(Z, 9))
    )
    assert read_formula("not((true).Boolean)") == Not(TRUE)
    assert canonicalize(read_formula("not((true).Boolean)")) == FALSE
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
        Implies(P, Xor((Q, P))),
        BoolEq(P, BoolITE(Q, P, FALSE)),
        eq_(Arith("div", X + Y, IntLit(2)), Arith("mod", X, IntLit(3))),
        eq_(IntITE(P, -X, IntLit(-7)), Y * Z),
        Not(And((Or((P, Q)), Xor((P, Q, P))))),
    ]
    for f in exotic:
        assert read_formula(format_formula(f)) == f


# ---------------------------------------------------------------------------
# term order sanity


def test_term_key_total_on_corpus():
    rng = random.Random(99)
    terms = [fragment_formula(rng) for _ in range(200)]
    terms += [X, IntLit(-3), X + Y, IntITE(P, X, Y), TRUE, P]
    keys = sorted(term_key(t) for t in terms)  # all keys mutually comparable
    assert len(keys) == len(terms)
    assert term_key(canonicalize(And((P, Q)))) == term_key(canonicalize(And((Q, P))))
