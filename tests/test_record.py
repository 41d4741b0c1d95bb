"""Semantics of `Record`, the immutable base of the package's values, and
of `Node`, the record whose equality is one comparison of stored keys.

Every concrete record class of the package has a sample below; a class
without one fails `test_every_record_class_has_a_sample`, so a new class
is checked as soon as it exists.
"""

from __future__ import annotations

import copy
import importlib
import itertools
import pickle
import random

import pytest

import sccpe
from builders import boolvar, gt, intvar, lt
from randgen import fragment_atom, process, small_state, store_formula
from sccpe import (
    NIL,
    ROOT,
    TRUE,
    AgentId,
    Ask,
    Diagnostic,
    Extr,
    InconsistentStore,
    Par,
    ProcObj,
    ProcVar,
    ProgramAst,
    Rec,
    RunResult,
    SearchOutcome,
    Space,
    StoreEntails,
    StoreObj,
    StoresEquivalent,
    SysState,
    Tell,
)
from sccpe import calculus, formula, lang, solver
from sccpe.formula import (
    And,
    BoolConst,
    BoolEq,
    BoolNeq,
    Cmp,
    DLAtom,
    IntLit,
    Node,
    Record,
)
from sccpe.lang import AgentDecl, ProcessLine, _Token
from test_canonical import ref_key

search = importlib.import_module("sccpe.search")  # the package's `search` is the function

X, Y = intvar("X"), intvar("Y")
P, Q = boolvar("P"), boolvar("Q")
A0 = AgentId((0,))
STATE = SysState((StoreObj(ROOT, lt(X, 3)), StoreObj(A0, TRUE), ProcObj(A0, Tell(P))))

SAMPLES = [
    X,
    IntLit(-4),
    TRUE,
    And((P, lt(X, 3))),
    BoolEq(P, Q),
    BoolNeq(Q, P),
    Cmp("=/==", X, Y),
    NIL,
    Tell(lt(X, 3)),
    Ask(P, Tell(Q)),
    Par((Tell(P), ProcVar(1))),
    Space(2, Tell(P)),
    Rec(1, ProcVar(1)),
    Extr(0, Tell(P)),
    ProcVar(3),
    StoreObj(A0, gt(Y, 1)),
    ProcObj(ROOT, Space(0, NIL)),
    STATE,
    RunResult((STATE,), False, 4),
    DLAtom("X", None, -2),
    InconsistentStore(),
    StoreEntails(gt(X, 2)),
    StoresEquivalent(),
    SearchOutcome(3, 5, 2, True, False),
    Diagnostic("warning", 3, 7, "unused"),
    AgentDecl((0,), lt(X, 3), 2, 1),
    ProcessLine(Tell(P), 4, 1),
    ProgramAst(((("X",), formula.Sort.INT),), (ProcessLine(Tell(P), 4, 1),), ()),
    _Token("id", "X", 1, 1),
]
IDS = [type(r).__name__ for r in SAMPLES]

# The sample above leaves `deferred` empty; this one sets it, and so
# compares and copies a diagnostic inside a program.
SAMPLES.append(ProgramAst((), (), (Diagnostic("warning", 2, 5, "unused"),)))
IDS.append("ProgramAst-deferred")
# The one chain of the term language, empty: its key and hash hold an
# empty tuple of children, and it stands for true.
SAMPLES.append(And(()))
IDS.append("And-empty")
# Terms over terms, the way negation and the retired connectives are now
# written: a negated conjunction, and an equality of a comparison.
SAMPLES.append(BoolNeq(And((P, lt(X, 3))), TRUE))
IDS.append("BoolNeq-negation")
SAMPLES.append(BoolEq(lt(X, 3), Q))
IDS.append("BoolEq-compound")


def test_every_record_class_has_a_sample():
    bases = {Record, Node, formula._Bool, calculus._Proc}
    found = {
        v
        for module in (formula, calculus, search, solver, lang)
        for v in vars(module).values()
        if isinstance(v, type) and issubclass(v, Record)
    }
    assert found - bases == {type(r) for r in SAMPLES}
    exported = {v for v in vars(sccpe).values() if isinstance(v, type) and issubclass(v, Record)}
    assert exported <= found - bases


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_fields_are_read_only(r):
    for name in r.__match_args__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert not hasattr(r, "__dict__")


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_copy_deepcopy_and_pickle_give_an_equal_value(r):
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is type(r)
        assert twin == r and hash(twin) == hash(r)
        fields = [getattr(twin, n) for n in r.__match_args__]
        assert fields == [getattr(r, n) for n in r.__match_args__]


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_repr_names_every_field_in_order(r):
    text = repr(r)
    assert text.startswith(type(r).__name__ + "(") and text.endswith(")")
    at = 0
    for name in r.__match_args__:
        at = text.index(f"{name}={getattr(r, name)!r}", at)


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_constructor_arguments(r):
    # every field by position, none by keyword, and no default
    cls, names = type(r), r.__match_args__
    values = [getattr(r, n) for n in names]
    assert cls(*values) == r
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)
    if values:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values[:-1], **{names[-1]: values[-1]})


def test_positions_and_deferred_diagnostics_are_compared():
    assert AgentDecl((0,), P, 1, 2) == AgentDecl((0,), P, 1, 2)
    assert AgentDecl((0,), P, 1, 2) != AgentDecl((0,), P, 9, 9)
    assert ProcessLine(Tell(P), 1, 2) != ProcessLine(Tell(P), 1, 4)
    warning = Diagnostic("warning", 1, 1, "unused")
    assert ProgramAst((), (), (warning,)) != ProgramAst((), (), ())
    assert hash(AgentDecl((0,), P, 1, 2)) == hash(((0,), P, 1, 2))


def test_hash_is_that_of_the_compared_fields():
    assert hash(StoreEntails(P)) == hash((P,))
    assert hash(DLAtom("X", None, 1)) == hash(("X", None, 1))
    assert hash(InconsistentStore()) == hash(())
    assert InconsistentStore() == InconsistentStore() != StoresEquivalent()


@pytest.mark.parametrize(
    "path, text",
    [((), "root"), ((0,), "0 . root"), ((2, 0), "2 . 0 . root")],
    ids=["root", "child", "grandchild"],
)
def test_an_agent_is_its_path(path, text):
    a = AgentId(path)
    assert type(a) is AgentId and isinstance(a, tuple)
    assert a == path and path == a and hash(a) == hash(path)
    assert str(a) == text
    assert repr(a) == f"AgentId({path!r})" and type(eval(repr(a))) is AgentId and eval(repr(a)) == a
    assert a.path is a and not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.parent = a
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is AgentId and twin == a and hash(twin) == hash(a)
    # an object's key and hash hold its agent as the plain path
    store = StoreObj(a, TRUE)
    assert store._key == (0, path, TRUE._key) and hash(store) == hash((0, path, TRUE._hash))


def test_node_equality_is_key_equality_on_a_corpus():
    rng = random.Random(20)
    corpus = [fragment_atom(rng) for _ in range(60)] + [store_formula(rng) for _ in range(60)]
    corpus += [process(rng, depth=1) for _ in range(60)] + [small_state(rng) for _ in range(30)]
    corpus += [pickle.loads(pickle.dumps(t)) for t in corpus[::7]]  # equal, built apart
    keys = [ref_key(t) for t in corpus]
    equal_pairs = 0
    for (a, ka), (b, kb) in itertools.combinations(zip(corpus, keys), 2):
        same = ka == kb
        assert (a == b) is same and (a != b) is not same
        equal_pairs += same and a is not b
    assert equal_pairs > 20  # the corpus exercises both outcomes


def test_classes_sharing_a_tag_are_never_equal():
    store, const = StoreObj(ROOT, TRUE), TRUE
    assert store._key[0] == const._key[0] == 0
    assert store != const and const != store
    proc, var = ProcObj(ROOT, NIL), P
    assert proc._key[0] == var._key[0] == 1
    assert proc != var and var != proc
    assert BoolConst(True) is not TRUE and BoolConst(True) == TRUE
