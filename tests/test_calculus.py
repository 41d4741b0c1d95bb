import random

from hypothesis import given, settings, strategies as st

from builders import eq_, ge, intvar, lt, store_map
from engine_oracle import oracle_step
from randgen import small_state, raw_state
from systems import AID0, AID01, AID1, AID20, base_system
from sccpe import (
    NIL,
    ROOT,
    TRUE,
    AgentId,
    Ask,
    Extr,
    Par,
    ProcObj,
    ProcVar,
    Rec,
    Solver,
    Space,
    StoreObj,
    SysState,
    Tell,
    canon_process,
    conjoin,
    normalize,
    par,
    replace,
    run,
    step,
)
from sccpe.calculus import format_process
from sccpe.formula import term_key

W, X, Y, Z = (intvar(n) for n in "WXYZ")


# ---------------------------------------------------------------------------
# agent ids


def test_agent_id_str():
    assert str(ROOT) == "root"
    assert str(AgentId((3, 1))) == "3 . 1 . root"


# ---------------------------------------------------------------------------
# replace


def test_replace_variable_hit_and_miss():
    assert replace(ProcVar(1), 1, Tell(TRUE)) == Tell(TRUE)
    assert replace(ProcVar(2), 1, Tell(TRUE)) == ProcVar(2)


def test_replace_unfolds_recursion_body():
    from sccpe import FALSE

    body = Par((ProcVar(1), Tell(FALSE)))
    rec = Rec(1, body)
    assert replace(body, 1, rec) == Par((rec, Tell(FALSE)))


def test_replace_skips_rec_subterms():
    inner = Rec(2, ProcVar(1))
    assert replace(inner, 1, Tell(TRUE)) == inner
    assert replace(Space(0, inner), 1, Tell(TRUE)) == Space(0, inner)


# ---------------------------------------------------------------------------
# normalize


def test_normalize_drops_nil_processes():
    s = SysState((ProcObj(ROOT, NIL), StoreObj(ROOT, TRUE)))
    assert normalize(s) == SysState((StoreObj(ROOT, TRUE),))


def test_normalize_merges_stores():
    s = SysState((StoreObj(AID1, ge(Z, 10)), StoreObj(AID1, eq_(Z, 9))))
    merged = normalize(s)
    assert merged.objects == (StoreObj(AID1, conjoin(eq_(Z, 9), ge(Z, 10))),)


def test_normalize_merge_true_is_identity():
    s = SysState((StoreObj(AID0, TRUE), StoreObj(AID0, lt(Y, 5))))
    assert normalize(s).objects == (StoreObj(AID0, lt(Y, 5)),)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_normalize_idempotent_and_order_independent(seed):
    rng = random.Random(seed)
    s = raw_state(rng)
    normal = normalize(s)
    assert normalize(normal) == normal
    objs = list(s.objects)
    rng.shuffle(objs)
    assert normalize(SysState(tuple(objs))) == normal


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_normalize_invariants(seed):
    s = normalize(raw_state(random.Random(seed)))
    seen_aids = set()
    for o in s.objects:
        if isinstance(o, StoreObj):
            assert o.aid not in seen_aids
            seen_aids.add(o.aid)
        else:
            assert o.program != NIL


# ---------------------------------------------------------------------------
# step: the six rules


def test_tell_requires_store():
    s = normalize(SysState((ProcObj(ROOT, Tell(lt(Y, 5))),)))
    assert step(s, Solver()) == []


def test_tell_merges_into_store():
    s = normalize(SysState((StoreObj(AID1, TRUE), ProcObj(AID1, Tell(ge(Z, 10))))))
    (succ,) = step(s, Solver())
    assert succ == SysState((StoreObj(AID1, ge(Z, 10)),))


def test_ask_fires_on_entailment():
    s = normalize(
        SysState((StoreObj(AID01, lt(Y, 5)), ProcObj(AID01, Ask(lt(Y, 20), Tell(lt(W, Y))))))
    )
    (succ,) = step(s, Solver())
    assert succ.objects == (StoreObj(AID01, lt(Y, 5)), ProcObj(AID01, Tell(lt(W, Y))))


def test_ask_blocked_without_entailment():
    s = normalize(SysState((StoreObj(AID1, lt(Y, X)), ProcObj(AID1, Ask(lt(Y, 3), Tell(TRUE))))))
    assert step(s, Solver()) == []


def test_ask_fires_under_inconsistent_store():
    bad = conjoin(ge(Z, 10), eq_(Z, 9))
    s = normalize(SysState((StoreObj(AID1, bad), ProcObj(AID1, Ask(lt(Y, 3), Tell(TRUE))))))
    succs = step(s, Solver())  # an inconsistent store entails every guard
    assert any(ProcObj(AID1, Tell(TRUE)) in t.objects for t in succs)


def test_parallel_symmetric_split_collapses():
    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(ROOT, Par((Tell(TRUE), Tell(TRUE)))))))
    succs = step(s, Solver())
    par_splits = [t for t in succs if len([o for o in t.objects if isinstance(o, ProcObj)]) == 2]
    assert len(par_splits) == 1


def test_parallel_three_way_splits():
    p = Par((Tell(eq_(X, 1)), Tell(eq_(X, 2)), Tell(eq_(X, 3))))
    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(ROOT, p))))
    succs = step(s, Solver())
    # one split per operand (tells also fire... but Par objects cannot tell yet)
    assert len(succs) == 3
    for t in succs:
        procs = sorted(
            (o.program for o in t.objects if isinstance(o, ProcObj)),
            key=lambda q: format_process(q),
        )
        assert len(procs) == 2


def test_space_creates_child_store():
    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(ROOT, Space(1, Tell(ge(Z, 10)))))))
    (succ,) = step(s, Solver())
    assert store_map(succ)[AID1] == TRUE
    assert ProcObj(AID1, Tell(ge(Z, 10))) in succ.objects


def test_space_requires_store():
    s = SysState((ProcObj(ROOT, Space(1, Tell(TRUE))),))
    assert step(normalize(s), Solver()) == []


def test_space_preserves_existing_child_store():
    s = normalize(
        SysState(
            (StoreObj(ROOT, TRUE), StoreObj(AID1, lt(Y, X)), ProcObj(ROOT, Space(1, Tell(TRUE))))
        )
    )
    (succ,) = step(s, Solver())
    assert store_map(succ)[AID1] == lt(Y, X)


def test_recursion_unfolds():
    from sccpe import FALSE

    rec = Rec(1, Par((ProcVar(1), Tell(FALSE))))
    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(ROOT, rec))))
    (succ,) = step(s, Solver())
    procs = [o.program for o in succ.objects if isinstance(o, ProcObj)]
    assert procs == [canon_process(Par((rec, Tell(FALSE))))]


def test_extrusion_moves_to_parent():
    body = Tell(lt(W, Y))
    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(AID0, Extr(0, body)))))
    (succ,) = step(s, Solver())
    assert ProcObj(ROOT, body) in succ.objects


def test_extrusion_blocked_on_wrong_space():
    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(AID0, Extr(1, Tell(TRUE))))))
    assert step(s, Solver()) == []
    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(ROOT, Extr(0, Tell(TRUE))))))
    assert step(s, Solver()) == []


def test_step_fig3_extrusion_from_space0(solver):
    base = base_system()
    (succ,) = step(base, solver)  # only the extrusion applies initially
    procs = [o for o in succ.objects if isinstance(o, ProcObj)]
    assert len(procs) == 1
    assert procs[0].aid == ROOT
    assert isinstance(procs[0].program, Space)


def test_step_tell_updates_space1_store(solver):
    s = normalize(
        SysState(
            (
                StoreObj(ROOT, TRUE),
                StoreObj(AID0, eq_(X, 25)),
                StoreObj(AID1, TRUE),
                StoreObj(AID01, lt(Y, 5)),
                ProcObj(AID1, Tell(ge(Z, 10))),
            )
        )
    )
    (succ,) = step(s, solver)
    assert store_map(succ)[AID1] == ge(Z, 10)


# ---------------------------------------------------------------------------
# run


def test_run_fixed_point_on_storeonly_state(solver):
    s = normalize(SysState((StoreObj(ROOT, TRUE),)))
    result = run(s, solver)
    assert result.terminal_states == (s,)
    assert result.states_explored == 1
    assert not result.truncated


def test_run_unguarded_recursion_exhausts_bound(solver):
    from sccpe import FALSE

    rec = Rec(1, Par((ProcVar(1), Tell(FALSE))))
    s = normalize(SysState((StoreObj(ROOT, TRUE), ProcObj(ROOT, Ask(TRUE, rec)))))
    sizes = []
    for depth in range(1, 6):
        result = run(s, solver, max_steps=depth)
        assert result.truncated
        sizes.append(result.states_explored)
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]


def test_run_base_program_unique_terminal(solver):
    result = run(base_system(), solver)
    assert not result.truncated
    assert len(result.terminal_states) == 1
    stores = store_map(result.terminal_states[0])
    assert stores == {
        ROOT: TRUE,
        AID0: eq_(X, 25),
        AID1: ge(Z, 10),
        AID01: lt(Y, 5),
        AID20: lt(W, Y),
    }


# ---------------------------------------------------------------------------
# properties: monotonicity, conservation, oracle agreement


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_store_monotonic_along_transitions(seed):
    solver = Solver()
    s = small_state(random.Random(seed))
    before = store_map(s)
    for succ in step(s, solver):
        after = store_map(succ)
        for aid, old in before.items():
            if aid in after:
                assert solver.entails(after[aid], old)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_parallel_preserves_leaves(seed):
    def leaves(program):
        if isinstance(program, Par):
            out = []
            for a in program.args:
                out.extend(leaves(a))
            return out
        return [program]

    solver = Solver()
    s = small_state(random.Random(seed))
    for i, o in enumerate(s.objects):
        if isinstance(o, ProcObj) and isinstance(o.program, Par):
            whole = sorted(map(format_process, leaves(o.program)))
            for k in range(len(o.program.args)):
                rest = o.program.args[:k] + o.program.args[k + 1 :]
                sibling = rest[0] if len(rest) == 1 else Par(rest)
                got = sorted(
                    map(format_process, leaves(o.program.args[k]) + leaves(sibling))
                )
                assert got == whole


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_step_agrees_with_oracle(seed):
    solver = Solver()
    s = small_state(random.Random(seed))
    assert set(step(s, solver)) == oracle_step(s, solver)


def test_successors_are_normalized_and_sorted(solver):
    s = base_system()
    succs = step(s, solver)
    assert [term_key(t) for t in succs] == sorted(term_key(t) for t in succs)
    for t in succs:
        assert normalize(t) == t


def test_elaborated_program_steps_into_reference_system(message_text, solver):
    from sccpe import elaborate, parse

    state = elaborate(parse(message_text))
    (succ,) = step(state, solver)  # the only move is entering space 0
    assert succ == base_system()
