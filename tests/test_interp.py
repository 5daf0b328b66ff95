"""Small-step machine: one test per rule, then the dependency functions
against brute-force oracles, then whole-program behaviors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsj import build_class_table, chain_depth, parse_expr, parse_program, run, step, subst
from fsj.gen import GenConfig, generate_program
from fsj.interp import (
    MUT_NO_THIS_SUBST,
    MUT_SWAP_ASSIGN,
    MachineState,
    StoredObject,
    StuckError,
    TraceEvent,
    contains,
    effect,
    handlers_of,
    initial_state,
    pending_key,
)
from fsj.syntax import (
    EMPTY,
    Assign,
    EffectBrace,
    Empty,
    FieldAccess,
    Invoke,
    Let,
    Loc,
    New,
    Seq,
    Subscribe,
    Var,
)

from conftest import load_corpus_file

CLASSES = """
class Nat extends Object {
  Nat() { super(); }
  Nat id(Nat m) { m }
  Nat self() { this }
}

class Cell extends Object {
  signal Nat echo = this.src;
  signal Nat src;
  Nat plain;
  Cell(Nat src, Nat plain) { super(); this.src = src; this.plain = plain; }
}

unit
"""


@pytest.fixture(scope="module")
def ct():
    return build_class_table(parse_program(CLASSES))


def cell_state(expr, handlers=None):
    """A store with one Cell at @0 holding Nats at @1 (src) and @2 (plain)."""
    return MachineState(
        expr,
        {0: StoredObject("Cell", (1, 2)), 1: StoredObject("Nat", ()), 2: StoredObject("Nat", ())},
        dict(handlers or {}),
        next_loc=3,
    )


# ---------------------------------------------------------------- rules


def test_rule_field_reads_store(ct):
    out = step(ct, cell_state(FieldAccess(Loc(0), "src")))
    assert out.rule == "R-FIELD"
    assert out.state.expr == Loc(1)


def test_rule_fields_substitutes_this(ct):
    st0 = cell_state(FieldAccess(Loc(0), "echo"))
    out = step(ct, st0)
    assert out.rule == "R-FIELDS"
    assert out.state.expr == FieldAccess(Loc(0), "src")
    assert out.state.store == st0.store
    assert out.state.handlers == st0.handlers
    assert out.state.next_loc == st0.next_loc


def test_rule_invk_binds_this_and_params(ct):
    out = step(ct, cell_state(Invoke(Loc(1), "id", (Loc(2),))))
    assert out.rule == "R-INVK"
    assert out.state.expr == Loc(2)
    out = step(ct, cell_state(Invoke(Loc(1), "self", ())))
    assert out.state.expr == Loc(1)


def test_rule_new_allocates(ct):
    out = step(ct, cell_state(New("Nat", ())))
    assert out.rule == "R-NEW"
    assert out.state.expr == Loc(3)
    assert out.state.store[3] == StoredObject("Nat", ())
    assert out.state.next_loc == 4
    kinds = [e.kind for e in out.events]
    assert kinds == ["alloc"]


def test_rule_assign_plain_is_silent(ct):
    out = step(ct, cell_state(Assign(Loc(0), "plain", Loc(1))))
    assert out.rule == "R-ASSIGN"
    assert isinstance(out.state.expr, Empty)
    assert out.state.store[0].fields == (1, 1)
    assert out.state.handlers == {}
    assert [e.kind for e in out.events] == ["plain-write"]


def test_rule_assigns_writes_then_braces(ct):
    h = Assign(Loc(0), "plain", FieldAccess(Loc(0), "src"))
    st0 = cell_state(Assign(Loc(0), "src", Loc(2)), handlers={(0, "src"): Seq(EMPTY, h)})
    out = step(ct, st0)
    assert out.rule == "R-ASSIGNS"
    # store updated before the scheduled work runs
    assert out.state.store[0].fields == (2, 2)
    assert out.state.expr == EffectBrace(Seq(EMPTY, h), (0, "src"))
    assert [e.kind for e in out.events] == ["signal-write", "handler-enqueue"]


def test_rule_assigns_without_listeners(ct):
    out = step(ct, cell_state(Assign(Loc(0), "src", Loc(2))))
    assert out.rule == "R-ASSIGNS"
    assert out.state.expr == EffectBrace(EMPTY, (0, "src"))


def test_rule_assigncont_expands_downstream(ct):
    h = Assign(Loc(0), "plain", Loc(1))
    st0 = cell_state(EffectBrace(EMPTY, (0, "src")), handlers={(0, "echo"): Seq(EMPTY, h)})
    out = step(ct, st0)
    assert out.rule == "R-ASSIGNCONT"
    # echo depends on src, so its handlers are spliced in
    assert out.state.expr == Seq(EMPTY, h)


def test_rule_assigncont_no_downstream(ct):
    out = step(ct, cell_state(EffectBrace(EMPTY, (0, "plain"))))
    assert out.rule == "R-ASSIGNCONT"
    assert isinstance(out.state.expr, Empty)


def test_rule_subscribe_appends(ct):
    h1 = Assign(Loc(0), "plain", Loc(1))
    h2 = Assign(Loc(0), "plain", Loc(2))
    st0 = cell_state(Subscribe(Loc(0), "src", h1))
    out = step(ct, st0)
    assert out.rule == "R-SUBSCRIBE"
    assert isinstance(out.state.expr, Empty)
    assert out.state.handlers[(0, "src")] == Seq(EMPTY, h1)
    st1 = out.state
    st1.expr = Subscribe(Loc(0), "src", h2)
    out = step(ct, st1)
    assert out.state.handlers[(0, "src")] == Seq(Seq(EMPTY, h1), h2)
    # a write reports one registration per subscription on its key
    st2 = out.state
    st2.expr = Assign(Loc(0), "src", Loc(2))
    out = step(ct, st2)
    assert [e.count for e in out.events if e.kind == "handler-enqueue"] == [2]


def test_rule_subscribe_keeps_handler_unevaluated(ct):
    h = Assign(Loc(0), "plain", New("Nat", ()))
    out = step(ct, cell_state(Subscribe(Loc(0), "src", h)))
    assert out.state.handlers[(0, "src")].second == h
    assert out.state.store == cell_state(EMPTY).store  # no allocation happened


def test_rule_cat(ct):
    out = step(ct, cell_state(Seq(EMPTY, Loc(1))))
    assert out.rule == "R-CAT"
    assert out.state.expr == Loc(1)


def test_rule_let_substitutes_value(ct):
    out = step(ct, cell_state(Let("x", Loc(1), FieldAccess(Var("x"), "src"))))
    assert out.rule == "R-LET"
    assert out.state.expr == FieldAccess(Loc(1), "src")


def test_let_bound_evaluated_first(ct):
    out = step(ct, cell_state(Let("x", FieldAccess(Loc(0), "src"), Var("x"))))
    assert out.rule == "R-FIELD"
    assert out.state.expr == Let("x", Loc(1), Var("x"))


def test_terminal_states_do_not_step(ct):
    assert step(ct, cell_state(Loc(0))) is None
    assert step(ct, cell_state(EMPTY)) is None


# ------------------------------------------------------- evaluation order


def test_receiver_before_arguments(ct):
    e = Invoke(New("Nat", ()), "id", (New("Nat", ()),))
    out = step(ct, cell_state(e))
    assert out.state.expr == Invoke(Loc(3), "id", (New("Nat", ()),))


def test_no_descent_into_seq_right(ct):
    # the ill-formed right arm is not touched while the left arm steps
    e = Seq(Seq(EMPTY, EMPTY), Var("junk"))
    out = step(ct, cell_state(e))
    assert out.rule == "R-CAT"
    assert out.state.expr == Seq(EMPTY, Var("junk"))


def test_no_descent_into_handler(ct):
    e = Subscribe(Loc(0), "src", Var("junk"))
    out = step(ct, cell_state(e))
    assert out.rule == "R-SUBSCRIBE"


def test_assign_receiver_then_value(ct):
    e = Assign(FieldAccess(Loc(0), "src"), "plain", New("Nat", ()))
    out = step(ct, cell_state(e))
    assert out.state.expr == Assign(Loc(1), "plain", New("Nat", ()))


# ----------------------------------------------------------- stuck states


def test_stuck_on_dangling_location(ct):
    with pytest.raises(StuckError):
        step(ct, cell_state(FieldAccess(Loc(99), "src")))


def test_stuck_on_free_variable(ct):
    with pytest.raises(StuckError):
        step(ct, cell_state(Var("ghost")))


def test_stuck_on_composite_write(ct):
    """The dynamic half of the write restriction: no rule covers it."""
    with pytest.raises(StuckError):
        step(ct, cell_state(Assign(Loc(0), "echo", Loc(1))))


def test_run_reports_stuck(ct):
    res = run(ct, Var("ghost"))
    assert res.status == "stuck"
    assert "stuck" in res.stuck_message


# ----------------------------------------------------------- substitution


def test_subst_shadowing():
    e = parse_expr("let x = x in x")
    out = subst(e, {"x": Loc(9)})
    assert out == Let("x", Loc(9), Var("x"))


def test_subst_reaches_handlers_and_unrelated_lets():
    e = parse_expr("let y = x in x.f.subscribe(x.g = y)")
    out = subst(e, {"x": Loc(4)})
    assert out == Let(
        "y", Loc(4), Subscribe(Loc(4), "f", Assign(Loc(4), "g", Var("y")))
    )


def test_subst_into_brace_body():
    e = EffectBrace(Assign(Var("x"), "f", Var("x")), (3, "f"))
    out = subst(e, {"x": Loc(3)})
    assert out == EffectBrace(Assign(Loc(3), "f", Loc(3)), (3, "f"))


# ------------------------------------------------- dependency functions


def test_contains_is_syntactic():
    e = parse_expr("this.a.plus(this.b)")
    e = subst(e, {"this": Loc(5)})
    assert contains(e, (5, "a"))
    assert contains(e, (5, "b"))
    assert not contains(e, (5, "c"))
    assert not contains(e, (6, "a"))
    # calls are not unfolded: the key read inside a body is invisible
    assert not contains(Invoke(Loc(5), "m", ()), (5, "a"))


def effect_oracle(ct, store, key):
    """Fixpoint restatement of effect() used as an independent check."""
    pairs = []
    for l, obj in store.items():
        for i, cf in enumerate(ct.composite(obj.cls)):
            pairs.append((l, i, cf))

    def reads(l, cf, k):
        return contains(subst(cf.init, {"this": Loc(l)}), k)

    result = set()
    changed = True
    while changed:
        changed = False
        for l, i, cf in pairs:
            sink = (l, cf.name)
            if sink in result:
                continue
            if reads(l, cf, key) or any(reads(l, cf, r) for r in result):
                result.add(sink)
                changed = True
    rank = {(l, cf.name): (l, i) for l, i, cf in pairs}
    return sorted(result, key=lambda k: rank[k])


def states_of(name, fuel=300):
    ct, program = load_corpus_file(name)
    st = initial_state(program.main)
    states = [st]
    while st.steps < fuel:
        out = step(ct, st)
        if out is None:
            break
        st = out.state
        states.append(st)
    return ct, states


@pytest.mark.parametrize(
    "name", ["signal_chain.fsj", "two_objects_effect.fsj", "nested_push.fsj", "inherited_fields.fsj"]
)
def test_effect_matches_oracle_on_corpus_runs(name):
    ct, states = states_of(name)
    checked = 0
    for st in states:
        for l, obj in st.store.items():
            for sf in ct.source(obj.cls):
                key = (l, sf.name)
                assert effect(ct, st.store, key) == effect_oracle(ct, st.store, key)
                checked += 1
    assert checked > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_effect_matches_oracle_on_generated(seed):
    program = generate_program(GenConfig(seed=seed))
    ct = build_class_table(program)
    res = run(ct, program.main, fuel=400, collect_trace=False)
    store = res.state.store
    for l, obj in store.items():
        for sf in ct.source(obj.cls):
            key = (l, sf.name)
            assert effect(ct, store, key) == effect_oracle(ct, store, key)


def test_effect_separates_objects(ct):
    store = {
        0: StoredObject("Cell", (1, 2)),
        3: StoredObject("Cell", (1, 2)),
        1: StoredObject("Nat", ()),
        2: StoredObject("Nat", ()),
    }
    assert effect(ct, store, (0, "src")) == [(0, "echo")]
    assert effect(ct, store, (3, "src")) == [(3, "echo")]
    assert effect(ct, store, (0, "plain")) == []


def test_handlers_of_shapes(ct):
    store = {
        0: StoredObject("Cell", (1, 2)),
        3: StoredObject("Cell", (1, 2)),
        1: StoredObject("Nat", ()),
        2: StoredObject("Nat", ()),
    }
    ha = Assign(Loc(0), "plain", Loc(1))
    hb = Assign(Loc(3), "plain", Loc(1))
    # nothing registered downstream
    assert handlers_of(ct, {}, store, (0, "src")) == EMPTY
    # handlers on the written key itself are excluded
    assert handlers_of(ct, {(0, "src"): Seq(EMPTY, ha)}, store, (0, "src")) == EMPTY
    # one downstream registration is returned as stored
    sigma = {(0, "echo"): Seq(EMPTY, ha)}
    assert handlers_of(ct, sigma, store, (0, "src")) == Seq(EMPTY, ha)
    # another object's registrations stay out of the expansion
    sigma = {(0, "echo"): Seq(EMPTY, ha), (3, "echo"): Seq(EMPTY, hb)}
    assert handlers_of(ct, sigma, store, (0, "src")) == Seq(EMPTY, ha)


def test_handlers_of_joins_in_effect_order():
    text = """
    class Nat extends Object { Nat() { super(); } }
    class Two extends Object {
      signal Nat d1 = this.s;
      signal Nat d2 = this.s;
      signal Nat s;
      Two(Nat s) { super(); this.s = s; }
    }
    unit
    """
    ct = build_class_table(parse_program(text))
    store = {0: StoredObject("Two", (1,)), 1: StoredObject("Nat", ())}
    g1 = Seq(EMPTY, Assign(Loc(0), "s", Loc(1)))
    g2 = Seq(EMPTY, Assign(Loc(0), "s", Loc(1)))
    sigma = {(0, "d1"): g1, (0, "d2"): g2}
    assert effect(ct, store, (0, "s")) == [(0, "d1"), (0, "d2")]
    assert handlers_of(ct, sigma, store, (0, "s")) == Seq(g1, g2)


# ------------------------------------------------------ whole programs


def final_depth(name):
    ct, program = load_corpus_file(name)
    res = run(ct, program.main)
    assert res.status == "terminal"
    assert isinstance(res.final, Loc)
    return chain_depth(res.state.store, res.final.loc)


def test_pull_recomputes_after_write():
    assert final_depth("peano_pull_before.fsj") == 8
    assert final_depth("peano_pull.fsj") == 9


def test_push_reaches_sink():
    assert final_depth("subscribe_push.fsj") == 2


def test_late_subscription_sees_only_later_writes():
    ct, program = load_corpus_file("late_subscription.fsj")
    res = run(ct, program.main)
    assert res.status == "terminal"
    writes = [e for e in res.trace if e.kind == "signal-write"]
    assert len(writes) == 2
    # the handler copied the second written value, not the first
    assert res.final == Loc(writes[1].new)
    assert res.final != Loc(writes[0].new)


def test_broadcast_reaches_both():
    ct, program = load_corpus_file("broadcast.fsj")
    res = run(ct, program.main)
    assert res.status == "terminal"
    write = next(e for e in res.trace if e.kind == "signal-write")
    # both logs now alias the written value
    stores = res.state.store
    log_locs = [l for l, o in stores.items() if o.cls == "Log"]
    assert len(log_locs) == 2
    for l in log_locs:
        assert stores[l].fields == (write.new,)


def test_nested_push_cascades():
    ct, program = load_corpus_file("nested_push.fsj")
    res = run(ct, program.main)
    assert res.status == "terminal"
    kinds = [e.kind for e in res.trace if e.kind != "step"]
    assert kinds.count("signal-write") == 2  # a.x then b.y
    assert kinds.count("plain-write") == 1  # l.got at the end


def test_loop_handler_runs_out_of_fuel():
    ct, program = load_corpus_file("loop_handler.fsj")
    res = run(ct, program.main, fuel=200)
    assert res.status == "fuel"
    assert res.pending is not None
    l, f = res.pending
    assert f == "n"
    assert res.state.store[l].cls == "Pump"


def test_fuel_on_terminating_program():
    ct, program = load_corpus_file("peano_pull.fsj")
    res = run(ct, program.main, fuel=5)
    assert res.status == "fuel"
    assert res.state.steps == 5


def test_determinism():
    ct, program = load_corpus_file("nested_push.fsj")
    a = run(ct, program.main)
    b = run(ct, program.main)
    assert [e.to_line() for e in a.trace] == [e.to_line() for e in b.trace]


def test_pending_key_names_innermost_brace(ct):
    inner = EffectBrace(Seq(EMPTY, EMPTY), (0, "src"))
    outer = EffectBrace(Seq(inner, EMPTY), (3, "src"))
    assert pending_key(outer) == (0, "src")
    assert pending_key(Loc(1)) is None


def test_chain_depth_handles_cycles():
    store = {0: StoredObject("Loopy", (0,))}
    assert chain_depth(store, 0) == 1


# ------------------------------------------------------------- mutations


def test_mutation_no_this_subst(ct):
    out = step(ct, cell_state(FieldAccess(Loc(0), "echo")), frozenset({MUT_NO_THIS_SUBST}))
    assert out.rule == "R-FIELDS"
    assert out.state.expr == FieldAccess(Var("this"), "src")


def test_mutation_swap_assign(ct):
    out = step(ct, cell_state(Assign(Loc(0), "plain", Loc(1))), frozenset({MUT_SWAP_ASSIGN}))
    assert out.rule == "R-ASSIGNS"
    assert isinstance(out.state.expr, EffectBrace)
    out = step(ct, cell_state(Assign(Loc(0), "src", Loc(1))), frozenset({MUT_SWAP_ASSIGN}))
    assert out.rule == "R-ASSIGN"
    assert isinstance(out.state.expr, Empty)


# ------------------------------------------------------------ trace form


def test_trace_event_lines():
    ev = TraceEvent(3, "step", rule="R-CAT", expr="unit")
    assert ev.to_line() == "step=3 rule=R-CAT expr=unit"
    ev = TraceEvent(7, "signal-write", loc=1, fname="n", old=0, new=6)
    assert ev.to_line() == "step=7 event=signal-write loc=1 field=n old=0 new=6"
    assert '"kind": "signal-write"' in ev.to_json()
