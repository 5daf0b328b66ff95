"""Small-step machine: one test per rule, then the dependency functions
against brute-force oracles, then whole-program behaviors."""

import json
import operator
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsj import (
    build_class_table,
    chain_depth,
    check_program,
    parse_expr,
    parse_program,
    run,
    step,
    subst,
)
from fsj import interp
from fsj.gen import GenConfig, generate_program
from fsj.interp import (
    MUTANTS,
    MUT_NO_THIS_SUBST,
    MUT_SWAP_ASSIGN,
    MachineState,
    StoredObject,
    StuckError,
    TraceEvent,
    effect,
    handlers_of,
)
from fsj.metatheory import audit_run, load_corpus
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
    iter_subexprs,
    render_expr,
)

from conftest import CORPUS, GOLDEN, ROOT, load_corpus_file, traced_run

CLASSES = """
class Nat extends Object {
  Nat() { super(); }
  Nat id(Nat m) { m }
  Nat self() { this }
  Nat pair(Nat a, Nat b) { b }
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
    )


def traced_steps(ct, source):
    """A traced run of source to the end, as (rule, events) per step."""
    res, trace = traced_run(ct, parse_expr(source))
    assert res.status == "terminal"
    steps = []
    for ev in trace:
        if ev.kind == "step":
            steps.append((ev.rule, []))
        else:
            steps[-1][1].append(ev)
    return steps


def events_of(steps, rule):
    """The events of every step that applied rule, one list per step."""
    return [events for r, events in steps if r == rule]


CELL = "let c = new Cell(new Nat(), new Nat()) in "  # @0 src, @1 plain, @2 the Cell


# ---------------------------------------------------------------- rules


def test_rule_field_reads_store(ct):
    out = step(ct, cell_state(FieldAccess(Loc(0), "src")))
    assert out.rule == "R-FIELD"
    assert out.expr == Loc(1)


def test_rule_fields_substitutes_this(ct):
    st0 = cell_state(FieldAccess(Loc(0), "echo"))
    store, handlers = dict(st0.store), dict(st0.handlers)
    out = step(ct, st0)
    assert out.rule == "R-FIELDS"
    assert out.expr == FieldAccess(Loc(0), "src")
    assert out.store == store
    assert out.handlers == handlers


def test_rule_invk_binds_this_and_params(ct):
    out = step(ct, cell_state(Invoke(Loc(1), "id", (Loc(2),))))
    assert out.rule == "R-INVK"
    assert out.expr == Loc(2)
    out = step(ct, cell_state(Invoke(Loc(1), "self", ())))
    assert out.expr == Loc(1)


def test_rule_new_allocates(ct):
    out = step(ct, cell_state(New("Nat", ())))
    assert out.rule == "R-NEW"
    assert out.expr == Loc(3)
    assert out.store[3] == StoredObject("Nat", ())
    assert len(out.store) == 4
    [(alloc,)] = events_of(traced_steps(ct, "new Nat()"), "R-NEW")
    assert (alloc.kind, alloc.loc, alloc.cls) == ("alloc", 0, "Nat")


def test_rule_assign_plain_is_silent(ct):
    out = step(ct, cell_state(Assign(Loc(0), "plain", Loc(1))))
    assert out.rule == "R-ASSIGN"
    assert isinstance(out.expr, Empty)
    assert out.store[0].fields == (1, 1)
    assert out.handlers == {}
    steps = traced_steps(ct, CELL + "c.plain = c.src")
    [(write,)] = events_of(steps, "R-ASSIGN")
    assert (write.kind, write.loc, write.fname) == ("plain-write", 2, "plain")
    assert {ev.kind for _, events in steps for ev in events} == {"alloc", "plain-write"}


def test_rule_assigns_writes_then_braces(ct):
    h = Assign(Loc(0), "plain", FieldAccess(Loc(0), "src"))
    st0 = cell_state(Assign(Loc(0), "src", Loc(2)), handlers={(0, "src"): Seq(EMPTY, h)})
    out = step(ct, st0)
    assert out.rule == "R-ASSIGNS"
    # store updated before the scheduled work runs
    assert out.store[0].fields == (2, 2)
    assert out.expr == EffectBrace(Seq(EMPTY, h), (0, "src"))
    steps = traced_steps(ct, CELL + "(c.src.subscribe(c.plain = c.src); c.src = new Nat())")
    [events] = events_of(steps, "R-ASSIGNS")
    assert [e.kind for e in events] == ["signal-write", "handler-enqueue"]
    assert [(e.loc, e.fname) for e in events] == [(2, "src")] * 2
    assert (events[0].old, events[0].new, events[1].count) == (0, 3, 1)


def test_rule_assigns_without_listeners(ct):
    out = step(ct, cell_state(Assign(Loc(0), "src", Loc(2))))
    assert out.rule == "R-ASSIGNS"
    assert out.expr == EffectBrace(EMPTY, (0, "src"))


def test_rule_assigncont_expands_downstream(ct):
    h = Assign(Loc(0), "plain", Loc(1))
    st0 = cell_state(EffectBrace(EMPTY, (0, "src")), handlers={(0, "echo"): Seq(EMPTY, h)})
    out = step(ct, st0)
    assert out.rule == "R-ASSIGNCONT"
    # echo depends on src, so its handlers are spliced in
    assert out.expr == Seq(EMPTY, h)


def test_rule_assigncont_no_downstream(ct):
    out = step(ct, cell_state(EffectBrace(EMPTY, (0, "plain"))))
    assert out.rule == "R-ASSIGNCONT"
    assert isinstance(out.expr, Empty)


def test_rule_subscribe_appends(ct):
    h1 = Assign(Loc(0), "plain", Loc(1))
    h2 = Assign(Loc(0), "plain", Loc(2))
    st0 = cell_state(Subscribe(Loc(0), "src", h1))
    out = step(ct, st0)
    assert out.rule == "R-SUBSCRIBE"
    assert isinstance(out.expr, Empty)
    assert out.handlers[(0, "src")] == Seq(EMPTY, h1)
    st = out
    st1 = MachineState(Subscribe(Loc(0), "src", h2), st.store, st.handlers, st.steps)
    out = step(ct, st1)
    assert out.handlers[(0, "src")] == Seq(Seq(EMPTY, h1), h2)
    # a write reports one registration per subscription on its key
    source = "(c.src.subscribe(c.plain = c.src); (c.src.subscribe(unit); c.src = new Nat()))"
    steps = traced_steps(ct, CELL + source)
    subscribes = events_of(steps, "R-SUBSCRIBE")
    assert [[(e.kind, e.loc, e.fname) for e in events] for events in subscribes] == [
        [("subscribe", 2, "src")]
    ] * 2
    [(_, enqueue)] = events_of(steps, "R-ASSIGNS")
    assert enqueue.count == 2


def test_trace_reads_each_write_as_its_step_found_the_stores(ct):
    """Every write to one key reports the location it overwrote, which the
    step before it wrote, and as many registrations as precede it."""
    write = "c.src = new Nat()"
    source = f"({write}; (c.src.subscribe(unit); ({write}; (c.src.subscribe(unit); {write}))))"
    writes = events_of(traced_steps(ct, CELL + source), "R-ASSIGNS")
    got = [(w.old, w.new, enqueue.count) for w, enqueue in writes]
    assert got == [(0, 3, 0), (3, 4, 1), (4, 5, 2)]


def test_rule_subscribe_keeps_handler_unevaluated(ct):
    h = Assign(Loc(0), "plain", New("Nat", ()))
    out = step(ct, cell_state(Subscribe(Loc(0), "src", h)))
    assert out.handlers[(0, "src")].second == h
    assert out.store == cell_state(EMPTY).store  # no allocation happened


@pytest.mark.parametrize(
    "expr, rule",
    [
        pytest.param(New("Nat", ()), "R-NEW", id="R-NEW"),
        pytest.param(Assign(Loc(0), "plain", Loc(1)), "R-ASSIGN", id="R-ASSIGN"),
        pytest.param(Assign(Loc(0), "src", Loc(2)), "R-ASSIGNS", id="R-ASSIGNS"),
        pytest.param(
            Subscribe(Loc(0), "src", Assign(Loc(0), "plain", Loc(1))), "R-SUBSCRIBE", id="R-SUBSCRIBE"
        ),
    ],
)
def test_writes_update_both_stores_in_place(ct, expr, rule):
    """The next state holds the very dicts the step wrote."""
    st0 = cell_state(expr)
    out = step(ct, st0)
    assert out.rule == rule
    assert out.store is st0.store
    assert out.handlers is st0.handlers


def test_rule_cat(ct):
    out = step(ct, cell_state(Seq(EMPTY, Loc(1))))
    assert out.rule == "R-CAT"
    assert out.expr == Loc(1)


def test_rule_let_substitutes_value(ct):
    out = step(ct, cell_state(Let("x", Loc(1), FieldAccess(Var("x"), "src"))))
    assert out.rule == "R-LET"
    assert out.expr == FieldAccess(Loc(1), "src")


def test_let_bound_evaluated_first(ct):
    out = step(ct, cell_state(Let("x", FieldAccess(Loc(0), "src"), Var("x"))))
    assert out.rule == "R-FIELD"
    assert out.expr == Let("x", Loc(1), Var("x"))


def test_terminal_states_do_not_step(ct):
    assert step(ct, cell_state(Loc(0))) is None
    assert step(ct, cell_state(EMPTY)) is None


# ------------------------------------------------------- evaluation order


def test_receiver_before_arguments(ct):
    e = Invoke(New("Nat", ()), "id", (New("Nat", ()),))
    out = step(ct, cell_state(e))
    assert out.expr == Invoke(Loc(3), "id", (New("Nat", ()),))


def test_no_descent_into_seq_right(ct):
    # the ill-formed right arm is not touched while the left arm steps
    e = Seq(Seq(EMPTY, EMPTY), Var("junk"))
    out = step(ct, cell_state(e))
    assert out.rule == "R-CAT"
    assert out.expr == Seq(EMPTY, Var("junk"))


def test_no_descent_into_handler(ct):
    e = Subscribe(Loc(0), "src", Var("junk"))
    out = step(ct, cell_state(e))
    assert out.rule == "R-SUBSCRIBE"


def test_assign_receiver_then_value(ct):
    e = Assign(FieldAccess(Loc(0), "src"), "plain", New("Nat", ()))
    out = step(ct, cell_state(e))
    assert out.expr == Assign(Loc(1), "plain", New("Nat", ()))


SRC = FieldAccess(Loc(0), "src")  # reads @1

# (expr, the slot of its one open argument, expr with @1 plugged there)
ARGUMENT_SCANS = {
    "new-open-first": (New("Cell", (SRC, Loc(2))), 0, New("Cell", (Loc(1), Loc(2)))),
    "new-open-last": (New("Cell", (Loc(2), SRC)), 1, New("Cell", (Loc(2), Loc(1)))),
    "call-open-first": (
        Invoke(Loc(1), "pair", (SRC, Loc(2))), 1, Invoke(Loc(1), "pair", (Loc(1), Loc(2)))
    ),
    "call-open-last": (
        Invoke(Loc(1), "pair", (Loc(2), SRC)), 2, Invoke(Loc(1), "pair", (Loc(2), Loc(1)))
    ),
}


@pytest.mark.parametrize("e, slot, plugged", ARGUMENT_SCANS.values(), ids=ARGUMENT_SCANS.keys())
def test_refocus_stops_at_the_first_open_argument(ct, e, slot, plugged):
    """A `New`'s argument i sits in slot i, an `Invoke`'s in slot i + 1
    (slot 0 is the receiver), and the read location goes back there."""
    st0 = cell_state(e)
    assert (st0.focus, st0.stack) == (SRC, (e, slot, None))
    out = step(ct, st0)
    assert out.rule == "R-FIELD"
    assert (out.focus, out.stack) == (plugged, None)


@pytest.mark.parametrize(
    "e, rule",
    [(New("Cell", (Loc(1), Loc(2))), "R-NEW"), (Invoke(Loc(1), "pair", (Loc(1), Loc(2))), "R-INVK")],
    ids=["new", "call"],
)
def test_refocus_stops_at_a_node_whose_arguments_are_all_locations(ct, e, rule):
    st0 = cell_state(e)
    assert (st0.focus, st0.stack) == (e, None)
    assert step(ct, st0).rule == rule


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


WEDGES = {
    "free-variable": Var("ghost"),
    "location-left-of-seq": Seq(Loc(1), EMPTY),
    "new-with-unit-argument": New("Cell", (EMPTY, Loc(1))),
    "new-with-unit-after-a-location": New("Cell", (Loc(1), EMPTY)),
    "new-of-undeclared-class": New("Ghost", ()),
    "new-with-wrong-arity": New("Cell", (Loc(1),)),
    "assign-to-unit": Assign(EMPTY, "src", Loc(1)),
    "assign-of-unit": Assign(Loc(0), "src", EMPTY),
    "assign-to-dangling-location": Assign(Loc(99), "src", Loc(1)),
    "assign-to-unknown-field": Assign(Loc(0), "ghost", Loc(1)),
    "assign-to-composite-field": Assign(Loc(0), "echo", Loc(1)),
    "read-of-unit": FieldAccess(EMPTY, "src"),
    "read-on-dangling-location": FieldAccess(Loc(99), "src"),
    "read-of-unknown-field": FieldAccess(Loc(0), "ghost"),
    "call-on-unit": Invoke(EMPTY, "id", (Loc(2),)),
    "call-with-unit-argument": Invoke(Loc(1), "id", (EMPTY,)),
    "call-with-unit-before-a-location": Invoke(Loc(1), "pair", (EMPTY, Loc(2))),
    "call-with-unit-after-a-location": Invoke(Loc(1), "pair", (Loc(2), EMPTY)),
    "call-on-dangling-location": Invoke(Loc(99), "id", (Loc(2),)),
    "call-of-unknown-method": Invoke(Loc(1), "ghost", ()),
    "call-with-wrong-arity": Invoke(Loc(1), "id", ()),
    "brace-around-location": EffectBrace(Loc(1), (0, "src")),
    "let-bound-to-unit": Let("x", EMPTY, Var("x")),
    "subscribe-on-unit": Subscribe(EMPTY, "src", EMPTY),
}


@pytest.mark.parametrize("wedge", WEDGES.values(), ids=WEDGES.keys())
def test_every_wedge_is_stuck_before_any_store_write(ct, wedge):
    """Each way a focus can fit no rule raises StuckError for that very
    state, and the step has written neither store."""
    st0 = cell_state(wedge, handlers={(0, "src"): Seq(EMPTY, EMPTY)})
    assert st0.focus == wedge
    store, handlers = dict(st0.store), dict(st0.handlers)
    with pytest.raises(StuckError) as stuck:
        step(ct, st0)
    assert stuck.value.state is st0
    assert st0.store == store
    assert st0.handlers == handlers


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


def contains(e, key):
    """effect_oracle's syntactic test: does e read the field named by key?

    Only the expression itself is inspected; bodies of methods it calls
    are not unfolded.
    """
    l, f = key
    return any(
        isinstance(s, FieldAccess) and s.fname == f and s.recv == Loc(l) for s in iter_subexprs(e)
    )


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
        for i, cf in enumerate(ct[obj.cls].composite):
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


def stores_of(name, fuel=300):
    """The store before and after each step of a hand-stepped run, each
    copied, since the machine writes its store in place."""
    ct, program = load_corpus_file(name)
    st = MachineState(program.main, {}, {})
    stores = [dict(st.store)]
    while st.steps < fuel:
        out = step(ct, st)
        if out is None:
            break
        st = out
        stores.append(dict(st.store))
    return ct, stores


@pytest.mark.parametrize(
    "name", ["signal_chain.fsj", "two_objects_effect.fsj", "nested_push.fsj", "inherited_fields.fsj"]
)
def test_effect_matches_oracle_on_corpus_runs(name):
    ct, stores = stores_of(name)
    checked = 0
    for store in stores:
        for l, obj in store.items():
            for sf in ct[obj.cls].source:
                key = (l, sf.name)
                assert effect(ct, store, key) == effect_oracle(ct, store, key)
                checked += 1
    assert checked > 0
    assert len(stores[0]) < len(stores[-1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_effect_matches_oracle_on_generated(seed):
    program, ct = generate_program(GenConfig(seed=seed))
    res = run(ct, program.main, fuel=400)
    store = res.state.store
    for l, obj in store.items():
        for sf in ct[obj.cls].source:
            key = (l, sf.name)
            assert effect(ct, store, key) == effect_oracle(ct, store, key)


@pytest.mark.parametrize("name", [p.name for p in sorted(CORPUS.glob("*.fsj"))])
def test_downstream_table_matches_oracle_on_every_corpus_class(name):
    """One object of every class in one store, so a dependency that left
    its own object would show up as a difference."""
    ct, program = load_corpus_file(name)
    classes = [cl.name for cl in program.classes]
    store = {l: StoredObject(c, (0,) * len(ct[c].source)) for l, c in enumerate(classes)}
    for l, c in enumerate(classes):
        for fld in ct[c].composite + ct[c].source:
            key = (l, fld.name)
            assert effect(ct, store, key) == effect_oracle(ct, store, key), key


GAP = """
class Nat extends Object { Nat() { super(); } }
class Box extends Object {
  signal Nat n;
  Box(Nat n) { super(); this.n = n; }
}
class Gap extends Object {
  signal Nat viaCopy = this.viaOther;
  signal Nat viaCall = this.get();
  signal Nat viaOther = this.b.n;
  signal Nat n;
  Box b;
  Gap(Nat n, Box b) { super(); this.n = n; this.b = b; }
  Nat get() { this.n }
}
unit
"""


def test_effect_stays_syntactic_across_calls_and_objects():
    """The paper's rule reads the initializer's own text: a field read
    inside a called method, or through another object, is not a
    dependency, although writing it changes the composite's value.  A
    composite that names another composite depends on what that one
    reads, and comes first when it is declared first."""
    program = parse_program(GAP)
    ct = build_class_table(program)
    assert check_program(ct, program).ok
    store = {
        0: StoredObject("Gap", (2, 1)),
        1: StoredObject("Box", (2,)),
        2: StoredObject("Nat", ()),
    }
    for key in [(0, "n"), (1, "n"), (0, "b"), (0, "viaOther")]:
        assert effect(ct, store, key) == effect_oracle(ct, store, key)
    assert effect(ct, store, (0, "n")) == []  # viaCall reads this.n only inside get()
    assert effect(ct, store, (1, "n")) == []  # viaOther reads @1.n only through this.b
    assert effect(ct, store, (0, "b")) == [(0, "viaCopy"), (0, "viaOther")]


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


def test_effect_of_an_unallocated_location_is_empty(ct):
    store = {0: StoredObject("Cell", (1, 2)), 1: StoredObject("Nat", ()), 2: StoredObject("Nat", ())}
    assert effect(ct, store, (5, "src")) == []
    assert handlers_of(ct, {(5, "echo"): EMPTY}, store, (5, "src")) == EMPTY


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


def test_collect_trace_keeps_what_a_trace_observer_sees():
    """`collect_trace=True` fills `RunResult.trace` with the events a
    `TraceObserver` hands out, every step's and every effect's."""
    ct, program = load_corpus_file("subscribe_push.fsj")
    res = run(ct, program.main, collect_trace=True)
    _, events = traced_run(ct, program.main)
    assert res.status == "terminal"
    assert {e.kind for e in events} >= {"step", "alloc", "subscribe", "signal-write"}
    assert res.trace == events


def test_late_subscription_sees_only_later_writes():
    ct, program = load_corpus_file("late_subscription.fsj")
    res, trace = traced_run(ct, program.main)
    assert res.status == "terminal"
    writes = [e for e in trace if e.kind == "signal-write"]
    assert len(writes) == 2
    # the handler copied the second written value, not the first
    assert res.final == Loc(writes[1].new)
    assert res.final != Loc(writes[0].new)


def test_broadcast_reaches_both():
    ct, program = load_corpus_file("broadcast.fsj")
    res, trace = traced_run(ct, program.main)
    assert res.status == "terminal"
    write = next(e for e in trace if e.kind == "signal-write")
    # both logs now alias the written value
    stores = res.state.store
    log_locs = [l for l, o in stores.items() if o.cls == "Log"]
    assert len(log_locs) == 2
    for l in log_locs:
        assert stores[l].fields == (write.new,)


def test_nested_push_cascades():
    ct, program = load_corpus_file("nested_push.fsj")
    res, trace = traced_run(ct, program.main)
    assert res.status == "terminal"
    kinds = [e.kind for e in trace if e.kind != "step"]
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


def stores_differ_on_each_write(seen):
    """An observer that finds every allocation, write and subscription as
    a difference between before's stores and after's, counted in seen."""

    def observe(before, after):
        if after.rule == "R-NEW":
            l = len(after.store) - 1
            assert l in after.store and l not in before.store, after.steps
        elif after.rule == "R-ASSIGNS":
            l = before.focus.recv.loc
            assert after.store[l] != before.store[l], after.steps
        elif after.rule == "R-SUBSCRIBE":
            assert after.handlers != before.handlers, after.steps
        else:
            return None
        seen[after.rule] += 1
        return None

    return observe


def test_run_shows_observers_the_stores_from_before_each_step():
    """The machine writes its stores in place, so `before` must read them
    as the step found them: every allocation, write and subscription shows
    as a difference."""
    ct, program = load_corpus_file("loop_handler.fsj")
    seen = {"R-NEW": 0, "R-ASSIGNS": 0, "R-SUBSCRIBE": 0}
    observe = stores_differ_on_each_write(seen)
    res = run(ct, program.main, fuel=2000, observers=[observe])
    assert res.status == "fuel"
    assert seen == {"R-NEW": 667, "R-ASSIGNS": 665, "R-SUBSCRIBE": 1}


def test_a_step_advances_the_state_it_is_handed(monkeypatch):
    """A plain run hands `step` one state throughout, gets it back advanced
    and copies nothing; an observed run shows its observers a new copy of
    the state as the step found it, its stores the journals' versions, and
    the state the step returned as `after`.  A mutated run, observed or
    not, copies the state once per step call, and its observers and
    mutants share that copy."""
    handed, focus, returned, copies = [], [], [], []
    real, real_copy = interp.step, MachineState.copy

    def recording(ct, st):
        handed.append(st)
        focus.append(st.focus)
        returned.append(real(ct, st))
        return returned[-1]

    def counting(st):
        copies.append(real_copy(st))
        return copies[-1]

    monkeypatch.setattr(interp, "step", recording)
    monkeypatch.setattr(MachineState, "copy", counting)
    ct, program = load_corpus_file("loop_handler.fsj")
    res = run(ct, program.main, fuel=2000)
    assert res.status == "fuel" and len(handed) == 2000
    assert all(st is res.state for st in handed + returned)
    assert copies == []

    befores = []

    def copied(before, after):
        assert after is returned[-1] is handed[-1], after.steps
        assert before is not after and before.focus is focus[-1], after.steps
        assert before.steps + 1 == after.steps
        for old, store in ((before.store, after.store), (before.handlers, after.handlers)):
            assert type(old) is interp.Version and old.journal is store, after.steps
        befores.append(before)

    del handed[:], focus[:], returned[:]
    seen = {"R-NEW": 0, "R-ASSIGNS": 0, "R-SUBSCRIBE": 0}
    observers = [copied, stores_differ_on_each_write(seen)]
    res = run(ct, program.main, fuel=2000, observers=observers)
    assert res.status == "fuel" and len(handed) == 2000
    assert all(st is res.state for st in handed)
    assert len({id(before) for before in befores}) == 2000
    assert seen == {"R-NEW": 667, "R-ASSIGNS": 665, "R-SUBSCRIBE": 1}
    assert befores == copies

    ct, program = load_corpus_file("peano_pull.fsj")
    mutations = frozenset({MUT_SWAP_ASSIGN})
    del handed[:], copies[:]
    res = audit_run(ct, program.main, "peano_pull.fsj", mutations=mutations).run
    assert res.violation is not None and res.status == "terminal"
    assert len(copies) == len(handed) == 43
    del handed[:], copies[:]
    res = run(ct, program.main, mutations=mutations)
    assert res.status == "terminal"
    assert len(copies) == len(handed) == 43


JOURNAL_MUTATORS = {
    "__setitem__": lambda d: d.__setitem__(2, "z"),
    "__delitem__": lambda d: d.__delitem__(0),
    "pop": lambda d: d.pop(0),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault(2, "z"),
    "update": lambda d: d.update({0: "z", 2: "z"}),
    "clear": lambda d: d.clear(),
    "|=": lambda d: operator.ior(d, {0: "z", 2: "z"}),
}


@pytest.mark.parametrize("mutator", JOURNAL_MUTATORS)
def test_journal_records_or_refuses_every_dict_mutator(mutator):
    """A Version reads through the journal's record, so a mutator that
    changed the store without recording would change the past too."""
    entries = {0: "a", 1: "b"}
    journal = interp.Journal(entries)
    version = interp.Version(journal)
    try:
        JOURNAL_MUTATORS[mutator](journal)
    except TypeError:
        assert journal == entries and not journal.undo
    else:
        assert journal != entries
        assert version == entries  # compared in full
        assert version != journal  # compared on the recorded keys
        for key in (0, 1, 2):
            assert version.get(key) == entries.get(key)
            assert (key in version) == (key in entries)
        assert [version[key] for key in entries] == list(entries.values())
    for key in (2, 3):  # 2 is one a mutator adds, 3 one nothing holds
        with pytest.raises(KeyError):
            version[key]


def test_substituting_steps_call_subst_through_the_interp_module(monkeypatch):
    """perfbench counts `interp.subst` calls by wrapping that attribute, so
    every R-INVK, R-FIELDS and R-LET step must call it there, once."""
    ct, program = load_corpus_file("peano_pull.fsj")
    calls = []
    real = interp.subst

    def counting(e, mapping):
        calls.append(e)
        return real(e, mapping)

    monkeypatch.setattr(interp, "subst", counting)
    rules = Counter()
    res = run(
        ct, program.main, observers=[lambda before, after: rules.update([after.rule])]
    )
    assert res.status == "terminal"
    assert rules["R-INVK"] and rules["R-FIELDS"] and rules["R-LET"]
    assert len(calls) == rules["R-INVK"] + rules["R-FIELDS"] + rules["R-LET"]


def test_store_writes_run_no_python_new(monkeypatch):
    """R-NEW, R-ASSIGN and R-ASSIGNS build their records without calling
    `StoredObject.__new__`, plain, observed or audited, and each record
    is a `StoredObject` like the one that call would build."""
    calls, rules, results = [], Counter(), []
    real = StoredObject.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(interp.StoredObject, "__new__", counting)
    for name, program, ct in load_corpus(CORPUS):
        results.append(run(ct, program.main, fuel=2000))
        observed = run(ct, program.main, fuel=2000, observers=[lambda b, a: rules.update([a.rule])])
        results += [observed, audit_run(ct, program.main, name, fuel=2000).run]
    monkeypatch.undo()
    assert calls == []
    assert rules["R-NEW"] and rules["R-ASSIGN"] and rules["R-ASSIGNS"]
    for res in results:
        for v in res.state.store.values():
            made = StoredObject(v.cls, v.fields)
            assert type(v) is StoredObject, v
            assert (repr(v), v, hash(v)) == (repr(made), made, hash(made))


def test_fuel_on_terminating_program():
    ct, program = load_corpus_file("peano_pull.fsj")
    res = run(ct, program.main, fuel=5)
    assert res.status == "fuel"
    assert res.state.steps == 5


def test_run_that_terminates_exactly_at_fuel_is_terminal():
    """The last step fuel allows can be the one that finishes the program."""
    ct, program = load_corpus_file("peano_pull.fsj")
    steps = run(ct, program.main).state.steps
    res = run(ct, program.main, fuel=steps)
    assert (res.status, res.state.steps, res.pending) == ("terminal", steps, None)
    assert isinstance(res.final, Loc)


def test_determinism():
    ct, program = load_corpus_file("nested_push.fsj")
    _, a = traced_run(ct, program.main)
    _, b = traced_run(ct, program.main)
    assert a and [e.to_line() for e in a] == [e.to_line() for e in b]


def test_pending_key_names_innermost_brace(ct):
    inner = EffectBrace(Seq(EMPTY, EMPTY), (0, "src"))
    outer = EffectBrace(Seq(inner, EMPTY), (3, "src"))
    assert MachineState(outer, {}, {}).pending_key == (0, "src")
    # a brace that is itself the redex is still pending
    redex = EffectBrace(EMPTY, (3, "src"))
    assert MachineState(Seq(redex, EMPTY), {}, {}).pending_key == (3, "src")
    assert MachineState(Loc(1), {}, {}).pending_key is None


def test_rule_sequences_match_golden(regen):
    """Every corpus program and campaign seed steps through the recorded
    rule sequence (scripts/regen_golden.py)."""
    assert regen["rule_sequences"]() == json.loads((GOLDEN / "rule_sequences.json").read_text())


def test_traces_match_golden_digests(regen):
    """Every traced corpus run, generated program and mutated corpus run
    emits the recorded events (scripts/regen_golden.py)."""
    assert regen["trace_digests"]() == json.loads((GOLDEN / "trace_digests.json").read_text())


def test_every_golden_file_has_a_writer(regen):
    """scripts/regen_golden.py writes each file under tests/golden/, and
    nothing else there."""
    assert sorted(regen["WRITERS"]) == sorted(p.name for p in GOLDEN.iterdir())


def test_peano_push_512_terminates():
    """Doubling a numeral of 256 nests about 500 `new Succ(...)` frames."""
    text = (ROOT / "perfbench" / "peano_push.fsj.tmpl").read_text()
    program = parse_program(text.replace("{DOUBLES}", ".double()" * 9))
    ct = build_class_table(program)
    assert check_program(ct, program).ok
    res = run(ct, program.main)
    assert res.status == "terminal"
    assert chain_depth(res.state.store, res.final.loc) == 512
    assert len(res.state.store) == 4 * 512 + 5


@pytest.mark.parametrize("seed", [12, 205])
def test_cascading_handlers_run_without_crashing(seed):
    """Handlers that write signals nest the context over 1300 frames deep here."""
    program, ct = generate_program(GenConfig(handlers_write_signals=True, seed=seed))
    assert check_program(ct, program).ok
    res = run(ct, program.main, fuel=2000)
    assert res.status in ("terminal", "fuel")


def test_chain_depth_handles_cycles():
    store = {0: StoredObject("Loopy", (0,))}
    assert chain_depth(store, 0) == 1


# ------------------------------------------------------------- mutations


def test_mutation_no_this_subst(ct):
    st = cell_state(FieldAccess(Loc(0), "echo"))
    before = st.copy()
    out = MUTANTS[MUT_NO_THIS_SUBST](ct, before, step(ct, st))
    assert out.rule == "R-FIELDS"
    assert out.expr == FieldAccess(Var("this"), "src")


def test_mutation_swap_assign(ct):
    st = cell_state(Assign(Loc(0), "plain", Loc(1)))
    before = st.copy()
    out = MUTANTS[MUT_SWAP_ASSIGN](ct, before, step(ct, st))
    assert out.rule == "R-ASSIGNS"
    assert isinstance(out.expr, EffectBrace)
    st = cell_state(Assign(Loc(0), "src", Loc(1)))
    before = st.copy()
    out = MUTANTS[MUT_SWAP_ASSIGN](ct, before, step(ct, st))
    assert out.rule == "R-ASSIGN"
    assert isinstance(out.expr, Empty)


# the rules whose outcome each mutant rewrites
MUTANT_TARGETS = {
    MUT_NO_THIS_SUBST: {"R-FIELDS"},
    MUT_SWAP_ASSIGN: {"R-ASSIGN", "R-ASSIGNS"},
}


def test_a_mutant_rewrites_only_the_outcome():
    """On every step of every corpus program at fuel 300, each mutant keeps
    the plain outcome's store dicts and their contents, leaves the rules it
    does not target alone, and changes some program's rule sequence.  All
    of them at once give the rules and final expression of a machine that
    nests each around `step` with a pre-step copy of its own."""
    assert MUTANT_TARGETS.keys() == MUTANTS.keys()

    def rules(ct, main, mutations=frozenset()):
        seen = []
        res = run(ct, main, 300, mutations,
                  observers=[lambda before, after: seen.append(after.rule)])
        return seen, res.state.expr

    def nested(inner, rewrite):
        def stepped(ct, st):
            before = st.copy()
            out = inner(ct, st)
            return None if out is None else rewrite(ct, before, out)
        return stepped

    def composed(ct, main):
        """`rules` of every mutant, nested in sorted order, innermost first."""
        stepper, seen, st = step, [], MachineState(main, {}, {})
        for name in sorted(MUTANTS):
            stepper = nested(stepper, MUTANTS[name])
        while st.steps < 300:
            try:
                out = stepper(ct, st)
            except StuckError:
                break
            if out is None:
                break
            seen.append(out.rule)
            st = out
        return seen, st.expr

    changed = set()
    for path in sorted(CORPUS.glob("*.fsj")):
        ct, program = load_corpus_file(path.name)
        st = MachineState(program.main, {}, {})
        while st.steps < 300:
            before = st.copy()
            if (out := step(ct, st)) is None:
                break
            store, handlers = dict(out.store), dict(out.handlers)
            for name, rewrite in MUTANTS.items():
                mutated = rewrite(ct, before, out)
                assert mutated.store is out.store and mutated.handlers is out.handlers, name
                assert mutated.store == store and mutated.handlers == handlers, name
                if out.rule not in MUTANT_TARGETS[name]:
                    assert mutated.rule == out.rule and mutated.expr == out.expr, name
            st = out
        plain, _ = rules(ct, program.main)
        changed |= {
            name for name in MUTANTS if rules(ct, program.main, frozenset({name}))[0] != plain
        }
        assert rules(ct, program.main, frozenset(MUTANTS)) == composed(ct, program.main), path.name
    assert changed == MUTANTS.keys()


# ------------------------------------------------------------ trace form


def rendered_against_reference(ct, main, fuel, mutations=frozenset()) -> int:
    """Run main traced, and assert each step event's expr is `render_expr`
    of the whole expression after that step, as a second observer sees it.
    Returns the number of steps compared."""
    reference = []
    _, trace = traced_run(
        ct, main, fuel, mutations,
        observers=[lambda before, after: reference.append(render_expr(after.expr))],
    )
    assert [e.expr for e in trace if e.kind == "step"] == reference
    return len(reference)


def test_trace_renders_corpus_steps_like_render_expr():
    for name, program, ct in load_corpus(CORPUS):
        if name == "loop_handler.fsj":  # never terminates; its context grows every loop
            assert rendered_against_reference(ct, program.main, 1000) == 1000
        else:
            rendered_against_reference(ct, program.main, 2500)


@pytest.mark.parametrize("config", [GenConfig(), GenConfig(handlers_write_signals=True)],
                         ids=["default", "handlers_write_signals"])
def test_trace_renders_generated_steps_like_render_expr(config):
    for seed in range(200):
        program, ct = generate_program(replace(config, seed=seed))
        rendered_against_reference(ct, program.main, 300)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_trace_renders_mutated_steps_like_render_expr(mutant):
    for _, program, ct in load_corpus(CORPUS):
        rendered_against_reference(ct, program.main, 300, frozenset({mutant}))


def test_trace_event_lines():
    ev = TraceEvent(3, "step", rule="R-CAT", expr="unit")
    assert ev.to_line() == "step=3 rule=R-CAT expr=unit"
    ev = TraceEvent(7, "signal-write", loc=1, fname="n", old=0, new=6)
    assert ev.to_line() == "step=7 event=signal-write loc=1 field=n old=0 new=6"
    assert '"kind": "signal-write"' in ev.to_json()
