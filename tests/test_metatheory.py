"""Soundness oracles: store typing, per-step audits, the generator, and
the seeded campaign."""

import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsj import (
    build_class_table,
    campaign,
    check_program,
    check_progress,
    check_store_typing,
    load_corpus,
    parse_expr,
    parse_program,
    render_program,
    run,
    scenario_suite,
    type_expr,
)
from fsj import gen, interp, is_subtype, metatheory
from fsj.gen import GenConfig, _size, generate_program, shrink
from fsj.interp import (
    MUT_NO_THIS_SUBST,
    MUT_SWAP_ASSIGN,
    MachineState,
    StoredObject,
    StuckError,
    subst,
)
from fsj.metatheory import (
    CAMPAIGN_FUEL,
    P_NO_CRASH,
    P_PROGRESS,
    PlainWriteSilent,
    PropertyReport,
    SourceOnlyWrites,
    SubjectReduction,
    audit_run,
    shrink_campaign_failure,
)
from fsj.syntax import (
    EMPTY,
    Assign,
    EffectBrace,
    Invoke,
    Loc,
    Modifier,
    New,
    Seq,
    Subscribe,
    Var,
    iter_subexprs,
)
from fsj.typecheck import TypingError

from conftest import CORPUS, GOLDEN, load_corpus_file, traced_run

# ------------------------------------------------------------ store typing


def settled(name="plain_assign.fsj"):
    ct, program = load_corpus_file(name)
    res = run(ct, program.main)
    assert res.status == "terminal"
    return ct, res.state


def typing_of(state):
    return {l: obj.cls for l, obj in state.store.items()}


def test_store_typing_accepts_real_state():
    ct, state = settled()
    assert check_store_typing(ct, state.store, state.handlers, typing_of(state)) is None


def test_store_typing_domain_mismatch():
    ct, state = settled()
    store = dict(state.store)
    store.pop(max(store))
    msg = check_store_typing(ct, store, state.handlers, typing_of(state))
    assert msg is not None and "domain" in msg
    # as many locations as Σ, but the first is one Σ lacks
    typing = typing_of(state)
    typing[max(typing) + 1] = typing.pop(min(typing))
    msg = check_store_typing(ct, state.store, state.handlers, typing)
    assert msg == "object store and store typing have different domains"


def test_store_typing_wrong_class():
    ct, state = settled()
    typing = typing_of(state)
    typing[0] = "Object" if typing[0] != "Object" else "Counter"
    msg = check_store_typing(ct, state.store, state.handlers, typing)
    assert msg is not None


def test_store_typing_dangling_field():
    from fsj.interp import StoredObject

    ct, state = settled()
    store = dict(state.store)
    counter = next(l for l, o in store.items() if o.cls == "Counter")
    store[counter] = StoredObject("Counter", (999,))
    msg = check_store_typing(ct, store, state.handlers, typing_of(state))
    assert msg is not None and "@999" in msg


def test_store_typing_bad_handler():
    ct, state = settled()
    handlers = {(0, "v"): New("Nat", ())}
    msg = check_store_typing(ct, state.store, handlers, typing_of(state))
    assert msg is not None and "Unit" in msg
    handlers = {(999, "v"): parse_expr("unit")}
    msg = check_store_typing(ct, state.store, handlers, typing_of(state))
    assert msg is not None and "unknown location" in msg


def test_store_typing_names_an_ill_typed_handler():
    ct, state = settled()
    handlers = {(0, "v"): Seq(EMPTY, Var("ghost"))}
    msg = check_store_typing(ct, state.store, handlers, typing_of(state))
    assert msg == "handlers on @0.v ill-typed: unbound variable ghost"


def test_store_typing_types_only_the_handler_a_subscription_appends():
    """A chain extended by one handler past the one already checked types
    that handler alone, however long the chain is."""
    ct, state = settled()
    key = (min(state.store), "v")
    chain = EMPTY
    for _ in range(3000):
        chain = Seq(chain, EMPTY)
    handlers = {key: Seq(chain, EMPTY)}
    typing, checked = typing_of(state), (state.store, {key: chain})
    assert check_store_typing(ct, state.store, handlers, typing, checked) is None
    handlers = {key: Seq(chain, New("Nat", ()))}
    msg = check_store_typing(ct, state.store, handlers, typing, checked)
    assert msg == f"handlers on @{key[0]}.v have type Nat, expected Unit"
    # the very entry checked is not typed again, even one that would fail
    checked = (state.store, handlers)
    assert check_store_typing(ct, state.store, handlers, typing, checked) is None


# ---------------------------------------------------------------- corpus


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fsj")), ids=lambda p: p.name)
def test_corpus_subject_reduction_and_progress(path, corpus_audits):
    sr, pg = corpus_audits[path.name].reports()
    assert (sr.prop, sr.subject, pg.prop) == ("subject_reduction", path.name, "progress")
    assert sr.ok, sr.line()
    assert pg.ok, pg.line()


def test_load_corpus_shape(corpus_dir):
    programs = load_corpus(corpus_dir)
    assert len(programs) >= 15
    names = [n for n, _, _ in programs]
    assert names == sorted(names)


def test_scenario_suite_passes(scenario_reports):
    assert len(scenario_reports) >= 5
    for r in scenario_reports:
        assert r.ok, r.line()


def test_a_scenario_that_judged_nothing_fails():
    """A curated scenario on a program that never makes the step it judges
    is a violation, not a pass."""
    ct, program = load_corpus_file("unit_main.fsj")
    scenario = PlainWriteSilent(ct, "unit_main.fsj")
    report = scenario.report(run(ct, program.main, observers=[scenario]))
    assert report == PropertyReport(
        "plain_write_silent", "unit_main.fsj", "violation", None, "scenario exercised no plain write"
    )


def test_source_only_writes_names_a_write_to_an_initialized_field(monkeypatch):
    """The dynamic half of the write restriction: a machine that carries
    out the write the checker rejects in composite_assign.fsj is caught at
    that step."""
    real = interp.step

    def writes_anything(ct, st):
        e = st.focus
        if type(e) is Assign and type(e.value) is Loc:
            return MachineState(EMPTY, st.store, st.handlers, st.steps + 1, st.stack, "R-ASSIGN")
        return real(ct, st)

    monkeypatch.setattr(interp, "step", writes_anything)
    program = parse_program((CORPUS / "illtyped" / "composite_assign.fsj").read_text())
    ct = build_class_table(program)
    scenario = SourceOnlyWrites(ct, "composite_assign.fsj")
    res = run(ct, program.main, observers=[scenario])
    assert res.violation is scenario.report(res)
    assert (res.violation.prop, res.violation.outcome, res.violation.step) == (
        "source_only_writes", "violation", 5
    )
    assert res.violation.detail == "R-ASSIGN wrote initialized field Cell.echo"


def corrupting_step(monkeypatch, rule, corrupt):
    """Make interp.step call corrupt(state_before, outcome) after each `rule` step."""
    real = interp.step

    def wrapped(ct, st):
        before = st.copy()
        out = real(ct, st)
        if out is not None and out.rule == rule:
            corrupt(before, out)
        return out

    monkeypatch.setattr(interp, "step", wrapped)


def test_audit_sees_a_pull_that_changes_handlers_in_place(monkeypatch):
    """A pull shares its handler dict with the state before it, so only the
    journal's record of the stores can show the change."""

    def add_handler(st, out):
        st.handlers[(min(st.store), "probe")] = EMPTY  # well typed: unit

    corrupting_step(monkeypatch, "R-FIELDS", add_handler)
    ct, program = load_corpus_file("peano_pull.fsj")
    res = audit_run(ct, program.main, "peano_pull.fsj")
    assert res.violation is not None
    assert res.violation.prop == "pull_preserves_stores", res.violation.line()


def test_audit_store_typing_only_grows(monkeypatch):
    """Σ remembers every location it has seen, so dropping one is caught."""

    def drop_first(st, out):
        if len(out.store) > 1:
            out.store = {l: o for l, o in out.store.items() if l != min(st.store)}

    corrupting_step(monkeypatch, "R-NEW", drop_first)
    ct, program = load_corpus_file("peano_pull.fsj")
    res = audit_run(ct, program.main, "peano_pull.fsj")
    assert res.violation is not None
    assert res.violation.prop == "subject_reduction"
    assert "dropped or retyped @0" in res.violation.detail


def test_audit_catches_a_step_whose_type_grows(monkeypatch):
    """`new B()` types B; a machine that allocates an A, B's superclass,
    in its place leaves an expression that types only to the larger A."""

    def allocate_the_parent(st, out):
        l = len(out.store) - 1
        out.store[l] = StoredObject("A", ())

    corrupting_step(monkeypatch, "R-NEW", allocate_the_parent)
    program = parse_program(
        """
        class A extends Object { A() { super(); } }
        class B extends A { B() { super(); } }
        new B()
        """
    )
    ct = build_class_table(program)
    res = audit_run(ct, program.main)
    assert (res.violation.prop, res.violation.step) == ("subject_reduction", 1)
    assert res.violation.detail == "type grew from B to A on R-NEW"


def test_audit_catches_a_location_retyped_in_place(monkeypatch):
    """Σ keeps the class it first saw at each location, so an object
    swapped for one of another class is retyped, even where the store
    still has every location and the expression still types."""

    def retype_first(st, out):
        if len(out.store) == 2:
            out.store[0] = StoredObject("B", ())

    corrupting_step(monkeypatch, "R-NEW", retype_first)
    program = parse_program(
        """
        class A extends Object { A() { super(); } }
        class B extends Object { B() { super(); } }
        let a = new A() in let b = new B() in a
        """
    )
    ct = build_class_table(program)
    res = audit_run(ct, program.main)
    assert (res.violation.prop, res.violation.step) == ("subject_reduction", 3)
    assert res.violation.detail == "store typing dropped or retyped @0"


def replace_once(monkeypatch, rule, replace_entry):
    """Let replace_entry(outcome) corrupt the first `rule` step it can; the
    returned list then holds that step's number."""
    hit = []

    def corrupt(st, out):
        if not hit and replace_entry(out):
            hit.append(out.steps)

    corrupting_step(monkeypatch, rule, corrupt)
    return hit


def untouched_object(out):
    """A location with fields that this allocation did not create, or None."""
    store = out.store
    fresh = len(store) - 1
    return next((l for l in sorted(store) if l != fresh and store[l].fields), None)


def test_audit_retypes_an_untouched_object_replaced_in_place(monkeypatch):
    """An allocation leaves every other object alone; one swapped behind the
    step's back for an ill-typed object is still re-typed and caught."""

    def dangle(out):
        l = untouched_object(out)
        if l is None:
            return False
        obj = out.store[l]
        out.store[l] = StoredObject(obj.cls, (999,) * len(obj.fields))
        return True

    hit = replace_once(monkeypatch, "R-NEW", dangle)
    ct, program = load_corpus_file("peano_pull.fsj")
    res = audit_run(ct, program.main, "peano_pull.fsj")
    assert res.violation is not None
    assert (res.violation.prop, res.violation.step) == ("subject_reduction", hit[0])
    assert "after R-NEW: @" in res.violation.detail
    assert "holds an ill-typed object: location @999 not in store typing" in res.violation.detail


def test_audit_retypes_an_untouched_handler_replaced_in_place(monkeypatch):
    """Same for a handler entry: an allocation never touches the handler store."""

    def retype_handler(out):
        if not out.handlers:
            return False
        key = next(iter(out.handlers))
        out.handlers[key] = New("Nat", ())
        return True

    hit = replace_once(monkeypatch, "R-NEW", retype_handler)
    ct, program = load_corpus_file("handler_delivery.fsj")
    res = audit_run(ct, program.main, "handler_delivery.fsj")
    assert res.violation is not None
    assert (res.violation.prop, res.violation.step) == ("subject_reduction", hit[0])
    assert res.violation.detail.endswith("have type Nat, expected Unit")


def test_audit_accepts_an_equal_copy_of_an_object(monkeypatch):
    """A store entry that is new by identity but equal in value re-types fine."""

    def copy(out):
        l = untouched_object(out)
        if l is None:
            return False
        obj = out.store[l]
        out.store[l] = StoredObject(obj.cls, tuple(obj.fields))
        assert out.store[l] == obj and out.store[l] is not obj
        return True

    hit = replace_once(monkeypatch, "R-NEW", copy)
    ct, program = load_corpus_file("peano_pull.fsj")
    res = audit_run(ct, program.main, "peano_pull.fsj")
    assert hit and (res.violation, res.run.status) == (None, "terminal")


def test_audit_refuses_an_object_deleted_in_place(monkeypatch):
    """A journaled store refuses every change it cannot record, so an
    allocation that deletes an entry behind the step's back raises
    instead of going unseen."""

    def delete(out):
        l = untouched_object(out)
        if l is None:
            return False
        del out.store[l]
        return True

    hit = replace_once(monkeypatch, "R-NEW", delete)
    ct, program = load_corpus_file("peano_pull.fsj")
    with pytest.raises(TypeError, match="changes only by item assignment"):
        audit_run(ct, program.main, "peano_pull.fsj")
    assert not hit


WHOLE_STORE = (
    "__iter__", "__reversed__", "keys", "items", "values", "copy", "__eq__", "__ne__",
    "__or__", "__ror__",
)


def whole_store_passes(monkeypatch, fuel):
    """Passes over a whole journaled store during an audit of loop_handler."""
    passes = Counter()

    def counted(name):
        method = getattr(dict, name)

        def pass_over(self, *args):
            passes[name] += 1
            return method(self, *args)

        return pass_over

    counting = type("Counting", (interp.Journal,), {n: counted(n) for n in WHOLE_STORE})
    monkeypatch.setattr(interp, "Journal", counting)
    ct, program = load_corpus_file("loop_handler.fsj")
    res = audit_run(ct, program.main, "loop_handler.fsj", fuel=fuel)
    assert (res.violation, res.run.status) == (None, "fuel")
    store, made = res.run.state.store, passes.total()
    assert type(store) is counting
    dict(store)
    assert passes.total() > made  # a copy counts
    return made


def test_audit_makes_as_many_whole_store_passes_at_any_fuel(monkeypatch):
    """An audited step reads only the entries its journal recorded, so a
    longer run, with a larger store, makes no more passes over a store."""
    assert whole_store_passes(monkeypatch, 500) == whole_store_passes(monkeypatch, 2000)


def test_audit_refocuses_once_per_step(monkeypatch):
    """An observed step hands observers the state it stepped as `before`,
    so an audit refocuses once to start and once per step, like a plain run."""
    calls = Counter()
    real = interp._refocus

    def counted(e, k):
        calls["refocus"] += 1
        return real(e, k)

    monkeypatch.setattr(interp, "_refocus", counted)
    ct, program = load_corpus_file("loop_handler.fsj")
    res = audit_run(ct, program.main, "loop_handler.fsj", fuel=500)
    assert (res.violation, res.run.status) == (None, "fuel")
    assert calls["refocus"] == 501


def test_audit_of_a_long_loop_runs_to_fuel():
    """loop_handler audited to fuel 10000 allocates 3334 objects and breaks nothing."""
    fuel = 10_000
    ct, program = load_corpus_file("loop_handler.fsj")
    res = audit_run(ct, program.main, "loop_handler.fsj", fuel=fuel)
    assert (res.violation, res.run.status) == (None, "fuel")
    assert len(res.run.state.store) == 3 + (fuel - 6) // 3


def test_audit_types_a_deep_context_to_fuel():
    """loop_handler nests one brace deeper per loop: 1667 frames at fuel 5000."""
    ct, program = load_corpus_file("loop_handler.fsj")
    res = audit_run(ct, program.main, "loop_handler.fsj", fuel=5000)
    assert (res.violation, res.run.status, res.run.state.steps) == (None, "fuel", 5000)
    depth, k = 0, res.run.state.stack
    while k is not None:
        depth, k = depth + 1, k[2]
    assert depth == 1667


PAIR = """
class A extends Object { A() { super(); } }
class B extends Object { B() { super(); } }
class Pair extends Object {
  B b;
  A a;
  Pair(B b, A a) { super(); this.b = b; this.a = a; }
}
new Pair(new B(), new A())
"""


def replace_second_step(monkeypatch, contractum):
    """Make step 2 of PAIR, which allocates the A, yield `contractum` in its
    place, in the same context: `new Pair(@0, [])`."""
    real = interp.step

    def wrapped(ct, st):
        before = st.copy()
        out = real(ct, st)
        if before.steps != 1:
            return out
        return MachineState(contractum, out.store, out.handlers, out.steps, before.stack, out.rule)

    monkeypatch.setattr(interp, "step", wrapped)
    program = parse_program(PAIR)
    ct = build_class_table(program)
    with pytest.raises(TypingError) as plugged:
        type_expr(ct, {}, {0: "B"}, New("Pair", (Loc(0), contractum)))
    return audit_run(ct, program.main), plugged.value.message


@pytest.mark.parametrize(
    "contractum", [New("B", ()), Loc(0)], ids=["stays-in-its-frame", "plugged-into-it"]
)
def test_audit_types_the_contractum_in_its_frame(monkeypatch, contractum):
    """A B where the frame needs an A types by itself but not in its frame,
    whether it is still a redex in the frame the last step typed or a
    location plugged into it; the audit gives the plugged term's error."""
    res, plugged = replace_second_step(monkeypatch, contractum)
    assert plugged == "field a of new Pair needs A, got B"
    assert (res.violation.prop, res.violation.step) == ("subject_reduction", 2)
    assert res.violation.detail == f"untypable after R-NEW: {plugged}"


def test_audit_reports_the_error_the_plugged_term_meets_first(monkeypatch):
    """The contractum's free variable is its focus, but typing the plugged
    term meets the missing method of the frame around it first."""
    res, plugged = replace_second_step(monkeypatch, Invoke(Loc(0), "nope", (Var("x"),)))
    assert plugged == "B has no method nope"
    assert (res.violation.prop, res.violation.step) == ("subject_reduction", 2)
    assert res.violation.detail == f"untypable after R-NEW: {plugged}"


class FullRecheck:
    """Subject reduction re-derived from scratch on every step: Σ from the
    whole store, the expression typed without a memo, both stores typed
    in full.  Returns the violation's detail, or None."""

    def __init__(self, ct, t0):
        self.ct, self.type, self.sigma = ct, t0, {}

    def __call__(self, out, after):
        ct, sigma = self.ct, self.sigma
        for l, obj in after.store.items():
            sigma.setdefault(l, obj.cls)
        try:
            t_now = type_expr(ct, {}, sigma, after.expr)
        except TypingError as err:
            return f"untypable after {out.rule}: {err.message}"
        if not is_subtype(ct, t_now, self.type):
            return f"type grew from {self.type} to {t_now} on {out.rule}"
        lost = [l for l, c in sigma.items() if l not in after.store or after.store[l].cls != c]
        if lost:
            return f"store typing dropped or retyped @{lost[0]}"
        msg = check_store_typing(ct, after.store, after.handlers, sigma)
        if msg is not None:
            return f"after {out.rule}: {msg}"
        self.type = t_now
        return None


def differential_audit(ct, main, fuel, mutations=frozenset()):
    """Run the audit's incremental observer and the full recheck on the same
    steps; they must agree on every verdict, type and store typing."""
    t0 = type_expr(ct, {}, {}, main)
    incremental, full = SubjectReduction(ct, "<main>", t0), FullRecheck(ct, t0)
    compared = []

    def observe(before, after):
        got = incremental(before, after)
        want = full(after, after)
        assert (got and got.detail) == want, after.steps
        assert (incremental.type, incremental.sigma) == (full.type, full.sigma), after.steps
        compared.append(got is None)
        return got

    run(ct, main, fuel, mutations, observers=[observe])
    return compared


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fsj")), ids=lambda p: p.name)
def test_incremental_audit_matches_full_recheck_on_corpus(path):
    """Fuel 1000 takes loop_handler's context some 170 frames deep."""
    ct, program = load_corpus_file(path.name)
    assert all(differential_audit(ct, program.main, 1000))


@pytest.mark.parametrize(
    "mutations, seeds, fails",
    [
        (frozenset(), range(200), False),
        (frozenset({MUT_NO_THIS_SUBST}), range(60), True),
        (frozenset({MUT_SWAP_ASSIGN}), range(60), False),
    ],
    ids=["default", MUT_NO_THIS_SUBST, MUT_SWAP_ASSIGN],
)
def test_incremental_audit_matches_full_recheck_on_seeds(mutations, seeds, fails):
    """Without `this` substituted, pulls leave `this` free, and both paths
    must reject the same step with the same message.  A swapped write
    dispatch breaks the write discipline but never typing."""
    steps = failed = 0
    for seed in seeds:
        program, ct = generate_program(GenConfig(seed=seed))
        assert check_program(ct, program).ok
        compared = differential_audit(ct, program.main, CAMPAIGN_FUEL, mutations)
        steps += len(compared)
        failed += compared.count(False)
    assert steps > 1000
    assert (failed > 0) == fails


def test_plain_write_silent_judges_every_plain_write():
    """Dispatching a plain write as a signal write is caught at the write,
    not only by the vacuity guard for lack of an R-ASSIGN step."""
    ct, program = load_corpus_file("plain_assign.fsj")
    mutations = frozenset({MUT_SWAP_ASSIGN})
    _, trace = traced_run(ct, program.main, CAMPAIGN_FUEL, mutations)
    write = next(ev.step for ev in trace if ev.rule == "R-ASSIGNS")
    scenario = PlainWriteSilent(ct, "plain_assign.fsj")
    res = run(ct, program.main, CAMPAIGN_FUEL, mutations, observers=[scenario])
    report = scenario.report(res)
    assert (report.outcome, report.step) == ("violation", write + 1)
    assert report.detail == "write to unmodified field Counter.v scheduled notification work"


@pytest.mark.parametrize("seed", [204, 274, 752])
def test_campaign_catches_a_machine_that_drops_downstream_handlers(monkeypatch, seed):
    """The only default seeds below 1000 whose pushes splice a registered
    downstream handler; the audit's handler-delivery observer sees it go."""
    monkeypatch.setattr(interp, "handlers_of", lambda ct, handlers, store, key: EMPTY)
    res = campaign(1, base_seed=seed)
    assert [r.prop for _, r in res.violations] == ["handler_delivery"]
    assert res.violations[0][1].detail.endswith("missing from the brace's reduct")


def test_audit_catches_handlers_scheduled_out_of_registration_order(monkeypatch):
    """broadcast.fsj subscribes twice on one field; a write whose brace
    holds them in reverse order is a delivery violation at that write."""
    real = interp.step

    def reversed_delivery(ct, st):
        before = st.copy()
        out = real(ct, st)
        if out is not None and out.rule == "R-ASSIGNS":
            key = (before.focus.recv.loc, before.focus.fname)
            chain, handlers = out.handlers[key], []
            while isinstance(chain, Seq):
                handlers.append(chain.second)
                chain = chain.first
            for h in handlers:  # latest first, so the first registered ends outermost
                chain = Seq(chain, h)
            brace = EffectBrace(chain, key)
            return MachineState(brace, out.store, out.handlers, out.steps, before.stack, out.rule)
        return out

    monkeypatch.setattr(interp, "step", reversed_delivery)
    ct, program = load_corpus_file("broadcast.fsj")
    res = audit_run(ct, program.main, "broadcast.fsj")
    assert res.violation.prop == "handler_delivery", res.violation.line()
    assert res.violation.detail == "handlers on @1.n scheduled out of registration order"


def test_audit_catches_one_of_two_equal_handlers_missing_from_a_write(monkeypatch):
    """Two equal handlers subscribed on one field; a write whose brace
    holds only one of them is missing a handler, not out of order."""
    real = interp.step

    def dropped_delivery(ct, st):
        before = st.copy()
        out = real(ct, st)
        if out is not None and out.rule == "R-ASSIGNS":
            key = (before.focus.recv.loc, before.focus.fname)
            brace = EffectBrace(Seq(EMPTY, EMPTY), key)  # one unit of the two
            return MachineState(brace, out.store, out.handlers, out.steps, before.stack, out.rule)
        return out

    monkeypatch.setattr(interp, "step", dropped_delivery)
    program = parse_program(
        """
        class Nat extends Object { Nat() { super(); } }
        class Pump extends Object { signal Nat n; Pump(Nat n) { super(); this.n = n; } }
        let p = new Pump(new Nat()) in
        (p.n.subscribe(unit); (p.n.subscribe(unit); (p.n = new Nat(); p.n)))
        """
    )
    ct = build_class_table(program)
    assert not check_program(ct, program).errors
    res = audit_run(ct, program.main)
    assert res.violation.prop == "handler_delivery", res.violation.line()
    assert res.violation.detail == "handler on @1.n missing from its write"


def test_untraced_runs_build_no_trace_events(monkeypatch, corpus_audits, scenario_reports):
    """A bare `run` builds no Journal and no TraceEvent, and audits and
    scenarios no TraceEvent; a run passed a `TraceObserver` still builds
    every event, as the golden trace records them."""

    class Forbidden:
        def __init__(self, *args, **kwargs):
            raise AssertionError("an untraced run built a trace event or a journal")

    journal = interp.Journal
    monkeypatch.setattr(interp, "TraceEvent", Forbidden)
    monkeypatch.setattr(interp, "Journal", Forbidden)
    corpus = load_corpus(CORPUS)
    for name, program, ct in corpus:
        assert run(ct, program.main, fuel=2500).status in ("terminal", "fuel"), name
    monkeypatch.setattr(interp, "Journal", journal)
    for name, program, ct in corpus:
        assert audit_run(ct, program.main, name, fuel=2500).reports() == corpus_audits[name].reports()
    assert scenario_suite(CORPUS) == scenario_reports

    monkeypatch.undo()
    program = parse_program((CORPUS / "subscribe_push.fsj").read_text())
    _, trace = traced_run(build_class_table(program), program.main)
    for suffix, render in (("txt", interp.TraceEvent.to_line), ("jsonl", interp.TraceEvent.to_json)):
        golden = (GOLDEN / f"subscribe_push.trace.{suffix}").read_text().splitlines()
        assert [render(ev) for ev in trace] == golden[1:-1]


def test_audit_statuses():
    ct, program = load_corpus_file("loop_handler.fsj")
    res = audit_run(ct, program.main, fuel=300)
    assert (res.violation, res.run.status) == (None, "fuel")
    ct, program = load_corpus_file("plain_assign.fsj")
    res = audit_run(ct, program.main)
    assert (res.violation, res.run.status) == (None, "terminal")
    assert res.rules["R-ASSIGN"] == 1


# ------------------------------------------------------------- generator


def test_generator_is_deterministic():
    a, _ = generate_program(GenConfig(seed=12))
    b, _ = generate_program(GenConfig(seed=12))
    assert render_program(a) == render_program(b)


@pytest.fixture(scope="module")
def generated(regen):
    """generate_program's pair for each golden seed, per config name."""
    return {name: regen["generated"](name) for name in regen["GEN_CONFIGS"]}


def test_generated_programs_match_golden(generated, regen):
    """One sha256 per config over every golden seed's rendered program,
    each text ended by a NUL byte, pins the generator's output itself
    (scripts/regen_golden.py)."""
    digests = regen["generated_programs"](generated.__getitem__)
    assert digests == json.loads((GOLDEN / "generated_programs.json").read_text())


def test_generated_table_equals_a_fresh_build(generated):
    for pairs in generated.values():
        for program, ct in pairs:
            fresh = build_class_table(program)
            assert list(ct.items()) == list(fresh.items())
            for c, info in ct.items():
                assert list(info.fields) == list(fresh[c].fields)
                assert list(info.methods) == list(fresh[c].methods)


@pytest.mark.parametrize("seed", [0, 3, 17, 101, 512, 999])
def test_campaign_seed_builds_one_table(seed, monkeypatch):
    """The generator's one table, extended as its passes add members, and
    no build of the campaign's own."""
    builds = []

    def counted(program):
        builds.append(program)
        return build_class_table(program)

    monkeypatch.setattr(gen, "build_class_table", counted)
    monkeypatch.setattr(metatheory, "build_class_table", counted)
    res = campaign(1, base_seed=seed)
    assert res.violations == []
    assert len(builds) == 1


def test_generator_varies_with_seed():
    texts = {render_program(generate_program(GenConfig(seed=s))[0]) for s in range(12)}
    assert len(texts) > 6


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_generated_programs_check(seed):
    program, ct = generate_program(GenConfig(seed=seed))
    report = check_program(ct, program)
    assert report.ok, report.errors


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_generated_programs_with_signal_handlers_check(seed):
    cfg = GenConfig(seed=seed, handlers_write_signals=True, subscribe_probability=0.9)
    program, ct = generate_program(cfg)
    assert check_program(ct, program).ok


def test_generated_subscribe_respects_probability():
    def has_subscribe(cfg):
        program, _ = generate_program(cfg)
        return any(
            isinstance(e, Subscribe) for e in iter_subexprs(program.main)
        )

    none = sum(has_subscribe(GenConfig(seed=s, subscribe_probability=0.0)) for s in range(40))
    lots = sum(has_subscribe(GenConfig(seed=s, subscribe_probability=1.0)) for s in range(40))
    assert none == 0
    assert lots > 10


# ------------------------------------------- typing lemmas, property style

LEMMA_CLASSES = """
class A extends Object {
  A() { super(); }
  A m(A y) { y }
}
class B extends A {
  B() { super(); }
}
unit
"""

TEMPLATES = [
    "x",
    "x.m(x)",
    "new A().m(x)",
    "let y = x in y.m(x)",
    "unit; x.m(new B())",
]


@pytest.fixture(scope="module")
def lemma_ct():
    return build_class_table(parse_program(LEMMA_CLASSES))


@settings(max_examples=40, deadline=None)
@given(template=st.sampled_from(TEMPLATES), cls=st.sampled_from(["A", "B"]))
def test_weakening(template, cls):
    ct = build_class_table(parse_program(LEMMA_CLASSES))
    e = parse_expr(template)
    t = type_expr(ct, {"x": cls}, {}, e)
    t_wide = type_expr(ct, {"x": cls, "zzz": "Object"}, {0: "B"}, e)
    assert t == t_wide


@settings(max_examples=40, deadline=None)
@given(template=st.sampled_from(TEMPLATES), bound=st.sampled_from(["A", "B"]))
def test_substitution_preserves_types(template, bound):
    """Replacing a variable with a location of a subtype can only
    tighten the overall type."""
    from fsj import is_subtype

    ct = build_class_table(parse_program(LEMMA_CLASSES))
    e = parse_expr(template)
    declared = type_expr(ct, {"x": "A"}, {}, e)
    replaced = subst(e, {"x": Loc(0)})
    narrowed = type_expr(ct, {}, {0: bound}, replaced)
    assert is_subtype(ct, narrowed, declared)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_source_modifier_irrelevant_without_subscribe(seed):
    """With no subscriptions anywhere, flipping source-field modifiers
    cannot change whether or what the program types to."""
    cfg = GenConfig(seed=seed, subscribe_probability=0.0)
    program, ct = generate_program(cfg)
    before = check_program(ct, program)

    flip = {Modifier.SIGNAL: Modifier.PLAIN, Modifier.PLAIN: Modifier.SIGNAL}
    classes = [
        replace(
            cl,
            sources=[replace(sf, modifier=flip[sf.modifier]) for sf in cl.sources],
        )
        for cl in program.classes
    ]
    flipped = replace(program, classes=classes)
    ct2 = build_class_table(flipped)
    after = check_program(ct2, flipped)
    assert before.ok and after.ok
    assert before.main_type == after.main_type


# -------------------------------------------------------------- campaign


def test_campaign_clean():
    res = campaign(120, base_seed=500)
    assert res.count == 120
    assert res.violations == []
    tally = res.tally()
    assert tally["subject_reduction"]["pass"] == 120
    assert set(tally["progress"]) <= {"pass", "fuel"}


def test_campaign_covers_every_rule():
    res = campaign(200, base_seed=0)
    for rule in (
        "R-FIELD",
        "R-FIELDS",
        "R-INVK",
        "R-NEW",
        "R-ASSIGN",
        "R-ASSIGNS",
        "R-ASSIGNCONT",
        "R-SUBSCRIBE",
        "R-CAT",
        "R-LET",
    ):
        assert res.rules[rule] >= 2, rule


@pytest.mark.parametrize("mutation", sorted(interp.MUTANTS))
def test_campaign_detects_broken_machine(mutation, mutated_campaigns):
    assert len(mutated_campaigns[mutation].violations) > 0


@pytest.mark.parametrize("mutation", sorted(interp.MUTANTS))
def test_campaign_reports_match_separate_checks(mutation):
    """One audited run gives the same two reports as the two checks run apart."""
    mutations = frozenset({mutation})
    violated = 0
    for seed in range(60):
        program, ct = generate_program(GenConfig(seed=seed))
        label = f"seed={seed}"
        res = campaign(1, base_seed=seed, mutations=mutations)
        reports = [r for _, r in res.reports]
        assert reports == [
            audit_run(ct, program.main, label, CAMPAIGN_FUEL, mutations).reports()[0],
            check_progress(ct, program.main, label, CAMPAIGN_FUEL, mutations),
        ]
        violated += not reports[0].ok
    assert violated > 0


def test_campaign_reports_match_golden(big_campaign, mutated_campaigns, regen):
    """Every report of the default campaign and of both broken machines is
    the recorded one (scripts/regen_golden.py)."""
    digests = regen["campaign_reports"](
        lambda name: big_campaign if name == "default" else mutated_campaigns[name]
    )
    assert digests == json.loads((GOLDEN / "campaign_reports.json").read_text())


@pytest.mark.parametrize("seed", [12, 205])
def test_campaign_audits_cascading_handlers_to_fuel(seed):
    """Cascading handlers nest the context well over a thousand frames deep;
    the audit types it frame by frame, so both theorems run out of fuel."""
    res = campaign(1, base_seed=seed, config=GenConfig(handlers_write_signals=True))
    assert [(s, r.prop, r.outcome, r.step) for s, r in res.reports] == [
        (seed, "subject_reduction", "fuel", CAMPAIGN_FUEL),
        (seed, "progress", "fuel", CAMPAIGN_FUEL),
    ]


def test_campaign_crash_keeps_going_and_shrinks(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(metatheory, "audit_run", explode)
    res = campaign(3, base_seed=0)
    assert [(s, r.outcome, r.detail) for s, r in res.reports] == [
        (s, "crash", f"RuntimeError in audit of seed {s}: boom") for s in range(3)
    ]
    shrunk = shrink_campaign_failure(0, P_NO_CRASH)
    program, _ = generate_program(GenConfig(seed=0))
    assert _size(shrunk) < _size(program)
    # a candidate still fails only if it checks and then the audit raises
    ct = build_class_table(shrunk)
    assert check_program(ct, shrunk).ok


def test_campaign_reports_an_ill_typed_generated_program(monkeypatch):
    """A generator that emits an ill-typed program is a violation of its
    own, which names the checker's first errors with their positions."""
    program = parse_program((CORPUS / "illtyped" / "composite_assign.fsj").read_text())
    ct = build_class_table(program)
    errors = check_program(ct, program).errors
    monkeypatch.setattr(metatheory, "generate_program", lambda cfg: (program, ct))
    res = campaign(1, base_seed=7)
    detail = "; ".join(f"{e.span}: {e.message} [{e.kind.value}]" for e in errors[:3])
    assert errors[0].span is not None
    assert res.reports == [
        (7, PropertyReport("well_typed_generation", "seed=7", "violation", None, detail))
    ]


def test_shrink_campaign_failure_minimizes_a_stuck_machine(monkeypatch):
    """A machine that wedges on every allocation fails progress on seed 0,
    and the shrunk witness still checks and still gets it stuck."""
    real = interp.step

    def stuck_on_new(ct, st):
        if type(st.focus) is New:
            raise StuckError(st)
        return real(ct, st)

    monkeypatch.setattr(interp, "step", stuck_on_new)
    assert ("progress", "violation") in [(r.prop, r.outcome) for _, r in campaign(1).reports]
    shrunk = shrink_campaign_failure(0, P_PROGRESS)
    program, _ = generate_program(GenConfig(seed=0))
    assert _size(shrunk) < _size(program)
    ct = build_class_table(shrunk)
    assert check_program(ct, shrunk).ok
    res = audit_run(ct, shrunk.main)
    assert (res.violation, res.run.status) == (None, "stuck")


def test_report_line_format():
    res = campaign(1, base_seed=0)
    seed, report = res.reports[0]
    line = report.line()
    assert "theorem=" in line and "result=" in line


# -------------------------------------------------------------- shrinking


def test_shrink_keeps_predicate_and_never_grows():
    program, _ = generate_program(GenConfig(seed=77))

    def has_let(p):
        from fsj.syntax import Let

        return any(isinstance(e, Let) for e in iter_subexprs(p.main))

    if not has_let(program):
        pytest.skip("seed grew no let")
    small = shrink(program, has_let)
    assert has_let(small)
    assert _size(small) <= _size(program)
    # the shrunk program still goes through the table builder
    build_class_table(small)


# one node of each source form, and its subterms in order
NODE_SUBTERMS = [
    ("x.f", ["x"]),
    ("x.m(y, z)", ["x", "y", "z"]),
    ("new A(x, y)", ["x", "y"]),
    ("x.f = y", ["x", "y"]),
    ("x; y", ["x", "y"]),
    ("x.f.subscribe(y)", ["x", "y"]),
    ("let v = x in y", ["x", "y"]),
    ("x", []),
    ("unit", []),
    ("new A()", []),
]


@pytest.mark.parametrize("source, subterms", NODE_SUBTERMS, ids=[s for s, _ in NODE_SUBTERMS])
def test_a_node_shrinks_to_each_subterm_then_to_unit(source, subterms):
    """One rule for every node: each subterm, left to right, and then
    unit; a leaf has no shrinks."""
    shrinks = list(gen._expr_shrinks(parse_expr(source)))
    assert shrinks == ([*map(parse_expr, subterms), EMPTY] if subterms else [])


def test_every_candidate_is_smaller_and_builds():
    """Every move deletes something, so the shrinker terminates without
    comparing sizes, and none deletes a class another class extends."""
    for seed in range(100):
        program, _ = generate_program(GenConfig(seed=seed))
        size = _size(program)
        for q in gen._candidates(program):
            assert _size(q) < size
            build_class_table(q)


# 400 classes: each pass's first candidate deletes the first of them
MANY_CLASSES = parse_program(
    "".join(f"class C{i} extends Object {{ C{i}() {{ super(); }} }}\n" for i in range(400)) + "unit"
)


@pytest.mark.parametrize("holds", [True, False], ids=["every-candidate", "no-candidate"])
def test_shrink_stops_at_its_budget(holds):
    """Whether a predicate takes every candidate or none, the shrinker
    calls it MAX_SHRINK_CHECKS times and no more."""
    assert sum(1 for _ in gen._candidates(MANY_CLASSES)) > gen.MAX_SHRINK_CHECKS
    calls = []
    small = shrink(MANY_CLASSES, lambda p: calls.append(p) or holds)
    assert len(calls) == gen.MAX_SHRINK_CHECKS
    if holds:
        assert small is calls[-1]
        assert [d.name for d in small.classes] == [f"C{i}" for i in range(300, 400)]
    else:
        assert small is MANY_CLASSES


def test_a_raising_predicate_rejects_every_candidate():
    """A candidate whose predicate raises counts as not failing, so the
    program comes back as it was."""
    program, _ = generate_program(GenConfig(seed=77))
    text = render_program(program)

    def raises(p):
        raise RuntimeError("predicate crashed")

    assert shrink(program, raises) is program
    assert render_program(program) == text


def test_shrink_campaign_failure_reproduces():
    shrunk = shrink_campaign_failure(
        0, "subject_reduction", mutations=frozenset({MUT_NO_THIS_SUBST})
    )
    ct = build_class_table(shrunk)
    assert check_program(ct, shrunk).ok
    res = audit_run(ct, shrunk.main, mutations=frozenset({MUT_NO_THIS_SUBST}))
    assert res.violation is not None
    assert res.violation.prop == "subject_reduction"


def test_shrink_predicate_is_the_campaigns_verdict(mutated_campaigns, monkeypatch):
    """On both broken machines, the predicate the shrinker is handed
    accepts each violating seed's own program for every property the
    campaign saw it fail, and rejects it for every property whose report
    passed."""
    predicates = []

    def unshrunk(program, predicate):
        predicates.append(predicate)
        return program

    def still_fails(p):  # a raising predicate rejects, as in `shrink`
        try:
            return predicates[-1](p)
        except Exception:
            return False

    monkeypatch.setattr(metatheory, "shrink", unshrunk)
    failing, disagreements = Counter(), []
    for mutation, res in sorted(mutated_campaigns.items()):
        mutations = frozenset({mutation})
        violating = {seed for seed, _ in res.violations}
        for seed, report in res.reports:
            if seed not in violating:
                continue
            failing[mutation, report.prop] += not report.ok
            program = shrink_campaign_failure(seed, report.prop, mutations=mutations)
            if still_fails(program) == report.ok:
                disagreements.append((mutation, seed, report.prop, report.outcome))
    assert +failing == {
        (MUT_NO_THIS_SUBST, "subject_reduction"): 48,
        (MUT_NO_THIS_SUBST, P_PROGRESS): 48,
        (MUT_SWAP_ASSIGN, "handler_delivery"): 31,
        (MUT_SWAP_ASSIGN, "plain_write_silent"): 23,
    }
    assert disagreements == []


def test_shrink_campaign_failure_minimizes_progress_after_a_violation():
    """A run that an oracle flags before the machine wedges fails progress
    too, and its witness for progress is smaller and still wedges; the
    shrinker once read the audit's "violated" status as a pass and
    returned seed 0's program unshrunk."""
    mutations = frozenset({MUT_NO_THIS_SUBST})
    shrunk = shrink_campaign_failure(0, P_PROGRESS, mutations=mutations)
    program, _ = generate_program(GenConfig(seed=0))
    assert _size(shrunk) < _size(program)
    ct = build_class_table(shrunk)
    assert check_program(ct, shrunk).ok
    assert audit_run(ct, shrunk.main, mutations=mutations).run.status == "stuck"


@pytest.mark.parametrize("mutation", sorted(interp.MUTANTS))
def test_mutant_witness_is_one_minimal(mutation, mutated_campaigns, monkeypatch):
    """No single shrinking move leaves a program that still fails with
    the first violation's property, every move leaves a smaller one, and
    the shrinker got there in its pinned number of checks, well inside
    its budget."""
    seed, report = mutated_campaigns[mutation].violations[0]
    predicates, calls = [], []

    def recording_shrink(program, predicate):
        predicates.append(predicate)
        return shrink(program, lambda p: calls.append(p) or predicate(p))

    def still_fails(p):  # a raising predicate rejects, as in `shrink`
        try:
            return predicates[0](p)
        except Exception:
            return False

    monkeypatch.setattr(metatheory, "shrink", recording_shrink)
    witness = shrink_campaign_failure(seed, report.prop, mutations=frozenset({mutation}))
    assert still_fails(witness)
    pins = json.loads((GOLDEN / "campaign_reports.json").read_text())[mutation]
    assert len(calls) == pins["witness_checks"] < gen.MAX_SHRINK_CHECKS
    candidates = list(gen._candidates(witness))
    assert candidates
    assert all(_size(q) < _size(witness) for q in candidates)
    assert not any(still_fails(q) for q in candidates)


def test_shrink_leaves_its_input_unchanged():
    """Deleting a parent class's source field rebuilds every constructor
    on the candidate's own records, never on the program it came from.
    A is kept: no move deletes a class that another class extends."""
    program = parse_program(
        """
        class A extends Object { Object a; A(Object a) { super(); this.a = a; } }
        class B extends A {
          Object b;
          B(Object a, Object b) { super(a); this.b = b; }
        }
        new B(new Object(), new Object())
        """
    )
    text = render_program(program)
    decls = list(program.classes)
    ctors = [d.ctor for d in decls]
    small = shrink(program, lambda q: any(d.name == "B" for d in q.classes))
    assert [(d.name, d.sources, d.ctor.params) for d in small.classes] == [
        ("A", [], []),
        ("B", [], []),
    ]
    assert render_program(program) == text
    assert all(d is e for d, e in zip(program.classes, decls, strict=True))
    assert all(d.ctor is c for d, c in zip(program.classes, ctors))
