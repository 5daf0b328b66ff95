"""Soundness oracles: store typing, per-step audits, the generator, and
the seeded campaign."""

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
    check_subject_reduction,
    load_corpus,
    parse_expr,
    parse_program,
    render_program,
    run,
    type_expr,
)
from fsj import interp
from fsj.gen import GenConfig, generate_program, shrink
from fsj.interp import MUT_NO_THIS_SUBST, MUT_SWAP_ASSIGN, subst
from fsj.metatheory import CAMPAIGN_FUEL, audit_run, shrink_campaign_failure
from fsj.syntax import EMPTY, Loc, Modifier, New, Subscribe, iter_subexprs

from conftest import CORPUS, load_corpus_file

# ------------------------------------------------------------ store typing


def settled(name="plain_assign.fsj"):
    ct, program = load_corpus_file(name)
    res = run(ct, program.main, collect_trace=False)
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


def corrupting_step(monkeypatch, rule, corrupt):
    """Make interp.step call corrupt(state_before, outcome) after each `rule` step."""
    real = interp.step

    def wrapped(ct, st, mutations=frozenset()):
        out = real(ct, st, mutations)
        if out is not None and out.rule == rule:
            corrupt(st, out)
        return out

    monkeypatch.setattr(interp, "step", wrapped)


def test_audit_sees_a_pull_that_changes_handlers_in_place(monkeypatch):
    """A pull shares its handler dict with the state before it, so only the
    audit's own copy of the stores can show the change."""

    def add_handler(st, out):
        st.handlers[(min(st.store), "probe")] = EMPTY  # well typed: unit

    corrupting_step(monkeypatch, "R-FIELDS", add_handler)
    ct, program = load_corpus_file("peano_pull.fsj")
    res = audit_run(ct, program.main, "peano_pull.fsj")
    assert res.status == "violated"
    assert res.violation.prop == "pull_preserves_stores", res.violation.line()


def test_audit_store_typing_only_grows(monkeypatch):
    """Σ remembers every location it has seen, so dropping one is caught."""

    def drop_first(st, out):
        if len(out.state.store) > 1:
            out.state.store = {l: o for l, o in out.state.store.items() if l != min(st.store)}

    corrupting_step(monkeypatch, "R-NEW", drop_first)
    ct, program = load_corpus_file("peano_pull.fsj")
    res = audit_run(ct, program.main, "peano_pull.fsj")
    assert res.status == "violated"
    assert res.violation.prop == "subject_reduction"
    assert "dropped or retyped @0" in res.violation.detail


def test_audit_statuses():
    ct, program = load_corpus_file("loop_handler.fsj")
    res = audit_run(ct, program.main, fuel=300)
    assert res.status == "fuel"
    ct, program = load_corpus_file("plain_assign.fsj")
    res = audit_run(ct, program.main)
    assert res.status == "terminal"
    assert res.rules["R-ASSIGN"] == 1


# ------------------------------------------------------------- generator


def test_generator_is_deterministic():
    a = render_program(generate_program(GenConfig(seed=12)))
    b = render_program(generate_program(GenConfig(seed=12)))
    assert a == b


def test_generator_varies_with_seed():
    texts = {render_program(generate_program(GenConfig(seed=s))) for s in range(12)}
    assert len(texts) > 6


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_generated_programs_check(seed):
    program = generate_program(GenConfig(seed=seed))
    ct = build_class_table(program)
    report = check_program(ct, program)
    assert report.ok, report.errors


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_generated_programs_with_signal_handlers_check(seed):
    cfg = GenConfig(seed=seed, handlers_write_signals=True, subscribe_probability=0.9)
    program = generate_program(cfg)
    ct = build_class_table(program)
    assert check_program(ct, program).ok


def test_generated_subscribe_respects_probability():
    def has_subscribe(cfg):
        program = generate_program(cfg)
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
    program = generate_program(cfg)
    ct = build_class_table(program)
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


@pytest.mark.parametrize("mutation", sorted([MUT_NO_THIS_SUBST, MUT_SWAP_ASSIGN]))
def test_campaign_detects_broken_machine(mutation):
    res = campaign(120, base_seed=0, mutations=frozenset({mutation}))
    assert len(res.violations) > 0


@pytest.mark.parametrize("mutation", sorted([MUT_NO_THIS_SUBST, MUT_SWAP_ASSIGN]))
def test_campaign_reports_match_separate_checks(mutation):
    """One audited run gives the same two reports as the two checks run apart."""
    mutations = frozenset({mutation})
    violated = 0
    for seed in range(60):
        program = generate_program(GenConfig(seed=seed))
        ct = build_class_table(program)
        label = f"seed={seed}"
        res = campaign(1, base_seed=seed, mutations=mutations)
        reports = [r for _, r in res.reports]
        assert reports == [
            check_subject_reduction(ct, program.main, label, CAMPAIGN_FUEL, mutations),
            check_progress(ct, program.main, label, CAMPAIGN_FUEL, mutations),
        ]
        violated += not reports[0].ok
    assert violated > 0


def test_report_line_format():
    res = campaign(1, base_seed=0)
    seed, report = res.reports[0]
    line = report.line()
    assert "theorem=" in line and "result=" in line


# -------------------------------------------------------------- shrinking


def test_shrink_keeps_predicate_and_never_grows():
    from fsj.gen import _size

    program = generate_program(GenConfig(seed=77))

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


def test_shrink_campaign_failure_reproduces():
    shrunk = shrink_campaign_failure(
        0, "subject_reduction", mutations=frozenset({MUT_NO_THIS_SUBST})
    )
    ct = build_class_table(shrunk)
    assert check_program(ct, shrunk).ok
    res = audit_run(ct, shrunk.main, mutations=frozenset({MUT_NO_THIS_SUBST}))
    assert res.status == "violated"
    assert res.violation.prop == "subject_reduction"
