"""Acceptance gate: ten criteria, one test and one verdict line each.

Run `pytest tests/test_acceptance.py -v` for the pass/fail roll-up, or
add -s to see the verdict lines inline.
"""

import time

import pytest

from fsj import (
    build_class_table,
    chain_depth,
    check_program,
    parse_program,
    run,
)
from fsj.cli import EXIT_OK, main
from fsj.interp import (
    MUT_NO_THIS_SUBST,
    MUT_SWAP_ASSIGN,
    MachineState,
    StoredObject,
    StuckError,
    step,
)
from fsj.syntax import Assign, Loc
from fsj.typecheck import ErrKind

from conftest import CORPUS, GOLDEN, load_corpus_file, traced_run
from test_typing_rules import CASES, run_case


def verdict(num, name, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {word}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_pull_recomputes(capsys):
    depths = {}
    elapsed = {}
    for name, want in (("peano_pull_before.fsj", 8), ("peano_pull.fsj", 9)):
        ct, program = load_corpus_file(name)
        t0 = time.perf_counter()
        res = run(ct, program.main)
        elapsed[name] = time.perf_counter() - t0
        assert res.status == "terminal"
        depths[name] = chain_depth(res.state.store, res.final.loc)
    ok = (
        depths["peano_pull_before.fsj"] == 8
        and depths["peano_pull.fsj"] == 9
        and all(t < 1.0 for t in elapsed.values())
    )
    with capsys.disabled():
        verdict(
            1,
            "derived field recomputed on read",
            ok,
            f"before-write=8? got {depths['peano_pull_before.fsj']};"
            f" after-write=9? got {depths['peano_pull.fsj']};"
            f" slowest {max(elapsed.values()):.3f}s",
        )


def test_criterion_02_push_golden_trace(capsys):
    code = main(["trace", str(CORPUS / "subscribe_push.fsj")])
    text = capsys.readouterr().out
    code2 = main(["trace", "--format", "structured", str(CORPUS / "subscribe_push.fsj")])
    jsonl = capsys.readouterr().out

    # one notification per write, and no replay for late subscribers
    ct, program = load_corpus_file("late_subscription.fsj")
    res, trace = traced_run(ct, program.main)
    kinds = [ev.kind for ev in trace if ev.kind != "step"]
    writes = [ev for ev in trace if ev.kind == "signal-write"]
    late_ok = (
        kinds.count("signal-write") == 2
        and kinds.count("handler-enqueue") == 2
        and kinds.count("plain-write") == 1
        and res.final == Loc(writes[1].new)
    )

    ok = (
        code == EXIT_OK
        and code2 == EXIT_OK
        and text == (GOLDEN / "subscribe_push.trace.txt").read_text()
        and jsonl == (GOLDEN / "subscribe_push.trace.jsonl").read_text()
        and late_ok
    )
    with capsys.disabled():
        verdict(
            2,
            "push pipeline trace is byte-stable",
            ok,
            "golden match; late subscriber fired once, not replayed",
        )


def test_criterion_03_subject_reduction(big_campaign, corpus_audits, capsys):
    corpus_bad = [
        (name, res.violation.line())
        for name, res in corpus_audits.items()
        if res.violation is not None
    ]
    sr_violations = [
        (s, r) for s, r in big_campaign.violations if r.prop == "subject_reduction"
    ]
    ok = (
        not corpus_bad
        and not sr_violations
        and big_campaign.count >= 1000
        and big_campaign.elapsed < 60.0
    )
    with capsys.disabled():
        verdict(
            3,
            "subject reduction over corpus and 1000 seeds",
            ok,
            f"{big_campaign.count} programs in {big_campaign.elapsed:.1f}s,"
            f" corpus issues: {corpus_bad or 'none'}",
        )


def test_criterion_04_progress(big_campaign, corpus_audits, capsys):
    stuck = [name for name, res in corpus_audits.items() if not res.reports()[1].ok]
    campaign_stuck = [
        (s, r) for s, r in big_campaign.reports if r.prop == "progress" and not r.ok
    ]
    ok = not stuck and not campaign_stuck
    with capsys.disabled():
        verdict(4, "no well-typed program gets stuck", ok, f"stuck: {stuck or 'none'}")


def test_criterion_05_plain_writes_silent(big_campaign, scenario_reports, capsys):
    reports = [r for r in scenario_reports if r.prop == "plain_write_silent"]
    ct, program = load_corpus_file("plain_assign.fsj")
    res = run(ct, program.main)
    silent_all = [
        (s, r) for s, r in big_campaign.violations if r.prop == "plain_write_silent"
    ]
    ok = (
        reports
        and all(r.ok for r in reports)
        and res.state.handlers == {}
        and not silent_all
    )
    with capsys.disabled():
        verdict(5, "plain writes schedule nothing", ok)


def test_criterion_06_handler_delivery(big_campaign, scenario_reports, capsys):
    (rep,) = [r for r in scenario_reports if r.prop == "handler_delivery"]
    delivery_all = [
        (s, r) for s, r in big_campaign.violations if r.prop == "handler_delivery"
    ]
    ok = rep.ok and not delivery_all
    with capsys.disabled():
        verdict(
            6,
            "registered handlers appear in every triggered expansion",
            ok,
            rep.detail or "direct and downstream both verified",
        )


def test_criterion_07_pull_preserves_stores(big_campaign, corpus_audits, scenario_reports, capsys):
    # the audit compares both stores around every pull of every corpus program
    failures = [
        name
        for name, res in corpus_audits.items()
        if res.violation is not None and res.violation.prop == "pull_preserves_stores"
    ]
    scenarios = [r for r in scenario_reports if r.prop == "pull_preserves_stores"]
    failures += [r.subject for r in scenarios if not r.ok]
    pulls = sum(res.rules["R-FIELDS"] for res in corpus_audits.values())
    pull_viol = [(s, r) for s, r in big_campaign.violations if r.prop == "pull_preserves_stores"]
    ok = (
        len(scenarios) == 2
        and not failures
        and not pull_viol
        and pulls >= 4
        and big_campaign.rules["R-FIELDS"] > 0
    )
    with capsys.disabled():
        verdict(
            7,
            "reading a derived field never writes any store",
            ok,
            f"{pulls} corpus pulls, {big_campaign.rules['R-FIELDS']} generated pulls",
        )


def test_criterion_08_composite_writes_rejected(big_campaign, capsys):
    program = parse_program((CORPUS / "illtyped" / "composite_assign.fsj").read_text())
    ct = build_class_table(program)
    report = check_program(ct, program)
    static_ok = ErrKind.ASSIGN_TO_COMPOSITE in [e.kind for e in report.errors]

    # every audited campaign step also proved no write hit an initialized field
    campaign_ok = not [
        (s, r) for s, r in big_campaign.violations if r.prop == "source_only_writes"
    ]

    # dynamically there is simply no rule for it
    state = MachineState(
        Assign(Loc(0), "echo", Loc(1)),
        {0: StoredObject("Cell", (1, 1)), 1: StoredObject("Nat", ())},
        {},
    )
    try:
        step(ct, state)
        dynamic_ok = False
    except StuckError:
        dynamic_ok = True
    ok = static_ok and dynamic_ok and campaign_ok
    with capsys.disabled():
        verdict(8, "initialized fields rejected as write targets", ok)


def test_criterion_09_typing_rules_conform(capsys):
    bad = []
    for label, kind, source in CASES:
        kinds = run_case(source)
        if kind is None:
            if kinds:
                bad.append(label)
        elif kind not in kinds:
            bad.append(label)
    with capsys.disabled():
        verdict(
            9,
            "typing rule table conforms",
            not bad,
            f"{len(CASES)} cases, failures: {bad or 'none'}",
        )


def test_criterion_10_mutation_sensitivity(big_campaign, mutated_campaigns, capsys):
    caught = {mut: len(res.violations) for mut, res in mutated_campaigns.items()}

    # each mutation must also break one of the demos above, not just the campaign
    ct, program = load_corpus_file("peano_pull.fsj")
    res = run(ct, program.main, mutations=frozenset({MUT_NO_THIS_SUBST}))
    pull_broken = res.status != "terminal" or chain_depth(res.state.store, res.final.loc) != 9

    ct, program = load_corpus_file("subscribe_push.fsj")
    clean = [ev.kind for ev in traced_run(ct, program.main)[1]]
    swapped = [
        ev.kind
        for ev in traced_run(ct, program.main, mutations=frozenset({MUT_SWAP_ASSIGN}))[1]
    ]
    push_broken = swapped != clean

    ok = (
        all(n > 0 for n in caught.values())
        and pull_broken
        and push_broken
        and not big_campaign.violations
    )
    with capsys.disabled():
        verdict(
            10,
            "oracles notice a deliberately broken machine",
            ok,
            ", ".join(f"{m}: {n} violations" for m, n in caught.items())
            + "; both demos break",
        )
