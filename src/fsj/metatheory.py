"""Executable soundness oracles.

The calculus promises that a well-typed program never gets stuck, that
every reduction preserves typing, and that specific whole-run facts hold
about the two propagation styles:

  subject-reduction   each step's result types to a subtype of the
                      previous type, the store typing only grows, and
                      both stores stay well typed against it
  progress            a well-typed expression is a location, unit, or
                      can step; the machine never wedges before fuel
  pull-preserves-stores  reading an initialized field changes no store
  source-only-writes  no reduction ever writes an initialized field,
                      statically rejected and dynamically re-checked
  plain-write-silent  a write to a plain field is an R-ASSIGN and
                      touches no handler state
  handler-delivery    a signal write schedules the handlers registered
                      on its field, in order, and one registered
                      downstream shows up in what its brace expands to

There is one stepping loop, `interp.run`; every oracle is one of its
per-step observers `(before, after) -> violation | None`.
`audit_run` attaches them all: rule counts, subject reduction, then the
four property classes.  It re-derives the per-step theorems from the
public interpreter and checker APIs only, keeping its own store typing,
so an interpreter bug cannot silently excuse itself.  The campaign
records `judge`'s verdict on each seeded program, which the shrinker's
predicate reads too; `scenario_suite` runs the property classes on
curated corpus programs and fails one that judged nothing.

A step reports only the state it reached and its rule, and no oracle
reads the trace, which is `run`'s observer too (`interp.TraceObserver`).
Subject reduction re-types only what a step changed, which it finds
itself: the frames the step pushed, and the store entries that `run`'s
journals recorded, compared with `before`'s stores, the journals'
`interp.Version`s, since `before` is a copy of the state the step found
(see `SubjectReduction`).  That is sound because terms, frames and
`StoredObject`s are immutable, typing is syntax-directed, contexts never
reach under a binder, and the store typing only grows.  The property
classes read what a step wrote or subscribed off its redex, and what the
redex reduced to off the frames the step pushed.

A seed whose checking, audit or generation raises (the last leaves no
program to shrink) becomes a `crash` report, and the campaign goes on.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from .classtable import ClassTable, build_class_table
from .gen import GenConfig, generate_program, shrink
from .interp import (
    MachineState,
    RunResult,
    effect,
    run,
    stack_delta,
    step,  # unused here; kept for the benchmark's tracer, which wraps it by name
    written_keys,
)
from .syntax import (
    HOLE,
    HOLE_VAR,
    Assign,
    EffectBrace,
    Empty,
    Expr,
    Key,
    Loc,
    Modifier,
    New,
    Program,
    Seq,
    Subscribe,
    iter_subexprs,
    parse_program,
    with_child,
)
from .typecheck import (
    UNIT,
    ErrKind,
    TypingError,
    check_program,
    is_subtype,
    type_expr,
)

CAMPAIGN_FUEL = 2_000

P_SUBJECT_REDUCTION = "subject_reduction"
P_PROGRESS = "progress"
P_PLAIN_SILENT = "plain_write_silent"
P_DELIVERY = "handler_delivery"
P_PULL_PURE = "pull_preserves_stores"
P_SOURCE_ONLY = "source_only_writes"
P_NO_CRASH = "no_crash"  # generating, checking and auditing a seed raised nothing


@dataclass
class PropertyReport:
    prop: str
    subject: str  # corpus file name or "seed=<n>"
    outcome: str  # "pass" | "violation" | "crash" | "fuel" | "stuck"
    step: int | None = None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome not in ("violation", "crash")

    def line(self) -> str:
        extra = f" step={self.step}" if self.step is not None else ""
        note = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{self.subject} theorem={self.prop} result={self.outcome}{extra}{note}"


def check_store_typing(
    ct: ClassTable,
    store: dict,
    handlers: dict[Key, Expr],
    store_typing: dict[int, str],
    checked: tuple[dict, dict] | None = None,
) -> str | None:
    """Both stores well typed against the store typing; None when fine.

    Every location is typed at exactly its object's class and each
    stored field location must fit the declared field type; every
    registered handler must type to Unit over locations alone.

    `checked` is a pair of stores, plain dicts or `interp.Version`s of
    these two, that passed this check against a store typing that
    `store_typing` extends.  Entries still holding the very same
    `StoredObject` or handler `Expr` (`is`) are then not re-typed: both
    are immutable, and a store typing only gains locations, never changes
    one, so whatever typed under the smaller one types the same under the
    larger.  A handler entry `Seq(prev, h)` whose `prev` is the very
    entry checked types only `h`.  Every other entry is re-typed, whoever
    changed it; against a `Version`, only the keys its journal recorded
    can have changed, so only those are read.
    """
    old_store, old_handlers = checked or ({}, {})
    domains = "object store and store typing have different domains"
    if len(store) != len(store_typing):
        return domains
    for l in written_keys(old_store, store):
        obj = store[l]
        if old_store.get(l) is obj:
            continue
        if l not in store_typing:
            return domains
        if store_typing[l] != obj.cls:
            return f"@{l} typed {store_typing[l]} but stores a {obj.cls}"
        as_new = New(obj.cls, tuple(map(Loc, obj.fields)))
        try:
            t = type_expr(ct, {}, store_typing, as_new)
        except TypingError as err:
            return f"@{l} holds an ill-typed object: {err.message}"
        if t != obj.cls:
            return f"@{l} re-types to {t}, expected {obj.cls}"
    for key in written_keys(old_handlers, handlers):
        h, prev = handlers[key], old_handlers.get(key)
        if prev is h:
            continue
        l, f = key
        if l not in store_typing:
            return f"handler key @{l}.{f} names an unknown location"
        if isinstance(h, Seq) and h.first is prev:
            h = h.second  # prev typed Unit, so by T-SEQ the chain types as h does
        try:
            t = type_expr(ct, {}, store_typing, h)
        except TypingError as err:
            return f"handlers on @{l}.{f} ill-typed: {err.message}"
        if t != UNIT:
            return f"handlers on @{l}.{f} have type {t}, expected Unit"
    return None


# =========================================================================
# the audit


@dataclass
class AuditResult:
    subject: str
    run: RunResult  # the machine's own status, which observers never change, and their first violation
    rules: Counter

    @property
    def violation(self) -> PropertyReport | None:
        return self.run.violation

    def reports(self) -> list[PropertyReport]:
        """Subject reduction (or the first violation), then progress."""
        res = self.run
        outcome = "pass" if res.status == "terminal" else res.status
        first = res.violation or PropertyReport(
            P_SUBJECT_REDUCTION, self.subject, outcome, res.state.steps
        )
        return [first, _verdict(P_PROGRESS, self.subject, res)]


def _verdict(prop: str, subject: str, res: RunResult) -> PropertyReport:
    """A stuck run violates every property; otherwise pass, or fuel if cut short."""
    if res.status == "stuck":
        return PropertyReport(prop, subject, "violation", res.state.steps, res.stuck_message)
    outcome = "pass" if res.status == "terminal" else "fuel"
    return PropertyReport(prop, subject, outcome, res.state.steps)


class SubjectReduction:
    """The audit's subject-reduction observer.

    After each step: Σ, the audit's own store typing, learns every
    location the first time it shows up in the store; the expression
    re-types to a subtype of the last type; Σ lost no location and
    retyped none; and both stores type against Σ.

    The expression is typed as the machine holds it, never plugged: the
    focus, then each frame outward with its hole the variable HOLE bound
    to the type of what fills it.  Frame cells are immutable and shared
    from step to step, so `frames` caches each cell of the last stack by
    identity, with the hole type it was typed at and the whole
    expression's type.  The walk stops at the first cell cached at the
    same hole type, so a step types its focus, the frames it pushed and
    one more.  Σ and the store check read only the keys the step's
    journal recorded (every key, of a store replaced outright), and
    re-type only entries that are not the very object `before` holds.
    What is reused stays right because Σ only grows.  The observer works
    all this out from the states alone.
    `type` is the type after the last step that passed.
    """

    def __init__(self, ct: ClassTable, subject: str, t0: str):
        self.ct, self.subject, self.type = ct, subject, t0
        self.sigma: dict[int, str] = {}
        self.frames: dict[int, tuple] = {}  # id(cell) -> (cell, hole type, whole type)
        self.stack = None  # the stack whose cells `frames` holds

    def fail(self, after: MachineState, msg: str) -> PropertyReport:
        return PropertyReport(P_SUBJECT_REDUCTION, self.subject, "violation", after.steps, msg)

    def _type_frame(self, cell, hole: str | None) -> str:
        node, slot, _ = cell
        env = {HOLE: hole} if hole else {}
        return type_expr(self.ct, env, self.sigma, with_child(node, slot, HOLE_VAR))

    def type_state(self, st: MachineState) -> str:
        """The type of st's expression, or the TypingError typing it plugged raises."""
        frames = self.frames
        fresh, _ = stack_delta(frames, self.stack, st.stack)
        self.stack, k, typed = st.stack, st.stack, []
        try:
            t = type_expr(self.ct, {}, self.sigma, st.focus)
            while k is not None:
                _, hole, whole = frames.get(id(k), (k, None, None))
                if hole == t:
                    t = whole
                    break
                typed.append((k, t))
                t, k = self._type_frame(k, t), k[2]
        except TypingError:
            # the plugged term meets a frame's finished subterms before
            # its hole, outermost frame first; only new frames can fail so
            for cell in reversed(fresh):
                try:
                    self._type_frame(cell, None)
                except TypingError as err:
                    if err.message != f"unbound variable {HOLE}":
                        raise err from None
            raise
        for cell, hole in typed:
            frames[id(cell)] = (cell, hole, t)
        return t

    def __call__(self, before, after):
        ct, sigma, store = self.ct, self.sigma, after.store
        # Σ learns new locations, and a changed entry whose class differs
        # from Σ's is a retyped location
        old = before.store
        retyped = False
        for l in written_keys(old, store):
            obj = store[l]
            if old.get(l) is not obj and sigma.setdefault(l, obj.cls) != obj.cls:
                retyped = True
        try:
            t_now = self.type_state(after)
        except TypingError as err:
            return self.fail(after, f"untypable after {after.rule}: {err.message}")
        if not is_subtype(ct, t_now, self.type):
            return self.fail(after, f"type grew from {self.type} to {t_now} on {after.rule}")
        # every stored location is in Σ now, so Σ is larger only if one was dropped
        if retyped or len(sigma) != len(store):
            lost = next(l for l, c in sigma.items() if l not in store or store[l].cls != c)
            return self.fail(after, f"store typing dropped or retyped @{lost}")
        # observers fall silent at the first violation, so before holds
        # the stores as the previous step passed with them
        msg = check_store_typing(ct, store, after.handlers, sigma, (old, before.handlers))
        if msg is not None:
            return self.fail(after, f"after {after.rule}: {msg}")
        self.type = t_now
        return None


def audit_run(
    ct: ClassTable,
    main: Expr,
    subject: str = "<main>",
    fuel: int = CAMPAIGN_FUEL,
    mutations: frozenset[str] = frozenset(),
) -> AuditResult:
    """Step the machine once under every per-step soundness check at once.

    The checks are observers of `run`, called in this order: rule
    counts, subject reduction, then the property classes pull purity,
    source-only writes, plain-write silence and handler delivery.  The
    first violation silences them all, and the machine runs on to its
    own final status, which the progress report reads.
    """
    rules: Counter = Counter()

    def count_rule(before, after):
        rules[after.rule] += 1

    properties = (PullPreservesStores, SourceOnlyWrites, PlainWriteSilent, HandlerDelivery)
    observers = [count_rule, SubjectReduction(ct, subject, type_expr(ct, {}, {}, main))]
    observers += [kind(ct, subject) for kind in properties]
    res = run(ct, main, fuel, mutations, observers=observers)
    return AuditResult(subject, res, rules)


# the package no longer calls this; kept for the benchmark's tracer, which wraps it by name
def check_progress(
    ct: ClassTable,
    main: Expr,
    subject: str = "<main>",
    fuel: int = CAMPAIGN_FUEL,
    mutations: frozenset[str] = frozenset(),
) -> PropertyReport:
    """A well-typed program only stops at a location or unit."""
    res = run(ct, main, fuel=fuel, mutations=mutations)
    return _verdict(P_PROGRESS, subject, res)


# =========================================================================
# property observers


class Scenario:
    """One whole-run property, judged step by step as an observer of `run`.

    `audit_run` runs every property class on each program it steps;
    `scenario_suite` runs them on curated corpus programs, where
    `exercised` counts the steps a property judged and a class with a
    `vacuous` message fails a run that exercised nothing.  A violation
    names the step count after the step that broke the property.  A run
    silences all its observers at the first violation, so the others
    judge only the steps before it.

    What a step wrote or subscribed comes from its redex, `before.focus`,
    and the kind of a written field from the class table, never from the
    trace.
    """

    prop = ""
    vacuous: str | None = None

    def __init__(self, ct: ClassTable, subject: str):
        self.ct, self.subject, self.exercised = ct, subject, 0
        self.failed: PropertyReport | None = None

    def fail(self, after: MachineState, detail: str) -> PropertyReport:
        self.failed = PropertyReport(self.prop, self.subject, "violation", after.steps, detail)
        return self.failed

    def report(self, res: RunResult) -> PropertyReport:
        if self.failed is not None:
            return self.failed
        verdict = _verdict(self.prop, self.subject, res)
        if verdict.ok and self.vacuous and not self.exercised:
            return PropertyReport(self.prop, self.subject, "violation", None, self.vacuous)
        return verdict


def _write(ct: ClassTable, st: MachineState) -> tuple[int, str, str, Modifier | None] | None:
    """(l, f, l's class, f's modifier) for the write st's redex makes to
    field f of location l, the modifier None when f is initialized; None
    when the redex writes nothing."""
    match st.focus:
        case Assign(recv=Loc(loc=l), fname=f, value=Loc()):
            cls = st.store[l].cls
            i, sf = ct[cls].fields.get(f) or (None, None)
            return l, f, cls, None if i is None else sf.modifier
    return None


def _contractum(before: MachineState, after: MachineState) -> Expr | None:
    """What the step from before to after reduced before's redex to; None
    when that was a location or unit plugged into an enclosing frame.

    Refocusing descends into an unfinished contractum, pushing frames on
    the redex's context, so the outermost frame pushed (or the focus, if
    none was) holds it.  A finished one pops the innermost frame of that
    context instead, so the walk never meets it and runs to the bottom.
    """
    e, k = after.focus, after.stack
    while k is not before.stack:
        if k is None:
            return None
        e, _, k = k
    return e


class PullPreservesStores(Scenario):
    """Every initialized-field read leaves both stores untouched."""

    prop = P_PULL_PURE
    vacuous = "scenario exercised no pull"

    def __call__(self, before, after):
        if after.rule != "R-FIELDS":
            return None
        self.exercised += 1
        if before.store != after.store or before.handlers != after.handlers:
            return self.fail(after, "a pull changed a store")
        return None


class SourceOnlyWrites(Scenario):
    """No write step ever lands on an initialized field."""

    prop = P_SOURCE_ONLY

    def __call__(self, before, after):
        match _write(self.ct, before):
            case (_, f, cls, None):
                return self.fail(after, f"{after.rule} wrote initialized field {cls}.{f}")
        return None


class PlainWriteSilent(Scenario):
    """Every plain-field write is an R-ASSIGN that leaves the handler store alone."""

    prop = P_PLAIN_SILENT
    vacuous = "scenario exercised no plain write"

    def __call__(self, before, after):
        match _write(self.ct, before):
            case (_, f, cls, Modifier.PLAIN):
                self.exercised += 1
                if after.rule != "R-ASSIGN" or before.handlers != after.handlers:
                    msg = f"write to unmodified field {cls}.{f} scheduled notification work"
                    return self.fail(after, msg)
        return None


class HandlerDelivery(Scenario):
    """Every signal write schedules its handlers, and every registered
    handler a write reaches is delivered.

    A write to a signal field must be an R-ASSIGNS that reduces to a brace
    on the written key, whose body's left `Seq` spine, read from the
    bottom, is exactly the handlers this observer saw subscribed on that
    key, in order.  When the brace finishes (R-ASSIGNCONT), each handler
    registered on a field downstream of the key, as `effect` lists the
    fields, must show up in what the machine reduced the brace to.
    """

    prop = P_DELIVERY
    vacuous = "scenario delivered no handler"

    def __init__(self, ct: ClassTable, subject: str):
        super().__init__(ct, subject)
        self.registered: dict[Key, list[Expr]] = {}

    def __call__(self, before, after):
        match before.focus:
            case Subscribe(recv=Loc(loc=l), fname=f, handler=h):
                self.registered.setdefault((l, f), []).append(h)
            case EffectBrace(body=Empty(), key=key):
                return self._pushed(before, after, key)
        match _write(self.ct, before):
            case (l, f, cls, Modifier.SIGNAL):
                return self._direct(before, after, (l, f), cls)
        return None

    def _direct(self, before, after, key: Key, cls: str):
        brace = _contractum(before, after) if after.rule == "R-ASSIGNS" else None
        if not isinstance(brace, EffectBrace) or brace.key != key:
            msg = f"write to signal field {cls}.{key[1]} scheduled no notification"
            return self.fail(after, msg)
        expected = self.registered.get(key, [])
        self.exercised += len(expected)
        scheduled, body = [], brace.body
        while isinstance(body, Seq):
            scheduled.append(body.second)
            body = body.first
        scheduled.reverse()
        if scheduled != expected or not isinstance(body, Empty):
            l, f = key
            if Counter(expected) - Counter(scheduled):  # by count: equal handlers can repeat
                return self.fail(after, f"handler on @{l}.{f} missing from its write")
            return self.fail(after, f"handlers on @{l}.{f} scheduled out of registration order")
        return None

    def _pushed(self, before, after, key: Key):
        expected = [
            (hkey, h)
            for hkey in effect(self.ct, before.store, key)
            for h in self.registered.get(hkey, ())
        ]
        if not expected:
            return None
        self.exercised += len(expected)
        reduct = _contractum(before, after)
        for (l, f), h in expected:
            if reduct is None or not _occurs(h, reduct):
                return self.fail(after, f"handler on @{l}.{f} missing from the brace's reduct")
        return None


def _occurs(needle: Expr, hay: Expr) -> bool:
    return any(sub == needle for sub in iter_subexprs(hay))


# =========================================================================
# campaign


@dataclass
class CampaignResult:
    count: int
    reports: list[tuple[int, PropertyReport]]
    elapsed: float
    rules: Counter

    @property
    def violations(self) -> list[tuple[int, PropertyReport]]:
        return [(s, r) for s, r in self.reports if not r.ok]

    def tally(self) -> dict[str, Counter]:
        out: dict[str, Counter] = {}
        for _, r in self.reports:
            out.setdefault(r.prop, Counter())[r.outcome] += 1
        return out


def judge(ct: ClassTable, program: Program, seed: int, fuel: int = CAMPAIGN_FUEL,
          mutations: frozenset[str] = frozenset()) -> tuple[list[PropertyReport], Counter]:
    """The one verdict on a seed's program: its reports, from one audited
    run, and that run's rules.  An ill-typed program is a violation of
    `well_typed_generation`, and one whose check or audit raises is a
    `crash` of `no_crash`.
    """
    label, stage = f"seed={seed}", "checking"
    try:
        report = check_program(ct, program)
        if report.ok:
            stage = "audit"
            res = audit_run(ct, program.main, label, fuel, mutations)
    except Exception as err:
        return [_crash(seed, stage, err)], Counter()
    if report.ok:
        return res.reports(), res.rules
    detail = "; ".join(str(e) for e in report.errors[:3])
    return [PropertyReport("well_typed_generation", label, "violation", None, detail)], Counter()


def _crash(seed: int, stage: str, err: Exception) -> PropertyReport:
    detail = f"{type(err).__name__} in {stage} of seed {seed}: {err}"
    return PropertyReport(P_NO_CRASH, f"seed={seed}", "crash", None, detail)


def campaign(
    count: int,
    base_seed: int = 0,
    fuel: int = CAMPAIGN_FUEL,
    config: GenConfig | None = None,
    mutations: frozenset[str] = frozenset(),
) -> CampaignResult:
    """Generate `count` seeded programs and record each one's `judge`.

    A program is judged against the table the generator built for it,
    which equals a fresh build.  A seed whose generation raises gets one
    report, a `crash` of `no_crash`, and the campaign goes on.
    """
    started = time.perf_counter()
    reports: list[tuple[int, PropertyReport]] = []
    rules: Counter = Counter()
    base_cfg = config or GenConfig()
    for seed in range(base_seed, base_seed + count):
        try:
            program, ct = generate_program(replace(base_cfg, seed=seed))
        except Exception as err:
            reports.append((seed, _crash(seed, "generation", err)))
            continue
        judged, stepped = judge(ct, program, seed, fuel, mutations)
        rules.update(stepped)
        reports += [(seed, r) for r in judged]
    return CampaignResult(count, reports, time.perf_counter() - started, rules)


def shrink_campaign_failure(seed: int, prop: str, fuel: int = CAMPAIGN_FUEL,
                            config: GenConfig | None = None,
                            mutations: frozenset[str] = frozenset()) -> Program:
    """Re-derive and minimize the failing program for one campaign seed.

    A candidate still fails when the campaign's own `judge` of it fails
    `prop`; a table error, outside that verdict, rejects it, as `shrink`
    reads a raising predicate as false.  A seed whose generation raises
    has no program to shrink, and this raises what generation raised.
    """
    program, _ = generate_program(replace(config or GenConfig(), seed=seed))

    def still_fails(p: Program) -> bool:
        reports, _ = judge(build_class_table(p), p, seed, fuel, mutations)
        return any(r.prop == prop and not r.ok for r in reports)

    return shrink(program, still_fails)


# =========================================================================
# corpus loading and the scenario suite


def load_corpus(corpus_dir: Path) -> list[tuple[str, Program, ClassTable]]:
    """Parse, table, and type check every well-typed corpus program."""
    out = []
    for path in sorted(corpus_dir.glob("*.fsj")):
        program = parse_program(path.read_text())
        ct = build_class_table(program)
        report = check_program(ct, program)
        if not report.ok:
            raise ValueError(f"{path.name}: corpus program failed checking: {report.errors[0]}")
        out.append((path.name, program, ct))
    return out


# corpus programs with a curated scenario; every program also gets SourceOnlyWrites
SCENARIOS: dict[str, tuple[type[Scenario], ...]] = {
    "plain_assign.fsj": (PlainWriteSilent,),
    "handler_delivery.fsj": (HandlerDelivery,),
    "peano_pull.fsj": (PullPreservesStores,),
    "signal_chain.fsj": (PullPreservesStores,),
}


def scenario_suite(corpus_dir: Path) -> list[PropertyReport]:
    """Step each corpus program once under its scenarios, plus the static
    half of the write restriction: the checker must reject it."""
    program = parse_program((corpus_dir / "illtyped" / "composite_assign.fsj").read_text())
    errors = check_program(build_class_table(program), program).errors
    rejected = any(e.kind is ErrKind.ASSIGN_TO_COMPOSITE for e in errors)
    reports = [
        PropertyReport(
            P_SOURCE_ONLY, "illtyped/composite_assign.fsj", "pass" if rejected else "violation",
            detail=None if rejected else "checker accepted a write to an initialized field",
        )
    ]
    corpus = load_corpus(corpus_dir)
    missing = SCENARIOS.keys() - {name for name, _, _ in corpus}
    if missing:
        raise ValueError(f"scenario programs missing from {corpus_dir}: {sorted(missing)}")
    for name, program, ct in corpus:
        scenarios = [kind(ct, name) for kind in (SourceOnlyWrites, *SCENARIOS.get(name, ()))]
        res = run(ct, program.main, CAMPAIGN_FUEL, observers=scenarios)
        reports += [sc.report(res) for sc in scenarios]
    return reports
