"""Executable soundness oracles.

The calculus promises that a well-typed program never gets stuck, that
every reduction preserves typing, and that specific whole-run facts hold
about the two propagation styles:

  subject-reduction   each step's result types to a subtype of the
                      previous type, the store typing only grows, and
                      both stores stay well typed against it
  progress            a well-typed expression is a location, unit, or
                      can step; the machine never wedges before fuel
  plain-write-silent  writing a plain field yields unit, touches no
                      handler state, and enqueues nothing
  handler-delivery    a handler registered on a field downstream of a
                      written signal shows up in the pending work the
                      write's brace expands to
  pull-preserves-stores  reading an initialized field changes no store
  source-only-writes  no reduction ever writes an initialized field,
                      statically rejected and dynamically re-checked

There is one stepping loop, `interp.run`; every oracle is one of its
per-step observers `(before, outcome, after) -> violation | None`.
`audit_run` attaches the audit.  It re-derives the per-step theorems from
the public interpreter and checker APIs only, keeping its own store
typing, so an interpreter bug cannot silently excuse itself.  The
campaign audits each seeded program once and reads both its
subject-reduction and its progress report off that run; `Scenario`
observers replay curated corpus programs with structural assertions.
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
    handlers_of,
    run,
    step,  # unused here; the benchmark's tracer wraps `metatheory.step`
)
from .syntax import (
    EffectBrace,
    Empty,
    Expr,
    Key,
    Loc,
    Modifier,
    New,
    Program,
    Seq,
    iter_subexprs,
    parse_program,
)
from .typecheck import UNIT, ErrKind, TypingError, check_program, is_subtype, type_expr

CAMPAIGN_FUEL = 2_000

P_SUBJECT_REDUCTION = "subject_reduction"
P_PROGRESS = "progress"
P_PLAIN_SILENT = "plain_write_silent"
P_DELIVERY = "handler_delivery"
P_PULL_PURE = "pull_preserves_stores"
P_SOURCE_ONLY = "source_only_writes"


@dataclass
class PropertyReport:
    prop: str
    subject: str  # corpus file name or "seed=<n>"
    outcome: str  # "pass" | "violation" | "fuel" | "stuck"
    step: int | None = None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome != "violation"

    def line(self) -> str:
        extra = f" step={self.step}" if self.step is not None else ""
        note = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"{self.subject} theorem={self.prop} result={self.outcome}{extra}{note}"


def check_store_typing(
    ct: ClassTable,
    store: dict,
    handlers: dict[Key, Expr],
    store_typing: dict[int, str],
) -> str | None:
    """Both stores well typed against the store typing; None when fine.

    Every location is typed at exactly its object's class and each
    stored field location must fit the declared field type; every
    registered handler must type to Unit over locations alone.
    """
    if store.keys() != store_typing.keys():
        return "object store and store typing have different domains"
    for l, obj in store.items():
        if store_typing[l] != obj.cls:
            return f"@{l} typed {store_typing[l]} but stores a {obj.cls}"
        as_new = New(obj.cls, tuple(Loc(a) for a in obj.fields))
        try:
            t = type_expr(ct, {}, store_typing, as_new)
        except TypingError as err:
            return f"@{l} holds an ill-typed object: {err.message}"
        if t != obj.cls:
            return f"@{l} re-types to {t}, expected {obj.cls}"
    for (l, f), h in handlers.items():
        if l not in store_typing:
            return f"handler key @{l}.{f} names an unknown location"
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
    run: RunResult  # the machine's own outcome, which observers never change
    rules: Counter

    @property
    def violation(self) -> PropertyReport | None:
        return self.run.violation

    @property
    def status(self) -> str:  # "terminal" | "fuel" | "stuck" | "violated"
        return "violated" if self.violation is not None else self.run.status

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


def audit_run(
    ct: ClassTable,
    main: Expr,
    subject: str = "<main>",
    fuel: int = CAMPAIGN_FUEL,
    mutations: frozenset[str] = frozenset(),
) -> AuditResult:
    """Step the machine once under every per-step soundness check at once.

    The checks are observers of `run`, called in this order: rule
    counts, subject reduction, pull purity, write discipline.  The first
    violation silences them all, and the machine runs on to its own
    final status, which the progress report reads.
    """
    rules: Counter = Counter()
    sigma: dict[int, str] = {}  # the audit's own store typing
    t_prev = type_expr(ct, {}, {}, main)  # caller guarantees this succeeds

    def bad(after: MachineState, msg: str, prop: str = P_SUBJECT_REDUCTION) -> PropertyReport:
        return PropertyReport(prop, subject, "violation", step=after.steps, detail=msg)

    def count_rule(before, out, after):
        rules[out.rule] += 1

    def subject_reduction(before, out, after):
        nonlocal t_prev
        # Σ learns each location the first time it shows up in the store,
        # so a location the machine later drops or retypes is caught
        for l, obj in after.store.items():
            sigma.setdefault(l, obj.cls)
        try:
            t_now = type_expr(ct, {}, sigma, after.expr)
        except TypingError as err:
            return bad(after, f"untypable after {out.rule}: {err.message}")
        if not is_subtype(ct, t_now, t_prev):
            return bad(after, f"type grew from {t_prev} to {t_now} on {out.rule}")
        lost = [l for l, c in sigma.items() if l not in after.store or after.store[l].cls != c]
        if lost:
            return bad(after, f"store typing dropped or retyped @{lost[0]}")
        msg = check_store_typing(ct, after.store, after.handlers, sigma)
        if msg is not None:
            return bad(after, f"after {out.rule}: {msg}")
        t_prev = t_now
        return None

    def pull_purity(before, out, after):
        if out.rule != "R-FIELDS":
            return None
        if (after.store, after.handlers) != (before.store, before.handlers):
            return bad(after, "a pull changed a store", P_PULL_PURE)
        return None

    def write_discipline(before, out, after):
        if out.rule not in ("R-ASSIGN", "R-ASSIGNS"):
            return None
        ev = next(e for e in out.events if e.kind in ("plain-write", "signal-write"))
        cls = after.store[ev.loc].cls
        sf = next((s for s in ct.source(cls) if s.name == ev.fname), None)
        where = f"{cls}.{ev.fname}"
        if sf is None:
            return bad(after, f"{out.rule} wrote initialized field {where}", P_SOURCE_ONLY)
        enqueued = any(e.kind == "handler-enqueue" for e in out.events)
        if sf.modifier is Modifier.SIGNAL and (out.rule != "R-ASSIGNS" or not enqueued):
            msg = f"write to signal field {where} scheduled no notification"
            return bad(after, msg, P_DELIVERY)
        if sf.modifier is not Modifier.SIGNAL and (
            out.rule != "R-ASSIGN" or enqueued or after.handlers != before.handlers
        ):
            msg = f"write to unmodified field {where} scheduled notification work"
            return bad(after, msg, P_PLAIN_SILENT)
        return None

    observers = (count_rule, subject_reduction, pull_purity, write_discipline)
    res = run(ct, main, fuel, mutations, collect_trace=False, observers=observers)
    return AuditResult(subject, res, rules)


def check_subject_reduction(
    ct: ClassTable,
    main: Expr,
    subject: str = "<main>",
    fuel: int = CAMPAIGN_FUEL,
    mutations: frozenset[str] = frozenset(),
) -> PropertyReport:
    """Per-step typing preservation; stuck and fuel are distinct outcomes."""
    return audit_run(ct, main, subject, fuel, mutations).reports()[0]


def check_progress(
    ct: ClassTable,
    main: Expr,
    subject: str = "<main>",
    fuel: int = CAMPAIGN_FUEL,
    mutations: frozenset[str] = frozenset(),
) -> PropertyReport:
    """A well-typed program only stops at a location or unit."""
    res = run(ct, main, fuel=fuel, mutations=mutations, collect_trace=False)
    return _verdict(P_PROGRESS, subject, res)


# =========================================================================
# curated scenario checks


class Scenario:
    """A curated oracle for one property of one program, run as an observer.

    `exercised` counts the steps it judged; a scenario with a `vacuous`
    message fails a run that exercised nothing.  A run silences all its
    observers at the first violation, so the others judge only the steps
    before it.
    """

    prop = ""
    vacuous: str | None = None

    def __init__(self, ct: ClassTable, subject: str):
        self.ct, self.subject, self.exercised = ct, subject, 0
        self.failed: PropertyReport | None = None

    def fail(self, before: MachineState, detail: str) -> PropertyReport:
        self.failed = PropertyReport(self.prop, self.subject, "violation", before.steps, detail)
        return self.failed

    def report(self, res: RunResult) -> PropertyReport:
        if self.failed is not None:
            return self.failed
        verdict = _verdict(self.prop, self.subject, res)
        if verdict.ok and self.vacuous and not self.exercised:
            return PropertyReport(self.prop, self.subject, "violation", None, self.vacuous)
        return verdict


class PlainWriteSilent(Scenario):
    """Plain-field writes reduce to unit and never touch handler state."""

    prop = P_PLAIN_SILENT
    vacuous = "scenario exercised no plain write"

    def __call__(self, before, out, after):
        if out.rule != "R-ASSIGN":
            return None
        self.exercised += 1
        if any(e.kind == "handler-enqueue" for e in out.events):
            return self.fail(before, "plain write enqueued handlers")
        if after.handlers != before.handlers:
            return self.fail(before, "plain write changed the handler store")
        return None


class HandlerDelivery(Scenario):
    """Every registered handler reachable from a write is delivered.

    Handlers sitting on the written field itself must show up in the work
    the write schedules; handlers on fields derived from it must show up
    in the continuation that runs once that work is done. Both sides are
    recomputed from the public dependency functions and compared against
    the machine's actual next expression.
    """

    prop = P_DELIVERY
    vacuous = "scenario delivered no handler"

    def __init__(self, ct: ClassTable, subject: str):
        super().__init__(ct, subject)
        self.registered: list[tuple[Key, Expr]] = []

    def __call__(self, before, out, after):
        if out.rule == "R-SUBSCRIBE":
            ev = next(e for e in out.events if e.kind == "subscribe")
            key = (ev.loc, ev.fname)
            stored = after.handlers[key]
            assert isinstance(stored, Seq)
            self.registered.append((key, stored.second))
        if out.rule == "R-ASSIGNS":
            # handlers on the written field run as the scheduled payload
            ev = next(e for e in out.events if e.kind == "signal-write")
            key = (ev.loc, ev.fname)
            for hkey, h in self.registered:
                if hkey == key:
                    self.exercised += 1
                    if not _occurs(h, after.expr):
                        return self.fail(
                            before, f"handler on @{key[0]}.{key[1]} missing from its write"
                        )
        if out.rule == "R-ASSIGNCONT":
            # the brace that just finished names the written key
            key = _finished_brace_key(before.expr)
            if key is not None:
                affected = effect(self.ct, before.store, key)
                expansion = handlers_of(self.ct, before.handlers, before.store, key)
                for hkey, h in self.registered:
                    if hkey in affected:
                        self.exercised += 1
                        if not _occurs(h, expansion):
                            return self.fail(
                                before, f"handler on @{hkey[0]}.{hkey[1]} missing from expansion"
                            )
                        if not _occurs(h, after.expr):
                            return self.fail(before, "handler missing from the machine expression")
        return None


def _finished_brace_key(e: Expr) -> Key | None:
    """Key of the innermost brace whose body is unit, depth first."""
    found = None
    for sub in iter_subexprs(e):
        if isinstance(sub, EffectBrace) and isinstance(sub.body, Empty):
            found = sub.key
    return found


def _occurs(needle: Expr, hay: Expr) -> bool:
    return any(sub == needle for sub in iter_subexprs(hay))


class PullPreservesStores(Scenario):
    """Every initialized-field read leaves both stores untouched."""

    prop = P_PULL_PURE
    vacuous = "scenario exercised no pull"

    def __call__(self, before, out, after):
        if out.rule != "R-FIELDS":
            return None
        self.exercised += 1
        if (after.store, after.handlers) != (before.store, before.handlers):
            return self.fail(before, "pull changed a store")
        return None


class SourceOnlyWrites(Scenario):
    """No write step ever lands on an initialized field."""

    prop = P_SOURCE_ONLY

    def __call__(self, before, out, after):
        if out.rule not in ("R-ASSIGN", "R-ASSIGNS"):
            return None
        ev = next(e for e in out.events if e.kind.endswith("-write"))
        cls = after.store[ev.loc].cls
        if not any(sf.name == ev.fname for sf in self.ct.source(cls)):
            return self.fail(before, f"wrote initialized field {cls}.{ev.fname}")
        return None


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


def campaign(
    count: int,
    base_seed: int = 0,
    fuel: int = CAMPAIGN_FUEL,
    config: GenConfig | None = None,
    mutations: frozenset[str] = frozenset(),
) -> CampaignResult:
    """Generate `count` seeded programs and audit each one.

    Each program is stepped once; its subject-reduction and its progress
    reports both come from that audited run.
    """
    started = time.perf_counter()
    reports: list[tuple[int, PropertyReport]] = []
    rules: Counter = Counter()
    base_cfg = config or GenConfig()
    for seed in range(base_seed, base_seed + count):
        cfg = replace(base_cfg, seed=seed)
        label = f"seed={seed}"
        program = generate_program(cfg)
        ct = build_class_table(program)
        report = check_program(ct, program)
        if not report.ok:
            detail = "; ".join(str(e) for e in report.errors[:3])
            reports.append(
                (seed, PropertyReport("well_typed_generation", label, "violation", None, detail))
            )
            continue
        res = audit_run(ct, program.main, label, fuel, mutations)
        rules.update(res.rules)
        reports += [(seed, r) for r in res.reports()]
    return CampaignResult(count, reports, time.perf_counter() - started, rules)


def shrink_campaign_failure(seed: int, prop: str, fuel: int = CAMPAIGN_FUEL,
                            config: GenConfig | None = None,
                            mutations: frozenset[str] = frozenset()) -> Program:
    """Re-derive and minimize the failing program for one campaign seed."""
    cfg = replace(config or GenConfig(), seed=seed)
    program = generate_program(cfg)

    def still_fails(p: Program) -> bool:
        try:
            ct = build_class_table(p)
            if not check_program(ct, p).ok:
                return prop == "well_typed_generation"
            res = audit_run(ct, p.main, fuel=fuel, mutations=mutations)
            if prop == P_PROGRESS:
                return res.status == "stuck"
            return res.status == "violated" and res.violation.prop == prop
        except Exception:
            return False

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


def scenario_suite(corpus_dir: Path, fuel: int = CAMPAIGN_FUEL) -> list[PropertyReport]:
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
        res = run(ct, program.main, fuel, collect_trace=False, observers=scenarios)
        reports += [sc.report(res) for sc in scenarios]
    return reports
