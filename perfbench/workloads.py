"""The benchmark workloads and the checks on their outputs.

Four program families are built here: `campaign`, `deep_handler`,
`peano_push` and `corpus_trace`.  A workload is a list of operations,
the operations of two families one after the other (see WORKLOADS at the
end).  One pass runs every operation once, in order; the benchmark
repeats passes until its time is up.  Each
operation returns its raw output, and its `check` turns that output into
the number of reduction steps it performed plus an error message, or
None when the output is right.  Expected values come from outside the
machine wherever possible: hand derivations for the fixed programs, the
README and the committed golden traces for the corpus, and a recorded
snapshot for the generated campaign programs.

Every call into fsj goes through a module attribute (`interp.run`,
`syntax.parse_program`, ...), so the traced run sees it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from fsj import classtable, interp, metatheory, syntax, typecheck
from fsj.syntax import Loc
from fsj.typecheck import ErrKind

HERE = Path(__file__).resolve().parent

# campaign: default-GenConfig seeds 0..199, in an order shuffled by --seed
CAMPAIGN_SEEDS = range(200)
CAMPAIGN_SNAPSHOT = HERE / "campaign_snapshot.json"

# deep_handler: corpus/loop_handler.fsj at these fuel caps
DEEP_FUELS = (125, 250, 500)

# peano_push: numerals N = 2**k for these k
PEANO_DOUBLINGS = (4, 5, 6)
PEANO_TEMPLATE = HERE / "peano_push.fsj.tmpl"

# corpus_trace: one fuel cap for every traced run.  The longest terminating
# corpus program takes 43 steps; loop_handler never terminates, and at 100
# steps its traced run costs less than the rest of the corpus together.
TRACE_FUEL = 100

# The ill-typed corpus and the error kind each file documents in its
# header comment.
ILLTYPED_KINDS = {
    "composite_assign.fsj": ErrKind.ASSIGN_TO_COMPOSITE,
    "init_seq.fsj": ErrKind.BAD_INITIALIZER,
    "init_subscribe.fsj": ErrKind.BAD_INITIALIZER,
    "plain_composite.fsj": ErrKind.BAD_COMPOSITE_MODIFIER,
    "subscribe_plain.fsj": ErrKind.SUBSCRIBE_ON_NON_SIGNAL,
}

# Depth of the numeral each Peano demo returns, as the README documents.
CORPUS_DEPTHS = {"peano_pull_before.fsj": 8, "peano_pull.fsj": 9}

# Inputs the parser must answer with a Program or a ParseError.  Both
# crash with RecursionError today (ROADMAP open item 5).
KNOWN_DEFECTS = {
    "chain_unit_3000": "unit; " * 3000 + "unit",
    "nested_parens_3000": "(" * 3000 + "unit" + ")" * 3000,
}


@dataclass
class Op:
    family: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, str | None]]
    size: int | None = None  # x of the size slope; None means its step count


@dataclass
class Workload:
    ops: list[Op]
    # parses run after each pass and reported on their own, see KNOWN_DEFECTS
    probes: dict[str, Callable[[], object]] = field(default_factory=dict)


def load_checked(text: str):
    """Parse, table and check a program that must be well typed."""
    program = syntax.parse_program(text)
    ct = classtable.build_class_table(program)
    report = typecheck.check_program(ct, program)
    if not report.ok:
        raise ValueError(f"benchmark input is ill typed: {report.errors[0]}")
    return ct, program


def numeral(store, loc: int) -> int | None:
    """Decode a Succ/Zero chain by walking the store; None if it is not one."""
    n = 0
    while True:
        obj = store.get(loc)
        if obj is None or n > len(store):
            return None
        if obj.cls == "Zero":
            return n
        if obj.cls != "Succ" or len(obj.fields) != 1:
            return None
        loc = obj.fields[0]
        n += 1


def loop_handler_store(fuel: int) -> int:
    """Objects after `fuel` steps of corpus/loop_handler.fsj.

    Steps 0 and 1 allocate the Nat and the Pump, step 5 the first written
    Nat; from then on the loop is R-ASSIGNS, R-CAT, R-NEW, so one more Nat
    is allocated every third step.
    """
    return 3 + (fuel - 6) // 3


# =========================================================================
# campaign


def campaign(root: Path, seed: int) -> Workload:
    snapshot = json.loads(CAMPAIGN_SNAPSHOT.read_text())
    seeds = list(CAMPAIGN_SEEDS)
    random.Random(seed).shuffle(seeds)

    def op(s: int) -> Op:
        want = snapshot[str(s)]

        def check(res) -> tuple[int, str | None]:
            got = [[r.prop, r.outcome, r.step] for _, r in res.reports]
            steps = got[0][2] or 0  # the audited run; the progress rerun is not counted again
            if res.violations:
                return steps, f"seed {s}: {res.violations[0][1].line()}"
            if got != want:
                return steps, f"seed {s}: reports {got}, snapshot {want}"
            return steps, None

        return Op("campaign", f"seed={s}", lambda: metatheory.campaign(1, base_seed=s), check)

    return Workload([op(s) for s in seeds])


# =========================================================================
# deep_handler


def deep_handler(root: Path, seed: int) -> Workload:
    ct, program = load_checked((root / "corpus" / "loop_handler.fsj").read_text())

    def op(fuel: int) -> Op:
        def check(res) -> tuple[int, str | None]:
            got = (res.status, res.state.steps, len(res.state.store))
            want = ("fuel", fuel, loop_handler_store(fuel))
            return res.state.steps, None if got == want else f"fuel {fuel}: {got}, want {want}"

        return Op(
            "deep_handler",
            f"fuel={fuel}",
            lambda: interp.run(ct, program.main, fuel=fuel, collect_trace=False),
            check,
            size=fuel,
        )

    return Workload([op(f) for f in DEEP_FUELS])


# =========================================================================
# peano_push


def peano_source(doublings: int) -> str:
    return PEANO_TEMPLATE.read_text().replace("{DOUBLES}", ".double()" * doublings)


def peano_push(root: Path, seed: int) -> Workload:
    def op(k: int) -> Op:
        n = 2**k
        ct, program = load_checked(peano_source(k))

        def check(res) -> tuple[int, str | None]:
            steps = res.state.steps
            if res.status != "terminal" or not isinstance(res.final, Loc):
                return steps, f"N={n}: status {res.status}"
            # p.count gains one Succ per push; the numeral x takes 2N objects,
            # each of the N levels of x.go(p) one Cell and one Succ, plus 5
            # objects allocated before the numeral.
            got = (numeral(res.state.store, res.final.loc), len(res.state.store))
            want = (n, 4 * n + 5)
            return steps, None if got == want else f"N={n}: (numeral, objects) {got}, want {want}"

        return Op(
            "peano_push",
            f"N={n}",
            lambda: interp.run(ct, program.main, collect_trace=False),
            check,
            size=n,
        )

    return Workload([op(k) for k in PEANO_DOUBLINGS])


# =========================================================================
# corpus_trace


def _golden(root: Path, suffix: str) -> list[str]:
    lines = (root / "tests" / "golden" / f"subscribe_push.trace.{suffix}").read_text().splitlines()
    return lines[1:-1]  # drop the header and the final status record


def corpus_trace(root: Path, seed: int) -> Workload:
    corpus = root / "corpus"
    well = sorted(corpus.glob("*.fsj"))
    ill = sorted((corpus / "illtyped").glob("*.fsj"))
    if {p.name for p in ill} != set(ILLTYPED_KINDS):
        raise ValueError("corpus/illtyped/ differs from the documented error kinds")
    texts = {p.relative_to(corpus).as_posix(): p.read_text() for p in well + ill}
    loaded = {p.name: load_checked(texts[p.name]) for p in well}
    golden = {"line": _golden(root, "txt"), "json": _golden(root, "jsonl")}

    def check_op(name: str) -> Op:
        kind = ILLTYPED_KINDS.get(name.removeprefix("illtyped/")) if "/" in name else None

        def work():
            program = syntax.parse_program(texts[name])
            ct = classtable.build_class_table(program)
            return typecheck.check_program(ct, program)

        def check(report) -> tuple[int, str | None]:
            if kind is None:
                return 0, None if report.ok else f"{name}: rejected: {report.errors[0]}"
            if kind not in [e.kind for e in report.errors]:
                return 0, f"{name}: not rejected with {kind.value}"
            return 0, None

        return Op("corpus_trace", f"check:{name}", work, check)

    def trace_op(name: str) -> Op:
        ct, program = loaded[name]

        def work():
            res = interp.run(ct, program.main, fuel=TRACE_FUEL, collect_trace=True)
            return res, [e.to_line() for e in res.trace], [e.to_json() for e in res.trace]

        def check(out) -> tuple[int, str | None]:
            res, lines, records = out
            steps = res.state.steps
            step_lines = sum(1 for line in lines if " rule=" in line)
            if len(records) != len(lines) or step_lines != steps:
                return steps, f"{name}: {step_lines} step lines for {steps} steps"
            if name == "loop_handler.fsj":
                got = (res.status, steps, len(res.state.store))
                want = ("fuel", TRACE_FUEL, loop_handler_store(TRACE_FUEL))
                return steps, None if got == want else f"{name}: {got}, want {want}"
            if res.status != "terminal":
                return steps, f"{name}: status {res.status}"
            if name in CORPUS_DEPTHS:
                loc = res.final.loc if isinstance(res.final, Loc) else -1
                depth = numeral(res.state.store, loc)
                if depth != CORPUS_DEPTHS[name]:
                    return steps, f"{name}: depth {depth}, want {CORPUS_DEPTHS[name]}"
            if name == "subscribe_push.fsj" and (lines, records) != (golden["line"], golden["json"]):
                return steps, f"{name}: trace differs from tests/golden"
            return steps, None

        return Op("corpus_trace", f"trace:{name}", work, check)

    def probe(text: str):
        def parse():
            try:
                return syntax.parse_program(text)
            except syntax.ParseError as err:
                return err

        return parse

    ops = [check_op(name) for name in texts] + [trace_op(p.name) for p in well]
    return Workload(ops, {name: probe(text) for name, text in KNOWN_DEFECTS.items()})


def combine(*families):
    """One workload that runs the operations of each family in turn."""

    def build(root: Path, seed: int) -> Workload:
        parts = [family(root, seed) for family in families]
        return Workload(
            [op for part in parts for op in part.ops],
            {k: v for part in parts for k, v in part.probes.items()},
        )

    return build


# The 2-CPU VM this benchmark was first measured on changes speed for
# minutes at a time (README.md, Machine), so the benchmark has two
# long-running workloads rather than one per family: the machine under
# plain `run`, and the checker, oracle and trace paths.
WORKLOADS = {
    "machine": combine(deep_handler, peano_push),
    "harness": combine(campaign, corpus_trace),
}
