#!/usr/bin/env python3
"""Regenerate every file under tests/golden/.

`WRITERS` maps each file's name to the function that returns its text;
a test checks that it names every file there.

- subscribe_push.trace.txt and .jsonl: `fsj trace` of
  corpus/subscribe_push.fsj in both formats.
- trace_digests.json pins every other trace without storing it: a sha256
  over each event's `to_json()` line, then the final status and step
  count, of traced `run`s of every corpus program at fuel 2500
  (loop_handler.fsj at 300: its trace's size grows as the square of the
  fuel; tests/test_cli.py pins the fuel-5000 trace's digests), of
  generated programs of seeds 0-199 (default config at the campaign
  fuel, `handlers_write_signals` at 300), and of the corpus under each
  mutation at fuel 300.
- rule_sequences.json pins the stepping order: the same record with each
  step's rule in place of its events, of plain `run`s of the corpus at
  fuel 2500 and of default-config seeds 0-999 at the campaign fuel.
- checker_errors.json: for every row of the typing table in
  tests/test_typing_rules.py and every program in corpus/ and
  corpus/illtyped/, each error `check_program` reports as (kind,
  message, span), in order, and the main expression's type.
- campaign_reports.json: per campaign (the default one of seeds 0-999,
  and both broken machines at 120 seeds), its violation count and a
  sha256 over every report's (seed, prop, outcome, step, detail).  A
  campaign with a violation also pins the witness `fsj meta` writes: the
  first violation's seed and property, the shrunk program's size and
  text's sha256, and how many predicate calls the shrink made.
- generated_programs.json: per config, a sha256 over the rendered
  program of each seed 0-999, each text ended by a NUL byte.

Run it after any deliberate change to the trace format, a reduction
rule or the evaluation order, a typing error, an oracle or the
generator, then review the diff by hand.  The tests compare the traces
byte for byte and recompute the rest with the functions here.
"""

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsj import (  # noqa: E402
    GenConfig,
    build_class_table,
    campaign,
    check_program,
    generate_program,
    load_corpus,
    metatheory,
    parse_program,
    render_program,
    run,
    shrink_campaign_failure,
)
from fsj.cli import main as fsj_main  # noqa: E402
from fsj.gen import _size  # noqa: E402
from fsj.interp import MUTANTS, TraceObserver  # noqa: E402
from fsj.metatheory import CAMPAIGN_FUEL  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SUBJECT = str(ROOT / "corpus" / "subscribe_push.fsj")

CORPUS_FUEL = 2500
SHORT_FUEL = 300  # loop_handler.fsj, handler cascades and mutated machines
SEEDS = range(1000)  # rule sequences and generated programs
TRACE_SEEDS = range(200)
GEN_CONFIGS = {"default": GenConfig(), "handlers_write_signals": GenConfig(handlers_write_signals=True)}
# name -> (seed count, mutations); every campaign starts at seed 0
CAMPAIGNS = {
    "default": (1000, frozenset()),
    **{name: (120, frozenset({name})) for name in sorted(MUTANTS)},
}


def fsj_output(*argv: str) -> str:
    """What `fsj ARGV` prints, run in this process."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = fsj_main(list(argv))
    if code != 0:
        raise SystemExit(f"fsj {' '.join(argv)} exited {code}")
    return out.getvalue()


def rules(h, ct):
    """An observer that hashes each step's rule."""
    return lambda before, after: h.update(f"{after.rule}\n".encode())


def trace(h, ct):
    """An observer that hashes each trace event's JSON line."""
    return TraceObserver(ct, lambda event: h.update(f"{event.to_json()}\n".encode()))


def feed(h, observe, ct, main, fuel: int, mutations: frozenset[str] = frozenset()):
    """Hash what observe(h, ct) records of each step, then the final status
    and step count; return h."""
    res = run(ct, main, fuel, mutations, observers=[observe(h, ct)])
    h.update(f"status={res.status} steps={res.state.steps}\n".encode())
    return h


def generated(name: str, seeds: range = SEEDS) -> list:
    """generate_program's (program, ct) for each seed under GEN_CONFIGS[name]."""
    return [generate_program(replace(GEN_CONFIGS[name], seed=seed)) for seed in seeds]


def seeds_digest(observe, name: str, seeds: range, fuel: int) -> str:
    """One sha256 over feed's record of each seed's well-typed program."""
    h = hashlib.sha256()
    for seed, (program, ct) in zip(seeds, generated(name, seeds)):
        h.update(f"seed={seed}\n".encode())
        if check_program(ct, program).ok:
            feed(h, observe, ct, program.main, fuel)
        else:
            h.update(b"ill-typed\n")
    return h.hexdigest()


def trace_digests(root: Path = ROOT) -> dict:
    """One sha256 per corpus program's trace, and one per family of traces."""
    loaded, fuel = load_corpus(root / "corpus"), {"loop_handler.fsj": SHORT_FUEL}
    families = {
        name: {"fuel": fuel, "sha256": seeds_digest(trace, name, TRACE_SEEDS, fuel)}
        for name, fuel in (("default", CAMPAIGN_FUEL), ("handlers_write_signals", SHORT_FUEL))
    }
    mutated = {}
    for mutation in sorted(MUTANTS):
        h = hashlib.sha256()
        for name, program, ct in loaded:
            h.update(f"program={name}\n".encode())
            feed(h, trace, ct, program.main, SHORT_FUEL, frozenset({mutation}))
        mutated[mutation] = h.hexdigest()
    return {
        "corpus_fuel": CORPUS_FUEL,
        "short_fuel": SHORT_FUEL,
        "corpus": {
            name: feed(hashlib.sha256(), trace, ct, program.main, fuel.get(name, CORPUS_FUEL)).hexdigest()
            for name, program, ct in loaded
        },
        "seeds": [TRACE_SEEDS.start, TRACE_SEEDS.stop - 1],
        "generated": families,
        "mutated_corpus": mutated,
    }


def rule_sequences(root: Path = ROOT) -> dict:
    """One sha256 per corpus program's rule sequence, and one over the campaign's seeds."""
    return {
        "corpus_fuel": CORPUS_FUEL,
        "corpus": {
            name: feed(hashlib.sha256(), rules, ct, program.main, CORPUS_FUEL).hexdigest()
            for name, program, ct in load_corpus(root / "corpus")
        },
        "campaign": {
            "seeds": [SEEDS.start, SEEDS.stop - 1],
            "fuel": CAMPAIGN_FUEL,
            "sha256": seeds_digest(rules, "default", SEEDS, CAMPAIGN_FUEL),
        },
    }


def checker_errors(root: Path = ROOT) -> dict:
    """Per program, its checker errors as [kind, message, span] and its main type."""
    sys.path.insert(0, str(root / "tests"))
    from test_typing_rules import CASES, case_text

    texts = {f"case:{label}": case_text(source) for label, _, source in CASES}
    corpus = root / "corpus"
    for p in sorted(corpus.glob("*.fsj")) + sorted((corpus / "illtyped").glob("*.fsj")):
        texts[p.relative_to(corpus).as_posix()] = p.read_text()
    out = {}
    for name, text in texts.items():
        program = parse_program(text)
        report = check_program(build_class_table(program), program)
        errors = [[e.kind.value, e.message, e.span and str(e.span)] for e in report.errors]
        out[name] = {"errors": errors, "main": report.main_type}
    return out


def run_campaign(name: str):
    count, mutations = CAMPAIGNS[name]
    return campaign(count, base_seed=0, mutations=mutations)


def counted_shrink(seed: int, prop: str, mutations: frozenset[str]):
    """shrink_campaign_failure's witness, and how many candidates its
    shrink handed the predicate."""
    shrink, calls = metatheory.shrink, []

    def counting(program, predicate):
        return shrink(program, lambda p: calls.append(p) or predicate(p))

    metatheory.shrink = counting
    try:
        witness = shrink_campaign_failure(seed, prop, mutations=mutations)
    finally:
        metatheory.shrink = shrink
    return witness, len(calls)


def record(name: str, res) -> dict:
    """The digest of one campaign's reports, with what it covered."""
    count, mutations = CAMPAIGNS[name]
    h = hashlib.sha256()
    for seed, r in res.reports:
        h.update(json.dumps([seed, r.prop, r.outcome, r.step, r.detail]).encode() + b"\n")
    out = {
        "seeds": [0, count - 1],
        "mutations": sorted(mutations),
        "violations": len(res.violations),
        "sha256": h.hexdigest(),
    }
    if res.violations:
        seed, report = res.violations[0]
        witness, checks = counted_shrink(seed, report.prop, mutations)
        out |= {
            "witness_seed": seed,
            "witness_prop": report.prop,
            "witness_size": _size(witness),
            "witness_sha256": hashlib.sha256(render_program(witness).encode()).hexdigest(),
            "witness_checks": checks,
        }
    return out


def campaign_reports(run=run_campaign) -> dict:
    """run(name) gives the named campaign's result; a caller may pass one
    that reuses a result it already holds."""
    return {name: record(name, run(name)) for name in CAMPAIGNS}


def generated_programs(programs=generated) -> dict:
    """programs(name) gives the config's (program, ct) pairs for SEEDS; a
    caller may pass one that reuses pairs it already holds."""
    digests = {}
    for name in GEN_CONFIGS:
        h = hashlib.sha256()
        for program, _ in programs(name):
            h.update(render_program(program).encode() + b"\0")
        digests[name] = h.hexdigest()
    return {"seeds": [SEEDS.start, SEEDS.stop - 1], "sha256": digests}


def dumps(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def one_line_each(data: dict) -> str:
    """A JSON object with one line per key, in the dict's order."""
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in data.items()) + "\n}\n"


WRITERS = {
    "subscribe_push.trace.txt": lambda: fsj_output("trace", "--format", "text", SUBJECT),
    "subscribe_push.trace.jsonl": lambda: fsj_output("trace", "--format", "structured", SUBJECT),
    "checker_errors.json": lambda: one_line_each(checker_errors()),
    "trace_digests.json": lambda: dumps(trace_digests()),
    "rule_sequences.json": lambda: dumps(rule_sequences()),
    "campaign_reports.json": lambda: dumps(campaign_reports()),
    "generated_programs.json": lambda: dumps(generated_programs()),
}


def main() -> int:
    for name, text in WRITERS.items():
        (GOLDEN / name).write_text(text())
        print(f"wrote tests/golden/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
