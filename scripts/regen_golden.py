#!/usr/bin/env python3
"""Regenerate the golden traces, trace digests and checker errors under tests/golden/.

The traces are `fsj trace` of corpus/subscribe_push.fsj in both formats.
trace_digests.json pins every other trace without storing it: a sha256
over each event's `to_json()` line, then the final status and step
count, of traced `run`s of every corpus program at fuel 2500
(loop_handler.fsj at 300: its expression grows with every loop, so its
trace's size grows as the square of the fuel; tests/test_cli.py pins the
fuel-5000 trace's digests), of default-config generated programs of seeds 0-199 at the
campaign fuel, of `handlers_write_signals` programs of seeds 0-199 at
fuel 300, and of the corpus under each mutation at fuel 300.
checker_errors.json holds, for every row of the typing table in
tests/test_typing_rules.py and every program in corpus/ and
corpus/illtyped/, each error `check_program` reports as (kind, message,
span), in order, and the main expression's type.

Run from the repository root after any deliberate change to the trace
format, the stepping order or a typing error, then review the diff by
hand. Tests compare byte for byte against these files, and recompute
the trace digests (tests/test_interp.py) and the checker errors
(tests/test_typecheck.py) and compare.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsj import (  # noqa: E402
    GenConfig,
    build_class_table,
    check_program,
    generate_program,
    load_corpus,
    parse_program,
    run,
)
from fsj.interp import MUTANTS, TraceObserver  # noqa: E402
from fsj.metatheory import CAMPAIGN_FUEL  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SUBJECT = ROOT / "corpus" / "subscribe_push.fsj"
ERRORS = GOLDEN / "checker_errors.json"
DIGESTS = GOLDEN / "trace_digests.json"
FSJ = [sys.executable, "-m", "fsj.cli"]

CORPUS_FUEL = 2500
SHORT_FUEL = 300  # loop_handler.fsj, handler cascades and mutated machines
SEEDS = range(200)


def feed_trace(h, ct, main, fuel: int, mutations: frozenset[str] = frozenset()) -> None:
    """Hash each trace event's JSON line, then the final status and step count."""

    def feed(event):
        h.update(f"{event.to_json()}\n".encode())

    res = run(ct, main, fuel, mutations, observers=[TraceObserver(ct, feed)])
    h.update(f"status={res.status} steps={res.state.steps}\n".encode())


def trace_digests(root: Path = ROOT) -> dict:
    """One sha256 per corpus program's trace, and one per family of traces."""
    loaded = load_corpus(root / "corpus")
    corpus = {}
    for name, program, ct in loaded:
        h = hashlib.sha256()
        feed_trace(h, ct, program.main, SHORT_FUEL if name == "loop_handler.fsj" else CORPUS_FUEL)
        corpus[name] = h.hexdigest()
    families = {}
    for label, cfg, fuel in (
        ("default", GenConfig(), CAMPAIGN_FUEL),
        ("handlers_write_signals", GenConfig(handlers_write_signals=True), SHORT_FUEL),
    ):
        h = hashlib.sha256()
        for seed in SEEDS:
            program, ct = generate_program(replace(cfg, seed=seed))
            h.update(f"seed={seed}\n".encode())
            if check_program(ct, program).ok:
                feed_trace(h, ct, program.main, fuel)
            else:
                h.update(b"ill-typed\n")
        families[label] = {"fuel": fuel, "sha256": h.hexdigest()}
    mutated = {}
    for mutation in sorted(MUTANTS):
        h = hashlib.sha256()
        for name, program, ct in loaded:
            h.update(f"program={name}\n".encode())
            feed_trace(h, ct, program.main, SHORT_FUEL, frozenset({mutation}))
        mutated[mutation] = h.hexdigest()
    return {
        "corpus_fuel": CORPUS_FUEL,
        "short_fuel": SHORT_FUEL,
        "corpus": corpus,
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "generated": families,
        "mutated_corpus": mutated,
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


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    jobs = [
        ([*FSJ, "trace", str(SUBJECT)], GOLDEN / "subscribe_push.trace.txt"),
        (
            [*FSJ, "trace", "--format", "structured", str(SUBJECT)],
            GOLDEN / "subscribe_push.trace.jsonl",
        ),
    ]
    for cmd, dest in jobs:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        dest.write_text(proc.stdout)
        print(f"wrote {dest.relative_to(ROOT)} ({len(proc.stdout.splitlines())} lines)")
    errors = checker_errors()
    lines = [f" {json.dumps(name)}: {json.dumps(entry)}" for name, entry in errors.items()]
    ERRORS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {ERRORS.relative_to(ROOT)} ({len(errors)} programs)")
    DIGESTS.write_text(json.dumps(trace_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
