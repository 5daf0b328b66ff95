#!/usr/bin/env python3
"""Regenerate tests/golden/rule_sequences.json.

The file pins the machine's stepping order without keeping a second
stepper around to compare against: one sha256 per corpus program over
its rule sequence under plain `run` at fuel 2500, then its final status
and step count, and one sha256 over the same record for every
default-config generated program of seeds 0-999 at the campaign fuel.

Run from the repository root only after a deliberate change to the
reduction rules or the evaluation order, then review the diff by hand.
tests/test_interp.py recomputes the digests and compares.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsj import (  # noqa: E402
    GenConfig,
    check_program,
    generate_program,
    load_corpus,
    run,
)
from fsj.metatheory import CAMPAIGN_FUEL  # noqa: E402

DEST = ROOT / "tests" / "golden" / "rule_sequences.json"
CORPUS_FUEL = 2500
SEEDS = range(1000)


def feed(h, ct, main, fuel: int) -> None:
    """Hash each step's rule, then the final status and step count."""

    def record(before, after):
        h.update(f"{after.rule}\n".encode())

    res = run(ct, main, fuel, observers=[record])
    h.update(f"status={res.status} steps={res.state.steps}\n".encode())


def digests(root: Path = ROOT) -> dict:
    corpus = {}
    for name, program, ct in load_corpus(root / "corpus"):
        h = hashlib.sha256()
        feed(h, ct, program.main, CORPUS_FUEL)
        corpus[name] = h.hexdigest()
    h = hashlib.sha256()
    for seed in SEEDS:
        program, ct = generate_program(replace(GenConfig(), seed=seed))
        h.update(f"seed={seed}\n".encode())
        if check_program(ct, program).ok:
            feed(h, ct, program.main, CAMPAIGN_FUEL)
        else:
            h.update(b"ill-typed\n")
    return {
        "corpus_fuel": CORPUS_FUEL,
        "corpus": corpus,
        "campaign": {
            "seeds": [SEEDS.start, SEEDS.stop - 1],
            "fuel": CAMPAIGN_FUEL,
            "sha256": h.hexdigest(),
        },
    }


def main() -> int:
    DEST.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
