#!/usr/bin/env python3
"""Regenerate tests/golden/campaign_reports.json.

The file pins what the audit reports, seed by seed: one sha256 per
campaign over every report's (seed, prop, outcome, step, detail), plus
the campaign's violation count for a reader.  It covers the default
campaign of seeds 0-999 and both deliberately broken machines at 120
seeds, so the tallies and the mutation detail strings are checked by a
test rather than by hand.  A campaign with a violation also pins the
witness `fsj meta` writes for it: the first violation's seed and
property, the shrunk program's size and the sha256 of its text, and the
number of predicate calls the shrink made.

Run from the repository root only after a deliberate change to an
oracle, the generator or the machine, then review the diff by hand.
tests/test_metatheory.py recomputes the digests and compares.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsj import campaign, metatheory, render_program, shrink_campaign_failure  # noqa: E402
from fsj.gen import _size  # noqa: E402
from fsj.interp import MUTANTS  # noqa: E402

DEST = ROOT / "tests" / "golden" / "campaign_reports.json"
# name -> (seed count, mutations); every campaign starts at seed 0
CAMPAIGNS = {
    "default": (1000, frozenset()),
    **{name: (120, frozenset({name})) for name in sorted(MUTANTS)},
}


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


def digests(run=run_campaign) -> dict:
    """run(name) gives the named campaign's result; a caller may pass one
    that reuses a result it already holds."""
    return {name: record(name, run(name)) for name in CAMPAIGNS}


def main() -> int:
    DEST.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
