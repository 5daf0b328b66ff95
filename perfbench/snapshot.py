#!/usr/bin/env python3
"""Record the campaign workload's per-seed reports.

For each seed the benchmark's campaign workload covers, this writes the
(theorem, outcome, step) triple of every report `metatheory.campaign`
makes for it to campaign_snapshot.json.  The benchmark compares each
campaign operation against that file.  Re-record only when a change is
meant to alter campaign outcomes, and review the diff:

    python3 perfbench/snapshot.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fsj import metatheory  # noqa: E402

from workloads import CAMPAIGN_SEEDS, CAMPAIGN_SNAPSHOT  # noqa: E402


def main() -> int:
    out = {}
    for s in CAMPAIGN_SEEDS:
        res = metatheory.campaign(1, base_seed=s)
        if res.violations:
            print(f"seed {s}: {res.violations[0][1].line()}", file=sys.stderr)
            return 1
        out[str(s)] = [[r.prop, r.outcome, r.step] for _, r in res.reports]
    CAMPAIGN_SNAPSHOT.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in out.items()) + "\n}\n"
    )
    print(f"wrote {len(out)} seeds to {CAMPAIGN_SNAPSHOT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
