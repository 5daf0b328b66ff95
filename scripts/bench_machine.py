#!/usr/bin/env python3
"""Time plain `interp.run` on the machine programs and write a BENCH_*.json record.

The operations are those of the `machine` benchmark workload, taken from
`perfbench/workloads.py` with their output checks (`loop_handler.fsj` at
fuel 125, 250 and 500, the Peano push program at N = 16, 32 and 64),
plus one long point, `loop_handler.fsj` at fuel 20000, checked the same
way.  An operation's time is the fastest of REPEAT runs; the repeats go
round all operations in turn, so a change in the host's speed reaches
every operation alike.  A failed check stops the script.

The record gives per-operation seconds and steps/s, the six `machine`
operations' total, and per family the least-squares slope of log(time)
against log(size).  It is stored under `--label` in `--out`, next to the
records already there, so the parent and a change can sit in one file:

    python3 scripts/bench_machine.py --out BENCH_<n>.json --label change
    python3 scripts/bench_machine.py --out BENCH_<n>.json --label parent --root ../parent

`--root` names the source checkout to import fsj and the workloads from;
it defaults to this one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

REPEAT = 60
LONG_FUEL = 20000


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def operations(root: Path):
    """The `machine` workload's operations, then the long loop."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(root / "perfbench"))
    import workloads

    ct, program = workloads.load_checked((root / "corpus" / "loop_handler.fsj").read_text())

    def check(res):
        got = (res.status, res.state.steps, len(res.state.store))
        want = ("fuel", LONG_FUEL, workloads.loop_handler_store(LONG_FUEL))
        return res.state.steps, None if got == want else f"{got}, want {want}"

    long_loop = workloads.Op(
        "long_loop",
        f"fuel={LONG_FUEL}",
        lambda: workloads.interp.run(ct, program.main, fuel=LONG_FUEL, collect_trace=False),
        check,
        size=LONG_FUEL,
    )
    return workloads.WORKLOADS["machine"](root, 0).ops + [long_loop]


def measure(root: Path) -> dict:
    ops = operations(root)
    best = [math.inf] * len(ops)
    steps = [0] * len(ops)
    for _ in range(REPEAT):
        for i, op in enumerate(ops):
            res = None  # free the last output before the clock starts
            t0 = time.perf_counter()
            res = op.run()
            dt = time.perf_counter() - t0
            steps[i], err = op.check(res)
            if err is not None:
                raise SystemExit(f"{op.family} {op.key}: {err}")
            best[i] = min(best[i], dt)
    rows = [
        {
            "family": op.family,
            "size": op.size,
            "steps": n,
            "seconds": round(t, 6),
            "steps_per_s": round(n / t, 1),
        }
        for op, n, t in zip(ops, steps, best)
    ]
    machine = [r for r in rows if r["family"] != "long_loop"]
    families = {}
    for fam in ("deep_handler", "peano_push"):
        pts = [(r["size"], r["seconds"]) for r in rows if r["family"] == fam]
        families[fam] = {"size_slope": round(slope(pts), 3)}
    total = sum(r["seconds"] for r in machine)
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": REPEAT,
        "operations": rows,
        "families": families,
        "machine_wall_s": round(total, 6),
        "machine_steps_per_s": round(sum(r["steps"] for r in machine) / total, 1),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=HERE, help="source checkout to benchmark")
    ap.add_argument("--label", required=True, help="name of the record in the output file")
    ap.add_argument("--out", type=Path, required=True, help="JSON file the record is added to")
    args = ap.parse_args()
    record = measure(args.root.resolve())
    records = json.loads(args.out.read_text()) if args.out.exists() else {}
    records[args.label] = record
    args.out.write_text(json.dumps(records, indent=2) + "\n")
    print(
        f"{args.label}: machine wall_s {record['machine_wall_s']:.4f} s,"
        f" {record['machine_steps_per_s']:.0f} steps/s;"
        f" long loop {record['operations'][-1]['seconds']:.3f} s -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
