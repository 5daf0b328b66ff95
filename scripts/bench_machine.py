#!/usr/bin/env python3
"""Time the machine, the campaign and the front end; write a BENCH_*.json record.

The operations are those of the `machine` benchmark workload, taken from
`perfbench/workloads.py` with their output checks (`loop_handler.fsj` at
fuel 125, 250 and 500, the Peano push program at N = 16, 32 and 64),
plus one long point, `loop_handler.fsj` at fuel 20000, checked the same
way; the `audited` family: `metatheory.audit_run` on `loop_handler.fsj`
at fuel 2500, 5000 and 10000, each checked the same way and for no
violation; the `traced` family: the `trace:` operations of the
`harness` workload's `corpus_trace` family, with their checks, and a
traced `run` of `loop_handler.fsj` at fuel 250, 500 and 1000 with every
event rendered by `to_line`, checked like the plain loop; and the
`campaign` family: the 200 campaign operations of the `harness`
workload, each checked against the recorded snapshot; and the
`frontend` family: `parse_program` over every file of `corpus/` and
`corpus/illtyped/` as one operation, checked to render to text that
parses back to the same rendering, then for n = 1200, 2400 and 4800
classes declared child first (`chain_source`) the parse, checked for n
classes, and the class table build of the parsed program, checked for
n + 1 records and `is_subtype` between C<n-1> and C0 both ways; and the
`mutated` family: the campaign of seeds 0-119 on each deliberately
broken machine (`interp.MUT_NO_THIS_SUBST` and `MUT_SWAP_ASSIGN`), the
only operations that run the mutants' outcome rewrites, each checked
against its record in `tests/golden/campaign_reports.json` (violation
count and digest); and the `resubscribe` family: a program whose handler
subscribes again before it writes (`resubscribe_source`), so each push
leaves one more registration and nests the next write inside its brace,
under plain `run` at fuel 2000, 5000 and 10000 and under `audit_run` at
fuel 2000 and 5000, each checked to end in `fuel` with no violation.  An
operation's time is the fastest of REPEAT (60) runs, AUDIT_REPEAT (30)
for the audited, traced, frontend and mutated ones, which can take
seconds each: with 10, two sides running the same audit code read 2.51
and 3.05 s at fuel 10000; and RESUBSCRIBE_REPEAT (3) for the resubscribe
ones, whose time grows as the square of the fuel, to seconds at 10000.
The repeats go round all operations in turn, so a change in the host's
speed reaches every operation alike.  A failed check stops
the script.

Each checkout is measured in a worker process of its own, which imports
fsj and the workloads from that checkout and runs one operation per
request.  With `--parent ROOT` there are two workers, and every
operation runs on both, one right after the other, with the side that
goes first flipped on each repeat, so drift in the host's speed lands
on both sides alike.

A record gives per-operation seconds and steps/s (the campaign as one
summed time and as the median operation's time), the six `machine`
operations' total, per family the least-squares slope of log(time)
against log(size) (for `traced`, over the loop's three fuels; for
`frontend`, one over the chain's parses and one over its builds), and
how many class tables one campaign seed builds, counted on seed 0, and per
`resubscribe` operation the context depth (cells on the final stack) and
the peak RSS, each read in a fresh process that runs that operation
alone.  Records
are stored by label in `--out`, next to the records already there:

    python3 scripts/bench_machine.py --out BENCH_<n>.json --parent ../parent
    python3 scripts/bench_machine.py --out BENCH_<n>.json --label change

`--root` names the source checkout of the change; it defaults to this one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import runpy
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

REPEAT = 60
LONG_FUEL = 20000
AUDIT_FUELS = (2500, 5000, 10000)
AUDIT_REPEAT = 30
TRACE_FUELS = (250, 500, 1000)
CHAIN_SIZES = (1200, 2400, 4800)
MUTATED_SEEDS = 120
SLOW_FAMILIES = ("audited", "traced", "frontend", "mutated")  # timed AUDIT_REPEAT times
RESUBSCRIBE_FUELS = (2000, 5000, 10000)
RESUBSCRIBE_AUDIT_FUELS = (2000, 5000)
RESUBSCRIBE_REPEAT = 3
RESUBSCRIBE_MAIN = (
    "let p = new Pump(new Nat()) in\n"
    "(p.n.subscribe(p.n.subscribe(unit); p.n = new Nat());\n"
    " (p.n = new Nat(); p.n))\n"
)


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def chain_source(n: int) -> str:
    """n empty classes, each declared before the superclass it extends."""
    return "".join(
        f"class C{i} extends {f'C{i - 1}' if i else 'Object'} {{ C{i}() {{ super(); }} }}\n"
        for i in reversed(range(n))
    ) + "unit\n"


def frontend(workloads, root: Path) -> list:
    """The `frontend` family's operations, on the fsj modules `workloads`
    imported.  They do no reduction steps, so each reports 0 steps."""
    syntax = workloads.syntax
    texts = [p.read_text() for p in sorted((root / "corpus").glob("**/*.fsj"))]

    def check_corpus(programs):
        for program in programs:
            text = syntax.render_program(program)
            if syntax.render_program(syntax.parse_program(text)) != text:
                return 0, f"{text!r} does not parse back to itself"
        return 0, None if len(programs) == len(texts) else f"{len(programs)} programs"

    ops = [
        workloads.Op(
            "frontend",
            f"parse corpus ({len(texts)} files)",
            lambda: [syntax.parse_program(text) for text in texts],
            check_corpus,
        )
    ]
    for n in CHAIN_SIZES:
        text = chain_source(n)
        program = syntax.parse_program(text)

        def check_parse(p, n=n):
            got = (len(p.classes), p.classes[0].name, p.classes[-1].parent)
            want = (n, f"C{n - 1}", "Object")
            return 0, None if got == want else f"{got}, want {want}"

        def check_build(ct, n=n):
            is_subtype = workloads.typecheck.is_subtype
            got = (len(ct), is_subtype(ct, f"C{n - 1}", "C0"), is_subtype(ct, "C0", f"C{n - 1}"))
            want = (n + 1, True, False)
            return 0, None if got == want else f"{got}, want {want}"

        ops += [
            workloads.Op(
                "frontend", f"parse n={n}", lambda text=text: syntax.parse_program(text), check_parse, size=n
            ),
            workloads.Op(
                "frontend",
                f"build n={n}",
                lambda program=program: workloads.classtable.build_class_table(program),
                check_build,
                size=n,
            ),
        ]
    return ops


def mutated(workloads, root: Path) -> list:
    """The `mutated` family's operations, on the fsj modules `workloads`
    imported.  A campaign's steps are its progress reports' step counts,
    which are where each seed's machine stopped."""
    interp, metatheory = workloads.interp, workloads.metatheory
    golden = json.loads((root / "tests" / "golden" / "campaign_reports.json").read_text())
    # from this checkout's script: an older root keeps `record` under another name
    record = runpy.run_path(str(HERE / "scripts" / "regen_golden.py"))["record"]

    def op(name: str):
        def work():
            return metatheory.campaign(MUTATED_SEEDS, base_seed=0, mutations=frozenset({name}))

        def check(res):
            steps = sum(r.step for _, r in res.reports if r.prop == metatheory.P_PROGRESS)
            got = record(name, res)
            return steps, None if got == golden[name] else f"{got}, want {golden[name]}"

        return workloads.Op("mutated", name, work, check)

    return [op(interp.MUT_NO_THIS_SUBST), op(interp.MUT_SWAP_ASSIGN)]


def resubscribe_source(root: Path) -> str:
    """loop_handler.fsj's classes under a main whose handler subscribes
    again before it writes."""
    text = (root / "corpus" / "loop_handler.fsj").read_text()
    return text[: text.index("let p")] + RESUBSCRIBE_MAIN


def resubscribe(workloads, root: Path, fuels=RESUBSCRIBE_FUELS,
                audit_fuels=RESUBSCRIBE_AUDIT_FUELS) -> list:
    """The `resubscribe` family's operations, on the fsj modules `workloads`
    imported: plain `run` at each of fuels, then `audit_run` at each of
    audit_fuels."""
    ct, program = workloads.load_checked(resubscribe_source(root))

    def op(fuel: int, audited: bool):
        def work():
            if audited:
                return workloads.metatheory.audit_run(ct, program.main, fuel=fuel)
            return workloads.interp.run(ct, program.main, fuel=fuel, collect_trace=False)

        def check(res):
            out = res.run if audited else res
            got = (out.status, out.state.steps, out.violation)
            return out.state.steps, None if got == ("fuel", fuel, None) else f"{got}, want fuel at {fuel}"

        key = f"{'audited' if audited else 'plain'} fuel={fuel}"
        return workloads.Op("resubscribe", key, work, check, size=fuel)

    return [op(f, False) for f in fuels] + [op(f, True) for f in audit_fuels]


def campaign_builds() -> int:
    """How many class tables campaign seed 0 builds, through the names
    `gen` and `metatheory` call."""
    from fsj import gen, metatheory

    real = gen.build_class_table, metatheory.build_class_table
    builds = []

    def counted(program):
        builds.append(program)
        return real[0](program)

    gen.build_class_table = metatheory.build_class_table = counted
    try:
        metatheory.campaign(1, base_seed=0)
    finally:
        gen.build_class_table, metatheory.build_class_table = real
    return len(builds)


def operations(root: Path):
    """The `machine` workload's operations, the long loop, the audited runs,
    the traced runs, the campaign operations, the front end's, the mutated
    campaigns, then the resubscribe runs."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(root / "perfbench"))
    import workloads

    ct, program = workloads.load_checked((root / "corpus" / "loop_handler.fsj").read_text())

    def checker(fuel: int, audited: bool = False):
        def check(res):
            out = res.run if audited else res
            got = (out.status, out.violation, out.state.steps, len(out.state.store))
            want = ("fuel", None, fuel, workloads.loop_handler_store(fuel))
            return out.state.steps, None if got == want else f"{got}, want {want}"

        return check

    long_loop = workloads.Op(
        "long_loop",
        f"fuel={LONG_FUEL}",
        lambda: workloads.interp.run(ct, program.main, fuel=LONG_FUEL, collect_trace=False),
        checker(LONG_FUEL),
        size=LONG_FUEL,
    )
    audited = [
        workloads.Op(
            "audited",
            f"fuel={fuel}",
            lambda fuel=fuel: workloads.metatheory.audit_run(ct, program.main, fuel=fuel),
            checker(fuel, audited=True),
            size=fuel,
        )
        for fuel in AUDIT_FUELS
    ]

    def traced_loop(fuel: int):
        check = checker(fuel)

        def work():
            res = workloads.interp.run(ct, program.main, fuel=fuel, collect_trace=True)
            return res, [e.to_line() for e in res.trace]

        return workloads.Op("traced", f"fuel={fuel}", work, lambda out: check(out[0]), size=fuel)

    traced = [
        replace(op, family="traced")
        for op in workloads.corpus_trace(root, 0).ops
        if op.key.startswith("trace:")
    ] + [traced_loop(fuel) for fuel in TRACE_FUELS]
    machine = workloads.WORKLOADS["machine"](root, 0).ops
    campaign = workloads.campaign(root, 0).ops
    front, mutants = frontend(workloads, root), mutated(workloads, root)
    resub = resubscribe(workloads, root)
    return machine + [long_loop] + audited + traced + campaign + front + mutants + resub


def worker(root: Path) -> int:
    """Serve timed operations: announce the operations and the campaign's
    class table builds per seed as one JSON line, then answer each
    operation index read from stdin with [steps, seconds, error]."""
    ops = operations(root)
    announce = {"ops": [[op.family, op.key, op.size] for op in ops], "campaign_builds": campaign_builds()}
    print(json.dumps(announce), flush=True)
    for line in sys.stdin:
        op = ops[int(line)]
        res = None  # free the last output before the clock starts
        t0 = time.perf_counter()
        res = op.run()
        dt = time.perf_counter() - t0
        steps, err = op.check(res)
        print(json.dumps([steps, dt, err]), flush=True)
    return 0


def point(root: Path, key: str) -> int:
    """Run the `resubscribe` operation named key alone, and print its
    context depth and this process's peak RSS as one JSON line."""
    import resource

    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(root / "perfbench"))
    import workloads

    op = next(op for op in resubscribe(workloads, root) if op.key == key)
    res = op.run()
    _, err = op.check(res)
    if err is not None:
        raise SystemExit(f"resubscribe {key}: {err}")
    depth, k = 0, (res.run if key.startswith("audited") else res).state.stack
    while k is not None:
        depth, k = depth + 1, k[2]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"depth": depth, "peak_rss_mb": round(rss_mb, 1)}))
    return 0


class Side:
    """One checkout, measured in a worker process of its own."""

    def __init__(self, label: str, root: Path):
        self.label = label
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", "--root", str(root)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=root,
        )
        announce = json.loads(self.proc.stdout.readline())
        self.ops, self.campaign_builds = announce["ops"], announce["campaign_builds"]
        self.root = root
        self.best = [math.inf] * len(self.ops)
        self.steps = [0] * len(self.ops)
        self.points: dict[str, dict] = {}

    def time(self, i: int) -> None:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        self.steps[i], dt, err = json.loads(self.proc.stdout.readline())
        if err is not None:
            family, key, _ = self.ops[i]
            raise SystemExit(f"{self.label}: {family} {key}: {err}")
        self.best[i] = min(self.best[i], dt)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def measure_points(self) -> None:
        """Depth and peak RSS of each `resubscribe` operation, one fresh
        process per operation."""
        for family, key, _ in self.ops:
            if family == "resubscribe":
                out = subprocess.run(
                    [sys.executable, __file__, "--point", key, "--root", str(self.root)],
                    stdout=subprocess.PIPE, text=True, cwd=self.root, check=True,
                )
                self.points[key] = json.loads(out.stdout)

    def record(self) -> dict:
        timed = list(zip(self.ops, self.steps, self.best))
        rows = [
            {
                "family": family,
                "key": key,
                "size": size,
                "steps": n,
                "seconds": round(t, 6),
                "steps_per_s": round(n / t, 1),
            }
            for (family, key, size), n, t in timed
            if family != "campaign"
        ]
        campaign = [(n, t) for (family, _, _), n, t in timed if family == "campaign"]
        machine = [r for r in rows if r["family"] in ("deep_handler", "peano_push")]
        families = {}
        for fam in ("deep_handler", "peano_push", "audited", "traced"):
            pts = [(r["size"], r["seconds"]) for r in rows if r["family"] == fam and r["size"]]
            families[fam] = {"size_slope": round(slope(pts), 3)}
        for r in rows:
            if r["family"] == "resubscribe":
                r.update(self.points[r["key"]])
        families["resubscribe"] = {
            f"{what}_slope": round(slope([
                (r["size"], r["seconds"]) for r in rows
                if r["family"] == "resubscribe" and r["key"].startswith(what)
            ]), 3)
            for what in ("plain", "audited")
        }
        families["frontend"] = {
            f"{what}_slope": round(slope([
                (r["size"], r["seconds"]) for r in rows
                if r["family"] == "frontend" and r["key"].startswith(f"{what} n=")
            ]), 3)
            for what in ("parse", "build")
        }
        total = sum(r["seconds"] for r in machine)
        campaign_s = sum(t for _, t in campaign)
        return {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "repeat": REPEAT,
            "audit_repeat": AUDIT_REPEAT,
            "operations": rows,
            "families": families,
            "machine_wall_s": round(total, 6),
            "machine_steps_per_s": round(sum(r["steps"] for r in machine) / total, 1),
            "campaign_ops": len(campaign),
            "campaign_wall_s": round(campaign_s, 6),
            "campaign_p50_s": round(statistics.median(t for _, t in campaign), 7),
            "campaign_steps_per_s": round(sum(n for n, _ in campaign) / campaign_s, 1),
            "campaign_builds_per_seed": self.campaign_builds,
        }


def measure(sides: list[Side]) -> None:
    """Run every operation REPEAT times (AUDIT_REPEAT for SLOW_FAMILIES)
    on every side, alternating sides per operation and flipping the order
    on each repeat."""
    ops = sides[0].ops
    if any(side.ops != ops for side in sides):
        raise SystemExit("the checkouts define different operations")
    repeats = [
        RESUBSCRIBE_REPEAT if family == "resubscribe"
        else AUDIT_REPEAT if family in SLOW_FAMILIES else REPEAT
        for family, _, _ in ops
    ]
    for r in range(REPEAT):
        order = sides if r % 2 == 0 else sides[::-1]
        for i in range(len(ops)):
            if r < repeats[i]:
                for side in order:
                    side.time(i)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=HERE, help="source checkout of the change")
    ap.add_argument("--parent", type=Path, help="source checkout of the parent, measured alongside")
    ap.add_argument("--label", default="change", help="name of the change's record in the output file")
    ap.add_argument("--out", type=Path, help="JSON file the records are added to")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--point", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args.root.resolve())
    if args.point:
        return point(args.root.resolve(), args.point)
    if args.out is None:
        ap.error("--out is required")
    sides = [Side(args.label, args.root.resolve())]
    if args.parent is not None:
        sides.insert(0, Side("parent", args.parent.resolve()))
    try:
        measure(sides)
    finally:
        for side in sides:
            side.close()
    for side in sides:
        side.measure_points()
    records = json.loads(args.out.read_text()) if args.out.exists() else {}
    for side in sides:
        record = records[side.label] = side.record()
        seconds = {(r["family"], r["size"]): r["seconds"] for r in record["operations"]}
        audited = ", ".join(f"{seconds['audited', n]:.2f}" for n in AUDIT_FUELS)
        traced = ", ".join(f"{seconds['traced', n]:.3f}" for n in TRACE_FUELS)
        front = {r["key"]: r["seconds"] for r in record["operations"] if r["family"] == "frontend"}
        corpus = next(t for key, t in front.items() if key.startswith("parse corpus"))
        builds = ", ".join(f"{front[f'build n={n}']:.3f}" for n in CHAIN_SIZES)
        mutants = ", ".join(f"{r['seconds']:.3f}" for r in record["operations"] if r["family"] == "mutated")
        resub = "; ".join(
            f"{r['key']} {r['seconds']:.3f} s, depth {r['depth']}, {r['peak_rss_mb']} MB"
            for r in record["operations"] if r["family"] == "resubscribe"
        )
        print(
            f"{side.label}: machine wall_s {record['machine_wall_s']:.4f} s,"
            f" {record['machine_steps_per_s']:.0f} steps/s;"
            f" long loop {seconds['long_loop', LONG_FUEL]:.3f} s;"
            f" audited {audited} s,"
            f" slope {record['families']['audited']['size_slope']:.2f};"
            f" traced loop {traced} s,"
            f" slope {record['families']['traced']['size_slope']:.2f};"
            f" campaign {record['campaign_wall_s']:.4f} s,"
            f" p50 {record['campaign_p50_s'] * 1e6:.1f} us,"
            f" {record['campaign_builds_per_seed']} table build(s) per seed;"
            f" parse corpus {corpus * 1e3:.2f} ms;"
            f" chain builds {builds} s,"
            f" slope {record['families']['frontend']['build_slope']:.2f};"
            f" mutated campaigns {mutants} s;"
            f" resubscribe {resub}"
        )
    args.out.write_text(json.dumps(records, indent=2) + "\n")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
