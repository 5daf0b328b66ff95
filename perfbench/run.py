#!/usr/bin/env python3
"""fsj benchmark: one workload per run, closed loop, one client, no threads.

    python3 perfbench/run.py --workload harness --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; fsj is imported from ./src, so
nothing has to be built.  The workloads are in workloads.py and the
record (machine, why each workload, what stays unmeasured) is in
README.md next to this file.

The run sets the workload up, then repeats passes over it until
--seconds have gone by (at least one pass).  Every operation's output is
checked; an exception or a wrong output is a failed operation.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
tracing installed.  Their times are scaled to the host's nominal speed by
the reference kernel of reference.py, which runs between operations.
With --trace 1 the run first times untraced passes for a quarter of its
time, then installs the span wrappers of tracer.py and spends the rest on
traced passes; the metrics are the per-layer ones plus trace_overhead
(wall_s of the traced passes over that of the untraced ones).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 15
OUT_DIR = ".perfbench_out"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
RULES = (
    "R-FIELD", "R-FIELDS", "R-INVK", "R-NEW", "R-ASSIGN",
    "R-ASSIGNS", "R-ASSIGNCONT", "R-SUBSCRIBE", "R-CAT", "R-LET",
)


def import_fsj():
    """Put ./src first on the path and import fsj from there, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "fsj" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        sys.exit(f"perfbench: run from the root of an fsj checkout ({ROOT} has no src/fsj or corpus/)")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import fsj

    if Path(fsj.__file__).resolve().parent != (src / "fsj").resolve():
        sys.exit(f"perfbench: imported fsj from {fsj.__file__}, not from {src}")
    import workloads

    return workloads


# =========================================================================
# passes


class Pass:
    """Timings and checks of one pass over a workload's operations."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.marks: dict[str, int] = {}  # key -> mark in the reference's runs
        self.sizes: dict[str, tuple[str, int]] = {}  # key -> (family, size)
        self.steps = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.probes: dict[str, str] = {}


def run_pass(workload, reference, tracer=None) -> Pass:
    record = Pass()
    for op in workload.ops:
        record.attempted += 1
        t0 = perf_counter()
        try:
            out = op.run() if tracer is None else tracer.call("bench.op", op.run)
        except Exception as err:  # a crash is a failed operation, not the end of the run
            record.times[op.key] = perf_counter() - t0
            record.failures.append(f"{op.key}: {type(err).__name__}: {str(err)[:200]}")
            record.marks[op.key] = reference.balance(record.times[op.key])
            continue
        record.times[op.key] = perf_counter() - t0
        record.marks[op.key] = reference.balance(record.times[op.key])
        steps, error = op.check(out)
        record.steps += steps
        record.sizes[op.key] = (op.family, op.size if op.size is not None else steps)
        if error is not None:
            record.failures.append(error)
    for key, parse in workload.probes.items():
        try:
            record.probes[key] = type(parse()).__name__
        except Exception as err:  # the known defects raise; that is what is reported
            record.probes[key] = type(err).__name__
    return record


def run_for(workload, seconds: float, reference, tracer=None, setup=None) -> list[Pass]:
    started = perf_counter()
    passes = []
    while not passes or perf_counter() - started < seconds:
        passes.append(run_pass(workload, reference, tracer))
        if setup is not None:
            setup.catch_up((perf_counter() - started) / seconds)
    return passes


# =========================================================================
# end-to-end metrics


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0-100) of values."""
    xs = sorted(values)
    pos = q / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def best_times(passes: list[Pass], reference=None) -> dict[str, float]:
    """Each operation's fastest time over the passes, scaled by the reference.

    The 2-CPU VM this benchmark was first measured on switches between
    speeds for seconds to minutes at a time, so a run's median moves with
    how much of the run fell in a slow spell.  Each time is first scaled to
    the host's nominal speed by the reference kernel runs around it
    (reference.py), then the fastest is kept, which is the cost of the code
    itself and varies far less from run to run (README.md, Machine).
    Without a reference the times are left unscaled.
    """

    def scaled(p: Pass, k: str) -> float:
        return p.times[k] * (reference.scale(p.marks[k]) if reference else 1.0)

    keys = passes[0].times.keys()
    return {k: min(scaled(p, k) for p in passes if k in p.times) for k in keys}


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n operations beyond it.

    With fewer than 20 operations none qualifies; 100 stands for the
    slowest operation.
    """
    return next((q for q in TAIL_LADDER if n * (1 - q / 100) >= 10), 100.0)


def size_slope(record: Pass) -> float | None:
    """Log-log slope of time against size in one pass, averaged over families.

    Each family (a sweep, or the campaign or corpus programs against their
    step counts) gets its own least-squares fit, since sizes of different
    families are not on one scale.
    """
    families: dict[str, list[tuple[float, float]]] = {}
    for k, t in record.times.items():
        family, size = record.sizes.get(k, ("", 0))
        if size >= 1:
            families.setdefault(family, []).append((math.log(size), math.log(t)))
    slopes = []
    for pts in families.values():
        if len({x for x, _ in pts}) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        slopes.append(sum((x - mx) * (y - my) for x, y in pts) / sxx)
    return statistics.fmean(slopes) if slopes else None


class SetupProbes:
    """Wall times of fresh processes that import fsj and set up the workload.

    The probes are spread evenly over the run, between passes, so that
    their median sees the host's changes of speed as the passes do, and
    each is scaled like an operation by the reference kernel runs around it.
    """

    def __init__(self, workload: str, reference):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"]
        self.reference = reference
        self.times: list[float] = []
        self.scaled: list[float] = []

    def catch_up(self, fraction: float) -> None:
        """Probe until the share of probes made reaches fraction (at most 1)."""
        while len(self.times) < SETUP_PROBES * min(fraction, 1.0):
            t0 = perf_counter()
            # no timeout: with one, wait() polls in steps of up to 50 ms
            subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            self.times.append(perf_counter() - t0)
            self.scaled.append(self.times[-1] * self.reference.scale(self.reference.gauge()))


def end_to_end(name: str, passes: list[Pass], setup, reference) -> tuple[dict, list[str]]:
    best = best_times(passes, reference)
    wall = sum(best.values())
    q = tail_percentile(len(best))
    slopes = [x for x in map(size_slope, passes) if x is not None]
    values = {
        "setup_s": (statistics.median(setup.scaled), "s"),
        "wall_s": (wall, "s"),
        "steps_per_s": (passes[0].steps / wall, "1/s"),
        "op_p50_ms": (quantile(list(best.values()), 50) * 1e3, "ms"),
        "op_tail_ms": (quantile(list(best.values()), q) * 1e3, "ms"),
        "size_slope": (statistics.median(slopes) if slopes else 0.0, "slope"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"workload={name} passes={len(passes)} ops_per_pass={len(best)}"
        f" steps_per_pass={passes[0].steps}",
        f"op_tail_ms is p{q:g} of the {len(best)} operations' best times"
        f" ({sum(len(p.times) for p in passes)} timed operations)",
        f"reference kernel: {len(reference.times)} runs, fastest {min(reference.times) * 1e3:.4f} ms,"
        f" median {statistics.median(reference.times) * 1e3:.4f} ms;"
        f" unscaled wall_s {sum(best_times(passes).values()):.6g} s,"
        f" unscaled setup_s {statistics.median(setup.times):.6g} s ({len(setup.times)} probes)",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, notes


# =========================================================================
# per-layer metrics


def install_layers(tracer) -> None:
    from fsj import classtable, gen, interp, metatheory, syntax, typecheck

    def after_step(out, args):
        if out is None:
            return
        tracer.counts["rule." + out.rule] += 1
        st = out.state
        tracer.maxima["store"] = max(tracer.maxima["store"], len(st.store))
        tracer.maxima["expr_nodes"] = max(tracer.maxima["expr_nodes"], count_nodes(st.expr))

    def after_effect(keys, args):
        tracer.counts["effect.keys"] += len(keys)
        tracer.last_effect = keys

    def after_handlers_of(out, args):
        handlers = args[1]
        tracer.counts["handlers_spliced"] += sum(1 for k in tracer.last_effect if k in handlers)

    def after_render(text, args):
        tracer.counts["trace_bytes"] += len(text) + 1

    tracer.install("interp.step", [(interp, "step"), (metatheory, "step")], after_step)
    tracer.install("interp.effect", [(interp, "effect")], after_effect)
    tracer.install("interp.handlers_of", [(interp, "handlers_of")], after_handlers_of)
    tracer.install("interp.subst", [(interp, "subst")])
    tracer.install("metatheory.audit", [(metatheory, "audit_run")])
    tracer.install("metatheory.store_typing", [(metatheory, "check_store_typing")])
    tracer.install("metatheory.progress", [(metatheory, "check_progress")])
    tracer.install("typecheck.type_expr", [(typecheck, "type_expr"), (metatheory, "type_expr")])
    tracer.install("typecheck.check", [(typecheck, "check_program"), (metatheory, "check_program")])
    tracer.install("classtable.build", [(classtable, "build_class_table"), (metatheory, "build_class_table")])
    tracer.install("gen.generate", [(gen, "generate_program"), (metatheory, "generate_program")])
    tracer.install("syntax.parse", [(syntax, "parse_program")])
    tracer.install("syntax.render", [(interp, "render_expr")])
    tracer.install("syntax.render", [(interp.TraceEvent, "to_line")], after_render)
    tracer.install("syntax.render", [(interp.TraceEvent, "to_json")], after_render)


def count_nodes(expr) -> int:
    """Expression size, by an explicit stack so deep terms cannot overflow."""
    from fsj import syntax as s

    n, todo = 0, [expr]
    while todo:
        e = todo.pop()
        n += 1
        match e:
            case s.FieldAccess(recv=r):
                todo.append(r)
            case s.Invoke(recv=r, args=args):
                todo.append(r)
                todo.extend(args)
            case s.New(args=args):
                todo.extend(args)
            case s.Assign(recv=r, value=v) | s.Seq(first=r, second=v) | s.Subscribe(recv=r, handler=v):
                todo += (r, v)
            case s.Let(bound=b, body=body):
                todo += (b, body)
            case s.EffectBrace(body=b):
                todo.append(b)
    return n


def per_layer(
    name: str, plain: list[Pass], traced: list[Pass], tracer, plain_ref, traced_ref
) -> tuple[dict, list[str]]:
    summary = tracer.summarize(keep_durations=("interp.step",))
    k = len(traced)

    def per_pass(layer: str, field: str) -> float:
        return summary[layer][field] / k

    keys = tracer.counts["effect.keys"] / k
    spliced = tracer.counts["handlers_spliced"] / k
    step_us = [d * 1e6 for d in summary["interp.step"]["durations"]] or [0.0]
    values: dict[str, tuple[float, str]] = {
        "interp.step.calls": (per_pass("interp.step", "calls"), "count"),
        "interp.step.self_s": (per_pass("interp.step", "self_s"), "s"),
        "interp.step.p50_us": (quantile(step_us, 50), "us"),
        "interp.step.p99_us": (quantile(step_us, 99), "us"),
        "interp.max_expr_nodes": (tracer.maxima["expr_nodes"], "count"),
        "interp.effect.calls": (per_pass("interp.effect", "calls"), "count"),
        "interp.effect.self_s": (per_pass("interp.effect", "self_s"), "s"),
        "interp.effect.keys": (keys, "count"),
        "interp.handlers_spliced": (spliced, "count"),
        "interp.effect.useful_share": (spliced / keys if keys else 0.0, "ratio"),
        "interp.subst.calls": (per_pass("interp.subst", "calls"), "count"),
        "interp.subst.self_s": (per_pass("interp.subst", "self_s"), "s"),
        "interp.max_store": (tracer.maxima["store"], "count"),
    }
    for rule in RULES:
        values[f"interp.rule.{rule}"] = (tracer.counts["rule." + rule] / k, "count")
    for layer, fields in (
        ("metatheory.audit", ("self_s",)),
        ("metatheory.store_typing", ("calls", "self_s")),
        ("typecheck.type_expr", ("calls", "self_s")),
        ("metatheory.progress", ("calls", "self_s")),
        ("gen.generate", ("self_s",)),
        ("classtable.build", ("self_s",)),
        ("typecheck.check", ("self_s",)),
        ("syntax.parse", ("calls", "self_s")),
        ("syntax.render", ("calls", "self_s")),
    ):
        for f in fields:
            values[f"{layer}.{f}"] = (per_pass(layer, f), "s" if f == "self_s" else "count")
    values["syntax.trace_bytes"] = (tracer.counts["trace_bytes"] / k, "bytes")
    crashed = sum(1 for out in traced[0].probes.values() if out not in ("Program", "ParseError"))
    values["corpus.known_defect_crashes"] = (crashed, "count")
    # each part of the run is scaled by the reference times taken during it
    traced_wall = sum(best_times(traced, traced_ref).values())
    overhead = traced_wall / sum(best_times(plain, plain_ref).values())
    values["trace_overhead"] = (overhead, "ratio")

    path = tracer.write(ROOT / OUT_DIR, name)
    notes = [
        f"workload={name} untraced_passes={len(plain)} traced_passes={k}"
        f" spans={tracer.span_count()} written to {path.relative_to(ROOT)}",
        f"bench.probe self_s per pass (hook cost, excluded from layers):"
        f" {per_pass('bench.probe', 'self_s'):.6f}",
    ]
    return {m: {"value": v, "unit": u} for m, (v, u) in values.items()}, notes


# =========================================================================
# main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads = import_fsj()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_only:
        return 0
    from reference import Reference

    if args.trace:
        from tracer import Tracer

        plain_ref, traced_ref = Reference(), Reference()
        plain = run_for(workload, args.seconds / 4, plain_ref)
        tracer = Tracer()
        install_layers(tracer)
        try:
            traced = run_for(workload, args.seconds * 3 / 4, traced_ref, tracer)
        finally:
            tracer.uninstall()
        passes = plain + traced
        metrics, notes = per_layer(args.workload, plain, traced, tracer, plain_ref, traced_ref)
    else:
        reference = Reference()
        setup = SetupProbes(args.workload, reference)
        passes = run_for(workload, args.seconds, reference, setup=setup)
        setup.catch_up(1.0)
        metrics, notes = end_to_end(args.workload, passes, setup, reference)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(
        f"machine cpus={os.cpu_count()} python={platform.python_version()}"
        f" ({platform.python_implementation()}) system={platform.system()}"
    )
    for line in notes:
        print(line)
    for key, outcome in passes[0].probes.items():
        print(f"known-defect input={key} outcome={outcome} (correct: Program or ParseError)")
    for line in sorted(set(failures))[:20]:
        print(f"FAILED {line}")
    for m, v in metrics.items():
        print(f"{m} = {v['value']:.6g} {v['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
