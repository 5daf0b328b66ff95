"""Command line front end.

    fsj check FILE...            parse and type check
    fsj run FILE [--fuel N]      evaluate and summarize the final state
    fsj trace FILE [--fuel N] [--format text|structured]
                                 print every reduction and store event
    fsj meta [--seed S] [--n COUNT] [--fuel N] [--mutate NAME]
                                 run the generative soundness campaign and
                                 count the reduction rules it exercised

Every flag can also be set through an environment variable with the
FSJ_ prefix (FSJ_FUEL, FSJ_FORMAT, FSJ_SEED, FSJ_N); an explicit flag
wins, and a variable is checked like its flag.  Exit codes: 0 success,
1 type or soundness errors, 2 usage, parse or I/O errors, 3 fuel
exhausted, 4 stuck state (which means the machine itself is broken, not
the program).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .classtable import ClassTable, ClassTableError, build_class_table
from .interp import DEFAULT_FUEL, MUTATIONS, chain_depth, run
from .metatheory import CAMPAIGN_FUEL, campaign, shrink_campaign_failure
from .syntax import Loc, ParseError, Program, parse_program, render_expr, render_program
from .typecheck import check_program

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_FUEL = 3
EXIT_STUCK = 4

TRACE_TEXT_HEADER = "# fsj trace v1"
TRACE_JSON_HEADER = '{"format": "fsj-trace", "version": 1}'
FORMATS = ("text", "structured")


def count(raw: str) -> int:
    """A --fuel or --n value: an int that is not negative."""
    n = int(raw)
    if n < 0:
        raise ValueError(raw)
    return n


def trace_format(raw: str) -> str:
    """A --format value; argparse checks `choices` on flags but not on FSJ_FORMAT."""
    if raw not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {raw!r} (choose from {', '.join(map(repr, FORMATS))})"
        )
    return raw


def _load_checked(path: str) -> tuple[int, tuple[ClassTable, Program, str] | None]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        print(f"{path}: {err}", file=sys.stderr)
        return EXIT_PARSE, None
    try:
        program = parse_program(text)
    except ParseError as err:
        print(f"{path}:{err}", file=sys.stderr)
        return EXIT_PARSE, None
    try:
        ct = build_class_table(program)
    except ClassTableError as err:
        print(f"{path}: {err}", file=sys.stderr)
        return EXIT_SEMANTIC, None
    report = check_program(ct, program)
    if not report.ok:
        for e in report.errors:
            where = f":{e.span}" if e.span else ""
            print(f"{path}{where}: {e.message} [{e.kind.value}]", file=sys.stderr)
        return EXIT_SEMANTIC, None
    return EXIT_OK, (ct, program, report.main_type)


def cmd_check(args) -> int:
    worst = EXIT_OK
    for path in args.files:
        code, loaded = _load_checked(path)
        if code == EXIT_OK:
            print(f"{path}: ok (main: {loaded[2]})")
        worst = max(worst, code)
    return worst


def cmd_run(args) -> int:
    code, loaded = _load_checked(args.file)
    if loaded is None:
        return code
    ct, program, _ = loaded
    result = run(ct, program.main, fuel=args.fuel, collect_trace=False)
    if result.status == "stuck":
        print(f"status=stuck steps={result.state.steps}")
        print(f"expr={render_expr(result.state.expr)}")
        print(
            "stuck on a well-typed program: this is a soundness bug in the"
            " machine, not in the program",
            file=sys.stderr,
        )
        return EXIT_STUCK
    if result.status == "fuel":
        pend = f"@{result.pending[0]}.{result.pending[1]}" if result.pending else "none"
        print(f"status=fuel steps={result.state.steps} pending={pend}")
        return EXIT_FUEL
    final = result.final
    print(f"final={render_expr(final)}")
    if isinstance(final, Loc):
        obj = result.state.store[final.loc]
        print(f"class={obj.cls}")
        print(f"depth={chain_depth(result.state.store, final.loc)}")
    print(f"objects={len(result.state.store)}")
    keys = sorted(result.state.handlers)
    print("handlers=" + (",".join(f"@{l}.{f}" for l, f in keys) if keys else "none"))
    print(f"steps={result.state.steps}")
    return EXIT_OK


def cmd_trace(args) -> int:
    code, loaded = _load_checked(args.file)
    if loaded is None:
        return code
    ct, program, _ = loaded
    structured = args.format == "structured"
    print(TRACE_JSON_HEADER if structured else TRACE_TEXT_HEADER)
    result = run(ct, program.main, fuel=args.fuel)
    for event in result.trace:
        print(event.to_json() if structured else event.to_line())
    final = render_expr(result.final)
    if structured:
        print(
            json.dumps(
                {
                    "kind": "final",
                    "status": result.status,
                    "expr": final,
                    "steps": result.state.steps,
                }
            )
        )
    else:
        print(f"status={result.status} final={final} steps={result.state.steps}")
    if result.status == "stuck":
        return EXIT_STUCK
    if result.status == "fuel":
        return EXIT_FUEL
    return EXIT_OK


def cmd_meta(args) -> int:
    mutations = frozenset({args.mutate}) if args.mutate else frozenset()
    result = campaign(args.n, base_seed=args.seed, fuel=args.fuel, mutations=mutations)
    for seed, report in result.reports:
        print(f"seed={seed} theorem={report.prop} result={report.outcome}")
    for prop, counts in sorted(result.tally().items()):
        shown = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"tally theorem={prop} {shown}")
    for rule, count in result.rules.most_common():
        print(f"rule={rule} count={count}")
    print(
        f"programs={result.count} violations={len(result.violations)}"
        f" elapsed={result.elapsed:.1f}s"
    )
    if not result.violations:
        return EXIT_OK
    seed, report = result.violations[0]
    shrunk = shrink_campaign_failure(seed, report.prop, fuel=args.fuel, mutations=mutations)
    out = Path(f"fsj-violation-seed{seed}.fsj")
    out.write_text(render_program(shrunk))
    print(f"violation seed={seed} theorem={report.prop} detail={report.detail}", file=sys.stderr)
    print(f"shrunk witness written to {out}", file=sys.stderr)
    return EXIT_SEMANTIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsj",
        description="Type check, run, trace, and stress-test reactive-field programs.",
        epilog="Flags fall back to FSJ_FUEL, FSJ_FORMAT, FSJ_SEED, and FSJ_N.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type check programs")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_check)

    # A set FSJ_* variable is a string default, which argparse puts through
    # the option's `type` only when the flag is absent.
    fuel_default = os.environ.get("FSJ_FUEL", DEFAULT_FUEL)
    p = sub.add_parser("run", help="evaluate a program")
    p.add_argument("file")
    p.add_argument("--fuel", type=count, default=fuel_default)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("trace", help="evaluate and print each reduction")
    p.add_argument("file")
    p.add_argument("--fuel", type=count, default=fuel_default)
    p.add_argument(
        "--format",
        type=trace_format,
        choices=FORMATS,
        default=os.environ.get("FSJ_FORMAT", "text"),
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("meta", help="generative soundness campaign")
    p.add_argument("--seed", type=int, default=os.environ.get("FSJ_SEED", 0))
    p.add_argument("--n", type=count, default=os.environ.get("FSJ_N", 200))
    p.add_argument("--fuel", type=count, default=os.environ.get("FSJ_FUEL", CAMPAIGN_FUEL))
    p.add_argument(
        "--mutate",
        choices=sorted(MUTATIONS),
        default=None,
        help="deliberately break the machine; the campaign must then fail",
    )
    p.set_defaults(fn=cmd_meta)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # As the `signal` docs advise: the flush at exit must not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
