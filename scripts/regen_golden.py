#!/usr/bin/env python3
"""Regenerate the golden trace files and the checker errors under tests/golden/.

The traces are `fsj trace` of corpus/subscribe_push.fsj in both formats.
checker_errors.json holds, for every row of the typing table in
tests/test_typing_rules.py and every program in corpus/ and
corpus/illtyped/, each error `check_program` reports as (kind, message,
span), in order, and the main expression's type.

Run from the repository root after any deliberate change to the trace
format, the stepping order or a typing error, then review the diff by
hand. Tests compare byte for byte against these files, and
tests/test_typecheck.py recomputes the checker errors and compares.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsj import build_class_table, check_program, parse_program  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SUBJECT = ROOT / "corpus" / "subscribe_push.fsj"
ERRORS = GOLDEN / "checker_errors.json"
FSJ = [sys.executable, "-m", "fsj.cli"]


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
