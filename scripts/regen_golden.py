#!/usr/bin/env python3
"""Regenerate the golden trace files under tests/golden/.

Run from the repository root after any deliberate change to the trace
format or to the stepping order, then review the diff by hand. Tests
compare byte for byte against these files.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SUBJECT = ROOT / "corpus" / "subscribe_push.fsj"
FSJ = [sys.executable, "-m", "fsj.cli"]


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
