"""Exit codes, output shapes, and the golden traces."""

import json
import subprocess
import sys

import pytest

from fsj import campaign
from fsj.cli import (
    EXIT_FUEL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEMANTIC,
    TRACE_JSON_HEADER,
    TRACE_TEXT_HEADER,
    main,
)

from conftest import CORPUS, GOLDEN


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def path(name):
    return str(CORPUS / name)


# ------------------------------------------------------------------ check


def test_check_ok(capsys):
    code, out, err = run_cli(["check", path("peano_pull.fsj")], capsys)
    assert code == EXIT_OK
    assert out == f"{path('peano_pull.fsj')}: ok (main: Nat)\n"
    assert err == ""


def test_check_many_reports_worst(capsys):
    code, out, err = run_cli(
        ["check", path("peano_pull.fsj"), path("illtyped/composite_assign.fsj")],
        capsys,
    )
    assert code == EXIT_SEMANTIC
    assert "ok (main: Nat)" in out
    assert "assign-to-composite" in err


def test_check_missing_file(capsys):
    code, out, err = run_cli(["check", "no/such/file.fsj"], capsys)
    assert code == EXIT_PARSE
    assert "no/such/file.fsj" in err


def test_check_parse_error_names_position(tmp_path, capsys):
    bad = tmp_path / "bad.fsj"
    bad.write_text("class A extends Object {\n  ?\n}\nunit\n")
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == EXIT_PARSE
    assert f"{bad}:2:3" in err


def test_check_table_error_is_semantic(tmp_path, capsys):
    bad = tmp_path / "cycle.fsj"
    bad.write_text(
        "class A extends B { A() { super(); } }\n"
        "class B extends A { B() { super(); } }\nunit\n"
    )
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == EXIT_SEMANTIC
    assert "cycle" in err.lower()


# -------------------------------------------------------------------- run


def test_run_prints_summary(capsys):
    code, out, err = run_cli(["run", path("peano_pull.fsj")], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("final=@")
    assert "class=Succ" in lines
    assert "depth=9" in lines
    assert any(l.startswith("objects=") for l in lines)
    assert any(l.startswith("steps=") for l in lines)


def test_run_unit_final(capsys):
    code, out, _ = run_cli(["run", path("unit_main.fsj")], capsys)
    assert code == EXIT_OK
    assert "final=unit" in out
    assert "class=" not in out


def test_run_handlers_listed(capsys):
    code, out, _ = run_cli(["run", path("subscribe_push.fsj")], capsys)
    assert code == EXIT_OK
    assert "handlers=@1.n" in out


def test_run_fuel_exhaustion(capsys):
    code, out, _ = run_cli(["run", path("loop_handler.fsj"), "--fuel", "100"], capsys)
    assert code == EXIT_FUEL
    assert "status=fuel steps=100 pending=@1.n" in out


def test_run_rejects_illtyped(capsys):
    code, out, err = run_cli(["run", path("illtyped/subscribe_plain.fsj")], capsys)
    assert code == EXIT_SEMANTIC
    assert "subscribe-on-non-signal" in err


# ------------------------------------------------------------------ trace


def test_trace_matches_golden_text(capsys):
    code, out, _ = run_cli(["trace", path("subscribe_push.fsj")], capsys)
    assert code == EXIT_OK
    assert out == (GOLDEN / "subscribe_push.trace.txt").read_text()


def test_trace_matches_golden_structured(capsys):
    code, out, _ = run_cli(
        ["trace", "--format", "structured", path("subscribe_push.fsj")], capsys
    )
    assert code == EXIT_OK
    assert out == (GOLDEN / "subscribe_push.trace.jsonl").read_text()


def test_trace_headers(capsys):
    _, out, _ = run_cli(["trace", path("fieldless.fsj")], capsys)
    assert out.splitlines()[0] == TRACE_TEXT_HEADER
    _, out, _ = run_cli(["trace", "--format", "structured", path("fieldless.fsj")], capsys)
    assert out.splitlines()[0] == TRACE_JSON_HEADER


def test_structured_trace_is_json(capsys):
    _, out, _ = run_cli(
        ["trace", "--format", "structured", path("handler_delivery.fsj")], capsys
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0] == {"format": "fsj-trace", "version": 1}
    assert records[-1]["kind"] == "final"
    assert records[-1]["status"] == "terminal"
    kinds = {r["kind"] for r in records[1:-1]}
    assert "step" in kinds and "subscribe" in kinds and "signal-write" in kinds


def test_trace_fuel_exit(capsys):
    code, out, _ = run_cli(["trace", path("loop_handler.fsj"), "--fuel", "40"], capsys)
    assert code == EXIT_FUEL
    assert "status=fuel" in out.splitlines()[-1]


def test_format_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("FSJ_FORMAT", "structured")
    _, out, _ = run_cli(["trace", path("fieldless.fsj")], capsys)
    assert out.splitlines()[0] == TRACE_JSON_HEADER


def test_fuel_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("FSJ_FUEL", "100")
    code, out, _ = run_cli(["run", path("loop_handler.fsj")], capsys)
    assert code == EXIT_FUEL
    assert "steps=100" in out


def test_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("FSJ_FUEL", "100")
    code, out, _ = run_cli(["run", path("loop_handler.fsj"), "--fuel", "60"], capsys)
    assert code == EXIT_FUEL
    assert "steps=60" in out


# ------------------------------------------------------------------- meta


def test_meta_small_campaign(capsys):
    code, out, _ = run_cli(["meta", "--n", "8"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "seed=0 theorem=subject_reduction result=pass" in lines
    assert any(l.startswith("tally theorem=") for l in lines)
    assert lines[-1].startswith("programs=8 violations=0")
    # one line per exercised rule after the tallies, most common first
    last_tally = max(i for i, l in enumerate(lines) if l.startswith("tally "))
    rules = lines[last_tally + 1 : -1]
    want = campaign(8, base_seed=0).rules.most_common()
    assert rules == [f"rule={r} count={n}" for r, n in want]
    assert len(rules) >= 5


def test_meta_env_fallbacks(monkeypatch, capsys):
    monkeypatch.setenv("FSJ_N", "3")
    monkeypatch.setenv("FSJ_SEED", "41")
    code, out, _ = run_cli(["meta"], capsys)
    assert code == EXIT_OK
    assert "seed=41 " in out
    assert "programs=3 " in out


def test_meta_mutated_fails_and_writes_witness(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["meta", "--n", "30", "--mutate", "fields-no-this-subst"], capsys
    )
    assert code == EXIT_SEMANTIC
    assert "violation" in out
    assert "shrunk witness written to" in err
    witnesses = list(tmp_path.glob("fsj-violation-seed*.fsj"))
    assert len(witnesses) == 1
    # the witness is a valid program
    from fsj import build_class_table, check_program, parse_program

    program = parse_program(witnesses[0].read_text())
    assert check_program(build_class_table(program), program).ok


def test_meta_swap_mutation_detected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["meta", "--n", "30", "--mutate", "swap-assign-dispatch"], capsys
    )
    assert code == EXIT_SEMANTIC


# ------------------------------------------------------------ entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fsj.cli", "check", path("fieldless.fsj")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
