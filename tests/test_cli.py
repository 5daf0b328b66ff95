"""Exit codes, output shapes, and the golden traces."""

import json
import random
import re
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


SIGNAL_A = "class A extends Object { signal A a = this; A() { super(); } }\n"


@pytest.mark.parametrize(
    "text",
    [
        "unit; " * 3000 + "unit",
        "(" * 3000 + "unit" + ")" * 3000,
        SIGNAL_A + "new A()" + ".a" * 3000,
    ],
    ids=["chained-units", "nested-parens", "field-chain"],
)
def test_check_too_deep_is_a_parse_error(tmp_path, capsys, text):
    """Each of these once ended in a RecursionError traceback (exit 1)."""
    deep = tmp_path / "deep.fsj"
    deep.write_text(text + "\n")
    code, out, err = run_cli(["check", str(deep)], capsys)
    assert code == EXIT_PARSE
    assert "nested deeper than" in err


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


def test_run_deep_handler_nesting_reaches_fuel(capsys):
    """Each loop_handler push nests one brace deeper; by step 2981 the
    context was deeper than Python's recursion limit allowed the machine."""
    code, out, _ = run_cli(["run", path("loop_handler.fsj"), "--fuel", "5000"], capsys)
    assert code == EXIT_FUEL
    assert "status=fuel steps=5000 pending=@1.n" in out


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


# ------------------------------------------------------------------- fuzz

TOKEN = re.compile(r"//[^\n]*|[A-Za-z_]\w*|\S")
MUTANTS_PER_SOURCE = 10


def mutate(text: str, rng: random.Random) -> str:
    """text with one or two token-level edits: delete or duplicate a token,
    swap two words or two punctuation marks, or wrap the main expression
    (what follows the last `}`) in up to 120 parentheses, past the depth cap."""
    toks = [t for t in TOKEN.findall(text) if not t.startswith("//")]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(toks))
        op = rng.choice(("delete", "duplicate", "swap", "swap", "nest"))
        if op == "delete" and len(toks) > 1:
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        elif op == "swap":
            word = toks[i][0].isalpha()
            j = rng.choice([j for j, t in enumerate(toks) if t[0].isalpha() == word])
            toks[i], toks[j] = toks[j], toks[i]
        else:
            main = max((j + 1 for j, t in enumerate(toks) if t == "}"), default=0)
            d = rng.randint(1, 120)
            toks[main:] = ["(" * d, *toks[main:], ")" * d]
    return " ".join(toks)


FUZZ_SOURCES = sorted(CORPUS.glob("**/*.fsj"))


def test_cli_survives_token_level_mutants(tmp_path, monkeypatch, capsys):
    """Every mutant of every corpus program makes `check`, `run` and `trace`
    exit with a documented code (0-4) and print no traceback."""
    monkeypatch.chdir(tmp_path)
    seen = set()
    for src in FUZZ_SOURCES:
        for k in range(MUTANTS_PER_SOURCE):
            text = mutate(src.read_text(), random.Random(f"{src.name}:{k}"))
            mutant = tmp_path / f"{src.stem}-{k}.fsj"
            mutant.write_text(text)
            for argv in (
                ["check", str(mutant)],
                ["run", str(mutant), "--fuel", "200"],
                ["trace", str(mutant), "--fuel", "200"],
            ):
                try:
                    code, _, err = run_cli(argv, capsys)
                except Exception as exc:
                    raise AssertionError(f"{argv[0]} raised on:\n{text}") from exc
                assert code in range(5), (argv, code, text)
                assert "Traceback" not in err, (argv, text)
                seen.add(code)
    # the mutants reach more than the parser
    assert {EXIT_OK, EXIT_SEMANTIC, EXIT_PARSE, EXIT_FUEL} <= seen
    code, _, err = run_cli(["meta", "--n", "3", "--seed", "7", "--fuel", "200"], capsys)
    assert code in range(5) and "Traceback" not in err


# ------------------------------------------------------------ entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fsj.cli", "check", path("fieldless.fsj")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
