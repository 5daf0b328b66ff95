"""Exit codes, output shapes, and the golden traces."""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import re
import subprocess
import sys

import pytest

from fsj import campaign, interp, run
from fsj.cli import (
    EXIT_FUEL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEMANTIC,
    EXIT_STUCK,
    TRACE_JSON_HEADER,
    TRACE_TEXT_HEADER,
    main,
)
from fsj.interp import MUTANTS, StuckError
from fsj.syntax import render_expr

from conftest import CORPUS, GOLDEN, ROOT, load_corpus_file


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


CLASS_A = "class A extends Object { A() { super(); } }\n"

# programs the parser rejects, each with the position and message it names
PARSE_ERRORS = {
    "duplicate-constructor": (
        "class A extends Object {\n  A() { super(); }\n  A() { super(); }\n}\nunit\n",
        "3:3: duplicate constructor in class A",
    ),
    "missing-constructor": (
        "class A extends Object {\n  A self() { this }\n}\nunit\n",
        "3:1: class A has no constructor",
    ),
    "assign-to-non-field": (
        CLASS_A + "let a = new A() in a = a\n",
        "2:22: assignment target must be a field access",
    ),
    "subscribe-on-non-field": (
        CLASS_A + "let a = new A() in a.subscribe(unit)\n",
        "2:21: subscribe must follow a field access",
    ),
}


@pytest.mark.parametrize("text, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_check_names_each_parse_error_at_its_position(tmp_path, capsys, text, message):
    src = tmp_path / "bad.fsj"
    src.write_text(text)
    assert run_cli(["check", str(src)], capsys) == (EXIT_PARSE, "", f"{src}:{message}\n")


@pytest.mark.parametrize("command", ["check", "run", "trace"])
def test_undecodable_input_is_an_io_error(tmp_path, capsys, command):
    bad = tmp_path / "bytes.fsj"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli([command, str(bad)], capsys)
    assert code == EXIT_PARSE
    assert err.startswith(f"{bad}: ") and "decode" in err
    assert "Traceback" not in err


def test_check_table_error_is_semantic(tmp_path, capsys):
    bad = tmp_path / "cycle.fsj"
    bad.write_text(
        "class A extends B { A() { super(); } }\n"
        "class B extends A { B() { super(); } }\nunit\n"
    )
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == EXIT_SEMANTIC
    assert "cycle" in err.lower()


def test_check_duplicate_class_is_semantic(tmp_path, capsys):
    bad = tmp_path / "twice.fsj"
    bad.write_text("class A extends Object { A() { super(); } }\n" * 2 + "unit\n")
    code, out, err = run_cli(["check", str(bad)], capsys)
    assert code == EXIT_SEMANTIC
    assert err == f"{bad}: duplicate class A\n"


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


def unknown_class_program(main="unit", member=""):
    """Class C whose method get returns the undeclared class Foo."""
    head = "class C extends Object {\n  C() { super(); }\n  Foo get() { unit }\n"
    return f"{head}{member}}}\n{main}\n"


# each uses a value of the undeclared type Foo as a receiver
FOO_RECEIVERS = {
    "read": "new C().get().y",
    "write": "new C().get().y = new C()",
    "subscribe": "new C().get().y.subscribe(unit)",
    "call": "new C().get().m()",
}
UNKNOWN_CLASS_PROGRAMS = {
    **{f"main-{k}": unknown_class_program(main=e) for k, e in FOO_RECEIVERS.items()},
    **{
        f"method-{k}": unknown_class_program(member=f"  Unit h() {{ {e} }}\n")
        for k, e in FOO_RECEIVERS.items()
    },
    # an initializer may not write or subscribe, which check_init rejects before typing
    **{
        f"initializer-{k}": unknown_class_program(member=f"  signal C z = {FOO_RECEIVERS[k]};\n")
        for k in ("read", "call")
    },
}


@pytest.mark.parametrize("text", UNKNOWN_CLASS_PROGRAMS.values(), ids=UNKNOWN_CLASS_PROGRAMS)
def test_unknown_class_receiver_is_a_type_error(tmp_path, capsys, text):
    """Each of these once ended in an UnknownClassError traceback (exit 1)."""
    src = tmp_path / "unknown.fsj"
    src.write_text(text)
    declared = f"{src}:3:3: return type of C.get has unknown type Foo [unknown-class-type]"
    used = re.escape(str(src)) + r":\d+:\d+: .*unknown class Foo \[(unknown-class-type|bad-initializer)\]"
    for command in ("check", "run", "trace"):
        code, out, err = run_cli([command, str(src)], capsys)
        assert code == EXIT_SEMANTIC and out == ""
        lines = err.splitlines()
        assert declared in lines and len(lines) == 2
        assert re.fullmatch(used, (set(lines) - {declared}).pop())


def test_undeclared_field_type_error_names_the_argument(tmp_path, capsys):
    """Checking an argument against an undeclared field type reports it at
    the argument, where the error once had no position."""
    src = tmp_path / "undeclared.fsj"
    src.write_text(
        "class D extends Object { D() { super(); } }\n"
        "class C extends Object { Foo f; C(Foo f) { super(); this.f = f; } }\n"
        "new C(new D())\n"
    )
    code, out, err = run_cli(["check", str(src)], capsys)
    assert code == EXIT_SEMANTIC and out == ""
    assert err.splitlines() == [
        f"{src}:2:26: field C.f has unknown type Foo [unknown-class-type]",
        f"{src}:2:33: constructor parameter f has unknown type Foo [unknown-class-type]",
        f"{src}:3:7: unknown class Foo [unknown-class-type]",
    ]


def test_deep_hierarchy_declared_child_first(tmp_path, capsys):
    """A class declared before a chain of 1200 ancestors once ended in a
    RecursionError traceback (exit 1) when the class table was built."""
    src = tmp_path / "deep_chain.fsj"
    src.write_text(
        "".join(
            f"class C{i} extends {f'C{i - 1}' if i else 'Object'} {{ C{i}() {{ super(); }} }}\n"
            for i in reversed(range(1200))
        )
        + "new C1199()\n"
    )
    for command in ("check", "run", "trace"):
        code, out, err = run_cli([command, str(src)], capsys)
        assert (code, err) == (EXIT_OK, ""), command


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


def test_run_reports_a_stuck_machine(monkeypatch, capsys):
    """A machine that wedges on a well-typed program prints the stuck
    expression, blames itself on stderr, and exits 4."""
    real = interp.step

    def wedged_at_3(ct, st):
        if st.steps == 3:
            raise StuckError(st)
        return real(ct, st)

    ct, program = load_corpus_file("peano_pull.fsj")
    expr = render_expr(run(ct, program.main, fuel=3).state.expr)
    monkeypatch.setattr(interp, "step", wedged_at_3)
    code, out, err = run_cli(["run", path("peano_pull.fsj")], capsys)
    assert code == EXIT_STUCK
    assert out == f"status=stuck steps=3\nexpr={expr}\n"
    assert err == (
        "stuck on a well-typed program: this is a soundness bug in the machine,"
        " not in the program\n"
    )


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


@pytest.mark.parametrize("fmt, digest", [
    ("text", "d07eabe4ae5f70178588676058aab7d8741cd613af0b987b55776b89448f5158"),
    ("structured", "b3aec9c71cec0a83552b9b85ebc8abdd35c68296ebaa28fc22e821ad893c8c84"),
], ids=["text", "structured"])
def test_deep_trace_output_is_pinned(tmp_path, fmt, digest):
    """A 5000-step trace whose context grows to 1667 frames deep."""
    out = tmp_path / "trace"
    with out.open("w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = main(["trace", path("loop_handler.fsj"), "--fuel", "5000", "--format", fmt])
    assert code == EXIT_FUEL
    with out.open("rb") as fh:
        assert hashlib.file_digest(fh, "sha256").hexdigest() == digest


def test_trace_streams_each_event_as_the_machine_takes_it(monkeypatch):
    """`fsj trace` prints a step's events before it takes the next step, so
    a reader that stops at the first event line stops the machine too."""

    class FirstEvent(Exception):
        pass

    class StopAtFirstEvent(io.StringIO):
        def write(self, text):
            if text.startswith("step="):
                raise FirstEvent(text)
            return super().write(text)

    taken = []
    real = interp.step

    def counting(ct, st):
        taken.append(st.steps)
        return real(ct, st)

    monkeypatch.setattr(interp, "step", counting)
    monkeypatch.setattr(sys, "stdout", StopAtFirstEvent())
    with pytest.raises(FirstEvent, match="^step=0 rule=R-NEW"):
        main(["trace", path("loop_handler.fsj"), "--fuel", "3000"])
    assert len(taken) <= 3
    assert sys.stdout.getvalue() == TRACE_TEXT_HEADER + "\n"


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


def usage_error(argv, capsys):
    """The exit code and last stderr line of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "var, value, argv, flag",
    [
        ("FSJ_FUEL", "abc", ["run", path("fieldless.fsj")], "--fuel"),
        ("FSJ_FUEL", "abc", ["trace", path("fieldless.fsj")], "--fuel"),
        ("FSJ_FORMAT", "bogus", ["trace", path("fieldless.fsj")], "--format"),
        ("FSJ_SEED", "x", ["meta"], "--seed"),
        ("FSJ_N", "abc", ["meta"], "--n"),
        ("FSJ_FUEL", "1.5", ["meta"], "--fuel"),
    ],
    ids=["run-fuel", "trace-fuel", "trace-format", "meta-seed", "meta-n", "meta-fuel"],
)
def test_bad_env_value_fails_like_the_flag(monkeypatch, capsys, var, value, argv, flag):
    by_flag = usage_error(argv + [flag, value], capsys)
    assert by_flag[0] == EXIT_PARSE
    monkeypatch.setenv(var, value)
    assert usage_error(argv, capsys) == by_flag


def test_bad_env_value_is_not_read_when_the_flag_wins_or_is_absent(monkeypatch, capsys):
    monkeypatch.setenv("FSJ_FUEL", "abc")
    monkeypatch.setenv("FSJ_FORMAT", "bogus")
    code, out, _ = run_cli(["run", path("loop_handler.fsj"), "--fuel", "60"], capsys)
    assert code == EXIT_FUEL and "steps=60" in out
    code, out, _ = run_cli(["check", path("fieldless.fsj")], capsys)
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "env, argv",
    [
        ({}, ["meta", "--n", "-2"]),
        ({}, ["meta", "--fuel", "-1"]),
        ({}, ["run", path("fieldless.fsj"), "--fuel", "-1"]),
        ({}, ["trace", path("fieldless.fsj"), "--fuel", "-1"]),
        ({"FSJ_N": "-2"}, ["meta"]),
        ({"FSJ_FUEL": "-1"}, ["run", path("fieldless.fsj")]),
    ],
    ids=["meta-n", "meta-fuel", "run-fuel", "trace-fuel", "env-n", "env-fuel"],
)
def test_negative_count_is_a_usage_error(monkeypatch, capsys, env, argv):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, err = usage_error(argv, capsys)
    assert code == EXIT_PARSE
    assert "invalid count value: '-" in err


def test_zero_fuel_is_valid(capsys):
    code, out, _ = run_cli(["run", path("loop_handler.fsj"), "--fuel", "0"], capsys)
    assert code == EXIT_FUEL
    assert "steps=0" in out


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


def test_meta_reports_a_witness_it_cannot_write(tmp_path, monkeypatch, capsys):
    """A witness path that is a directory once ended in an IsADirectoryError traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fsj-violation-seed0.fsj").mkdir()
    code, out, err = run_cli(
        ["meta", "--n", "30", "--mutate", "fields-no-this-subst"], capsys
    )
    assert code == EXIT_SEMANTIC
    lines = err.splitlines()
    assert lines[0].startswith("violation seed=0 ")
    assert lines[1].startswith("fsj-violation-seed0.fsj: ") and "directory" in lines[1]
    assert len(lines) == 2


def test_meta_reports_a_generation_crash_it_cannot_shrink(tmp_path, monkeypatch, capsys):
    """A first violation that is a crash in generation leaves no program
    to shrink; it once escaped `fsj meta` as a traceback."""
    from fsj import metatheory

    def explode(cfg):
        raise RuntimeError("boom")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(metatheory, "generate_program", explode)
    code, out, err = run_cli(["meta", "--n", "2"], capsys)
    assert code == EXIT_SEMANTIC
    assert out.splitlines()[-1].startswith("programs=2 violations=2 ")
    assert err.splitlines() == [
        "violation seed=0 theorem=no_crash"
        " detail=RuntimeError in generation of seed 0: boom",
        "seed 0 has no program to shrink: RuntimeError: boom",
    ]
    assert list(tmp_path.iterdir()) == []


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


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "fsj", "check", path("seq_cat.fsj")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == f"{path('seq_cat.fsj')}: ok (main: Ping)\n"


def test_closed_stdout_exits_without_a_traceback():
    """A reader that stops after one line closes the pipe while the trace,
    larger than the pipe buffer, is still being written."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "fsj.cli", "trace", path("loop_handler.fsj"), "--fuel", "500"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == (TRACE_TEXT_HEADER + "\n").encode()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == EXIT_PARSE
    assert "Traceback" not in err and "BrokenPipe" not in err


# ---------------------------------------------------------------- scripts


def load_file(monkeypatch, name: str, path):
    """Import one file under a private module name, listed in sys.modules
    (as dataclasses need) for this test only."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_machine_frontend_operations_pass_their_checks(monkeypatch):
    bench = load_file(monkeypatch, "_fsj_bench_machine", ROOT / "scripts" / "bench_machine.py")
    workloads = load_file(monkeypatch, "_fsj_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    ops = bench.frontend(workloads, ROOT)
    sizes = bench.CHAIN_SIZES
    assert [op.size for op in ops] == [None, *[n for n in sizes for _ in "pb"]]
    for op in ops:
        assert op.check(op.run()) == (0, None), op.key


def test_bench_machine_mutated_operations_pass_their_checks(monkeypatch):
    bench = load_file(monkeypatch, "_fsj_bench_machine", ROOT / "scripts" / "bench_machine.py")
    workloads = load_file(monkeypatch, "_fsj_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    ops = bench.mutated(workloads, ROOT)
    assert [op.key for op in ops] == sorted(MUTANTS)
    for op in ops:
        steps, err = op.check(op.run())
        assert steps > 0 and err is None, (op.key, err)


def test_bench_machine_resubscribe_operations_pass_their_checks(monkeypatch):
    """A handler that subscribes again before it writes nests every write
    inside the last one's brace; at fuel 2000 the program still runs to
    fuel, plain and audited, with no violation."""
    bench = load_file(monkeypatch, "_fsj_bench_machine", ROOT / "scripts" / "bench_machine.py")
    workloads = load_file(monkeypatch, "_fsj_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    ops = bench.resubscribe(workloads, ROOT, fuels=(2000,), audit_fuels=(2000,))
    assert [op.key for op in ops] == ["plain fuel=2000", "audited fuel=2000"]
    for op in ops:
        assert op.check(op.run()) == (2000, None), op.key


def test_bench_machine_timed_operations_pass_their_checks(monkeypatch):
    """Each operation of the `machine`, `long_loop`, `audited` and `traced`
    families that `operations()` builds, run once untimed, passes the
    check the script times it with."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    load_file(monkeypatch, "workloads", ROOT / "perfbench" / "workloads.py")
    bench = load_file(monkeypatch, "_fsj_bench_machine", ROOT / "scripts" / "bench_machine.py")
    machine = ("deep_handler", "peano_push")
    ops = [
        op for op in bench.operations(ROOT)
        if op.family in (*machine, "long_loop", "audited", "traced")
    ]
    families = [op.family for op in ops]
    assert sum(family in machine for family in families) == 6
    assert (families.count("long_loop"), families.count("audited")) == (1, len(bench.AUDIT_FUELS))
    assert [op.size for op in ops if op.family == "traced"][-3:] == list(bench.TRACE_FUELS)
    for op in ops:
        _, err = op.check(op.run())
        assert err is None, (op.family, op.key, err)
