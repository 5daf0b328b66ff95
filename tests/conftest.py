from pathlib import Path

import pytest

from fsj import build_class_table, check_program, load_corpus, parse_program, scenario_suite
from fsj.metatheory import audit_run

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"


def load_corpus_file(name: str):
    """Parse and table one corpus program, asserting it checks."""
    program = parse_program((CORPUS / name).read_text())
    ct = build_class_table(program)
    report = check_program(ct, program)
    assert report.ok, f"{name}: {report.errors}"
    return ct, program


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def corpus_audits():
    """One audited run per corpus program at fuel 2500."""
    return {
        name: audit_run(ct, program.main, name, fuel=2500)
        for name, program, ct in load_corpus(CORPUS)
    }


@pytest.fixture(scope="session")
def scenario_reports():
    """The curated scenario suite over the corpus, stepped once per program."""
    return scenario_suite(CORPUS)


def run_cli(argv, capsys):
    """Invoke the CLI in-process and return (exit_code, stdout, stderr)."""
    from fsj.cli import main

    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err
