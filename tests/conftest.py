import runpy
from pathlib import Path

import pytest
from hypothesis import settings

from fsj import (
    build_class_table,
    campaign,
    check_program,
    load_corpus,
    parse_program,
    run,
    scenario_suite,
)
from fsj.interp import MUTANTS, TraceObserver
from fsj.metatheory import audit_run

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"

# Every @given test draws the same examples on every run, so a run's
# coverage and duration do not change from one run to the next.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


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
def regen():
    """The namespace of scripts/regen_golden.py, the one writer of every
    file under tests/golden/."""
    return runpy.run_path(str(ROOT / "scripts" / "regen_golden.py"))


@pytest.fixture(scope="session")
def corpus_audits():
    """One audited run per corpus program at fuel 2500."""
    return {
        name: audit_run(ct, program.main, name, fuel=2500)
        for name, program, ct in load_corpus(CORPUS)
    }


@pytest.fixture(scope="session")
def big_campaign():
    """1000 fresh seeded programs, audited once and shared by criteria."""
    return campaign(1000, base_seed=0)


@pytest.fixture(scope="session")
def mutated_campaigns():
    """Seeds 0-119 on each deliberately broken machine, keyed by mutation."""
    return {
        mut: campaign(120, base_seed=0, mutations=frozenset({mut}))
        for mut in sorted(MUTANTS)
    }


@pytest.fixture(scope="session")
def scenario_reports():
    """The curated scenario suite over the corpus, stepped once per program."""
    return scenario_suite(CORPUS)


def traced_run(ct, main, *args, observers=(), **kwargs):
    """`run` with a `TraceObserver` collecting the trace as its first
    observer: (result, events)."""
    events = []
    res = run(ct, main, *args, observers=[TraceObserver(ct, events.append), *observers], **kwargs)
    return res, events
