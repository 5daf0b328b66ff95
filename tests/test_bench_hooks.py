"""The benchmark's per-layer tracing replaces fsj functions by module
attribute name, so a rename or deletion of one of them breaks
`perfbench/run.py --trace 1` without failing any other test."""

import importlib.util

from conftest import ROOT, load_corpus_file

from fsj import classtable, gen, interp, metatheory, syntax, typecheck

PERFBENCH = ROOT / "perfbench"

# every (owner, attribute) that perfbench/run.py's install_layers wraps
WRAPPED = [
    (interp, "step"),
    (metatheory, "step"),
    (interp, "effect"),
    (interp, "handlers_of"),
    (interp, "subst"),
    (metatheory, "audit_run"),
    (metatheory, "check_store_typing"),
    (metatheory, "check_progress"),
    (typecheck, "type_expr"),
    (metatheory, "type_expr"),
    (typecheck, "check_program"),
    (metatheory, "check_program"),
    (classtable, "build_class_table"),
    (metatheory, "build_class_table"),
    (gen, "generate_program"),
    (metatheory, "generate_program"),
    (syntax, "parse_program"),
    (interp, "render_expr"),
    (interp.TraceEvent, "to_line"),
    (interp.TraceEvent, "to_json"),
]


def load(name: str, filename: str):
    """Import one perfbench file under a private module name."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_layers_wraps_each_hook_and_uninstall_restores_it():
    run = load("_fsj_perfbench_run", "run.py")
    tracer = load("_fsj_perfbench_tracer", "tracer.py").Tracer()
    originals = [vars(owner)[attr] for owner, attr in WRAPPED]
    try:
        run.install_layers(tracer)
        installed = {(id(owner), attr) for owner, attr, _ in tracer._installed}
        assert installed == {(id(owner), attr) for owner, attr in WRAPPED}
        assert all(vars(owner)[attr] is not o for (owner, attr), o in zip(WRAPPED, originals))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is o for (owner, attr), o in zip(WRAPPED, originals))


def test_the_step_hook_reads_each_steps_rule_and_store():
    """The `interp.step` hook counts rules off each step's result and reads
    its store, so renaming `MachineState.rule` or dropping
    `MachineState.state` breaks it."""
    run = load("_fsj_perfbench_run", "run.py")
    tracer = load("_fsj_perfbench_tracer", "tracer.py").Tracer()
    ct, program = load_corpus_file("subscribe_push.fsj")
    try:
        run.install_layers(tracer)
        res = interp.run(ct, program.main)
    finally:
        tracer.uninstall()
    rules = {k: n for k, n in tracer.counts.items() if k.startswith("rule.")}
    assert res.status == "terminal"
    assert sum(rules.values()) == res.state.steps == 18
    assert tracer.maxima["store"] == len(res.state.store) == 7
