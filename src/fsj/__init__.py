"""A reactive-field core language: checker, stepper, and soundness harness.

Programs are small class hierarchies whose fields come in two kinds:
uninitialized source fields that hold state and can be written, and
initialized fields whose value is recomputed from an expression every
time they are read.  Fields marked `signal` additionally accept
subscribed handlers, which a write schedules for every initialized
field downstream of the written one.
"""

from .classtable import ClassTable, ClassTableError, build_class_table
from .gen import GenConfig, generate_program, shrink
from .interp import (
    DEFAULT_FUEL,
    MachineState,
    RunResult,
    StuckError,
    chain_depth,
    effect,
    handlers_of,
    run,
    step,
)
from .metatheory import (
    audit_run,
    campaign,
    check_progress,
    check_store_typing,
    load_corpus,
    scenario_suite,
    shrink_campaign_failure,
)
from .syntax import (
    ParseError,
    Program,
    parse_expr,
    parse_program,
    render_expr,
    render_program,
    subst,
)
from .typecheck import (
    CheckReport,
    ErrKind,
    TypingError,
    check_class,
    check_init,
    check_program,
    is_subtype,
    type_expr,
)

__all__ = [
    "ClassTable",
    "ClassTableError",
    "CheckReport",
    "DEFAULT_FUEL",
    "ErrKind",
    "GenConfig",
    "MachineState",
    "ParseError",
    "Program",
    "RunResult",
    "StuckError",
    "TypingError",
    "audit_run",
    "build_class_table",
    "campaign",
    "chain_depth",
    "check_class",
    "check_init",
    "check_program",
    "check_progress",
    "check_store_typing",
    "effect",
    "generate_program",
    "handlers_of",
    "is_subtype",
    "load_corpus",
    "parse_expr",
    "parse_program",
    "render_expr",
    "render_program",
    "run",
    "scenario_suite",
    "shrink",
    "shrink_campaign_failure",
    "step",
    "subst",
    "type_expr",
]
