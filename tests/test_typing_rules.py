"""One accepting and one rejecting program per typing rule.

The CASES table is the contract: test_acceptance re-runs it wholesale,
so keep entries self-contained and the labels stable.
"""

import pytest

from fsj import ErrKind, TypingError, build_class_table, check_program, parse_program, type_expr
from fsj.syntax import EMPTY, EffectBrace, Loc

PRELUDE = """
class Nat extends Object {
  Nat() { super(); }
  Nat id(Nat m) { m }
  Unit nop() { unit }
}

class Wide extends Nat {
  Wide() { super(); }
}

class Cell extends Object {
  signal Nat echo = this.src;
  signal Nat src;
  Nat plain;
  Cell(Nat src, Nat plain) { super(); this.src = src; this.plain = plain; }
}
"""

CELL = "let c = new Cell(new Nat(), new Nat()) in "

# label, expected error kind (None accepts), program text after the prelude
CASES = [
    ("var-ok", None, "let x = new Nat() in x"),
    ("var-unbound", ErrKind.UNBOUND_VAR, "ghost"),
    ("field-ok", None, CELL + "c.src"),
    ("field-composite-ok", None, CELL + "c.echo"),
    ("field-unknown", ErrKind.UNKNOWN_FIELD, CELL + "c.nope"),
    ("invoke-ok-subtype-arg", None, "new Nat().id(new Wide())"),
    ("invoke-unknown", ErrKind.UNKNOWN_METHOD, "new Nat().nope()"),
    ("invoke-arity", ErrKind.ARG_ARITY, "new Nat().id()"),
    ("invoke-arg-class", ErrKind.ARG_SUBTYPE, CELL + "new Nat().id(c)"),
    ("invoke-arg-unit", ErrKind.UNIT_MISUSE, "new Nat().id(unit)"),
    ("new-ok", None, "new Cell(new Nat(), new Nat())"),
    ("new-unknown-class", ErrKind.UNKNOWN_CLASS_TYPE, "new Ghost()"),
    ("new-arity", ErrKind.ARG_ARITY, "new Cell(new Nat())"),
    ("new-arg-class", ErrKind.ARG_SUBTYPE, CELL + "new Cell(c, new Nat())"),
    ("assign-ok", None, CELL + "c.src = new Wide()"),
    ("assign-plain-ok", None, CELL + "c.plain = new Nat()"),
    ("assign-composite", ErrKind.ASSIGN_TO_COMPOSITE, CELL + "c.echo = new Nat()"),
    ("assign-mismatch", ErrKind.ASSIGN_TYPE_MISMATCH, CELL + "c.plain = c"),
    ("assign-unknown-field", ErrKind.UNKNOWN_FIELD, CELL + "c.nope = new Nat()"),
    ("seq-ok", None, "unit; new Nat()"),
    ("seq-left-not-unit", ErrKind.SEQ_LEFT_NOT_UNIT, "new Nat(); unit"),
    ("subscribe-source-ok", None, CELL + "c.src.subscribe(c.plain = c.src)"),
    ("subscribe-composite-ok", None, CELL + "c.echo.subscribe(unit)"),
    ("subscribe-plain", ErrKind.SUBSCRIBE_ON_NON_SIGNAL, CELL + "c.plain.subscribe(unit)"),
    ("subscribe-handler", ErrKind.SUBSCRIBE_HANDLER_NOT_UNIT, CELL + "c.src.subscribe(new Nat())"),
    ("let-ok", None, "let x = new Wide() in x.id(x)"),
    ("let-bound-unit", ErrKind.UNIT_MISUSE, "let x = unit in x"),
    ("unit-ok", None, "unit"),
    ("receiver-unit", ErrKind.UNIT_MISUSE, "unit.id(new Nat())"),
    # an argument or assigned value is accepted on the spot only when its
    # type is exactly the declared class it must fit; these go the long way
    ("new-ok-subtype-arg", None, "new Cell(new Wide(), new Nat())"),
    ("new-arg-unit", ErrKind.UNIT_MISUSE, "new Cell(unit, new Nat())"),
    ("assign-value-unit", ErrKind.UNIT_MISUSE, CELL + "c.plain = unit"),
    (
        "new-arg-field-type-unknown",
        ErrKind.UNKNOWN_CLASS_TYPE,
        "__CLASS__ class Bad extends Object { Ghost g; Bad(Ghost g) { super(); this.g = g; } }"
        " new Bad(new Nat())",
    ),
    (
        "invoke-arg-param-type-unknown",
        ErrKind.UNKNOWN_CLASS_TYPE,
        "__CLASS__ class Bad extends Object { Bad() { super(); } Nat m(Ghost x) { new Nat() } }"
        " new Bad().m(new Nat())",
    ),
    (
        "assign-value-field-type-unknown",
        ErrKind.UNKNOWN_CLASS_TYPE,
        "__CLASS__ class Bad extends Object { Ghost g; Bad(Ghost g) { super(); this.g = g; }"
        " Unit set() { this.g = new Nat() } } unit",
    ),
    # declaration-level rules
    (
        "composite-needs-signal",
        ErrKind.BAD_COMPOSITE_MODIFIER,
        "__CLASS__ class Bad extends Object { Nat e = new Nat(); Bad() { super(); } } unit",
    ),
    (
        "init-shape",
        ErrKind.BAD_INITIALIZER,
        "__CLASS__ class Bad extends Object { signal Nat e = (unit; new Nat()); Bad() { super(); } } unit",
    ),
    (
        "init-subtype",
        ErrKind.BAD_INITIALIZER,
        "__CLASS__ class Bad extends Object { signal Wide e = new Nat(); Bad() { super(); } } unit",
    ),
    (
        "init-inner-error",
        ErrKind.BAD_INITIALIZER,
        "__CLASS__ class Bad extends Object { signal Nat e = this.nope; Bad() { super(); } } unit",
    ),
    (
        "ctor-forwards-inherited",
        ErrKind.CTOR_SHAPE,
        "__CLASS__ class Bad extends Cell { Bad(Wide src, Nat plain) { super(src, plain); } } unit",
    ),
    (
        "method-body-subtype-ok",
        None,
        "__CLASS__ class Ok extends Object { Ok() { super(); } Nat m() { new Wide() } } unit",
    ),
    (
        "method-body-type",
        ErrKind.METHOD_BODY_TYPE,
        "__CLASS__ class Bad extends Object { Bad() { super(); } Nat m() { unit } } unit",
    ),
    (
        "method-body-inner-error",
        ErrKind.UNBOUND_VAR,
        "__CLASS__ class Bad extends Object { Bad() { super(); } Nat m() { ghost } } unit",
    ),
    (
        "method-body-type-unknown",
        ErrKind.UNKNOWN_CLASS_TYPE,
        "__CLASS__ class Bad extends Object { Bad() { super(); } Ghost get() { unit }"
        " Bad m() { this.get() } } unit",
    ),
    (
        "field-type-unknown",
        ErrKind.UNKNOWN_CLASS_TYPE,
        "__CLASS__ class Bad extends Object { Ghost g; Bad(Ghost g) { super(); this.g = g; } } unit",
    ),
    (
        "param-type-unknown",
        ErrKind.UNKNOWN_CLASS_TYPE,
        "__CLASS__ class Bad extends Object { Bad() { super(); } Nat m(Ghost x) { new Nat() } } unit",
    ),
    (
        "unit-return-ok",
        None,
        "__CLASS__ class Ok extends Object { Nat v; Ok(Nat v) { super(); this.v = v; } Unit m() { this.v = new Nat() } } unit",
    ),
]


def case_text(source: str) -> str:
    """The whole program of one table entry: the prelude, then the entry."""
    return PRELUDE + source.removeprefix("__CLASS__")


def run_case(source: str):
    """Type check one table entry; returns the list of error kinds."""
    program = parse_program(case_text(source))
    ct = build_class_table(program)
    report = check_program(ct, program)
    return [e.kind for e in report.errors]


@pytest.mark.parametrize("label,kind,source", CASES, ids=[c[0] for c in CASES])
def test_typing_case(label, kind, source):
    kinds = run_case(source)
    if kind is None:
        assert kinds == []
    else:
        assert kind in kinds


# Location and pending-effect expressions exist only at runtime, so their
# typing rules are driven through type_expr directly.


def fixture_table():
    return build_class_table(parse_program(PRELUDE + "unit"))


def test_location_rule():
    ct = fixture_table()
    assert type_expr(ct, {}, {0: "Nat"}, Loc(0)) == "Nat"
    with pytest.raises(TypingError) as exc:
        type_expr(ct, {}, {}, Loc(0))
    assert exc.value.kind is ErrKind.UNKNOWN_LOCATION


def test_pending_effect_rule():
    ct = fixture_table()
    assert type_expr(ct, {}, {0: "Cell"}, EffectBrace(EMPTY, (0, "src"))) == "Unit"
    with pytest.raises(TypingError) as exc:
        type_expr(ct, {}, {0: "Cell"}, EffectBrace(Loc(0), (0, "src")))
    assert exc.value.kind is ErrKind.BRACE_BODY_NOT_UNIT


def test_unit_fields_unrepresentable():
    """A member starting with Unit is always a method, so a Unit field
    cannot even be written down."""
    from fsj import ParseError

    with pytest.raises(ParseError):
        parse_program(
            PRELUDE
            + "class Bad extends Object { Unit u; Bad(Unit u) { super(); this.u = u; } } unit"
        )


def test_main_type_reported():
    program = parse_program(PRELUDE + "new Wide()")
    ct = build_class_table(program)
    report = check_program(ct, program)
    assert report.ok
    assert report.main_type == "Wide"
