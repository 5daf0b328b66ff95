"""Checker behaviors that sit outside the per-rule table."""

import json

import pytest

from fsj import typecheck
from fsj import (
    ErrKind,
    build_class_table,
    check_init,
    check_program,
    is_subtype,
    parse_expr,
    parse_program,
    type_expr,
)
from fsj.syntax import EMPTY, Assign, EffectBrace, FieldAccess, Loc, Seq, iter_subexprs
from conftest import CORPUS, GOLDEN, load_corpus_file

HIERARCHY = """
class A extends Object { A() { super(); } }
class B extends A { B() { super(); } }
class C extends B { C() { super(); } }
unit
"""


@pytest.fixture(scope="module")
def ct():
    return build_class_table(parse_program(HIERARCHY))


def test_subtype_reflexive(ct):
    for name in ("Object", "A", "B", "C", "Unit"):
        assert is_subtype(ct, name, name)


def test_subtype_transitive(ct):
    assert is_subtype(ct, "C", "A")
    assert is_subtype(ct, "C", "Object")
    assert not is_subtype(ct, "A", "C")
    assert not is_subtype(ct, "A", "B")


def test_unit_unrelated_to_classes(ct):
    assert not is_subtype(ct, "Unit", "Object")
    assert not is_subtype(ct, "A", "Unit")


def test_subtype_unknown_sub_raises(ct):
    from fsj import TypingError

    with pytest.raises(TypingError) as exc:
        is_subtype(ct, "Ghost", "Object")
    assert exc.value.kind is ErrKind.UNKNOWN_CLASS_TYPE


@pytest.mark.parametrize(
    "text,ok",
    [
        ("x", True),
        ("this.f", True),
        ("this.f.g", True),
        ("x.m(y, new A())", True),
        ("new A(this.f, x.m())", True),
        ("unit", False),
        ("unit; x", False),
        ("x.f = y", False),
        ("x.f.subscribe(unit)", False),
        ("let y = x in y", False),
        ("x.m(y.f = z)", False),  # write smuggled into an argument
        ("new A(let y = x in y)", False),
    ],
)
def test_check_init_shapes(text, ok):
    assert check_init(parse_expr(text)) is ok


def test_corpus_all_well_typed():
    for path in sorted(CORPUS.glob("*.fsj")):
        load_corpus_file(path.name)


ILLTYPED_KINDS = {
    "composite_assign.fsj": ErrKind.ASSIGN_TO_COMPOSITE,
    "plain_composite.fsj": ErrKind.BAD_COMPOSITE_MODIFIER,
    "subscribe_plain.fsj": ErrKind.SUBSCRIBE_ON_NON_SIGNAL,
    "init_seq.fsj": ErrKind.BAD_INITIALIZER,
    "init_subscribe.fsj": ErrKind.BAD_INITIALIZER,
}


def test_illtyped_directory_is_covered():
    names = {p.name for p in (CORPUS / "illtyped").glob("*.fsj")}
    assert names == set(ILLTYPED_KINDS)


@pytest.mark.parametrize("name,kind", sorted(ILLTYPED_KINDS.items()))
def test_illtyped_corpus_rejected(name, kind):
    program = parse_program((CORPUS / "illtyped" / name).read_text())
    ct = build_class_table(program)
    report = check_program(ct, program)
    assert not report.ok
    assert kind in [e.kind for e in report.errors]


def test_errors_carry_spans():
    program = parse_program(
        HIERARCHY.replace("unit", "") + "let x = new A() in x.nope"
    )
    ct = build_class_table(program)
    report = check_program(ct, program)
    assert not report.ok
    err = report.errors[0]
    assert err.span is not None
    assert err.span.line >= 1


def test_check_collects_multiple_errors():
    program = parse_program(
        """
        class A extends Object {
          A good;
          Ghost bad;
          A(A good, Ghost bad) { super(); this.good = good; this.bad = bad; }
          A m() { unit }
        }
        ghost
        """
    )
    ct = build_class_table(program)
    report = check_program(ct, program)
    kinds = [e.kind for e in report.errors]
    assert ErrKind.UNKNOWN_CLASS_TYPE in kinds
    assert ErrKind.METHOD_BODY_TYPE in kinds
    assert ErrKind.UNBOUND_VAR in kinds
    assert len(kinds) >= 3


def test_subtyped_main_against_field():
    # value of a subtype flows into a supertyped source field
    program = parse_program(
        """
        class A extends Object { A() { super(); } }
        class B extends A { B() { super(); } }
        class Holder extends Object {
          A slot;
          Holder(A slot) { super(); this.slot = slot; }
        }
        let h = new Holder(new B()) in
        (h.slot = new B(); h.slot)
        """
    )
    ct = build_class_table(program)
    report = check_program(ct, program)
    assert report.ok
    assert report.main_type == "A"


def test_type_expr_recurses_through_its_module_attribute(monkeypatch):
    """perfbench times `typecheck.type_expr` by wrapping that attribute, so
    typing a term must call it there once per node."""
    program = parse_program(
        """
        class Cell extends Object {
          signal Object n;
          Cell(Object n) { super(); this.n = n; }
          Object get() { this.n }
        }
        let c = new Cell(new Object()) in (c.n.subscribe(unit); c.n = c.get(); c.n)
        """
    )
    ct = build_class_table(program)
    at = FieldAccess(Loc(0), "n")
    term = Seq(EffectBrace(EMPTY, (0, "n")), Seq(Assign(Loc(0), "n", at), program.main))
    kinds = {type(s).__name__ for s in iter_subexprs(term)}
    assert len(kinds) == 11  # every node type
    calls = []
    real = typecheck.type_expr

    def counting(ct, env, store_typing, e):
        calls.append(e)
        return real(ct, env, store_typing, e)

    monkeypatch.setattr(typecheck, "type_expr", counting)
    assert typecheck.type_expr(ct, {}, {0: "Cell"}, term) == "Object"
    assert calls == list(iter_subexprs(term))


def test_checker_errors_match_golden(regen):
    """Every typing-table row and every corpus program, ill-typed ones
    included, reports the recorded errors (scripts/regen_golden.py):
    each error's kind, message and span, in order, and the main type."""
    assert regen["checker_errors"]() == json.loads((GOLDEN / "checker_errors.json").read_text())
