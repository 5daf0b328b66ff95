"""Class table construction and lookup functions."""

import pytest

from conftest import CORPUS
from fsj import build_class_table, is_subtype, parse_program
from fsj.gen import GenConfig, generate_program
from fsj.classtable import (
    CtorMismatchError,
    CycleError,
    DuplicateClassError,
    DuplicateFieldError,
    DuplicateParamError,
    OverloadError,
    UnknownClassError,
    UnknownParentError,
)
from fsj.syntax import OBJECT, MethodDecl, Modifier, Var


def table(text: str):
    return build_class_table(parse_program(text))


HIERARCHY = """
class A extends Object {
  signal A da = this.sa;
  signal A sa;
  A pa;
  A(A sa, A pa) { super(); this.sa = sa; this.pa = pa; }
  A ma(A x) { x }
}

class B extends A {
  signal A db = this.sb;
  A sb;
  B(A sa, A pa, A sb) { super(sa, pa); this.sb = sb; }
  A ma(A x) { this.sb }
  B mb() { this }
}

class C extends B {
  C(A sa, A pa, A sb) { super(sa, pa, sb); }
}

unit
"""


@pytest.fixture(scope="module")
def ct():
    return table(HIERARCHY)


# ------------------------------------------------------------- lookups


def test_contains(ct):
    assert "Object" in ct
    assert "A" in ct and "C" in ct
    assert "Nope" not in ct


def test_table_is_the_name_to_info_mapping(ct):
    assert set(ct) == {"Object", "A", "B", "C"}
    assert ct["C"] is ct.info("C") and ct.get("C") is ct.info("C")
    assert ct.get("Nope") is None
    with pytest.raises(UnknownClassError):
        ct["Nope"]
    with pytest.raises(UnknownClassError):
        ct.info("Nope")


def test_object_is_empty(ct):
    assert ct.source("Object") == ()
    assert ct.composite("Object") == ()
    assert ct.info("Object").supers == {"Object"}


def declared_chain(ct, name: str) -> list[str]:
    """name and its superclasses, nearest first, Object left out."""
    chain = []
    while name != OBJECT:
        chain.append(name)
        name = ct.decl(name).parent
    return chain


def test_ancestry(ct):
    assert declared_chain(ct, "C") + [OBJECT] == ["C", "B", "A", "Object"]
    assert ct.info("C").supers == {"C", "B", "A", "Object"}


def test_fields_are_superclass_first(ct):
    assert [f.name for f in ct.source("B")] == ["sa", "pa", "sb"]
    assert [f.name for f in ct.composite("B")] == ["da", "db"]
    # C declares nothing of its own
    assert [f.name for f in ct.source("C")] == ["sa", "pa", "sb"]


def test_field_order_matches_brute_force(ct):
    """Concatenating own fields down the reversed ancestry is the contract."""
    for cls in ("A", "B", "C"):
        chain = declared_chain(ct, cls)
        expect_src = [f.name for c in reversed(chain) for f in ct.decl(c).sources]
        expect_cmp = [f.name for c in reversed(chain) for f in ct.decl(c).composites]
        assert [f.name for f in ct.source(cls)] == expect_src
        assert [f.name for f in ct.composite(cls)] == expect_cmp


def field_type(ct, cls: str, f: str):
    """f's modifier and declared type in cls, read off its declaration."""
    hit = ct.field(cls, f)
    return None if hit is None else (hit[1].modifier, hit[1].ftype)


def signature(md: MethodDecl) -> tuple[list[str], str]:
    return [p.ptype for p in md.params], md.ret


def test_ftype(ct):
    assert field_type(ct, "C", "sa") == (Modifier.SIGNAL, "A")
    assert field_type(ct, "C", "pa") == (Modifier.PLAIN, "A")
    assert field_type(ct, "C", "da") == (Modifier.SIGNAL, "A")
    assert field_type(ct, "A", "sb") is None
    assert field_type(ct, "A", "nope") is None


def test_mbody_picks_nearest(ct):
    md = ct.find_method("ma", "C")
    assert [p.name for p in md.params] == ["x"]
    # B's override reads this.sb; A's body is just x
    assert "sb" in repr(md.body)
    assert "sb" not in repr(ct.find_method("ma", "A").body)


def test_mtype_inherited(ct):
    assert signature(ct.find_method("mb", "C")) == ([], "B")
    assert signature(ct.find_method("ma", "A")) == (["A"], "A")
    assert ct.find_method("nope", "C") is None
    assert ct.find_method("ma", "Object") is None


def test_unknown_class_raises(ct):
    with pytest.raises(UnknownClassError):
        ct.source("Nope")
    with pytest.raises(UnknownClassError):
        ct.decl("Nope")


def assert_lookups_match_a_walk_over_the_declarations(program):
    ct = build_class_table(program)
    by_name = {d.name: d for d in program.classes}
    names = [*by_name, OBJECT]
    for cls in names:
        chain = []  # cls and its superclasses, nearest first, Object left out
        c = cls
        while c in by_name:
            chain.append(by_name[c])
            c = by_name[c].parent
        source = [sf for d in reversed(chain) for sf in d.sources]
        composite = [cf for d in reversed(chain) for cf in d.composites]
        for f in [fd.name for fd in source + composite] + ["nope"]:
            slot = next((i for i, sf in enumerate(source) if sf.name == f), None)
            decl = next((fd for fd in source + composite if fd.name == f), None)
            hit = ct.field(cls, f)
            if decl is None:
                assert hit is None
            else:
                assert hit[0] == slot and hit[1] is decl
        visible: dict[str, MethodDecl] = {}
        for d in chain:
            for m in d.methods:
                visible.setdefault(m.name, m)
        assert list(ct.info(cls).methods.values()) == list(visible.values())
        for m in [*visible, "nope"]:
            assert ct.find_method(m, cls) is visible.get(m)
        supers = {d.name for d in chain} | {OBJECT}
        for other in names:
            assert is_subtype(ct, cls, other) == (other in supers)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fsj")), ids=lambda p: p.name)
def test_lookups_match_a_walk_over_corpus_declarations(path):
    assert_lookups_match_a_walk_over_the_declarations(parse_program(path.read_text()))


def test_lookups_match_a_walk_over_generated_declarations():
    for seed in range(200):
        assert_lookups_match_a_walk_over_the_declarations(generate_program(GenConfig(seed=seed)))


def test_table_answers_for_the_program_as_it_was_built():
    program = parse_program(HIERARCHY)
    ct = build_class_table(program)
    by_name = {d.name: d for d in program.classes}
    by_name["A"].methods.append(MethodDecl("A", "late", [], Var("this")))
    by_name["C"].methods.append(MethodDecl("A", "ma", [], Var("this")))
    assert ct.find_method("late", "C") is None
    assert ct.find_method("late", "A") is None
    assert signature(ct.find_method("ma", "C")) == (["A"], "A")
    assert [m.name for m in ct.info("C").methods.values()] == ["ma", "mb"]


# -------------------------------------------------------------- errors


def test_duplicate_class():
    with pytest.raises(DuplicateClassError):
        table("class A extends Object { A() { super(); } } class A extends Object { A() { super(); } } unit")


def test_redeclaring_object():
    from fsj import ParseError
    from fsj.syntax import EMPTY, ClassDecl, CtorDecl, Program

    # the word is reserved, so the source form dies in the parser
    with pytest.raises(ParseError):
        table("class Object extends Object { Object() { super(); } } unit")
    # and a hand-built declaration dies in the table
    decl = ClassDecl("Object", "Object", [], [], CtorDecl("Object", [], [], []), [])
    with pytest.raises(DuplicateClassError):
        build_class_table(Program([decl], EMPTY))


def test_unknown_parent():
    with pytest.raises(UnknownParentError):
        table("class A extends Ghost { A() { super(); } } unit")


def test_inheritance_cycle():
    with pytest.raises(CycleError):
        table(
            "class A extends B { A() { super(); } }"
            " class B extends A { B() { super(); } } unit"
        )


def test_duplicate_field_same_class():
    with pytest.raises(DuplicateFieldError):
        table(
            "class A extends Object { A f; A f;"
            " A(A f, A f) { super(); this.f = f; this.f = f; } } unit"
        )


def test_field_hiding_rejected():
    with pytest.raises(DuplicateFieldError):
        table(
            "class A extends Object { A f; A(A f) { super(); this.f = f; } }"
            " class B extends A { A f; B(A f, A f) { super(f); this.f = f; } } unit"
        )


def test_method_overload_rejected():
    with pytest.raises(OverloadError):
        table(
            "class A extends Object { A() { super(); }"
            " A m() { this } A m(A x) { x } } unit"
        )


def test_override_must_keep_signature():
    with pytest.raises(OverloadError):
        table(
            "class A extends Object { A() { super(); } A m() { this } }"
            " class B extends A { B() { super(); } B m() { this } } unit"
        )


def test_override_same_signature_ok():
    ct = table(
        "class A extends Object { A() { super(); } A m() { this } }"
        " class B extends A { B() { super(); } A m() { new A() } } unit"
    )
    assert signature(ct.find_method("m", "B")) == ([], "A")


def test_duplicate_method_param():
    with pytest.raises(DuplicateParamError):
        table("class A extends Object { A() { super(); } A m(A x, A x) { x } } unit")


@pytest.mark.parametrize(
    "ctor",
    [
        "A(A g) { super(); this.f = g; }",  # param name differs from field
        "A(A f) { super(f); this.f = f; }",  # stray super argument
        "A() { super(); }",  # missing field parameter
        "A(A f) { super(); }",  # missing this.f = f
        "A(A f, A f) { super(); this.f = f; this.f = f; }",  # dup param
        "A(A x, A f) { super(); this.f = f; }",  # extra leading param unused
    ],
)
def test_ctor_shape_rejected(ctor):
    with pytest.raises(CtorMismatchError):
        table("class A extends Object { A f; %s } unit" % ctor)


def test_ctor_must_forward_superclass_fields_in_order():
    with pytest.raises(CtorMismatchError):
        table(
            "class A extends Object { A f; A(A f) { super(); this.f = f; } }"
            " class B extends A { A g; B(A g, A f) { super(f); this.g = g; } } unit"
        )


def test_ctor_superclass_first_accepted():
    ct = table(
        "class A extends Object { A f; A(A f) { super(); this.f = f; } }"
        " class B extends A { A g; B(A f, A g) { super(f); this.g = g; } } unit"
    )
    assert [p.name for p in ct.decl("B").ctor.params] == ["f", "g"]
