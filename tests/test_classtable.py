"""Class table construction and lookup functions."""

import random

import pytest

from conftest import CORPUS
from fsj import build_class_table, is_subtype, parse_program
from fsj.gen import GenConfig, _rebuild_ctors, generate_program
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
from fsj.interp import StoredObject, effect
from fsj.syntax import EMPTY, OBJECT, ClassDecl, MethodDecl, Modifier, Program, SourceField, Var


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


@pytest.fixture(scope="module")
def decls():
    """HIERARCHY's class declarations by name."""
    return {d.name: d for d in parse_program(HIERARCHY).classes}


# ------------------------------------------------------------- lookups


def test_contains(ct):
    assert "Object" in ct
    assert "A" in ct and "C" in ct
    assert "Nope" not in ct


def test_table_is_the_name_to_info_mapping(ct):
    assert set(ct) == {"Object", "A", "B", "C"}
    assert ct.get("C") is ct["C"]
    assert ct.get("Nope") is None
    with pytest.raises(UnknownClassError):
        ct["Nope"]


def test_object_is_empty(ct):
    assert ct["Object"].source == ()
    assert ct["Object"].composite == ()
    assert {c for c in ct if is_subtype(ct, "Object", c)} == {"Object"}


def declared_chain(decls, name: str) -> list[str]:
    """name and its superclasses, nearest first, Object left out."""
    chain = []
    while name != OBJECT:
        chain.append(name)
        name = decls[name].parent
    return chain


def test_ancestry(ct, decls):
    assert declared_chain(decls, "C") + [OBJECT] == ["C", "B", "A", "Object"]
    for cls in ct:
        ancestry = {*declared_chain(decls, cls), OBJECT}
        assert {c for c in ct if is_subtype(ct, cls, c)} == ancestry
    assert {c for c in ct if is_subtype(ct, "C", c)} == {"C", "B", "A", "Object"}


def test_fields_are_superclass_first(ct):
    assert [f.name for f in ct["B"].source] == ["sa", "pa", "sb"]
    assert [f.name for f in ct["B"].composite] == ["da", "db"]
    # C declares nothing of its own
    assert [f.name for f in ct["C"].source] == ["sa", "pa", "sb"]


def test_field_order_matches_brute_force(ct, decls):
    """Concatenating own fields down the reversed ancestry is the contract."""
    for cls in ("A", "B", "C"):
        chain = declared_chain(decls, cls)
        expect_src = [f.name for c in reversed(chain) for f in decls[c].sources]
        expect_cmp = [f.name for c in reversed(chain) for f in decls[c].composites]
        assert [f.name for f in ct[cls].source] == expect_src
        assert [f.name for f in ct[cls].composite] == expect_cmp


def field_type(ct, cls: str, f: str):
    """f's modifier and declared type in cls, read off its declaration."""
    hit = ct[cls].fields.get(f)
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
    md = ct["C"].methods.get("ma")
    assert [p.name for p in md.params] == ["x"]
    # B's override reads this.sb; A's body is just x
    assert "sb" in repr(md.body)
    assert "sb" not in repr(ct["A"].methods.get("ma").body)


def test_mtype_inherited(ct):
    assert signature(ct["C"].methods.get("mb")) == ([], "B")
    assert signature(ct["A"].methods.get("ma")) == (["A"], "A")
    assert ct["C"].methods.get("nope") is None
    assert ct["Object"].methods.get("ma") is None


def test_unknown_class_raises(ct):
    with pytest.raises(UnknownClassError):
        ct["Nope"].source


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
            hit = ct[cls].fields.get(f)
            if decl is None:
                assert hit is None
            else:
                assert hit[0] == slot and hit[1] is decl
        visible: dict[str, MethodDecl] = {}
        for d in chain:
            for m in d.methods:
                visible.setdefault(m.name, m)
        assert list(ct[cls].methods.values()) == list(visible.values())
        for m in [*visible, "nope"]:
            assert ct[cls].methods.get(m) is visible.get(m)
        supers = {d.name for d in chain} | {OBJECT}
        for other in names:
            assert is_subtype(ct, cls, other) == (other in supers)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.fsj")), ids=lambda p: p.name)
def test_lookups_match_a_walk_over_corpus_declarations(path):
    assert_lookups_match_a_walk_over_the_declarations(parse_program(path.read_text()))


def test_lookups_match_a_walk_over_generated_declarations():
    for seed in range(200):
        program, _ = generate_program(GenConfig(seed=seed))
        assert_lookups_match_a_walk_over_the_declarations(program)


def random_hierarchy(rng: random.Random, n: int, shape: str) -> Program:
    """n classes in one of three shapes, declared in shuffled order: a
    "chain", a "wide" tree of few levels, or a "forest" of subtrees under
    Object.  Some classes declare a field, or a method `m` or `k` that
    may override an inherited one."""
    decls = []
    for i in range(n):
        if shape == "chain":
            parent = decls[-1].name if decls else OBJECT
        elif shape == "wide":
            parent = rng.choice([OBJECT, *[d.name for d in decls[:3]]])
        else:
            parent = rng.choice([OBJECT, OBJECT, *[d.name for d in decls]])
        sources = [SourceField(Modifier.PLAIN, OBJECT, f"f{i}")] if rng.random() < 0.3 else []
        methods = [MethodDecl(OBJECT, m, [], Var("this")) for m in "mk" if rng.random() < 0.2]
        decls.append(ClassDecl(f"C{i}", parent, [], sources, None, methods))
    decls = _rebuild_ctors(decls)
    rng.shuffle(decls)
    return Program(decls, EMPTY)


def test_lookups_match_a_walk_over_random_hierarchies():
    """Generated programs have at most four classes; these have up to 60,
    so sibling subtrees and deep chains meet the interval test."""
    rng = random.Random(8)
    for i in range(200):
        shape = ("chain", "wide", "forest")[i % 3]
        assert_lookups_match_a_walk_over_the_declarations(
            random_hierarchy(rng, rng.randint(1, 60), shape)
        )


def test_table_answers_for_the_program_as_it_was_built():
    program = parse_program(HIERARCHY)
    ct = build_class_table(program)
    by_name = {d.name: d for d in program.classes}
    by_name["A"].methods.append(MethodDecl("A", "late", [], Var("this")))
    by_name["C"].methods.append(MethodDecl("A", "ma", [], Var("this")))
    assert ct["C"].methods.get("late") is None
    assert ct["A"].methods.get("late") is None
    assert signature(ct["C"].methods.get("ma")) == (["A"], "A")
    assert [m.name for m in ct["C"].methods.values()] == ["ma", "mb"]


def test_downstream_is_worked_out_on_first_read_only():
    ct = table(HIERARCHY)
    assert not any("downstream" in vars(info) for info in ct.values())
    store = {0: StoredObject("B", (1, 1, 1)), 1: StoredObject("A", (1, 1))}
    assert effect(ct, store, (0, "sa")) == [(0, "da")]
    assert [c for c, info in ct.items() if "downstream" in vars(info)] == ["B"]


def test_a_deep_hierarchy_declared_child_first_builds():
    """Resolving a class walks its parent chain without recursing."""
    n = 4800
    text = "".join(
        f"class C{i} extends {f'C{i - 1}' if i else OBJECT} {{ C{i}() {{ super(); }} }}\n"
        for i in reversed(range(n))
    )
    ct = table(text + "unit")
    assert sum(is_subtype(ct, f"C{n - 1}", c) for c in ct) == n + 1
    assert is_subtype(ct, "C4799", "C0")
    assert not is_subtype(ct, "C0", "C4799")


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
    assert signature(ct["B"].methods.get("m")) == ([], "A")


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
    program = parse_program(
        "class A extends Object { A f; A(A f) { super(); this.f = f; } }"
        " class B extends A { A g; B(A f, A g) { super(f); this.g = g; } } unit"
    )
    build_class_table(program)
    assert [p.name for p in program.classes[1].ctor.params] == ["f", "g"]
