"""Parser and pretty-printer: fixtures, round trips, and failure modes."""

import copy
import inspect
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsj import (
    ParseError,
    build_class_table,
    parse_expr,
    parse_program,
    render_expr,
    render_program,
    run,
)
from fsj import syntax
from fsj.gen import GenConfig, generate_program
from fsj.syntax import (
    EMPTY,
    MAX_DEPTH,
    Assign,
    EffectBrace,
    Empty,
    FieldAccess,
    Invoke,
    Let,
    Loc,
    New,
    Seq,
    Subscribe,
    Span,
    Var,
    children,
    iter_subexprs,
    subst,
    with_child,
)

from conftest import CORPUS


# ---------------------------------------------------------------- shapes


def test_seq_groups_to_the_right():
    e = parse_expr("unit; unit; unit")
    assert isinstance(e, Seq)
    assert isinstance(e.second, Seq)
    assert not isinstance(e.first, Seq)


def test_parenthesized_seq_groups_left():
    e = parse_expr("(unit; unit); unit")
    assert isinstance(e, Seq)
    assert isinstance(e.first, Seq)


def test_let_body_extends_right():
    # the write and the read both belong to the body
    e = parse_expr("let x = new A() in x.f = x; x.f")
    assert isinstance(e, Let)
    assert isinstance(e.body, Seq)
    assert isinstance(e.body.first, Assign)


def test_let_bound_stops_at_in():
    e = parse_expr("let x = new A() in let y = x in y")
    assert isinstance(e, Let)
    assert isinstance(e.bound, New)
    assert isinstance(e.body, Let)


def test_assign_binds_tighter_than_seq():
    e = parse_expr("x.f = y; z")
    assert isinstance(e, Seq)
    assert isinstance(e.first, Assign)
    assert isinstance(e.second, Var)


def test_assign_value_may_be_assign():
    # chained writes associate to the right
    e = parse_expr("x.f = y.g = z")
    assert isinstance(e, Assign)
    assert isinstance(e.value, Assign)


def test_subscribe_parses_to_node():
    e = parse_expr("x.f.subscribe(y.g = x.f)")
    assert isinstance(e, Subscribe)
    assert e.fname == "f"
    assert isinstance(e.recv, Var)
    assert isinstance(e.handler, Assign)


def test_subscribe_on_chained_receiver():
    e = parse_expr("x.a.b.subscribe(unit)")
    assert isinstance(e, Subscribe)
    assert e.fname == "b"
    assert isinstance(e.recv, FieldAccess)


def test_postfix_on_new():
    e = parse_expr("new A().m(new B())")
    assert isinstance(e, Invoke)
    assert isinstance(e.recv, New)


def test_field_chain():
    e = parse_expr("x.a.b.c")
    assert isinstance(e, FieldAccess)
    assert e.fname == "c"
    assert isinstance(e.recv, FieldAccess)


def test_unit_literal():
    assert isinstance(parse_expr("unit"), Empty)


def test_this_is_a_variable():
    e = parse_expr("this.f")
    assert isinstance(e, FieldAccess)
    assert e.recv == Var("this")


def test_comments_are_skipped():
    e = parse_expr("unit; // trailing words\nunit")
    assert isinstance(e, Seq)


def test_member_dispatch():
    p = parse_program(
        """
        class A extends Object {
          signal A derived = this.src;
          signal A src;
          A plain;
          A(A src, A plain) { super(); this.src = src; this.plain = plain; }
          A id(A x) { x }
          Unit nop() { unit }
        }
        unit
        """
    )
    cl = p.classes[0]
    assert [f.name for f in cl.composites] == ["derived"]
    assert [f.name for f in cl.sources] == ["src", "plain"]
    assert [m.name for m in cl.methods] == ["id", "nop"]
    assert [q.name for q in cl.ctor.params] == ["src", "plain"]
    assert cl.ctor.field_inits == [("src", "src"), ("plain", "plain")]


def test_initializer_stops_at_semicolon():
    # the ';' after the initializer ends the member, not a sequence
    p = parse_program(
        """
        class A extends Object {
          signal A echo = this.src;
          signal A src;
          A(A src) { super(); this.src = src; }
        }
        unit
        """
    )
    assert isinstance(p.classes[0].composites[0].init, FieldAccess)


def test_initializer_seq_requires_parens():
    p = parse_program(
        """
        class A extends Object {
          signal A echo = (unit; this.src);
          signal A src;
          A(A src) { super(); this.src = src; }
        }
        unit
        """
    )
    assert isinstance(p.classes[0].composites[0].init, Seq)


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "text",
    [
        "",
        "let = new A() in x",
        "let x new A() in x",
        "x.",
        "x.f = ",
        "new class()",
        "x.f.subscribe(unit",
        "(unit; unit",
        "unit unit",
        "let let = unit in unit",
        "x.this",
        "@1",
        "{ unit }@1.f",
        "x;; y",
    ],
)
def test_bad_expressions_raise(text):
    with pytest.raises(ParseError):
        parse_expr(text)


@pytest.mark.parametrize(
    "text",
    [
        "class A { }",
        "class A extends Object { A() { super(); } }",  # missing main
        "class extends Object { } unit",
        "class A extends Object { B() { super(); } } unit",  # ctor name mismatch
        "class A extends Object { A f } unit",
        "class A extends Object { A() { } } unit",  # ctor without super call
        "class A extends Object { signal A; } unit",
        "class A extends Object { A() { super(); } } unit extra",
    ],
)
def test_bad_programs_raise(text):
    with pytest.raises(ParseError):
        parse_program(text)


@pytest.mark.parametrize("word", ["class", "extends", "let", "in", "new", "signal", "super", "this", "unit", "subscribe", "Unit"])
def test_reserved_words_are_not_binders(word):
    with pytest.raises(ParseError):
        parse_expr(f"let {word} = new A() in unit")


def test_error_carries_position():
    try:
        parse_program("class A extends Object {\n  ?\n}\nunit")
    except ParseError as err:
        assert err.line == 2
        assert err.col == 3
    else:
        pytest.fail("expected a parse error")


def test_error_lists_expectations():
    try:
        parse_expr("")
    except ParseError as err:
        assert err.expected
    else:
        pytest.fail("expected a parse error")


# ------------------------------------------------------------ rendering


def test_render_runtime_forms():
    assert render_expr(Loc(7)) == "@7"
    brace = EffectBrace(EMPTY, (7, "f"))
    assert render_expr(brace) == "{ unit }@7.f"


def test_runtime_forms_do_not_parse_back():
    with pytest.raises(ParseError):
        parse_expr(render_expr(Loc(7)))
    with pytest.raises(ParseError):
        parse_expr(render_expr(EffectBrace(EMPTY, (7, "f"))))


def test_render_parenthesizes_nested_seq():
    e = Seq(Seq(EMPTY, EMPTY), EMPTY)
    assert render_expr(e) == "(unit; unit); unit"
    assert parse_expr(render_expr(e)) == e


def test_render_parenthesizes_let_under_postfix():
    e = FieldAccess(Let("x", New("A", ()), Var("x")), "f")
    assert render_expr(e) == "(let x = new A() in x).f"
    assert parse_expr(render_expr(e)) == e


def test_render_deeper_than_the_recursion_limit():
    """loop_handler nests one brace per loop; at fuel 5000 the context is
    deeper than the default recursion limit, and the whole term renders."""
    program = parse_program((CORPUS / "loop_handler.fsj").read_text())
    res = run(build_class_table(program), program.main, fuel=5000, collect_trace=False)
    braces, k = 0, res.state.stack
    while k is not None:
        node, _, k = k
        braces += isinstance(node, EffectBrace)
    assert braces > sys.getrecursionlimit()
    text = render_expr(res.state.expr)
    assert text.count("{ ") == text.count(" }@1.n") == braces


@pytest.mark.parametrize("path", sorted(CORPUS.glob("**/*.fsj")), ids=lambda p: p.name)
def test_corpus_round_trips(path: Path):
    program = parse_program(path.read_text())
    text = render_program(program)
    again = parse_program(text)
    assert render_program(again) == text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_programs_round_trip(seed: int):
    program = generate_program(GenConfig(seed=seed))
    text = render_program(program)
    assert render_program(parse_program(text)) == text


# ---------------------------------------------------------- tree walkers

SPAN = Span(3, 4)
A, B, C = Var("a"), Var("b"), Var("c")
NODES = {  # one node of every type, each subterm a distinct variable
    "Var": Var("a", span=SPAN),
    "Loc": Loc(5, span=SPAN),
    "Empty": Empty(span=SPAN),
    "FieldAccess": FieldAccess(A, "f", span=SPAN),
    "Invoke": Invoke(A, "m", (B, C), span=SPAN),
    "New": New("K", (A, B, C), span=SPAN),
    "Assign": Assign(A, "f", B, span=SPAN),
    "Seq": Seq(A, B, span=SPAN),
    "Subscribe": Subscribe(A, "f", B, span=SPAN),
    "Let": Let("x", A, B, span=SPAN),
    "EffectBrace": EffectBrace(A, (5, "f"), span=SPAN),
}


def test_walker_fixtures_cover_every_node_type():
    node_types = {
        name for name, t in vars(syntax).items()
        if isinstance(t, type) and issubclass(t, syntax.Expr) and t is not syntax.Expr
    }
    assert set(NODES) == node_types
    assert all(type(e).__name__ == name for name, e in NODES.items())


@pytest.mark.parametrize("name", NODES)
def test_with_child_replaces_exactly_one_slot(name):
    e = NODES[name]
    kids = children(e)
    hole = Loc(99)
    for i in range(len(kids)):
        out = with_child(e, i, hole)
        assert type(out) is type(e)
        assert out.span == SPAN
        assert children(out) == kids[:i] + [hole] + kids[i + 1:]
        assert children(out)[i] is hole
    for i in (-1, len(kids)):
        with pytest.raises(ValueError, match=f"no subterm {i}"):
            with_child(e, i, hole)


SUBST_CASES = {  # node -> node with a := @1 and b := @2 substituted
    "FieldAccess": FieldAccess(Loc(1), "f"),
    "Invoke": Invoke(Loc(1), "m", (Loc(2), C)),
    "New": New("K", (Loc(1), Loc(2), C)),
    "Assign": Assign(Loc(1), "f", Loc(2)),
    "Seq": Seq(Loc(1), Loc(2)),
    "Subscribe": Subscribe(Loc(1), "f", Loc(2)),
    "Let": Let("x", Loc(1), Loc(2)),
    "EffectBrace": EffectBrace(Loc(1), (5, "f")),
    "Var": Loc(1),
}


@pytest.mark.parametrize("name", SUBST_CASES)
def test_subst_replaces_mapped_variables_in_every_node_type(name):
    e = NODES[name]
    out = subst(e, {"a": Loc(1), "b": Loc(2)})
    assert out == SUBST_CASES[name]
    if name != "Var":
        assert type(out) is type(e) and out.span == SPAN


@pytest.mark.parametrize("e", [NODES["Loc"], NODES["Empty"], Var("z")], ids=["Loc", "Empty", "unmapped-Var"])
def test_subst_returns_leaves_it_does_not_map_as_the_same_object(e):
    assert subst(e, {"a": Loc(1)}) is e


def test_subst_let_shadows_in_the_body_but_not_in_the_bound_term():
    e = Let("a", Seq(A, B), Seq(A, B), span=SPAN)
    out = subst(e, {"a": Loc(1), "b": Loc(2)})
    assert out == Let("a", Seq(Loc(1), Loc(2)), Seq(A, Loc(2)))
    assert out.span == SPAN
    # an inner let shadows only from its own body down
    inner = Let("x", A, Let("a", A, A))
    assert subst(inner, {"a": Loc(1)}) == Let("x", Loc(1), Let("a", Loc(1), A))


# ---------------------------------------------------------- node contract

REPRS = {
    "Var": "Var(name='a')",
    "Loc": "Loc(loc=5)",
    "Empty": "Empty()",
    "FieldAccess": "FieldAccess(recv=Var(name='a'), fname='f')",
    "Invoke": "Invoke(recv=Var(name='a'), method='m', args=(Var(name='b'), Var(name='c')))",
    "New": "New(cls='K', args=(Var(name='a'), Var(name='b'), Var(name='c')))",
    "Assign": "Assign(recv=Var(name='a'), fname='f', value=Var(name='b'))",
    "Seq": "Seq(first=Var(name='a'), second=Var(name='b'))",
    "Subscribe": "Subscribe(recv=Var(name='a'), fname='f', handler=Var(name='b'))",
    "Let": "Let(var='x', bound=Var(name='a'), body=Var(name='b'))",
    "EffectBrace": "EffectBrace(body=Var(name='a'), key=(5, 'f'))",
}


def fields_of(e):
    return tuple(getattr(e, name) for name in type(e).__match_args__)


def unspanned(e):
    return type(e)(*fields_of(e))


@pytest.mark.parametrize("name", NODES)
def test_nodes_refuse_assignment_and_deletion(name):
    e = NODES[name]
    for slot in (*type(e).__match_args__, "span", "other"):
        with pytest.raises(AttributeError):
            setattr(e, slot, Loc(0))
        with pytest.raises(AttributeError):
            delattr(e, slot)
    assert e.span == SPAN and repr(e) == REPRS[name]


@pytest.mark.parametrize("name", NODES)
def test_equality_and_hash_ignore_span(name):
    e = NODES[name]
    bare = unspanned(e)
    assert bare.span is None and bare is not e
    assert bare == e and not bare != e
    assert hash(bare) == hash(e) == hash(fields_of(e))


def test_node_types_with_equal_fields_differ():
    assert Var("a") != Loc("a")
    assert FieldAccess(A, "f") != EffectBrace(A, "f")
    assert Assign(A, "f", B) != Subscribe(A, "f", B)
    assert Empty() != New("K", ()) and Empty() == EMPTY
    assert Seq(A, B) != (A, B)


@pytest.mark.parametrize("name", NODES)
def test_repr_names_every_field_but_span(name):
    assert repr(NODES[name]) == REPRS[name]


@pytest.mark.parametrize("name", NODES)
def test_copy_and_pickle_rebuild_an_equal_node_with_its_span(name):
    e = NODES[name]
    for again in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert type(again) is type(e) and again == e and again.span == SPAN


def test_deepcopy_of_a_program_keeps_nodes_and_spans():
    program = parse_program((CORPUS / "subscribe_push.fsj").read_text())
    again = copy.deepcopy(program)
    assert again == program and again.main is not program.main
    assert [s.span for s in iter_subexprs(again.main)] == [s.span for s in iter_subexprs(program.main)]


def test_class_patterns_match_positionally():
    match Seq(A, Assign(B, "f", C)):
        case Seq(a, Assign(b, f, value=c)):
            assert (a, b, f, c) == (A, B, "f", C)
        case _:
            pytest.fail("positional class pattern did not match")


SIGNAL_A = "class A extends Object { signal A a = this; A() { super(); } }\n"
NESTED = {  # a program whose deepest term nests k + 1 levels
    "seq": lambda k: "unit; " * k + "unit",
    "parens": lambda k: "(" * k + "unit" + ")" * k,
    "field-chain": lambda k: SIGNAL_A + "new A()" + ".a" * k,
    "assign-chain": lambda k: "x.a = " * k + "x",
    "initializer": lambda k: (
        f"class A extends Object {{ signal A a = this{'.a' * k}; A() {{ super(); }} }}\nunit"
    ),
    "method-body": lambda k: (
        f"class A extends Object {{ A() {{ super(); }} Unit m() {{ {'unit; ' * k}unit }} }}\nunit"
    ),
}


@pytest.mark.parametrize("shape", NESTED)
def test_depth_cap_counts_every_level(shape):
    parse_program(NESTED[shape](MAX_DEPTH - 1))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_program(NESTED[shape](MAX_DEPTH))


SUBST_FRAMES_PER_LEVEL = 2  # subst's own, and the list comprehension over a call's arguments


@pytest.mark.parametrize("shape", NESTED)
def test_subst_fits_the_default_stack_at_the_depth_cap(shape):
    """subst recurses; MAX_DEPTH is what keeps it off the stack limit.

    The deepest term each shape parses to is substituted with the
    recursion limit lowered to this test's depth plus a fixed number of
    frames per level, and that limit must not exceed the default one.
    """
    program = parse_program(NESTED[shape](MAX_DEPTH - 1))
    terms = [program.main]
    for d in program.classes:
        terms += [cf.init for cf in d.composites] + [m.body for m in d.methods]
    default = sys.getrecursionlimit()
    limit = len(inspect.stack(0)) + SUBST_FRAMES_PER_LEVEL * MAX_DEPTH
    assert limit <= default, "MAX_DEPTH lets subst exhaust the default stack"
    sys.setrecursionlimit(limit)
    try:
        for e in terms:
            subst(e, {"x": Loc(0), "this": Loc(0)})
    finally:
        sys.setrecursionlimit(default)


def test_depth_cap_admits_every_generated_program():
    for seed in range(1000):
        parse_program(render_program(generate_program(GenConfig(seed=seed))))


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_parser_is_total(text: str):
    """Arbitrary input either parses or raises ParseError, nothing else."""
    try:
        parse_program(text)
    except ParseError:
        pass
