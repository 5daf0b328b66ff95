"""Abstract syntax, parser, and pretty-printer for `.fsj` programs.

The surface syntax is Java-flavored.  A program is any number of class
declarations followed by a single main expression:

    class Cell extends Object {
        signal Nat doubled = this.n.plus(this.n);
        signal Nat n;
        Cell(Nat n) { super(); this.n = n; }
        Nat bump(Nat by) { this.n.plus(by) }
    }
    let c = new Cell(new Zero()) in (c.n = new Succ(new Zero()); c.doubled)

A field declared with an initializer is a composite field: reading it
re-evaluates the initializer against the current object graph.  A field
declared without one is a source field: it holds a location and can be
assigned.  `signal` marks a field as observable through `subscribe`.

Expression forms: variables, `this`, field access `e.f`, method call
`e.m(e, ...)`, instance creation `new C(e, ...)`, field assignment
`e.f = e`, sequencing `e; e`, handler registration `e.f.subscribe(e)`,
`let x = e in e`, and the unit literal `unit`.

`;` associates to the right and binds loosest, a `let` body extends as
far right as possible, and `=` takes an assignment-level expression on
the right, so `a.f = b; c` is a sequence whose head is the assignment.
Parentheses override all of this.

Two forms exist only at runtime and are printed but never parsed:
locations (`@7`) and pending-effect braces (`{ e }@7.f`, an effect
waiting on field `f` of the object at location 7).

Expression nodes are immutable classes with `__slots__` (see `Expr`):
two nodes are equal, and hash alike, when they have the same type and
equal fields, whatever their source `span`.  A node has a span only if
the parser built it: the walkers (`with_child`, `subst`), the machine
and the generator build nodes without one, and only `copy` and `pickle`
carry a span over to a new node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


RESERVED = frozenset(
    {
        "class",
        "extends",
        "signal",
        "super",
        "this",
        "let",
        "in",
        "new",
        "subscribe",
        "unit",
        "Unit",
        "Object",
    }
)

UNIT = "Unit"
OBJECT = "Object"


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected

    def __str__(self) -> str:
        if self.expected:
            alts = ", ".join(sorted(self.expected))
            return f"{self.line}:{self.col}: {self.message} (expected: {alts})"
        return f"{self.line}:{self.col}: {self.message}"


# =========================================================================
# expressions


def _rebuild(cls, span, *fields):
    return cls(*fields, span=span)


class Expr:
    """An expression node: an immutable object with slots.

    A node type lists its fields in `__slots__`, in evaluation order.
    `__init_subclass__` gives it what `dataclass(frozen=True)` did: the
    field names as `__match_args__`, a constructor taking the fields
    positionally, `==` (same exact type and equal fields), `hash` of the
    tuple of fields, and a `repr` naming them.  `span`, the source
    position, is keyword-only, defaults to None, and is ignored by `==`,
    `hash` and `repr`.  Only the parser passes a span, so a node has one
    only if the parser built it or it is a copy of such a node.
    Assigning or deleting an attribute raises AttributeError: the audit
    caches by identity and relies on nodes never changing.  The
    constructor therefore writes each slot through its descriptor's
    `__set__`, bound once per type, and `copy` and `pickle` rebuild a
    node, span included, through its constructor.
    """

    __slots__ = ("span",)
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = tuple(cls.__slots__)
        mine, theirs = ("".join(f"{who}.{n}, " for n in names) for who in ("self", "other"))
        slots = (*names, "span")
        scope = {f"_set_{n}": getattr(cls, n).__set__ for n in slots}
        exec(
            f"def __init__(self, {''.join(n + ', ' for n in names)}*, span=None):\n"
            + "".join(f"    _set_{n}(self, {n})\n" for n in slots)
            + "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            f"def __hash__(self):\n    return hash(({mine}))\n",
            scope,
        )
        for name in ("__init__", "__eq__", "__hash__"):
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, scope[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (type(self), self.span, *[getattr(self, n) for n in self.__match_args__])


class Var(Expr):
    """A variable reference; `this` parses to Var("this")."""

    __slots__ = ("name",)  # str


class FieldAccess(Expr):
    __slots__ = ("recv", "fname")  # Expr, str


class Invoke(Expr):
    __slots__ = ("recv", "method", "args")  # Expr, str, tuple[Expr, ...]


class New(Expr):
    __slots__ = ("cls", "args")  # str, tuple[Expr, ...]


class Assign(Expr):
    __slots__ = ("recv", "fname", "value")  # Expr, str, Expr


class Seq(Expr):
    __slots__ = ("first", "second")  # Expr, Expr


class Subscribe(Expr):
    __slots__ = ("recv", "fname", "handler")  # Expr, str, Expr


class Let(Expr):
    __slots__ = ("var", "bound", "body")  # str, Expr, Expr


class Empty(Expr):
    """The unit literal; the sole inhabitant of type Unit."""

    __slots__ = ()


class Loc(Expr):
    """Runtime only: a store location. Never produced by the parser."""

    __slots__ = ("loc",)  # int


Key = tuple[int, str]


class EffectBrace(Expr):
    """Runtime only: a pending effect on `key`, run once `body` is unit."""

    __slots__ = ("body", "key")  # Expr, Key


EMPTY = Empty()


# =========================================================================
# declarations


class Modifier(Enum):
    SIGNAL = "signal"
    PLAIN = ""


@dataclass
class CompositeField:
    """Field with an initializer; reads re-evaluate the initializer."""

    modifier: Modifier
    ftype: str
    name: str
    init: Expr
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass
class SourceField:
    """Field without an initializer; holds a location, assignable."""

    modifier: Modifier
    ftype: str
    name: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass
class Param:
    ptype: str
    name: str


@dataclass
class CtorDecl:
    name: str
    params: list[Param]
    super_args: list[str]
    field_inits: list[tuple[str, str]]  # (field, param), canonically (f, f)
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass
class MethodDecl:
    ret: str  # class name or "Unit"
    name: str
    params: list[Param]
    body: Expr
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass
class ClassDecl:
    name: str
    parent: str
    composites: list[CompositeField]
    sources: list[SourceField]
    ctor: CtorDecl
    methods: list[MethodDecl]
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass
class Program:
    classes: list[ClassDecl]
    main: Expr


# =========================================================================
# lexer

# One alternative per kind of lexeme, each starting on characters no other
# takes, save `//` before a stray `/`.  Every character is matched, so one
# `finditer` scan yields each lexeme in order.  Words and punctuation are
# ASCII; any other character is stray.
_LEXEME = re.compile(
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<blank>[ \t\r]+)"
    r"|(?P<punct>[{}();,.=])"
    r"|(?P<newline>\n)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<stray>.)",
    re.DOTALL,
)

# A token is a plain tuple (kind, text, line, col); kind is "ident", "kw",
# "punct" or "eof".
_Token = tuple[str, str, int, int]


def _lex(text: str) -> list[_Token]:
    """text's tokens, ending with "eof".  A token's column is 1 plus the
    number of characters before it on its line, where a comment's
    characters count for none, which shows only in an "eof" right after
    a comment."""
    toks: list[_Token] = []
    append = toks.append
    line, line_start = 1, 0  # line_start: index of the current line's first character
    m = None
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "word":
            word = m[0]
            append(("kw" if word in RESERVED else "ident", word, line, m.start() - line_start + 1))
        elif kind == "punct":
            append(("punct", m[0], line, m.start() - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "stray":
            raise ParseError(f"stray character {m[0]!r}", line, m.start() - line_start + 1)
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    append(("eof", "", line, end - line_start + 1))
    return toks


# =========================================================================
# parser


# Bounds the levels the parser has open (a parenthesis, argument, let part,
# `;` rest, handler or assigned value opens one) and the depth of the term
# it builds (every node, `.f` chains too), far below the recursion limit.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


def _depth_checked(e: Expr) -> Expr:
    """e, or a ParseError at a node of e nested more than MAX_DEPTH deep."""
    level = [e]
    for _ in range(MAX_DEPTH):
        level = [c for node in level for c in children(node)]
        if not level:
            return e
    raise ParseError(_TOO_DEEP, level[0].span.line, level[0].span.col)


class _Parser:
    """Recursive descent over a token list that ends with "eof".

    The cursor `pos` never passes the "eof" token, so `toks[pos]` is
    always the next token.  `_at`, `_eat` and `_expect` are only asked
    for keywords and punctuation, which no identifier spells and "eof"'s
    empty text is not, so they compare texts alone."""

    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0
        self.depth = 0  # nesting levels open, see MAX_DEPTH

    def _at(self, text: str) -> bool:
        return self.toks[self.pos][1] == text

    def _eat(self, text: str) -> bool:
        """Step past the next token if it is the keyword or punctuation text."""
        if self.toks[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def _fail(self, message: str, expected: set[str] = frozenset()) -> ParseError:
        kind, text, line, col = self.toks[self.pos]
        shown = text if kind != "eof" else "end of input"
        return ParseError(f"{message}, found {shown!r}", line, col, frozenset(expected))

    def _expect(self, text: str) -> _Token:
        t = self.toks[self.pos]
        if t[1] != text:
            raise self._fail("unexpected token", {text})
        self.pos += 1
        return t

    def _ident(self, what: str) -> str:
        t = self.toks[self.pos]
        if t[0] != "ident":
            raise self._fail(f"expected {what}", {"identifier"})
        self.pos += 1
        return t[1]

    def _typename(self) -> str:
        t = self.toks[self.pos]
        if t[0] == "ident" or t[1] == OBJECT:
            self.pos += 1
            return t[1]
        raise self._fail("expected a type", {"class name"})

    # ---- program and declarations

    def program(self) -> Program:
        classes = []
        while self._at("class"):
            classes.append(self.class_decl())
        main = _depth_checked(self.expr())
        if self.toks[self.pos][0] != "eof":
            raise self._fail("trailing input after main expression", {"end of input"})
        return Program(classes, main)

    def class_decl(self) -> ClassDecl:
        start = self._expect("class")
        name = self._ident("class name")
        self._expect("extends")
        parent = self._typename()
        self._expect("{")
        composites: list[CompositeField] = []
        sources: list[SourceField] = []
        ctor: CtorDecl | None = None
        methods: list[MethodDecl] = []
        while not self._at("}"):
            member = self._member(name)
            if isinstance(member, CompositeField):
                composites.append(member)
            elif isinstance(member, SourceField):
                sources.append(member)
            elif isinstance(member, MethodDecl):
                methods.append(member)
            else:
                if ctor is not None:
                    raise ParseError(
                        f"duplicate constructor in class {name}", member.span.line, member.span.col
                    )
                ctor = member
        close = self._expect("}")
        if ctor is None:
            raise ParseError(f"class {name} has no constructor", close[2], close[3])
        return ClassDecl(name, parent, composites, sources, ctor, methods,
                         span=Span(start[2], start[3]))

    def _member(self, class_name: str):
        _, _, line, col = self.toks[self.pos]
        span = Span(line, col)
        if self._eat("signal"):
            return self._field_decl(Modifier.SIGNAL, span)
        if self._eat(UNIT):
            return self._method_decl(UNIT, span)
        # one leading type/name token; "(" right after means a constructor
        head = self._typename()
        if self._at("("):
            if head != class_name:
                raise ParseError(
                    f"constructor name {head!r} must match class {class_name!r}", line, col
                )
            return self._ctor_decl(head, span)
        if self.toks[self.pos][0] == "ident" and self.toks[self.pos + 1][1] == "(":
            return self._method_decl(head, span)
        return self._field_decl(Modifier.PLAIN, span, typ=head)

    def _field_decl(self, modifier: Modifier, span: Span, typ: str | None = None):
        if typ is None:
            typ = self._typename()
        name = self._ident("field name")
        if self._eat("="):
            # assignment level, so the terminating ';' is unambiguous;
            # sequences or lets in an initializer need parentheses
            init = _depth_checked(self._assign())
            self._expect(";")
            return CompositeField(modifier, typ, name, init, span=span)
        self._expect(";")
        return SourceField(modifier, typ, name, span=span)

    def _ctor_decl(self, name: str, span: Span) -> CtorDecl:
        params = self._params()
        self._expect("{")
        self._expect("super")
        self._expect("(")
        super_args: list[str] = []
        if not self._at(")"):
            super_args.append(self._ident("argument name"))
            while self._eat(","):
                super_args.append(self._ident("argument name"))
        self._expect(")")
        self._expect(";")
        inits: list[tuple[str, str]] = []
        while self._eat("this"):
            self._expect(".")
            fname = self._ident("field name")
            self._expect("=")
            pname = self._ident("parameter name")
            self._expect(";")
            inits.append((fname, pname))
        self._expect("}")
        return CtorDecl(name, params, super_args, inits, span=span)

    def _method_decl(self, ret: str, span: Span) -> MethodDecl:
        name = self._ident("method name")
        params = self._params()
        self._expect("{")
        body = _depth_checked(self.expr())
        self._expect("}")
        return MethodDecl(ret, name, params, body, span=span)

    def _params(self) -> list[Param]:
        self._expect("(")
        params: list[Param] = []
        if not self._at(")"):
            while True:
                ptype = self._typename()
                pname = self._ident("parameter name")
                params.append(Param(ptype, pname))
                if not self._eat(","):
                    break
        self._expect(")")
        return params

    # ---- expressions

    def _deeper(self, parse) -> Expr:
        """parse() one nesting level further in, unless MAX_DEPTH are open."""
        if self.depth == MAX_DEPTH:
            raise self._fail(_TOO_DEEP)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def expr(self) -> Expr:
        return self._deeper(self._expr)

    def _expr(self) -> Expr:
        _, _, line, col = self.toks[self.pos]
        if self._eat("let"):
            var = self._ident("variable name")
            self._expect("=")
            bound = self.expr()
            self._expect("in")
            body = self.expr()
            return Let(var, bound, body, span=Span(line, col))
        first = self._assign()
        if self._eat(";"):
            rest = self.expr()
            return Seq(first, rest, span=first.span)
        return first

    def _assign(self) -> Expr:
        target = self._postfix()
        _, _, line, col = self.toks[self.pos]
        if self._eat("="):
            if not isinstance(target, FieldAccess):
                raise ParseError("assignment target must be a field access", line, col)
            value = self._deeper(self._assign)
            return Assign(target.recv, target.fname, value, span=target.span)
        return target

    def _postfix(self) -> Expr:
        e = self._primary()
        while self._at("."):
            _, _, line, col = self.toks[self.pos]
            self.pos += 1
            if self._eat("subscribe"):
                if not isinstance(e, FieldAccess):
                    raise ParseError("subscribe must follow a field access", line, col)
                self._expect("(")
                handler = self.expr()
                self._expect(")")
                e = Subscribe(e.recv, e.fname, handler, span=e.span)
                continue
            name = self._ident("field or method name")
            if self._at("("):
                e = Invoke(e, name, tuple(self._args()), span=e.span)
            else:
                e = FieldAccess(e, name, span=e.span)
        return e

    def _args(self) -> list[Expr]:
        self._expect("(")
        args: list[Expr] = []
        if not self._at(")"):
            args.append(self.expr())
            while self._eat(","):
                args.append(self.expr())
        self._expect(")")
        return args

    def _primary(self) -> Expr:
        kind, text, line, col = self.toks[self.pos]
        # no identifier spells the keywords and punctuation below
        if kind == "ident":
            self.pos += 1
            return Var(text, span=Span(line, col))
        if text == "unit":
            self.pos += 1
            return Empty(span=Span(line, col))
        if text == "this":
            self.pos += 1
            return Var("this", span=Span(line, col))
        if text == "new":
            self.pos += 1
            cls = self._typename()
            return New(cls, tuple(self._args()), span=Span(line, col))
        if text == "(":
            self.pos += 1
            e = self.expr()
            self._expect(")")
            return e
        raise self._fail(
            "expected an expression", {"unit", "this", "new", "let", "(", "identifier"}
        )


def parse_program(text: str) -> Program:
    return _Parser(_lex(text)).program()


def parse_expr(text: str) -> Expr:
    p = _Parser(_lex(text))
    e = _depth_checked(p.expr())
    if p.toks[p.pos][0] != "eof":
        raise p._fail("trailing input after expression", {"end of input"})
    return e


# =========================================================================
# pretty-printer

# Precedence levels, loosest first. A node rendered in a position that
# demands a tighter level gets parenthesized, so render/parse round-trips.
_SEQ, _ASSIGN, _POSTFIX, _ATOM = 0, 1, 2, 3


# A node's own level; any node not listed is an atom.
_LEVEL = {Seq: _SEQ, Let: _SEQ, Assign: _ASSIGN, FieldAccess: _POSTFIX, Invoke: _POSTFIX, Subscribe: _POSTFIX}

# The level a node demands of its subterms: of the first, then of every later one.
_CHILD_LEVEL = {
    Seq: (_ASSIGN, _SEQ),
    Let: (_SEQ, _SEQ),
    Assign: (_POSTFIX, _ASSIGN),
    FieldAccess: (_POSTFIX,),
    Invoke: (_POSTFIX, _SEQ),
    Subscribe: (_POSTFIX, _SEQ),
    New: (_SEQ, _SEQ),
    EffectBrace: (_SEQ,),
}

HOLE = "□"  # names an evaluation-context frame's hole; no identifier can spell it
HOLE_VAR = Var(HOLE)


def _args_last_first(args: tuple[Expr, ...]) -> list:
    parts: list = []
    for a in reversed(args):
        parts += [(a, _SEQ), ", "]
    return parts[:-1]


def render_expr(e: Expr, level: int = _SEQ) -> str:
    """e as source text, parenthesized where the position's level demands.

    Iterative, so a term of any depth renders: `todo` holds finished
    string pieces and (expr, level) items still to expand, next one last.
    A node writes the text before its first subterm at once and pushes
    the rest of its pieces last first, so they pop in reading order.
    Dispatch is on the exact node type, which is cheaper than `match`.
    """
    out: list[str] = []
    emit = out.append
    todo: list = [(e, level)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            emit(item)
            continue
        e, level = item
        t = type(e)
        # atoms first: they are most of a term and never parenthesized
        if t is Loc:
            emit(f"@{e.loc}")
            continue
        if t is Empty:
            emit("unit")
            continue
        if t is Var:
            emit(e.name)
            continue
        if _LEVEL.get(t, _ATOM) < level:
            emit("(")
            todo.append(")")
        if t is FieldAccess:
            todo += (f".{e.fname}", (e.recv, _POSTFIX))
        elif t is Invoke:
            todo += (")", *_args_last_first(e.args), f".{e.method}(", (e.recv, _POSTFIX))
        elif t is Seq:
            todo += ((e.second, _SEQ), "; ", (e.first, _ASSIGN))
        elif t is Assign:
            todo += ((e.value, _ASSIGN), f".{e.fname} = ", (e.recv, _POSTFIX))
        elif t is New:
            emit(f"new {e.cls}(")
            todo += (")", *_args_last_first(e.args))
        elif t is Subscribe:
            todo += (")", (e.handler, _SEQ), f".{e.fname}.subscribe(", (e.recv, _POSTFIX))
        elif t is Let:
            emit(f"let {e.var} = ")
            todo += ((e.body, _SEQ), " in ", (e.bound, _SEQ))
        elif t is EffectBrace:
            l, f = e.key
            emit("{ ")
            todo += (f" }}@{l}.{f}", (e.body, _SEQ))
        else:
            raise ValueError(f"cannot render {e!r}")
    return "".join(out)


def split_frame(node: Expr, slot: int, level: int = _SEQ) -> tuple[str, str, int]:
    """The text of node, rendered at level, before and after its subterm
    number `slot` (numbered as `with_child` numbers it), and the level that
    subterm is rendered at.  Whatever fills the slot, rendering it at that
    level between the two pieces gives `render_expr` of the filled node."""
    head, _, tail = render_expr(with_child(node, slot, HOLE_VAR), level).partition(HOLE)
    levels = _CHILD_LEVEL[type(node)]
    return head, tail, levels[0] if slot == 0 else levels[-1]


def _render_modifier(m: Modifier) -> str:
    return "signal " if m is Modifier.SIGNAL else ""


def render_program(p: Program) -> str:
    chunks = []
    for cl in p.classes:
        lines = [f"class {cl.name} extends {cl.parent} {{"]
        for cf in cl.composites:
            # initializers sit at assignment level, see _field_decl
            init = render_expr(cf.init, _ASSIGN)
            lines.append(
                f"  {_render_modifier(cf.modifier)}{cf.ftype} {cf.name} = {init};"
            )
        for sf in cl.sources:
            lines.append(f"  {_render_modifier(sf.modifier)}{sf.ftype} {sf.name};")
        k = cl.ctor
        params = ", ".join(f"{q.ptype} {q.name}" for q in k.params)
        sup = ", ".join(k.super_args)
        inits = "".join(f" this.{f} = {x};" for f, x in k.field_inits)
        lines.append(f"  {k.name}({params}) {{ super({sup});{inits} }}")
        for m in cl.methods:
            ps = ", ".join(f"{q.ptype} {q.name}" for q in m.params)
            lines.append(f"  {m.ret} {m.name}({ps}) {{ {render_expr(m.body)} }}")
        lines.append("}")
        chunks.append("\n".join(lines))
    chunks.append(render_expr(p.main))
    return "\n\n".join(chunks) + "\n"


def children(e: Expr) -> list[Expr]:
    """e's subterms, left to right, which is evaluation order."""
    out = []
    for name in e.__match_args__:
        v = getattr(e, name)
        if isinstance(v, Expr):
            out.append(v)
        elif isinstance(v, tuple):
            out += [a for a in v if isinstance(a, Expr)]
    return out


def with_child(e: Expr, i: int, v: Expr) -> Expr:
    """e with its subterm number i, counted as in `children`, replaced by v.

    The machine numbers the hole of an evaluation-context frame the same
    way, and plugs every finished subterm through here, so dispatch is on
    the exact node type, in the order the machine plugs them most often.
    The new node has no span, whatever e's.
    """
    t = type(e)
    if t is New:
        args = e.args
        if 0 <= i < len(args):
            return New(e.cls, args[:i] + (v,) + args[i + 1:])
    elif t is Assign:
        if i == 1:
            return Assign(e.recv, e.fname, v)
        if i == 0:
            return Assign(v, e.fname, e.value)
    elif t is Seq:
        if i == 0:
            return Seq(v, e.second)
        if i == 1:
            return Seq(e.first, v)
    elif t is EffectBrace:
        if i == 0:
            return EffectBrace(v, e.key)
    elif t is Invoke:
        args = e.args
        if i == 0:
            return Invoke(v, e.method, args)
        if 0 < i <= len(args):
            return Invoke(e.recv, e.method, args[: i - 1] + (v,) + args[i:])
    elif t is Let:
        if i == 0:
            return Let(e.var, v, e.body)
        if i == 1:
            return Let(e.var, e.bound, v)
    elif t is FieldAccess:
        if i == 0:
            return FieldAccess(v, e.fname)
    elif t is Subscribe:
        if i == 0:
            return Subscribe(v, e.fname, e.handler)
        if i == 1:
            return Subscribe(e.recv, e.fname, v)
    raise ValueError(f"no subterm {i} in {e!r}")


def iter_subexprs(e: Expr):
    """Yield e and every expression nested inside it, outermost first."""
    todo = [e]
    while todo:
        e = todo.pop()
        yield e
        todo += reversed(children(e))


def subst(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """e with each free variable that mapping names replaced by its image.

    Capture is impossible because only closed values are substituted.  A
    `let` binder shadows its name in the body but not in the bound term.
    Nodes with no variable below them (locations, unit) come back as the
    same object; every node rebuilt has no span, whatever e's.  Dispatch
    is on the exact node type, most frequent first.
    """
    t = type(e)
    if t is Var:
        return mapping.get(e.name, e)
    if t is New:
        return New(e.cls, tuple([subst(a, mapping) for a in e.args]))
    if t is FieldAccess:
        return FieldAccess(subst(e.recv, mapping), e.fname)
    if t is Seq:
        return Seq(subst(e.first, mapping), subst(e.second, mapping))
    if t is Invoke:
        return Invoke(
            subst(e.recv, mapping), e.method, tuple([subst(a, mapping) for a in e.args])
        )
    if t is Assign:
        return Assign(subst(e.recv, mapping), e.fname, subst(e.value, mapping))
    if t is Let:
        x = e.var
        narrowed = {k: v for k, v in mapping.items() if k != x}
        return Let(x, subst(e.bound, mapping), subst(e.body, narrowed))
    if t is Subscribe:
        return Subscribe(subst(e.recv, mapping), e.fname, subst(e.handler, mapping))
    if t is EffectBrace:
        return EffectBrace(subst(e.body, mapping), e.key)
    return e

