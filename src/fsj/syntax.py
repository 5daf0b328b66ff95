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
equal fields, whatever their source `span`.
"""

from __future__ import annotations

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
    `hash` and `repr`.  Assigning or deleting an attribute raises
    AttributeError: the audit caches by identity and relies on nodes never
    changing.  The constructor therefore writes each slot through its
    descriptor's `__set__`, bound once per type, and `copy` and `pickle`
    rebuild a node through its constructor.
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

_PUNCT = frozenset("{}();,.=")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "kw", "punct", "eof"
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "/" and text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isascii() and (c.isalpha() or c == "_"):
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in RESERVED else "ident"
            toks.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            toks.append(_Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"stray character {c!r}", line, col)
    toks.append(_Token("eof", "", line, col))
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
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0
        self.depth = 0  # nesting levels open, see MAX_DEPTH

    def _peek(self, ahead: int = 0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def _next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def _at(self, text: str) -> bool:
        return self._peek().text == text and self._peek().kind in ("kw", "punct")

    def _fail(self, message: str, expected: set[str] = frozenset()) -> ParseError:
        t = self._peek()
        shown = t.text if t.kind != "eof" else "end of input"
        return ParseError(f"{message}, found {shown!r}", t.line, t.col, frozenset(expected))

    def _expect(self, text: str) -> _Token:
        if not self._at(text):
            raise self._fail("unexpected token", {text})
        return self._next()

    def _ident(self, what: str) -> _Token:
        t = self._peek()
        if t.kind != "ident":
            raise self._fail(f"expected {what}", {"identifier"})
        return self._next()

    def _typename(self, allow_unit: bool = False) -> _Token:
        t = self._peek()
        if t.kind == "ident" or t.text == OBJECT or (allow_unit and t.text == UNIT):
            return self._next()
        expected = {"class name"} | ({UNIT} if allow_unit else set())
        raise self._fail("expected a type", expected)

    # ---- program and declarations

    def program(self) -> Program:
        classes = []
        while self._at("class"):
            classes.append(self.class_decl())
        main = _depth_checked(self.expr())
        if self._peek().kind != "eof":
            raise self._fail("trailing input after main expression", {"end of input"})
        return Program(classes, main)

    def class_decl(self) -> ClassDecl:
        start = self._expect("class")
        name = self._ident("class name").text
        self._expect("extends")
        parent = self._typename().text
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
            raise ParseError(
                f"class {name} has no constructor", close.line, close.col
            )
        return ClassDecl(name, parent, composites, sources, ctor, methods,
                         span=Span(start.line, start.col))

    def _member(self, class_name: str):
        t = self._peek()
        span = Span(t.line, t.col)
        if self._at("signal"):
            self._next()
            return self._field_decl(Modifier.SIGNAL, span)
        if self._at(UNIT):
            self._next()
            return self._method_decl(UNIT, span)
        # one leading type/name token; "(" right after means a constructor
        head = self._typename()
        if self._at("("):
            if head.text != class_name:
                raise ParseError(
                    f"constructor name {head.text!r} must match class {class_name!r}",
                    head.line, head.col,
                )
            return self._ctor_decl(head.text, span)
        if self._peek().kind == "ident" and self._peek(1).text == "(":
            return self._method_decl(head.text, span)
        return self._field_decl(Modifier.PLAIN, span, typ=head.text)

    def _field_decl(self, modifier: Modifier, span: Span, typ: str | None = None):
        if typ is None:
            typ = self._typename().text
        name = self._ident("field name").text
        if self._at("="):
            self._next()
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
            super_args.append(self._ident("argument name").text)
            while self._at(","):
                self._next()
                super_args.append(self._ident("argument name").text)
        self._expect(")")
        self._expect(";")
        inits: list[tuple[str, str]] = []
        while self._at("this"):
            self._next()
            self._expect(".")
            fname = self._ident("field name").text
            self._expect("=")
            pname = self._ident("parameter name").text
            self._expect(";")
            inits.append((fname, pname))
        self._expect("}")
        return CtorDecl(name, params, super_args, inits, span=span)

    def _method_decl(self, ret: str, span: Span) -> MethodDecl:
        name = self._ident("method name").text
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
                ptype = self._typename().text
                pname = self._ident("parameter name").text
                params.append(Param(ptype, pname))
                if not self._at(","):
                    break
                self._next()
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
        if self._at("let"):
            start = self._next()
            var = self._ident("variable name").text
            self._expect("=")
            bound = self.expr()
            self._expect("in")
            body = self.expr()
            return Let(var, bound, body, span=Span(start.line, start.col))
        first = self._assign()
        if self._at(";"):
            self._next()
            rest = self.expr()
            return Seq(first, rest, span=first.span)
        return first

    def _assign(self) -> Expr:
        target = self._postfix()
        if self._at("="):
            eq = self._next()
            if not isinstance(target, FieldAccess):
                raise ParseError(
                    "assignment target must be a field access", eq.line, eq.col
                )
            value = self._deeper(self._assign)
            return Assign(target.recv, target.fname, value, span=target.span)
        return target

    def _postfix(self) -> Expr:
        e = self._primary()
        while self._at("."):
            dot = self._next()
            if self._at("subscribe"):
                self._next()
                if not isinstance(e, FieldAccess):
                    raise ParseError(
                        "subscribe must follow a field access", dot.line, dot.col
                    )
                self._expect("(")
                handler = self.expr()
                self._expect(")")
                e = Subscribe(e.recv, e.fname, handler, span=e.span)
                continue
            name = self._ident("field or method name").text
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
            while self._at(","):
                self._next()
                args.append(self.expr())
        self._expect(")")
        return args

    def _primary(self) -> Expr:
        t = self._peek()
        span = Span(t.line, t.col)
        if self._at("unit"):
            self._next()
            return Empty(span=span)
        if self._at("this"):
            self._next()
            return Var("this", span=span)
        if self._at("new"):
            self._next()
            cls = self._typename().text
            return New(cls, tuple(self._args()), span=span)
        if self._at("("):
            self._next()
            e = self.expr()
            self._expect(")")
            return e
        if t.kind == "ident":
            self._next()
            return Var(t.text, span=span)
        raise self._fail(
            "expected an expression", {"unit", "this", "new", "let", "(", "identifier"}
        )


def parse_program(text: str) -> Program:
    return _Parser(_lex(text)).program()


def parse_expr(text: str) -> Expr:
    p = _Parser(_lex(text))
    e = _depth_checked(p.expr())
    if p._peek().kind != "eof":
        raise p._fail("trailing input after expression", {"end of input"})
    return e


# =========================================================================
# pretty-printer

# Precedence levels, loosest first. A node rendered in a position that
# demands a tighter level gets parenthesized, so render/parse round-trips.
_SEQ, _ASSIGN, _POSTFIX, _ATOM = 0, 1, 2, 3


# A node's own level; any node not listed is an atom.
_LEVEL = {Seq: _SEQ, Let: _SEQ, Assign: _ASSIGN, FieldAccess: _POSTFIX, Invoke: _POSTFIX, Subscribe: _POSTFIX}


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
    """
    t = type(e)
    if t is New:
        args = e.args
        if 0 <= i < len(args):
            return New(e.cls, args[:i] + (v,) + args[i + 1:], span=e.span)
    elif t is Assign:
        if i == 1:
            return Assign(e.recv, e.fname, v, span=e.span)
        if i == 0:
            return Assign(v, e.fname, e.value, span=e.span)
    elif t is Seq:
        if i == 0:
            return Seq(v, e.second, span=e.span)
        if i == 1:
            return Seq(e.first, v, span=e.span)
    elif t is EffectBrace:
        if i == 0:
            return EffectBrace(v, e.key, span=e.span)
    elif t is Invoke:
        args = e.args
        if i == 0:
            return Invoke(v, e.method, args, span=e.span)
        if 0 < i <= len(args):
            return Invoke(e.recv, e.method, args[: i - 1] + (v,) + args[i:], span=e.span)
    elif t is Let:
        if i == 0:
            return Let(e.var, v, e.body, span=e.span)
        if i == 1:
            return Let(e.var, e.bound, v, span=e.span)
    elif t is FieldAccess:
        if i == 0:
            return FieldAccess(v, e.fname, span=e.span)
    elif t is Subscribe:
        if i == 0:
            return Subscribe(v, e.fname, e.handler, span=e.span)
        if i == 1:
            return Subscribe(e.recv, e.fname, v, span=e.span)
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
    same object.  Dispatch is on the exact node type, most frequent first.
    """
    t = type(e)
    if t is Var:
        return mapping.get(e.name, e)
    if t is New:
        return New(e.cls, tuple([subst(a, mapping) for a in e.args]), span=e.span)
    if t is FieldAccess:
        return FieldAccess(subst(e.recv, mapping), e.fname, span=e.span)
    if t is Seq:
        return Seq(subst(e.first, mapping), subst(e.second, mapping), span=e.span)
    if t is Invoke:
        return Invoke(
            subst(e.recv, mapping), e.method, tuple([subst(a, mapping) for a in e.args]), span=e.span
        )
    if t is Assign:
        return Assign(subst(e.recv, mapping), e.fname, subst(e.value, mapping), span=e.span)
    if t is Let:
        x = e.var
        narrowed = {k: v for k, v in mapping.items() if k != x}
        return Let(x, subst(e.bound, mapping), subst(e.body, narrowed), span=e.span)
    if t is Subscribe:
        return Subscribe(subst(e.recv, mapping), e.fname, subst(e.handler, mapping), span=e.span)
    if t is EffectBrace:
        return EffectBrace(subst(e.body, mapping), e.key, span=e.span)
    return e


def contains(e: Expr, key: Key) -> bool:
    """Syntactic test: does e read the field named by key?

    Only the expression itself is inspected; bodies of methods it calls
    are not unfolded.
    """
    l, f = key
    return any(
        isinstance(s, FieldAccess) and s.fname == f and s.recv == Loc(l) for s in iter_subexprs(e)
    )
