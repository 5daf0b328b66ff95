"""Class table construction and member lookup.

Builds a name-indexed table from a parsed program and validates the
global assumptions everything downstream relies on: the extends graph is
acyclic and reaches Object, no field is declared twice or shadows an
inherited one, method names are never overloaded (an override must keep
the exact signature), parameter names are distinct, and each constructor
has the canonical shape

    C(<inherited source fields>, <own source fields>) {
        super(<inherited>); this.f = f; ...
    }

i.e. it forwards the superclass portion and initializes exactly this
class's uninitialized fields, in declaration order.  Only the local half
of that shape is checked here; whether the forwarded portion matches the
superclass is a typing concern (see typecheck.check_class).

Building the table resolves each class once into a `ClassInfo`: its
field lists, a map from field name to slot and declaration, the nearest
declaration of each visible method, and its place in the class tree as
pre- and post-order numbers, so that `typecheck.is_subtype` is one
interval test (Schubert et al., IEEE Computer 1983).  The table is
the dict from class name to that record and nothing else, so every
reader asks for a class's members the one way, `ct[c].source`,
`ct[c].fields.get(f)` or `ct[c].methods.get(m)`.  Every lookup answers
for the program as it was built: a declaration changed afterwards is
not seen until `refresh` resolves its class again.  Object is a fieldless, methodless root that is always
present.  Field lists are ordered superclass-first, which is also the
argument order of `new C(...)`.  Each record also answers, per field,
which initialized fields are downstream of it (`ClassInfo.downstream`,
worked out on its first read).

Classes are numbered by one iterative walk of the tree down from
Object, and resolved by one iterative walk per class: up its parent
chain to the nearest class already resolved, then back down, so no
hierarchy is too deep to build, and a class met twice on one walk is an
inheritance cycle.  Each step costs the same whatever the class's depth,
so a build is linear in the size of the hierarchy and its members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .syntax import (
    OBJECT,
    ClassDecl,
    CompositeField,
    FieldAccess,
    MethodDecl,
    Program,
    SourceField,
    Var,
    iter_subexprs,
)


class ClassTableError(Exception):
    pass


class DuplicateClassError(ClassTableError):
    pass


class UnknownParentError(ClassTableError):
    pass


class CycleError(ClassTableError):
    pass


class DuplicateFieldError(ClassTableError):
    pass


class OverloadError(ClassTableError):
    pass


class DuplicateParamError(ClassTableError):
    pass


class CtorMismatchError(ClassTableError):
    pass


class UnknownClassError(ClassTableError):
    pass


@dataclass
class ClassInfo:
    """One class's members, resolved when the table is built.  Nothing
    writes to a record once it is built (`refresh` puts a new one in its
    place); it is not frozen only because a frozen dataclass takes about
    three times as long to make.

    fields maps each field name to its slot in source, None for an
    initialized field, and its declaration.  methods holds the nearest
    declaration of each visible method, own methods first, then the
    superclass's in its order.  pre and post number the class in a
    pre-order and a post-order walk of the class tree, so a class's
    subclasses, itself included, are those whose pre is at least its pre
    and whose post is at most its post.
    """

    composite: tuple[CompositeField, ...]
    source: tuple[SourceField, ...]
    fields: dict[str, tuple[int | None, CompositeField | SourceField]]
    methods: dict[str, MethodDecl]
    pre: int
    post: int

    @cached_property
    def downstream(self) -> dict[str, tuple[str, ...]]:
        """For each field f, the initialized fields whose value depends on it.

        g depends directly on f when g's initializer reads `this.f`; each
        entry closes that relation transitively, in composite order, and
        names f itself only if a dependency cycle leads back to it.  A
        checked initializer's only free variable is `this`, so this is
        everything downstream of a field in any store.  Worked out on
        the first read, not when the table is built, since most classes
        of a program are never written to.
        """
        return _dependents(self.composite, list(self.fields))


class ClassTable(dict[str, ClassInfo]):
    """The name -> `ClassInfo` mapping, Object included.  Every reader
    reads the records directly; `ct[c]` raises `UnknownClassError` for an
    undeclared c, while `c in ct` and `ct.get(c)` are plain dict reads."""

    def __missing__(self, name: str) -> ClassInfo:
        raise UnknownClassError(name)


def _check_ctor_local(decl: ClassDecl) -> None:
    k = decl.ctor
    own = [(f.ftype, f.name) for f in decl.sources]
    names = [p.name for p in k.params]
    if len(set(names)) != len(names):
        raise CtorMismatchError(f"{decl.name}: duplicate constructor parameter")
    if len(k.params) < len(own):
        raise CtorMismatchError(
            f"{decl.name}: constructor takes fewer parameters than declared source fields"
        )
    split = len(k.params) - len(own)
    super_part, own_part = k.params[:split], k.params[split:]
    if [(p.ptype, p.name) for p in own_part] != own:
        raise CtorMismatchError(
            f"{decl.name}: trailing constructor parameters must mirror the class's"
            " own source fields in declaration order"
        )
    if k.super_args != [p.name for p in super_part]:
        raise CtorMismatchError(
            f"{decl.name}: super(...) must forward the leading parameters in order"
        )
    if k.field_inits != [(n, n) for _, n in own]:
        raise CtorMismatchError(
            f"{decl.name}: constructor body must be exactly"
            " 'this.f = f;' for each own source field, in order"
        )


def _members(d: ClassDecl, up: ClassInfo) -> tuple:
    """d's composite, source, fields and methods, given its superclass's record."""
    composite, source = up.composite + tuple(d.composites), up.source + tuple(d.sources)
    fields = {cf.name: (None, cf) for cf in composite}
    fields.update((sf.name, (i, sf)) for i, sf in enumerate(source))
    methods: dict[str, MethodDecl] = {}
    for m in (*d.methods, *up.methods.values()):
        methods.setdefault(m.name, m)
    return composite, source, fields, methods


def _number(kids: dict[str, list[str]]) -> dict[str, tuple[int, int]]:
    """The pre- and post-order numbers of Object and of every class below
    it, from one iterative walk down kids, each class's direct subclasses
    in declaration order.  A class on an inheritance cycle gets none."""
    pre: dict[str, int] = {}
    numbers: dict[str, tuple[int, int]] = {}  # a class's post counts those finished before it
    todo = [OBJECT]  # a class is pushed to be entered, then again to be finished
    while todo:
        name = todo.pop()
        if name in pre:
            numbers[name] = (pre[name], len(numbers))
        else:
            pre[name] = len(pre)
            todo.append(name)
            todo += reversed(kids[name])
    return numbers


def build_class_table(program: Program) -> ClassTable:
    decls: dict[str, ClassDecl] = {}
    kids: dict[str, list[str]] = {OBJECT: []}  # each class's direct subclasses
    for cl in program.classes:
        if cl.name in decls or cl.name == OBJECT:
            raise DuplicateClassError(f"duplicate class {cl.name}")
        decls[cl.name] = cl
        kids[cl.name] = []

    for cl in program.classes:
        if cl.parent != OBJECT and cl.parent not in decls:
            raise UnknownParentError(f"{cl.name} extends unknown class {cl.parent}")
        kids[cl.parent].append(cl.name)

    numbers = _number(kids)
    table = ClassTable({OBJECT: ClassInfo((), (), {}, {}, *numbers[OBJECT])})
    for cl in program.classes:
        chain: dict[str, None] = {}  # unresolved classes met on the way up
        name = cl.name
        while name not in table:
            if name in chain:
                raise CycleError(f"inheritance cycle through {name}")
            chain[name] = None
            name = decls[name].parent
        for name in reversed(chain):
            d = decls[name]
            table[name] = ClassInfo(*_members(d, table[d.parent]), *numbers[name])

    for cl in program.classes:
        own = [f.name for f in cl.composites] + [f.name for f in cl.sources]
        if len(set(own)) != len(own):
            raise DuplicateFieldError(f"duplicate field in class {cl.name}")
        up_info = table[cl.parent]
        clash = up_info.fields.keys() & own
        if clash:
            raise DuplicateFieldError(
                f"{cl.name} hides inherited field {sorted(clash)[0]}"
            )

        seen_methods: set[str] = set()
        for m in cl.methods:
            pnames = [p.name for p in m.params]
            if len(set(pnames)) != len(pnames):
                raise DuplicateParamError(f"{cl.name}.{m.name}: duplicate parameter")
            sig = ([p.ptype for p in m.params], m.ret)
            if m.name in seen_methods:
                raise OverloadError(f"{cl.name} declares {m.name} twice")
            seen_methods.add(m.name)
            up = up_info.methods.get(m.name)
            if up is not None and ([p.ptype for p in up.params], up.ret) != sig:
                raise OverloadError(
                    f"{cl.name}.{m.name} changes the inherited signature"
                )

        _check_ctor_local(cl)

    return table


def refresh(table: ClassTable, decls: list[ClassDecl]) -> None:
    """Resolve the classes of decls again, each after its superclass, and
    put their new records in table in place of the old, so that table
    answers for members added to them since it was built.  For a builder
    that adds members to the program a table was built from, without
    moving a class: the numbers stay, and nothing is checked again."""
    for d in decls:
        info = table[d.name]
        table[d.name] = ClassInfo(*_members(d, table[d.parent]), info.pre, info.post)


def _dependents(
    composites: tuple[CompositeField, ...], names: list[str]
) -> dict[str, tuple[str, ...]]:
    """For each field name, the composites downstream of it on one object.

    A composite reads f when its initializer holds `this.f` (`this` is
    reserved, so no `let` rebinds it); names nothing depends on are left out.
    """
    this = Var("this")
    reads = [
        {s.fname for s in iter_subexprs(cf.init) if type(s) is FieldAccess and s.recv == this}
        for cf in composites
    ]
    readers = {f: [cf.name for cf, r in zip(composites, reads) if f in r] for f in names}
    out = {}
    for fname in names:
        found: set[str] = set()
        frontier = [fname]
        while frontier:
            for g in readers[frontier.pop()]:
                if g not in found:
                    found.add(g)
                    frontier.append(g)
        if found:
            out[fname] = tuple(cf.name for cf in composites if cf.name in found)
    return out
