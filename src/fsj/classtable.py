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
declaration of each visible method, and its superclasses.  The table is
the dict from class name to that record, so the hot kernels read a
class's members with one dict read, and the member accessors
(`composite`, `source`, `field`, `find_method`) read the same records.
Every lookup answers for the program as it was built: a declaration
changed afterwards is not seen.  Object is a fieldless, methodless root
that is always present.  Field lists are ordered superclass-first, which
is also the argument order of `new C(...)`.  The table also answers, per
class and field, which initialized fields are downstream of it (see
`downstream`).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ClassInfo:
    """One class's members, resolved when the table is built.

    fields maps each field name to its slot in source, None for an
    initialized field, and its declaration.  methods holds the nearest
    declaration of each visible method, own methods first, then the
    superclass's in its order.  supers holds the class and every
    superclass, Object included.
    """

    composite: tuple[CompositeField, ...]
    source: tuple[SourceField, ...]
    fields: dict[str, tuple[int | None, CompositeField | SourceField]]
    methods: dict[str, MethodDecl]
    supers: frozenset[str]


class ClassTable(dict[str, ClassInfo]):
    """The name -> `ClassInfo` mapping, Object included: the kernels read
    it directly, and `type_expr` takes a value on the spot only at exactly
    a declared class, so no error changes.  `ct[c]`, `info`, `decl` and
    the member accessors raise `UnknownClassError` for an undeclared c."""

    def __init__(self, decls: dict[str, ClassDecl], infos: dict[str, ClassInfo]):
        super().__init__(infos)
        self.decls = decls
        self._downstream: dict[str, dict[str, tuple[str, ...]]] = {}

    def __missing__(self, name: str) -> ClassInfo:
        raise UnknownClassError(name)

    def decl(self, name: str) -> ClassDecl:
        if name not in self.decls:
            raise UnknownClassError(name)
        return self.decls[name]

    def info(self, name: str) -> ClassInfo:
        """name's members as resolved when the table was built."""
        return self[name]

    def composite(self, name: str) -> tuple[CompositeField, ...]:
        """Initialized fields of name, superclass fields first."""
        return self[name].composite

    def source(self, name: str) -> tuple[SourceField, ...]:
        """Uninitialized fields of name, superclass fields first."""
        return self[name].source

    def field(self, name: str, fname: str) -> tuple[int | None, CompositeField | SourceField] | None:
        """fname's slot in source(name), None if initialized, and its
        declaration; or None when name has no field fname."""
        return self[name].fields.get(fname)

    def downstream(self, name: str, fname: str) -> tuple[str, ...]:
        """Initialized fields of name whose value depends on its field fname.

        g depends directly on f when g's initializer reads `this.f`; the
        result closes that relation transitively, in composite(name)
        order, and names fname itself only if a dependency cycle leads
        back to it.  A checked initializer's only free variable is `this`,
        so this is everything downstream of a field in any store.  Each
        class's table is built on its first lookup and kept.
        """
        if name not in self._downstream:
            composites = self.composite(name)
            names = [cf.name for cf in composites] + [sf.name for sf in self.source(name)]
            self._downstream[name] = _dependents(composites, names)
        return self._downstream[name].get(fname, ())

    def find_method(self, method: str, name: str) -> MethodDecl | None:
        """Nearest declaration of method on name's chain, or None."""
        return self[name].methods.get(method)


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


def build_class_table(program: Program) -> ClassTable:
    decls: dict[str, ClassDecl] = {}
    for cl in program.classes:
        if cl.name in decls or cl.name == OBJECT:
            raise DuplicateClassError(cl.name)
        decls[cl.name] = cl

    for cl in program.classes:
        if cl.parent != OBJECT and cl.parent not in decls:
            raise UnknownParentError(f"{cl.name} extends unknown class {cl.parent}")

    # Every parent chain must reach Object without revisiting a class.
    for cl in program.classes:
        seen = {cl.name}
        cur = cl.parent
        while cur != OBJECT:
            if cur in seen:
                raise CycleError(f"inheritance cycle through {cur}")
            seen.add(cur)
            cur = decls[cur].parent

    table = ClassTable(decls, {OBJECT: ClassInfo((), (), {}, {}, frozenset({OBJECT}))})

    def resolve(name: str) -> ClassInfo:
        if name not in table:
            d = decls[name]
            up = resolve(d.parent)
            composite, source = up.composite + tuple(d.composites), up.source + tuple(d.sources)
            fields = {cf.name: (None, cf) for cf in composite}
            fields.update((sf.name, (i, sf)) for i, sf in enumerate(source))
            methods: dict[str, MethodDecl] = {}
            for m in (*d.methods, *up.methods.values()):
                methods.setdefault(m.name, m)
            table[name] = ClassInfo(composite, source, fields, methods, up.supers | {name})
        return table[name]

    for cl in program.classes:
        own = [f.name for f in cl.composites] + [f.name for f in cl.sources]
        if len(set(own)) != len(own):
            raise DuplicateFieldError(f"duplicate field in class {cl.name}")
        clash = resolve(cl.parent).fields.keys() & own
        if clash:
            raise DuplicateFieldError(
                f"{cl.name} hides inherited field {sorted(clash)[0]}"
            )
        resolve(cl.name)

        seen_methods: set[str] = set()
        for m in cl.methods:
            pnames = [p.name for p in m.params]
            if len(set(pnames)) != len(pnames):
                raise DuplicateParamError(f"{cl.name}.{m.name}: duplicate parameter")
            sig = ([p.ptype for p in m.params], m.ret)
            if m.name in seen_methods:
                raise OverloadError(f"{cl.name} declares {m.name} twice")
            seen_methods.add(m.name)
            up = table.find_method(m.name, cl.parent)
            if up is not None and ([p.ptype for p in up.params], up.ret) != sig:
                raise OverloadError(
                    f"{cl.name}.{m.name} changes the inherited signature"
                )

        _check_ctor_local(cl)

    return table


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
