"""Static typing for programs and runtime configurations.

Types are class names plus the pseudo-type "Unit".  Subtyping is the
reflexive-transitive extends relation on classes; Unit relates only to
itself, so a unit value can never stand in for an object: not as a
receiver, not as an argument, not as an assigned value, not as the bound
expression of a let.

`type_expr` is syntax-directed: each expression form has exactly one
applicable rule, and the checker either returns the unique type or
raises a TypingError carrying a kind, a message, and a source span.
Highlights:

  * field access ignores the signal/plain modifier and works on both
    initialized and uninitialized fields;
  * assignment requires the target to be an uninitialized (source)
    field; writing an initialized field is ASSIGN_TO_COMPOSITE;
  * subscribe requires the field's modifier to be signal, whether the
    field is initialized or not, and the handler must type to Unit;
  * the left arm of `;` must be Unit, the whole takes the right's type;
  * `let x = e in b` gives x exactly the class of e, the tightest type;
  * a pending-effect brace types to Unit when its body does, with no
    constraint on the brace's key.

The class table is the name -> `ClassInfo` mapping, which `type_expr`
and `is_subtype` read directly.  An argument or assigned value is taken
on the spot only when its type is exactly the declared class it must
fit; all else takes the general path, so every error is unchanged.

`check_class` validates one declaration: every initialized field is
marked signal, its initializer is built only from variables, field
accesses, calls, and instance creations (so evaluating it can never
write or subscribe), types to a subtype of the declared field type under
`this` alone, the constructor forwards exactly the superclass's source
fields, and each method body types to a subtype of its declared return
type.  Errors accumulate per member rather than stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .classtable import ClassTable, UnknownClassError
from .syntax import (
    UNIT,
    Assign,
    ClassDecl,
    EffectBrace,
    Empty,
    Expr,
    FieldAccess,
    Invoke,
    Let,
    Loc,
    Modifier,
    New,
    Program,
    Seq,
    Span,
    Subscribe,
    Var,
    iter_subexprs,
)

TypeEnv = dict[str, str]  # variable -> class name; only an audit's hole maps to Unit
StoreTyping = dict[int, str]  # location -> class name


class ErrKind(Enum):
    UNBOUND_VAR = "unbound-var"
    UNKNOWN_LOCATION = "unknown-location"
    UNKNOWN_CLASS_TYPE = "unknown-class-type"
    UNKNOWN_FIELD = "unknown-field"
    UNKNOWN_METHOD = "unknown-method"
    ARG_ARITY = "arg-arity"
    ARG_SUBTYPE = "arg-subtype"
    ASSIGN_TO_COMPOSITE = "assign-to-composite"
    ASSIGN_TYPE_MISMATCH = "assign-type-mismatch"
    SEQ_LEFT_NOT_UNIT = "seq-left-not-unit"
    SUBSCRIBE_ON_NON_SIGNAL = "subscribe-on-non-signal"
    SUBSCRIBE_HANDLER_NOT_UNIT = "subscribe-handler-not-unit"
    BRACE_BODY_NOT_UNIT = "brace-body-not-unit"
    UNIT_MISUSE = "unit-misuse"
    BAD_COMPOSITE_MODIFIER = "bad-composite-modifier"
    BAD_INITIALIZER = "bad-initializer"
    CTOR_SHAPE = "ctor-shape"
    METHOD_BODY_TYPE = "method-body-type"


class TypingError(Exception):
    def __init__(self, kind: ErrKind, message: str, span: Span | None = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.span = span

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.message} [{self.kind.value}]"


def is_subtype(ct: ClassTable, sub: str, sup: str, span: Span | None = None) -> bool:
    """Reflexive-transitive extends; Unit is unrelated to every class.

    sub is below sup exactly when sup's pre- and post-order numbers in
    the class tree enclose sub's (see `ClassInfo`), an O(1) test on the
    two records of the name -> `ClassInfo` table.  An undeclared class
    is a TypingError at span, sub checked first; `type_expr` skips this
    call only for an exact, declared type, so no error is lost."""
    if sub == sup:
        return True
    if sub == UNIT or sup == UNIT:
        return False
    try:
        a = ct[sub]
        b = ct[sup]
    except UnknownClassError as e:
        raise TypingError(ErrKind.UNKNOWN_CLASS_TYPE, f"unknown class {e.args[0]}", span) from None
    return b.pre <= a.pre and a.post <= b.post


def _class_of(ct: ClassTable, t: str, role: str, span: Span | None) -> str:
    """t, the type of a receiver, argument, let-bound or assigned value,
    if it is a class of ct; Unit or an undeclared class is a TypingError."""
    if t == UNIT:
        raise TypingError(ErrKind.UNIT_MISUSE, f"unit value used as {role}", span)
    if t not in ct:
        raise TypingError(ErrKind.UNKNOWN_CLASS_TYPE, f"unknown class {t}", span)
    return t


def type_expr(ct: ClassTable, env: TypeEnv, store_typing: StoreTyping, e: Expr) -> str:
    """The type of e under env and store_typing, or a TypingError.

    Syntax-directed: a node's type depends only on its form and its
    subterms' types, so a subterm can be replaced by a variable bound to
    its type.  The audit types each evaluation-context frame that way,
    its hole `syntax.HOLE`, the one variable that may be Unit.
    Dispatch is on the exact node type, most frequent first, and every
    subterm is typed through the module's `type_expr`.

    A class's members are one read of the table, the name -> `ClassInfo`
    mapping.  An argument or assigned value whose type is exactly the
    declared class it must fit is accepted on the spot; any other goes
    through `_class_of` and `is_subtype`, which would pass the exact
    case, so every error keeps its kind, message, span and order.
    """
    t = type(e)
    if t is New:
        c, args = e.cls, e.args
        if c not in ct:
            raise TypingError(ErrKind.UNKNOWN_CLASS_TYPE, f"unknown class {c}", e.span)
        fields = ct[c].source
        if len(args) != len(fields):
            raise TypingError(
                ErrKind.ARG_ARITY,
                f"new {c} takes {len(fields)} arguments, got {len(args)}",
                e.span,
            )
        for a, sf in zip(args, fields):
            at = type_expr(ct, env, store_typing, a)
            if at == sf.ftype and at in ct:
                continue
            if not is_subtype(ct, _class_of(ct, at, "argument", a.span), sf.ftype, a.span):
                raise TypingError(
                    ErrKind.ARG_SUBTYPE,
                    f"field {sf.name} of new {c} needs {sf.ftype}, got {at}",
                    a.span,
                )
        return c

    if t is Loc:
        l = e.loc
        if l not in store_typing:
            raise TypingError(ErrKind.UNKNOWN_LOCATION, f"location @{l} not in store typing", e.span)
        return store_typing[l]

    if t is Var:
        x = e.name
        if x not in env:
            raise TypingError(ErrKind.UNBOUND_VAR, f"unbound variable {x}", e.span)
        return env[x]

    if t is FieldAccess:
        f = e.fname
        c0 = type_expr(ct, env, store_typing, e.recv)
        info = ct.get(c0) or _class_of(ct, c0, "receiver", e.span)
        hit = info.fields.get(f)
        if hit is None:
            raise TypingError(ErrKind.UNKNOWN_FIELD, f"{c0} has no field {f}", e.span)
        return hit[1].ftype

    if t is Let:
        b = e.bound
        tb = type_expr(ct, env, store_typing, b)
        inner = dict(env)
        inner[e.var] = tb if tb in ct else _class_of(ct, tb, "bound expression", b.span)
        return type_expr(ct, inner, store_typing, e.body)

    if t is Seq:
        a = e.first
        ta = type_expr(ct, env, store_typing, a)
        if ta != UNIT:
            raise TypingError(
                ErrKind.SEQ_LEFT_NOT_UNIT,
                f"left arm of ';' must be Unit, got {ta}",
                a.span,
            )
        return type_expr(ct, env, store_typing, e.second)

    if t is Assign:
        f, v = e.fname, e.value
        c0 = type_expr(ct, env, store_typing, e.recv)
        info = ct.get(c0) or _class_of(ct, c0, "receiver", e.span)
        i, target = info.fields.get(f) or (None, None)
        if target is None:
            raise TypingError(ErrKind.UNKNOWN_FIELD, f"{c0} has no field {f}", e.span)
        if i is None:
            raise TypingError(
                ErrKind.ASSIGN_TO_COMPOSITE,
                f"{c0}.{f} is an initialized field and cannot be assigned",
                e.span,
            )
        vt = type_expr(ct, env, store_typing, v)
        if vt == target.ftype and vt in ct:
            return UNIT
        if not is_subtype(ct, _class_of(ct, vt, "assigned value", v.span), target.ftype, v.span):
            raise TypingError(
                ErrKind.ASSIGN_TYPE_MISMATCH,
                f"cannot assign {vt} to {c0}.{f} of type {target.ftype}",
                e.span,
            )
        return UNIT

    if t is Empty:
        return UNIT

    if t is Invoke:
        m, args = e.method, e.args
        c0 = type_expr(ct, env, store_typing, e.recv)
        info = ct.get(c0) or _class_of(ct, c0, "receiver", e.span)
        md = info.methods.get(m)
        if md is None:
            raise TypingError(ErrKind.UNKNOWN_METHOD, f"{c0} has no method {m}", e.span)
        if len(args) != len(md.params):
            raise TypingError(
                ErrKind.ARG_ARITY,
                f"{c0}.{m} takes {len(md.params)} arguments, got {len(args)}",
                e.span,
            )
        for a, p in zip(args, md.params):
            at = type_expr(ct, env, store_typing, a)
            if at == p.ptype and at in ct:
                continue
            if not is_subtype(ct, _class_of(ct, at, "argument", a.span), p.ptype, a.span):
                raise TypingError(
                    ErrKind.ARG_SUBTYPE, f"argument of type {at} where {p.ptype} expected", a.span
                )
        return md.ret

    if t is Subscribe:
        f, h = e.fname, e.handler
        c0 = type_expr(ct, env, store_typing, e.recv)
        info = ct.get(c0) or _class_of(ct, c0, "receiver", e.span)
        hit = info.fields.get(f)
        if hit is None:
            raise TypingError(ErrKind.UNKNOWN_FIELD, f"{c0} has no field {f}", e.span)
        if hit[1].modifier is not Modifier.SIGNAL:
            raise TypingError(
                ErrKind.SUBSCRIBE_ON_NON_SIGNAL,
                f"{c0}.{f} is not a signal field",
                e.span,
            )
        th = type_expr(ct, env, store_typing, h)
        if th != UNIT:
            raise TypingError(
                ErrKind.SUBSCRIBE_HANDLER_NOT_UNIT,
                f"handler must be Unit, got {th}",
                h.span,
            )
        return UNIT

    if t is EffectBrace:
        tb = type_expr(ct, env, store_typing, e.body)
        if tb != UNIT:
            raise TypingError(
                ErrKind.BRACE_BODY_NOT_UNIT,
                f"pending effect body must be Unit, got {tb}",
                e.span,
            )
        return UNIT

    raise ValueError(f"cannot type {e!r}")


def check_init(e: Expr) -> bool:
    """True iff e uses only variables, field reads, calls, and news.

    Such an expression can allocate but never assign, sequence, or
    subscribe, so re-evaluating a field initializer is observationally
    read-only on existing objects.
    """
    return all(isinstance(s, (Var, FieldAccess, Invoke, New)) for s in iter_subexprs(e))


def _known_type(ct: ClassTable, t: str, what: str, span, errors: list[TypingError], allow_unit: bool = False) -> bool:
    """Whether t is a class of ct, or Unit where allowed; if not, an error is recorded."""
    if (allow_unit and t == UNIT) or t in ct:
        return True
    errors.append(TypingError(ErrKind.UNKNOWN_CLASS_TYPE, f"{what} has unknown type {t}", span))
    return False


def check_class(ct: ClassTable, decl: ClassDecl) -> list[TypingError]:
    errors: list[TypingError] = []

    for cf in decl.composites:
        _known_type(ct, cf.ftype, f"field {decl.name}.{cf.name}", cf.span, errors)
        if cf.modifier is not Modifier.SIGNAL:
            errors.append(
                TypingError(
                    ErrKind.BAD_COMPOSITE_MODIFIER,
                    f"initialized field {decl.name}.{cf.name} must be declared signal",
                    cf.span,
                )
            )
    for sf in decl.sources:
        _known_type(ct, sf.ftype, f"field {decl.name}.{sf.name}", sf.span, errors)

    # Constructor: leading params must mirror every inherited source field
    # (the local half of the shape was already enforced at table build).
    inherited = ct[decl.parent].source
    k = decl.ctor
    super_part = k.params[: len(k.params) - len(decl.sources)]
    expected = [(sf.ftype, sf.name) for sf in inherited]
    if [(p.ptype, p.name) for p in super_part] != expected:
        errors.append(
            TypingError(
                ErrKind.CTOR_SHAPE,
                f"{decl.name} constructor must forward the {len(expected)}"
                f" inherited source field(s) of {decl.parent}",
                k.span,
            )
        )
    for p in k.params:
        _known_type(ct, p.ptype, f"constructor parameter {p.name}", k.span, errors)

    this_env = {"this": decl.name}
    for cf in decl.composites:
        if cf.ftype not in ct:
            continue  # already reported
        if not check_init(cf.init):
            errors.append(
                TypingError(
                    ErrKind.BAD_INITIALIZER,
                    f"initializer of {decl.name}.{cf.name} may only use variables,"
                    " field reads, calls, and new",
                    cf.span,
                )
            )
            continue
        try:
            t = type_expr(ct, this_env, {}, cf.init)
            if t == UNIT or not is_subtype(ct, t, cf.ftype):
                errors.append(
                    TypingError(
                        ErrKind.BAD_INITIALIZER,
                        f"initializer of {decl.name}.{cf.name} has type {t},"
                        f" expected a subtype of {cf.ftype}",
                        cf.span,
                    )
                )
        except TypingError as err:
            errors.append(
                TypingError(
                    ErrKind.BAD_INITIALIZER,
                    f"initializer of {decl.name}.{cf.name}: {err.message}",
                    cf.span,
                )
            )

    for m in decl.methods:
        known = [
            _known_type(ct, p.ptype, f"parameter {p.name} of {decl.name}.{m.name}", m.span, errors)
            for p in m.params
        ]
        known.append(
            _known_type(ct, m.ret, f"return type of {decl.name}.{m.name}", m.span, errors, allow_unit=True)
        )
        if not all(known):
            continue
        env = {p.name: p.ptype for p in m.params}
        env["this"] = decl.name
        try:
            t = type_expr(ct, env, {}, m.body)
            if not is_subtype(ct, t, m.ret, m.span):
                errors.append(
                    TypingError(
                        ErrKind.METHOD_BODY_TYPE,
                        f"body of {decl.name}.{m.name} has type {t},"
                        f" expected a subtype of {m.ret}",
                        m.span,
                    )
                )
        except TypingError as err:
            errors.append(err)

    return errors


@dataclass
class CheckReport:
    errors: list[TypingError]
    main_type: str | None

    @property
    def ok(self) -> bool:
        return not self.errors


def check_program(ct: ClassTable, program: Program) -> CheckReport:
    """Check every class and the main expression under empty contexts."""
    errors: list[TypingError] = []
    for decl in program.classes:
        errors.extend(check_class(ct, decl))
    main_type: str | None = None
    try:
        main_type = type_expr(ct, {}, {}, program.main)
    except TypingError as err:
        errors.append(err)
    return CheckReport(errors, main_type)
