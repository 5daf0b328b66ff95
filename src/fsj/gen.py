"""Seeded random program generation for the soundness campaign.

Programs are built in staged passes so they are well typed by
construction, which the test suite re-verifies rather than trusts:

  1. class skeletons: an acyclic hierarchy where every uninitialized
     field's type refers to a strictly earlier class, so every class is
     constructible from ground `new` chains;
  2. methods: bodies built from parameters, field reads, lets, and news.
     Bodies never call methods, because they are drawn against the
     skeleton table, which lists none, so calls always terminate;
  3. initialized fields: initializers read uninitialized fields, call
     the (call-free) methods, and allocate.  They never read other
     initialized fields, so pulls never cycle;
  4. a main expression: a let/sequence chain of allocations, reads,
     calls, writes, and subscriptions over the generated classes.

Handlers only write plain fields unless `handlers_write_signals` is
set, so a default campaign never cascades pushes and always terminates
inside a modest fuel budget.  Same seed, same program.

`generate_program` builds one class table, from pass 1's skeletons,
and hands it back with the program.  `classtable.refresh` resolves its
records again after pass 2 adds methods and after pass 3 adds
initialized fields, so the table equals a fresh `build_class_table` of
the program, and a caller needs no second build.

`shrink` minimizes a failing program greedily.  Its moves, in the order
they are tried: delete a class that no class extends; delete one
initialized field, method or uninitialized field, class by class;
replace one node of the main expression, in pre-order, by one of its
subterms, left to right, or by unit.  Each move drops a class, a member
or a node, so every candidate is strictly smaller by `_size` and the
search ends without comparing sizes.  No parent class is deleted, since
its child would then extend a missing class and no table would build.
The first candidate that still fails becomes the program, and the moves
start over; at most MAX_SHRINK_CHECKS candidates are tried in all.  A
candidate shares every declaration, member list and node it keeps: a
deletion is a list slice, only the class that lost a member is a new
record (every class, when an uninitialized field goes), and a main
shrink rebuilds only the spine above the node it replaced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .classtable import ClassTable, build_class_table, refresh
from .syntax import (
    EMPTY,
    OBJECT,
    UNIT,
    Assign,
    ClassDecl,
    CompositeField,
    CtorDecl,
    Expr,
    FieldAccess,
    Invoke,
    Let,
    MethodDecl,
    Modifier,
    New,
    Param,
    Program,
    Seq,
    SourceField,
    Subscribe,
    Var,
    children,
    iter_subexprs,
    with_child,
)
from .typecheck import is_subtype

_CLASS_NAMES = ["A", "B", "C", "D", "E", "F", "G", "H", "J", "K", "L", "M"]

MAX_CLASSES = 4
MAX_FIELDS_PER_CLASS = 2  # bounds the uninitialized and, apart, the initialized fields
MAX_METHODS_PER_CLASS = 2
MAX_METHOD_DEPTH = 3
MAX_MAIN_DEPTH = 7
SIGNAL_PROBABILITY = 0.6  # of an uninitialized field; initialized ones are all signal
MAX_SHRINK_CHECKS = 300


@dataclass(frozen=True)
class GenConfig:
    """The settings a campaign may vary; the shape bounds above are fixed."""

    subscribe_probability: float = 0.5
    handlers_write_signals: bool = False
    seed: int = 0


def _ground_new(ct: ClassTable, cls: str) -> Expr:
    return New(cls, tuple(_ground_new(ct, sf.ftype) for sf in ct[cls].source))


def _pure_expr(
    rng: random.Random,
    ct: ClassTable,
    subs: dict[str, list[str]],
    env: dict[str, str],
    target: str,
    depth: int,
) -> Expr:
    """An expression of a subtype of target, built without side effects.

    The candidates are listed as descriptors and only the picked one is
    built, so a node is allocated only for what the program keeps."""
    options: list[tuple] = []
    for x, t in env.items():
        if is_subtype(ct, t, target):
            options += [("var", x)] * 2
        for sf in ct[t].source:
            if is_subtype(ct, sf.ftype, target):
                options += [("read", x, sf.name)] * 3
    if depth > 0:
        options += [("new",)] * 2
        for x, t in env.items():
            for m in ct[t].methods.values():
                if m.ret != UNIT and is_subtype(ct, m.ret, target):
                    options.append(("call", x, m))
    if not options:
        return _ground_new(ct, rng.choice(subs[target]))
    match rng.choice(options):
        case ("var", x):
            return Var(x)
        case ("read", x, f):
            return FieldAccess(Var(x), f)
        case ("new",):
            cls = rng.choice(subs[target])
            return New(
                cls,
                tuple(
                    _pure_expr(rng, ct, subs, env, sf.ftype, depth - 1)
                    for sf in ct[cls].source
                ),
            )
        case ("call", x, m):
            return Invoke(
                Var(x),
                m.name,
                tuple(
                    _pure_expr(rng, ct, subs, env, p.ptype, depth - 1)
                    for p in m.params
                ),
            )


def _chain_sources(by_name: dict[str, ClassDecl], cls: str) -> list[SourceField]:
    """The uninitialized fields cls declares or inherits, topmost class
    first.  A class missing from by_name, such as Object or one the
    shrinker dropped, contributes none and ends the chain."""
    d = by_name.get(cls)
    if d is None:
        return []
    return _chain_sources(by_name, d.parent) + list(d.sources)


def generate_program(cfg: GenConfig) -> tuple[Program, ClassTable]:
    """The program for cfg.seed, and the class table built for its main
    expression, which equals `build_class_table` of the program."""
    rng = random.Random(cfg.seed)
    names = _CLASS_NAMES[: rng.randint(0, MAX_CLASSES)]
    fresh_field = iter(f"f{i}" for i in range(10_000))
    fresh_method = iter(f"m{i}" for i in range(10_000))

    # pass 1: hierarchy, uninitialized fields, canonical constructors
    decls: list[ClassDecl] = []
    for i, name in enumerate(names):
        parent = rng.choice([OBJECT] + names[:i])
        sources = []
        for _ in range(rng.randint(0, MAX_FIELDS_PER_CLASS)):
            mod = Modifier.SIGNAL if rng.random() < SIGNAL_PROBABILITY else Modifier.PLAIN
            sources.append(SourceField(mod, rng.choice([OBJECT] + names[:i]), next(fresh_field)))
        decls.append(ClassDecl(name, parent, [], sources, None, []))  # type: ignore[arg-type]
    decls = _rebuild_ctors(decls)

    ct = build_class_table(Program(decls, EMPTY))
    universe = [OBJECT] + names
    subs = {t: [c for c in universe if is_subtype(ct, c, t)] for t in universe}

    # pass 2: method bodies, call-free since the table lists no methods yet
    for decl in decls:
        for _ in range(rng.randint(0, MAX_METHODS_PER_CLASS)):
            params = [
                Param(rng.choice(universe), f"x{j}")
                for j in range(rng.randint(0, 2))
            ]
            env = {p.name: p.ptype for p in params}
            env["this"] = decl.name
            if rng.random() < 0.15:
                body: Expr = EMPTY
                if rng.random() < 0.5 and universe:
                    t = rng.choice(universe)
                    body = Let(
                        "y",
                        _pure_expr(rng, ct, subs, env, t, 1),
                        EMPTY,
                    )
                decl.methods.append(MethodDecl(UNIT, next(fresh_method), params, body))
            else:
                ret = rng.choice(universe)
                body = _pure_expr(rng, ct, subs, env, ret, MAX_METHOD_DEPTH)
                decl.methods.append(MethodDecl(ret, next(fresh_method), params, body))

    # pass 3: initializers; biased toward reading this class's own state.
    # The table is a snapshot, so its records are resolved again to see
    # pass 2's methods, and once more for pass 3's own fields.
    refresh(ct, decls)
    for decl in decls:
        for _ in range(rng.randint(0, MAX_FIELDS_PER_CLASS)):
            env = {"this": decl.name}
            visible = ct[decl.name].source
            if visible and rng.random() < 0.7:
                sf = rng.choice(visible)
                ftype, init = sf.ftype, FieldAccess(Var("this"), sf.name)
            else:
                ftype = rng.choice(universe)
                init = _pure_expr(rng, ct, subs, env, ftype, 2)
            decl.composites.append(
                CompositeField(Modifier.SIGNAL, ftype, next(fresh_field), init)
            )
    refresh(ct, decls)
    return Program(decls, _gen_main(rng, cfg, ct, universe, subs)), ct


def _gen_main(
    rng: random.Random,
    cfg: GenConfig,
    ct: ClassTable,
    universe: list[str],
    subs: dict[str, list[str]],
) -> Expr:
    env: dict[str, str] = {}
    counter = iter(f"v{i}" for i in range(10_000))
    preferred = [c for c in universe if c != OBJECT and ct[c].source] or universe
    # Each variable's reads, calls, writes and signals, in binding order.
    # Bindings are never undone, so `bind` extends these once per variable.
    reads: list[tuple[str, CompositeField | SourceField]] = []
    calls: list[tuple[str, MethodDecl]] = []
    writes: list[tuple[str, SourceField]] = []
    signals: list[tuple[str, str]] = []

    def bind(x: str, t: str) -> None:
        env[x] = t
        fields = (*ct[t].source, *ct[t].composite)
        reads.extend((x, f) for f in fields)
        calls.extend((x, m) for m in ct[t].methods.values())
        writes.extend((x, sf) for sf in ct[t].source)
        signals.extend((x, f.name) for f in fields if f.modifier is Modifier.SIGNAL)

    def value(target: str, depth: int) -> Expr:
        return _pure_expr(rng, ct, subs, env, target, depth)

    def handler(depth: int = 1) -> Expr:
        writable = [
            (x, sf)
            for x, sf in writes
            if sf.modifier is Modifier.PLAIN or cfg.handlers_write_signals
        ]
        options = ["unit"]
        if writable:
            options += ["write"] * 3
        if depth > 0:
            options.append("pair")
        pick = rng.choice(options)
        if pick == "write":
            x, sf = rng.choice(writable)
            return Assign(Var(x), sf.name, value(sf.ftype, 1))
        if pick == "pair":
            return Seq(handler(depth - 1), handler(depth - 1))
        return EMPTY

    def final() -> Expr:
        options = [("unit",), *[("var", x) for x in env] * 2]
        options += [("read", x, f.name) for x, f in reads] * 2
        match rng.choice(options):
            case ("var", x):
                return Var(x)
            case ("read", x, f):
                return FieldAccess(Var(x), f)
        return EMPTY

    def go(budget: int) -> Expr:
        if budget <= 0:
            return final()
        options = ["new", "new"]
        if reads:
            options += ["read"] * 2
        if calls:
            options.append("call")
        if writes:
            options += ["write"] * 3
        if signals and rng.random() < cfg.subscribe_probability:
            options += ["subscribe"] * 2
        pick = rng.choice(options)
        if pick == "new":
            cls = rng.choice(preferred)
            bound = New(cls, tuple(value(sf.ftype, 2) for sf in ct[cls].source))
            v = next(counter)
            bind(v, cls)
            return Let(v, bound, go(budget - 1))
        if pick == "read":
            x, f = rng.choice(reads)
            v = next(counter)
            bind(v, f.ftype)
            return Let(v, FieldAccess(Var(x), f.name), go(budget - 1))
        if pick == "call":
            x, m = rng.choice(calls)
            args = tuple(value(p.ptype, 1) for p in m.params)
            if m.ret == UNIT:
                return Seq(Invoke(Var(x), m.name, args), go(budget - 1))
            v = next(counter)
            bind(v, m.ret)
            return Let(v, Invoke(Var(x), m.name, args), go(budget - 1))
        if pick == "write":
            x, sf = rng.choice(writes)
            return Seq(Assign(Var(x), sf.name, value(sf.ftype, 2)), go(budget - 1))
        x, f = rng.choice(signals)
        return Seq(Subscribe(Var(x), f, handler()), go(budget - 1))

    return go(rng.randint(1, MAX_MAIN_DEPTH))


# =========================================================================
# shrinking


def _rebuild_ctors(classes: list[ClassDecl]) -> list[ClassDecl]:
    """The classes as new records, each with the canonical constructor for
    its fields; the records passed in are left as they were."""
    by_name = {d.name: d for d in classes}
    out = []
    for d in classes:
        inherited = _chain_sources(by_name, d.parent)
        ctor = CtorDecl(
            d.name,
            [Param(sf.ftype, sf.name) for sf in inherited + list(d.sources)],
            [sf.name for sf in inherited],
            [(sf.name, sf.name) for sf in d.sources],
        )
        out.append(ClassDecl(d.name, d.parent, d.composites, d.sources, ctor, d.methods, d.span))
    return out


def _expr_shrinks(e: Expr):
    """e's subterms, left to right, then unit; nothing for a leaf.  Each
    is strictly smaller than e, and typing is left to the predicate."""
    kids = children(e)
    if kids:
        yield from kids
        yield EMPTY


def _main_shrinks(e: Expr):
    """e with one node replaced by one of its `_expr_shrinks`, nodes taken
    in pre-order; each result shares every subterm off the rebuilt spine."""
    yield from _expr_shrinks(e)
    for i, c in enumerate(children(e)):
        for smaller in _main_shrinks(c):
            yield with_child(e, i, smaller)


def _size(p: Program) -> int:
    n = sum(1 for _ in iter_subexprs(p.main)) + 8 * len(p.classes)
    for d in p.classes:
        n += 2 * (len(d.sources) + len(d.methods))
        for cf in d.composites:
            n += 2 + sum(1 for _ in iter_subexprs(cf.init))
        for m in d.methods:
            n += sum(1 for _ in iter_subexprs(m.body))
    return n


def _candidates(p: Program):
    classes, main = p.classes, p.main
    parents = {d.parent for d in classes}
    for i, d in enumerate(classes):
        if d.name not in parents:
            yield Program(classes[:i] + classes[i + 1:], main)
    for i, d in enumerate(classes):
        head, tail = classes[:i], classes[i + 1:]
        for attr in ("composites", "methods", "sources"):
            members = getattr(d, attr)
            for j in range(len(members)):
                cut = head + [replace(d, **{attr: members[:j] + members[j + 1:]})] + tail
                yield Program(_rebuild_ctors(cut) if attr == "sources" else cut, main)
    for smaller in _main_shrinks(main):
        yield Program(classes, smaller)


def shrink(program: Program, predicate) -> Program:
    """Greedy structural minimization of a failing program.

    predicate(q) must be True when q still exhibits the original
    failure; candidates that break typing simply fail the predicate,
    and one that raises counts as not failing.  Every candidate is
    strictly smaller than the program it came from (see the module
    docstring), and at most MAX_SHRINK_CHECKS are tried in all.  program
    is never changed: the result shares what it keeps with it.
    """
    current = program
    checks = 0
    improved = True
    while improved and checks < MAX_SHRINK_CHECKS:
        improved = False
        for cand in _candidates(current):
            checks += 1
            if checks > MAX_SHRINK_CHECKS:
                break
            try:
                ok = predicate(cand)
            except Exception:
                ok = False
            if ok:
                current = cand
                improved = True
                break
    return current
