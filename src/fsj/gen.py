"""Seeded random program generation for the soundness campaign.

Programs are built in staged passes so they are well typed by
construction, which the test suite re-verifies rather than trusts:

  1. class skeletons: an acyclic hierarchy where every uninitialized
     field's type refers to a strictly earlier class, so every class is
     constructible from ground `new` chains;
  2. methods: bodies built from parameters, field reads, lets, and news.
     Bodies never call methods, so calls always terminate;
  3. initialized fields: initializers read uninitialized fields, call
     the (call-free) methods, and allocate.  They never read other
     initialized fields, so pulls never cycle;
  4. a main expression: a let/sequence chain of allocations, reads,
     calls, writes, and subscriptions over the generated classes.

Handlers only write plain fields unless `handlers_write_signals` is
set, so a default campaign never cascades pushes and always terminates
inside a modest fuel budget.  Same seed, same program.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

from .classtable import ClassTable, build_class_table
from .syntax import (
    EMPTY,
    OBJECT,
    UNIT,
    Assign,
    ClassDecl,
    CompositeField,
    CtorDecl,
    Empty,
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


@dataclass(frozen=True)
class GenConfig:
    max_classes: int = 4
    max_fields_per_class: int = 2
    max_methods_per_class: int = 2
    max_method_depth: int = 3
    max_main_depth: int = 7
    signal_probability: float = 0.6
    subscribe_probability: float = 0.5
    handlers_write_signals: bool = False
    seed: int = 0


def _ground_new(ct: ClassTable, cls: str) -> Expr:
    return New(cls, tuple(_ground_new(ct, sf.ftype) for sf in ct.source(cls)))


def _pure_expr(
    rng: random.Random,
    ct: ClassTable,
    subs: dict[str, list[str]],
    env: dict[str, str],
    target: str,
    depth: int,
    allow_calls: bool,
) -> Expr:
    """An expression of a subtype of target, built without side effects."""
    options: list[Expr | str] = []
    for x, t in env.items():
        if is_subtype(ct, t, target):
            options += [Var(x)] * 2
        for sf in ct.source(t):
            if is_subtype(ct, sf.ftype, target):
                options += [FieldAccess(Var(x), sf.name)] * 3
    if depth > 0:
        options += ["new"] * 2
        if allow_calls:
            for x, t in env.items():
                for m in ct.info(t).methods.values():
                    if m.ret != UNIT and is_subtype(ct, m.ret, target):
                        options.append(("call", x, m))  # type: ignore[arg-type]
    if not options:
        return _ground_new(ct, rng.choice(subs[target]))
    pick = rng.choice(options)
    if pick == "new":
        cls = rng.choice(subs[target])
        return New(
            cls,
            tuple(
                _pure_expr(rng, ct, subs, env, sf.ftype, depth - 1, allow_calls)
                for sf in ct.source(cls)
            ),
        )
    if isinstance(pick, tuple):
        _, x, m = pick
        return Invoke(
            Var(x),
            m.name,
            tuple(
                _pure_expr(rng, ct, subs, env, p.ptype, depth - 1, allow_calls)
                for p in m.params
            ),
        )
    return pick


def _chain_sources(by_name: dict[str, ClassDecl], cls: str) -> list[SourceField]:
    """The uninitialized fields cls declares or inherits, topmost class
    first.  A class missing from by_name, such as Object or one the
    shrinker dropped, contributes none and ends the chain."""
    d = by_name.get(cls)
    if d is None:
        return []
    return _chain_sources(by_name, d.parent) + list(d.sources)


def generate_program(cfg: GenConfig) -> Program:
    rng = random.Random(cfg.seed)
    names = _CLASS_NAMES[: rng.randint(0, cfg.max_classes)]
    fresh_field = iter(f"f{i}" for i in range(10_000))
    fresh_method = iter(f"m{i}" for i in range(10_000))

    # pass 1: hierarchy, uninitialized fields, canonical constructors
    decls: list[ClassDecl] = []
    for i, name in enumerate(names):
        parent = rng.choice([OBJECT] + names[:i])
        sources = []
        for _ in range(rng.randint(0, cfg.max_fields_per_class)):
            mod = Modifier.SIGNAL if rng.random() < cfg.signal_probability else Modifier.PLAIN
            sources.append(SourceField(mod, rng.choice([OBJECT] + names[:i]), next(fresh_field)))
        decls.append(ClassDecl(name, parent, [], sources, None, []))  # type: ignore[arg-type]
    _rebuild_ctors(decls)

    skeleton = build_class_table(Program(decls, EMPTY))
    universe = [OBJECT] + names
    subs = {t: [c for c in universe if is_subtype(skeleton, c, t)] for t in universe}

    # pass 2: call-free method bodies
    for decl in decls:
        for _ in range(rng.randint(0, cfg.max_methods_per_class)):
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
                        _pure_expr(rng, skeleton, subs, env, t, 1, allow_calls=False),
                        EMPTY,
                    )
                decl.methods.append(MethodDecl(UNIT, next(fresh_method), params, body))
            else:
                ret = rng.choice(universe)
                body = _pure_expr(
                    rng, skeleton, subs, env, ret, cfg.max_method_depth, allow_calls=False
                )
                decl.methods.append(MethodDecl(ret, next(fresh_method), params, body))

    # pass 3: initializers; biased toward reading this class's own state.
    # The table is a snapshot, so it is rebuilt to see pass 2's methods.
    with_methods = build_class_table(Program(decls, EMPTY))
    for decl in decls:
        for _ in range(rng.randint(0, cfg.max_fields_per_class)):
            env = {"this": decl.name}
            visible = with_methods.source(decl.name)
            if visible and rng.random() < 0.7:
                sf = rng.choice(visible)
                ftype, init = sf.ftype, FieldAccess(Var("this"), sf.name)
            else:
                ftype = rng.choice(universe)
                init = _pure_expr(rng, with_methods, subs, env, ftype, 2, allow_calls=True)
            decl.composites.append(
                CompositeField(Modifier.SIGNAL, ftype, next(fresh_field), init)
            )

    ct = build_class_table(Program(decls, EMPTY))
    main = _gen_main(rng, cfg, ct, universe, subs)
    return Program(decls, main)


def _gen_main(
    rng: random.Random,
    cfg: GenConfig,
    ct: ClassTable,
    universe: list[str],
    subs: dict[str, list[str]],
) -> Expr:
    env: dict[str, str] = {}
    counter = iter(f"v{i}" for i in range(10_000))

    def value(target: str, depth: int) -> Expr:
        return _pure_expr(rng, ct, subs, env, target, depth, allow_calls=True)

    def handler(depth: int = 1) -> Expr:
        writable = [
            (x, sf)
            for x, t in env.items()
            for sf in ct.source(t)
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
        reads = [
            (x, f.name)
            for x, t in env.items()
            for f in (*ct.source(t), *ct.composite(t))
        ]
        options: list[Expr] = [EMPTY]
        options += [Var(x) for x in env] * 2
        options += [FieldAccess(Var(x), f) for x, f in reads] * 2
        return rng.choice(options)

    def go(budget: int) -> Expr:
        if budget <= 0:
            return final()
        options = ["new", "new"]
        reads = [
            (x, f.name, f.ftype)
            for x, t in env.items()
            for f in (*ct.source(t), *ct.composite(t))
        ]
        calls = [
            (x, m) for x, t in env.items() for m in ct.info(t).methods.values()
        ]
        writes = [(x, sf) for x, t in env.items() for sf in ct.source(t)]
        signals = [
            (x, f.name)
            for x, t in env.items()
            for f in (*ct.source(t), *ct.composite(t))
            if f.modifier is Modifier.SIGNAL
        ]
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
            preferred = [c for c in universe if c != OBJECT and ct.source(c)]
            cls = rng.choice(preferred or universe)
            bound = New(cls, tuple(value(sf.ftype, 2) for sf in ct.source(cls)))
            v = next(counter)
            env[v] = cls
            return Let(v, bound, go(budget - 1))
        if pick == "read":
            x, f, ftype = rng.choice(reads)
            v = next(counter)
            body_env_type = ftype
            bound = FieldAccess(Var(x), f)
            env[v] = body_env_type
            return Let(v, bound, go(budget - 1))
        if pick == "call":
            x, m = rng.choice(calls)
            args = tuple(value(p.ptype, 1) for p in m.params)
            if m.ret == UNIT:
                return Seq(Invoke(Var(x), m.name, args), go(budget - 1))
            v = next(counter)
            env[v] = m.ret
            return Let(v, Invoke(Var(x), m.name, args), go(budget - 1))
        if pick == "write":
            x, sf = rng.choice(writes)
            return Seq(Assign(Var(x), sf.name, value(sf.ftype, 2)), go(budget - 1))
        x, f = rng.choice(signals)
        return Seq(Subscribe(Var(x), f, handler()), go(budget - 1))

    return go(rng.randint(1, max(1, cfg.max_main_depth)))


# =========================================================================
# shrinking


def _rebuild_ctors(classes: list[ClassDecl]) -> None:
    """Give each class the canonical constructor for its fields."""
    by_name = {d.name: d for d in classes}
    for d in classes:
        inherited = _chain_sources(by_name, d.parent)
        d.ctor = CtorDecl(
            d.name,
            [Param(sf.ftype, sf.name) for sf in inherited + list(d.sources)],
            [sf.name for sf in inherited],
            [(sf.name, sf.name) for sf in d.sources],
        )


def _replace_at(e: Expr, path: tuple[int, ...], new: Expr) -> Expr:
    if not path:
        return new
    child = children(e)[path[0]]
    return with_child(e, path[0], _replace_at(child, path[1:], new))


def _paths(e: Expr, prefix: tuple[int, ...] = ()):
    yield prefix, e
    for i, c in enumerate(children(e)):
        yield from _paths(c, prefix + (i,))


def _expr_shrinks(e: Expr):
    """Smaller replacements for a node, soundness left to the predicate."""
    match e:
        case Seq(first=a, second=b):
            yield a
            yield b
        case Let(var=x, bound=b, body=body):
            if not any(isinstance(s, Var) and s.name == x for s in iter_subexprs(body)):
                yield body
            yield b
        case Subscribe(handler=h):
            if not isinstance(h, Empty):
                yield Subscribe(e.recv, e.fname, EMPTY, span=e.span)
            yield EMPTY
        case Assign():
            yield EMPTY
        case Invoke(recv=r):
            yield r
        case FieldAccess(recv=r):
            yield r


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
    for i in range(len(p.classes)):
        q = copy.deepcopy(p)
        del q.classes[i]
        _rebuild_ctors(q.classes)
        yield q
    for i, d in enumerate(p.classes):
        for j in range(len(d.composites)):
            q = copy.deepcopy(p)
            del q.classes[i].composites[j]
            yield q
        for j in range(len(d.methods)):
            q = copy.deepcopy(p)
            del q.classes[i].methods[j]
            yield q
        for j in range(len(d.sources)):
            q = copy.deepcopy(p)
            del q.classes[i].sources[j]
            _rebuild_ctors(q.classes)
            yield q
    for path, node in _paths(p.main):
        for smaller in _expr_shrinks(node):
            q = copy.deepcopy(p)
            q.main = _replace_at(q.main, path, smaller)
            yield q


def shrink(program: Program, predicate, max_checks: int = 300) -> Program:
    """Greedy structural minimization of a failing program.

    predicate(q) must be True when q still exhibits the original
    failure; candidates that break typing simply fail the predicate.
    """
    current = program
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        for cand in _candidates(current):
            checks += 1
            if checks > max_checks:
                break
            if _size(cand) >= _size(current):
                continue
            try:
                ok = predicate(cand)
            except Exception:
                ok = False
            if ok:
                current = cand
                improved = True
                break
    return current
