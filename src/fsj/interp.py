"""Small-step interpreter for the calculus.

A machine state is (handlers, store, expr): the handler store maps
field keys (location, field name) to the accumulated handler expression
registered on that key, and the object store maps locations to (class,
field locations) records indexed like the class's uninitialized fields.
The only values are locations; `unit` is a terminal form but not a
value, so it can never be stored in a field or passed to a method.

Reduction is deterministic: subexpressions evaluate left to right
(receiver, then arguments; assignment receiver, then assigned value) and
no evaluation happens under the right arm of `;`, inside a subscribe
handler, or inside a let body.  The rules:

  R-FIELD       read an uninitialized field straight out of the store
  R-FIELDS      read an initialized field by re-evaluating its
                initializer with `this` bound to the receiver (a pull;
                the stores are untouched)
  R-INVK        call by substituting receiver and argument locations
  R-NEW         allocate a fresh location
  R-ASSIGN      write a plain uninitialized field, producing unit
  R-ASSIGNS     write a signal uninitialized field; the store is updated
                first and the handlers registered on that key are left
                pending inside a brace, so handlers observe the new value
  R-ASSIGNCONT  once a pending brace's body is unit, splice in the
                handlers of every initialized field downstream of the
                written key (a push)
  R-SUBSCRIBE   append a handler for a key, unevaluated
  R-CAT         drop a finished unit left of `;`
  R-LET         substitute the bound location into the body

`run` is the only loop that calls `step`.  The soundness oracles ride
along as per-step observers instead of stepping the machine themselves.
`mutations` deliberately breaks the machine for sensitivity testing of
the soundness oracles; production callers leave it empty.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from .classtable import ClassTable
from .syntax import (
    EMPTY,
    Assign,
    EffectBrace,
    Empty,
    Expr,
    FieldAccess,
    Invoke,
    Key,
    Let,
    Loc,
    Modifier,
    New,
    Seq,
    Subscribe,
    Var,
    render_expr,
)

DEFAULT_FUEL = 100_000

MUT_NO_THIS_SUBST = "fields-no-this-subst"
MUT_SWAP_ASSIGN = "swap-assign-dispatch"
MUTATIONS = frozenset({MUT_NO_THIS_SUBST, MUT_SWAP_ASSIGN})


@dataclass(frozen=True)
class StoredObject:
    cls: str
    fields: tuple[int, ...]  # locations, ordered like source(cls)


@dataclass
class MachineState:
    expr: Expr
    store: dict[int, StoredObject]
    handlers: dict[Key, Expr]
    next_loc: int = 0
    steps: int = 0


def initial_state(main: Expr) -> MachineState:
    return MachineState(main, {}, {})


def lookup_handler(handlers: dict[Key, Expr], key: Key) -> Expr:
    return handlers.get(key, EMPTY)


def _registrations(e: Expr) -> int:
    """Subscriptions in a handler chain: each one wrapped it in a left `Seq`."""
    n = 0
    while isinstance(e, Seq):
        n, e = n + 1, e.first
    return n


def is_terminal(e: Expr) -> bool:
    return isinstance(e, (Loc, Empty))


class StuckError(Exception):
    """No rule applies to a non-terminal expression.

    On well-typed programs this is unreachable; hitting it means the
    machine or the type system is wrong, which is exactly what the
    soundness harness probes for.
    """

    def __init__(self, state: MachineState):
        super().__init__(f"stuck after {state.steps} steps: {render_expr(state.expr)}")
        self.state = state


# =========================================================================
# substitution


def subst(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture is impossible because only closed values are substituted."""
    match e:
        case Var(name=x):
            return mapping.get(x, e)
        case FieldAccess(recv=r, fname=f):
            return FieldAccess(subst(r, mapping), f, span=e.span)
        case Invoke(recv=r, method=m, args=args):
            return Invoke(subst(r, mapping), m, tuple(subst(a, mapping) for a in args), span=e.span)
        case New(cls=c, args=args):
            return New(c, tuple(subst(a, mapping) for a in args), span=e.span)
        case Assign(recv=r, fname=f, value=v):
            return Assign(subst(r, mapping), f, subst(v, mapping), span=e.span)
        case Seq(first=a, second=b):
            return Seq(subst(a, mapping), subst(b, mapping), span=e.span)
        case Subscribe(recv=r, fname=f, handler=h):
            return Subscribe(subst(r, mapping), f, subst(h, mapping), span=e.span)
        case Let(var=x, bound=b, body=body):
            narrowed = {k: v for k, v in mapping.items() if k != x}
            return Let(x, subst(b, mapping), subst(body, narrowed), span=e.span)
        case EffectBrace(body=b, key=k):
            return EffectBrace(subst(b, mapping), k, span=e.span)
        case _:
            return e


# =========================================================================
# dependency tracking


def contains(e: Expr, key: Key) -> bool:
    """Syntactic test: does e read the field named by key?

    Only the expression itself is inspected; bodies of methods it calls
    are not unfolded.
    """
    match e:
        case FieldAccess(recv=Loc(loc=l), fname=f) if (l, f) == key:
            return True
        case FieldAccess(recv=r):
            return contains(r, key)
        case Invoke(recv=r, args=args):
            return contains(r, key) or any(contains(a, key) for a in args)
        case New(args=args):
            return any(contains(a, key) for a in args)
        case _:
            return False


def effect(ct: ClassTable, store: dict[int, StoredObject], key: Key) -> list[Key]:
    """Keys of every initialized field downstream of key.

    A field (l, g) is directly downstream of k when g's initializer,
    with `this` bound to l, reads k.  The result closes that relation
    transitively, is duplicate-free, never includes key itself unless a
    dependency cycle reaches back to it, and is ordered by location
    then by the field's position in its class's initialized-field list.
    """

    def direct(k: Key) -> list[tuple[Key, tuple[int, int]]]:
        out = []
        for l, obj in store.items():
            for i, cf in enumerate(ct.composite(obj.cls)):
                if contains(subst(cf.init, {"this": Loc(l)}), k):
                    out.append(((l, cf.name), (l, i)))
        return out

    found: dict[Key, tuple[int, int]] = {}
    frontier = [key]
    while frontier:
        k = frontier.pop(0)
        for sink, rank in direct(k):
            if sink not in found:
                found[sink] = rank
                frontier.append(sink)
    return [k for k, _ in sorted(found.items(), key=lambda kv: kv[1])]


def handlers_of(
    ct: ClassTable, handlers: dict[Key, Expr], store: dict[int, StoredObject], key: Key
) -> Expr:
    """Handlers registered downstream of key, joined right-to-left with `;`.

    Keys with no registration are skipped; with nothing registered
    anywhere downstream the result is unit.  Handlers on key itself are
    not included: the write that triggers the push splices those in
    directly.
    """
    pending = [handlers[k] for k in effect(ct, store, key) if k in handlers]
    if not pending:
        return EMPTY
    out = pending[-1]
    for h in reversed(pending[:-1]):
        out = Seq(h, out)
    return out


# =========================================================================
# trace events


@dataclass(frozen=True)
class TraceEvent:
    step: int
    kind: str  # step, alloc, plain-write, signal-write, handler-enqueue, subscribe
    rule: str | None = None
    expr: str | None = None
    loc: int | None = None
    fname: str | None = None
    cls: str | None = None
    old: int | None = None
    new: int | None = None
    count: int | None = None

    def _fields(self) -> list[tuple[str, object]]:
        pairs = [
            ("loc", self.loc),
            ("field", self.fname),
            ("cls", self.cls),
            ("old", self.old),
            ("new", self.new),
            ("count", self.count),
            ("expr", self.expr),
        ]
        return [(k, v) for k, v in pairs if v is not None]

    def to_line(self) -> str:
        head = f"rule={self.rule}" if self.kind == "step" else f"event={self.kind}"
        rest = " ".join(f"{k}={v}" for k, v in self._fields())
        return f"step={self.step} {head}" + (f" {rest}" if rest else "")

    def to_json(self) -> str:
        d: dict[str, object] = {"kind": self.kind, "step": self.step}
        if self.rule is not None:
            d["rule"] = self.rule
        d.update(self._fields())
        return json.dumps(d)


# =========================================================================
# one reduction step


@dataclass
class _Red:
    expr: Expr
    rule: str
    store: dict[int, StoredObject]
    handlers: dict[Key, Expr]
    next_loc: int
    events: list[TraceEvent]

    def wrap(self, rebuild) -> "_Red":
        self.expr = rebuild(self.expr)
        return self


@dataclass
class StepOutcome:
    state: MachineState
    rule: str
    events: list[TraceEvent]


def _reduce(ct: ClassTable, st: MachineState, e: Expr, mut: frozenset[str]) -> _Red | None:
    def unchanged(expr: Expr, rule: str, events=()) -> _Red:
        return _Red(expr, rule, st.store, st.handlers, st.next_loc, list(events))

    match e:
        case FieldAccess(recv=Loc(loc=l), fname=f):
            obj = st.store.get(l)
            if obj is None:
                return None
            for i, sf in enumerate(ct.source(obj.cls)):
                if sf.name == f:
                    return unchanged(Loc(obj.fields[i]), "R-FIELD")
            for cf in ct.composite(obj.cls):
                if cf.name == f:
                    if MUT_NO_THIS_SUBST in mut:
                        return unchanged(cf.init, "R-FIELDS")
                    return unchanged(subst(cf.init, {"this": Loc(l)}), "R-FIELDS")
            return None
        case FieldAccess(recv=r, fname=f):
            red = _reduce(ct, st, r, mut)
            return red and red.wrap(lambda r2: FieldAccess(r2, f, span=e.span))

        case Invoke(recv=Loc(loc=l) as recv, method=m, args=args):
            i = next((i for i, a in enumerate(args) if not isinstance(a, Loc)), None)
            if i is not None:
                red = _reduce(ct, st, args[i], mut)
                return red and red.wrap(
                    lambda a2: Invoke(recv, m, args[:i] + (a2,) + args[i + 1:], span=e.span)
                )
            obj = st.store.get(l)
            if obj is None:
                return None
            found = ct.mbody(m, obj.cls)
            if found is None:
                return None
            names, body = found
            if len(names) != len(args):
                return None
            mapping: dict[str, Expr] = dict(zip(names, args))
            mapping["this"] = recv
            return unchanged(subst(body, mapping), "R-INVK")
        case Invoke(recv=r, method=m, args=args):
            red = _reduce(ct, st, r, mut)
            return red and red.wrap(lambda r2: Invoke(r2, m, args, span=e.span))

        case New(cls=c, args=args):
            i = next((i for i, a in enumerate(args) if not isinstance(a, Loc)), None)
            if i is not None:
                red = _reduce(ct, st, args[i], mut)
                return red and red.wrap(
                    lambda a2: New(c, args[:i] + (a2,) + args[i + 1:], span=e.span)
                )
            if c not in ct or len(ct.source(c)) != len(args):
                return None
            l = st.next_loc
            store = dict(st.store)
            store[l] = StoredObject(c, tuple(a.loc for a in args))
            red = unchanged(Loc(l), "R-NEW", [TraceEvent(st.steps, "alloc", loc=l, cls=c)])
            red.store, red.next_loc = store, l + 1
            return red

        case Assign(recv=Loc(loc=l) as recv, fname=f, value=Loc(loc=v)):
            obj = st.store.get(l)
            if obj is None:
                return None
            hit = next(
                ((i, sf) for i, sf in enumerate(ct.source(obj.cls)) if sf.name == f), None
            )
            if hit is None:
                return None
            i, sf = hit
            old = obj.fields[i]
            store = dict(st.store)
            store[l] = StoredObject(obj.cls, obj.fields[:i] + (v,) + obj.fields[i + 1:])
            signal = sf.modifier is Modifier.SIGNAL
            if MUT_SWAP_ASSIGN in mut:
                signal = not signal
            if signal:
                key = (l, f)
                pending = lookup_handler(st.handlers, key)
                red = unchanged(
                    EffectBrace(pending, key),
                    "R-ASSIGNS",
                    [
                        TraceEvent(st.steps, "signal-write", loc=l, fname=f, old=old, new=v),
                        TraceEvent(
                            st.steps, "handler-enqueue", loc=l, fname=f,
                            count=_registrations(pending),
                        ),
                    ],
                )
            else:
                red = unchanged(
                    EMPTY, "R-ASSIGN", [TraceEvent(st.steps, "plain-write", loc=l, fname=f)]
                )
            red.store = store
            return red
        case Assign(recv=Loc() as recv, fname=f, value=v):
            red = _reduce(ct, st, v, mut)
            return red and red.wrap(lambda v2: Assign(recv, f, v2, span=e.span))
        case Assign(recv=r, fname=f, value=v):
            red = _reduce(ct, st, r, mut)
            return red and red.wrap(lambda r2: Assign(r2, f, v, span=e.span))

        case EffectBrace(body=Empty(), key=key):
            return unchanged(handlers_of(ct, st.handlers, st.store, key), "R-ASSIGNCONT")
        case EffectBrace(body=b, key=key):
            red = _reduce(ct, st, b, mut)
            return red and red.wrap(lambda b2: EffectBrace(b2, key, span=e.span))

        case Seq(first=Empty(), second=b):
            return unchanged(b, "R-CAT")
        case Seq(first=a, second=b):
            red = _reduce(ct, st, a, mut)
            return red and red.wrap(lambda a2: Seq(a2, b, span=e.span))

        case Subscribe(recv=Loc(loc=l), fname=f, handler=h):
            key = (l, f)
            handlers = dict(st.handlers)
            handlers[key] = Seq(lookup_handler(st.handlers, key), h)
            red = unchanged(EMPTY, "R-SUBSCRIBE", [TraceEvent(st.steps, "subscribe", loc=l, fname=f)])
            red.handlers = handlers
            return red
        case Subscribe(recv=r, fname=f, handler=h):
            red = _reduce(ct, st, r, mut)
            return red and red.wrap(lambda r2: Subscribe(r2, f, h, span=e.span))

        case Let(var=x, bound=Loc() as b, body=body):
            return unchanged(subst(body, {x: b}), "R-LET")
        case Let(var=x, bound=b, body=body):
            red = _reduce(ct, st, b, mut)
            return red and red.wrap(lambda b2: Let(x, b2, body, span=e.span))

        case _:
            # values, unit, and free variables have no reduction
            return None


def step(ct: ClassTable, st: MachineState, mutations: frozenset[str] = frozenset()) -> StepOutcome | None:
    """Perform one reduction; None if terminal, StuckError if wedged."""
    if is_terminal(st.expr):
        return None
    red = _reduce(ct, st, st.expr, mutations)
    if red is None:
        raise StuckError(st)
    new_state = MachineState(
        expr=red.expr,
        store=red.store,
        handlers=red.handlers,
        next_loc=red.next_loc,
        steps=st.steps + 1,
    )
    return StepOutcome(new_state, red.rule, red.events)


# =========================================================================
# driver


def pending_key(e: Expr) -> Key | None:
    """Key of the innermost brace on the active evaluation path."""
    found: Key | None = None
    while True:
        match e:
            case EffectBrace(body=b, key=k):
                found = k
                e = b
            case FieldAccess(recv=r) if not isinstance(r, Loc):
                e = r
            case Invoke(recv=r) if not isinstance(r, Loc):
                e = r
            case Invoke(args=args):
                nxt = next((a for a in args if not isinstance(a, Loc)), None)
                if nxt is None:
                    return found
                e = nxt
            case New(args=args):
                nxt = next((a for a in args if not isinstance(a, Loc)), None)
                if nxt is None:
                    return found
                e = nxt
            case Assign(recv=r) if not isinstance(r, Loc):
                e = r
            case Assign(value=v) if not isinstance(v, Loc):
                e = v
            case Seq(first=a) if not isinstance(a, Empty):
                e = a
            case Subscribe(recv=r) if not isinstance(r, Loc):
                e = r
            case Let(bound=b) if not isinstance(b, Loc):
                e = b
            case _:
                return found


@dataclass
class RunResult:
    status: str  # "terminal" | "fuel" | "stuck"
    state: MachineState
    trace: list[TraceEvent]
    pending: Key | None = None
    stuck_message: str | None = None
    violation: object = None  # the first one an observer returned

    @property
    def final(self) -> Expr:
        return self.state.expr


def run(
    ct: ClassTable,
    main: Expr,
    fuel: int = DEFAULT_FUEL,
    mutations: frozenset[str] = frozenset(),
    collect_trace: bool = True,
    observers: Sequence[Callable[[MachineState, StepOutcome, MachineState], object]] = (),
) -> RunResult:
    """Step main until it is terminal, stuck, or out of fuel.

    After every step each `observer(before, outcome, after)` is called in
    order, until one returns a violation (anything but None).  From then
    on the machine runs on unobserved, so the final status never depends
    on the observers.  While they listen, `before` holds its own copies
    of both stores, so a step that changed a store in place still shows.
    """
    st = initial_state(main)
    trace: list[TraceEvent] = []
    violation = None
    while st.steps < fuel:
        watching = observers and violation is None
        if watching:
            before = replace(st, store=dict(st.store), handlers=dict(st.handlers))
        try:
            out = step(ct, st, mutations)
        except StuckError as err:
            return RunResult("stuck", st, trace, stuck_message=str(err), violation=violation)
        if out is None:
            return RunResult("terminal", st, trace, violation=violation)
        if collect_trace:
            trace.append(
                TraceEvent(st.steps, "step", rule=out.rule, expr=render_expr(out.state.expr))
            )
            trace.extend(out.events)
        if watching:
            for observe in observers:
                violation = observe(before, out, out.state)
                if violation is not None:
                    break
        st = out.state
    if is_terminal(st.expr):
        return RunResult("terminal", st, trace, violation=violation)
    return RunResult("fuel", st, trace, pending=pending_key(st.expr), violation=violation)


def chain_depth(store: dict[int, StoredObject], l: int) -> int:
    """Length of the first-field chain from l down to a fieldless object.

    On unary constructor encodings of numbers this decodes the numeral:
    a Zero-like object gives 0 and each wrapper adds 1.
    """
    depth = 0
    seen = set()
    while True:
        obj = store.get(l)
        if obj is None or not obj.fields or l in seen:
            return depth
        seen.add(l)
        l = obj.fields[0]
        depth += 1
