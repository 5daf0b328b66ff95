"""Small-step interpreter for the calculus.

A machine state is (handlers, store, expr): the handler store maps
field keys (location, field name) to the accumulated handler expression
registered on that key, and the object store maps locations to (class,
field locations) records indexed like the class's uninitialized fields.
The only values are locations; `unit` is a terminal form but not a
value, so it can never be stored in a field or passed to a method.
A step writes both stores in place: the state it returns shares both
dicts with the state it came from, which is current only until it is
stepped.  `run` copies the stores only for its observers.

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

The expression is held decomposed, as a focus plus the evaluation
context around it.  The context is a persistent stack of frames,
innermost first, each naming a node and the subterm slot being
evaluated in it; frames never change, so states share their stacks and
a snapshot copies no part of the expression.  A step contracts the
focus and refocuses from the contractum only (Danvy and Nielsen's
refocusing): it walks down into the contractum or, when that is a
location or unit, plugs it into the innermost frame and carries on from
that node, until it reaches the next redex.  Neither part depends on
how deep the focus sits, and neither walks the context by recursion.
Both, like `syntax.with_child` and `syntax.subst` that they call, read
the node's exact type once and branch on it in an if-chain, the most
frequent node type first; `match` with class patterns would pay an
`isinstance` and attribute reads for every case it tries.  `_contract`
calls `subst` and `handlers_of`, and `handlers_of` calls `effect`,
through this module's globals, so a wrapper installed at one of those
attributes sees every call.
`MachineState.expr` plugs the focus back into its context when someone
asks for the whole expression (traces, stuck reports and final results),
and the innermost brace around the focus is the pending key a fuel-cut
run reports.

A step records its allocation, write or subscription as a note, a plain
tuple of the values at step time, and `StepOutcome.events` turns notes
into `TraceEvent`s only when someone reads them, so an untraced run
builds no events and never counts a handler chain.

Which initialized fields a write reaches is read off a table the class
table computes once per class (`ClassTable.downstream`), since a checked
initializer only reads through `this`.

`run` is the only loop that calls `step`.  The soundness oracles ride
along as per-step observers instead of stepping the machine themselves.
`mutations` deliberately breaks the machine for sensitivity testing of
the soundness oracles; production callers leave it empty.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

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
    render_expr,
    subst,
    with_child,
)

DEFAULT_FUEL = 100_000

MUT_NO_THIS_SUBST = "fields-no-this-subst"
MUT_SWAP_ASSIGN = "swap-assign-dispatch"
MUTATIONS = frozenset({MUT_NO_THIS_SUBST, MUT_SWAP_ASSIGN})

# An evaluation context: None when empty, else (node, slot, outer), where
# node's subterm number `slot`, counted as `syntax.children` lists them (in
# evaluation order), is the hole; `syntax.with_child` plugs it.
Stack = Optional[Tuple[Expr, int, "Stack"]]


@dataclass(frozen=True)
class StoredObject:
    cls: str
    fields: tuple[int, ...]  # locations, ordered like source(cls)


def _first_open(args: tuple[Expr, ...]) -> int | None:
    """Index of the first argument that is not yet a location."""
    for i, a in enumerate(args):
        if not isinstance(a, Loc):
            return i
    return None


def _refocus(e: Expr, k: Stack) -> tuple[Expr, Stack]:
    """Decompose e, sitting in context k, down to the next redex.

    Descends along the evaluation order, pushing one frame per node, and
    on reaching a location or unit plugs it into the innermost frame and
    carries on from that node.  Stops at the first node with no subterm
    left to evaluate: a redex, a stuck node (no rule will contract it,
    which includes a node whose next subterm is a finished form of the
    wrong kind, such as a location left of `;`), or, with the context
    used up, a terminal.  Dispatch is on the exact node type, most
    frequent first; each branch picks the subterm to evaluate next, and
    a subterm that is already a location or unit ends the descent.
    """
    while True:
        t = type(e)
        if t is Loc or t is Empty:
            if k is None:
                return e, None
            node, slot, k = k
            e = with_child(node, slot, e)
            continue
        if t is New:
            slot = _first_open(e.args)
            if slot is None:
                return e, k
            c = e.args[slot]
        elif t is Assign:
            c, slot = e.recv, 0
            if type(c) is Loc:
                c, slot = e.value, 1
        elif t is Seq:
            c, slot = e.first, 0
        elif t is EffectBrace:
            c, slot = e.body, 0
        elif t is Invoke:
            c, slot = e.recv, 0
            if type(c) is Loc:
                i = _first_open(e.args)
                if i is None:
                    return e, k
                c, slot = e.args[i], i + 1
        elif t is Let:
            c, slot = e.bound, 0
        elif t is FieldAccess or t is Subscribe:
            c, slot = e.recv, 0
        else:
            return e, k
        t = type(c)
        if t is Loc or t is Empty:
            return e, k
        k = (e, slot, k)
        e = c


class MachineState:
    """A configuration: the two stores, and the expression as a focus in
    its evaluation context.

    `MachineState(expr, store, handlers, next_loc, steps)` decomposes a
    whole expression; given a `stack`, expr is taken to sit in that
    context instead.  Either way the focus ends up a redex, a stuck
    node, or a terminal with an empty stack, so the state is terminal
    exactly when its focus is.  Stepping the state writes `store` and
    `handlers` in place, and the next state holds the very same dicts.
    """

    __slots__ = ("focus", "stack", "store", "handlers", "next_loc", "steps", "_expr")

    def __init__(
        self,
        expr: Expr,
        store: dict[int, StoredObject],
        handlers: dict[Key, Expr],
        next_loc: int = 0,
        steps: int = 0,
        stack: Stack = None,
    ):
        self.store, self.handlers, self.next_loc, self.steps = store, handlers, next_loc, steps
        self.focus, self.stack = _refocus(expr, stack)
        self._expr = expr if stack is None else None

    @property
    def expr(self) -> Expr:
        """The whole expression: the focus plugged into its context, once."""
        if self._expr is None:
            e, k = self.focus, self.stack
            while k is not None:
                node, slot, k = k
                e = with_child(node, slot, e)
            self._expr = e
        return self._expr

    @property
    def pending_key(self) -> Key | None:
        """Key of the innermost brace at or around the focus."""
        e, k = self.focus, self.stack
        while not isinstance(e, EffectBrace):
            if k is None:
                return None
            e, _, k = k
        return e.key


def initial_state(main: Expr) -> MachineState:
    return MachineState(main, {}, {})


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
# dependency tracking


def effect(ct: ClassTable, store: dict[int, StoredObject], key: Key) -> list[Key]:
    """Keys of every initialized field downstream of key.

    A field (l, g) is directly downstream of k when g's initializer,
    with `this` bound to l, reads k.  The result closes that relation
    transitively, is duplicate-free, never includes key itself unless a
    dependency cycle reaches back to it, and is ordered by location
    then by the field's position in its class's initialized-field list.
    A checked initializer reads only through `this`, so all of it lies
    on key's own object, as the class table lists it for that class.
    """
    l, f = key
    obj = store.get(l)
    if obj is None:
        return []
    return [(l, g) for g in ct.downstream(obj.cls, f)]


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
class StepOutcome:
    """What one step did: the state it reached, the rule it applied, and
    its store events.

    A step records each allocation, write and subscription as a note, a
    plain tuple of the values as they were at step time: the step number,
    the kind, the location, the field or class, and for a signal write
    the old and new locations and the handler chain it left pending
    (expressions never change, so the chain is a snapshot).  `events`
    turns the notes into `TraceEvent`s the first time it is read, so an
    untraced run builds none; it can be assigned like a plain field.
    """

    state: MachineState
    rule: str
    notes: Sequence[tuple]

    @cached_property
    def events(self) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        for note in self.notes:
            events += _note_events(*note)
        return events


def _note_events(step: int, kind: str, l: int, name: str, *write) -> list[TraceEvent]:
    if kind == "alloc":
        return [TraceEvent(step, kind, loc=l, cls=name)]
    if kind != "signal-write":
        return [TraceEvent(step, kind, loc=l, fname=name)]
    old, new, pending = write
    return [
        TraceEvent(step, kind, loc=l, fname=name, old=old, new=new),
        TraceEvent(step, "handler-enqueue", loc=l, fname=name, count=_registrations(pending)),
    ]


def _contract(ct: ClassTable, st: MachineState, mut: frozenset[str]) -> StepOutcome | None:
    """Apply the rule for st's focus and refocus in the same context.

    Dispatch is on the exact type of the focus, most frequent rule
    first; a node whose subterms do not fit its rule is stuck (a free
    variable, or a finished form where the node needs something else)
    and gives None.
    """
    e = st.focus
    t = type(e)
    store, handlers, next_loc = st.store, st.handlers, st.next_loc
    notes: tuple = ()
    if t is New:
        c, args = e.cls, e.args
        if _first_open(args) is not None:
            return None
        if c not in ct or len(ct.source(c)) != len(args):
            return None
        l = next_loc
        store[l] = StoredObject(c, tuple(a.loc for a in args))
        out, rule, next_loc = Loc(l), "R-NEW", l + 1
        notes = ((st.steps, "alloc", l, c),)

    elif t is Seq:
        if type(e.first) is not Empty:
            return None
        out, rule = e.second, "R-CAT"

    elif t is Assign:
        recv, value, f = e.recv, e.value, e.fname
        if type(recv) is not Loc or type(value) is not Loc:
            return None
        l, v = recv.loc, value.loc
        obj = store.get(l)
        if obj is None:
            return None
        i, sf = ct.field(obj.cls, f) or (None, None)
        if i is None:
            return None
        old = obj.fields[i]
        store[l] = StoredObject(obj.cls, obj.fields[:i] + (v,) + obj.fields[i + 1:])
        signal = sf.modifier is Modifier.SIGNAL
        if MUT_SWAP_ASSIGN in mut:
            signal = not signal
        if signal:
            key = (l, f)
            pending = handlers.get(key, EMPTY)
            out, rule = EffectBrace(pending, key), "R-ASSIGNS"
            notes = ((st.steps, "signal-write", l, f, old, v, pending),)
        else:
            out, rule = EMPTY, "R-ASSIGN"
            notes = ((st.steps, "plain-write", l, f),)

    elif t is FieldAccess:
        recv, f = e.recv, e.fname
        if type(recv) is not Loc:
            return None
        l = recv.loc
        obj = store.get(l)
        if obj is None:
            return None
        i, cf = ct.field(obj.cls, f) or (None, None)
        if cf is None:
            return None
        if i is not None:
            out, rule = Loc(obj.fields[i]), "R-FIELD"
        else:
            out, rule = cf.init, "R-FIELDS"
            if MUT_NO_THIS_SUBST not in mut:
                out = subst(cf.init, {"this": Loc(l)})

    elif t is Invoke:
        recv, m, args = e.recv, e.method, e.args
        if type(recv) is not Loc or _first_open(args) is not None:
            return None
        obj = store.get(recv.loc)
        if obj is None:
            return None
        md = ct.find_method(m, obj.cls)
        if md is None or len(md.params) != len(args):
            return None
        mapping: dict[str, Expr] = {p.name: a for p, a in zip(md.params, args)}
        mapping["this"] = recv
        out, rule = subst(md.body, mapping), "R-INVK"

    elif t is EffectBrace:
        if type(e.body) is not Empty:
            return None
        out, rule = handlers_of(ct, handlers, store, e.key), "R-ASSIGNCONT"

    elif t is Let:
        b = e.bound
        if type(b) is not Loc:
            return None
        out, rule = subst(e.body, {e.var: b}), "R-LET"

    elif t is Subscribe:
        recv, f = e.recv, e.fname
        if type(recv) is not Loc:
            return None
        key = (recv.loc, f)
        handlers[key] = Seq(handlers.get(key, EMPTY), e.handler)
        out, rule = EMPTY, "R-SUBSCRIBE"
        notes = ((st.steps, "subscribe", recv.loc, f),)

    else:
        return None
    state = MachineState(out, store, handlers, next_loc, st.steps + 1, st.stack)
    return StepOutcome(state, rule, notes)


def step(ct: ClassTable, st: MachineState, mutations: frozenset[str] = frozenset()) -> StepOutcome | None:
    """Perform one reduction; None if terminal, StuckError if wedged."""
    if is_terminal(st.focus):
        return None
    out = _contract(ct, st, mutations)
    if out is None:
        raise StuckError(st)
    return out


# =========================================================================
# driver


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
    on the observers.  A step writes both stores in place, so while they
    listen `before` holds copies of both stores taken before the step:
    the only store copies the program makes, and what every oracle
    compares `after` against.
    """
    st = initial_state(main)
    trace: list[TraceEvent] = []
    violation = None
    while st.steps < fuel:
        watching = observers and violation is None
        if watching:
            before = MachineState(
                st.focus, dict(st.store), dict(st.handlers), st.next_loc, st.steps, st.stack
            )
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
    if is_terminal(st.focus):
        return RunResult("terminal", st, trace, violation=violation)
    return RunResult("fuel", st, trace, pending=st.pending_key, violation=violation)


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
