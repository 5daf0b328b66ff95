"""Small-step interpreter for the calculus.

A machine state is (handlers, store, expr) and a step count, and keeps
nothing it can derive from them: the handler store maps field keys
(location, field name) to the accumulated handler expression registered
on that key, and the object store maps locations, allocated densely
from 0, to (class, field locations) records indexed like the class's
uninitialized fields, so the next fresh location is the store's size.
The only values are locations; `unit` is a terminal form but not a
value, so it can never be stored in a field or passed to a method.
A step advances the state it is handed, stores included, so a plain
run builds one state in all.  An observed or mutated step is shown as
two states: `before`, one copy taken before the step, and `after`, the
state the step advanced.  While observers listen, `run` journals both
stores and points `before`'s at the journals' `Version`s.

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
`isinstance` and attribute reads for every case it tries.  `_refocus`
alone scans a redex's arguments.  `step` dispatches on the focus: a
wedged focus raises StuckError before any store write, and a write
builds its record by `tuple.__new__`, with no Python frame.  It calls
`subst` and `handlers_of`, and `handlers_of` calls `effect`, through
this module's globals, so a wrapper installed at one of those
attributes sees every call.
`MachineState.expr` plugs the focus back into its context each time
someone asks for the whole expression (stuck reports and final results),
and the innermost brace around the focus is the pending key a
fuel-cut run reports.

Which initialized fields a write reaches is read off the class's record
(`ClassInfo.downstream`, worked out on its first read), since a checked
initializer only reads through `this`.

`run` is the only loop that calls `step`.  The trace and the soundness
oracles are per-step observers `(before, after)` its caller passes, so a
bare `run` neither journals nor renders (`collect_trace` is kept only for
`perfbench/`): a `TraceObserver` reads a step's allocation, write or
subscription off the redex and the stores as the step found them and
hands each event on.  It renders a step's expression from the machine's
own decomposition: it keeps each live frame's text left and right of its
hole, split once when the frame is pushed (`syntax.split_frame`), so a
step renders its focus and the frames it pushed, and joins the rest
(`stack_delta` finds which frames those are, for the audit's typing too).
`MUTANTS` holds broken machines for the oracles to catch: each is a
rewrite `(ct, before, after) -> MachineState` of one rule's outcome that
writes no store, and `run` applies the named ones to each step's `after`.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

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
    _SEQ,
    render_expr,
    split_frame,
    subst,
    with_child,
)

DEFAULT_FUEL = 100_000

MUT_NO_THIS_SUBST = "fields-no-this-subst"
MUT_SWAP_ASSIGN = "swap-assign-dispatch"

# An evaluation context: None when empty, else (node, slot, outer), where
# node's subterm number `slot`, counted as `syntax.children` lists them (in
# evaluation order), is the hole; `syntax.with_child` plugs it.
Stack = Optional[Tuple[Expr, int, "Stack"]]


class StoredObject(NamedTuple):
    cls: str
    fields: tuple[int, ...]  # locations, ordered like source(cls)


def _refocus(e: Expr, k: Stack) -> tuple[Expr, Stack]:
    """Decompose e, sitting in context k, down to the next redex.

    Descends along the evaluation order, pushing one frame per node, and
    on reaching a location or unit plugs it into the innermost frame and
    carries on from that node.  Stops at the first node with no subterm
    left to evaluate: a redex, a stuck node (no rule will contract it,
    which includes a node whose next subterm is a finished form of the
    wrong kind, such as a location left of `;`), or, with the context
    used up, a terminal.  Dispatch is on the exact node type, most
    frequent first.  Each branch picks the next subterm, for a `New` or
    a located receiver's `Invoke` by the machine's only argument scan,
    and a subterm already a location or unit ends the descent.
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
            for slot, c in enumerate(e.args):
                if type(c) is not Loc:
                    break
            else:
                return e, k
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
                for slot, c in enumerate(e.args, 1):
                    if type(c) is not Loc:
                        break
                else:
                    return e, k
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

    `MachineState(expr, store, handlers, steps)` decomposes a whole
    expression; given a `stack`, expr is taken to sit in that context
    instead.  Either way the focus ends up a redex, a stuck node, or a
    terminal with an empty stack, so the state is terminal exactly when
    its focus is.  Nothing that the rest determines is kept: the next
    free location is `len(store)`, and `expr` plugs the focus into its
    context on every read.  `rule` is the last step's (None before the
    first).  `step` advances the state in place, stores included, so
    whoever needs the state as it was takes a `copy` first.
    """

    __slots__ = ("focus", "stack", "store", "handlers", "steps", "rule")

    def __init__(
        self,
        expr: Expr,
        store: dict[int, StoredObject],
        handlers: dict[Key, Expr],
        steps: int = 0,
        stack: Stack = None,
        rule: str | None = None,
    ):
        self.store, self.handlers, self.steps, self.rule = store, handlers, steps, rule
        self.focus, self.stack = _refocus(expr, stack)

    def copy(self) -> MachineState:
        """A new state sharing this one's focus, stack, stores, steps and rule."""
        new = object.__new__(MachineState)
        new.focus, new.stack, new.steps, new.rule = self.focus, self.stack, self.steps, self.rule
        new.store, new.handlers = self.store, self.handlers
        return new

    @property
    def state(self) -> MachineState:
        """The state itself, so a step's result reads as an outcome (kept for `perfbench/`)."""
        return self

    @property
    def expr(self) -> Expr:
        """The whole expression: the focus plugged into its context."""
        e, k = self.focus, self.stack
        while k is not None:
            node, slot, k = k
            e = with_child(node, slot, e)
        return e

    @property
    def pending_key(self) -> Key | None:
        """Key of the innermost brace at or around the focus."""
        e, k = self.focus, self.stack
        while not isinstance(e, EffectBrace):
            if k is None:
                return None
            e, _, k = k
        return e.key


def stack_delta(live: dict, old: Stack, new: Stack) -> tuple[list, Stack]:
    """The cells of new pushed since old, innermost first, and the
    innermost cell the two stacks share (None if none).

    `live` holds, keyed by id, what an observer keeps for each cell of old;
    the entries of the cells popped since old are deleted from it.  old
    keeps its cells alive, so no cell of new can share an id with one.
    """
    pushed, k = [], new
    while k is not None and id(k) not in live:
        pushed.append(k)
        k = k[2]
    while old is not k:
        del live[id(old)]
        old = old[2]
    return pushed, k


def _registrations(e: Expr) -> int:
    """Subscriptions in a handler chain: each one wrapped it in a left `Seq`."""
    n = 0
    while isinstance(e, Seq):
        n, e = n + 1, e.first
    return n


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
    return [(l, g) for g in ct[obj.cls].downstream.get(f, ())]


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


# (attribute, key) of each optional TraceEvent field, in the order it prints
_EVENT_KEYS = (
    ("loc", "loc"), ("fname", "field"), ("cls", "cls"), ("old", "old"),
    ("new", "new"), ("count", "count"), ("expr", "expr"),
)


@dataclass(slots=True)
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
        return [(key, v) for attr, key in _EVENT_KEYS if (v := getattr(self, attr)) is not None]

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


def step(ct: ClassTable, st: MachineState) -> MachineState | None:
    """Apply the rule for st's focus, refocus in the same context, and
    return st, advanced: its focus, stack, stores, steps and rule.

    Dispatch is on the exact type of the focus, most frequent rule
    first.  A terminal focus (a location or unit, whose stack is then
    empty) gives None.  A node whose subterms do not fit its rule is
    stuck (a free variable, or a finished form where the node needs
    something else) and raises StuckError where the rule finds it,
    before the step changes st or either store: R-NEW and R-INVK find a
    unit argument as they collect their arguments' locations (R-INVK
    by parameter name, which the class table keeps distinct).  A write
    builds its record by `tuple.__new__`, in no Python frame, and keeps
    `StoredObject`'s fields, repr, `==` and hash.  What the step did is
    read off the redex and the stores of a copy of st taken before it,
    which `run` hands observers and mutants as `before`.
    """
    e = st.focus
    t = type(e)
    store, handlers = st.store, st.handlers
    if t is New:
        c, args = e.cls, e.args
        info = ct.get(c)
        locs = [a.loc for a in args if type(a) is Loc]
        if info is None or len(info.source) != len(args) or len(locs) != len(args):
            raise StuckError(st)
        # Fresh: locations are allocated densely from 0, a Journal refuses
        # deletion, and nothing in fsj deletes from a plain store dict.
        l = len(store)
        store[l] = tuple.__new__(StoredObject, (c, tuple(locs)))
        out, rule = Loc(l), "R-NEW"

    elif t is Seq:
        if type(e.first) is not Empty:
            raise StuckError(st)
        out, rule = e.second, "R-CAT"

    elif t is Assign:
        recv, value, f = e.recv, e.value, e.fname
        if type(recv) is not Loc or type(value) is not Loc:
            raise StuckError(st)
        l, v = recv.loc, value.loc
        obj = store.get(l)
        if obj is None:
            raise StuckError(st)
        i, sf = ct[obj.cls].fields.get(f) or (None, None)
        if i is None:
            raise StuckError(st)
        store[l] = tuple.__new__(StoredObject, (obj.cls, obj.fields[:i] + (v,) + obj.fields[i + 1:]))
        if sf.modifier is Modifier.SIGNAL:
            key = (l, f)
            out, rule = EffectBrace(handlers.get(key, EMPTY), key), "R-ASSIGNS"
        else:
            out, rule = EMPTY, "R-ASSIGN"

    elif t is FieldAccess:
        recv, f = e.recv, e.fname
        if type(recv) is not Loc:
            raise StuckError(st)
        obj = store.get(recv.loc)
        if obj is None:
            raise StuckError(st)
        i, cf = ct[obj.cls].fields.get(f) or (None, None)
        if cf is None:
            raise StuckError(st)
        if i is not None:
            out, rule = Loc(obj.fields[i]), "R-FIELD"
        else:
            out, rule = subst(cf.init, {"this": recv}), "R-FIELDS"

    elif t is Invoke:
        recv, m, args = e.recv, e.method, e.args
        obj = store.get(recv.loc) if type(recv) is Loc else None
        if obj is None:
            raise StuckError(st)
        md = ct[obj.cls].methods.get(m)
        if md is None or len(md.params) != len(args):
            raise StuckError(st)
        mapping: dict[str, Expr] = {p.name: a for p, a in zip(md.params, args) if type(a) is Loc}
        if len(mapping) != len(args):
            raise StuckError(st)
        mapping["this"] = recv
        out, rule = subst(md.body, mapping), "R-INVK"

    elif t is EffectBrace:
        if type(e.body) is not Empty:
            raise StuckError(st)
        out, rule = handlers_of(ct, handlers, store, e.key), "R-ASSIGNCONT"

    elif t is Let:
        b = e.bound
        if type(b) is not Loc:
            raise StuckError(st)
        out, rule = subst(e.body, {e.var: b}), "R-LET"

    elif t is Subscribe:
        recv, f = e.recv, e.fname
        if type(recv) is not Loc:
            raise StuckError(st)
        key = (recv.loc, f)
        handlers[key] = Seq(handlers.get(key, EMPTY), e.handler)
        out, rule = EMPTY, "R-SUBSCRIBE"

    elif t is Loc or t is Empty:
        return None
    else:  # a free variable
        raise StuckError(st)
    st.focus, st.stack = _refocus(out, st.stack)
    st.steps, st.rule = st.steps + 1, rule
    return st


def _fields_no_this_subst(ct: ClassTable, before: MachineState, after: MachineState) -> MachineState:
    """R-FIELDS focuses the initializer with `this` left unbound."""
    if after.rule != "R-FIELDS":
        return after
    e = before.focus
    init = ct[after.store[e.recv.loc].cls].fields[e.fname][1].init
    return MachineState(init, after.store, after.handlers, after.steps, before.stack, after.rule)


def _swap_assign_dispatch(ct: ClassTable, before: MachineState, after: MachineState) -> MachineState:
    """A plain field's write pushes like a signal's, and a signal's like a plain one's."""
    if after.rule not in ("R-ASSIGN", "R-ASSIGNS"):
        return after
    key = (before.focus.recv.loc, before.focus.fname)
    if after.rule == "R-ASSIGN":
        e, rule = EffectBrace(after.handlers.get(key, EMPTY), key), "R-ASSIGNS"
    else:
        e, rule = EMPTY, "R-ASSIGN"
    return MachineState(e, after.store, after.handlers, after.steps, before.stack, rule)


MUTANTS = {MUT_NO_THIS_SUBST: _fields_no_this_subst, MUT_SWAP_ASSIGN: _swap_assign_dispatch}


# =========================================================================
# driver


ABSENT = object()  # what a journal records for a key the store did not hold


class Journal(dict):
    """A store that records what the current step overwrote.

    `undo` maps each key the step assigned to the value it held when the
    step began, or ABSENT.  Every other dict mutator raises TypeError, so
    nothing changes the store behind the record.  `run` clears `undo` as
    each observed step begins: Baker's shallow binding, one version deep,
    read through `before`, the journal's one `Version`.
    """

    __slots__ = ("undo", "before")

    def __init__(self, entries=()):
        super().__init__(entries)
        self.undo = {}
        self.before = Version(self)

    def __setitem__(self, key, value):
        undo = self.undo
        if key not in undo:
            undo[key] = self.get(key, ABSENT)
        dict.__setitem__(self, key, value)

    def _unrecorded(self, *args, **kwargs):
        raise TypeError("a journaled store changes only by item assignment")

    __delitem__ = pop = popitem = setdefault = update = clear = __ior__ = _unrecorded


class Version:
    """A journaled store as it was when the current step began.

    A key the step wrote is read from the journal's record, any other
    from the store itself, so `get`, `[]` and `in` cost O(1), and `==`
    against the journal compares only the keys it recorded.  A handle is
    valid until the journal is cleared for the next step.
    """

    __slots__ = ("journal",)

    def __init__(self, journal: Journal):
        self.journal = journal

    def get(self, key, default=None):
        undo = self.journal.undo
        value = undo[key] if key in undo else self.journal.get(key, ABSENT)
        return default if value is ABSENT else value

    def __getitem__(self, key):
        value = self.get(key, ABSENT)
        if value is ABSENT:
            raise KeyError(key)
        return value

    def __contains__(self, key):
        return self.get(key, ABSENT) is not ABSENT

    def __eq__(self, other):
        journal = self.journal
        if other is journal:
            return all(journal[key] == old for key, old in journal.undo.items())
        whole = {**journal, **journal.undo}  # another store: compare all of it
        return {key: v for key, v in whole.items() if v is not ABSENT} == other


def written_keys(old, store) -> dict:
    """The keys at which store may differ from old: those its journal
    recorded when old is its `Version`, else all of store's (plain dicts,
    or a store replaced outright).  Either way, all are keys of store."""
    if type(old) is Version and old.journal is store:
        return store.undo
    return store


class TraceObserver:
    """A trace observer its caller passes to `run`: hands `emit` each step's
    events, the step, then what it allocated, wrote or subscribed.

    The redex is `before.focus`, and `before`'s stores are the journals'
    `Version`s, so a signal write's old location is the one the step
    overwrote.  R-ASSIGNS leaves the handler store alone, so the chain the
    brace holds is the one registered on the key after the step.

    A step's expression is rendered as the machine holds it, never
    plugged: for each cell of the last stack, outermost first, `before`
    and `after` hold its node's text left and right of the hole
    (`syntax.split_frame`), and `live` maps the cell's id to one past its
    index there, with the level its hole is rendered at.  A step truncates
    away the cells popped since and splits only the cells pushed since, so
    it renders its focus and those frames alone, and the lists hold text
    for the live context only.
    """

    __slots__ = ("ct", "emit", "live", "before", "after", "stack")

    def __init__(self, ct: ClassTable, emit: Callable[[TraceEvent], object]):
        self.ct, self.emit = ct, emit
        self.live: dict[int, tuple[int, int]] = {}  # id(cell) -> (index + 1, hole level)
        self.before: list[str] = []
        self.after: list[str] = []
        self.stack: Stack = None  # the stack whose cells `live` holds

    def render(self, st: MachineState) -> str:
        """`render_expr(st.expr)`, from the frames pushed since the last call."""
        live, before, after = self.live, self.before, self.after
        pushed, k = stack_delta(live, self.stack, st.stack)
        self.stack = st.stack
        n, level = (0, _SEQ) if k is None else live[id(k)]
        del before[n:], after[n:]
        for cell in reversed(pushed):
            head, tail, level = split_frame(cell[0], cell[1], level)
            before.append(head)
            after.append(tail)
            live[id(cell)] = (len(before), level)
        return "".join(before) + render_expr(st.focus, level) + "".join(reversed(after))

    def __call__(self, before: MachineState, after: MachineState) -> None:
        e, n, rule, emit = before.focus, before.steps, after.rule, self.emit
        emit(TraceEvent(n, "step", rule, self.render(after)))
        if rule == "R-NEW":
            emit(TraceEvent(n, "alloc", loc=len(after.store) - 1, cls=e.cls))
        elif rule == "R-ASSIGN":
            emit(TraceEvent(n, "plain-write", loc=e.recv.loc, fname=e.fname))
        elif rule == "R-SUBSCRIBE":
            emit(TraceEvent(n, "subscribe", loc=e.recv.loc, fname=e.fname))
        elif rule == "R-ASSIGNS":
            l, f = e.recv.loc, e.fname
            obj = before.store[l]
            old = obj.fields[self.ct[obj.cls].fields[f][0]]
            count = _registrations(after.handlers.get((l, f), EMPTY))
            emit(TraceEvent(n, "signal-write", loc=l, fname=f, old=old, new=e.value.loc))
            emit(TraceEvent(n, "handler-enqueue", loc=l, fname=f, count=count))


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
    collect_trace: bool = False,
    observers: Sequence[Callable[[MachineState, MachineState], object]] = (),
) -> RunResult:
    """Step main until it is terminal, stuck, or out of fuel.

    After every step each `observer(before, after)` is called in order,
    until one returns a violation (anything but None).  From then on the
    machine runs on unobserved, so the final status never depends on the
    observers.  A step advances its state in place, so a run that nothing
    observes or mutates builds one state in all.  Otherwise `before` is
    one copy of the state taken before the step, and `after` is what the
    step returned.  While observers listen, both stores are `Journal`s
    and `before`'s stores are pointed at the journals' `before` versions
    (the stores as the step found them, which every oracle compares
    `after` against).  A store replaced outright is journaled afresh, and
    journaling stops with the observers.

    `mutations` names `MUTANTS` entries: `after` is passed through each
    one's `rewrite(ct, before, after)`, in sorted order, before any
    observer sees it.  `run` calls `step` as this module's globals hold
    it when `run` is called.

    A caller that wants the trace passes a `TraceObserver`.  `collect_trace`
    and `RunResult.trace` are kept only for `perfbench/`: the flag makes
    `TraceObserver(ct, trace.append)` the first observer.
    """
    st = MachineState(main, {}, {})
    stepper = step
    rewrites = [MUTANTS[name] for name in sorted(mutations)]
    trace: list[TraceEvent] = []
    if collect_trace:
        observers = [TraceObserver(ct, trace.append), *observers]
    violation = None
    while st.steps < fuel:
        watching = observers and violation is None
        if watching or rewrites:
            if watching:
                if type(st.store) is not Journal or type(st.handlers) is not Journal:
                    st.store, st.handlers = Journal(st.store), Journal(st.handlers)
                st.store.undo.clear()
                st.handlers.undo.clear()
            before = st.copy()
        try:
            out = stepper(ct, st)
        except StuckError as err:
            return RunResult("stuck", st, trace, stuck_message=str(err), violation=violation)
        if out is None:
            return RunResult("terminal", st, trace, violation=violation)
        for rewrite in rewrites:
            out = rewrite(ct, before, out)
        if watching:
            before.store, before.handlers = before.store.before, before.handlers.before
            for observe in observers:
                violation = observe(before, out)
                if violation is not None:  # journaling stops with the observers
                    out.store, out.handlers = dict(out.store), dict(out.handlers)
                    break
        st = out
    if type(st.focus) in (Loc, Empty):
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
