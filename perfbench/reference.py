"""The reference kernel: a fixed piece of pure-Python work that uses no fsj code.

The host this benchmark runs on changes speed for seconds to minutes at a
time (README.md, Machine), and process CPU time moves with it.  The run
times this kernel between operations.  Its fastest time in the few runs
just before and just after an operation says how fast the host was while
the operation ran, and run.py scales that operation's time by
NOMINAL_S / (that fastest time).  An operation timed on a slow host then
reads about what it would have read at the host's nominal speed, while a
change to fsj moves the operations and leaves the kernel alone.

The kernel does the kind of work fsj does: it allocates frozen dataclass
nodes, matches on them, rebuilds a tree under an environment the way
`subst` does, copies small dicts the way a store update does, and formats
strings the way trace rendering does.  Nothing in it changes with the
seed or with the program under test, so its result is a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

# The kernel's fastest time on the machine the README describes, at the
# host's fast speed.  Scaled times are in seconds at that speed.
NOMINAL_S = 0.00085

EXPECTED = -847


@dataclass(frozen=True)
class Var:
    name: int


@dataclass(frozen=True)
class Node:
    op: str
    left: object
    right: object


def _tree(depth: int, i: int):
    if depth == 0:
        return Var(i % 13)
    return Node("+*-"[i % 3], _tree(depth - 1, 2 * i + 1), _tree(depth - 1, 2 * i + 2))


TREE = _tree(7, 0)


def _rename(t, env: dict):
    match t:
        case Var(name=n):
            return Var(env.get(n, n) % 13)
        case Node(op=op, left=left, right=right):
            return Node(op, _rename(left, env), _rename(right, env))


def _eval(t) -> int:
    match t:
        case Var(name=n):
            return n + 1
        case Node(op="+", left=left, right=right):
            return _eval(left) + _eval(right)
        case Node(op="*", left=left, right=right):
            return _eval(left) * _eval(right) % 1009
        case Node(left=left, right=right):
            return _eval(left) - _eval(right)


def kernel() -> int:
    env = {k: k * 5 % 13 for k in range(13)}
    total = 0
    for i in range(3):
        env = dict(env)
        env[i] = (env[i] + 7) % 13
        total += _eval(_rename(TREE, env))
        total += len(",".join(f"{k}={v}" for k, v in env.items()))
    return total


class Reference:
    """Runs the kernel between operations and keeps its times.

    `balance` runs the kernel until the time spent on it is at least
    SHARE of the time spent on operations, so the kernel is sampled all
    through the run, close in time to every operation.
    """

    SHARE = 0.15
    WINDOW = 10  # kernel runs on each side of an operation that gauge it

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self.work = 0.0
        if kernel() != EXPECTED:
            raise AssertionError(f"reference kernel returned {kernel()}, not {EXPECTED}")

    def balance(self, op_seconds: float) -> int:
        """Account for an operation that just ran; return its mark for `scale`."""
        mark = len(self.times)
        self.work += op_seconds
        while self.spent < self.SHARE * self.work:
            t0 = perf_counter()
            kernel()
            dt = perf_counter() - t0
            self.times.append(dt)
            self.spent += dt
        return mark

    def gauge(self) -> int:
        """Run the kernel WINDOW times for work just done outside `balance`; return its mark."""
        mark = len(self.times)
        for _ in range(self.WINDOW):
            t0 = perf_counter()
            kernel()
            self.times.append(perf_counter() - t0)
        return mark

    def scale(self, mark: int) -> float:
        """NOMINAL_S over the fastest kernel run within WINDOW runs of mark."""
        return NOMINAL_S / min(self.times[max(0, mark - self.WINDOW) : mark + self.WINDOW])
