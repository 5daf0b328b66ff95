"""Spans and counters recorded from outside the fsj modules.

`Tracer.install` replaces public functions at the module attributes
where their callers look them up (for example `fsj.interp.step`, which
`run` calls, and `fsj.metatheory.step`, which `audit_run` calls) with
timing wrappers, and `Tracer.uninstall` puts the originals back.

Each wrapper records one span per outermost call of its layer: a
recursive function such as `subst` or `render_expr` re-enters its own
wrapper through the module global, and those inner calls pass straight
through.  Spans are kept in flat arrays in memory (name, parent, start,
end) and written out once, at the end of the run.  A layer's self time
is the duration of its spans minus the time covered by their child
spans.

A wrapper may carry an `after(result, args)` hook that reads counters
off the call (rule names, store size, expression size, dependency keys).
Hooks run inside a `bench.probe` span, so their cost is charged to the
probe and not to the layer that called the wrapped function.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

PROBE = "bench.probe"


class Layer:
    """One named layer; its depth counter makes only outermost calls spans."""

    def __init__(self, nid: int):
        self.nid = nid
        self.depth = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: dict[str, Layer] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.last_effect: list = []
        self._installed: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(len(self.names))
            self.names.append(name)
        return self.layers[name]

    def _open(self, nid: int) -> int:
        i = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.stack.append(i)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside one span named name."""
        i = self._open(self.layer(name).nid)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def wrap(self, name: str, fn, after=None):
        layer = self.layer(name)
        probe = self.layer(PROBE).nid
        nid = layer.nid

        def wrapper(*args, **kwargs):
            if layer.depth:
                return fn(*args, **kwargs)
            layer.depth = 1
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
                layer.depth = 0
            if after is not None:
                j = self._open(probe)
                try:
                    after(result, args)
                finally:
                    self._close(j)
            return result

        return wrapper

    def install(self, name: str, targets: list[tuple[object, str]], after=None) -> None:
        """Wrap the function at each (owner, attribute) with one shared wrapper."""
        owner, attr = targets[0]
        wrapper = self.wrap(name, getattr(owner, attr), after)
        for owner, attr in targets:
            self._installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ---------------------------------------------------------------- results

    def span_count(self) -> int:
        return len(self.span_start)

    def summarize(self, keep_durations: tuple[str, ...] = ()) -> dict[str, dict]:
        """Per layer: outermost calls and total self time.

        Span durations are kept only for the layers in keep_durations.
        """
        n = len(self.span_start)
        start, end, parent, name = self.span_start, self.span_end, self.span_parent, self.span_name
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        kept = {self.layers[k].nid: [] for k in keep_durations if k in self.layers}
        for i in range(n):
            nid = name[i]
            d = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += d - child[i]
            if nid in kept:
                kept[nid].append(d)
        return {
            layer: {
                "calls": calls[nid],
                "self_s": self_s[nid],
                "durations": kept.get(nid, []),
            }
            for nid, layer in enumerate(self.names)
        }

    def write(self, directory: Path, stem: str) -> Path:
        """Write the spans as four flat arrays plus a JSON description."""
        directory.mkdir(parents=True, exist_ok=True)
        data = directory / f"{stem}.spans.bin"
        with data.open("wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "count": self.span_count(),
            "layout": "int32 name[count], int32 parent[count] (-1 for a root), "
            "float64 start[count], float64 end[count], perf_counter seconds",
        }
        (directory / f"{stem}.spans.json").write_text(json.dumps(meta, indent=1) + "\n")
        return data

