"""Span tracing of dicke-sim's layers, applied from outside the package.

The layers are the modules named in LAYERS.  `Tracer.installed()` replaces
every public function, every public method and every validated constructor
(a dataclass with `__post_init__`) of those modules with a wrapper that
records one span per call: name, start, end and parent span.  Functions are
replaced in every `dicke_sim` module namespace that holds them, so calls
between modules (`harness` calling `measure.measure_pure`, say) are seen too.
The originals are put back when the block ends.

Spans are kept in flat arrays and reduced once, at the end of the run, to
call counts, total time and self time per name.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("states", "measure", "harness", "oracle", "verify", "serialize")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement) -> None:
        """Rebind every `dicke_sim` module attribute that is `original`."""
        for name, module in list(sys.modules.items()):
            if name == "dicke_sim" or name.startswith("dicke_sim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextmanager
def call_timer(module, attr: str):
    """Time each call of one program function with a single wrapper and no spans.

    Yields the list that collects the call durations in seconds.
    """
    original = getattr(module, attr)
    durations: list[float] = []

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - start)

    patches = Patches()
    patches.replace_everywhere(original, timed)
    try:
        yield durations
    finally:
        patches.restore()


def layer_callables():
    """(span name, owner, attribute, callable) for every traced entry point."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"dicke_sim.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found.append((f"{layer}.{attr}", module, attr, value))
            elif inspect.isclass(value):
                if "__post_init__" in vars(value):
                    found.append((f"{layer}.{attr}", value, "__init__", value.__init__))
                for meth, fn in vars(value).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found.append((f"{layer}.{attr}.{meth}", value, meth, fn))
    return found


class Tracer:
    """Records spans in memory; `stats()` reduces them per name."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.posts_built = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        count_posts = name in ("measure.measure_pure", "measure.measure_mixed")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count_posts:
                self.posts_built += sum(o.post_state is not None for o in result)
            return result

        return traced

    @contextmanager
    def installed(self):
        patches = Patches()
        try:
            for name, owner, attr, fn in layer_callables():
                wrapper = self.wrap(name, fn)
                if inspect.ismodule(owner):
                    patches.replace_everywhere(fn, wrapper)
                else:
                    patches.set(owner, attr, wrapper)
            yield self
        finally:
            patches.restore()

    def span_count(self) -> int:
        return len(self._start)

    def stats(self) -> SpanStats:
        return SpanStats(
            self.names,
            np.frombuffer(self._name, dtype=np.int32),
            np.frombuffer(self._parent, dtype=np.int32),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
        )


class SpanStats:
    """Per-name reductions of a finished span record."""

    def __init__(self, names, name_ix, parent, start, end):
        self.names = names
        self.name_ix = name_ix
        self.parent = parent
        self.duration = end - start
        child = np.zeros(len(start))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        self._ids = {n: i for i, n in enumerate(names)}

    def _mask(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(len(self.name_ix), dtype=bool)
        return self.name_ix == self._ids[name]

    def _prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for n, i in self._ids.items() if n.startswith(prefix)]
        return np.isin(self.name_ix, ids)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def layer_calls(self, layer: str) -> int:
        return int(self._prefix_mask(layer + ".").sum())

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_time[self._prefix_mask(layer + ".")].sum())

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans named `name` whose direct parent is named `parent_name`."""
        mask = self._mask(name) & (self.parent >= 0)
        parents = self.parent[mask]
        return int((self.name_ix[parents] == self._ids.get(parent_name, -1)).sum())
