"""Span tracing installed from outside the phasetop package.

The tracer wraps every public module-level function of the traced layers
and `HamiltonianField.__call__`, and replaces every alias of a wrapped
function that a `from .x import y` created in another phasetop module, so
`invariants.spectrum_on_grid` and `cli.verify_group` are timed as well.

Each call becomes one span: name, start, end, parent span and item id.
Spans are kept in typed arrays in memory and written out once, at the end
of the run.  A span's self time is its duration minus the durations of its
direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("phasespace", "models", "numkit", "bands", "invariants", "gauge",
          "cli", "runtime")

FIELD_EVAL = "models.field_eval"


def _points(args, kwargs, result):
    return np.size(args[1]) // 2


def _matrices(args, kwargs, result):
    return np.shape(args[0])[0]


def _sweeps(args, kwargs, result):
    return result.sweeps


# extra work counters read at a wrapped boundary: span name -> (key, reader)
_COUNTS = {
    FIELD_EVAL: ("points", _points),
    "numkit.eigh_many": ("matrices", _matrices),
    "gauge.extend_to_disk": ("sweeps", _sweeps),
}


class Tracer:
    """In-memory span recorder; `install` patches the package in place."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item_id = -1
        self.errors: Counter = Counter()   # (span name, exception type) -> count
        self.counts: Counter = Counter()   # (span name, counter) -> total
        self._patched: list = []           # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        # bound locally: the wrapper runs on every per-vertex polar and Pfaffian call
        names, parents, items = self.name, self.parent, self.item
        starts, ends, stack = self.start, self.end, self.stack
        errors, counts = self.errors, self.counts
        counter = _COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.item_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[(name, counter[0])] += counter[1](args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and patch all aliases."""
        mods = {layer: importlib.import_module(f"phasetop.{layer}")
                for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        owners = [importlib.import_module("phasetop"), *mods.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((owner, attr, obj))
                    setattr(owner, attr, hit[1])
        field_cls = mods["bands"].HamiltonianField
        call = field_cls.__call__
        self._patched.append((field_cls, "__call__", call))
        field_cls.__call__ = self._wrap(FIELD_EVAL, call)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Per-name call counts, self times and durations of the recorded spans.

    `errors` and `counts` are the tracer's counters, keyed by
    (span name, exception type) and (span name, counter name).
    """

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.errors = tracer.errors
        self.counts = tracer.counts
        n_names = len(self.names)
        name, parent = a["name"], a["parent"]
        self.duration = a["end"] - a["start"]
        child = np.zeros(name.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.duration[has_parent])
        self_time = self.duration - child
        self._name = name
        self._calls = np.bincount(name, minlength=n_names)
        self._self = np.bincount(name, weights=self_time, minlength=n_names)
        self.total_self = float(self_time.sum())

    def _index(self, name: str):
        return self.names.index(name) if name in self.names else None

    def calls(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else int(self._calls[i])

    def self_s(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self._self[i])

    def durations(self, name: str) -> np.ndarray:
        i = self._index(name)
        return self.duration[:0] if i is None else self.duration[self._name == i]

    def layer_self_s(self, layer: str) -> float:
        return float(sum(self._self[i] for i, n in enumerate(self.names)
                         if n.split(".", 1)[0] == layer))
