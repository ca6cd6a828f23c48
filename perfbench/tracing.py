"""Layer spans recorded from outside the program.

`install` wraps the public functions of each compstruct module and rebinds
every reference to them in the loaded compstruct modules, so a call from one
layer into another opens a child span.  Callers reach the program through
module attributes (``laws.markov_cpf``), which see the wrappers too.  Class methods are not wrapped: lazily evaluated CPF products count
as self time of whichever wrapped function triggers them.  `ratmath` is
not wrapped either; its scalar helpers run once per table entry, and their
time counts toward the calling layer (almost always `laws`).
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# module -> layer; the layer names are the per-layer metric prefixes
LAYER_MODULES = {
    "compstruct.composition": "composition",
    "compstruct.laws": "laws",
    "compstruct.structural": "structural",
    "compstruct.stochastic": "stochastic",
    "compstruct.verify": "verify",
    "compstruct.tables": "tables",
    "compstruct.cli": "cli",
}
LAYERS = tuple(LAYER_MODULES.values())

# wrapped function -> count it adds, measured on its return value
COUNTERS = {
    ("compstruct.composition", "enumerate_compositions"): "composition.compositions",
}


class Tracer:
    """Spans of one process, kept in memory as (layer, name, start, end, parent)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, fn, layer, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter] += len(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, layer, name):
        """Record one span, nested under the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (layer, name, start, time.perf_counter(), parent)

    def take(self):
        """Return and forget the spans and counts recorded so far (between jobs)."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts.clear()
        return spans, counts


@contextlib.contextmanager
def no_span(layer, name):
    yield


def install(tracer):
    """Wrap every public compstruct function; return an undo list."""
    wrappers = {}
    for modname, layer in LAYER_MODULES.items():
        mod = importlib.import_module(modname)
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == modname:
                wrappers[fn] = tracer.wrap(fn, layer, name, COUNTERS.get((modname, name)))
    namespaces = [vars(m) for name, m in list(sys.modules.items())
                  if name == "compstruct" or name.startswith("compstruct.")]
    undo = []
    for ns in namespaces:
        hits = [(attr, val) for attr, val in ns.items()
                if inspect.isfunction(val) and val in wrappers]
        for attr, val in hits:
            undo.append((ns, attr, val))
            ns[attr] = wrappers[val]
    return undo


def uninstall(undo):
    for ns, attr, val in reversed(undo):
        ns[attr] = val


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its child spans cover.

    ``spans`` is a list of (layer, name, start, end, parent_index) with
    parent_index -1 for a root.  Returns a list of floats, one per span.
    """
    children = defaultdict(list)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children.get(i, ()), start, end)
            for i, (layer, name, start, end, parent) in enumerate(spans)]


def summarize(spans):
    """Self seconds per layer and, per function name, self/inclusive seconds."""
    by_layer = defaultdict(float)
    by_name = defaultdict(lambda: [0.0, 0.0, 0])
    for (layer, name, start, end, _), own in zip(spans, self_times(spans)):
        by_layer[layer] += own
        entry = by_name[f"{layer}.{name}"]
        entry[0] += own
        entry[1] += end - start
        entry[2] += 1
    return {"layer_self": dict(by_layer),
            "by_name": {k: {"self": v[0], "incl": v[1], "calls": v[2]}
                        for k, v in by_name.items()}}
