"""Span tracing for the benchmark's traced run.

The tracer wraps named public functions of the package's layers.  Each
function is patched on its defining class or module and on every other
module that bound it by name (``from .x import y`` keeps its own reference),
so calls made inside the library are seen as well as the benchmark's own.

Every call records one span: name, start, end, the enclosing span and the
request it belongs to.  Spans stay in memory as compact arrays and are
written out once, when the run ends.  A span's self time is its duration
minus the time covered by its child spans; per-layer times are self times.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

from largequot import largeness, periodic, quotients, series, verbal, words
from largequot.errors import CapExceeded


class Tracer:
    """In-memory span store with per-name call counts and self times."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.paused = False
        self._stack = []  # [span index, child seconds] per open span
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.counters = {}

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self.request_id)
        self._stack.append([idx, 0.0])

    def _close(self, nid):
        t1 = time.perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t1
        duration = t1 - self.start[idx]
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        self.total_s[nid] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def open_request(self, name):
        """Open the root span of one request; returns the depth to restore."""
        depth = len(self._stack)
        self._open(self.name_id(name))
        return depth

    def close_request(self, depth):
        """Close the request's root span.

        A RecursionError can fire inside a wrapper's own bookkeeping and
        leave its span open; such spans are closed here, uncounted.
        """
        while len(self._stack) > depth + 1:
            idx, _ = self._stack.pop()
            self.end[idx] = time.perf_counter()
        self._close(self.name[self._stack[-1][0]])

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result, exc)`` counts."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            finally:
                self._close(nid)
            if after is not None:
                after(args, kwargs, result, None)
            return result

        return wrapper

    def wrap_generator(self, name, fn, on_start=None):
        """Wrap a generator function: each resumption is one span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_start is not None and not self.paused:
                on_start()
            inner = fn(*args, **kwargs)
            while True:
                if self.paused:
                    item = next(inner, _DONE)
                else:
                    self._open(nid)
                    try:
                        item = next(inner, _DONE)
                    finally:
                        self._close(nid)
                if item is _DONE:
                    return
                yield item

        return wrapper

    def write(self, path):
        """Write the span arrays and a JSON index describing them."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        columns = ("start", "end", "name", "parent", "request")
        with open(path + ".bin", "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        index = {
            "spans": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "layout": "column after column, native byte order",
            "names": self.names,
        }
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(index, handle, indent=1)


_DONE = object()


def _rebind(original, wrapper, extra_modules=()):
    """Replace every module-level binding of ``original`` by ``wrapper``."""
    mods = [m for n, m in sys.modules.items()
            if n == "largequot" or n.startswith("largequot.")]
    for module in list(mods) + list(extra_modules):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer, extra_modules=()):
    """Patch the traced functions of words, series, quotients, verbal,
    largeness and periodic.  ``extra_modules`` are the benchmark's own
    modules, which may also hold references by name."""

    def patch_function(module, attr, name, after=None):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, after), extra_modules)

    def patch_method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    def power_letters(args, kwargs, result, exc):
        if result is not None:
            tracer.count("words.power_letters", len(result))

    def bfs_elements(args, kwargs, result, exc):
        if result is not None:
            tracer.count("quotients.bfs_elements", result.order)
            tracer.count("quotients.bfs_useful_elements", result.order)
        elif isinstance(exc, CapExceeded):
            tracer.count("quotients.bfs_elements", exc.reached - 1)
            tracer.count("quotients.bfs_capped_runs")

    def coset_letters(args, kwargs, result, exc):
        if result is not None:
            tracer.count("quotients.walk_letters", len(args[1]))

    def order_letters(args, kwargs, result, exc):
        # image_order walks the word once through coset_of (counted there)
        # and once more per further power until the walk returns to 0
        if result is not None and result > 1:
            tracer.count("quotients.walk_letters", len(args[1]) * (result - 1))

    def coset_built(args, kwargs, result, exc):
        if len(args) < 4 and kwargs.get("nf") is None:
            tracer.count("verbal.cosets_built")

    patch_function(words, "power", "words.power", power_letters)
    patch_method(words.Word, "__mul__", "words.mul")
    patch_function(series, "embed", "series.embed")
    patch_method(series.TruncSeries, "mul", "series.mul")
    patch_function(quotients, "build_quotient", "quotients.bfs", bfs_elements)
    patch_method(quotients.FiniteQuotient, "coset_of", "quotients.walk",
                 coset_letters)
    patch_method(quotients.FiniteQuotient, "kernel_contains", "quotients.walk")
    patch_method(quotients.FiniteQuotient, "image_order", "quotients.walk",
                 order_letters)
    patch_function(quotients, "lemma0_conjugates", "quotients.conjugates")
    patch_function(quotients, "reidemeister_schreier", "quotients.rewrite")
    levels = verbal._iter_levels
    _rebind(levels, tracer.wrap_generator(
        "verbal.build", levels,
        on_start=lambda: tracer.count("verbal.series_builds"),
    ), extra_modules)
    patch_method(verbal.LayeredCoset, "__init__", "verbal.build", coset_built)
    patch_method(verbal.VerbalLevel, "member", "verbal.query")
    patch_method(verbal.VerbalLevel, "order_mod", "verbal.query")
    patch_function(largeness, "lemma_fi_bound", "largeness.bound")
    patch_function(largeness, "find_avoiding_quotient", "largeness.search")
    patch_function(largeness, "certify_power_quotient", "largeness.certify")
    patch_function(largeness, "verify_certificate", "largeness.verify")
    patch_function(periodic, "next_step", "periodic.step")
    patch_function(periodic, "check_pigraded_properties", "periodic.sample")


UNITS = {
    "words.power_calls": "count",
    "words.power_letters": "count",
    "words.power_s": "s",
    "words.mul_calls": "count",
    "words.mul_s": "s",
    "series.embed_calls": "count",
    "series.embed_s": "s",
    "series.mul_calls": "count",
    "series.mul_s": "s",
    "quotients.bfs_runs": "count",
    "quotients.bfs_elements": "count",
    "quotients.bfs_s": "s",
    "quotients.bfs_us_per_element": "us",
    "quotients.bfs_capped_runs": "count",
    "quotients.bfs_useful_ratio": "ratio",
    "quotients.walk_letters": "count",
    "quotients.walk_s": "s",
    "quotients.conjugates_s": "s",
    "quotients.rewrite_s": "s",
    "verbal.series_builds": "count",
    "verbal.cosets_built": "count",
    "verbal.build_s": "s",
    "verbal.query_calls": "count",
    "verbal.query_s": "s",
    "largeness.bound_s": "s",
    "largeness.search_s": "s",
    "largeness.certify_s": "s",
    "largeness.verify_s": "s",
    "largeness.witness_reuse_ratio": "ratio",
    "periodic.steps": "count",
    "periodic.step_s": "s",
    "periodic.sample_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer, scale):
    """Per-layer values from the spans and counters of one traced run.

    Self times are multiplied by ``scale``, the run's machine-speed factor,
    like every other time the benchmark reports.
    """

    def calls(name):
        nid = tracer._ids.get(name)
        return 0 if nid is None else tracer.calls[nid]

    def self_s(name):
        nid = tracer._ids.get(name)
        return 0.0 if nid is None else tracer.self_s[nid] * scale

    def total_s(name):
        nid = tracer._ids.get(name)
        return 0.0 if nid is None else tracer.total_s[nid] * scale

    counter = tracer.counters.get
    elements = counter("quotients.bfs_elements", 0)
    return {
        "words.power_calls": calls("words.power"),
        "words.power_letters": counter("words.power_letters", 0),
        "words.power_s": self_s("words.power"),
        "words.mul_calls": calls("words.mul"),
        "words.mul_s": self_s("words.mul"),
        "series.embed_calls": calls("series.embed"),
        "series.embed_s": self_s("series.embed"),
        "series.mul_calls": calls("series.mul"),
        "series.mul_s": self_s("series.mul"),
        "quotients.bfs_runs": calls("quotients.bfs"),
        "quotients.bfs_elements": elements,
        "quotients.bfs_s": self_s("quotients.bfs"),
        "quotients.bfs_us_per_element": (
            1e6 * total_s("quotients.bfs") / elements if elements else 0.0
        ),
        "quotients.bfs_capped_runs": counter("quotients.bfs_capped_runs", 0),
        "quotients.bfs_useful_ratio": (
            counter("quotients.bfs_useful_elements", 0) / elements
            if elements else 1.0
        ),
        "quotients.walk_letters": counter("quotients.walk_letters", 0),
        "quotients.walk_s": self_s("quotients.walk"),
        "quotients.conjugates_s": self_s("quotients.conjugates"),
        "quotients.rewrite_s": self_s("quotients.rewrite"),
        "verbal.series_builds": counter("verbal.series_builds", 0),
        "verbal.cosets_built": counter("verbal.cosets_built", 0),
        "verbal.build_s": self_s("verbal.build"),
        "verbal.query_calls": calls("verbal.query"),
        "verbal.query_s": self_s("verbal.query"),
        "largeness.bound_s": self_s("largeness.bound"),
        "largeness.search_s": self_s("largeness.search"),
        "largeness.certify_s": self_s("largeness.certify"),
        "largeness.verify_s": self_s("largeness.verify"),
        "periodic.steps": calls("periodic.step"),
        "periodic.step_s": self_s("periodic.step"),
        "periodic.sample_s": self_s("periodic.sample"),
    }
