"""In-memory span tracer that instruments a library from the outside.

Wrappers are installed on module attributes and on class methods; the
library's own source is untouched. Every wrapped call records a span
[name, start, end, parent index, operation id, bytes]; counters record call
and byte totals at boundaries too hot or too private to deserve a span.
Spans and counters stay in memory until the end of a run, when `summary()`
folds them into per-name totals and `dump()` writes them out.

A span's self time is its duration minus the durations of its direct child
spans. Calls are strictly nested on the single benchmark thread, so the
children of a span never overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class TraceError(RuntimeError):
    """A wrap target is missing, or a layer a workload must hit stayed silent."""


class Tracer:
    def __init__(self, modules):
        # every module whose namespace may hold an alias of a wrapped function
        self._modules = list(modules)
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.names: set[str] = set()
        self.counter_fields: dict[str, tuple[str, str]] = {}
        self.active = False
        self.op = -1

    # -- recording -------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _open(self, name: str) -> list:
        rec = [name, _now(), 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        """Benchmark-side span around a phase of a workload operation."""
        if not self.active:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            rec[2] = _now()
            self._stack.pop()

    def timed(self, name, namer=None, nbytes=None):
        """Wrapper factory: one span per call, named `name` or `namer(args, kwargs)`."""
        tracer = self
        if name is not None:
            self.names.add(name)

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                rec = tracer._open(namer(args, kwargs) if namer else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = _now()
                    tracer._stack.pop()
                if nbytes is not None:
                    rec[5] = nbytes(args, kwargs, result)
                return result
            return wrapper
        return factory

    def counted(self, name, calls_field, bytes_field, nbytes):
        """Wrapper factory: counts calls and bytes under `name`, no span."""
        tracer = self

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.active:
                    c = tracer.counters[name]
                    c[calls_field] += 1
                    c[bytes_field] += nbytes(args, kwargs, result)
                return result
            return wrapper
        self.counter_fields[name] = (calls_field, bytes_field)
        return factory

    # -- installation ----------------------------------------------------
    def wrap_function(self, module, attr: str, factory, names=()) -> None:
        """Replace `module.attr` and every alias of it in the traced modules."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TraceError(f"{module.__name__}.{attr} no longer exists")
        wrapper = factory(fn)
        for mod in self._modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, fn))
        self.names.update(names)

    def wrap_method(self, cls, attr: str, factory) -> None:
        fn = cls.__dict__.get(attr)
        if not callable(fn):
            raise TraceError(f"{cls.__module__}.{cls.__name__}.{attr} no longer exists")
        setattr(cls, attr, factory(fn))
        self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            obj, key, fn = self._undo.pop()
            setattr(obj, key, fn)

    # -- aggregation -----------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds `s`, `self_s` and `bytes`."""
        if self._stack:
            raise TraceError("summary() called with spans still open")
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        spans = self.spans
        for name, start, end, parent, _op, nb in spans:
            dur = end - start
            st = stats[name]
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur
            st["bytes"] += nb
            if parent >= 0:
                stats[spans[parent][0]]["self_s"] -= dur
        return dict(stats)

    def dump(self, path) -> None:
        """Write counters and raw spans (name, start, end, parent, op, bytes) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": self.counters, "spans": self.spans}, fh)
