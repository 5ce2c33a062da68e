"""Spans recorded from outside the program, around its layer boundaries.

A span is (id, parent id, op id, name, start, end, attributes). The
tracer wraps the public functions one layer calls in another by
swapping the module attribute the caller looks the function up by
(`lelma.verification.solve`, `lelma.experiments.run_session`, ...) and
puts everything back on `restore()`. Nothing under `src/` knows about
it. Spans are kept in memory and written out once, at the end, as
gzipped JSON lines.

Spans are only recorded while an op runs, so the benchmark's own
output checks, which call the same functions, leave no spans. Worker
threads (the experiment pool) parent their outermost spans on the
innermost span open in the thread that started the op.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
from time import perf_counter
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self.ops: "dict[int, str]" = {}  # op id -> workload tag
        self._local = threading.local()
        self._main_stack: "list[int]" = []
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._next_id = 0
        self._op: Optional[int] = None
        self._restore: "list[Callable[[], None]]" = []

    # --- recording -----------------------------------------------------------

    def _stack(self) -> "list[int]":
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> "tuple | None":
        if self._op is None:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack.append(span_id)
        return (span_id, parent, self._op, name, perf_counter())

    def end(self, token: "tuple | None", attrs: "dict | None" = None) -> None:
        if token is None:
            return
        finished = perf_counter()
        self._stack().pop()
        span_id, parent, op, name, started = token
        self.spans.append((span_id, parent, op, name, started, finished, attrs))

    def op(self, workload: str, fn: Callable, *args):
        """Run one op as a root span named `op`; returns fn's result."""
        self._op = len(self.ops) + 1
        self.ops[self._op] = workload
        token = self.begin("op")
        try:
            return fn(*args)
        finally:
            self.end(token)
            self._op = None

    # --- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, attrs: "Callable | None" = None) -> Callable:
        """`fn` recorded as span `name`; attrs(args, result) adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if token is not None and attrs is not None:
                    extra = attrs(args, result)
                return result
            except BaseException as exc:
                extra = {"error": type(exc).__name__}
                raise
            finally:
                self.end(token, extra)

        return traced

    def wrap_generator(self, fn: Callable, name: str, attrs: Callable) -> Callable:
        """Like wrap, for a generator function; the span lasts until the
        caller stops drawing answers (exhausts or drops the iterator)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            return self._drain(fn(*args, **kwargs), name, attrs(args))

        return traced

    def _drain(self, inner, name: str, extra: dict):
        token = self.begin(name)
        try:
            yield from inner
        finally:
            self.end(token, extra)

    def patch(self, owner, attr: str, name: str, attrs: "Callable | None" = None,
              generator: bool = False) -> None:
        original = getattr(owner, attr)
        if generator:
            replacement = self.wrap_generator(original, name, attrs)
        else:
            replacement = self.wrap(original, name, attrs)
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    # --- output --------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, op, name, started, finished, attrs in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "op": op,
                    "workload": self.ops.get(op),
                    "name": name,
                    "start": started,
                    "end": finished,
                }
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def covered(span: tuple, children: "list[tuple]") -> float:
    """Seconds of `span` that the union of `children` covers."""
    started, finished = span[4], span[5]
    total, reach = 0.0, started
    for child in sorted(children, key=lambda c: c[4]):
        lo, hi = max(child[4], reach), min(child[5], finished)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: "list[tuple]") -> "dict[int, float]":
    """Span id -> its duration minus the part its child spans cover."""
    children: "dict[int, list[tuple]]" = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    return {s[0]: (s[5] - s[4]) - covered(s, children.get(s[0], [])) for s in spans}
