"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: a wrapper is bound over a
public layer function in the namespace of the module that calls it, so
nested layers get their own spans without any change to the program.
Each span holds its name, start, end, parent span and run id (one id per
benchmark operation).  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter


class Tracer:
    """Install wrappers with wrap(); leaving the with-block removes them."""

    def __init__(self) -> None:
        # (name, start, end, parent index or None, run id); the slot is
        # reserved when the span opens, so a parent has a lower index
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.run_id = ""
        self._open: list[tuple[int, str]] = []
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def current(self) -> str | None:
        """Name of the innermost open span, or None outside any span."""
        return self._open[-1][1] if self._open else None

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Bind a span-recording wrapper over module.attr.

        on_result(tracer, args, result) runs after the call returns, when
        the caller's span is current again, to add counts derived from
        the call.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1][0] if tracer._open else None
            tracer.spans.append(None)
            tracer._open.append((index, name))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.run_id)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def summary(self, first: int, last: int) -> tuple[Counter, Counter, Counter]:
        """Totals over spans[first:last]: inclusive seconds per span name,
        self seconds per layer, and calls per span name.

        A span's self time is its duration minus the durations of its
        direct children; a layer's self time sums that over its spans,
        so the layers' self times partition the traced time.
        """
        window = self.spans[first:last]
        child_time = [0.0] * len(window)
        for _name, start, end, parent, _run in window:
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        inclusive: Counter[str] = Counter()
        self_time: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for k, (name, start, end, _parent, _run) in enumerate(window):
            inclusive[name] += end - start
            self_time[name.split(".", 1)[0]] += end - start - child_time[k]
            calls[name] += 1
        return inclusive, self_time, calls

    def write(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent, run]."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, *span], separators=(",", ":")) + "\n")
