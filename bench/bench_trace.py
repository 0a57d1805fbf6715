"""Span recorder for the traced in-process run.

Spans are recorded from outside the program: `Recorder.wrap` replaces a
module or class attribute with a timing wrapper, and `restore` puts the
originals back. Each span is (name, start, end, parent, pass id), kept in
memory and written once at the end. A layer's self time is its span's
duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # type: ignore[arg-type]  # filled in on close
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.pass_id)

    def count(self, name: str, value: float) -> None:
        self.counts[self.pass_id][name] += value

    def peak(self, name: str, value: float) -> None:
        slot = self.counts[self.pass_id]
        slot[name] = max(slot[name], value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counters: Callable[[tuple, Any], dict[str, float]] | None = None,
        alloc_peak: str | None = None,
    ) -> None:
        """Time every call of `owner.attr` as span `name`.

        `counters(args, result)` returns counts to add for the call; they
        are computed after the span ends. With `alloc_peak`, a call made
        while tracemalloc is tracing also records its allocation peak (MB).
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracing = alloc_peak is not None and tracemalloc.is_tracing()
            if tracing:
                tracemalloc.reset_peak()
            with self.span(name):
                result = original(*args, **kwargs)
            if tracing:
                self.peak(alloc_peak, tracemalloc.get_traced_memory()[1] / 2**20)
            if counters is not None:
                for key, value in counters(args, result).items():
                    self.count(key, value)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for a, b in sorted(children.get(i, [])):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((s.end - s.start) - covered)
        return out

    def per_pass(self, passes: list[int]) -> dict[int, dict[str, dict[str, float]]]:
        """{pass: {span name: {"total", "self", "calls"}}} for the given passes."""
        table: dict[int, dict[str, dict[str, float]]] = {
            p: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0}) for p in passes
        }
        for s, own in zip(self.spans, self.self_times()):
            if s.pass_id in table:
                row = table[s.pass_id][s.name]
                row["total"] += s.end - s.start
                row["self"] += own
                row["calls"] += 1
        return table

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": list(Span._fields),
                    "spans": [list(s) for s in self.spans],
                    "counts": {str(p): dict(c) for p, c in self.counts.items()},
                },
                fh,
            )
