"""Spans around the package's layers, installed from outside the package.

A `Tracer` wraps a function so that each call records its duration, its
self time (the duration minus the time of traced calls made inside it)
and, optionally, a count taken from its result. `patched` swaps a
wrapper in at the attribute where the calling module looks the
function up, and restores the original on exit.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counted: int = 0

    def mean_ms(self) -> float:
        return 1000.0 * self.total_s / self.calls if self.calls else 0.0

    def mean_self_ms(self) -> float:
        return 1000.0 * self.self_s / self.calls if self.calls else 0.0

    def mean_count(self) -> float:
        return self.counted / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        # time covered by traced children, one entry per open span
        self._open: list[float] = []

    def wrap(self, name: str, fn, count=None):
        stats = self.spans[name]
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children
            if count is not None:
                stats.counted += count(result)
            return result

        return traced


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore them in reverse."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def retained_bytes(roots) -> int:
    """Deep size of the objects reachable from roots, each counted once.

    Follows containers, dataclass fields and instance dicts; numbers,
    strings and other leaves count their own size.
    """
    seen: set[int] = set()
    stack = list(roots)
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif is_dataclass(obj) and not isinstance(obj, type):
            if hasattr(obj, "__dict__"):
                total += sys.getsizeof(obj.__dict__)
            stack.extend(getattr(obj, f.name) for f in fields(obj))
    return total
