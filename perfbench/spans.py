"""A minimal in-memory span recorder for the benchmark's traced run, and
the percentile helper both benchmark processes use (stdlib only).

Spans are recorded from the benchmark's own code, around its calls into
each layer of the program; nothing inside the program is instrumented.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Spans:
    """Named, nested wall-clock intervals kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, item id or None]``
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: int | None = None):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, item]
        self.records.append(rec)
        self._stack.append(len(self.records) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r[2] - r[1] for r in self.records if r[0] == name)

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by top-level spans."""
        return sum(
            max(0.0, min(r[2], end) - max(r[1], start))
            for r in self.records
            if r[3] == -1
        )

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, item in self.records:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item}) + "\n")


class NoSpans:
    """Drop-in for :class:`Spans` that records nothing (untraced replays)."""

    def span(self, name: str, item: int | None = None):
        return nullcontext()


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of non-empty ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
