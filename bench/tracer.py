"""Spans and counters recorded around the benchmark's calls into ``tsr``.

A span covers one call into a public function of one layer (a module of
``src/tsr``).  Its name is ``<layer>.<what>``; it stores start, end, the span
that was open when it began (its parent) and the id of the op it served.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graph", "activation", "reconfig", "solvers", "oracle", "cli", "generators")


class Tracer:
    """Calls layer functions, recording a span per call while ``record`` is set.

    With ``record`` off, ``call`` only forwards, so the same replay code runs
    traced and untraced and their wall-time difference is the span cost.
    """

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self.op = -1  # -1 marks set-up work
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.record:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._open.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def count(self, name: str, amount: int = 1) -> None:
        if self.record:
            self.counts[name] += amount

    def busy(self) -> dict[str, float]:
        """Total duration per span name (a span's children included)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, *_), t in zip(self.spans, own):
            out[name.split(".", 1)[0]] += t
        return out

    def write(self, path, meta: dict) -> None:
        """Write metadata, counters and every span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "counts": dict(self.counts)}) + "\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, round(start, 7), round(end, 7), parent, op]) + "\n")
