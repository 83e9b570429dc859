"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a layer of hexreact: its name (``layer.call``),
start and end on the ``perf_counter`` clock, and the id of the span that was
open when it started.  Spans stay in memory while the workload runs and are
written out once, at the end, so the file system stays out of the timings.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the ``name`` spans minus what their children cover.

        Children of one span run one after another on one thread, so the part
        of the parent they cover is the sum of their durations.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter", "spans": self.spans}, fh)


class NullTracer:
    """Stands in for Tracer in untraced runs: a span records nothing."""

    def span(self, name: str):
        return nullcontext()
