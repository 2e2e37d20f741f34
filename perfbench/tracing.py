"""In-memory spans around the benchmark's own calls into the program.

A span has a name, a start, an end, its parent span and the id of the op it
belongs to. Spans are kept in memory and written out, one JSON line each,
when the run ends. A disabled tracer hands out one shared no-op context, so
untraced runs pay only a method call per span."""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    """Records spans when enabled; `process` prefixes the span ids so spans
    from several processes can share one trace file."""

    def __init__(self, enabled: bool, process: str = "main") -> None:
        self.enabled = enabled
        self.process = process
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return _NULL
        return self._record(name, op)

    @contextlib.contextmanager
    def _record(self, name, op):
        parent = self._stack[-1] if self._stack else None
        record = {"id": f"{self.process}:{len(self.spans)}", "name": name,
                  "parent": parent["id"] if parent else None,
                  "op": op if op is not None else (parent["op"] if parent else None),
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: the count, the total duration and the total self time
    (duration minus the time its child spans cover) in seconds."""
    child_time: dict[str, float] = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    summary: dict[str, dict[str, float]] = {}
    for record in spans:
        entry = summary.setdefault(record["name"],
                                   {"count": 0, "total_s": 0.0, "self_s": 0.0})
        duration = record["end"] - record["start"]
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[record["id"]]
    return summary
