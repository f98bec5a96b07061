"""In-memory span recorder for the benchmark's own calls into modtwist.

A span is (name, start, end, parent, task, attrs): ``parent`` is the index
of the enclosing span (-1 at the root) and ``task`` the id of the task the
span belongs to (-1 outside tasks).  Spans stay in memory until the run
ends; ``dump`` writes them out as JSON lines.

With tracing off, ``call`` is a plain call and ``span`` records nothing, so
untraced passes pay one extra Python call per traced boundary.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, TASK, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._task = -1

    @contextmanager
    def span(self, name: str, task: int | None = None, **attrs):
        if not self.enabled:
            yield attrs
            return
        if task is not None:
            self._task = task
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._task, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
            if task is not None:
                self._task = -1

    def call(self, name: str, fn, *args, **attrs):
        """``fn(*args)`` inside a span named ``name`` carrying ``attrs``."""
        if not self.enabled:
            return fn(*args)
        with self.span(name, **attrs):
            return fn(*args)

    def take(self) -> list[list]:
        """The spans recorded so far; the recorder starts a new list."""
        spans, self.spans = self.spans, []
        return spans


def dump(passes: list[list[list]], path) -> None:
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w") as out:
        for index, spans in enumerate(passes):
            for name, start, end, parent, task, attrs in spans:
                record = {"pass": index, "name": name, "start": start, "end": end,
                          "parent": parent, "task": task, "attrs": attrs}
                out.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
