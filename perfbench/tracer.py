"""In-memory span tracer that wraps the program's public functions.

Each wrapper is installed at the name its caller looks up: completion calls
`linalg.svd` through the module, so the span goes on `hankeldoa.linalg.svd`;
pipeline imports `svt_complete` by name, so the span goes on
`hankeldoa.pipeline.svt_complete`.  Every span records its name, start, end,
the span that caused it and the operation it belongs to.  Spans stay in
memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        # (span_id, parent_id, name, start, end, op); parent_id -1 for a root.
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, observe=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, self._op))
        if observe is not None:
            self.observed[name].append(observe(result))
        return result

    def op(self, index: int, fn, *args, **kwargs):
        """Run one benchmark operation under a root span named bench.op."""
        self._op = index
        try:
            return self.call("bench.op", fn, args, kwargs)
        finally:
            self._op = -1

    # -- installation ------------------------------------------------------

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, observe)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self, points) -> None:
        for module, attr, name, *rest in points:
            self.wrap(module, attr, name, rest[0] if rest else None)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total seconds, self seconds and durations.

        Self time is a span's duration minus the durations of the spans it
        caused; the wrapped calls run on one thread, so children nest.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for span_id, _, name, start, end, _ in self.spans:
            row = out.setdefault(
                name, {"count": 0, "total": 0.0, "self": 0.0, "durations": []}
            )
            dur = end - start
            row["count"] += 1
            row["total"] += dur
            row["self"] += dur - child_time[span_id]
            row["durations"].append(dur)
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s,op\n")
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(f"{span_id},{parent},{name},{start!r},{end!r},{op}\n")
