"""In-memory spans recorded around calls into the program's layers.

A span is (name, start, end, parent, workload, run id).  Spans nest in
call order; a layer's self time is its span's duration minus the part of
that interval its child spans cover.  Layers are timed from outside: a
traced run replaces a module attribute (or method) with a wrapper that
opens a span, and restores the original afterwards.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str
    run_id: str


class Tracer:
    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._totals: dict = {}
        self._totals_n = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.workload,
                 self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name) for the duration."""
        saved = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    bound = getattr(owner, attr)
                    new = staticmethod(self._wrapper(bound, name))
                else:
                    new = self._wrapper(raw, name)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self) -> list[float]:
        children: list[list[Span]] = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = []
        for s, kids in zip(self.spans, children):
            covered, reach = 0.0, s.start
            for k in sorted(kids, key=lambda k: k.start):
                lo, hi = max(k.start, reach), min(k.end, s.end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, hi)
            out.append(s.end - s.start - covered)
        return out

    def self_time(self, name: str, under: Optional[str] = None) -> float:
        """Summed self time of spans called ``name``, optionally only those
        whose parent span is called ``under``."""
        if self._totals_n != len(self.spans):
            totals: dict = {}
            for s, t in zip(self.spans, self.self_times()):
                keys = {(s.name, None)}
                if s.parent is not None:
                    keys.add((s.name, self.spans[s.parent].name))
                for key in keys:
                    totals[key] = totals.get(key, 0.0) + t
            self._totals, self._totals_n = totals, len(self.spans)
        return self._totals.get((name, under), 0.0)

    def duration(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def dump(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines, with self times."""
        with gzip.open(path, "wt") as fh:
            for s, t in zip(self.spans, self.self_times()):
                fh.write(json.dumps(dict(asdict(s), self=t)) + "\n")
