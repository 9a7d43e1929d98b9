"""In-memory span tracer for the benchmark's traced runs.

Layers are traced by replacing a cflbench function at the name its caller
looks it up under (for example ``cflbench.harness.solve_opt``) with a
wrapper that records a span.  Nothing under ``src/`` changes: ``restore()``
puts every original back.  Spans stay in memory and are written out once the
run ends.  A layer's self time is its span minus the traced spans it caused.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        # (name, trace_id, span_id, parent_id, start, end, self_seconds)
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span_id, seconds covered by children]
        self._trace_id = 0
        self._next_span = 0
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    def _wrap(self, fn: Callable, name: str, opens_trace: bool,
              on_result: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            if opens_trace:
                self._trace_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_span, 0.0]
            self._next_span += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append((
                    name, self._trace_id, frame[0],
                    None if parent is None else parent[0],
                    start, end, end - start - frame[1],
                ))
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def patch(self, owner, key: str, name: str, opens_trace: bool = False,
              on_result: Optional[Callable] = None) -> None:
        """Trace ``owner.key`` (a module attribute) or ``owner[key]`` (a dict
        entry) as layer ``name``.  ``opens_trace`` starts a new trace id: the
        layers that first touch a new instance or probe level set it."""
        is_map = isinstance(owner, dict)
        original = owner[key] if is_map else getattr(owner, key)
        wrapped = self._wrap(original, name, opens_trace, on_result)
        if is_map:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, original, is_map))

    def restore(self) -> None:
        for owner, key, original, is_map in reversed(self._patches):
            if is_map:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, busy and self seconds, and sorted durations."""
        out: dict[str, dict] = {}
        for name, _, _, _, start, end, self_s in self.spans:
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += self_s
            entry["durations"].append(end - start)
        for entry in out.values():
            entry["durations"].sort()
        return out

    def write(self, path: str) -> None:
        """One JSON object per span; times in seconds from tracer creation."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, trace_id, span_id, parent, start, end, self_s in self.spans:
                fh.write(json.dumps({
                    "name": name, "trace": trace_id, "span": span_id, "parent": parent,
                    "start": start - self._origin, "end": end - self._origin,
                    "self": self_s,
                }) + "\n")
