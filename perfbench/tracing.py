"""In-memory spans for the traced benchmark runs.

Spans are recorded from the benchmark's own code, around calls into the
simulator's layers; nothing inside the simulator is edited. Two kinds:

* a *span* (name, start, end, parent) for each call of a coarse entry point
  such as ``run``, ``step``, ``load_scenario`` or ``trajectory_csv``;
* a *rollup* for functions called thousands of times per tick from inside
  ``run``/``step`` (controller, battery, range-and-bearing reading, camera
  capture): their calls under one parent span are summed into
  ``[ns, calls, items, projections]`` instead of being kept one by one.

A span's self time is its duration minus the part of it covered by its
direct child spans, minus the time rolled up under it.
"""

from __future__ import annotations

import time

clock = time.perf_counter_ns

NAME, START, END, PARENT = range(4)
TOLERANCE = 0.05


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start_ns, end_ns, parent]
        self.rollups: dict[tuple[int, str], list[int]] = {}
        self._stack = [-1]

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1]])
        self._stack.append(index)
        self.spans[index][START] = clock()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} ended while {popped} was open")

    def span(self, name: str, fn):
        """``fn`` wrapped to record one span per call."""
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def leaf(self, name: str, fn, count=None):
        """``fn`` wrapped to add its time and call count to a rollup under the
        open span. ``count(args, result)`` may return (items, projections)."""
        rollups = self.rollups
        stack = self._stack

        def traced(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            key = (stack[-1], name)
            record = rollups.get(key)
            if record is None:
                record = rollups[key] = [0, 0, 0, 0]
            record[0] += elapsed
            record[1] += 1
            if count is not None:
                items, projections = count(args, result)
                record[2] += items
                record[3] += projections
            return result
        return traced


def self_times(spans, rollups) -> list[int]:
    """Self time in ns of each span (same order as ``spans``)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    rolled: dict[int, int] = {}
    for (parent, _name), record in rollups.items():
        rolled[parent] = rolled.get(parent, 0) + record[0]
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered - rolled.get(index, 0))
    return out


def check_tree(spans, rollups, outside: dict[str, int]) -> str:
    """'' when the trace agrees with a clock it did not produce; otherwise
    the reason.

    ``outside`` maps a span name to the total time another clock measured
    around the same calls. For each, the self times of those spans plus the
    time of their direct children and of the calls rolled up under them
    must add up to that total, less at most TOLERANCE of it (the wrappers'
    own cost). Every self time must also be non-negative.
    """
    selfs = self_times(spans, rollups)
    if any(value < 0 for value in selfs):
        worst = min(range(len(selfs)), key=selfs.__getitem__)
        return f"negative self time in span {spans[worst][NAME]!r}"
    for name, measured in outside.items():
        mine = {i for i, span in enumerate(spans) if span[NAME] == name}
        total = sum(selfs[i] for i in mine)
        total += sum(s[END] - s[START] for s in spans if s[PARENT] in mine)
        total += sum(r[0] for (parent, _), r in rollups.items() if parent in mine)
        if not measured * (1.0 - TOLERANCE) <= total <= measured:
            return (f"{name!r} adds up to {total} ns, but {measured} ns were "
                    "measured around its calls")
    return ""
