"""Timing, speed calibration, tracing and summary statistics for the
rookpack benchmark.

Every time the benchmark reports is scaled by calibration loops timed
right after it: reported = measured * CAL_REF_S / median(loop times).
The loops are fixed Python work that shares no code with rookpack, so
a change to rookpack moves the scaled times as much as the raw ones,
while a slow phase of a shared machine (which slows the loops as well)
moves them much less. The raw seconds are printed next to the scaled
ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import time

# Median time of one calibration sample on the reference machine (Intel
# Xeon, 2 vCPU VM, CPython 3.11); scaled times read as seconds there.
CAL_REF_S = 0.001


def _step(i, acc):
    return (i * 31 + acc) & 0xFFFF


def _interpreter_loop():
    # Interpreter work of the kinds the solver does (calls, tuples, dicts,
    # big-int bit operations), with every object small enough for the
    # interpreter's own allocator, so that the loop's speed follows the
    # machine and not the state of the process heap.
    table = {}
    bits = 0
    acc = 0
    for i in range(300):
        m = 1 << ((i * 7919) % 1021)
        bits = bits | m if not bits & m else bits ^ (m >> 1)
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + (bits >> (i % 512)).bit_length()
        acc = _step(i, acc) + len(str(i))
    return acc + len(table) + bits.bit_count()


_DOC = {"n": 5, "k": 3, "rooks": [{"point": [i, i * 7 % 5, 3], "dirs": [0, 2]} for i in range(12)]}


def _stdlib_loop():
    # Standard-library work of the kinds a CLI command does: build and run
    # an argument parser, write and read JSON, hash the text.
    p = argparse.ArgumentParser(prog="calibration")
    sub = p.add_subparsers(dest="command")
    for name in ("a", "b"):
        s = sub.add_parser(name)
        for flag in ("--n", "--k", "--l"):
            s.add_argument(flag, type=int)
    p.parse_args(["b", "--n", "3", "--k", "2", "--l", "1"])
    text = json.dumps(_DOC, indent=2)
    return hashlib.sha256(text.encode()).hexdigest(), json.loads(text)


def calibration_sample() -> float:
    """Wall time of one pass of both calibration loops, in seconds."""
    t = time.perf_counter()
    _interpreter_loop()
    _stdlib_loop()
    return time.perf_counter() - t


def speed_factor(samples) -> float:
    """Scale that maps measured seconds to reference seconds."""
    return CAL_REF_S / statistics.median(samples)


def median(values):
    return statistics.median(values) if values else 0.0


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    the maximum is returned as percentile 100.
    """
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end")

    def __init__(self, sid, name, parent, op, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start": self.start,
            "end": self.end,
        }


class NullTracer:
    """Calls straight through; used for the untraced, measured passes."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op):
        pass

    def end_op(self):
        pass


class Tracer:
    """Records one span per call the benchmark makes into a module.

    A span holds its name (<module>.<function>), start and end, the span
    that was open when it started and the operation it belongs to. Spans
    stay in memory until the run ends.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def begin_op(self, op):
        self._op = op
        self._push("op", time.perf_counter())

    def end_op(self):
        self._pop(time.perf_counter())
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        self._push(name, time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._pop(time.perf_counter())

    def _push(self, name, t):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._op, t)
        self.spans.append(span)
        self._stack.append(span)

    def _pop(self, t):
        self._stack.pop().end = t

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[s.id] for s in self.spans]
