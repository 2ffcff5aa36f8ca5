"""Measurement primitives: spans, self time, tail percentiles, per-pass bests,
calibration and the operation tally.

Spans are recorded by wrapping the program's public functions from the
benchmark's own code; nothing inside ``archscale`` is instrumented.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import time
import traceback
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Records one span per wrapped call; spans stay in memory until read."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = Span(name, self.clock(), 0, parent)
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until ``restore``; owner is a module or class."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ns(self, name: str) -> int:
        return sum(s.end - s.start for s in self.named(name))


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0
    run_a = run_b = None
    for a, b in clipped:
        if a >= b:
            continue
        if run_b is None or a > run_b:
            if run_b is not None:
                total += run_b - run_a
            run_a, run_b = a, b
        else:
            run_b = max(run_b, b)
    if run_b is not None:
        total += run_b - run_a
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part its direct children cover.

    Children may nest or overlap one another; the covered part is the
    union of their intervals clipped to the parent's, so no instant is
    subtracted twice.
    """
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_ns(s.start, s.end, kids)
            for s, kids in zip(spans, children)]


def tail_percentile(n: int, min_beyond: int = 10) -> int | None:
    """Highest whole percentile p with at least ``min_beyond`` samples above
    the nearest-rank p-th percentile of ``n`` samples, or None if none has."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= min_beyond:
            return p
    return None


def percentile(sorted_values: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[rank - 1]


class _Worker:
    __slots__ = ("budget", "done")

    def __init__(self):
        self.budget = 0.0
        self.done: list[int] = []


def calibration_work() -> int:
    """A fixed piece of the benchmark's own Python, shaped like the
    simulator's tick loop: workers with per-tick float budgets take ints
    off a deque. About 1.3 ms at the host's fast speed."""
    queue: deque = deque()
    workers = [_Worker() for _ in range(8)]
    for tick in range(720):
        queue.extend(range(tick, tick + 24))
        for w in workers:
            w.budget = 1.0
            while queue and w.budget > 0.0:
                w.done.append(queue.popleft())
                w.budget -= 0.37
    return sum(len(w.done) for w in workers)


class Calibration:
    """The host's speed over a run, from ``calibration_work`` timed at most
    every ``period_s`` seconds.

    The caller calls ``tick`` between pieces of its own work; ``tick``
    returns the nanoseconds it spent, so that the caller can leave them
    out of its times. ``scale`` brings a time measured in the run to the
    speed at which the work takes ``REFERENCE_NS``, using the run's best
    sample: the best pieces of the program's passes and the best sample
    are both taken at the run's fastest moments.
    """

    REFERENCE_NS = 1_300_000

    def __init__(self, period_s: float = 0.1):
        self.period_ns = int(period_s * 1e9)
        self.last_ns: int | None = None
        self.samples_ns = array("q")

    def tick(self) -> int:
        start = time.perf_counter_ns()
        if self.last_ns is not None and start - self.last_ns < self.period_ns:
            return 0
        calibration_work()
        self.last_ns = time.perf_counter_ns()
        spent = self.last_ns - start
        self.samples_ns.append(spent)
        return spent

    def scale(self, metrics: dict[str, float]) -> dict[str, float]:
        """Times multiplied, and rates (``*_per_s``) divided, by the ratio
        of the reference to the best sample."""
        factor = self.REFERENCE_NS / min(self.samples_ns)
        return {name: value / factor if name.endswith("_per_s") else value * factor
                for name, value in metrics.items()}


class Bests:
    """Each element's best over the passes of a run.

    A workload does the same work, in the same order, on every pass, so
    its decisions, and the segments its passes are cut into, line up from
    pass to pass. Taking each element's fastest pass keeps the host's slow
    spells out of it, as long as one pass was fast at that element.
    """

    def __init__(self):
        self.best: np.ndarray | None = None
        self.passes = 0

    def add(self, values) -> None:
        """Fold in one pass; a pass whose length differs is skipped, since
        its elements cannot be matched."""
        new = np.asarray(values, dtype=np.int64)
        if self.best is None:
            self.best = new.copy()
        elif len(new) != len(self.best):
            return
        else:
            np.minimum(self.best, new, out=self.best)
        self.passes += 1


@dataclass
class Tally:
    """Attempted and failed operations, with the reason of each failure.

    An operation fails when it raises or when one of its output checks
    fails; a failed check inside an operation fails that operation once.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def run(self, label: str, op: Callable[[], list[str]]) -> bool:
        """Run ``op``, which returns its failed checks, and record the outcome."""
        try:
            problems = op()
        except Exception as exc:  # an operation that raises is a failed operation
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problems = [f"raised {type(exc).__name__}: {exc} "
                        f"({Path(where.filename).name}:{where.lineno})"]
        self.record(label, problems)
        return not problems


class SetupProbes:
    """Cold set-ups spread evenly over a run, reported as medians.

    ``due`` starts a probe once the run has reached the next of ``count``
    even slots of ``seconds``; ``finish`` makes any probes still missing.
    A probe is a fresh interpreter running ``command``, timed from spawn to
    its first output line, which holds its own step times in ms. Probes are
    reaped only in ``reap``, so that ``RUSAGE_CHILDREN`` read before it
    does not count their memory.
    """

    STEPS = ("setup.import_ms", "document.load_ms", "capacity.table_ms", "capacity.ladder_ms")

    def __init__(self, command: list[str], count: int, seconds: float):
        self.command = command
        self.count = count
        self.slot_s = seconds / count
        self.start = time.perf_counter()
        self.totals: list[float] = []
        self.steps: list[list[float]] = []
        self._done: list[subprocess.Popen] = []

    def due(self) -> None:
        if len(self.totals) < self.count and \
                time.perf_counter() - self.start >= len(self.totals) * self.slot_s:
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        probe = subprocess.Popen(self.command, stdout=subprocess.PIPE, text=True)
        self._done.append(probe)
        line = probe.stdout.readline()
        self.totals.append(time.perf_counter() - start)
        probe.stdout.read()
        probe.stdout.close()
        if not line.strip():
            raise RuntimeError("set-up probe printed nothing")
        self.steps.append([float(x) for x in line.split()])

    def finish(self) -> dict[str, float]:
        """``setup_s`` and the step times, each the median over the probes."""
        while len(self.totals) < self.count:
            self.probe()
        out = {name: statistics.median(col) for name, col in zip(self.STEPS, zip(*self.steps))}
        out["setup_s"] = statistics.median(self.totals)
        return out

    def reap(self) -> None:
        codes = [probe.wait() for probe in self._done]
        self._done.clear()
        if any(codes):
            raise RuntimeError(f"set-up probe failed with exit codes {codes}")
