"""Measurement primitives shared by the benchmark's worker and its tests.

- A pure-Python calibration kernel whose timing is the unit of every
  reported time (``ref``): an operation's seconds divided by the rolling
  median of the kernel's seconds, measured in the same process.  The
  kernel allocates no GC-tracked object, so a change that keeps more
  objects alive cannot slow the kernel through GC passes and pass for a
  gain.
- The tail-percentile rule: the highest percentile with at least ten
  samples beyond it.
- Spans and self time for the traced run, and a tracer that wraps the
  package's public functions from outside.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import deque
from typing import Callable, NamedTuple

WORKLOAD_NAMES = ("large-graph", "search-hard", "small-batch", "cli-pipe")


def hermetic_env(root: str) -> dict[str, str]:
    """Environment for every process the benchmark starts.

    Fixed hash seed, no PFG_EPSILON override, and the checkout's ``src``
    as the only extra import path.
    """
    env = dict(os.environ)
    env.pop("PFG_EPSILON", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


# --- calibration kernel ----------------------------------------------------


class _Coefficients:
    __slots__ = ("scale", "step")

    def __init__(self) -> None:
        self.scale = 0.999999
        self.step = 7


_COEFF = _Coefficients()
_TABLE = {i: i / 64 for i in range(64)}
KERNEL_ITERATIONS = 120_000
# Set-up time is reported in seconds of a nominal machine on which one kernel
# call takes this long, so that machine speed drift cancels as it does for ref.
NOMINAL_KERNEL_S = 0.015


def kernel(iterations: int = KERNEL_ITERATIONS) -> float:
    """Float arithmetic over a prebuilt 64-entry dict and ``__slots__`` reads.

    Everything it touches stays in the first-level cache, so its time does
    not depend on what the operation before it evicted.  It creates only
    floats and ints, which the cycle collector does not track, so
    ``gc.get_count()`` is unchanged by a call.
    """
    coeff = _COEFF
    table = _TABLE
    acc = 0.0
    k = 0
    i = 0
    while i < iterations:
        acc = acc * coeff.scale + table[k]
        k = (k + coeff.step) & 63
        i += 1
    return acc


class Calibration:
    """Kernel samples taken between operations, read as a rolling median."""

    def __init__(self, window: int = 9, every_s: float = 0.1) -> None:
        self.recent: deque[float] = deque(maxlen=window)
        self.history: list[float] = []
        self.every_s = every_s
        self._last = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.recent.append(t1 - t0)
        self.history.append(t1 - t0)
        self._last = t1

    def prime(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def unit(self) -> float:
        """Current seconds per ``ref``."""
        return statistics.median(self.recent)


# --- percentiles -------------------------------------------------------------

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least ``min_beyond`` of n samples above it."""
    for p in TAIL_CANDIDATES:
        if round(n * (100.0 - p) / 100.0, 6) >= min_beyond:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# --- spans -------------------------------------------------------------------


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op_id: int
    unit: float  # seconds per ref when the span closed


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


class Tracer:
    """Wraps public functions in the package's module namespaces.

    A wrapped call records a span only while an operation is open, so the
    correctness checks that run between operations are not counted.  A
    ``counter(args, result)`` attached to a function adds exact counts.
    """

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op_id, 0.0))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[index]
        self.spans[index] = span._replace(end=end, unit=self.calibration.unit())

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.count(name + ".calls")
            if counter is not None:
                for key, amount in counter(args, result):
                    tracer.count(key, amount)
            return result

        return traced

    def install(self, package: str, targets: dict[str, tuple[object, Callable | None]]) -> None:
        """Replace every binding of each target function in the package's modules.

        ``targets`` maps a span name to (original function, counter).  Names
        bound by ``from .x import f`` are replaced too, so calls between the
        package's own modules are seen.
        """
        by_id = {id(fn): self.wrap(name, fn, counter) for name, (fn, counter) in targets.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
