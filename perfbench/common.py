"""Shared plumbing of the campaign benchmark: paths, timing, statistics."""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Everything a run leaves behind (trace spans, scratch shares) lives here.
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program sources)."""


def use_program_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(fraction * 100)) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(build, discard=None):
    """Run *build* SETUP_REPEATS times; returns (median seconds, last
    result).  Each earlier result is handed to *discard*, outside the
    timing, before the next build."""
    seconds = []
    result = None
    for _ in range(SETUP_REPEATS):
        if result is not None and discard is not None:
            discard(result)
        result = None  # never two set-ups alive at once
        start = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - start)
    return median(seconds), result


# Rounds every timed run completes, however long they take: the
# median per operation is taken over these, so a faster program cannot
# change the set of operations the median covers.  The traced run does
# exactly these rounds, so its per-layer totals are the time of a fixed
# amount of work.
LEADING_ROUNDS = {"seu-dct-atomic": 3, "seu-jacobi-o3": 5,
                  "share-live": 6, "service-now": 2}


class Rounds:
    """The measured window, in whole rounds.  A timed run does its
    leading rounds, then starts more until *seconds* have passed; a
    fixed run (the short mode, the traced run) does exactly *fixed*."""

    def __init__(self, workload: str, seconds: float,
                 fixed: int | None = None) -> None:
        self.leading = LEADING_ROUNDS[workload]
        self.seconds = seconds
        self.fixed = fixed
        self.start = time.perf_counter()

    def more(self, done: int) -> bool:
        if self.fixed is not None:
            return done < self.fixed
        return done < self.leading or self.elapsed() < self.seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def leading_values(self, per_round: list[list[float]]) -> list[float]:
        """The values of the leading rounds, flattened."""
        return [value for values in per_round[:self.leading]
                for value in values]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
