"""Shared pieces of the benchmark: the run context and child processes."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
TRACED_CLI = BENCH_DIR / "traced_cli.py"
CHILD_TIMEOUT_S = 150
# Reported times are scaled to a machine on which reference_loop() takes this long.
REFERENCE_S = 0.004


@dataclass
class Context:
    """What every workload needs: how long to run and how to start cohdual."""

    seconds: float
    work: Path
    python: str
    env: dict

    @classmethod
    def create(cls, root: Path, seconds: float, work: Path) -> "Context":
        env = dict(os.environ)
        env.pop("COHDUAL_CONFIG", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return cls(seconds, work, sys.executable, env)

    def cohdual(self, argv, cwd, trace_file=None):
        """Run one CLI request in a fresh interpreter; return (process, seconds).

        The process is None when the request outlived the timeout; it has
        then been killed and reaped.
        """
        if trace_file is None:
            cmd = [self.python, "-m", "cohdual", *argv]
        else:
            cmd = [self.python, str(TRACED_CLI), str(trace_file), *argv]
        return self.spawn(cmd, cwd)

    def spawn(self, cmd, cwd):
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        return proc, perf_counter() - t0


@dataclass
class Outcome:
    """The timed loop's record, before it is turned into metrics."""

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed operations plus wrong outcomes of checks outside them
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        """An operation failed."""
        self.failed += 1
        self.note(what)

    def note(self, what: str) -> None:
        """Something came out wrong: the run is not correct."""
        self.wrong += 1
        if len(self.failures) < 10:
            self.failures.append(what)


def p50_ms(latencies) -> float:
    return statistics.median(latencies) * 1000.0 if latencies else 0.0


def p90_ms(latencies):
    """The 90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(latencies) < 100:
        return None
    return statistics.quantiles(latencies, n=10)[-1] * 1000.0


def reference_loop():
    """Fixed pure-Python work shaped like the element kernels: tuple keys,
    dict updates and a sort."""
    acc = {}
    for i in range(4000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * 3
    return sorted(acc.items())


class Pace:
    """Follows the machine's speed by timing reference_loop between operations.

    On a shared host the same work can take half as long again from one
    minute to the next; timings divided by the reference loop's median time
    vary far less, so every reported time is scaled by :meth:`scale`.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the loop three times and keep the fastest, so that caches
        left cold by the work before do not count."""
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - t0)
        self.samples.append(best)

    def scale(self) -> float:
        """Factor turning a time measured in this run into one at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
