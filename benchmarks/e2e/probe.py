"""Host-speed probes: report timings at a fixed reference host speed.

On shared cloud hosts each vCPU runs the same code at visibly different
speeds from one few-second stretch to the next.  On the 2-core Xeon
KVM guest the baselines were measured on, slow stretches ran ~1.75x
slower, came every few seconds, and were invisible from the other
vCPU; raw wall times of one sweep spread ±15% from run to run while its
simulated work varied by 0.5%.  A fixed probe task — interpreter and
small-array NumPy work that never touches ``repro`` — therefore runs
*on the timed thread itself*:

* :class:`TickSampler` runs a ~1 ms probe every 50 ms from a SIGALRM
  handler during a long call (set-up, a cold sweep), so slow stretches
  that start and end inside the call are seen too;
* :func:`probe_s` (best of 3 × ~8 ms) brackets calls shorter than a
  tick (warm reruns).

A call's time is reported as its wall time divided by the mean
slowdown of its probes against :data:`REFERENCE_S` — the probe times of
the reference host.  Probes above :data:`OUTLIER` times the call's
median probe are left out: a probe preempted by another process, or
the first one in a fresh interpreter, reads far slower than the host
ran, while a genuine slow stretch (~1.75x) stays in.  A change to the
program cannot move the probe, so this cancels host speed, not program
speed.  Raw wall times are kept next to every corrected one.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

__all__ = [
    "OUTLIER", "REFERENCE_S", "TICK_S", "TickSampler", "corrected",
    "host_factor", "probe_s", "worker_tick_path",
]

#: Probe seconds on the reference host (the 20th percentile of each
#: kind over ten runs of every workload): ``tick`` for the sampler's
#: probe, ``bracket`` for :func:`probe_s`.
REFERENCE_S = {"tick": 1.03e-3, "bracket": 7.9e-3}
#: Probes slower than this multiple of the call's median probe are
#: outliers, not host speed.
OUTLIER = 2.0
#: Interval between the sampler's probes.
TICK_S = 0.05


def _task(loops: int) -> None:
    table: dict[int, int] = {}
    for i in range(loops * 40):
        table[i & 1023] = table.get(i & 1023, 0) + i
    values = np.arange(64, dtype=np.float64)
    for _ in range(loops * 3):
        values = np.sqrt(values * values + 1.0)


def probe_s(rounds: int = 3) -> float:
    """Best-of-*rounds* seconds of the bracketing probe."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        _task(1000)
        best = min(best, time.perf_counter() - start)
    return best


class TickSampler:
    """Times a ~1 ms probe every :data:`TICK_S` seconds on this thread.

    SIGALRM handlers run on the main thread between bytecodes, so the
    probe runs on the same vCPU as the code being timed.  With *path*
    set, every tick is also appended to that file (pool workers are
    terminated, not joined, so their ticks must already be on disk).
    """

    def __init__(self, path: str | None = None) -> None:
        self.ticks: list[float] = []
        self._path = path
        self._handle = None
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _task(125)
        elapsed = time.perf_counter() - start
        self.ticks.append(elapsed)
        if self._handle is not None:
            self._handle.write(f"{elapsed}\n")
            self._handle.flush()

    def start(self) -> "TickSampler":
        if self._path is not None:
            self._handle = open(self._path, "a")
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        return self.ticks


def worker_tick_path(directory: str) -> str:
    """Per-process tick file of a pool worker under *directory*."""
    return os.path.join(directory, f"ticks-{os.getpid()}.txt")


def host_factor(probes, kind: str) -> float:
    """How much slower than the reference host the probes ran."""
    limit = OUTLIER * statistics.median(probes)
    return statistics.fmean(p for p in probes if p <= limit) / REFERENCE_S[kind]


def corrected(sample: dict, sensitivity: float = 1.0) -> float:
    """A ``{"wall", "probes", "kind"}`` sample's time at reference speed.

    *sensitivity* is how strongly the timed work follows the probe's
    slowdown (the host factor's exponent).  A call too short for any
    tick keeps its raw wall time.
    """
    if not sample["probes"]:
        return sample["wall"]
    factor = host_factor(sample["probes"], sample["kind"])
    return sample["wall"] / factor ** sensitivity
