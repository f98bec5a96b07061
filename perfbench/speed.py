"""Machine-speed calibration for the benchmark's timings.

Other tenants change this kind of shared machine's speed by up to 1.7x from
one 5-second window to the next, and every task slows with it.  Over 100 s
on a 2-vCPU Xeon VM, the 5-second medians of a fixed pure-Python loop, of
cusps_oracle(300) and of verify_w_rationality at (3, 7) each varied by
33-40 % (quartile distance over median), while the ratio of either task to
the loop varied by 5-6 %.

So a background thread runs ``reference_loop`` every PROBE_EVERY_S and
records the thread's CPU time for it, which the slowdowns inflate as much
as they inflate wall time.  A task's time is scaled by REFERENCE_S over the
median probe within WINDOW_S of the task, probes during the task included:
every time reads as on a machine that runs the loop in REFERENCE_S.  Over
90 s on the same machine, single calls of verify_galois_conjugation(5) and
of verify_w_rationality at (3, 7) varied by 17 % and 29 % raw and by 9 %
scaled this way.  A probe holds the interpreter lock, so the time a probe
overlaps an in-process task is taken out of that task's time first.
"""
from __future__ import annotations

import bisect
import statistics
import threading
import time

REFERENCE_S = 0.002
PROBE_EVERY_S = 0.1
WINDOW_S = 0.5
MIN_PROBES = 3


def reference_loop() -> int:
    """Fixed pure-Python work, independent of modtwist: tuple keys, dict
    updates and modular inverses, as in the finite-field code.  It is kept
    shorter than the interpreter's 5 ms switch interval."""
    seen = {}
    for i in range(1, 3001):
        key = (i * 7919 % 1009, pow(i % 1008 + 1, -1, 1009))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Speedometer:
    """The probing thread; use as a context manager around a run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._probes: list[tuple[float, float, float]] = []  # wall start, wall end, CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            w0, c0 = time.perf_counter(), time.thread_time()
            reference_loop()
            c1, w1 = time.thread_time(), time.perf_counter()
            with self._lock:
                self._probes.append((w0, w1, c1 - c0))

    def probes(self) -> "Probes":
        """The probes so far, once there are at least MIN_PROBES."""
        while True:
            with self._lock:
                if len(self._probes) >= MIN_PROBES:
                    return Probes(list(self._probes))
            time.sleep(PROBE_EVERY_S)


class Probes:
    """A snapshot of the probes, in time order."""

    def __init__(self, probes: list[tuple[float, float, float]]) -> None:
        self.starts = [p[0] for p in probes]
        self.ends = [p[1] for p in probes]
        self.cpu = [p[2] for p in probes]

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < MIN_PROBES:
            gap = [max(start - s, s - end, 0.0) for s in self.starts]
            near = [self.cpu[i] for i in sorted(range(len(gap)), key=gap.__getitem__)[:MIN_PROBES]]
        else:
            near = self.cpu[lo:hi]
        return REFERENCE_S / statistics.median(near)

    def overlap(self, start: float, end: float) -> float:
        """Seconds of [start, end] during which a probe ran."""
        lo = bisect.bisect_left(self.starts, start - 1.0)  # a probe lasts far less than 1 s
        hi = bisect.bisect_right(self.starts, end)
        return sum(max(0.0, min(end, self.ends[i]) - max(start, self.starts[i])) for i in range(lo, hi))

    def speed(self) -> float:
        """REFERENCE_S over the median of all probes."""
        return REFERENCE_S / statistics.median(self.cpu)
