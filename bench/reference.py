"""Machine-speed reference for normalising times.

This machine's speed drifts by a factor of up to 1.5-2 over tens of
seconds (neighbouring load; CPU time equals wall time, so it is not the
scheduler).  A pass-length median cannot average that away.  So every
process also times a fixed pure-Python kernel, written here and never
changed, between its operations.  Its instruction mix resembles
diskplex's hot paths: integer and dict churn, face enumeration over
tuples and sets, and sparse integer row elimination.

A time reported in reference seconds is ``raw * NOMINAL_S / median
(reference samples of the same process)``: the seconds the operation
would have taken had the reference run at its nominal speed.  Work done
by diskplex moves it exactly as it moves raw seconds; machine drift
moves both the operation and the reference and cancels.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import itertools
import signal
import statistics
import time

# Median time of one reference() call on the 2-core Intel Xeon machine
# this benchmark was written on, at its faster steady speed.  Fixed, so
# that reference seconds stay comparable across commits.
NOMINAL_S = 0.0095
PERIOD_S = 0.25

_FACETS = list(itertools.combinations(range(10), 4))[:90]


def reference() -> int:
    """The fixed kernel; about NOMINAL_S on the machine above."""
    d: dict = {}
    x = 1
    for i in range(16000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 997, i % 13)
        d[key] = d.get(key, 0) + 1
    faces: dict = {}
    for f in _FACETS:
        for r in range(1, len(f) + 1):
            for s in itertools.combinations(f, r):
                faces.setdefault(r - 1, set()).add(s)
    rank = 0
    for dim in range(1, 4):
        lower = {f: i for i, f in enumerate(sorted(faces[dim - 1]))}
        rows: dict = {}
        for j, f in enumerate(sorted(faces[dim])):
            for i in range(len(f)):
                rows.setdefault(lower[f[:i] + f[i + 1:]], {})[j] = (-1) ** i
        while rows:
            pi = min(rows, key=lambda r: (len(rows[r]), r))
            prow = rows.pop(pi)
            pj = min(prow)
            pv = prow[pj]
            for i in [r for r in rows if pj in rows[r]]:
                row = rows[i]
                q = row[pj] * pv
                for j, v in prow.items():
                    nv = row.get(j, 0) - q * v
                    if nv:
                        row[j] = nv
                    else:
                        row.pop(j, None)
                if not row:
                    del rows[i]
            rank += 1
    return rank + len(d)


class Speedometer:
    """Reference samples, each kept as (start, seconds).

    ``sample()`` is called between operations; inside ``periodic()`` a
    SIGALRM timer also samples every ``PERIOD_S`` of wall time, so long
    operations get samples from their own duration.  ``normalise()``
    subtracts the sampling time spent inside an operation and converts
    the rest to reference seconds.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, times: int = 1) -> None:
        if self._busy:  # a timer signal landed while sampling
            return
        self._busy = True
        # With the cyclic collector off, the kernel's cost does not depend
        # on how much the process has allocated; it makes no cycles.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = time.perf_counter()
                reference()
                self.samples.append((t0, time.perf_counter() - t0))
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    @contextlib.contextmanager
    def periodic(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, samples=None) -> float:
        """How much slower than nominal the samples ran (1.0 = nominal)."""
        durations = [d for _, d in (self.samples if samples is None else samples)]
        return statistics.median(durations) / NOMINAL_S

    def normalise(self, start: float, seconds: float) -> tuple[float, float]:
        """(work seconds, reference seconds) of an operation's wall interval.

        The speed comes from the samples taken inside the interval plus
        the last one before it.
        """
        starts = [s for s, _ in self.samples]
        lo = max(bisect.bisect_left(starts, start) - 1, 0)
        hi = bisect.bisect_left(starts, start + seconds)
        inside = self.samples[lo + 1:hi] if starts and starts[lo] < start else self.samples[lo:hi]
        work = seconds - sum(d for _, d in inside)
        return work, work / self.factor(self.samples[lo:hi] or self.samples)
