"""Host-speed calibration: express measured times at a fixed reference speed.

The 2-CPU hosts this benchmark runs on share their cores with other tenants,
and their speed switches between regimes: the same work takes up to twice
as long for tens of seconds at a time, then runs fast again.  A wall-clock
time alone then says more about the neighbours than about the program.

So while it serves requests the worker also runs a small fixed chunk of the
benchmark's own work (never gfminrank's), every INTERVAL seconds from a
SIGALRM interval timer, and reads the host's speed off how long each chunk
takes.  Python runs the handler between bytecodes of the main thread, so the
chunks land inside long requests too (a long numpy or ``json`` call only
delays them).  Chunk time is taken out of every measured interval, and the
rest is scaled piece by piece: each stretch between chunks by ``REF_S``
over the median time of the NEAREST chunks around it: a scaled time is the
time the work would take if every chunk around it took REF_S.  The
program's own speed-ups and slow-downs show in full, the host's regime does
not.  REF_S is a fixed unit, the chunk's standalone time on an uncontended
2-CPU Intel Xeon host; run between stretches of library code the chunk is
slower than standalone (its caches are cold), so scaled times come out at
about half the raw times of the host's fast regime.  Compare scaled times
with each other, and raw times with a wall clock.

There are two chunks, and a workload uses the one whose work resembles its
own: ``py`` (dictionary, set, list and integer work in the interpreter) for
the pure-Python layers that do most of the work in ``sweep``, ``mine`` and
``patterns``, and ``np`` (batched table gathers over small integer
matrices, like the oracle kernel's) for ``oracle``.  Over the same stretch
of host time, ``np`` follows the oracle kernel's speed three times more
closely than ``py`` does.  Import times are scaled by ``py``.  Raw times are
kept next to the scaled ones in every result.
"""

from __future__ import annotations

import bisect
import signal
import time

REF_S = {"py": 0.0004, "np": 0.0025}  # standalone chunk times, uncontended 2-CPU Xeon host
INTERVAL = {"py": 0.025, "np": 0.05}  # seconds between chunks while the timer runs
NEAREST = 7        # chunks whose median gives the speed around a moment


def chunk() -> int:
    d: dict[int, int] = {}
    s: set[int] = set()
    acc = 0
    for i in range(1500):
        k = (i * 2654435761) & 1023
        d[k] = d.get(k, 0) + i
        if k & 1:
            s.add(k)
        acc += len(s) ^ k
    return acc + sum(sorted(d.values(), reverse=True)[:50])


_NP: list = []


def np_chunk() -> int:
    if not _NP:
        import numpy as np
        rng = np.random.default_rng(2008)
        _NP.extend((np, rng.integers(0, 5, (2048, 5, 5)), (np.arange(25).reshape(5, 5) * 3) % 5))
    np, mats, table = _NP
    a = mats.copy()
    for col in range(5):
        pivot = a[:, col, col]
        factors = table[a[:, :, col], pivot[:, None]]
        a = np.where((factors > 1)[:, :, None], table[a, factors[:, :, None]], a)
    return int(a.sum())


CHUNKS = {"py": chunk, "np": np_chunk}


def median(xs) -> float:
    """Median without the statistics module, whose imports would pre-load
    modules that gfminrank's own import is timed loading."""
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


class Calibrator:
    """Chunk timings over a run, and the times they scale.

    Use ``with cal:`` around the measured section: it runs a few chunks
    before and after it and keeps the timer running in between."""

    def __init__(self, kind: str = "py"):
        self.kind = kind
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.mids: list[float] = []
        self.times: list[float] = []
        self._saved = None
        self._busy = False

    def run(self, n: int = 1) -> None:
        for _ in range(n):
            t = time.perf_counter()
            CHUNKS[self.kind]()
            end = time.perf_counter()
            self.starts.append(t)
            self.ends.append(end)
            self.mids.append((t + end) / 2)
            self.times.append(end - t)

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick that lands inside a chunk is dropped
            self._busy = True
            try:
                self.run()
            finally:
                self._busy = False

    def __enter__(self):
        self.run(NEAREST // 2)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL[self.kind], INTERVAL[self.kind])
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.run(NEAREST // 2)

    def _inside(self, start: float, end: float) -> range:
        """Indices of the chunks that ran within [start, end]."""
        return range(bisect.bisect_left(self.starts, start), bisect.bisect_right(self.ends, end))

    def spent(self, start: float, end: float) -> float:
        """Chunk time within [start, end]."""
        return sum(self.times[i] for i in self._inside(start, end))

    def factor(self, at: float) -> float:
        """The chunk's REF_S over the median time of the NEAREST chunks around ``at``."""
        i = bisect.bisect(self.mids, at)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.mids)):
            if lo > 0 and (hi == len(self.mids) or at - self.mids[lo - 1] <= self.mids[hi] - at):
                lo -= 1
            else:
                hi += 1
        return REF_S[self.kind] / median(self.times[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The time of [start, end] without its chunks, stretch by stretch at
        the reference speed."""
        total, at = 0.0, start
        for i in self._inside(start, end):
            total += (self.starts[i] - at) * self.factor((at + self.starts[i]) / 2)
            at = self.ends[i]
        return total + (end - at) * self.factor((at + end) / 2)
