"""Host speed, sampled while the benchmark times, so that timings can be
reported at one fixed reference speed.

The benchmark runs on a shared host whose speed drifts: a fixed Python
loop, timed back to back for three minutes on a shared 2-vCPU Intel Xeon
host, read 22–38 ms in one 15-second window and another, so wall-clock
medians of runs made minutes apart spread by a quarter or more whatever
the run length.  While a ``Pace`` runs, SIGALRM fires every ``PERIOD_S``
and its handler times one ``chunk``: a fixed breadth-first search on a
fixed graph, the dict, set and deque work konigmatch itself does.  An
interval is then reported at reference speed: its wall time less the time
spent in the handler, times ``REFERENCE_S`` over the mean chunk time
measured while it ran (with the nearest sample on each side).  When the
host slows both the program and the chunk alike, the two cancel.  The
chunk is fixed code outside konigmatch, so any change in the program's
own speed shows in full.

On that host, over 50 three-second windows of ``experiments.run_trials``
calls, each followed by a chunk, the median call spread by 0.36 (quartile
distance over median) in wall time and by 0.04 at reference speed; a
3000-vertex search tracked the program more closely than a 400-vertex one
(0.07).  The handler runs only between bytecodes of the main thread, and
costs about 1.5% of the time it samples.
"""

from __future__ import annotations

import bisect
import signal
import time
from collections import deque

PERIOD_S = 0.1
# the mean chunk time at which reference seconds equal wall seconds; runs
# on the host the bounds were set on saw medians of 1.3–1.8 ms
REFERENCE_S = 1.5e-3

_N = 3000
_ADJ = [[(v * 7 + k * 13) % _N for k in range(4)] for v in range(_N)]


def chunk() -> int:
    """Fixed work: a breadth-first search of a 3000-vertex graph."""
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in _ADJ[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


class Pace:
    """Chunk timings taken every ``PERIOD_S`` while running."""

    def __init__(self):
        self.at: list[float] = []     # when each chunk started
        self.took: list[float] = []   # how long it took
        self.spent = 0.0              # seconds spent timing chunks

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        chunk()
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.spent += took

    def start(self) -> None:
        """Sample now and then every ``PERIOD_S`` until ``stop``."""
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scaled(self, start: float, end: float, wall: float) -> float:
        """``wall`` seconds of work done between ``start`` and ``end`` (the
        handler's time already taken out), at reference speed."""
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = bisect.bisect_right(self.at, end) + 1
        near = self.took[lo:hi]
        return wall * REFERENCE_S * len(near) / sum(near)
