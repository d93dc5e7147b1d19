"""Reference-speed clock: times a phase in seconds at a fixed CPU speed.

The shared hosts this benchmark runs on change speed by up to 1.6x for
tens of seconds to minutes at a time, and a plain Python loop slows with
them (CPU time tracks wall time, so the slowdown is not steal time). A
RefSampler interleaves a fixed pure-Python reference chunk with the work:
a SIGALRM timer fires every INTERVAL_S and its handler runs one chunk and
records how long it took. The handler runs between bytecodes of the main
thread, so the chunks sample the speed the work itself gets, spread
evenly over the phase.

For a phase, the work time is the raw wall time minus the time spent in
the handler, and the speed is the mean chunk time over REF_CHUNK_S, the
time one chunk takes on a quiet core. The phase's reference time is the
work time divided by that speed. It moves with the program's own cost and
not with the host's speed, as long as the host slows the program and the
chunk alike; both are interpreter-bound Python.

    sampler = RefSampler(); sampler.start()
    mark = sampler.mark(); t0 = perf_counter(); work()
    ref_s = sampler.reference_time(mark, perf_counter() - t0)
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
CHUNK_ITERS = 1500
REF_CHUNK_S = 0.0005  # one chunk on a quiet 2 GHz core, Python 3.11
MIN_SAMPLES = 8  # a phase with fewer samples is topped up after it ends


def _chunk() -> int:
    """Dict, tuple, int and call work in the proportions of the program."""
    table: dict = {}
    acc = 0
    for i in range(CHUNK_ITERS):
        key = (i & 63, i >> 4)
        acc = (acc * 31 + i) & 0xFFFF
        table[key] = acc
        if (acc & 7, i >> 4) in table:
            acc ^= len(key)
    return acc


class RefSampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time inside the handler
        self._previous = None

    def _sample(self) -> None:
        start = perf_counter()
        _chunk()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += perf_counter() - start

    def _handler(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def reference_time(self, mark: tuple[int, float], raw_s: float) -> dict:
        """Split a phase that began at mark and lasted raw_s seconds.

        Returns its work time (raw minus handler time), the speed factor
        (mean chunk time over REF_CHUNK_S) and the reference time (work
        over speed). Call it right after the phase ends: a phase with
        fewer than MIN_SAMPLES samples is topped up with chunks run here.
        """
        first, spent = mark
        work_s = raw_s - (self.spent - spent)
        while len(self.samples) - first < MIN_SAMPLES:
            self._sample()
        chunks = self.samples[first:]
        speed = statistics.fmean(chunks) / REF_CHUNK_S
        return {"work_s": work_s, "speed": speed, "ref_s": work_s / speed,
                "samples": len(chunks)}
