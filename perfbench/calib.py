"""Machine-speed calibration for the timings of a session.

The machines this benchmark runs on are shared: the same pure-Python
loop runs in 14 ms for several seconds, then in 21 ms for several
seconds, and back (measured on a 2-core x86-64 container).  A 10 s run
can fall mostly in one regime or the other, which moves every timing
by up to 1.5x between two runs of the same code.

So every session samples the machine's speed while it works: a timer
signal runs two fixed kernels (about 0.4 ms each) every
``INTERVAL_S`` and records how long they took.  A timing is divided by
the speed factor sampled around it: it is reported in seconds of the
reference machine, on which each kernel takes its reference time.  The
kernels use no code of the program under test, and they run with the
garbage collector off, so that no collection the program's own objects
make costly lands inside a kernel; their few objects are freed by
reference counting, which leaves the collector's schedule as it was.
A change to the program therefore moves the reported times and a
change of machine regime does not; the README records a check of this
with a deliberate CPU-bound and a deliberate allocation-heavy
slowdown.  What the kernels still share with the program is the
process's allocator and the CPU caches.  The sampling costs about 2%
of the session's time, on both sides of any comparison.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

INTERVAL_S = 0.05
#: samples this far around a timed interval also count, so that an
#: interval shorter than ``INTERVAL_S`` still has some
PAD_S = 0.5


def _arith() -> int:
    s = 0
    for i in range(5000):
        s += i * i % 7
    return s


def _alloc() -> int:
    out = []
    for i in range(600):
        out.append({"a": i, "b": [i, i + 1]})
    return len(out)


#: the kernels and their time on the reference machine: integer
#: arithmetic tracks clock-speed regimes, small-object allocation
#: tracks contention for caches and memory
KERNELS = ((_arith, 0.0004), (_alloc, 0.0004))


class Sampler:
    """Samples the kernels' times every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, tuple[float, ...]]] = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        times = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for kernel, _ref in KERNELS:
                t = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t)
        finally:
            if collecting:
                gc.enable()
        self.samples.append((t0, tuple(times)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than the reference machine this one ran
        over ``[t0, t1]``: the geometric mean over kernels of the
        median sampled time over the reference time."""
        near = [d for t, d in self.samples
                if t0 - PAD_S <= t <= t1 + PAD_S]
        if not near:
            near = [d for _, d in self.samples]
        if not near:
            return 1.0
        logs = [math.log(statistics.median(d[k] for d in near) / ref)
                for k, (_kernel, ref) in enumerate(KERNELS)]
        return math.exp(sum(logs) / len(logs))
