"""How fast the machine runs right now, from a fixed reference kernel.

On a shared machine other tenants slow every process down, in spells that
last from seconds to minutes, so the wall time of one op can move by 40%
between two runs of the same code. The benchmark times this kernel right
after every op and, by a periodic SIGALRM, during it. Dividing the op's wall
time by the kernel's median time then gives reference seconds: the time the
op would take on a machine where one kernel takes KERNEL_SECONDS. A change
to the program moves the op's time and not the kernel's, so reference
seconds keep it; a spell of contention moves both, so they cancel it.

The kernel mixes what sldlab spends its time on: small numpy calls driven
from Python loops, and one pass over an array larger than the L1 cache.
"""

import signal
import statistics
import time

import numpy as np

KERNEL_SECONDS = 1e-3
PERIOD = 0.05  # seconds between kernel samples during an op
AFTER = 3  # kernel samples taken right after each op

_SMALL = np.arange(11) * (1.0 + 0.5j)
_LARGE = np.exp(1j * np.arange(1 << 15))


def kernel():
    acc = 0.0
    for k in range(100):
        acc += float(np.abs(np.convolve(_SMALL, _SMALL[::-1].conj())).max()) + k * k
    return acc + float(np.abs(_LARGE - _LARGE[::-1]).max())


def kernel_times(count):
    out = []
    for _ in range(count):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


class Pace:
    """Kernel samples around and during each op of a closed loop.

    Use as `with pace: <op>` and then `pace.convert(wall)`. The samples the
    timer takes during the op run inside it, so `pace.spent` is the time to
    take off the op's wall time.
    """

    def __init__(self):
        kernel_times(AFTER)  # first calls pay numpy's lazy set-up
        self.before = kernel_times(AFTER)
        self.during = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.during.append(end - start)
        self.spent += end - start

    def __enter__(self):
        self.during, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def convert(self, wall):
        """Reference seconds for the op that just ran for `wall` seconds."""
        after = kernel_times(AFTER)
        median = statistics.median(self.before + self.during + after)
        self.before = after
        return wall * KERNEL_SECONDS / median
