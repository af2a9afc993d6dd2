"""The machine-speed probe every timed loop of the benchmark measures its operations against.

The shared machine's speed drifts by a quarter or more over spells of
seconds and over minutes.  ``probe()`` times a fixed piece of work that
never changes, so its time says how fast the machine ran at that
moment, whatever splitconf does.  The work mixes what splitconf spends
its time on: pure-Python ``Fraction`` arithmetic, float arithmetic,
dict and call traffic, and small numpy products.  It imports nothing
from splitconf, so a fresh interpreter can run it before timing
``import splitconf``, and a change to splitconf never changes it.
numpy is imported at the first probe, not here, so that a fresh
interpreter's timed ``import splitconf`` still pays for it.
"""

import functools
import signal
import statistics
import time
from fractions import Fraction

CLOCK = time.perf_counter
# Work per probe (about 1 ms) and the time between probes inside a timed loop.
PROBE_FRACTIONS = 120
PROBE_MATMULS = 40
PROBE_SECONDS = 0.05


@functools.lru_cache(maxsize=None)
def _matrix():
    import numpy as np

    return np.arange(16, dtype=float).reshape(4, 4) / 7


def probe():
    """Seconds the fixed work takes now: lower is a faster, quieter machine."""
    m0 = _matrix()
    t0 = CLOCK()
    acc, f, m = Fraction(0), 0.0, m0
    for i in range(1, PROBE_FRACTIONS + 1):
        acc = acc + Fraction(i % 7, i + 3) * Fraction(3, i + 1)
        f = f * 0.5 + (i * 1.000001) ** 0.5
        d = {"a": i, "b": f}
        f += d["b"] * 1e-9
    for _ in range(PROBE_MATMULS):
        m = (m @ m0) / 31.0
    return CLOCK() - t0


def probe_median(n=3):
    return statistics.median(probe() for _ in range(n))


class IntervalProbe:
    """Runs probe() every PROBE_SECONDS, from an interval timer, inside whatever runs meanwhile.

    Used around a call that cannot be cut into blocks (a whole verify
    pass).  ``spent`` is the time the probes took, which the caller
    subtracts from the call's wall time; ``samples`` are the probe times,
    one before, those taken during, and one after.
    """

    def __enter__(self):
        self.samples = [probe()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_SECONDS, PROBE_SECONDS)
        return self

    def _fire(self, signum, frame):
        t0 = CLOCK()
        self.samples.append(probe())
        self.spent += CLOCK() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        return False

    def machine_s(self):
        return statistics.mean(self.samples)
