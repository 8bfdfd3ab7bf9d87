"""The interpreter's speed while the benchmark times something.

The CPU speed of a shared virtual machine drifts.  On the 2-vCPU machine this
benchmark was written on, a fixed loop took between 0.066 s and 0.111 s in
20-second windows of the same four minutes, and the verifier's calls drifted
with it (coefficient of variation 15-17 % across windows); divided by the
loop's time measured in the same window, the drift mostly cancelled (4-6 %).
Samples taken only between passes do not track a 10-second pass, so the
sampler interrupts the timed region itself: every INTERVAL_S a SIGALRM
handler runs the reference loop once and records how long it took.  The time
the handler spends is subtracted from the timed region, and the region's time
is rescaled to the speed at which one sample takes REFERENCE_S seconds (by
the harmonic mean of its samples; see run.rescale).
"""

from __future__ import annotations

import signal
import time
from math import gcd

# Seconds one sample takes at the reference speed (about the median on the
# machine the benchmark was written on), so rescaled times read as seconds.
REFERENCE_S = 0.005
INTERVAL_S = 0.25


def reference_loop() -> int:
    """About equal parts of the verifier's operations: dict updates with small
    integers (sparse polynomials), big-integer products and gcds (exact
    elimination) and float products (the float algebra backend)."""
    acc = {}
    for i in range(5000):
        key = (i * 7919) & 511
        acc[key] = acc.get(key, 0) + i * (i ^ key)
    a, b = 3**400 + 1, 7**300 + 5
    for i in range(300):
        a = (a * b + i) % (b << 400)
        gcd(a, b)
    x, y = 1.000001, 0.999999
    for _ in range(10000):
        x, y = x * y + 1e-9, y * x - 1e-9
    return len(acc) + (a & 1) + int(x > y)


class SpeedSampler:
    """Runs the reference loop every INTERVAL_S while active (main thread only).

    ``samples`` holds the loop's wall seconds; ``stolen_s`` the wall seconds the
    handler took from the code it interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)
        self.stolen_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def samples(count: int) -> list:
    """Wall seconds of ``count`` runs of the reference loop, taken now."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - start)
    return out
