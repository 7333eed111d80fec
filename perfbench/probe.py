"""Host-speed calibration, so that timed metrics compare across runs.

On a shared machine the host's speed drifts by tens of percent over
minutes with other tenants' load, and that drift swamps the change a
program edit makes.  A :class:`SpeedProbe` times a fixed pure-Python
loop that belongs to the benchmark, interleaved with the measured
work (one probe per op or per round), and every reported time is
scaled by ``REFERENCE_S`` over the probe time around it — the median
of its op's probe and the neighbouring ops' (rates by the inverse):
times read as they would on a host that runs the loop in
:data:`SpeedProbe.REFERENCE_S`.  The loop never changes with the
program, so the scaling cancels host drift and nothing else.  Probe
time is never inside a measured interval; ``run.py`` prints the
unscaled figures beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

clock = time.perf_counter


def _spin() -> int:
    """ChaCha-style add-rotate-xor rounds on Python ints: the kind of
    interpreter work the protocol's pure-Python crypto does.  Measured
    here, it also tracks the drift of the crypto-free backbone."""
    a, b, c, d = 0x61707865, 0x3320646E, 0x79622D32, 0x6B206574
    mask = 0xFFFFFFFF
    state = [0] * 16
    for i in range(1500):
        a = (a + b) & mask
        d ^= a
        d = ((d << 16) | (d >> 16)) & mask
        c = (c + d) & mask
        b ^= c
        b = ((b << 12) | (b >> 20)) & mask
        state[i & 15] ^= a
    return state[0]


class SpeedProbe:
    """Collects probe times; :attr:`scale` converts measured times."""

    #: Median probe time on the host the README's figures come from.
    REFERENCE_S = 0.0011

    def __init__(self):
        self.samples = []

    def sample(self) -> float:
        """Run one probe; returns its duration."""
        start = clock()
        _spin()
        elapsed = clock() - start
        self.samples.append(elapsed)
        return elapsed

    @property
    def scale(self) -> float:
        """Multiply a measured time by this (divide a rate by it)."""
        return self.REFERENCE_S / statistics.median(self.samples)
