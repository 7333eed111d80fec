"""The Tor baseline model (§4.1.1, §4.1.4).

Tor provides onion routing without chaffing: an adversary observing
ingress and egress links sees each call as a flow with visible start
and end times.  The model therefore

* exposes the *observable event trace* — identical to the call trace —
  that the intersection attack consumes,
* computes per-call anonymity sets via that attack,
* models circuit round-trip delay: "Tor typically incurs round trip
  delays between 2–4 seconds on established, sender-anonymous circuits
  because of random proxy selection and high-latency connections".
"""

from __future__ import annotations

import random
from typing import Optional

from repro.attacks.intersection import (
    IntersectionAttackResult,
    intersection_attack,
)
from repro.workload.cdr import CallTrace


class TorModel:
    """Tor as a VoIP carrier, for comparison purposes."""

    name = "Tor"
    #: Published round-trip delay range on sender-anonymous circuits.
    RTT_RANGE_S = (2.0, 4.0)

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random(0)

    def observable_trace(self, trace: CallTrace) -> CallTrace:
        """Without chaffing, the adversary observes every call's flow
        start/end directly: the observable trace IS the call trace."""
        return trace

    def run_intersection_attack(self, trace: CallTrace,
                                bin_width: float = 1.0
                                ) -> IntersectionAttackResult:
        return intersection_attack(self.observable_trace(trace),
                                   bin_width)

    def circuit_rtt(self) -> float:
        """A sampled circuit round-trip time (seconds)."""
        lo, hi = self.RTT_RANGE_S
        return self.rng.uniform(lo, hi)

    def one_way_delay_ms(self) -> float:
        return self.circuit_rtt() * 1000.0 / 2.0
