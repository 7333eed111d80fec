"""The adversary's view of a link: time series of encrypted packets.

Herd's threat model (§3): "The adversary is able to observe the time
series of encrypted traffic on all Herd links as part of a global,
passive traffic analysis attack."  A :class:`LinkObserver` records
exactly that — (timestamp, size, src, dst) — and deliberately has no
access to payload bytes, packet ``kind``, or circuit IDs.

The attack implementations in :mod:`repro.attacks` consume these
observations; nothing else about the simulation leaks to them, so an
attack that succeeds here would succeed against the real wire image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.sharding import shard_crossing


@shard_crossing
@dataclass(frozen=True)
class Observation:
    """One packet sighting on a tapped link.

    Declared shard-crossing: zone workers stream their observation
    logs back to the merge step, so every field must survive pickling
    (HL104 enforces this statically)."""

    time: float
    size: int
    src: str
    dst: str


class LinkObserver:
    """Collects packet sightings, optionally for many links at once.

    The same observer instance can be attached to every link in a
    deployment to model a *global* passive adversary, or to a subset to
    model a local one.
    """

    def __init__(self, name: str = "adversary"):
        self.name = name
        self.observations: List[Observation] = []

    def record(self, time: float, packet, src: str, dst: str) -> None:
        """Called by :class:`~repro.netsim.link.Link` on every
        transmission attempt.  Only wire-visible fields are stored."""
        self.observations.append(
            Observation(time=time, size=packet.size, src=src, dst=dst))

    def record_round_runs(self, time: float, keys, sizes,
                          counts) -> None:
        """Called once per round by the run-table wire planes
        (``batch-v2``, its shards, ``asyncio``) with parallel arrays:
        row ``i`` is ``counts[i]`` wire-identical cells of
        ``sizes[i]`` bytes on the directed link ``keys[i]``.  The
        adversary stores per-cell sightings, so rows expand here, in
        row order — byte-identical to the per-cell ``event`` plane's
        stream (the observational-equivalence contract, DESIGN.md
        §9/§13)."""
        observations = self.observations
        for (src, dst), size, count in zip(keys, sizes, counts):
            observations.extend(
                [Observation(time=time, size=size, src=src, dst=dst)]
                * count)

    def time_series(self, src: str, dst: str,
                    bin_width: float) -> Dict[int, int]:
        """Bytes-per-bin histogram for one directed link — the raw
        material of a correlation attack."""
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        series: Dict[int, int] = {}
        for obs in self.observations:
            if obs.src == src and obs.dst == dst:
                idx = int(obs.time / bin_width)
                series[idx] = series.get(idx, 0) + obs.size
        return series

    def directed_pairs(self) -> Iterable[Tuple[str, str]]:
        """All (src, dst) pairs with at least one sighting."""
        return sorted({(o.src, o.dst) for o in self.observations})

    def rate_changes(self, src: str, dst: str, bin_width: float,
                     threshold: float = 0.0) -> List[int]:
        """Bins where the observed rate changed by more than
        ``threshold`` bytes relative to the previous bin.  Constant-rate
        chaffed links produce an empty (or loss-noise-only) list."""
        series = self.time_series(src, dst, bin_width)
        if not series:
            return []
        changes = []
        lo, hi = min(series), max(series)
        prev = series.get(lo, 0)
        for idx in range(lo + 1, hi + 1):
            cur = series.get(idx, 0)
            if abs(cur - prev) > threshold:
                changes.append(idx)
            prev = cur
        return changes

    def clear(self) -> None:
        self.observations.clear()
