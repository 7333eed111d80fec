"""The public wire-tap protocol: how observers consume the wire plane.

Herd's adversary model is a passive tap on every link.  This module
makes the contract a documented public protocol, so consumers (the
attack suite, the bench tally, herdscope's metrics ``LinkTap``) can
subscribe to the wire image without touching private engine state.

A tap has two capability tiers:

* ``record(time, cell, src, dst)`` — REQUIRED.  One call per cell;
  ``cell`` exposes at least ``size`` (wire-visible bytes).  The
  ``event`` plane's links call it for every transmission attempt.
* ``record_round_runs(time, keys, sizes, counts)`` — OPTIONAL.  One
  call per *round* with the whole round's run table: parallel arrays
  where row ``i`` is a run of ``counts[i]`` wire-identical cells of
  ``sizes[i]`` bytes on the directed link ``keys[i] = (src, dst)``.
  Rows are link-contiguous (all of a link's runs adjacent, links in
  first-emission order, runs in emission order).  This is what the
  ``batch-v2`` plane and the ``asyncio`` plane feed; an
  aggregate tap can reduce the table at C speed (``sum(counts)``).

Plus one extension for *non-adversary* instrumentation:
``record_drop(time, cell, src, dst)`` is called by lossy links for
cells that were offered but lost (a real wire tap cannot tell a
dropped cell from a delivered one, so the adversary tap must not
implement it).

Because constant-rate emission makes the wire image a pure function of
the clock (invariant I6), the two tiers describe the *same* stream at
different aggregation.  :func:`offer_round_runs` is the one adapter
between them: it hands a round table to ``record_round_runs`` when the
tap has it and expands it to per-cell ``record`` calls otherwise, so
every tap sees byte-identical information whichever plane produced it
(DESIGN.md §9, §13).

:class:`~repro.netsim.observer.LinkObserver` (re-exported here) is the
reference adversary tap; :class:`TallyTap` is the reference aggregate
tap.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.netsim.observer import LinkObserver, Observation

__all__ = ["LinkObserver", "Observation", "TallyTap", "KindlessCell",
           "offer_round_runs"]


class KindlessCell:
    """The minimal wire-visible cell handed to per-cell ``record``
    when only aggregate information exists: size and endpoints, no
    payload, kind, or circuit id (exactly what a real tap sees)."""

    __slots__ = ("size", "src", "dst")

    def __init__(self, size: int, src: str, dst: str):
        self.size = size
        self.src = src
        self.dst = dst


class TallyTap:
    """The reference aggregate tap: global cell/byte totals with O(1)
    calls per round on every plane.  Subclass and extend for richer
    aggregates (per-link histograms, windowed rates)."""

    def __init__(self):
        self.cells = 0
        self.bytes = 0

    def record(self, time: float, cell, src: str, dst: str) -> None:
        self.cells += 1
        self.bytes += cell.size

    def record_round_runs(self, time: float,
                          keys: Sequence[Tuple[str, str]],
                          sizes: Sequence[int],
                          counts: Sequence[int]) -> None:
        self.cells += sum(counts)
        self.bytes += sum(s * c for s, c in zip(sizes, counts))


def offer_round_runs(tap, time: float,
                     keys: Sequence[Tuple[str, str]],
                     sizes: Sequence[int],
                     counts: Sequence[int]) -> None:
    """Offer one round's run table to a tap.

    A tap with ``record_round_runs`` gets the table in one call; any
    other tap gets one ``record`` per cell with :class:`KindlessCell`
    views, rows expanded in order — byte-identical to what the
    per-cell ``event`` plane offers, because rows are link-contiguous
    in emission order."""
    record_round_runs = getattr(tap, "record_round_runs", None)
    if record_round_runs is not None:
        record_round_runs(time, keys, sizes, counts)
        return
    record = tap.record
    for (src, dst), size, count in zip(keys, sizes, counts):
        cell = KindlessCell(size, src, dst)
        for _ in range(count):
            record(time, cell, src, dst)
