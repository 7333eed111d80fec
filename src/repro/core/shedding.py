"""Load shedding and client backpressure (§3.4.2, §3.6).

Herd provisions channels for a constant rate; a flash crowd that
pushes demand past the provisioned capacity must *degrade gracefully*,
not collapse: the zone keeps every link at its constant chaffed rate
(invariants I6/I7 — an overload is invisible on the wire) while
admitting only a bounded fraction of payload cells per channel per
round.  Cells that are not admitted stay in the client's outbox — the
client experiences backpressure (added latency), never loss.

:class:`LoadShedder` is the policy object: the live zone consults it
once per channel per round for a payload budget and reports what it
admitted/deferred.  It is deliberately deterministic — budgets are a
pure function of membership, and admission is strict slot order — so
every execution plane sheds identically (the observational-
equivalence contract, DESIGN.md §9/§10).

Note the division of labour with invariant I8: *SPs* cannot shed by
payload, because they cannot see payload.  Shedding is decided where
activity is visible — at the clients (who defer their own cells) as
orchestrated by the zone — and the SP keeps combining constant-rate
rounds throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class LoadShedder:
    """Per-round payload admission control for an overloaded zone.

    Parameters
    ----------
    capacity_fraction:
        Fraction of a channel's members that may contribute a payload
        cell per round (floor, clamped to [0, members]).  0 defers
        every payload cell; 1 admits everything (no shedding).
    sp_id:
        Restrict shedding to channels hosted by this SP; ``None``
        sheds zone-wide.
    """

    capacity_fraction: float
    sp_id: Optional[str] = None
    cells_admitted: int = field(default=0, init=False)
    cells_deferred: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.capacity_fraction <= 1.0:
            raise ValueError("capacity_fraction must be in [0, 1]")

    def applies_to(self, sp_id: str) -> bool:
        return self.sp_id is None or self.sp_id == sp_id

    def channel_budget(self, n_members: int) -> int:
        """Payload cells admitted on one channel this round."""
        if n_members < 0:
            raise ValueError("membership cannot be negative")
        return min(n_members, int(n_members * self.capacity_fraction))

    def admit(self) -> None:
        self.cells_admitted += 1

    def defer(self) -> None:
        self.cells_deferred += 1

    @property
    def engaged(self) -> bool:
        """Did shedding actually defer anything yet?"""
        return self.cells_deferred > 0
