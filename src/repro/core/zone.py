"""Trust zones (§3).

"Herd mixes are further partitioned into trust zones.  All mixes within
a trust zone are operated by a single provider under a single
jurisdiction.  Typically, the mixes of a trust zone are hosted in the
same data center."

A :class:`TrustZone` is the administrative grouping: it owns a
directory, a set of mixes, and the zone-level link-rate state.  It is
deliberately a plain registry — the interesting behaviour lives in the
directory (rates, rendezvous records) and the mixes (relaying).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.chaffing import RateController


@dataclass
class ZoneConfig:
    """Static parameters of a zone."""

    zone_id: str
    site_id: str
    #: Channels per client (k); the paper recommends 3.
    channels_per_client: int = 3
    #: Clients per channel for SP provisioning.
    clients_per_channel: int = 10
    #: Minimum clients before the zone establishes calls (§3:
    #: "A new zone requires a minimum set of clients").
    min_clients: int = 2


class TrustZone:
    """One provider/jurisdiction: mixes plus zone-wide rate state.

    Link-rate coupling (§3.4.2–3.4.3): one :class:`RateController` for
    all the zone's SP links, one for its intra-zone mix links, and one
    per *pair* of zones for inter-zone links (owned by the
    lexicographically smaller zone and shared, mirroring the paper's
    "coordination between the directories of the two zones").
    """

    def __init__(self, config: ZoneConfig):
        self.config = config
        self.mix_ids: List[str] = []
        self.sp_rate = RateController()
        self.intra_rate = RateController()
        self.inter_rates: Dict[str, RateController] = {}

    @property
    def zone_id(self) -> str:
        return self.config.zone_id

    def add_mix(self, mix_id: str) -> None:
        if mix_id in self.mix_ids:
            raise ValueError(f"mix {mix_id} already registered")
        self.mix_ids.append(mix_id)

    def remove_mix(self, mix_id: str) -> None:
        """Prune a mix from the zone's membership — the directory's
        reaction to a detected mix failure (§3.5).  Raises ``KeyError``
        if the mix is not (or no longer) registered."""
        try:
            self.mix_ids.remove(mix_id)
        except ValueError:
            raise KeyError(f"mix {mix_id} is not registered in zone "
                           f"{self.zone_id}") from None

    def interzone_controller(self, other_zone: str) -> RateController:
        """The shared rate controller for links toward ``other_zone``."""
        if other_zone == self.zone_id:
            raise ValueError("use intra_rate for the local zone")
        return self.inter_rates.setdefault(other_zone, RateController())

    def pair_key(self, other_zone: str) -> tuple:
        return tuple(sorted((self.zone_id, other_zone)))
