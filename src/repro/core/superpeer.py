"""Superpeers (§3.6).

"SPs are well-connected, highly-available nodes with a public IP
address [...] Like clients, SPs are assumed to be continuously
available [...] but are not otherwise trusted."

A :class:`SuperPeer` hosts one or more channels:

* **Downstream** (Fig. 2a): it receives one packet per hosted channel
  per round from the mix and forwards it to *every* client in the
  channel; only the addressed client can decrypt it.
* **Upstream** (Fig. 2b): it collects one packet (plus 4-byte manifest)
  per client per round per channel and forwards the XOR of the packets,
  concatenated with the manifest list, to the mix.
* It buffers the full packets of the last few rounds so the mix can
  audit a round that fails to decode (§3.6.1).

Crucially, nothing here reads or depends on call state: the SP operates
on opaque ciphertext only (invariant I8).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple

from repro.core.network_coding import CODED_PACKET_SIZE, xor_bytes

#: Rounds of full packets kept for mix audits ("the SP is expected to
#: buffer [the full packets] for a couple of rounds").
AUDIT_BUFFER_ROUNDS = 3


@dataclass(frozen=True)
class UpstreamRound:
    """What the SP sends the mix for one channel round: the XOR of the
    client packets and the ordered, still-encrypted manifests."""

    channel_id: int
    round_index: int
    xor_packet: bytes
    manifests: Tuple[bytes, ...]


class SuperPeer:
    """One untrusted superpeer."""

    def __init__(self, sp_id: str, mix_id: str):
        self.sp_id = sp_id
        self.mix_id = mix_id
        #: channel id → ordered client ids (slot order).
        self.channel_clients: Dict[int, List[str]] = {}
        self._audit: Dict[int, Deque[Tuple[int, Tuple[bytes, ...]]]] = {}
        self.rounds_forwarded = 0
        self.packets_broadcast = 0
        #: Optional observability hook (see :class:`repro.obs
        #: .instrument.SuperPeerHook`): per-link byte/packet counters
        #: for the SP's logical links.
        self.obs = None

    def host_channel(self, channel_id: int,
                     clients: Sequence[str]) -> None:
        if channel_id in self.channel_clients:
            raise ValueError(f"channel {channel_id} already hosted")
        self.channel_clients[channel_id] = list(clients)
        self._audit[channel_id] = deque(maxlen=AUDIT_BUFFER_ROUNDS)

    def add_client(self, channel_id: int, client_id: str) -> int:
        """Attach a client to a hosted channel; returns its slot."""
        clients = self.channel_clients[channel_id]
        clients.append(client_id)
        return len(clients) - 1

    def reset_members(self) -> None:
        """Drop all channel membership and audit buffers but keep
        hosting the same channels.  A restarted SP re-registers with
        its mix empty; clients re-attach through the join protocol
        (used by :func:`repro.simulation.churn.recover_superpeer`)."""
        for channel_id in self.channel_clients:
            self.channel_clients[channel_id] = []
            self._audit[channel_id].clear()

    # -- upstream ------------------------------------------------------------

    def combine_upstream(self, channel_id: int, round_index: int,
                         packets: Sequence[bytes],
                         manifests: Sequence[bytes]) -> UpstreamRound:
        """XOR one round's client packets (Fig. 2b).

        ``packets``/``manifests`` are in slot order, one per attached
        client.  The SP validates only sizes — it cannot read anything.
        """
        clients = self.channel_clients[channel_id]
        if len(packets) != len(clients):
            raise ValueError(
                f"expected {len(clients)} packets, got {len(packets)}")
        if len(manifests) != len(clients):
            raise ValueError("one manifest required per client packet")
        if any(len(p) != CODED_PACKET_SIZE for p in packets):
            raise ValueError("client packet has the wrong size")
        self._audit[channel_id].append((round_index, tuple(packets)))
        self.rounds_forwarded += 1
        combined = UpstreamRound(
            channel_id=channel_id,
            round_index=round_index,
            xor_packet=xor_bytes(*packets),
            manifests=tuple(manifests),
        )
        if self.obs is not None:
            self.obs.upstream_round(
                channel_id, round_index, len(combined.xor_packet),
                sum(len(m) for m in combined.manifests))
        return combined

    def process_round(self, round_index: int,
                      channel_batches: Dict[
                          int, Tuple[Sequence[bytes], Sequence[bytes]]]
                      ) -> List[UpstreamRound]:
        """Round-synchronous batch entry point: combine every hosted
        channel's round in one call.

        ``channel_batches`` maps channel id → (packets, manifests) in
        slot order; channels are processed in sorted id order — the
        same order a per-channel caller iterates — so the XOR results,
        audit buffers, and observability hook calls are identical to
        ``len(channel_batches)`` individual :meth:`combine_upstream`
        calls (the observational-equivalence contract, DESIGN.md §9).
        """
        rounds = []
        for channel_id in sorted(channel_batches):
            packets, manifests = channel_batches[channel_id]
            rounds.append(self.combine_upstream(channel_id, round_index,
                                                packets, manifests))
        return rounds

    def audit_packets(self, channel_id: int,
                      round_index: int) -> Tuple[bytes, ...]:
        """Return the buffered full packets of a recent round so the mix
        can identify a misbehaving client (§3.6.1)."""
        for idx, packets in self._audit[channel_id]:
            if idx == round_index:
                return packets
        raise KeyError(f"round {round_index} no longer buffered")

    # -- downstream ------------------------------------------------------------

    def broadcast_downstream(self, channel_id: int,
                             packet: bytes) -> List[Tuple[str, bytes]]:
        """Fan one mix packet out to every client of the channel
        (Fig. 2a).  Returns (client, packet) pairs to transmit."""
        clients = self.channel_clients[channel_id]
        self.packets_broadcast += len(clients)
        if self.obs is not None:
            self.obs.downstream_broadcast(channel_id, len(packet),
                                          len(clients))
        return [(client, packet) for client in clients]
