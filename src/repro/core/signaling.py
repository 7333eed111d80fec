"""In-band call signaling through untrusted SPs (§3.6.2).

"In the case of an incoming call, the mix simply chooses an available
channel to which the callee attaches (if any), and encrypts downstream
packets in the channel with the key s shared with the callee.  The
callee, which like every client, tries to decrypt every incoming packet
on each channel, is able to decrypt the information signaling an
incoming call [...] In the case of an outgoing call, the caller sets
the signaling bit in the manifest of the chaff packets it sends."

Downstream packets are fixed-size AEAD envelopes: only the addressed
client authenticates them; everyone else discards them as chaff
(Fig. 2a).  Idle channels carry uniformly random chaff of the same
size.  Four payload kinds exist::

    0x01 INCOMING   — ring: an inbound call is waiting on this channel
    0x02 GRANT      — response to a signaling bit: channel granted for
                      the client's outgoing call
    0x03 VOIP       — a voice cell for the channel's active call
    0x04 CONTROL    — other mix→client control traffic
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.chacha20 import ChaCha20Poly1305
from repro.crypto.keys import SessionKey
from repro.core.network_coding import CODED_PACKET_SIZE

KIND_INCOMING = 0x01
KIND_GRANT = 0x02
KIND_VOIP = 0x03
KIND_CONTROL = 0x04
_KINDS = (KIND_INCOMING, KIND_GRANT, KIND_VOIP, KIND_CONTROL)

#: Downstream packets match the upstream coded-packet size, so the two
#: directions of a client link are symmetric on the wire.
DOWNSTREAM_PACKET_SIZE = CODED_PACKET_SIZE
_AEAD_OVERHEAD = 16
_HEADER = struct.Struct("<BH")  # kind, payload length
_CAPACITY = DOWNSTREAM_PACKET_SIZE - _AEAD_OVERHEAD - _HEADER.size

_DOWN_PREFIX = b"dn"


def _nonce(channel_id: int, round_index: int) -> bytes:
    return _DOWN_PREFIX + struct.pack("<HQ", channel_id,
                                      round_index % (1 << 64))


class DownstreamPacketSizeError(RuntimeError):
    """A sealed downstream packet came out at the wrong size, which
    would make it distinguishable on the wire from upstream packets
    and chaff."""


def make_downstream_packet(key: SessionKey, channel_id: int,
                           round_index: int, kind: int,
                           payload: bytes) -> bytes:
    """Seal a downstream packet for the addressed client."""
    if kind not in _KINDS:
        raise ValueError(f"unknown downstream kind {kind}")
    if len(payload) > _CAPACITY:
        raise ValueError(f"payload exceeds downstream capacity "
                         f"({_CAPACITY} bytes)")
    clear = (_HEADER.pack(kind, len(payload))
             + payload.ljust(_CAPACITY, b"\x00"))
    aead = ChaCha20Poly1305(key.key)
    packet = aead.encrypt(_nonce(channel_id, round_index), clear)
    if len(packet) != DOWNSTREAM_PACKET_SIZE:
        raise DownstreamPacketSizeError(
            f"sealed downstream packet is {len(packet)} bytes, not "
            f"{DOWNSTREAM_PACKET_SIZE}")
    return packet


def make_downstream_chaff(rng: random.Random) -> bytes:
    """Chaff for an idle channel: uniformly random bytes, authenticating
    under nobody's key."""
    return bytes(rng.getrandbits(8) for _ in range(DOWNSTREAM_PACKET_SIZE))


def open_downstream_packet(key: SessionKey, channel_id: int,
                           round_index: int, packet: bytes
                           ) -> Optional[Tuple[int, bytes]]:
    """Client-side trial decryption.  Returns (kind, payload) if the
    packet is addressed to this client, else None ("others discard the
    packet as chaff")."""
    if len(packet) != DOWNSTREAM_PACKET_SIZE:
        return None
    aead = ChaCha20Poly1305(key.key)
    try:
        clear = aead.decrypt(_nonce(channel_id, round_index), packet)
    except ValueError:
        return None
    kind, length = _HEADER.unpack(clear[:_HEADER.size])
    if kind not in _KINDS or length > _CAPACITY:
        return None
    return kind, clear[_HEADER.size:_HEADER.size + length]


@dataclass(frozen=True)
class IncomingCallAnnouncement:
    """Payload of an INCOMING packet: which call is ringing."""

    call_id: int

    def encode(self) -> bytes:
        return struct.pack("<Q", self.call_id)

    @classmethod
    def decode(cls, payload: bytes) -> "IncomingCallAnnouncement":
        (call_id,) = struct.unpack("<Q", payload[:8])
        return cls(call_id)


@dataclass(frozen=True)
class ChannelGrant:
    """Payload of a GRANT packet: the channel allocated to the
    signaling caller's outgoing call."""

    channel_id: int
    call_id: int

    def encode(self) -> bytes:
        return struct.pack("<HQ", self.channel_id, self.call_id)

    @classmethod
    def decode(cls, payload: bytes) -> "ChannelGrant":
        channel_id, call_id = struct.unpack("<HQ", payload[:10])
        return cls(channel_id, call_id)
