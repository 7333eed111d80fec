"""The Transport seam: what the round engine emits cells *into*.

The protocol layer — the dispatch state machines
(:mod:`repro.core.dispatch`), :class:`~repro.core.superpeer.SuperPeer`,
:class:`~repro.core.mix.HerdMix`, :class:`~repro.core.client
.HerdClient`, the directory and join flows — computes what every node
says each round.  *How* those cells travel is this seam: a
:class:`CellTransport` receives the round's emissions and materializes
them as a wire image an adversary could tap.

Two implementations exist, and protocol code imports **neither**:

* :class:`~repro.simulation.roundsync.WireFabric` — the simulator
  transports (``event`` / ``batch`` / ``batch-v2``): virtual-time
  netsim links, heap events or per-round vectors (DESIGN.md §9/§13).
* :class:`~repro.net.transport.UdpFabric` — the real-network
  transport (``asyncio``): every cell rides a framed UDP datagram
  between per-node asyncio endpoints over loopback, bootstrapped by
  the :mod:`repro.net.introducer` (DESIGN.md §14).

The concrete transport is chosen by name through
:func:`repro.execution.create_wire_fabric`; a
:class:`~repro.simulation.live.LiveZone` only ever talks to this
interface.  Both implementations feed the same public tap protocol
(:mod:`repro.netsim.taps`), which is what makes wiretap observations,
herdscope metrics, and report rows transport-invariant.
"""

from __future__ import annotations

from typing import Dict, Optional


class CellTransport:
    """Abstract wire plane of one zone.

    The round engine drives the transport through exactly four calls
    per round — :meth:`emit` / :meth:`emit_repeated` while computing
    the round, one :meth:`flush_round` at the round barrier — plus one
    :meth:`finalize` at end of run.  Everything else
    (:attr:`observer`, :meth:`add_tap`, the cost counters) is the
    observation surface run consumers read.
    """

    #: The adversary's tap (a :class:`~repro.netsim.observer
    #: .LinkObserver` by default); every implementation offers each
    #: round's traffic to it through :mod:`repro.netsim.taps`.
    observer = None

    def emit(self, src: str, dst: str, payload: bytes,
             kind: str = "data") -> None:
        """Queue one cell for this round's flush."""
        raise NotImplementedError

    def emit_repeated(self, src: str, dst: str, payload: bytes,
                      n: int, kind: str = "chaff") -> None:
        """Queue ``n`` wire-identical cells as one run."""
        raise NotImplementedError

    def flush_round(self, round_index: int) -> None:
        """Carry everything queued, stamped at the round's virtual
        time, and offer it to every subscribed tap."""
        raise NotImplementedError

    def finalize(self) -> Optional[Dict[str, object]]:
        """Complete deferred work (wire-stat totals, socket teardown);
        idempotent.  Run consumers call this before reading stats."""
        raise NotImplementedError

    def add_tap(self, tap) -> None:
        """Subscribe a wire tap (the :mod:`repro.netsim.taps`
        protocol) alongside the adversary observer."""
        raise NotImplementedError

    def net_report(self) -> Optional[Dict[str, object]]:
        """Host-network side channel (wall-clock latency, datagram
        accounting) for transports that have one; ``None`` on the
        simulator planes.  Never part of any determinism surface."""
        return None
