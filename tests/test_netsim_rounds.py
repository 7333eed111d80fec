"""The round clock and the two wire representations of a round.

Covers the :class:`~repro.netsim.rounds.RoundScheduler`, the contract
that a tap cannot tell the per-cell ``event`` path from the
``batch-v2`` run table, and the determinism contract that motivated
moving packet-id allocation off a module global and onto the
:class:`~repro.netsim.engine.EventLoop`.
"""

import warnings

import pytest

from repro.netsim.engine import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import IP_UDP_HEADER_BYTES, Packet
from repro.netsim.rounds import RoundScheduler
from repro.simulation.roundsync import WireFabric


def _pair(loop, **link_kwargs):
    a, b = Node("a", loop), Node("b", loop)
    link = Link(loop, a, b, **link_kwargs)
    return a, b, link


class TestRoundScheduler:
    def test_rounds_fire_at_interval_times(self):
        loop = EventLoop()
        sched = RoundScheduler(loop, 0.02)
        fired = []
        sched.on_round(lambda r: fired.append((r, loop.now)))
        sched.run_rounds(3)
        assert fired == [(0, 0.0), (1, pytest.approx(0.02)),
                         (2, pytest.approx(0.04))]
        assert sched.rounds_run == 3

    def test_one_heap_event_per_round(self):
        loop = EventLoop()
        sched = RoundScheduler(loop, 0.02)
        sched.on_round(lambda r: None)
        sched.run_rounds(10)
        assert loop.events_processed == 10

    def test_handlers_run_in_registration_order(self):
        loop = EventLoop()
        sched = RoundScheduler(loop, 1.0)
        order = []
        sched.on_round(lambda r: order.append("first"))
        sched.on_round(lambda r: order.append("second"))
        sched.run_round()
        assert order == ["first", "second"]

    def test_time_of(self):
        sched = RoundScheduler(EventLoop(), 0.5, start=1.0)
        assert sched.time_of(0) == 1.0
        assert sched.time_of(4) == 3.0


class TestTransmitBatchEquivalence:
    """The contract: a tap cannot tell the wire representations apart
    — per-cell packets on a link (``event``) or one run table per
    round (``batch-v2``)."""

    CELLS = [b"\x01" * 160, b"\x02" * 160, b"\x03" * 64, b"\x04" * 160]

    def _fabric(self, execution, *taps):
        fabric = WireFabric(seed=11, execution=execution)
        for tap in taps:
            fabric.add_tap(tap)
        return fabric

    def _emit_round(self, fabric, round_index=0):
        for payload in self.CELLS[:2]:
            fabric.emit("a", "b", payload)
        fabric.emit_repeated("a", "b", self.CELLS[2], 3, kind="chaff")
        fabric.emit("b", "a", self.CELLS[3])
        fabric.flush_round(round_index)

    def test_lossless_tap_streams_identical(self):
        runs = {}
        for execution in ("event", "batch-v2"):
            fabric = self._fabric(execution)
            self._emit_round(fabric, 0)
            self._emit_round(fabric, 1)
            fabric.finalize()
            stats = fabric.link_between("a", "b").stats
            runs[execution] = (
                fabric.observer.observations,
                [(stats[n].packets, stats[n].bytes) for n in "ab"],
                fabric.node("b").packets_received,
                fabric.cells_carried)
        assert runs["event"] == runs["batch-v2"]
        observations, stats, received, carried = runs["event"]
        assert len(observations) == carried == 2 * 6
        assert stats == [(10, 2 * (2 * 160 + 3 * 64)
                          + 10 * IP_UDP_HEADER_BYTES),
                         (2, 2 * (160 + IP_UDP_HEADER_BYTES))]
        assert received == 10

    def test_per_cell_fallback_for_plain_observers(self):
        class PlainTap:
            def __init__(self):
                self.seen = []

            def record(self, time, packet, src, dst):
                self.seen.append((time, packet.size, src, dst))

        seen = {}
        for execution in ("event", "batch-v2"):
            tap = PlainTap()
            self._emit_round(self._fabric(execution, tap))
            seen[execution] = tap.seen
        assert seen["event"] == seen["batch-v2"]
        assert seen["event"][:3] == [
            (0.0, 160 + IP_UDP_HEADER_BYTES, "a", "b"),
            (0.0, 160 + IP_UDP_HEADER_BYTES, "a", "b"),
            (0.0, 64 + IP_UDP_HEADER_BYTES, "a", "b")]
        assert len(seen["event"]) == 6

    def test_zero_delay_batch_skips_the_heap(self):
        # The run table never puts a cell on the heap: one round event
        # per round, against the oracle's transmit + delivery event
        # per cell.
        events = {}
        for execution in ("event", "batch-v2"):
            fabric = self._fabric(execution)
            self._emit_round(fabric, 0)
            self._emit_round(fabric, 1)
            events[execution] = fabric.events_processed
        assert events == {"event": 2 * 2 * 6, "batch-v2": 2}

    def test_empty_batch_is_a_noop(self):
        for execution in ("event", "batch-v2"):
            fabric = self._fabric(execution)
            fabric.flush_round(0)
            fabric.finalize()
            assert fabric.observer.observations == []
            assert fabric.cells_carried == 0
            assert fabric.nodes == {}


class TestPacketIdDeterminism:
    """Packet ids are loop-local: two identically-seeded runs in ONE
    process are byte-identical (the old module-global counter kept
    counting across runs)."""

    def _run(self):
        loop = EventLoop(seed=5)
        a, b, link = _pair(loop)
        ids = []
        b.on_packet(lambda p: ids.append(p.packet_id))
        for payload in (b"x", b"y", b"z"):
            link.transmit(a, Packet(payload, "a", "b"))
        loop.run()
        return ids

    def test_two_runs_one_process_identical_ids(self):
        assert self._run() == self._run() == [0, 1, 2]

    def test_explicit_ids_are_not_restamped(self):
        loop = EventLoop()
        a, b, link = _pair(loop)
        got = []
        b.on_packet(lambda p: got.append(p.packet_id))
        link.transmit(a, Packet(b"x", "a", "b", packet_id=99))
        loop.run()
        assert got == [99]

    def test_call_ids_are_manager_local(self):
        # Same regression at the core layer: MixCallManager used a
        # module-global call-id counter; GRANTs of a second seeded run
        # must carry the same ids as the first.
        from repro.simulation.live import LiveZone

        def call_ids():
            zone = LiveZone(n_clients=4, n_channels=2, seed=3)
            zone.start_call("client-0", "client-1")
            zone.run(6)
            return sorted(c.call_id for c in zone.manager.calls.values())

        first = call_ids()
        assert first and first == call_ids()

    def test_per_packet_transmit_is_warning_free(self):
        loop = EventLoop()
        a, b, link = _pair(loop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            link.transmit(a, Packet(b"x", "a", "b"))
            loop.run()
