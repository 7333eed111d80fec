"""The benchmark's four workloads, each a closed loop.

Every workload is a *session*: constructing it does the set-up,
:meth:`Session.warm_up` runs the untimed first operations, and each
:meth:`Session.op` runs one closed-loop operation (a zone round, one
call, one backbone run or one scenario execution) that starts only
when the previous one completed.  The same session code serves the
timed run (ops until the deadline) and the traced run (a fixed number
of ops, see ``run.py``).

Each timed op leaves a :class:`Sample`: its measured quantities and
the host-speed probe taken right after it (``probe.py``).  Metrics are
computed from the samples with every time scaled to the reference
host; ``scaled=False`` gives the figures as measured.

All sessions run on the ``batch-v2`` plane with ``shards=1``, in the
calling process, with no worker pool.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from perfbench.probe import SpeedProbe
from repro.core.callmanager import CallState
from repro.crypto.onion import CELL_SIZE
from repro.obs.instrument import Herdscope
from repro.obs.prof.bench import run_backbone
from repro.scenario.loader import load_scenario
from repro.scenario.report import run_scenario
from repro.simulation.live import LiveZone
from repro.simulation.roundsync import WireFabric
from repro.simulation.testbed import build_testbed

ENGINE = "batch-v2"
SHARDS = 1
PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

clock = time.perf_counter


class Sample(NamedTuple):
    """One timed op (or round): its probe time and its quantities.
    Quantities ending in ``_s`` are host times; the rest are counts."""

    probe_s: float
    values: Dict[str, float]


class Stamps:
    """Records a host timestamp each time a method is entered (or
    left), by replacing the method on its class until :meth:`remove`.
    The timed runs use this to cut per-round samples out of loops the
    benchmark does not drive itself; it costs one clock read per
    round.  With a ``probe``, a speed probe runs right after each
    stamp and its duration is kept in :attr:`pauses`, so
    :meth:`intervals` can leave probe time out of every interval."""

    def __init__(self, cls: type, method: str, *, on_exit: bool = False,
                 probe: Optional[SpeedProbe] = None):
        self.cls = cls
        self.method = method
        self.original = cls.__dict__[method]
        self.times: List[float] = []
        self.pauses: List[float] = []
        self.first_arg = None
        original = self.original
        times = self.times
        pauses = self.pauses
        stamps = self

        def stamp():
            times.append(clock())
            pauses.append(probe.sample() if probe is not None else 0.0)

        if on_exit:
            def stamped(*args, **kwargs):
                result = original(*args, **kwargs)
                stamp()
                return result
        else:
            def stamped(*args, **kwargs):
                stamp()
                stamps.first_arg = args[0]
                return original(*args, **kwargs)
        setattr(cls, method, stamped)

    def intervals(self) -> List[float]:
        """Time between consecutive stamps, probe time excluded."""
        return [b - a - pause for a, b, pause
                in zip(self.times, self.times[1:], self.pauses)]

    def remove(self) -> None:
        setattr(self.cls, self.method, self.original)


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, separators=(",", ":"))
                          .encode()).hexdigest()


def quantile(values: List[float], p: float) -> float:
    """The Harrell–Davis estimate of the ``p`` quantile, its beta
    weights approximated by a normal: a weighted mean of the order
    statistics around the ``p``-th.  Where plain interpolation jumps
    between two modes — chaos-failover's rounds before and after its
    SP crash split about half and half — this stays steady."""
    ordered = sorted(values)
    n = len(ordered)
    width = math.sqrt(2 * p * (1 - p) / (n + 2))

    def cdf(t: float) -> float:
        return 0.5 * (1 + math.erf((t - p) / width))

    weights = [cdf(i / n) - cdf((i - 1) / n) for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


class Session:
    """Common bookkeeping; subclasses fill in the workload."""

    name = ""
    #: Set-up repetitions per timed run (their median is ``setup_s``).
    #: Sessions whose ops contain their own set-up use 1 and record
    #: a ``setup_s`` quantity per op instead.
    setup_reps = 3
    #: Ops in one traced run.
    traced_ops = 1
    #: The session's own checking code, timed apart from the ledger.
    harness_methods: tuple = ()
    #: The quantity whose percentiles are reported.
    latency = ""
    #: The issue-named metrics behind the contract's throughput,
    #: latency and traffic metrics.
    contract_names = ("", "", "")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.failures: List[str] = []
        #: ops attempted / ops that failed a correctness check.
        self.attempted = 0
        self.failed = 0
        self.probe = SpeedProbe()
        self.timed: List[Sample] = []

    @property
    def samples(self) -> int:
        """Latency samples taken so far (the percentile base)."""
        return len(self.timed)

    def record(self, **values: float) -> None:
        """Close one timed op: probe the host speed right after it."""
        self.timed.append(Sample(self.probe.sample(), values))

    def column(self, name: str, scaled: bool = True) -> List[float]:
        """One quantity over the samples that have it.  Scaled times
        are divided by the median of the sample's own probe and its two
        neighbours' (host speed changes within seconds) and multiplied
        by the reference probe time."""
        probes = [sample.probe_s for sample in self.timed]
        out = []
        for i, sample in enumerate(self.timed):
            value = sample.values.get(name)
            if value is None:
                continue
            if scaled and name.endswith("_s"):
                local = statistics.median(probes[max(0, i - 1):i + 2])
                value *= SpeedProbe.REFERENCE_S / local
            out.append(value)
        return out

    def op_time_s(self) -> float:
        """Scaled host time inside the timed ops (set-up excluded)."""
        names = {name for sample in self.timed for name in sample.values
                 if name.endswith("_s") and name != "setup_s"}
        return sum(sum(self.column(name)) for name in names)

    def latency_values(self, scaled: bool) -> List[float]:
        """The samples behind the percentiles."""
        return self.column(self.latency, scaled)

    def latency_metrics(self, scaled: bool) -> Dict[str, tuple]:
        prefix = self.contract_names[1]
        values = self.latency_values(scaled)
        n = len(values)
        return {f"{prefix}_p50": (quantile(values, 0.5) * 1e3, "ms", n),
                f"{prefix}_p90": (quantile(values, 0.9) * 1e3, "ms", n)}

    def rate(self, units: str, per: str, scaled: bool) -> float:
        return sum(self.column(units)) / sum(self.column(per, scaled))

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def warm_up(self) -> None:
        pass

    def op(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run (after the last op)."""

    def metrics(self, scaled: bool = True) -> Dict[str, tuple]:
        """Issue-named end-to-end metrics: name -> (value, unit,
        sample count or None)."""
        raise NotImplementedError

    def contract(self, m: Dict[str, tuple]) -> Dict[str, float]:
        """The driver-contract metrics (``BENCHMARK.json``) from the
        issue-named ones."""
        throughput, latency, traffic = self.contract_names
        return {"throughput_per_s": m[throughput][0],
                "latency_ms_p50": m[f"{latency}_p50"][0],
                "latency_ms_p90": m[f"{latency}_p90"][0],
                "traffic_per_s": m[traffic][0]}

    def deterministic(self) -> Dict[str, object]:
        """Outputs that depend only on the seed and the op count."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# zone-calls
# --------------------------------------------------------------------------

class ZoneCalls(Session):
    """One live zone, half its clients in calls, wiretap attached.

    The zone itself (keys, channel allocation, SP layout) is built
    from the fixed :data:`ZONE_SEED`; ``--seed`` picks who calls whom
    and the voice bytes.  Constant-rate emission makes the wire image
    of every round independent of both, which is what lets one pinned
    per-round digest check every round of every seed.  The talkers
    are a channel-disjoint half of the clients (see
    :meth:`_channel_disjoint_clients`), so every leg gets a channel."""

    name = "zone-calls"
    ZONE_SEED = 20150817
    N_CLIENTS = 32
    N_CHANNELS = 32
    N_SPS = 4
    K = 2
    PAIRS = 8
    MAX_SETUP_ROUNDS = 60
    traced_ops = 25
    harness_methods = ("_voice_cells", "_check_wire", "_check_voice")
    latency = "round_s"
    contract_names = ("client_rounds_per_s", "round_ms", "cells_per_s")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.zone = LiveZone(n_clients=self.N_CLIENTS,
                             n_channels=self.N_CHANNELS, k=self.K,
                             n_sps=self.N_SPS, seed=self.ZONE_SEED,
                             execution=ENGINE, shards=SHARDS)
        zone = self.zone
        self.scope = Herdscope(trace_buffer=0)
        self.scope.use_clock(lambda: float(zone.round_index))
        self.scope.attach_live_zone(zone)
        self.fabric: WireFabric = zone.attach_wire()
        talkers = self._channel_disjoint_clients()
        self.rng.shuffle(talkers)
        self.pairs = [(talkers[2 * i], talkers[2 * i + 1])
                      for i in range(len(talkers) // 2)]
        self.peer = {}
        for a, b in self.pairs:
            self.peer[a], self.peer[b] = b, a
        self.observed = 0
        self.sent = 0
        self.lost = 0
        self.legs_established = 0
        self.legs_dropped = 0
        self.setup_rounds = 0
        self.voice_digest = hashlib.sha256()

    def _channel_disjoint_clients(self) -> List[str]:
        """Half the clients, no two of which share a channel.

        A channel carries one call, so two talkers on the same channel
        could block each other's leg: the mix would rightly refuse it,
        and the run would measure a seed-dependent number of calls.
        Every channel here has two members, so the clients and their
        shared channels form cycles; a cycle of even length splits into
        two alternating halves with no channel in common.  The seed
        picks one half of every cycle."""
        members: Dict[int, List[str]] = {}
        for cid, live in sorted(self.zone.clients.items()):
            for attachment in live.client.attachments:
                members.setdefault(attachment.channel_id, []).append(cid)
        side: Dict[str, bool] = {}
        for start in sorted(self.zone.clients):
            if start in side:
                continue
            side[start] = self.rng.random() < 0.5
            todo = [start]
            while todo:
                cid = todo.pop()
                for attachment in self.zone.clients[cid].client.attachments:
                    for other in members[attachment.channel_id]:
                        if other == cid:
                            continue
                        if other not in side:
                            side[other] = not side[cid]
                            todo.append(other)
                        elif side[other] == side[cid]:
                            self.fail("channel sharing has an odd cycle: "
                                      "no channel-disjoint half exists")
        talkers = [cid for cid in sorted(side) if side[cid]]
        if len(talkers) != 2 * self.PAIRS:
            self.fail(f"{len(talkers)} channel-disjoint clients, "
                      f"need {2 * self.PAIRS}")
        return talkers

    def _in_call(self, client_id: str) -> bool:
        return self.zone.state_of(client_id) is CallState.IN_CALL

    def _round(self, timed: bool) -> None:
        zone = self.zone
        talkers, cells, before = self._voice_cells()
        start = clock()
        for cid in talkers:
            zone.say(cid, cells[cid])
        zone.step()
        elapsed = clock() - start
        cells_seen = len(self.fabric.observer.observations)
        ok = self._check_wire()
        if timed:
            ok = self._check_voice(talkers, cells, before) and ok
            self.attempted += 1
            self.failed += not ok
            self.record(round_s=elapsed, cells=cells_seen)

    def _voice_cells(self):
        talkers = [cid for cid in self.peer if self._in_call(cid)]
        cells = {cid: self.rng.randbytes(CELL_SIZE) for cid in talkers}
        before = {cid: len(self.zone.received_by(cid))
                  for cid in self.peer}
        return talkers, cells, before

    def _check_wire(self) -> bool:
        """The round's wire image against the pin: every round carries
        the same multiset of (size, src, dst) cells, whoever talks."""
        observations = self.fabric.observer.observations
        image = sorted((o.size, o.src, o.dst) for o in observations)
        self.observed += len(observations)
        observations.clear()
        if _digest(image) != PINS["zone_round_image_sha256"]:
            self.fail(f"round {self.zone.round_index - 1}: wire image "
                      "differs from the pinned constant-rate image")
            return False
        return True

    def _check_voice(self, talkers, cells, before) -> bool:
        ok = True
        for cid in talkers:
            peer = self.peer[cid]
            got = self.zone.received_by(peer)[before[peer]:]
            self.sent += 1
            if got != [cells[cid]]:
                self.lost += 1
                ok = False
                self.fail(f"round {self.zone.round_index - 1}: voice "
                          f"from {cid} not delivered intact to {peer}")
            else:
                self.voice_digest.update(got[0])
        legs = sum(1 for cid in self.peer if self._in_call(cid))
        if legs != len(self.peer):
            self.legs_dropped = max(self.legs_dropped,
                                    len(self.peer) - legs)
            ok = False
            self.fail("a call leg left IN_CALL mid-run")
        return ok

    def warm_up(self) -> None:
        for caller, callee in self.pairs:
            self.zone.start_call(caller, callee)
        for _ in range(self.MAX_SETUP_ROUNDS):
            self._round(timed=False)
            if all(self._in_call(cid) for cid in self.peer):
                break
        self.setup_rounds = self.zone.round_index
        self.legs_established = sum(1 for cid in self.peer
                                    if self._in_call(cid))
        if self.legs_established != len(self.peer):
            self.fail(f"only {self.legs_established} of "
                      f"{len(self.peer)} call legs established")
        # Two settle rounds: the first voice round after the last
        # grant still carries control traffic.
        self._round(timed=False)
        self._round(timed=False)

    def op(self) -> None:
        self._round(timed=True)

    def finish(self) -> None:
        self.fabric.finalize()
        if self.observed != self.fabric.cells_carried:
            self.fail(f"wiretap saw {self.observed} cells, fabric "
                      f"carried {self.fabric.cells_carried}")
        self.scope.snapshot()

    def _ratios(self) -> Dict[str, float]:
        legs = len(self.peer)
        failed = legs - self.legs_established + self.legs_dropped
        return {"call_fail_ratio": failed / legs,
                "frame_loss_ratio": self.lost / max(1, self.sent)}

    def metrics(self, scaled: bool = True) -> Dict[str, tuple]:
        rounds = self.column("round_s", scaled)
        out = {
            "client_rounds_per_s": (self.N_CLIENTS * len(rounds)
                                    / sum(rounds),
                                    "client-rounds/s", None),
            "cells_per_s": (self.rate("cells", "round_s", scaled),
                            "cells/s", None),
        }
        out.update(self.latency_metrics(scaled))
        out.update({name: (value, "fraction", None)
                    for name, value in self._ratios().items()})
        return out

    def deterministic(self) -> Dict[str, object]:
        return dict(self._ratios(), rounds=self.zone.round_index,
                    setup_rounds=self.setup_rounds,
                    cells_carried=self.fabric.cells_carried,
                    voice_sha256=self.voice_digest.hexdigest())


# --------------------------------------------------------------------------
# circuit-calls
# --------------------------------------------------------------------------

class CircuitCalls(Session):
    """Back-to-back circuit calls through the inter-mix rendezvous.

    A standing circuit carries one call peer for its lifetime, so the
    seed fixes who pairs with whom; every op sets a call up again for
    the next pair in turn (directory lookup, splice, end-to-end X25519
    over the concatenated circuits) and relays voice frames each way
    through every mix's onion layer.  Set-up and relaying are timed
    apart: ``call_setups_per_s`` is calls per second of set-up time,
    ``frames_per_s`` frames per second of relay time."""

    name = "circuit-calls"
    BED_SEED = 20150817
    N_CLIENTS = 8
    FRAMES_EACH_WAY = 10
    traced_ops = 40
    harness_methods = ("_frames",)
    latency = "setup_call_s"
    contract_names = ("call_setups_per_s", "call_setup_ms", "frames_per_s")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bed = build_testbed(seed=self.BED_SEED)
        zones = list(self.bed.zones)
        self.clients = [f"client-{i}" for i in range(self.N_CLIENTS)]
        for i, cid in enumerate(self.clients):
            self.bed.add_client(cid, zones[i % len(zones)])
        for cid in self.clients:
            self.bed.ready_for_calls(cid)
        order = list(self.clients)
        self.rng.shuffle(order)
        self.pairs = [(order[2 * i], order[2 * i + 1])
                      for i in range(len(order) // 2)]
        self.next_pair = 0
        self.calls_failed = 0
        self.frames_sent = 0
        self.frames_lost = 0
        self.voice_digest = hashlib.sha256()

    def _frames(self) -> List[bytes]:
        return [self.rng.randbytes(160)
                for _ in range(2 * self.FRAMES_EACH_WAY)]

    def _call(self, timed: bool) -> None:
        caller, callee = self.pairs[self.next_pair % len(self.pairs)]
        self.next_pair += 1
        frames = self._frames()
        ok = True
        start = clock()
        try:
            session = self.bed.call(caller, callee)
        except Exception as exc:  # a failed set-up is a measured outcome
            self.fail(f"call {caller}->{callee} failed: {exc!r}")
            ok = False
            session = None
        setup = clock() - start
        sent = delivered = 0
        relay = 0.0
        if session is not None:
            for i, frame in enumerate(frames):
                direction = ("caller_to_callee", "callee_to_caller")[i % 2]
                start = clock()
                got = session.send_voice(direction, frame)
                relay += clock() - start
                sent += 1
                if got == frame:
                    delivered += 1
                    self.voice_digest.update(got)
                else:
                    ok = False
                    self.fail(f"frame {i} of {caller}->{callee} "
                              "arrived altered")
        if timed:
            self.attempted += 1
            self.failed += not ok
            self.calls_failed += session is None
            self.frames_sent += sent
            self.frames_lost += sent - delivered
            self.record(setup_call_s=setup, relay_s=relay,
                        frames=delivered, calls=1)

    def warm_up(self) -> None:
        # First call of every pair splices its circuits; later calls
        # of the same pair find the splice in place.
        for _ in self.pairs:
            self._call(timed=False)

    def op(self) -> None:
        self._call(timed=True)

    def _ratios(self) -> Dict[str, float]:
        return {"call_fail_ratio": self.calls_failed
                / max(1, self.attempted),
                "frame_loss_ratio": self.frames_lost
                / max(1, self.frames_sent)}

    def metrics(self, scaled: bool = True) -> Dict[str, tuple]:
        out = {
            "call_setups_per_s": (self.rate("calls", "setup_call_s",
                                            scaled), "setups/s", None),
            "frames_per_s": (self.rate("frames", "relay_s", scaled),
                             "frames/s", None),
        }
        out.update(self.latency_metrics(scaled))
        out.update({name: (value, "fraction", None)
                    for name, value in self._ratios().items()})
        return out

    def deterministic(self) -> Dict[str, object]:
        return dict(self._ratios(), calls=self.next_pair,
                    frames=self.frames_sent - self.frames_lost,
                    voice_sha256=self.voice_digest.hexdigest())


# --------------------------------------------------------------------------
# backbone
# --------------------------------------------------------------------------

class Backbone(Session):
    """The wire-only micro-bench: :func:`run_backbone` on batch-v2.

    No crypto and no protocol run here — every SP trunk carries one
    ``emit_repeated`` per direction per round.  Each op is one
    :func:`run_backbone` call; its first round materializes the
    fabric's links and counts as set-up, the other 24 are timed, each
    with a speed probe of its own.  A round takes a few milliseconds,
    shorter than the host's contention bursts, so a latency sample is
    one call's mean scaled round time.  ``--seed`` sets the client
    count within 1% of 100k."""

    name = "backbone"
    setup_reps = 1
    ROUNDS = 25
    traced_ops = 4
    latency = "round_s"
    contract_names = ("client_rounds_per_s", "round_ms", "cells_per_s")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.clients = 100_000 + self.rng.randrange(-1_000, 1_001)
        self.cells = 0

    @property
    def samples(self) -> int:
        return self.attempted

    def latency_values(self, scaled: bool) -> List[float]:
        rounds = self.column("round_s", scaled)
        per_op = self.ROUNDS - 1
        return [statistics.fmean(rounds[i:i + per_op])
                for i in range(0, len(rounds), per_op)]

    def _run(self, timed: bool) -> None:
        stamps = Stamps(WireFabric, "flush_round", on_exit=True,
                        probe=self.probe if timed else None)
        start = clock()
        try:
            result = run_backbone(ENGINE, self.clients, self.ROUNDS,
                                  shards=SHARDS)
        finally:
            stamps.remove()
        expected = 2 * self.clients * self.ROUNDS
        ok = result["observed_cells"] == result["cells"] == expected \
            and len(stamps.times) == self.ROUNDS
        if not ok:
            self.fail(f"backbone run carried {result['cells']} cells, "
                      f"tap saw {result['observed_cells']}, expected "
                      f"{expected}")
        if timed:
            self.attempted += 1
            self.failed += not ok
            cells = 2 * self.clients
            for i, interval in enumerate(stamps.intervals()):
                values = {"round_s": interval, "cells": cells}
                if i == 0:
                    values["setup_s"] = stamps.times[0] - start
                self.timed.append(Sample(stamps.pauses[i], values))
            self.cells += cells * (self.ROUNDS - 1)

    def warm_up(self) -> None:
        self._run(timed=False)

    def op(self) -> None:
        self._run(timed=True)

    def metrics(self, scaled: bool = True) -> Dict[str, tuple]:
        cells_per_s = self.rate("cells", "round_s", scaled)
        out = {
            "cells_per_s": (cells_per_s, "cells/s", None),
            "client_rounds_per_s": (cells_per_s / 2, "client-rounds/s",
                                    None),
        }
        out.update(self.latency_metrics(scaled))
        return out

    def deterministic(self) -> Dict[str, object]:
        return {"clients": self.clients, "cells": self.cells}


# --------------------------------------------------------------------------
# chaos-failover
# --------------------------------------------------------------------------

class ChaosFailover(Session):
    """The chaos corpus entry, replayed verbatim.

    The scenario file fixes its own seed, and its determinism key is
    pinned, so ``--seed`` does not change this workload's input: a
    different scenario seed would need a different pin, and some
    seeds of this small shape orphan no client at all (the re-join
    criterion then has nothing to check).  Each op is one
    :func:`~repro.scenario.engine.execute` run through the scenario
    report; its set-up (test bed, joins, zone) is everything before
    the first zone round, and every zone round is a latency sample
    with a speed probe of its own."""

    name = "chaos-failover"
    setup_reps = 1
    SCENARIO = "scenarios/01-chaos-failover.toml"
    traced_ops = 1
    latency = "round_s"
    contract_names = ("client_rounds_per_s", "round_ms", "frames_per_s")

    def __init__(self, seed: int):
        super().__init__(seed)
        root = Path(__file__).resolve().parents[1]
        self.scenario = load_scenario(str(root / self.SCENARIO))
        self.client_rounds = 0
        self.voice_cells = 0
        self.legs_attempted = 0
        self.legs_failed = 0
        self.keys: List[str] = []

    def _execute(self, scenario, timed: bool) -> None:
        stamps = Stamps(LiveZone, "step",
                        probe=self.probe if timed else None)
        start = clock()
        try:
            report = run_scenario(scenario, execution=ENGINE,
                                  shards=SHARDS)
        finally:
            stamps.remove()
        if not timed:
            return
        zone = stamps.first_arg
        outcome = report.detail
        ok = True
        if not report.passed:
            ok = False
            self.fail("survival criteria failed: "
                      + "; ".join(report.criteria_failures
                                  + report.invariant_violations))
        if report.determinism_key != PINS["chaos_determinism_key"]:
            ok = False
            self.fail(f"determinism key {report.determinism_key} "
                      "differs from the pin")
        self.keys.append(report.determinism_key)
        self.attempted += 1
        self.failed += not ok
        clients = len(zone.clients)
        intervals = stamps.intervals()
        voice = sum(len(zone.received_by(cid)) for cid in zone.clients)
        for i, interval in enumerate(intervals):
            values = {"round_s": interval, "client_rounds": clients,
                      "frames": voice if i == 0 else 0}
            if i == 0:
                values["setup_s"] = stamps.times[0] - start
            self.timed.append(Sample(stamps.pauses[i], values))
        self.client_rounds += clients * len(intervals)
        self.voice_cells += voice
        legs = 2 * outcome.calls_started
        self.legs_attempted += legs
        self.legs_failed += legs - outcome.call_legs_established \
            + len(outcome.dropped_failovers)

    def warm_up(self) -> None:
        # A short horizon loads every code path the full run uses.
        self._execute(self.scenario.with_horizon(1.0), timed=False)

    def op(self) -> None:
        self._execute(self.scenario, timed=True)

    def _call_fail_ratio(self) -> float:
        return self.legs_failed / max(1, self.legs_attempted)

    def metrics(self, scaled: bool = True) -> Dict[str, tuple]:
        out = {
            "client_rounds_per_s": (self.rate("client_rounds", "round_s",
                                              scaled),
                                    "client-rounds/s", None),
            "frames_per_s": (self.rate("frames", "round_s", scaled),
                             "frames/s", None),
            "call_fail_ratio": (self._call_fail_ratio(), "fraction",
                                None),
        }
        out.update(self.latency_metrics(scaled))
        return out

    def deterministic(self) -> Dict[str, object]:
        return {"determinism_keys": self.keys,
                "client_rounds": self.client_rounds,
                "voice_cells": self.voice_cells,
                "call_fail_ratio": self._call_fail_ratio()}


WORKLOADS: Dict[str, Callable[[int], Session]] = {
    cls.name: cls for cls in (ZoneCalls, CircuitCalls, Backbone,
                              ChaosFailover)}
