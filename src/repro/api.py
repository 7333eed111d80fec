"""The unified simulation facade: one front door to the reproduction.

The repo grew three entry points with three calling conventions — the
in-memory :func:`~repro.simulation.testbed.build_testbed`, the
round-based :class:`~repro.simulation.live.LiveZone`, and the
fault-driven :func:`~repro.simulation.chaos.run_chaos`.  This module
puts one keyword-only surface in front of all of them:

>>> from repro import SimConfig, Simulation
>>> report = Simulation(SimConfig(seed=7)).run(rounds=50)
>>> report.metrics["herd_mix_cells_total"]["series"]  # doctest: +SKIP

Every :class:`Simulation` owns a :class:`~repro.obs.instrument
.Herdscope`, so every run produces a metrics snapshot and (optionally)
a JSONL trace stamped with *virtual* time — two runs with the same
:class:`SimConfig` are byte-identical.  The old entry points remain
callable; their positional forms warn with ``DeprecationWarning``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import execution as execution_registry
from repro.obs.export import render_json, render_prometheus
from repro.obs.instrument import Herdscope

SCENARIOS = ("live", "testbed", "chaos", "scenario")


class SimConfig:
    """Keyword-only configuration for one :class:`Simulation`.

    Not a dataclass on purpose: ``dataclass(kw_only=True)`` needs
    Python 3.10 and this repo supports 3.9, so the keyword-only
    contract is written out by hand.

    Parameters
    ----------
    scenario:
        ``"live"`` (default) — one zone's SP data plane at round
        granularity; ``"testbed"`` — in-memory deployment placing
        end-to-end calls through circuits; ``"chaos"`` — a fault plan
        replayed against a live deployment.
    seed:
        Master seed; one seed reproduces a whole run.
    n_clients, n_channels, n_sps, k:
        Zone shape (live/chaos scenarios).
    zone_id, client_prefix:
        Naming of the live zone and its clients.
    zone_specs:
        Testbed zones as (zone_id, site_id, n_mixes) tuples
        (testbed scenario; ``None`` = the EU + NA default).
    call_pairs:
        Concurrent calls started at round/time zero.
    chaos:
        Optional :class:`~repro.simulation.chaos.ChaosConfig`; its
        seed/n_clients/n_channels are overridden by this config's.
    scenario_def:
        A :class:`~repro.scenario.model.Scenario` (the declarative
        composed-adversity scenario engine).  Passing one selects
        ``scenario="scenario"`` automatically; the scenario's own
        seed, shape, and horizon drive the run.
    execution:
        The execution engine, resolved by name through the
        :mod:`repro.execution` registry: ``"event"`` (default) — the
        per-cell reference wire path (one packet and one heap event
        per cell); ``"batch-v2"`` — the vectorized plane (one run
        table per round with aggregate chaff accounting);
        ``"asyncio"`` — the real-network plane
        (the same round-synchronous protocol, every cell carried as
        a framed UDP datagram over loopback, DESIGN.md §14).  The
        engines are observationally equivalent: a seeded run
        produces byte-identical metrics snapshots, traces, and
        adversary observations under all of them (DESIGN.md §9,
        §13); they differ only in cost — and the real-network plane
        additionally reports host-socket accounting in
        ``report.detail["net"]``, a side channel like ``perf``.
    net_processes:
        Real-network (``"asyncio"``) plane only: host the UDP
        receive endpoints in a separate worker process, so every
        cell datagram genuinely crosses a process boundary
        (:mod:`repro.net.procs`).  Raises ``ValueError`` on ``"sim"``
        transports.
    wiretap:
        Live scenario only: materialize the zone's wire plane and tap
        every link with a global passive observer; the observation
        stream lands in ``report.detail["wiretap"]``.
    trace_path:
        Optional JSONL file receiving the full trace stream.
    trace_buffer:
        In-memory trace ring capacity (0 disables the ring).
    profile:
        Attach a :class:`~repro.obs.prof.profiler.PhaseProfiler` to
        the run: per-phase wall time and call/cell counters land in
        ``report.perf``.  Profiling reads the host clock (through the
        sanctioned perfclock module only) but its output is a side
        channel — metrics, traces, adversary observations, and every
        determinism key stay byte-identical to an unprofiled run
        (DESIGN.md §11).
    """

    __slots__ = ("scenario", "seed", "n_clients", "n_channels",
                 "n_sps", "k", "zone_id", "zone_specs",
                 "client_prefix", "call_pairs", "chaos",
                 "scenario_def", "trace_path", "trace_buffer",
                 "execution", "net_processes", "wiretap",
                 "profile")

    def __init__(self, *, scenario: str = "live",
                 seed: int = 20150817, n_clients: int = 12,
                 n_channels: int = 4, n_sps: int = 1, k: int = 2,
                 zone_id: str = "zone-EU",
                 zone_specs: Optional[
                     Sequence[Tuple[str, str, int]]] = None,
                 client_prefix: str = "client", call_pairs: int = 1,
                 chaos=None, scenario_def=None,
                 trace_path: Optional[str] = None,
                 trace_buffer: int = 4096,
                 execution: str = "event",
                 net_processes: bool = False,
                 wiretap: bool = False,
                 profile: bool = False):
        if scenario_def is not None and scenario == "live":
            scenario = "scenario"
        if scenario == "scenario" and scenario_def is None:
            raise ValueError("scenario='scenario' needs scenario_def="
                             "Scenario(...)")
        if scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, "
                             f"not {scenario!r}")
        plane = execution_registry.resolve(execution)
        if net_processes and plane.transport != "udp":
            raise ValueError(
                f"net_processes applies to the real-network "
                f"transport only; plane {plane.name!r} runs "
                f"on {plane.transport!r}")
        if call_pairs < 0 or 2 * call_pairs > n_clients:
            raise ValueError("call_pairs needs two clients per call")
        self.scenario = scenario
        self.seed = seed
        self.n_clients = n_clients
        self.n_channels = n_channels
        self.n_sps = n_sps
        self.k = k
        self.zone_id = zone_id
        self.zone_specs = zone_specs
        self.client_prefix = client_prefix
        self.call_pairs = call_pairs
        self.chaos = chaos
        self.scenario_def = scenario_def
        self.trace_path = trace_path
        self.trace_buffer = trace_buffer
        self.execution = plane.name
        self.net_processes = bool(net_processes)
        self.wiretap = wiretap
        self.profile = profile

    def __repr__(self) -> str:
        return (f"SimConfig(scenario={self.scenario!r}, "
                f"seed={self.seed}, n_clients={self.n_clients}, "
                f"n_channels={self.n_channels}, "
                f"call_pairs={self.call_pairs}, "
                f"execution={self.execution!r})")


class RunReport:
    """What one :meth:`Simulation.run` produced."""

    __slots__ = ("scenario", "seed", "rounds_run", "metrics",
                 "trace_events", "trace_path", "detail", "perf",
                 "engine")

    def __init__(self, *, scenario: str, seed: int, rounds_run: int,
                 metrics: Dict[str, Any], trace_events: Tuple,
                 trace_path: Optional[str], detail: Any,
                 perf: Optional[Dict[str, Any]] = None,
                 engine: str = "event"):
        self.scenario = scenario
        self.seed = seed
        self.rounds_run = rounds_run
        #: The execution engine the run used (registry name) — the
        #: same vocabulary the CLI flag ``--engine`` uses.
        self.engine = engine
        #: Deterministic :meth:`~repro.obs.metrics.MetricsRegistry
        #: .snapshot` of every instrument the run touched.
        self.metrics = metrics
        #: Tail of the trace stream (the scope's ring buffer).
        self.trace_events = trace_events
        self.trace_path = trace_path
        #: Scenario-specific payload: a dict for live/testbed runs, a
        #: :class:`~repro.simulation.chaos.ChaosReport` for chaos.
        self.detail = detail
        #: Host-time phase profile (``PhaseProfiler.report()``) when
        #: the run was configured with ``profile=True``; ``None``
        #: otherwise.  A side channel: never part of the metrics
        #: snapshot, traces, or any determinism key.
        self.perf = perf

    def to_prometheus(self) -> str:
        """The metrics snapshot in Prometheus exposition format."""
        return render_prometheus(self.metrics)

    def to_json(self, indent: int = 2) -> str:
        """The metrics snapshot as canonical JSON."""
        return render_json(self.metrics, indent=indent)

    def counter_value(self, name: str,
                      labels: Optional[Dict[str, str]] = None) -> float:
        """Convenience lookup into the snapshot (0.0 when absent)."""
        want = {str(k): str(v) for k, v in (labels or {}).items()}
        for series in self.metrics.get(name, {}).get("series", ()):
            if series["labels"] == want:
                return series["value"]
        return 0.0

    def __repr__(self) -> str:
        return (f"RunReport(scenario={self.scenario!r}, "
                f"seed={self.seed}, rounds_run={self.rounds_run}, "
                f"metrics={len(self.metrics)} names, "
                f"trace_events={len(self.trace_events)})")


class Simulation:
    """One configured, instrumented run.

    A Simulation is one-shot: :meth:`run` drives the scenario, closes
    the trace sinks (so a ``trace_path`` file is complete on return),
    and hands back a :class:`RunReport`.  Construct a new Simulation
    for a new run — reusing one would splice two runs into one trace.
    """

    def __init__(self, config: Optional[SimConfig] = None):
        self.config = config or SimConfig()
        self.scope = Herdscope(trace_path=self.config.trace_path,
                               trace_buffer=self.config.trace_buffer)
        if self.config.profile:
            from repro.obs.prof.profiler import PhaseProfiler
            self.profiler: Optional[PhaseProfiler] = PhaseProfiler()
        else:
            self.profiler = None
        self._finished = False

    def run(self, rounds: Optional[int] = None, *,
            until: Optional[float] = None) -> RunReport:
        """Drive the scenario for ``rounds`` data-plane rounds (live /
        testbed) or to virtual time ``until`` (chaos horizon).  Exactly
        one of the two may be given; the scenario's natural default is
        used otherwise (50 rounds, or the chaos plan's horizon)."""
        if self._finished:
            raise RuntimeError("this Simulation already ran; build a "
                               "new one for a new run")
        if rounds is not None and until is not None:
            raise ValueError("pass rounds= or until=, not both")
        cfg = self.config
        if cfg.scenario == "live":
            rounds_run, detail = self._run_live(
                50 if rounds is None and until is None
                else int(until) if rounds is None else rounds)
        elif cfg.scenario == "testbed":
            rounds_run, detail = self._run_testbed(
                rounds if rounds is not None else 50)
        elif cfg.scenario == "scenario":
            rounds_run, detail = self._run_scenario(until)
        else:
            rounds_run, detail = self._run_chaos(until)
        self._finished = True
        prof = self.profiler
        if prof is not None:
            prof.begin("metrics-flush")
        snapshot = self.scope.snapshot()
        ring = self.scope.ring
        events = tuple(ring.events) if ring is not None else ()
        self.scope.close()
        if prof is not None:
            prof.end()
        return RunReport(scenario=cfg.scenario, seed=cfg.seed,
                         rounds_run=rounds_run, metrics=snapshot,
                         trace_events=events,
                         trace_path=cfg.trace_path, detail=detail,
                         perf=prof.report() if prof is not None
                         else None,
                         engine=cfg.execution)

    # -- scenarios ------------------------------------------------------------

    def _call_pairs(self) -> List[Tuple[str, str]]:
        prefix = self.config.client_prefix
        return [(f"{prefix}-{2 * i}", f"{prefix}-{2 * i + 1}")
                for i in range(self.config.call_pairs)]

    def _run_live(self, rounds: int) -> Tuple[int, Dict[str, Any]]:
        from repro.core.callmanager import CallState
        from repro.simulation.live import LiveZone
        cfg = self.config
        zone = LiveZone(n_clients=cfg.n_clients,
                        n_channels=cfg.n_channels, k=cfg.k,
                        n_sps=cfg.n_sps, seed=cfg.seed,
                        zone_id=cfg.zone_id,
                        client_prefix=cfg.client_prefix,
                        execution=cfg.execution,
                        net_processes=cfg.net_processes)
        if self.profiler is not None:
            # Before attach_wire, so the fabric (and its links) picks
            # the profiler up on creation.
            self.profiler.attach_zone(zone)
        # The real-network plane always materializes the wire — the
        # datagrams *are* the transport; the simulator planes only
        # pay for a wire image when an adversary taps it.
        fabric = zone.attach_wire() \
            if cfg.wiretap or zone.transport == "udp" else None
        self.scope.use_clock(lambda: float(zone.round_index))
        self.scope.attach_live_zone(zone)
        for caller, callee in self._call_pairs():
            zone.start_call(caller, callee)
        for _ in range(rounds):
            for live in zone.clients.values():
                if live.agent.state is CallState.IN_CALL:
                    zone.say(live.client.client_id,
                             f"v{zone.round_index}".encode())
            zone.step()
        in_call = sum(1 for live in zone.clients.values()
                      if live.agent.state is CallState.IN_CALL)
        detail = {
            "zone_id": cfg.zone_id,
            "engine": cfg.execution,
            "clients_in_call": in_call,
            "calls_blocked": zone.manager.calls_blocked,
        }
        if fabric is not None:
            fabric.finalize()
            if cfg.wiretap:
                # The adversary's view, as plain tuples:
                # byte-identical across engines (the equivalence
                # contract); the engine cost stats beside it are the
                # part that is allowed to — and should — differ.
                detail["wiretap"] = {
                    "observations": [
                        (o.time, o.size, o.src, o.dst)
                        for o in fabric.observer.observations],
                    "cells_carried": fabric.cells_carried,
                    "wire_events_processed": fabric.events_processed,
                }
            net = fabric.net_report()
            if net is not None:
                # Host-network side channel (real-socket accounting,
                # wall-clock latency): like ``perf``, never part of
                # metrics, traces, or any determinism key.
                detail["net"] = net
        return zone.round_index, detail

    def _run_testbed(self, rounds: int) -> Tuple[int, Dict[str, Any]]:
        from repro.simulation.testbed import build_testbed
        cfg = self.config
        bed = build_testbed(cfg.zone_specs, seed=cfg.seed)
        frame_clock = {"round": 0}
        self.scope.use_clock(lambda: float(frame_clock["round"]))
        zone_ids = list(bed.zones)
        for i in range(cfg.n_clients):
            bed.add_client(f"{cfg.client_prefix}-{i}",
                           zone_ids[i % len(zone_ids)])
        sessions = []
        frames = self.scope.registry.counter(
            "herd_e2e_frames_total",
            help="voice frames carried end to end through circuits")
        frame_bytes = self.scope.registry.counter(
            "herd_e2e_frame_bytes_total",
            help="voice payload bytes carried end to end")
        for caller, callee in self._call_pairs():
            bed.ready_for_calls(caller)
            bed.ready_for_calls(callee)
            sessions.append(bed.call(caller, callee))
        delivered = 0
        for r in range(rounds):
            frame_clock["round"] = r
            payload = b"\x42" * 160
            this_round = 0
            for session in sessions:
                for direction in ("caller_to_callee",
                                  "callee_to_caller"):
                    if session.send_voice(direction, payload) == \
                            payload:
                        this_round += 1
            if this_round:
                # One bulk update per round: the same totals and the
                # same updated_at stamp as one inc per frame (every
                # frame of the round reads the same round clock).
                frames.add(this_round)
                frame_bytes.add(this_round * len(payload))
            delivered += this_round
        frame_clock["round"] = rounds
        return rounds, {
            "zones": zone_ids,
            "calls": len(sessions),
            "engine": cfg.execution,
            "execution": cfg.execution,
            "frames_delivered": delivered,
        }

    def _run_chaos(self, until: Optional[float]) -> Tuple[int, Any]:
        from dataclasses import replace
        from repro.simulation.chaos import ChaosConfig, run_chaos
        cfg = self.config
        chaos_cfg = cfg.chaos or ChaosConfig()
        chaos_cfg = replace(chaos_cfg, seed=cfg.seed,
                            n_clients=cfg.n_clients,
                            n_channels=cfg.n_channels,
                            call_pairs=cfg.call_pairs,
                            execution=cfg.execution)
        if until is not None:
            chaos_cfg = replace(chaos_cfg, horizon_s=float(until))
        report = run_chaos(chaos_cfg, scope=self.scope,
                           profiler=self.profiler)
        return report.rounds_run, report

    def _run_scenario(self, until: Optional[float]) -> Tuple[int, Any]:
        from repro.scenario.engine import execute
        cfg = self.config
        scenario = cfg.scenario_def
        if until is not None and float(until) != scenario.horizon_s:
            scenario = scenario.with_horizon(float(until))
        outcome = execute(scenario, execution=cfg.execution,
                          net_processes=cfg.net_processes,
                          scope=self.scope,
                          profiler=self.profiler)
        return outcome.rounds_run, outcome
