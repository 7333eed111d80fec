"""Chaos scenarios: fault plans replayed against a live deployment.

The acceptance scenario of the Herd failure model (§3.1, §3.5, §3.6.4)
in one runnable function: a live zone carries real calls at codec-frame
granularity while a :class:`~repro.faults.plan.FaultPlan` kills a mix
(orphaning direct clients, who re-join through surviving mixes with
exponential backoff) and kills or degrades-until-blacklisted an SP
mid-call (whose active call legs fail over to surviving channels and
resume).  :func:`run_chaos` returns a :class:`ChaosReport` with the
structured fault timeline, per-client re-join latencies, and per-leg
failover outcomes — and two runs with the same seed and plan produce
identical reports (the determinism regression the tests assert).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import execution as execution_registry
from repro.core.callmanager import FailoverRecord
from repro.core.retry import BackoffPolicy
from repro.faults.injector import TimelineEntry
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.scenario.model import (
    CTL_ZONE,
    LIVE_ZONE,
    RejoinStats,
    Scenario,
    Workload,
    ZoneShape,
)

__all__ = [
    "CTL_ZONE", "LIVE_ZONE", "ChaosConfig", "ChaosReport",
    "RejoinStats", "blacklist_plan", "default_plan", "run_chaos",
    "scenario_from_chaos_config",
]


@dataclass
class ChaosConfig:
    """Knobs of the chaos scenario (defaults match the acceptance
    scenario: one mix crash + one SP loss mid-call)."""

    seed: int = 20150817
    n_clients: int = 12
    n_channels: int = 6
    n_sps: int = 2
    k: int = 3
    n_direct_clients: int = 6
    round_interval_s: float = 0.02
    horizon_s: float = 12.0
    call_pairs: int = 1
    call_start_s: float = 0.5
    plan: Optional[FaultPlan] = None
    rejoin_policy: BackoffPolicy = field(default_factory=lambda: BackoffPolicy(
        base_delay_s=0.25, multiplier=2.0, max_delay_s=2.0,
        max_attempts=8, jitter=0.1))
    #: SPMonitor sampling cadence for degradation faults.
    sample_interval_s: float = 0.25
    #: Zone execution engine, any name registered with
    #: :mod:`repro.execution` (``"event"``, ``"batch-v2"``).  The
    #: chaos report's determinism key is identical under all of
    #: them.
    execution: str = "event"

    def __post_init__(self) -> None:
        execution_registry.resolve(self.execution)


def default_plan() -> FaultPlan:
    """Mix crash (unclean: 1 s detection delay, recovers at +5 s) plus
    an SP crash mid-call."""
    return FaultPlan([
        FaultSpec(kind=FaultKind.MIX_CRASH, at_s=2.0,
                  target=f"{CTL_ZONE}/mix-0", duration_s=5.0,
                  detection_delay_s=1.0),
        FaultSpec(kind=FaultKind.SP_CRASH, at_s=3.0,
                  target=f"{LIVE_ZONE}/sp-1"),
    ])


def blacklist_plan() -> FaultPlan:
    """Same mix crash, but the SP is not killed — its link degrades
    until the mix's :class:`SPMonitor` blacklists it, which triggers
    the same mid-call failover path."""
    return FaultPlan([
        FaultSpec(kind=FaultKind.MIX_CRASH, at_s=2.0,
                  target=f"{CTL_ZONE}/mix-0", duration_s=5.0,
                  detection_delay_s=1.0),
        FaultSpec(kind=FaultKind.LINK_DEGRADE, at_s=2.0,
                  target=f"{LIVE_ZONE}/sp-1", duration_s=4.0,
                  loss=0.30, jitter_ms=80.0),
    ])


@dataclass
class ChaosReport:
    """Everything a chaos run produced."""

    plan_signature: str
    timeline: List[TimelineEntry]
    events_processed: int
    rounds_run: int
    call_legs_established: int
    failovers: List[FailoverRecord]
    rejoins: List[RejoinStats]
    #: client id → voice cells received *after* its leg failed over.
    post_failover_voice: Dict[str, int]
    blacklisted_sps: Tuple[str, ...]

    @property
    def survived_failovers(self) -> List[FailoverRecord]:
        return [r for r in self.failovers if r.survived]

    @property
    def dropped_failovers(self) -> List[FailoverRecord]:
        return [r for r in self.failovers if not r.survived]

    @property
    def call_survival_rate(self) -> float:
        if not self.failovers:
            return 1.0
        return len(self.survived_failovers) / len(self.failovers)

    @property
    def all_rejoined(self) -> bool:
        return bool(self.rejoins) and \
            all(r.rejoined_at_s is not None for r in self.rejoins)

    @property
    def mid_call_failover_demonstrated(self) -> bool:
        """At least one leg re-allocated to a surviving channel AND
        received voice after the switch — the call really resumed."""
        return any(self.post_failover_voice.get(cid, 0) > 0
                   for cid in self.post_failover_voice)

    def determinism_key(self) -> Tuple:
        """Everything that must match bit-for-bit between two runs with
        the same seed and plan.  Deliberately excludes process-global
        counters (numeric ids, call ids)."""
        return (
            self.plan_signature,
            tuple((e.time_s, e.action, e.kind, e.target, e.detail)
                  for e in self.timeline),
            self.events_processed,
            self.rounds_run,
            self.call_legs_established,
            tuple(sorted(self.post_failover_voice.items())),
            tuple((r.client_id, round(r.orphaned_at_s, 9),
                   None if r.rejoined_at_s is None
                   else round(r.rejoined_at_s, 9), r.attempts)
                  for r in sorted(self.rejoins,
                                  key=lambda r: r.client_id)),
            self.blacklisted_sps,
        )


def scenario_from_chaos_config(cfg: ChaosConfig) -> Scenario:
    """The chaos scenario as a declarative :class:`Scenario` — the
    same deployment shape, workload, plan, and retry policy the
    hand-rolled ``run_chaos`` body used to schedule."""
    plan = cfg.plan or default_plan()
    return Scenario(
        name="chaos",
        description="mix crash + SP loss mid-call (§3.5/§3.6.4 "
                    "acceptance scenario)",
        seed=cfg.seed,
        horizon_s=cfg.horizon_s,
        round_interval_s=cfg.round_interval_s,
        sample_interval_s=cfg.sample_interval_s,
        zone=ZoneShape(n_clients=cfg.n_clients,
                       n_channels=cfg.n_channels, n_sps=cfg.n_sps,
                       k=cfg.k, n_direct_clients=cfg.n_direct_clients,
                       client_prefix="live"),
        workload=Workload(kind="constant", call_pairs=cfg.call_pairs,
                          call_start_s=cfg.call_start_s),
        faults=tuple(plan.specs),
        rejoin_policy=cfg.rejoin_policy,
    )


def run_chaos(config: Optional[ChaosConfig] = None, *,
              seed: Optional[int] = None,
              n_clients: Optional[int] = None,
              n_channels: Optional[int] = None,
              scope=None, profiler=None) -> ChaosReport:
    """Run one chaos scenario end to end.

    The keyword overrides (``seed``, ``n_clients``, ``n_channels``)
    are conveniences over ``config`` for the common knobs; ``scope``
    is an optional :class:`repro.obs.instrument.Herdscope` that gets
    wired into the loop, injector, and live zone so the run produces
    metrics and traces; ``profiler`` an optional
    :class:`repro.obs.prof.profiler.PhaseProfiler` forwarded to the
    engine (host-time side channel; the determinism key is unchanged).

    Since the scenario engine landed this is a thin compatibility
    shim: the config compiles to a :class:`Scenario`
    (:func:`scenario_from_chaos_config`) and runs on
    :func:`repro.scenario.engine.execute`, whose base path schedules
    the exact same events — determinism keys of pre-engine runs are
    preserved.
    """
    cfg = config or ChaosConfig()
    overrides = {name: value
                 for name, value in (("seed", seed),
                                     ("n_clients", n_clients),
                                     ("n_channels", n_channels))
                 if value is not None}
    # Imported here, not at module scope: the engine imports the
    # simulation package (LiveZone, testbed, churn), so this is the
    # one edge of the scenario↔simulation cycle that must stay lazy.
    from repro.scenario.engine import execute
    if overrides:
        cfg = replace(cfg, **overrides)
    outcome = execute(scenario_from_chaos_config(cfg),
                      execution=cfg.execution,
                      scope=scope, profiler=profiler)
    return ChaosReport(
        plan_signature=outcome.plan_signature,
        timeline=list(outcome.timeline),
        events_processed=outcome.events_processed,
        rounds_run=outcome.rounds_run,
        call_legs_established=outcome.call_legs_established,
        failovers=list(outcome.failovers),
        rejoins=list(outcome.rejoins),
        post_failover_voice=dict(outcome.post_failover_voice),
        blacklisted_sps=outcome.blacklisted_sps,
    )
