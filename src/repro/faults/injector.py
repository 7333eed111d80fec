"""Applying a :class:`~repro.faults.plan.FaultPlan` to a live testbed.

The injector is the piece that turns declarative fault specs into
actual state changes — popping mixes/SPs off the
:class:`~repro.simulation.testbed.HerdTestbed` via the churn API,
degrading :class:`~repro.netsim.link.Link` parameters, feeding bad
quality samples to the :class:`~repro.core.blacklist.SPMonitor` — and
records everything it does in a structured, replayable timeline.

Recovery is part of the plan: crashes with a ``duration_s`` schedule
their own revert (mix/SP revived with the same identity, clients must
re-join per §3.5), degradations always revert at window end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.faults.plan import FaultKind, FaultSpec
from repro.simulation.churn import (
    fail_mix,
    fail_superpeer,
    recover_mix,
    recover_superpeer,
)


@dataclass(frozen=True)
class TimelineEntry:
    """One fault/recovery action, stamped with virtual time."""

    time_s: float
    action: str      # "injected", "detected", "recovered", "skipped", ...
    kind: str        # FaultKind value, or a domain action ("failover")
    target: str
    detail: str = ""

    @staticmethod
    def make(time_s: float, action: str, kind: str, target: str,
             detail: str = "") -> "TimelineEntry":
        # Round so float noise can never break timeline equality between
        # replays of the same plan.
        return TimelineEntry(round(time_s, 9), action, kind, target, detail)


class FaultInjector:
    """Applies faults from a plan against a testbed on an event loop.

    Parameters
    ----------
    bed:
        The live deployment to break.
    loop:
        The :class:`~repro.netsim.engine.EventLoop` driving the run —
        recovery and degradation sampling are scheduled on it.
    monitor:
        Optional :class:`~repro.core.blacklist.SPMonitor`; when given,
        degradation faults targeting an SP feed it periodic bad quality
        samples so blacklisting can trigger *during* the run.
    links:
        Optional name → :class:`~repro.netsim.link.Link` map; when a
        degradation's target names a link, its ``loss_rate`` /
        ``jitter_std`` are mutated for the window and restored after.
    sp_full_leave:
        Passed through to :func:`~repro.simulation.churn.fail_superpeer`.
        Chaos runs use ``False`` so mid-call failover state survives.
    """

    def __init__(self, bed, loop, monitor=None, links=None,
                 sp_full_leave: bool = True,
                 sample_interval_s: float = 1.0):
        self.bed = bed
        self.loop = loop
        self.monitor = monitor
        self.links = links or {}
        self.sp_full_leave = sp_full_leave
        self.sample_interval_s = sample_interval_s
        self.timeline: List[TimelineEntry] = []
        #: Failed components kept around so recovery can revive the
        #: same objects (identity and enrollment survive a restart).
        self.failed_mixes: Dict[str, object] = {}
        self.failed_sps: Dict[str, object] = {}
        #: client ids orphaned by each mix crash.
        self.orphans: Dict[str, List[str]] = {}
        self._degrade_handles: Dict[Tuple[str, str, float], object] = {}
        self._saved_link_params: Dict[str, Tuple[float, float]] = {}
        #: Hooks fired on fault application; chaos wires re-join and
        #: data-plane failover logic through these.
        self.on_mix_crash: List[Callable[[FaultSpec, List[str]], None]] = []
        self.on_sp_crash: List[Callable[[FaultSpec, List[str]], None]] = []
        self.on_recovery: List[Callable[[FaultSpec], None]] = []
        #: Graceful-degradation hook: called with ``(spec, True)`` when
        #: an OVERLOAD window opens and ``(spec, False)`` when it
        #: closes.  The scenario engine wires load shedding
        #: (:meth:`repro.simulation.live.LiveZone.set_overload`)
        #: through this.
        self.on_overload: List[Callable[[FaultSpec, bool], None]] = []
        #: Optional observability hook (see :class:`repro.obs
        #: .instrument.FaultHook`): timeline entries become trace
        #: events, injected→recovered windows become spans.
        self.obs = None

    # -- bookkeeping -----------------------------------------------------------

    def record(self, action: str, kind: str, target: str,
               detail: str = "") -> TimelineEntry:
        entry = TimelineEntry.make(self.loop.now, action, kind, target,
                                   detail)
        self.timeline.append(entry)
        if self.obs is not None:
            self.obs.fault_event(entry)
        return entry

    # -- fault application -----------------------------------------------------

    def apply(self, spec: FaultSpec) -> None:
        if spec.kind is FaultKind.MIX_CRASH:
            self._apply_mix_crash(spec)
        elif spec.kind is FaultKind.SP_CRASH:
            self._apply_sp_crash(spec)
        elif spec.kind is FaultKind.OVERLOAD:
            self._apply_overload(spec)
        elif spec.kind is FaultKind.DIRECTORY_STALL:
            self._apply_directory_stall(spec)
        else:
            self._apply_degradation(spec)

    def _apply_mix_crash(self, spec: FaultSpec) -> None:
        if spec.target not in self.bed.mixes:
            self.record("skipped", spec.kind.value, spec.target,
                        "already down")
            return
        mix = self.bed.mixes[spec.target]
        unclean = spec.detection_delay_s > 0
        orphans = fail_mix(self.bed, spec.target,
                           prune_directory=not unclean)
        self.failed_mixes[spec.target] = mix
        self.orphans[spec.target] = orphans
        self.record("injected", spec.kind.value, spec.target,
                    f"orphans={len(orphans)} unclean={unclean}")
        if unclean:
            def detect(mix=mix, spec=spec):
                if spec.target in mix.zone.mix_ids and \
                        spec.target not in self.bed.mixes:
                    mix.zone.remove_mix(spec.target)
                    self.record("detected", spec.kind.value, spec.target,
                                "directory pruned dead mix")
            self.loop.schedule(spec.detection_delay_s, detect)
        if spec.duration_s is not None:
            self.loop.schedule(spec.duration_s,
                               lambda: self.revert(spec))
        for hook in self.on_mix_crash:
            hook(spec, orphans)

    def _apply_sp_crash(self, spec: FaultSpec) -> None:
        if spec.target not in self.bed.superpeers:
            self.record("skipped", spec.kind.value, spec.target,
                        "already down")
            return
        sp = self.bed.superpeers[spec.target]
        affected = fail_superpeer(self.bed, spec.target,
                                  full_leave=self.sp_full_leave)
        self.failed_sps[spec.target] = sp
        self.record("injected", spec.kind.value, spec.target,
                    f"affected={len(affected)}")
        if spec.duration_s is not None:
            self.loop.schedule(spec.duration_s,
                               lambda: self.revert(spec))
        for hook in self.on_sp_crash:
            hook(spec, affected)

    def _apply_degradation(self, spec: FaultSpec) -> None:
        detail_parts = []
        link = self.links.get(spec.target)
        if link is not None:
            self._saved_link_params[spec.target] = (link.loss_rate,
                                                    link.jitter_std)
            if spec.kind in (FaultKind.LINK_DEGRADE, FaultKind.LOSS_BURST,
                             FaultKind.LINK_PARTITION):
                link.loss_rate = 0.999 if \
                    spec.kind is FaultKind.LINK_PARTITION else \
                    min(spec.loss, 0.999)
            if spec.kind in (FaultKind.LINK_DEGRADE,
                             FaultKind.JITTER_BURST):
                link.jitter_std = spec.jitter_ms / 1000.0
            detail_parts.append("link mutated")
        if self.monitor is not None:
            if spec.kind is FaultKind.LINK_PARTITION:
                def sample(spec=spec):
                    self.monitor.record_availability(spec.target, False)
            else:
                def sample(spec=spec):
                    self.monitor.record_quality(spec.target, spec.loss,
                                                spec.jitter_ms)
            handle = self.loop.schedule_periodic(
                self.sample_interval_s, sample, start_delay=0.0)
            self._degrade_handles[spec.key()] = handle
            detail_parts.append("monitor fed")
        self.record("injected", spec.kind.value, spec.target,
                    "; ".join(detail_parts) or "no-op target")
        self.loop.schedule(spec.duration_s, lambda: self.revert(spec))

    def _apply_overload(self, spec: FaultSpec) -> None:
        """Open a graceful-degradation window: consumers registered on
        :attr:`on_overload` engage shedding/backpressure; the window
        always closes itself after ``duration_s``."""
        self.record("injected", spec.kind.value, spec.target,
                    f"capacity={spec.capacity_fraction:g}")
        for hook in self.on_overload:
            hook(spec, True)
        self.loop.schedule(spec.duration_s, lambda: self.revert(spec))

    def _apply_directory_stall(self, spec: FaultSpec) -> None:
        """Stall a zone directory: joins/re-joins fail with
        :class:`~repro.core.directory.DirectoryStalledError` until the
        window ends, so clients back off via their retry policies."""
        directory = self.bed.directories.get(spec.target)
        if directory is None:
            self.record("skipped", spec.kind.value, spec.target,
                        "no such directory")
            return
        directory.stalled = True
        self.record("injected", spec.kind.value, spec.target,
                    "directory unresponsive")
        self.loop.schedule(spec.duration_s, lambda: self.revert(spec))

    # -- recovery --------------------------------------------------------------

    def revert(self, spec: FaultSpec) -> None:
        """Undo a fault: revive the crashed component or restore the
        degraded link and stop feeding the monitor."""
        if spec.kind is FaultKind.MIX_CRASH:
            mix = self.failed_mixes.pop(spec.target, None)
            if mix is None or spec.target in self.bed.mixes:
                return
            recover_mix(self.bed, mix)
            self.record("recovered", spec.kind.value, spec.target)
        elif spec.kind is FaultKind.SP_CRASH:
            sp = self.failed_sps.pop(spec.target, None)
            if sp is None or spec.target in self.bed.superpeers:
                return
            recover_superpeer(self.bed, sp)
            self.record("recovered", spec.kind.value, spec.target)
        elif spec.kind is FaultKind.OVERLOAD:
            for hook in self.on_overload:
                hook(spec, False)
            self.record("recovered", spec.kind.value, spec.target)
        elif spec.kind is FaultKind.DIRECTORY_STALL:
            directory = self.bed.directories.get(spec.target)
            if directory is not None:
                directory.stalled = False
            self.record("recovered", spec.kind.value, spec.target)
        else:
            handle = self._degrade_handles.pop(spec.key(), None)
            if handle is not None:
                handle.cancel()
            saved = self._saved_link_params.pop(spec.target, None)
            link = self.links.get(spec.target)
            if saved is not None and link is not None:
                link.loss_rate, link.jitter_std = saved
            self.record("recovered", spec.kind.value, spec.target)
        for hook in self.on_recovery:
            hook(spec)

    def teardown(self) -> None:
        """Cancel outstanding degradation samplers (pairs with
        :meth:`EventLoop.cancel_all` at the end of a run)."""
        for handle in self._degrade_handles.values():
            handle.cancel()
        self._degrade_handles.clear()
