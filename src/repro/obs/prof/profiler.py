"""Phase-level profiling of the round engines (herdprof).

The scale items on the roadmap (bulk crypto, leaner round engines)
are measurement-first: before optimizing the hot path we need to know,
per round phase, where the Python time goes.  :class:`PhaseProfiler`
buckets wall time and call/cell counts by *engine phase*:

========================  ==================================================
phase                     what it covers
========================  ==================================================
``schedule``              event-loop / round-scheduler dispatch overhead
``chaff``                 client emission: payload + constant-rate chaff fill
``mix-forward``           SP combining + mix call-manager processing
``deliver``               downstream broadcast and wire transmission
``adversary-observe``     link-tap observer processing
``metrics-flush``         herdscope snapshot / export rendering
========================  ==================================================

Attachment follows the same duck-typed optional-hook protocol
herdscope uses (:mod:`repro.obs.instrument`): instrumented components
carry a ``prof`` attribute that defaults to ``None`` and test it
before every hook call, so a detached run pays one attribute test per
hook point and the protocol modules never import this package.

Timing uses a *phase stack* with self-time semantics: ``begin`` pushes
a phase, ``end`` pops it and attributes the elapsed wall time to the
popped phase **exclusively** — time spent in a nested phase is
subtracted from its parent, so the per-phase totals sum to the
profiled wall time without double counting.

Determinism: the profiler reads the host clock (through the sanctioned
:mod:`repro.obs.prof.perfclock` module only) but its output lives in a
separate side channel (``RunReport.perf`` / bench JSON).  It never
writes to the metrics registry, the trace bus, or anything folded into
a ``determinism_key``, and seeded code never branches on it — so a
seeded run with profiling enabled is byte-identical to the same run
with profiling off (pinned in ``tests/test_execution_equivalence.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.prof.perfclock import perf_now

#: The engine-phase taxonomy (DESIGN.md §11).  Profilers accept any
#: phase string, but the engines only emit these six.
PHASES: Tuple[str, ...] = ("schedule", "chaff", "mix-forward",
                           "deliver", "adversary-observe",
                           "metrics-flush")


class PhaseStats:
    """Accumulated totals for one phase."""

    __slots__ = ("wall_s", "calls", "cells")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.calls = 0
        self.cells = 0

    def as_dict(self) -> Dict[str, float]:
        return {"wall_s": self.wall_s, "calls": self.calls,
                "cells": self.cells}


class PhaseProfiler:
    """Per-phase wall-time and call/cell counters for one run.

    Parameters
    ----------
    clock:
        Zero-argument host-time callable; defaults to
        :func:`~repro.obs.prof.perfclock.perf_now`.  Injectable so
        tests can drive the profiler with a deterministic fake clock.
    """

    def __init__(self, clock: Callable[[], float] = perf_now):
        self._clock = clock
        self._stats: Dict[str, PhaseStats] = {}
        #: The open-phase stack: (phase, started_at, child_wall_s).
        self._stack: List[List] = []
        self.rounds_profiled = 0
        self._round_started_at: Optional[float] = None
        self.round_wall_s = 0.0

    # -- the hot-path hooks ----------------------------------------------------

    def begin(self, phase: str) -> None:
        """Open ``phase``; wall time accrues to it until :meth:`end`
        pops it (minus any nested phases opened in between)."""
        self._stack.append([phase, self._clock(), 0.0])

    def end(self, cells: int = 0) -> None:
        """Close the innermost open phase, attributing its self-time
        (elapsed minus nested-phase time) plus optional cell count."""
        now = self._clock()
        phase, started_at, child_wall = self._stack.pop()
        elapsed = now - started_at
        stats = self._stats.get(phase)
        if stats is None:
            stats = self._stats[phase] = PhaseStats()
        stats.wall_s += elapsed - child_wall
        stats.calls += 1
        stats.cells += cells
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, phase: str, calls: int = 0, cells: int = 0) -> None:
        """Bump counters without timing (e.g. one per loop event)."""
        stats = self._stats.get(phase)
        if stats is None:
            stats = self._stats[phase] = PhaseStats()
        stats.calls += calls
        stats.cells += cells

    def round_started(self, round_index: int) -> None:
        self._round_started_at = self._clock()

    def round_finished(self, round_index: int) -> None:
        started = self._round_started_at
        if started is not None:
            self.round_wall_s += self._clock() - started
            self._round_started_at = None
        self.rounds_profiled += 1

    # -- attachment (the duck-typed `prof` protocol) ---------------------------

    def attach_loop(self, loop) -> None:
        """Instrument an :class:`~repro.netsim.engine.EventLoop`
        (per-event ``schedule`` counters)."""
        loop.prof = self

    def attach_scheduler(self, scheduler) -> None:
        """Instrument a :class:`~repro.netsim.rounds.RoundScheduler`
        (round dispatch under the ``schedule`` phase)."""
        scheduler.prof = self

    def attach_link(self, link) -> None:
        """Instrument one link's observer fan-out
        (``adversary-observe``)."""
        link.prof = self

    def attach_fabric(self, fabric) -> None:
        """Instrument a :class:`~repro.simulation.roundsync.WireFabric`
        end to end: the fabric itself (``deliver``), its loop and
        scheduler, and every link — including ones created later."""
        fabric.set_profiler(self)

    def attach_zone(self, zone) -> None:
        """Instrument a :class:`~repro.simulation.live.LiveZone`'s
        round engine (``chaff`` / ``mix-forward`` / ``deliver``), plus
        its wire fabric when one is attached."""
        zone.prof = self
        if getattr(zone, "wire", None) is not None:
            zone.wire.set_profiler(self)

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-phase totals, phase-name sorted (known phases first, in
        taxonomy order, then any ad-hoc phases alphabetically)."""
        order = {phase: i for i, phase in enumerate(PHASES)}
        keys = sorted(self._stats,
                      key=lambda p: (order.get(p, len(PHASES)), p))
        return {k: self._stats[k].as_dict() for k in keys}

    def report(self) -> Dict[str, object]:
        """The ``perf`` section a :class:`~repro.api.RunReport` or
        bench entry carries: phase totals plus round accounting."""
        phases = self.snapshot()
        return {
            "phases": phases,
            "rounds_profiled": self.rounds_profiled,
            "round_wall_s": self.round_wall_s,
            "profiled_wall_s": sum(p["wall_s"]
                                   for p in phases.values()),
        }

    def table(self) -> str:
        """A human-readable per-phase self-time table."""
        phases = self.snapshot()
        total = sum(p["wall_s"] for p in phases.values()) or 1.0
        lines = [f"{'phase':18s} {'wall_s':>10s} {'%':>6s} "
                 f"{'calls':>10s} {'cells':>12s}"]
        for name, p in phases.items():
            lines.append(
                f"{name:18s} {p['wall_s']:10.4f} "
                f"{100.0 * p['wall_s'] / total:5.1f}% "
                f"{int(p['calls']):10d} {int(p['cells']):12d}")
        lines.append(f"{'total':18s} {total:10.4f} {'100.0':>5s}% "
                     f"(rounds={self.rounds_profiled}, "
                     f"round_wall_s={self.round_wall_s:.4f})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"PhaseProfiler({len(self._stats)} phases, "
                f"{self.rounds_profiled} rounds)")
