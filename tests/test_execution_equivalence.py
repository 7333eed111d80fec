"""The observational-equivalence contract between execution engines.

DESIGN.md §9: a seeded run produces *byte-identical* adversary
observations, metrics snapshots, and JSONL traces whether its wire
image is carried per cell (the ``event`` reference oracle) or as one
run table per round (the ``batch-v2`` plane, DESIGN.md §13).
The engines may differ in anything an adversary cannot see — events
processed, objects allocated, wall-clock speed — and nothing else.

This file pins that contract:

* an exact event vs batch-v2 comparison of all three output surfaces
  for the live scenario (plus a pinned digest, so a change that breaks
  all engines in lockstep still trips a review);
* testbed and chaos scenarios compared across engines;
* a hypothesis sweep over random seeds and zone shapes comparing the
  E9 constant-rate census and the wiretap size/time sequences.
"""

import hashlib
import json

from hypothesis import given, settings, strategies as st

from repro.api import SimConfig, Simulation
from repro.faults.plan import FaultKind, FaultSpec
from repro.scenario import (
    Adversary,
    Scenario,
    SurvivalCriteria,
    Workload,
    ZoneShape,
    run_scenario,
)

#: Pinned digest of the seed-20150817 adversary observation stream
#: (shared by every engine).  If this changes, the wire image of the
#: default live scenario changed — that is a protocol change, not a
#: refactor, and needs a deliberate re-pin.
PINNED_WIRETAP_SHA256 = \
    "85931d8b808ca071e5c95d8b36a93e1b073525136de3889f6fd40b480e09ed4f"


def _live_run(execution, trace_path=None, **cfg):
    defaults = dict(seed=20150817, n_clients=8, n_channels=4,
                    n_sps=2, k=2, call_pairs=2, wiretap=True)
    defaults.update(cfg)
    config = SimConfig(execution=execution,
                       trace_path=str(trace_path) if trace_path
                       else None, **defaults)
    return Simulation(config).run(rounds=25)


def _wiretap_digest(report):
    stream = json.dumps(report.detail["wiretap"]["observations"],
                        separators=(",", ":")).encode()
    return hashlib.sha256(stream).hexdigest()


class TestLiveEquivalence:
    def test_all_three_surfaces_byte_identical(self, tmp_path):
        event = _live_run("event", trace_path=tmp_path / "event.jsonl")
        v2 = _live_run("batch-v2", trace_path=tmp_path / "v2.jsonl")
        # 1. The adversary's view.
        assert event.detail["wiretap"]["observations"] == \
            v2.detail["wiretap"]["observations"]
        # 2. The metrics snapshot, down to rendered bytes.
        assert event.metrics == v2.metrics
        assert event.to_json() == v2.to_json()
        assert event.to_prometheus() == v2.to_prometheus()
        # 3. The JSONL trace files.
        assert (tmp_path / "event.jsonl").read_bytes() == \
            (tmp_path / "v2.jsonl").read_bytes()
        # The engines really are different under the hood: batch-v2
        # schedules O(rounds) wire events, event O(cells).
        assert v2.detail["wiretap"]["wire_events_processed"] < \
            event.detail["wiretap"]["wire_events_processed"]
        assert event.detail["wiretap"]["cells_carried"] == \
            v2.detail["wiretap"]["cells_carried"] > 0

    def test_pinned_wiretap_digest(self):
        event = _live_run("event")
        v2 = _live_run("batch-v2")
        assert _wiretap_digest(event) == _wiretap_digest(v2) == \
            PINNED_WIRETAP_SHA256

    def test_equivalence_survives_mid_run_sp_failure(self):
        def run(execution):
            from repro.simulation.live import LiveZone
            zone = LiveZone(n_clients=8, n_channels=4, n_sps=2,
                            seed=99, execution=execution)
            fabric = zone.attach_wire()
            zone.start_call("client-0", "client-1")
            for r in range(30):
                if r == 12:
                    zone.fail_superpeer("zone-EU/sp-1")
                zone.say("client-0", b"after-failover")
                zone.step()
            fabric.finalize()
            return [(o.time, o.size, o.src, o.dst)
                    for o in fabric.observer.observations], \
                zone.received_by("client-1")

        obs_event, voice_event = run("event")
        obs_v2, voice_v2 = run("batch-v2")
        assert obs_event == obs_v2
        assert voice_event == voice_v2


class TestProfilerEquivalence:
    """DESIGN.md §11: profiling is a host-time side channel.  A seeded
    run with the phase profiler attached produces byte-identical
    adversary observations, metrics, traces, and determinism keys to
    the same run with profiling off — on both engines."""

    def test_profiled_run_byte_identical_on_both_engines(self,
                                                         tmp_path):
        for execution in ("event", "batch-v2"):
            plain = _live_run(execution,
                              trace_path=tmp_path /
                              f"{execution}-off.jsonl")
            profiled = _live_run(execution,
                                 trace_path=tmp_path /
                                 f"{execution}-on.jsonl",
                                 profile=True)
            # The profiler really ran...
            assert profiled.perf is not None
            assert profiled.perf["rounds_profiled"] == 25
            assert profiled.perf["phases"]["chaff"]["cells"] > 0
            assert plain.perf is None
            # ...and every determinism surface is byte-identical.
            assert profiled.detail["wiretap"]["observations"] == \
                plain.detail["wiretap"]["observations"]
            assert profiled.metrics == plain.metrics
            assert profiled.to_prometheus() == plain.to_prometheus()
            assert (tmp_path / f"{execution}-on.jsonl").read_bytes() \
                == (tmp_path / f"{execution}-off.jsonl").read_bytes()
            assert _wiretap_digest(profiled) == PINNED_WIRETAP_SHA256

    def test_profiled_scenario_determinism_key_unchanged(self):
        scenario = TestScenarioEquivalence.DEGRADATION_SCENARIO
        for execution in ("event", "batch-v2"):
            plain = run_scenario(scenario, execution=execution)
            profiled = run_scenario(scenario, execution=execution,
                                    profile=True)
            assert profiled.perf is not None
            assert profiled.perf["phases"]
            assert profiled.determinism_key == plain.determinism_key
            assert profiled.metrics == plain.metrics
            assert profiled.timeline == plain.timeline
            # The artifact carries perf beside (not inside) the
            # determinism surface.
            artifact = profiled.to_artifact_dict()
            assert artifact["perf"] is profiled.perf
            assert "perf" not in plain.to_artifact_dict()


class TestTestbedAndChaosEquivalence:
    def test_testbed_metrics_identical(self):
        def run(execution):
            config = SimConfig(scenario="testbed", seed=5,
                               n_clients=6, call_pairs=2,
                               execution=execution)
            return Simulation(config).run(rounds=20)

        event, v2 = run("event"), run("batch-v2")
        assert event.metrics == v2.metrics
        assert event.detail["frames_delivered"] == \
            v2.detail["frames_delivered"] > 0

    def test_chaos_determinism_key_identical(self):
        def run(execution):
            config = SimConfig(scenario="chaos", seed=20150817,
                               n_clients=12, n_channels=6,
                               execution=execution)
            return Simulation(config).run(until=6.0)

        event, v2 = run("event"), run("batch-v2")
        assert event.detail.determinism_key() == \
            v2.detail.determinism_key()
        assert event.metrics == v2.metrics


class TestScenarioEquivalence:
    """The §10 contract: a declared scenario's determinism key — which
    folds in the wiretap observation stream, the fault timeline, and
    the metrics snapshot — is identical across engines, including
    under every windowed degradation kind."""

    #: All three link-degradation kinds active at overlapping windows,
    #: watched by a passive global wiretap.
    DEGRADATION_SCENARIO = Scenario(
        name="equivalence-degradations",
        description="loss + jitter + degrade windows under a wiretap",
        seed=20150817,
        horizon_s=3.0,
        round_interval_s=0.05,
        zone=ZoneShape(n_clients=12, n_channels=6, n_sps=2, k=3,
                       n_direct_clients=2),
        workload=Workload(kind="constant", call_pairs=1,
                          call_start_s=0.4),
        faults=(
            FaultSpec(kind=FaultKind.LOSS_BURST, at_s=0.8,
                      target="zone-live/sp-0", duration_s=1.5,
                      loss=0.25),
            FaultSpec(kind=FaultKind.JITTER_BURST, at_s=1.0,
                      target="zone-live/sp-1", duration_s=1.5,
                      jitter_ms=70.0),
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at_s=1.2,
                      target="zone-live/sp-0", duration_s=1.0,
                      loss=0.10, jitter_ms=30.0),
        ),
        adversary=Adversary(kind="wiretap"),
        criteria=SurvivalCriteria(min_call_survival_rate=1.0,
                                  min_call_legs_established=2),
    )

    def test_degradation_faults_equivalent_across_engines(self):
        event = run_scenario(self.DEGRADATION_SCENARIO,
                             execution="event")
        v2 = run_scenario(self.DEGRADATION_SCENARIO,
                          execution="batch-v2")
        assert v2.determinism_key == event.determinism_key
        assert v2.metrics == event.metrics
        # The fault timeline replays identically: same onsets, same
        # reverts, same virtual times.
        assert v2.timeline == event.timeline
        # The adversary's view is byte-identical, even while loss,
        # jitter, and degradation windows churn link state.
        assert v2.detail.wiretap["observations"] == \
            event.detail.wiretap["observations"]
        assert v2.passed
        assert len(event.detail.wiretap["observations"]) > 0
        actions = [entry[1] for entry in event.timeline]
        assert actions.count("injected") == 3
        assert actions.count("recovered") == 3
        # The sustained loss/degrade windows on sp-0 trip the monitor's
        # blacklist, and the live call leg fails over and survives.
        assert "blacklisted" in actions and "failover" in actions
        assert event.passed
        # The engines still differ where they are allowed to: the
        # batch-v2 plane schedules O(rounds) wire events, not
        # O(cells).
        assert v2.detail.wiretap["wire_events_processed"] < \
            event.detail.wiretap["wire_events_processed"]

    def test_scenario_key_stable_across_replays(self):
        first = run_scenario(self.DEGRADATION_SCENARIO)
        second = run_scenario(self.DEGRADATION_SCENARIO)
        assert first.determinism_key == second.determinism_key


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000),
       n_channels=st.integers(2, 6),
       n_sps=st.integers(1, 3),
       call_pairs=st.integers(0, 2))
def test_equivalence_property_random_shapes(seed, n_channels, n_sps,
                                            call_pairs):
    """Random seeds and zone shapes: the E9 constant-rate census rows
    and the wiretap (time, size) sequences match across engines."""
    n_sps = min(n_sps, n_channels)
    n_clients = max(6, 2 * call_pairs)
    rounds = 15

    def run(execution):
        config = SimConfig(seed=seed, n_clients=n_clients,
                           n_channels=n_channels, n_sps=n_sps,
                           call_pairs=call_pairs, trace_buffer=0,
                           wiretap=True, execution=execution)
        return Simulation(config).run(rounds=rounds)

    event, vector = run("event"), run("batch-v2")

    # The E9 report row: downstream cells per round, by kind.
    def census(report):
        return {s["labels"]["kind"]: s["value"]
                for s in report.metrics["herd_mix_cells_total"]
                ["series"]}

    assert census(event) == census(vector)
    assert sum(census(event).values()) == n_channels * rounds

    # The adversary's size/time sequences.
    assert event.detail["wiretap"]["observations"] == \
        vector.detail["wiretap"]["observations"]
