"""The shard/merge protocol of the vectorized wire plane.

DESIGN.md §13: under ``batch-v2`` with ``shards > 1`` the per-(link,
round) aggregate wire images become :class:`ShardSegment` records,
routed to worker processes by a :class:`ShardPlan` that is stable
across interpreters, and merged back in deterministic ``(round_index,
slot)`` order — so *any* completion order of the shard workers yields
the same tap state, the same stats, and the same determinism key.

Pinned here:

* plan stability and the shard-crossing pickle contract (what HL104
  enforces statically, checked dynamically);
* a hypothesis property: every partition of the segments into shards
  and every interleaving of the shard results merges to identical
  tap observations, link totals and ``record_round_runs`` calls;
* a real-process :class:`ShardRunner` smoke test;
* shards=1 vs shards=4 determinism-key equivalence over the full
  scenario corpus (the §10 CI contract, sharded).
"""

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sharding import is_shard_crossing
from repro.netsim.observer import LinkObserver, Observation
from repro.netsim.shards import (
    SegmentResult,
    ShardChunk,
    ShardPlan,
    ShardResult,
    ShardRunner,
    ShardSegment,
    merge_results,
    process_chunk,
)
from repro.netsim.taps import TallyTap

CORPUS = sorted(Path("scenarios").glob("*.toml"))


class CallRecorder:
    """A tap that keeps every ``record_round_runs`` call verbatim."""

    def __init__(self):
        self.calls = []

    def record(self, time, cell, src, dst):
        raise AssertionError("round tables must not fall back per cell")

    def record_round_runs(self, time, keys, sizes, counts):
        self.calls.append((time, list(keys), list(sizes), list(counts)))


def _segment(round_index, slot, src="a", dst="b", sizes=(188,),
             counts=(3,)):
    return ShardSegment(round_index=round_index, slot=slot,
                        time=round_index * 0.02, src=src, dst=dst,
                        sizes=tuple(sizes), counts=tuple(counts))


class TestShardPlan:
    def test_single_shard_is_identity(self):
        plan = ShardPlan(1)
        assert plan.shard_of("a", "b") == 0
        assert plan.shard_of("x", "y") == 0

    def test_stable_across_instances(self):
        # crc32-based: no per-process hash salt, so a worker pool and
        # the parent agree on routing (unlike builtin hash()).
        a, b = ShardPlan(4), ShardPlan(4)
        for src, dst in [("sp-0", "mix"), ("mix", "sp-7"),
                         ("zone-EU/sp-1", "mix-0")]:
            assert a.shard_of(src, dst) == b.shard_of(src, dst)
            assert 0 <= a.shard_of(src, dst) < 4

    def test_directional(self):
        plan = ShardPlan(16)
        pairs = [(f"sp-{i}", "mix") for i in range(64)]
        used = {plan.shard_of(s, d) for s, d in pairs}
        assert len(used) > 4  # spreads, not collapses


class TestShardCrossingPickle:
    """Every @shard_crossing type must survive a round-trip through
    pickle with value equality — the dynamic half of HL104."""

    CASES = [
        _segment(0, 0),
        ShardChunk(shard_id=1, segments=(_segment(0, 0),
                                         _segment(1, 3))),
        SegmentResult(segment=_segment(2, 5), cells=3, bytes=564),
        ShardResult(shard_id=0,
                    segments=(SegmentResult(segment=_segment(0, 0),
                                            cells=3, bytes=564),),
                    link_stats=((("a", "b"), (3, 564)),),
                    cells=3, bytes=564),
        Observation(time=0.02, src="a", dst="b", size=188),
    ]

    @pytest.mark.parametrize("value", CASES,
                             ids=lambda v: type(v).__name__)
    def test_round_trip(self, value):
        assert is_shard_crossing(type(value))
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value


class TestProcessChunk:
    def test_pure_sums(self):
        chunk = ShardChunk(shard_id=2, segments=(
            _segment(0, 0, sizes=(188, 100), counts=(2, 1)),
            _segment(1, 4, src="c", dst="d", sizes=(50,),
                     counts=(4,))))
        result = process_chunk(chunk)
        assert result.shard_id == 2
        assert result.cells == 2 + 1 + 4
        assert result.bytes == 188 * 2 + 100 + 50 * 4
        assert dict(result.link_stats) == {
            ("a", "b"): (3, 476), ("c", "d"): (4, 200)}


@st.composite
def _segment_sets(draw):
    n_links = draw(st.integers(1, 4))
    links = [(f"s{i}", f"d{i}") for i in range(n_links)]
    n_rounds = draw(st.integers(1, 4))
    segments = []
    slot = 0
    for r in range(n_rounds):
        for src, dst in draw(st.permutations(links)):
            runs = draw(st.integers(1, 3))
            sizes = tuple(draw(st.integers(1, 400))
                          for _ in range(runs))
            counts = tuple(draw(st.integers(1, 5))
                           for _ in range(runs))
            segments.append(ShardSegment(
                round_index=r, slot=slot, time=r * 0.02, src=src,
                dst=dst, sizes=sizes, counts=counts))
            slot += 1
    return segments


class TestMergeDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(segments=_segment_sets(), n_shards=st.integers(1, 4),
           order=st.randoms(use_true_random=False))
    def test_any_interleaving_merges_identically(self, segments,
                                                 n_shards, order):
        """Partition the segments by an arbitrary plan, process each
        shard, shuffle the result order, and merge: observations,
        totals and the taps' ``record_round_runs`` calls must equal
        the canonical single-shard merge — one link-contiguous table
        per round, rows in emission-slot order."""
        plan = ShardPlan(n_shards)
        buckets = {}
        for seg in segments:
            buckets.setdefault(plan.shard_of(seg.src, seg.dst),
                               []).append(seg)
        results = [process_chunk(ShardChunk(shard_id=sid,
                                            segments=tuple(segs)))
                   for sid, segs in buckets.items()]
        order.shuffle(results)

        tap = LinkObserver()
        calls = CallRecorder()
        merged = merge_results(results, taps=(tap, calls))

        ref_tap = LinkObserver()
        ref_calls = CallRecorder()
        reference = merge_results(
            [process_chunk(ShardChunk(shard_id=0,
                                      segments=tuple(segments)))],
            taps=(ref_tap, ref_calls))

        assert tap.observations == ref_tap.observations
        assert calls.calls == ref_calls.calls
        # The table the unsharded plane offers at flush time.
        rounds = sorted({s.round_index for s in segments})
        assert ref_calls.calls == [
            (r * 0.02,
             [(s.src, s.dst) for s in segments if s.round_index == r
              for _ in s.sizes],
             [z for s in segments if s.round_index == r
              for z in s.sizes],
             [c for s in segments if s.round_index == r
              for c in s.counts])
            for r in rounds]
        assert merged["cells"] == reference["cells"] == \
            sum(sum(s.counts) for s in segments)
        assert merged["bytes"] == reference["bytes"]
        assert merged["link_stats"] == reference["link_stats"]

    def test_merge_replays_in_slot_order(self):
        late = _segment(1, 3, src="x", dst="y", sizes=(10,),
                        counts=(1,))
        early = _segment(0, 1, src="a", dst="b", sizes=(20,),
                         counts=(2,))
        tap = TallyTap()
        observer = LinkObserver()
        merge_results([
            process_chunk(ShardChunk(shard_id=0, segments=(late,))),
            process_chunk(ShardChunk(shard_id=1, segments=(early,))),
        ], taps=(observer, tap))
        assert [(o.time, o.size) for o in observer.observations] == \
            [(0.0, 20), (0.0, 20), (0.02, 10)]
        assert tap.cells == 3 and tap.bytes == 50


    def test_fabric_tap_calls_identical_at_shards_1_and_4(self):
        from repro.simulation.roundsync import WireFabric

        def run(shards):
            fabric = WireFabric(seed=1, execution="batch-v2",
                                shards=shards, shard_processes=False)
            calls = CallRecorder()
            fabric.add_tap(calls)
            for r in range(3):
                for i in range(5):
                    fabric.emit(f"c{i}", f"sp{i % 2}", bytes(100 + i))
                fabric.emit_repeated("sp0", "mix", bytes(188), 3 + r)
                fabric.emit_repeated("mix", "sp1", bytes(188), 2)
                fabric.flush_round(r)
            fabric.finalize()
            return calls.calls

        one = run(1)
        assert one == run(4)
        assert len(one) == 3 and sum(one[2][3]) == 5 + 5 + 2


class TestShardRunnerProcesses:
    def test_real_worker_pool_smoke(self):
        chunks = [ShardChunk(shard_id=i, segments=(
            _segment(0, i, src=f"s{i}", dst="mix",
                     sizes=(188,), counts=(10,)),))
            for i in range(4)]
        with ShardRunner(4, processes=True) as runner:
            results = runner.run(chunks)
        assert sorted(r.shard_id for r in results) == [0, 1, 2, 3]
        merged = merge_results(results)
        assert merged["cells"] == 40
        assert merged["segments"] == 4

    def test_inline_matches_processes(self):
        chunks = [ShardChunk(shard_id=i, segments=tuple(
            _segment(r, i * 8 + r, src=f"s{i}", dst="mix",
                     sizes=(100 + r,), counts=(r + 1,))
            for r in range(3)))
            for i in range(3)]
        with ShardRunner(3, processes=False) as inline_runner:
            inline = inline_runner.run(chunks)
        with ShardRunner(3, processes=True) as pool_runner:
            pooled = pool_runner.run(chunks)
        key = lambda r: r.shard_id  # noqa: E731
        assert sorted(inline, key=key) == sorted(pooled, key=key)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_sharded_determinism_key(path):
    """Satellite: shards=1 and shards=4 produce the same determinism
    key (and verdict) for every scenario in the committed corpus."""
    from repro.scenario import run_scenario
    from repro.scenario.loader import load_scenario

    scenario = load_scenario(path)
    one = run_scenario(scenario, execution="batch-v2", shards=1)
    four = run_scenario(scenario, execution="batch-v2", shards=4)
    assert one.determinism_key == four.determinism_key
    assert one.passed == four.passed
    assert one.shards == 1 and four.shards == 4
