"""Zone sharding for the vectorized wire plane: fan out, merge back.

The ``batch-v2`` plane's round work is a stream of *segments* — one
per (directed link, round), carrying the aggregate run-length wire
image.  Segments for different links are independent (Herd's fabric
links are ideal: zero delay, no loss, no shared rng), so they can be
processed by worker processes in parallel.  What must NOT depend on
the workers is the *result*: adversary observations, metrics, and
traces have to come out byte-identical to the single-process engines
(the observational-equivalence contract, DESIGN.md §9/§13).

The design that guarantees this:

* every segment is stamped at emission time with a **global slot
  key** ``(round_index, slot)`` — the position the segment's cells
  occupy in the canonical single-engine emission order;
* links are partitioned across shards by a deterministic stable hash
  (:meth:`ShardPlan.shard_of`), so the same link always lands on the
  same shard regardless of process scheduling;
* workers are pure functions of their input chunks
  (:func:`process_chunk`): they expand aggregate accounting
  (cells/bytes per segment and per link) and never touch shared
  state;
* the merge step (:func:`merge_results`) **sorts segments by slot
  key** and offers each round to the taps as one run table (the
  ``record_round_runs`` call the unsharded plane makes), so any
  interleaving of shard results — process pool scheduling,
  out-of-order completion, even a shuffled result list — produces
  the same tap calls and the same determinism key (pinned by a
  hypothesis property in ``tests/test_shards.py``).

Everything that crosses the process boundary is a frozen dataclass of
picklable fields, declared :func:`~repro.core.sharding.shard_crossing`
so herdlint HL104 statically rejects unpicklable additions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.core.sharding import shard_crossing


@shard_crossing
@dataclass(frozen=True)
class ShardSegment:
    """One (directed link, round) aggregate wire image, stamped with
    its canonical position in the global emission order.

    ``sizes`` / ``counts`` are parallel run-length arrays: the segment
    carries ``counts[i]`` wire-identical cells of ``sizes[i]`` bytes
    per run, runs in emission order.  ``time`` is the round tick in
    virtual seconds (the fabric's links are zero-delay, so every cell
    of the round is observed at the tick)."""

    round_index: int
    slot: int
    time: float
    src: str
    dst: str
    sizes: Tuple[int, ...]
    counts: Tuple[int, ...]


@shard_crossing
@dataclass(frozen=True)
class ShardChunk:
    """The fan-out unit: a run of segments routed to one shard."""

    shard_id: int
    segments: Tuple[ShardSegment, ...]


@shard_crossing
@dataclass(frozen=True)
class SegmentResult:
    """One processed segment: the original aggregate image plus the
    worker-computed totals (the per-(SP, round) arithmetic)."""

    segment: ShardSegment
    cells: int
    bytes: int


@shard_crossing
@dataclass(frozen=True)
class ShardResult:
    """Everything one chunk produced: per-segment results plus the
    shard's per-link stat deltas ``{(src, dst): (cells, bytes)}``."""

    shard_id: int
    segments: Tuple[SegmentResult, ...]
    link_stats: Tuple[Tuple[Tuple[str, str], Tuple[int, int]], ...]
    cells: int
    bytes: int


def process_chunk(chunk: ShardChunk) -> ShardResult:
    """The shard worker: a pure function from chunk to result.

    Computes each segment's aggregate totals (one multiply-add per
    run — the vectorized accounting) and the per-link stat deltas.
    Runs identically inline or in a worker process; everything it
    returns is deterministic in the chunk alone."""
    seg_results: List[SegmentResult] = []
    link_stats: Dict[Tuple[str, str], List[int]] = {}
    total_cells = 0
    total_bytes = 0
    for segment in chunk.segments:
        cells = 0
        n_bytes = 0
        for size, count in zip(segment.sizes, segment.counts):
            cells += count
            n_bytes += size * count
        seg_results.append(SegmentResult(segment=segment, cells=cells,
                                         bytes=n_bytes))
        stats = link_stats.setdefault((segment.src, segment.dst),
                                      [0, 0])
        stats[0] += cells
        stats[1] += n_bytes
        total_cells += cells
        total_bytes += n_bytes
    return ShardResult(
        shard_id=chunk.shard_id,
        segments=tuple(seg_results),
        link_stats=tuple(sorted(
            (key, (stats[0], stats[1]))
            for key, stats in link_stats.items())),
        cells=total_cells,
        bytes=total_bytes,
    )


class ShardPlan:
    """Deterministic link → shard partition.

    A stable content hash of the directed link name (crc32, identical
    across processes and platforms — unlike ``hash()``, which is
    salted) keeps the assignment a pure function of the topology, so
    fan-out is reproducible run to run and machine to machine."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards

    def shard_of(self, src: str, dst: str) -> int:
        if self.n_shards == 1:
            return 0
        return crc32(f"{src}|{dst}".encode()) % self.n_shards


class ShardRunner:
    """Executes chunks, inline or on a worker-process pool.

    ``processes=None`` (the default) picks processes when
    ``n_shards > 1`` and the platform can fork/spawn, inline
    otherwise; pass ``processes=False`` to force inline execution
    (same code path, no pool — what most tests use) or
    ``processes=True`` to require a real pool.  Results are returned
    in completion order; only :func:`merge_results` (which sorts)
    may interpret them."""

    def __init__(self, n_shards: int,
                 processes: Optional[bool] = None):
        self.plan = ShardPlan(n_shards)
        self.n_shards = n_shards
        if processes is None:
            processes = n_shards > 1
        self._want_processes = bool(processes)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                context = multiprocessing.get_context("spawn")
            self._pool = context.Pool(self.n_shards)
        return self._pool

    def run(self, chunks: Sequence[ShardChunk]) -> List[ShardResult]:
        """Process chunks; completion-ordered results."""
        if not chunks:
            return []
        if not self._want_processes or len(chunks) == 1:
            return [process_chunk(chunk) for chunk in chunks]
        pool = self._ensure_pool()
        return list(pool.imap_unordered(process_chunk, chunks))

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "ShardRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def merge_results(results: Iterable[ShardResult], *,
                  taps: Sequence = ()) -> Dict[str, object]:
    """The deterministic merge step.

    Orders every segment by its global slot key ``(round_index,
    slot)`` — which is a total order by construction, independent of
    shard assignment and arrival interleaving — then offers each
    round to ``taps`` as one link-contiguous run table through
    :func:`repro.netsim.taps.offer_round_runs`: the same call, with
    the same rows, that the unsharded plane makes at flush time.
    Returns the merged aggregate accounting::

        {"cells": int, "bytes": int, "segments": int,
         "link_stats": {(src, dst): (cells, bytes)}}

    Any permutation of ``results`` yields byte-identical tap calls
    and accounting (the shard-merge determinism contract; pinned by
    hypothesis in ``tests/test_shards.py``).
    """
    from repro.netsim.taps import offer_round_runs

    ordered: List[SegmentResult] = []
    link_stats: Dict[Tuple[str, str], List[int]] = {}
    total_cells = 0
    total_bytes = 0
    for result in results:
        ordered.extend(result.segments)
        for key, (cells, n_bytes) in result.link_stats:
            stats = link_stats.setdefault(tuple(key), [0, 0])
            stats[0] += cells
            stats[1] += n_bytes
        total_cells += result.cells
        total_bytes += result.bytes
    ordered.sort(key=lambda r: (r.segment.round_index,
                                r.segment.slot))
    for _, group in groupby((r.segment for r in ordered),
                            key=lambda segment: segment.round_index):
        keys: List[Tuple[str, str]] = []
        sizes: List[int] = []
        counts: List[int] = []
        time = 0.0
        for segment in group:
            time = segment.time
            keys.extend([(segment.src, segment.dst)]
                        * len(segment.sizes))
            sizes.extend(segment.sizes)
            counts.extend(segment.counts)
        for tap in taps:
            offer_round_runs(tap, time, keys, sizes, counts)
    return {
        "cells": total_cells,
        "bytes": total_bytes,
        "segments": len(ordered),
        "link_stats": {key: (stats[0], stats[1])
                       for key, stats in sorted(link_stats.items())},
    }
