"""Virtual-time metrics: counters, gauges, and fixed-bucket histograms.

Every figure of the paper's evaluation (§4) is a metric — anonymity-set
sizes, per-link bandwidth, CPU, latency/MOS — and herdscope makes them
first-class: a :class:`MetricsRegistry` holds instruments keyed by
``(name, labels)`` and stamps every update with *virtual* time read
from the owning :class:`~repro.netsim.engine.EventLoop` clock or round
counter, never the wall clock.  Two runs with the same seed therefore
produce byte-identical snapshots, and herdlint's HL001 determinism gate
holds for the observability layer itself.

Instruments follow Prometheus semantics:

* :class:`Counter` — monotonically increasing; ``inc()``.
* :class:`Gauge` — arbitrary set/inc/dec.
* :class:`Histogram` — fixed upper-bound buckets plus ``_sum`` and
  ``_count``; ``observe()``.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain, deterministic,
JSON-ready structures ordered by ``(name, labels)``; the exporters in
:mod:`repro.obs.export` render them as Prometheus text or JSON.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Label sets are canonicalized to sorted ``(key, value)`` tuples so the
#: same labels in any order address the same series.
LabelsKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (upper bounds): sub-round latencies up to
#: long spans, in whatever unit the caller observes (rounds, seconds,
#: milliseconds).  ``+inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0)

#: Hard per-name series cap: a mislabelled instrument (e.g. a unique id
#: in a label) would otherwise grow without bound and destroy snapshot
#: comparability.
MAX_SERIES_PER_NAME = 1024


def canonical_labels(labels: Optional[Mapping[str, object]]) -> LabelsKey:
    """Normalize a label mapping to a sorted tuple of string pairs."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class LabelCardinalityError(ValueError):
    """Raised when one metric name exceeds :data:`MAX_SERIES_PER_NAME`
    distinct label sets."""


class Instrument:
    """Base class: one ``(name, labels)`` series."""

    kind = "untyped"

    __slots__ = ("name", "labels", "updated_at")

    def __init__(self, name: str, labels: LabelsKey):
        self.name = name
        self.labels = labels
        #: Virtual time of the last update (registry clock).
        self.updated_at = 0.0

    def series_snapshot(self) -> Dict[str, object]:
        raise NotImplementedError


class Counter(Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    __slots__ = ("value", "_clock")

    def __init__(self, name: str, labels: LabelsKey,
                 clock: Callable[[], float]):
        super().__init__(name, labels)
        self.value = 0.0
        self._clock = clock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount
        self.updated_at = self._clock()

    def add(self, n: float) -> None:
        """Bulk increment: ``add(n)`` is the O(1) equivalent of ``n``
        unit :meth:`inc` calls made at the same virtual time — same
        value (integer float sums are exact below 2**53), same
        ``updated_at`` — so run-table taps keep snapshots
        byte-identical while paying O(runs) instead of O(cells)."""
        self.inc(n)

    def series_snapshot(self) -> Dict[str, object]:
        return {"labels": dict(self.labels), "value": self.value,
                "updated_at": self.updated_at}


class Gauge(Instrument):
    """A value that can go up and down (queue depth, occupancy)."""

    kind = "gauge"

    __slots__ = ("value", "_clock")

    def __init__(self, name: str, labels: LabelsKey,
                 clock: Callable[[], float]):
        super().__init__(name, labels)
        self.value = 0.0
        self._clock = clock

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updated_at = self._clock()

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def series_snapshot(self) -> Dict[str, object]:
        return {"labels": dict(self.labels), "value": self.value,
                "updated_at": self.updated_at}


class Histogram(Instrument):
    """Fixed-bucket distribution with exact ``sum`` and ``count``.

    ``buckets`` are inclusive upper bounds; an implicit ``+inf`` bucket
    catches the tail.  Bucket counts are cumulative in snapshots (the
    Prometheus convention).
    """

    kind = "histogram"

    __slots__ = ("buckets", "bucket_counts", "sum", "count", "_clock")

    def __init__(self, name: str, labels: LabelsKey,
                 clock: Callable[[], float],
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, labels)
        cleaned = tuple(sorted(float(b) for b in buckets))
        if not cleaned:
            raise ValueError("histogram needs at least one bucket")
        if any(math.isinf(b) for b in cleaned):
            cleaned = tuple(b for b in cleaned if not math.isinf(b))
        self.buckets = cleaned
        self.bucket_counts = [0] * (len(cleaned) + 1)  # + the +inf bucket
        self.sum = 0.0
        self.count = 0
        self._clock = clock

    def observe(self, value: float) -> None:
        value = float(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.sum += value
        self.count += 1
        self.updated_at = self._clock()

    def observe_many(self, values: Sequence[float]) -> None:
        """Bulk observation: record every value with one clock stamp.

        Equivalent to observing each value in order at the same
        virtual time (``sum`` accumulates in iteration order, so the
        float total matches the sequential path bit for bit), with
        O(values) bucket work but O(1) clock reads — instrumentation
        for a whole round's cells costs one call."""
        if not values:
            return
        buckets = self.buckets
        counts = self.bucket_counts
        # Accumulate into a local exactly as sequential observe()
        # calls would: (s + v1) + v2 differs from s + (v1 + v2) in
        # float arithmetic, and snapshots must match bit for bit.
        s = self.sum
        for value in values:
            value = float(value)
            for i, bound in enumerate(buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            s += value
        self.sum = s
        self.count += len(values)
        self.updated_at = self._clock()

    def cumulative_counts(self) -> List[int]:
        """Bucket counts accumulated left to right (``le`` semantics)."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out

    def series_snapshot(self) -> Dict[str, object]:
        return {"labels": dict(self.labels),
                "buckets": list(self.buckets),
                "cumulative": self.cumulative_counts(),
                "sum": self.sum, "count": self.count,
                "updated_at": self.updated_at}


class MetricsRegistry:
    """All of one run's instruments, sharing one virtual clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current *virtual* time —
        ``loop.now`` of the owning :class:`~repro.netsim.engine
        .EventLoop`, or a round counter for round-based simulations.
        Defaults to a constant 0 (still deterministic, just unstamped).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._series: Dict[Tuple[str, LabelsKey], Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self._helps: Dict[str, str] = {}
        self._cardinality: Dict[str, int] = {}

    # -- clock -----------------------------------------------------------------

    def now(self) -> float:
        """The registry's current virtual time."""
        return self._clock()

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Re-point the registry (and every existing instrument) at a
        new virtual clock — used when the owning loop/round counter is
        created after the registry."""
        self._clock = clock
        for instrument in self._series.values():
            instrument._clock = clock  # shared slot on all instruments

    # -- instrument factories --------------------------------------------------

    def _get(self, cls, name: str,
             labels: Optional[Mapping[str, object]],
             help: str, **kwargs) -> Instrument:
        key = (name, canonical_labels(labels))
        found = self._series.get(key)
        if found is not None:
            if not isinstance(found, cls):
                raise TypeError(
                    f"{name} is a {found.kind}, not a {cls.kind}")
            return found
        registered_kind = self._kinds.get(name)
        if registered_kind is not None and registered_kind != cls.kind:
            raise TypeError(f"{name} already registered as "
                            f"{registered_kind}")
        n = self._cardinality.get(name, 0)
        if n >= MAX_SERIES_PER_NAME:
            raise LabelCardinalityError(
                f"{name} exceeds {MAX_SERIES_PER_NAME} label sets; a "
                "label is probably carrying per-entity unique values")
        instrument = cls(name, key[1], self._clock, **kwargs)
        self._series[key] = instrument
        self._kinds[name] = cls.kind
        self._cardinality[name] = n + 1
        if help and name not in self._helps:
            self._helps[name] = help
        return instrument

    def counter(self, name: str,
                labels: Optional[Mapping[str, object]] = None,
                help: str = "") -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, object]] = None,
              help: str = "") -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, object]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  help: str = "") -> Histogram:
        return self._get(Histogram, name, labels, help, buckets=buckets)

    # -- queries ---------------------------------------------------------------

    def value(self, name: str,
              labels: Optional[Mapping[str, object]] = None
              ) -> Optional[float]:
        """Current value of a counter/gauge series, or None if the
        series does not exist (histograms: the observation count)."""
        instrument = self._series.get((name, canonical_labels(labels)))
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value  # type: ignore[union-attr]

    def series(self, name: str) -> List[Instrument]:
        """Every series registered under ``name``, label-sorted."""
        return [inst for (n, _), inst in sorted(self._series.items())
                if n == name]

    def names(self) -> List[str]:
        return sorted(self._kinds)

    def __len__(self) -> int:
        return len(self._series)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A deterministic, JSON-ready view of every instrument:
        ``{name: {"kind", "help", "series": [...label-sorted...]}}``.
        Byte-identical across identically-seeded runs."""
        out: Dict[str, Dict[str, object]] = {}
        for (name, _), instrument in sorted(self._series.items()):
            entry = out.setdefault(name, {
                "kind": instrument.kind,
                "help": self._helps.get(name, ""),
                "series": [],
            })
            entry["series"].append(instrument.series_snapshot())
        return out

    def clear(self) -> None:
        """Drop every instrument (a fresh run in the same registry)."""
        self._series.clear()
        self._kinds.clear()
        self._helps.clear()
        self._cardinality.clear()
