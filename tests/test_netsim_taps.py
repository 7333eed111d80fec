"""The two tap tiers and the one adapter between them.

:func:`repro.netsim.taps.offer_round_runs` hands a round's run table
to ``record_round_runs`` when a tap has it and expands it to per-cell
``record`` calls otherwise.  The properties below hold the tiers to
the same stream over arbitrary link-contiguous run tables: the
adversary's observations, herdscope's link metrics and the reference
tally come out identical whichever tier a tap implements.
"""

from hypothesis import given, settings, strategies as st

from repro.netsim.observer import LinkObserver
from repro.netsim.taps import TallyTap, offer_round_runs
from repro.obs.instrument import LinkTap
from repro.obs.metrics import MetricsRegistry


class RecordOnly:
    """A tap with only the required tier, wrapping a richer one."""

    def __init__(self, inner):
        self.inner = inner

    def record(self, time, cell, src, dst):
        self.inner.record(time, cell, src, dst)


@st.composite
def round_tables(draw):
    """A link-contiguous run table: every link's runs adjacent, links
    in first-emission order, as every run-table plane emits them."""
    names = [f"n{i}" for i in range(4)]
    links = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)),
        unique=True, max_size=5))
    keys, sizes, counts = [], [], []
    for link in links:
        for _ in range(draw(st.integers(1, 3))):
            keys.append(link)
            sizes.append(draw(st.integers(1, 1500)))
            counts.append(draw(st.integers(1, 6)))
    return keys, sizes, counts


def _registry(clock):
    return MetricsRegistry(clock=lambda: clock[0])


class TestOfferRoundRuns:
    @settings(max_examples=60, deadline=None)
    @given(tables=st.lists(round_tables(), max_size=4))
    def test_record_only_tap_matches_link_observer(self, tables):
        rich, plain = LinkObserver(), LinkObserver()
        rich_tally, plain_tally = TallyTap(), TallyTap()
        for r, (keys, sizes, counts) in enumerate(tables):
            for tap in (rich, RecordOnly(plain), rich_tally,
                        RecordOnly(plain_tally)):
                offer_round_runs(tap, r * 0.02, keys, sizes, counts)
        assert plain.observations == rich.observations
        assert len(rich.observations) == rich_tally.cells == sum(
            sum(counts) for _, _, counts in tables)
        assert (plain_tally.cells, plain_tally.bytes) == \
            (rich_tally.cells, rich_tally.bytes)

    @settings(max_examples=60, deadline=None)
    @given(tables=st.lists(round_tables(), max_size=4))
    def test_link_tap_round_runs_matches_per_cell_record(self, tables):
        clock = [0.0]
        rich = LinkTap(_registry(clock))
        plain = LinkTap(_registry(clock))
        wrapped = RecordOnly(plain)
        for r, (keys, sizes, counts) in enumerate(tables):
            clock[0] = float(r)
            offer_round_runs(rich, r * 0.02, keys, sizes, counts)
            offer_round_runs(wrapped, r * 0.02, keys, sizes, counts)
        # Values and updated_at stamps, in instrument order.
        assert rich.registry.snapshot() == plain.registry.snapshot()
