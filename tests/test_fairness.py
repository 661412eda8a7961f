"""Unit + property tests for max-min fair allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.fairness import FlowPaths, max_min_allocation


def alloc(capacities, paths):
    return max_min_allocation(
        np.asarray(capacities, dtype=float), FlowPaths.from_lists(paths)
    )


class TestBasics:
    def test_single_flow_gets_link_capacity(self):
        result = alloc([100.0], [(0,)])
        assert result.rates[0] == pytest.approx(100.0)

    def test_two_flows_share_equally(self):
        result = alloc([100.0], [(0,), (0,)])
        assert result.rates == pytest.approx([50.0, 50.0])

    def test_disjoint_flows_do_not_interact(self):
        result = alloc([100.0, 40.0], [(0,), (1,)])
        assert result.rates == pytest.approx([100.0, 40.0])

    def test_flow_limited_by_tightest_link(self):
        result = alloc([100.0, 10.0], [(0, 1)])
        assert result.rates[0] == pytest.approx(10.0)

    def test_empty_flow_set(self):
        result = alloc([100.0], [])
        assert result.rates.size == 0
        assert not result.saturated.any()

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty path"):
            alloc([100.0], [()])

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            alloc([100.0], [(3,)])


class TestMaxMinSemantics:
    def test_classic_three_flow_example(self):
        # Flow A uses links 0+1, B uses 0, C uses 1.
        # cap(0)=10, cap(1)=20 -> A=5, B=5, C=15 (textbook max-min).
        result = alloc([10.0, 20.0], [(0, 1), (0,), (1,)])
        assert result.rates == pytest.approx([5.0, 5.0, 15.0])

    def test_bottleneck_frees_capacity_elsewhere(self):
        # Two flows on link0 (cap 10) also cross link1 (cap 100);
        # a third flow on link1 alone gets the leftovers.
        result = alloc([10.0, 100.0], [(0, 1), (0, 1), (1,)])
        assert result.rates[0] == pytest.approx(5.0)
        assert result.rates[1] == pytest.approx(5.0)
        assert result.rates[2] == pytest.approx(90.0)

    def test_saturated_flags(self):
        result = alloc([10.0, 1000.0], [(0, 1)])
        assert bool(result.saturated[0]) is True
        assert bool(result.saturated[1]) is False

    def test_link_flow_count(self):
        result = alloc([10.0, 10.0], [(0,), (0, 1)])
        assert result.link_flow_count.tolist() == [2, 1]

    def test_link_load_never_exceeds_capacity(self):
        result = alloc([10.0, 7.0, 3.0], [(0, 1), (1, 2), (0, 2), (0,)])
        assert np.all(result.link_load <= np.array([10.0, 7.0, 3.0]) * (1 + 1e-9))


@st.composite
def random_networks(draw):
    n_links = draw(st.integers(min_value=1, max_value=6))
    capacities = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e4),
            min_size=n_links,
            max_size=n_links,
        )
    )
    n_flows = draw(st.integers(min_value=1, max_value=12))
    paths = []
    for _ in range(n_flows):
        length = draw(st.integers(min_value=1, max_value=n_links))
        path = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        paths.append(tuple(path))
    return capacities, paths


class TestProperties:
    @given(random_networks())
    def test_feasibility_no_link_oversubscribed(self, network):
        capacities, paths = network
        result = alloc(capacities, paths)
        assert np.all(
            result.link_load <= np.asarray(capacities) * (1 + 1e-6) + 1e-9
        )

    @given(random_networks())
    def test_all_rates_positive(self, network):
        capacities, paths = network
        result = alloc(capacities, paths)
        assert np.all(result.rates > 0)

    @given(random_networks())
    def test_every_flow_crosses_a_saturated_link(self, network):
        # Max-min optimality: each flow is blocked by at least one
        # saturated link (otherwise its rate could be raised).
        capacities, paths = network
        result = alloc(capacities, paths)
        for flow_idx, path in enumerate(paths):
            assert any(result.saturated[link] for link in path), (
                f"flow {flow_idx} has no bottleneck"
            )

    @given(random_networks())
    def test_symmetry_identical_paths_equal_rates(self, network):
        capacities, paths = network
        # Duplicate the first flow; the two clones must receive equal rate.
        paths = list(paths) + [paths[0]]
        result = alloc(capacities, paths)
        assert result.rates[0] == pytest.approx(result.rates[-1], rel=1e-9)

    @given(random_networks())
    def test_scale_invariance(self, network):
        capacities, paths = network
        base = alloc(capacities, paths)
        scaled = alloc(np.asarray(capacities) * 3.0, paths)
        assert scaled.rates == pytest.approx(base.rates * 3.0, rel=1e-9)


class TestFlowPaths:
    def test_from_lists_roundtrip(self):
        paths = FlowPaths.from_lists([(0, 2), (1,), (2, 0, 1)])
        assert paths.n_flows == 3
        assert paths.indptr.tolist() == [0, 2, 3, 6]
        assert paths.link_ids.tolist() == [0, 2, 1, 2, 0, 1]


def _reference_gather_rows(paths, flows):
    """Flat positions (into ``link_ids``) of all entries of *flows*."""
    starts = paths.indptr[flows]
    lengths = paths.indptr[flows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    ends = np.cumsum(lengths)[:-1]
    if len(ends):
        out[ends] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(out)


def reference_exact_fill(capacities, paths):
    """Reference exact progressive fill: one bottleneck link per level.

    Each level recomputes every fair share under ``np.errstate``, gathers
    the newly frozen flows' rows flow by flow, and the loads come from
    ``np.add.at``.  ``max_min_allocation(tie_eps=0.0)`` must return the
    same ``(rates, link_flow_count, link_load, saturated)`` bit for bit.
    """
    capacities = np.asarray(capacities, dtype=np.float64)
    n_links = len(capacities)
    n_flows = paths.n_flows
    rates = np.zeros(n_flows, dtype=np.float64)
    link_flow_count = np.bincount(paths.link_ids, minlength=n_links).astype(np.int64)
    row_lengths = np.diff(paths.indptr)

    # Reverse (link -> flows) CSR for freezing whole bottleneck links at once.
    order = np.argsort(paths.link_ids, kind="stable")
    rev_indptr = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(link_flow_count, out=rev_indptr[1:])
    flow_of_entry = np.repeat(np.arange(n_flows, dtype=np.int64), row_lengths)[order]

    residual = capacities.copy()
    unfrozen_count = link_flow_count.astype(np.float64)
    unfrozen = np.ones(n_flows, dtype=bool)
    remaining = n_flows
    # Each iteration freezes at least one flow => bounded, but guard anyway.
    for _ in range(n_links + n_flows + 1):
        if remaining == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            fair = np.where(unfrozen_count > 0, residual / unfrozen_count, np.inf)
        bottleneck = int(np.argmin(fair))
        share = float(fair[bottleneck])
        if not np.isfinite(share):  # pragma: no cover - defensive
            break
        share = max(share, 0.0)
        entries = flow_of_entry[rev_indptr[bottleneck] : rev_indptr[bottleneck + 1]]
        newly = entries[unfrozen[entries]]
        if newly.size == 0:  # pragma: no cover - numeric guard
            unfrozen_count[bottleneck] = 0
            residual[bottleneck] = np.inf
            continue
        rates[newly] = share
        unfrozen[newly] = False
        remaining -= newly.size
        touched = paths.link_ids[_reference_gather_rows(paths, newly)]
        np.subtract.at(residual, touched, share)
        counts_removed = np.bincount(touched, minlength=n_links)
        unfrozen_count -= counts_removed
        np.maximum(residual, 0.0, out=residual)
        unfrozen_count[bottleneck] = 0  # fully frozen by construction

    link_load = np.zeros(n_links, dtype=np.float64)
    all_rows = paths.link_ids
    np.add.at(link_load, all_rows, np.repeat(rates, row_lengths))
    saturated = (link_flow_count > 0) & (
        link_load >= capacities * (1.0 - 1e-9) - 1e-12
    )
    return rates, link_flow_count, link_load, saturated


#: Capacities whose fair shares tie often (10/1 == 20/2 == 30/3) and
#: round (10/3), so a changed freeze order or summation order shows.
TIE_CAPACITIES = (10.0, 20.0, 30.0)


@st.composite
def tie_heavy_networks(draw):
    """Up to 40 flows drawn from a few distinct paths over three capacity
    values, optionally all crossing one shared link (a backplane)."""
    n_links = draw(st.integers(min_value=1, max_value=8))
    capacities = draw(
        st.lists(
            st.sampled_from(TIE_CAPACITIES), min_size=n_links, max_size=n_links
        )
    )
    distinct = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=n_links,
                unique=True,
            ).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    paths = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    if draw(st.booleans()):
        shared = draw(st.integers(min_value=0, max_value=n_links - 1))
        paths = [path if shared in path else path + (shared,) for path in paths]
    return capacities, paths


class TestExactFillBitIdentity:
    """The exact fill (``tie_eps=0.0``, the fluid engine's solve) equals
    :func:`reference_exact_fill` exactly, not within a tolerance."""

    @staticmethod
    def assert_matches_reference(capacities, paths):
        flow_paths = FlowPaths.from_lists(paths)
        result = max_min_allocation(np.asarray(capacities, dtype=float), flow_paths)
        rates, link_flow_count, link_load, saturated = reference_exact_fill(
            capacities, flow_paths
        )
        assert np.array_equal(result.rates, rates)
        assert np.array_equal(result.link_load, link_load)
        assert np.array_equal(result.saturated, saturated)
        assert np.array_equal(result.link_flow_count, link_flow_count)

    @settings(max_examples=300)
    @given(st.one_of(tie_heavy_networks(), random_networks()))
    def test_matches_reference(self, network):
        self.assert_matches_reference(*network)

    def test_tie_breaks_to_lowest_link_id(self):
        # Both links carry three flows at 10/3 each.  Freezing link 0
        # first leaves link 1 with 10 - 10/3 - 10/3, one ulp below
        # 10/3, for flow 2; freezing link 1 first would hand that
        # smaller rate to flow 3 instead.
        capacities, paths = [10.0, 10.0], [(0, 1), (0, 1), (1,), (0,)]
        share = 10.0 / 3.0
        leftover = 10.0 - share - share
        assert leftover < share
        result = alloc(capacities, paths)
        assert result.rates.tolist() == [share, share, leftover, share]
        self.assert_matches_reference(capacities, paths)

    def test_need_loads_false_skips_summary(self):
        capacities, paths = [10.0, 20.0], [(0, 1), (0,), (1,)]
        full = alloc(capacities, paths)
        lean = max_min_allocation(
            np.asarray(capacities), FlowPaths.from_lists(paths), need_loads=False
        )
        assert lean.link_load is None and lean.saturated is None
        assert np.array_equal(lean.rates, full.rates)
        assert np.array_equal(lean.link_flow_count, full.link_flow_count)


def reference_batched_fill(capacities, paths, tie_eps, need_loads):
    """Reference batched progressive fill: all near-tied bottlenecks per level.

    Each level refills the fair shares with ``inf``, divides only where a
    link still has unfrozen flows, checks the share with ``np.isfinite``
    and computes ``share * removed`` twice.
    ``max_min_allocation(tie_eps=...)`` must return the same ``(rates,
    link_flow_count, link_load, saturated)`` bit for bit.
    """
    capacities = np.asarray(capacities, dtype=np.float64)
    n_links = len(capacities)
    n_flows = paths.n_flows
    rates = np.zeros(n_flows, dtype=np.float64)
    link_flow_count = np.bincount(paths.link_ids, minlength=n_links).astype(np.int64)
    row_lengths = np.diff(paths.indptr)

    ent_link = paths.link_ids
    ent_flow = np.repeat(np.arange(n_flows, dtype=np.int64), row_lengths)
    residual = capacities.copy()
    unfrozen_count = link_flow_count.astype(np.float64)
    newly_mask = np.zeros(n_flows, dtype=bool)
    remaining = n_flows
    fair = np.empty(n_links, dtype=np.float64)
    link_load = np.zeros(n_links, dtype=np.float64) if need_loads else None
    for _ in range(n_links + n_flows + 1):
        if remaining == 0:
            break
        fair.fill(np.inf)
        np.divide(residual, unfrozen_count, out=fair, where=unfrozen_count > 0)
        share = float(fair.min())
        if not np.isfinite(share):  # pragma: no cover - defensive
            break
        share = max(share, 0.0)
        tied = fair <= share * (1.0 + tie_eps)
        hit_flows = ent_flow[tied[ent_link]]
        if hit_flows.size == 0:  # pragma: no cover - numeric guard
            unfrozen_count[tied] = 0
            continue
        newly_mask[hit_flows] = True
        n_new = int(np.count_nonzero(newly_mask))
        rates[hit_flows] = share
        remaining -= n_new
        if remaining == 0 and link_load is None:
            break
        dead = newly_mask[ent_flow]
        newly_mask[hit_flows] = False
        removed = np.bincount(ent_link[dead], minlength=n_links)
        if link_load is not None:
            link_load += share * removed
        if remaining == 0:
            break
        keep = ~dead
        ent_link = ent_link[keep]
        ent_flow = ent_flow[keep]
        residual -= share * removed
        unfrozen_count -= removed
        np.maximum(residual, 0.0, out=residual)
        unfrozen_count[tied] = 0

    if link_load is None:
        return rates, link_flow_count, None, None
    saturated = (link_flow_count > 0) & (
        link_load >= capacities * (1.0 - 1e-9 - tie_eps) - 1e-12
    )
    return rates, link_flow_count, link_load, saturated


@st.composite
def networks_with_idle_links(draw):
    """A tie-heavy or random network, sometimes with links no flow
    crosses appended: a zero-capacity one, whose fair share is 0/0, and
    others at the tie capacities."""
    capacities, paths = draw(st.one_of(tie_heavy_networks(), random_networks()))
    if draw(st.booleans()):
        idle = draw(st.lists(st.sampled_from(TIE_CAPACITIES), max_size=3))
        capacities = list(capacities) + [0.0] + idle
    return capacities, paths


def _bits(array):
    return None if array is None else (array.dtype.str, array.shape, array.tobytes())


class TestBatchedFillBitIdentity:
    """The batched fill (``tie_eps > 0``, the vector engine's solve)
    equals :func:`reference_batched_fill` in every bit."""

    @settings(max_examples=300)
    @given(
        networks_with_idle_links(),
        st.sampled_from([1e-9, 0.05]),
        st.booleans(),
    )
    def test_matches_reference(self, network, tie_eps, need_loads):
        capacities, paths = network
        flow_paths = FlowPaths.from_lists(paths)
        result = max_min_allocation(
            np.asarray(capacities, dtype=float), flow_paths,
            tie_eps=tie_eps, need_loads=need_loads,
        )
        expected = reference_batched_fill(capacities, flow_paths, tie_eps, need_loads)
        got = (result.rates, result.link_flow_count, result.link_load, result.saturated)
        assert [_bits(a) for a in got] == [_bits(a) for a in expected]
