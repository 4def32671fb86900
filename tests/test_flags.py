from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import threading
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import citeheat
from citeheat import corpus, entropy, flags
from citeheat.cli import main
from citeheat.corpus import (
    PAIRS,
    JournalRegistry,
    YearMatrix,
    apply_name_changes,
    build_common_set,
    read_only,
)
from citeheat.entropy import DIRECTIONS, Cells, margin_totals, to_unit, triangle_evaluation
from citeheat.errors import DataError
from citeheat.flags import (
    FlagReport,
    ThresholdSpec,
    _below_lower,
    _monotonic,
    build_flag_report,
    compute_threshold,
    flag_links,
    remove_outliers,
)
from citeheat.io_export import write_flag_journal_reports
from citeheat.netgraph import CommunityPartition

from helpers import (
    LABELS,
    assert_raw_transposition_holds,
    assert_renaming_holds,
    assert_transposition_holds,
    closed_form_triangle,
    count_cached_builds,
    dyad_fixture_cells,
    eager_flag_report,
    families_of,
    fsum_margins,
    ids_of,
    link_triples,
    make_tensor,
    mask_flag_links,
    mask_loops_flagged,
    node_names,
    oracle_triangle,
    per_index_links,
    random_active_grids,
    three_term_scale,
    three_term_triangle,
)


def _monotonic_of(values_01, values_12, k=1.0):
    """The monotonic rule with per-pair thresholds, as build_flag_report applies it."""
    v01, v12 = np.asarray(values_01, dtype=float), np.asarray(values_12, dtype=float)
    return _monotonic(v01, v12, compute_threshold(v01, k), compute_threshold(v12, k))


def _revision_flags_of(values, k=1.0):
    """The revision rule: strictly below the value set's own mean - k*sd."""
    values = np.asarray(values, dtype=float)
    return _below_lower(values, compute_threshold(values, k))


def _hot(triangle, k=1.0, drop_loops=True):
    return link_triples(
        flag_links(triangle, compute_threshold(triangle.values, k), drop_loops=drop_loops)
    )


def _triangle_of(values) -> Cells:
    values = np.asarray(values, dtype=float)
    n = len(values)
    return Cells(
        citing=np.arange(n, dtype=np.int64),
        cited=np.arange(1, n + 1, dtype=np.int64) % n,
        values=values,
        n_nodes=n,
    )


def _hub_fixture_tensor():
    """One wildly swinging hub cell (inflates the SD) plus a borderline
    cell that crosses the threshold only once the hub is removed."""
    grids = [np.zeros((5, 5), dtype=np.int64) for _ in range(3)]
    hub = (5, 30, 120)
    border = (40, 52, 70)
    for y in range(3):
        grids[y][4, 0] = hub[y]
        grids[y][0, 1] = border[y]
        grids[y][1, 2] = 500
        grids[y][2, 3] = 500
        grids[y][3, 0] = 500
        grids[y][0, 4] = 500
    return make_tensor(grids)


class TestComputeThreshold:
    def test_hand_computed_example(self):
        spec = compute_threshold(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), k=1.0)
        assert spec.mean == pytest.approx(3.0)
        assert spec.sd == pytest.approx(math.sqrt(2), rel=1e-12)
        assert spec.upper == pytest.approx(4.414214, abs=5e-7)
        assert spec.lower == pytest.approx(1.585786, abs=5e-7)

    def test_constant_values(self):
        spec = compute_threshold(np.array([2.5, 2.5, 2.5]), k=1.0)
        assert spec.sd == 0.0
        assert spec.upper == spec.lower == spec.mean == 2.5

    def test_k_zero_collapses(self):
        spec = compute_threshold(np.array([1.0, 9.0]), k=0.0)
        assert spec.upper == spec.lower == spec.mean

    def test_empty_errors(self):
        with pytest.raises(DataError, match="empty"):
            compute_threshold(np.array([]), k=1.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)),
        min_size=1, max_size=40,
    ))
    @example([1e16, 1.0, -1e16])  # a left-to-right sum loses the 1
    @example([1e100, 0.1, -1e100, 0.2, 3e-100])
    @example([1.0 + i * 2.0**-52 for i in range(9)])
    def test_mean_and_sd_match_high_precision_oracle(self, values):
        # The mean is the exactly rounded sum over n: two roundings. The SD
        # is within a few roundings of the SD about the computed mean, which
        # is at most the mean's error away from the true SD.
        spec = compute_threshold(np.array(values), k=0.0)
        with mpmath.workprec(2400):  # exact for any sum of 40 such doubles
            n = len(values)
            mean = mpmath.fsum(mpmath.mpf(v) for v in values) / n
            sd = mpmath.sqrt(mpmath.fsum((mpmath.mpf(v) - mean) ** 2 for v in values) / n)
            mean_error = abs(spec.mean - mean)
            assert mean_error <= 2.0**-52 * abs(mean)
            assert abs(spec.sd - sd) <= 2.0**-50 * sd + mean_error


class TestFlagMonotonic:
    def test_requires_both_intervals(self):
        up, down = _monotonic_of([0, 0, 0, 0, 0, 10], [1, 1, 1, 1, 1, 1])
        assert ids_of(up) == []
        assert ids_of(down) == []

    def test_degenerate_equal_values_flag_nothing(self):
        up, down = _monotonic_of([3, 3, 3, 3], [3, 3, 3, 3])
        assert ids_of(up) == [] and ids_of(down) == []

    def test_injected_climber_is_the_only_flag(self):
        up, down = _monotonic_of([0, 0, 0, 0, 0, 10], [1, 0, 1, 0, 1, 12])
        assert ids_of(up) == [5]
        assert ids_of(down) == []

    def test_decliner(self):
        up, down = _monotonic_of([0, 0, 0, 0, 0, -10], [0, 1, 0, 1, 0, -12])
        assert ids_of(down) == [5]
        assert ids_of(up) == []


class TestFlagRevision:
    def test_all_zero_flags_nothing(self):
        assert ids_of(_revision_flags_of([0.0] * 5)) == []

    def test_strongly_negative_node_flagged(self):
        values = [0.1, 0.2, 0.0, -0.1, 0.1, -5.0]
        assert ids_of(_revision_flags_of(values)) == [5]

    def test_matches_brute_force_filter(self, rng):
        values = rng.normal(0, 1, size=10)
        mean, sd = values.mean(), values.std()
        expected = [i for i in range(10) if values[i] < mean - 1.0 * sd]
        assert ids_of(_revision_flags_of(values)) == expected


class TestFlagLinks:
    def test_worked_threshold_from_reported_dyad(self):
        cells = _triangle_of([(1.251 + 2.465 - 4.728) / 1000.0, 0.0, 0.0])
        explicit = ThresholdSpec(k=1.0, mean=0.0, sd=0.0, upper=0.0, lower=-0.935e-3)
        hot = link_triples(flag_links(cells, explicit, drop_loops=False))
        assert [(c, d) for c, d, _ in hot] == [(0, 1)]

    def test_boundary_equal_not_flagged(self):
        cells = _triangle_of([-1.0, 1.0])  # mean 0, sd exactly 1
        assert _hot(cells, drop_loops=False) == ()

    def test_injected_cell_found_by_oracle_and_flags(self, rng):
        grids = random_active_grids(rng, 8, density=0.9, high=50)
        for grid, count in zip(grids, (20, 45, 130)):  # inject a hot cell
            grid[2, 6] = count
        tensor = make_tensor(grids)
        cells = triangle_evaluation(tensor)
        oracle = oracle_triangle(grids)
        scores = oracle["scores"]
        lower = oracle["mean"] - oracle["sd"]
        expected = {
            (c, d)
            for c in range(8)
            for d in range(8)
            if c != d and not np.isnan(scores[c, d]) and scores[c, d] < lower
        }
        assert (2, 6) in expected
        assert {(c, d) for c, d, _ in _hot(cells)} == expected

    def test_drop_loops_removes_diagonal(self):
        values = np.array([-5.0, -4.9, 1.0, 1.2, 0.8, 0.9])
        cells = Cells(
            citing=np.array([0, 1, 2, 3, 4, 5]),
            cited=np.array([0, 2, 3, 4, 5, 1]),  # first cell is a loop
            values=values,
            n_nodes=6,
        )
        with_loops = _hot(cells, drop_loops=False)
        without = _hot(cells, drop_loops=True)
        assert {(c, d) for c, d, _ in with_loops} == {(0, 0), (1, 2)}
        assert {(c, d) for c, d, _ in without} == {(1, 2)}


LINK_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Few distinct scores, so that ties (with each other and with the lower
# bound) are common; signed zeros and infinities included.
_SCORES = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, math.inf, -math.inf]),
    st.floats(allow_nan=False, width=64),
)


@st.composite
def _triangles(draw, min_cells=0):
    """Triangle cells in cell order, loops among them, over 1 to 6 nodes."""
    n = draw(st.integers(1, 6))
    cells = sorted(draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=min_cells, max_size=30, unique=True,
    )))
    pool = draw(st.lists(_SCORES, min_size=1, max_size=4))
    values = [draw(st.sampled_from(pool)) for _ in cells]
    return Cells(
        citing=np.array([c for c, _ in cells], dtype=np.int64),
        cited=np.array([d for _, d in cells], dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        n_nodes=n,
    )


def _assert_same_links(links, expected) -> None:
    assert len(links) == 3
    for array, want, dtype in zip(links, expected, (np.int64, np.int64, np.float64)):
        assert array.dtype == dtype
        assert array.tobytes() == want.tobytes()
        assert not array.flags.writeable


class TestLinkRuleAgainstTheMaskRule:
    """``flag_links`` and ``loops_flagged`` give, bit for bit, what boolean
    masks over every cell gave."""

    @LINK_SETTINGS
    @given(_triangles(), st.data(), st.booleans())
    def test_flag_links_is_the_mask_rule(self, triangle, data, drop_loops):
        # The bound is often one of the scores, so ties at it are common.
        lower = data.draw(st.one_of(st.sampled_from(triangle.values.tolist() or [0.0]), _SCORES))
        spec = ThresholdSpec(k=1.0, mean=0.0, sd=0.0, upper=0.0, lower=lower)
        links = flag_links(triangle, spec, drop_loops)
        _assert_same_links(links, mask_flag_links(triangle, lower, drop_loops))
        citing, cited, _ = links
        assert not (drop_loops and (citing == cited).any())
        order = citing * triangle.n_nodes + cited
        assert (np.diff(order) > 0).all()  # cell order

    @LINK_SETTINGS
    @given(_triangles(min_cells=1), st.sampled_from([0.0, 0.5, 1.0]), st.booleans())
    def test_report_links_and_loop_count_are_the_mask_rule(self, triangle, k, drop_loops):
        # The triangle stands in for the tensor's own, so that its scores can
        # tie with mean - k*sd (k = 0 makes the bound the mean) or be infinite
        # or huge; the mean and SD of those overflow or are NaN.
        tensor = make_tensor([np.ones((triangle.n_nodes,) * 2, dtype=np.int64)] * 3)
        with mock.patch.object(flags, "triangle_evaluation", return_value=triangle), \
                np.errstate(over="ignore", invalid="ignore"):
            report = build_flag_report(tensor, k=k, drop_loops=drop_loops)
        lower = report.thresholds["links"].lower
        assert report.triangle is triangle
        _assert_same_links(report.links, mask_flag_links(triangle, lower, drop_loops))
        assert report.loops_flagged == mask_loops_flagged(triangle, lower, drop_loops)
        loop_scores = tensor.indicators.loop_scores
        expected = triangle.values[triangle.citing == triangle.cited]
        assert loop_scores.dtype == np.float64 and not loop_scores.flags.writeable
        assert loop_scores.tobytes() == expected.tobytes()


class TestRemoveOutliers:
    def test_remaining_counts_untouched(self):
        tensor = _hub_fixture_tensor()
        reduced = remove_outliers(tensor, ["J004"])
        names, rnames = tensor.registry.names, reduced.registry.names
        original = {
            (names[c], names[d]): tuple(tensor.counts[:, i])
            for i, (c, d) in enumerate(zip(tensor.citing, tensor.cited))
        }
        for i, (c, d) in enumerate(zip(reduced.citing, reduced.cited)):
            assert original[(rnames[c], rnames[d])] == tuple(reduced.counts[:, i])

    def test_one_function_whose_report_calls_go_through_flags(self, small_tensor, monkeypatch):
        # corpus defines it; build_flag_report looks it up in flags, so a
        # wrapper there (a benchmark trace target) sees every call.
        assert citeheat.remove_outliers is corpus.remove_outliers is flags.remove_outliers
        calls = []

        def wrapped(tensor, nodes):
            calls.append(nodes)
            return corpus.remove_outliers(tensor, nodes)

        monkeypatch.setattr(flags, "remove_outliers", wrapped)
        report = build_flag_report(small_tensor, outliers=["J004"])
        assert calls == [("J004",)] and report.outliers_removed == ("J004",)

    def test_empty_list_is_identity(self, small_tensor):
        assert remove_outliers(small_tensor, []) is small_tensor

    def test_unknown_node_errors(self, small_tensor):
        with pytest.raises(DataError, match="unknown"):
            remove_outliers(small_tensor, ["Nope"])

    def test_bare_string_is_refused(self, rng):
        # Iterated as characters, "AB" would drop A and B and keep AB.
        tensor = make_tensor(random_active_grids(rng, 3, density=0.9))
        tensor = dataclasses.replace(tensor, registry=JournalRegistry.from_names(["A", "AB", "B"]))
        with pytest.raises(ValueError, match="list of journal names, got the string 'AB'"):
            remove_outliers(tensor, "AB")

    def test_borderline_cell_crosses_after_removal(self):
        tensor = _hub_fixture_tensor()
        hot_before = {(c, d) for c, d, _ in _hot(triangle_evaluation(tensor))}
        assert hot_before == {(4, 0)}  # only the hub cell

        reduced = remove_outliers(tensor, ["J004"])
        names = reduced.registry.names
        hot_after = {
            (names[c], names[d])
            for c, d, _ in _hot(triangle_evaluation(reduced))
        }
        assert hot_after == {("J000", "J001")}

    def test_commutes_with_prebuilt_restriction(self, rng):
        # Cascade-free by construction: every node keeps citing activity.
        for density, dropped in ((0.9, [3]), (0.5, [0, 4])):
            grids = random_active_grids(rng, 6, density=density, high=30)
            tensor = make_tensor(grids)
            reduced = remove_outliers(tensor, [f"J{i:03d}" for i in dropped])

            trimmed = [np.delete(np.delete(g, dropped, axis=0), dropped, axis=1) for g in grids]
            rebuilt = make_tensor(trimmed)
            # make_tensor names nodes densely, so the ids line up but not the names
            assert np.array_equal(reduced.counts, rebuilt.counts)
            assert np.array_equal(reduced.citing, rebuilt.citing)
            assert np.array_equal(reduced.cited, rebuilt.cited)
            assert reduced.year_labels == rebuilt.year_labels
            kept = [name for i, name in enumerate(tensor.registry.names) if i not in dropped]
            assert reduced.registry == JournalRegistry.from_names(kept)


K_PAIR_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)

FAMILIES = ("monotonic_up", "monotonic_down", "revision_flagged", "triangle_flagged_nodes")


def _journal_value_sets(ind) -> list[tuple[str, Cells, str]]:
    """``(key, cell set, direction)`` of each of the 10 journal value sets,
    the key spelled out as the journal_flags.json schema documents it."""
    cell_sets = [(f"margin_{a}{b}", ind.transitions[a, b]) for a, b in PAIRS]
    cell_sets += [("revision", ind.revision), ("triangle", ind.triangle)]
    return [(f"{name}_{d}", cells, d) for name, cells in cell_sets for d in DIRECTIONS]


@st.composite
def _tensor_and_k_pair(draw):
    """A random_active_grids tensor and k1 < k2. k2 is the margin
    |mean - v|/sd of an observed value v, or a float next to it, so that v
    lies on or next to its threshold at k2; k1 is 0, the float below k2,
    a smaller margin or any smaller k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = random_active_grids(rng, draw(st.integers(3, 9)),
                                density=draw(st.sampled_from([0.3, 0.6, 0.9])), high=40)
    if draw(st.booleans()):
        for g in grids:
            np.fill_diagonal(g, 7)  # live self-citation cells
    tensor = make_tensor(grids)
    statistics = tensor.indicators.statistics
    margins = sorted({
        abs(statistics[key].mean - v) / statistics[key].sd
        for key, values in tensor.indicators.value_sets.items() if statistics[key].sd > 0
        for v in values.tolist()
    })
    assume(margins)
    k2 = draw(st.sampled_from(margins))
    k2 = draw(st.sampled_from([k2, float(np.nextafter(k2, 0)), float(np.nextafter(k2, np.inf))]))
    k1 = draw(st.one_of(
        st.sampled_from([0.0, float(np.nextafter(k2, 0))]),
        st.sampled_from([k for k in margins if k < k2] or [0.0]),
        st.floats(0.0, k2),
    ))
    assume(k1 < k2)
    return tensor, k1, k2


class TestReportAndProperties:
    @K_PAIR_SETTINGS
    @given(_tensor_and_k_pair(), st.booleans())
    def test_every_flag_set_at_a_larger_k_is_a_subset(self, tensor_and_ks, drop_loops):
        # mean + k*sd and mean - k*sd round monotonically in k, so a value
        # beyond the bound at k2 is beyond it at every smaller k.
        tensor, k1, k2 = tensor_and_ks
        low, high = (build_flag_report(tensor, k=k, drop_loops=drop_loops) for k in (k1, k2))
        for family in FAMILIES:
            for d in DIRECTIONS:
                high_ids, low_ids = (ids_of(getattr(r, family)[d]) for r in (high, low))
                assert set(high_ids) <= set(low_ids), (family, d)

        def pairs(report):
            citing, cited, _ = report.links
            return set(zip(citing.tolist(), cited.tolist()))

        assert pairs(high) <= pairs(low)
        assert high.loops_flagged <= low.loops_flagged

    def test_flag_sets_antitone_in_k(self, rng):
        grids = random_active_grids(rng, 10, density=0.7, high=50)
        tensor = make_tensor(grids)
        previous = None
        for k in (0.0, 0.5, 1.0, 2.0):
            report = build_flag_report(tensor, k=k)
            current = {
                "links": set(report.hot_links),
                "rev_cited": set(report.revision_flagged["cited"]),
                "rev_citing": set(report.revision_flagged["citing"]),
                "up_cited": set(report.monotonic_up["cited"]),
                "down_citing": set(report.monotonic_down["citing"]),
                "tri_cited": set(report.triangle_flagged_nodes["cited"]),
            }
            if previous is not None:
                for key in current:
                    assert current[key] <= previous[key]
            previous = current

    def test_flag_sets_scale_invariant(self, rng):
        grids = random_active_grids(rng, 7, density=0.8, high=40)
        base = build_flag_report(make_tensor(grids))
        scaled = build_flag_report(make_tensor([grids[0], 7 * grids[1], grids[2]]))
        assert base.hot_links == scaled.hot_links
        for family in FAMILIES:
            assert families_of(getattr(base, family)) == families_of(getattr(scaled, family))

    def test_rerun_is_deterministic(self, small_tensor):
        a = build_flag_report(small_tensor)
        b = build_flag_report(small_tensor)
        assert a.hot_links == b.hot_links
        assert families_of(a.monotonic_up) == families_of(b.monotonic_up)
        assert a.thresholds == b.thresholds

    def test_monotonic_sets_disjoint_and_strict(self, rng):
        grids = random_active_grids(rng, 9, density=0.6, high=60)
        report = build_flag_report(make_tensor(grids))
        for direction in ("cited", "citing"):
            up, down = (ids_of(f[direction]) for f in (report.monotonic_up, report.monotonic_down))
            assert not set(up) & set(down)

    def test_hot_links_within_tri_valid_and_loopless(self, rng):
        grids = random_active_grids(rng, 8, density=0.8, high=40)
        for g in grids:
            np.fill_diagonal(g, 5)  # live self-citation cells
        tensor = make_tensor(grids)
        report = build_flag_report(tensor, k=0.0)  # flag everything below the mean
        tri_cells = {
            (int(c), int(d))
            for c, d in zip(tensor.citing[tensor.tri_valid], tensor.cited[tensor.tri_valid])
        }
        for c, d, _ in report.hot_links:
            assert c != d
            assert (c, d) in tri_cells

    def test_outliers_recorded_and_registry_shrinks(self):
        tensor = _hub_fixture_tensor()
        report = build_flag_report(tensor, outliers=["J004"])
        assert report.outliers_removed == ("J004",)
        assert report.tensor.n_nodes == 4

    def test_outliers_recorded_once_by_registry_name_in_registry_order(self):
        tensor = _hub_fixture_tensor()
        report = build_flag_report(tensor, outliers=iter([" J004\t", "J001", "J004"]))
        assert report.outliers_removed == ("J001", "J004")
        assert report.tensor.registry.names == ("J000", "J002", "J003")

    def test_revision_of_prediction_runs_once(self, small_tensor, monkeypatch):
        calls = []
        inner = flags.revision_of_prediction

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(flags, "revision_of_prediction", counted)
        report = build_flag_report(small_tensor)
        assert len(calls) == 1
        assert {"revision_cited", "revision_citing"} <= set(report.value_sets)

    def test_value_sets_statistics_and_thresholds_share_the_11_keys(self, rng):
        grids = random_active_grids(rng, 12, density=0.7, high=60)
        for g in grids:
            np.fill_diagonal(g, 9)
        tensor = make_tensor(grids)
        ind = tensor.indicators
        keys = set(ind.value_sets)
        assert len(keys) == 11 and keys == set(ind.statistics)
        for k in (0.0, 0.5, 2.0):
            assert set(build_flag_report(tensor, k=k).thresholds) == keys
        journal_sets = _journal_value_sets(ind)
        assert keys == {key for key, _, _ in journal_sets} | {"links"}
        for key, cells, d in journal_sets:
            assert ind.value_sets[key].tobytes() == margin_totals(cells, d).tobytes(), key
        assert ind.value_sets["links"] is ind.triangle.values
        for key, values in ind.value_sets.items():
            assert ind.statistics[key] == compute_threshold(values, 0.0), key

    @pytest.mark.parametrize("drop_loops", [True, False])
    def test_every_flag_set_matches_brute_force_over_report_arrays(self, rng, drop_loops):
        grids = random_active_grids(rng, 12, density=0.7, high=60)
        for g in grids:
            np.fill_diagonal(g, 9)  # live self-citation cells
        report = build_flag_report(make_tensor(grids), k=0.5, drop_loops=drop_loops)
        n = report.tensor.n_nodes

        value_sets = report.value_sets
        bounds = {}
        for key, values in value_sets.items():
            mean = math.fsum(values.tolist()) / len(values)
            sd = math.sqrt(math.fsum(((values - mean) ** 2).tolist()) / len(values))
            bounds[key] = (mean - 0.5 * sd, mean + 0.5 * sd)
            spec = report.thresholds[key]
            assert (spec.k, spec.mean, spec.sd) == (0.5, mean, sd)
            assert (spec.lower, spec.upper) == bounds[key]

        def below(key):
            return {i for i in range(n) if value_sets[key][i] < bounds[key][0]}

        def above(key):
            return {i for i in range(n) if value_sets[key][i] > bounds[key][1]}

        for d in ("cited", "citing"):
            up = above(f"margin_01_{d}") & above(f"margin_12_{d}")
            down = below(f"margin_01_{d}") & below(f"margin_12_{d}")
            assert ids_of(report.monotonic_up[d]) == sorted(up)
            assert ids_of(report.monotonic_down[d]) == sorted(down)
            assert ids_of(report.revision_flagged[d]) == sorted(below(f"revision_{d}"))
            assert ids_of(report.triangle_flagged_nodes[d]) == sorted(below(f"triangle_{d}"))
        triangle = report.triangle
        hot = [
            (int(c), int(d), float(s))
            for c, d, s in zip(triangle.citing, triangle.cited, triangle.values)
            if s < bounds["links"][0]
        ]
        loops = sum(link[0] == link[1] for link in hot)
        assert loops > 0
        if drop_loops:
            assert report.hot_links == tuple(link for link in hot if link[0] != link[1])
            assert report.loops_flagged == loops
        else:
            assert (report.hot_links, report.loops_flagged) == (tuple(hot), 0)


class TestTransposition:
    """Swapping citing and cited swaps every direction of a report: the
    value sets, statistics and journal families, and the hot links reverse
    (see ``helpers.assert_transposition_holds``)."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.sampled_from([0.3, 0.6, 0.9]), st.booleans())
    def test_transposed_tensor_swaps_directions(self, seed, n, density, loops):
        grids = random_active_grids(np.random.default_rng(seed), n, density=density, high=40)
        if loops:
            for g in grids:
                np.fill_diagonal(g, 7)  # live self-citation cells
        assert_transposition_holds(make_tensor(grids), ks=(0.5, 1.0, 2.0))

    def test_dyad_fixture(self):
        assert_transposition_holds(_dyad_tensor(), ks=(0.5, 1.0, 2.0))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.sampled_from([0.3, 0.6, 0.9]), st.booleans())
    def test_transposed_raw_years_ingest_to_the_transposed_tensor(self, seed, n, density, renames):
        # A two-way ring in each year: every journal cites and is cited in
        # every year. Records come shuffled, some split in two; the renames
        # move one journal to the end and merge two.
        rng = np.random.default_rng(seed)
        names = node_names(n)
        texts = {}
        for label, grid in zip(LABELS, random_active_grids(rng, n, density=density, high=40)):
            for c in range(n):
                grid[(c + 1) % n, c] = max(1, int(grid[(c + 1) % n, c]))
            records = []
            for c, d in zip(*np.nonzero(grid)):
                count = int(grid[c, d])
                split = int(rng.integers(1, count)) if count > 1 and rng.random() < 0.3 else 0
                records += [(names[c], names[d], x) for x in (split, count - split) if x]
            rng.shuffle(records)
            texts[label] = "# citing\tcited\tcount\n" + "".join(f"{a}\t{b}\t{x}\n" for a, b, x in records)
        table = [(names[0], "Z000"), (names[n // 2], names[-1])] if renames and n > 2 else []
        renames_text = "".join(f"{old}\t{new}\n" for old, new in table)
        assert_raw_transposition_holds(texts, renames_text, ks=(1.0,))


class TestRenaming:
    """Renaming the journals so that their order changes changes nothing
    but the names: value sets, statistics, families, hot links and the
    hot-link graph's components (see ``helpers.assert_renaming_holds``)."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30),
           st.sampled_from([0.3, 0.6, 0.9]), st.booleans())
    def test_renamed_tensor_gives_the_same_report(self, seed, n, density, loops):
        grids = random_active_grids(np.random.default_rng(seed), n, density=density, high=40)
        if loops:
            for g in grids:
                np.fill_diagonal(g, 7)  # live self-citation cells
        assert_renaming_holds(make_tensor(grids), ks=(0.5, 1.0, 2.0))

    def test_dyad_fixture(self):
        assert_renaming_holds(_dyad_tensor(), ks=(0.5, 1.0, 2.0))


def _dyad_tensor():
    years = dyad_fixture_cells()
    matrices = [YearMatrix.from_cells(label, years[label]) for label in sorted(years)]
    return build_common_set(*apply_name_changes(matrices, []))


def _pin_tensors():
    """The dyad fixture and random tensors of 1 to 50 nodes, some with live
    self-citation cells."""
    rng = np.random.default_rng(8)
    yield _dyad_tensor()
    for n in range(1, 51):
        grids = random_active_grids(rng, n, density=float(rng.uniform(0.2, 0.9)), high=80)
        if n % 2:
            for g in grids:
                np.fill_diagonal(g, rng.integers(1, 40, n))
        yield make_tensor(grids)


class TestBitIdentityWithEarlierFormulas:
    """The report's arrays, sums and links equal, byte for byte, what the
    closed-form triangle from counts and totals, per-journal ``math.fsum``
    margins, ``math.fsum`` over a list and per-index link tuples gave."""

    @pytest.mark.parametrize("drop_loops", [True, False])
    def test_report_equals_the_earlier_code_paths(
        self, drop_loops, monkeypatch, tmp_path, dyad_year_files
    ):
        for tensor in _pin_tensors():
            report = build_flag_report(tensor, k=0.5, drop_loops=drop_loops)
            assert report.triangle.values.tobytes() == closed_form_triangle(tensor).tobytes()
            for key, cells, d in _journal_value_sets(report):
                assert report.value_sets[key].tobytes() == fsum_margins(cells, d).tobytes()
            for cells in (*report.transitions.values(), report.revision, report.triangle):
                assert cells.grand_sum.hex() == math.fsum(cells.values.tolist()).hex()

            lower = report.thresholds["links"].lower
            assert report.hot_links == per_index_links(report.triangle, lower, drop_loops)
            every_hot = per_index_links(report.triangle, lower, drop_loops=False)
            loops = sum(c == d for c, d, _ in every_hot)
            assert report.loops_flagged == (loops if drop_loops else 0)
            for link in report.hot_links:
                assert tuple(map(type, link)) == (int, int, float)

        # A grand sum is computed on its first read, once per cell set.
        summed, triangles = [], []
        fsum, evaluate_triangle = entropy.ordered_fsum, flags.triangle_evaluation

        def counted_fsum(values):
            summed.append(values)
            return fsum(values)

        def kept_triangle(*args):
            triangles.append(evaluate_triangle(*args))
            return triangles[-1]

        monkeypatch.setattr(entropy, "ordered_fsum", counted_fsum)
        monkeypatch.setattr(flags, "triangle_evaluation", kept_triangle)
        years = [a for label in sorted(dyad_year_files)
                 for a in ("--year", f"{label}={dyad_year_files[label]}")]
        loops = [] if drop_loops else ["--keep-loops"]
        assert main(["run", *years, *loops, "--out", str(tmp_path / "out")]) == 0
        # The three transition sums and the revision sum; never the triangle's.
        assert len(summed) == 4 and len(triangles) == 1
        assert not any(values is triangles[0].values for values in summed)

        summed.clear()
        tensor = _dyad_tensor()
        for k in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            report = build_flag_report(tensor, k=k, drop_loops=drop_loops)
            for pair in PAIRS:
                assert math.isfinite(report.transitions[pair].grand_sum)
        assert len(summed) == 3

    def test_triangle_equals_the_three_kl_sum(self):
        # The three terms cancel, so each score is held to its largest term.
        for tensor in _pin_tensors():
            scores = tensor.indicators.triangle.values
            error = np.abs(scores - three_term_triangle(tensor))
            assert np.all(error <= 1e-12 * three_term_scale(tensor))

    def test_dyad_pins_are_not_vacuous(self):
        report = build_flag_report(_dyad_tensor(), k=0.5)
        assert len(report.hot_links) >= 1
        assert np.count_nonzero(report.triangle.values) >= 1


class TestKValidation:
    @pytest.mark.parametrize("k", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_non_finite_or_negative_k_raises(self, small_tensor, k):
        with pytest.raises(ValueError, match="k must be"):
            build_flag_report(small_tensor, k=k)

    def test_a_k_past_the_float_range_is_accepted_and_flags_nothing(self):
        # In mbits, mean - k*sd overflows to -inf; the library keeps such a k,
        # and only the CLI, whose JSON sidecars cannot hold an infinity,
        # refuses it.
        report = build_flag_report(_dyad_tensor(), k=1.7e308)
        assert to_unit(report.thresholds["links"].lower, report.unit) == -math.inf
        assert report.hot_links == ()
        assert not any(ids.size for ids in report.monotonic_up.values())

    def test_unknown_unit_raises(self, small_tensor):
        expected = r"unit must be one of \['bits', 'mbits', 'microbits'\], got 'furlongs'"
        with pytest.raises(ValueError, match=expected):
            build_flag_report(small_tensor, unit="furlongs")

    def test_bare_string_outliers_raises(self, small_tensor):
        with pytest.raises(ValueError, match="list of journal names"):
            build_flag_report(small_tensor, outliers="J004")


def _report_arrays(report) -> dict:
    """Every array of a report, as bytes, by a readable key."""
    arrays = {}
    for pair, cells in report.transitions.items():
        for name in ("citing", "cited", "values"):
            arrays[f"transition {pair} {name}"] = getattr(cells, name).tobytes()
        arrays[f"transition {pair} grand_sum"] = cells.grand_sum.hex()
    for family, cells in (("revision", report.revision), ("triangle", report.triangle)):
        for name in ("citing", "cited", "values"):
            arrays[f"{family} {name}"] = getattr(cells, name).tobytes()
    for key, values in report.value_sets.items():
        arrays[f"value set {key}"] = values.tobytes()
    arrays["revision grand_sum"] = report.revision.grand_sum.hex()
    return arrays


class TestIndicatorCache:
    """A tensor computes its k-independent indicators once; reports on it
    equal reports on fresh tensors."""

    @pytest.mark.parametrize("outliers", [(), ("J004", "J007")], ids=["all", "outliers"])
    @pytest.mark.parametrize("drop_loops", [True, False])
    def test_reports_on_one_tensor_match_fresh_tensors(self, rng, drop_loops, outliers):
        grids = random_active_grids(rng, 12, density=0.7, high=60)
        for g in grids:
            np.fill_diagonal(g, 9)  # live self-citation cells
        shared = make_tensor(grids)
        for k in (0.0, 0.5, 1.0, 2.0, 0.5):
            kwargs = dict(k=k, drop_loops=drop_loops, outliers=outliers)
            cached = build_flag_report(shared, **kwargs)
            fresh = build_flag_report(make_tensor(grids), **kwargs)
            assert _report_arrays(cached) == _report_arrays(fresh)
            assert cached.thresholds == fresh.thresholds
            assert all(spec.k == k for spec in cached.thresholds.values())
            for name in FAMILIES:
                assert families_of(getattr(cached, name)) == families_of(getattr(fresh, name))
            assert cached.hot_links == fresh.hot_links
            assert cached.loops_flagged == fresh.loops_flagged
            assert cached.outliers_removed == fresh.outliers_removed == outliers

    def test_k_sweep_evaluates_indicators_once(self, small_tensor, monkeypatch):
        calls = {name: 0 for name in
                 ("cell_divergence", "revision_of_prediction", "triangle_evaluation")}

        def counting(name):
            inner = getattr(flags, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(flags, name, counted)

        for name in calls:
            counting(name)
        # The stored loop scores are swapped for three flagged at every k, so
        # a count taken from a mask rebuilt per report would differ.
        evaluate = flags.evaluate_indicators
        evaluated = []

        def marked(tensor):
            evaluated.append(tensor)
            return dataclasses.replace(
                evaluate(tensor), loop_scores=read_only(np.full(3, -np.inf))
            )

        monkeypatch.setattr(flags, "evaluate_indicators", marked)
        for k in (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
            assert build_flag_report(small_tensor, k=k).loops_flagged == 3
        assert calls == {
            "cell_divergence": 3, "revision_of_prediction": 1, "triangle_evaluation": 1,
        }
        assert len(evaluated) == 1 and evaluated[0] is small_tensor

    def test_sweep_on_a_reduced_tensor_equals_removal_per_call(self, rng):
        tensor = make_tensor(random_active_grids(rng, 10, density=0.7, high=50))
        reduced = remove_outliers(tensor, ["J002"])
        for k in (0.5, 1.0):
            per_call = build_flag_report(tensor, k=k, outliers=["J002"])
            swept = build_flag_report(reduced, k=k)
            assert _report_arrays(per_call) == _report_arrays(swept)
            assert per_call.thresholds == swept.thresholds
            assert per_call.hot_links == swept.hot_links
            assert (per_call.outliers_removed, swept.outliers_removed) == (("J002",), ())

    def test_threads_sharing_a_tensor_get_the_fresh_reports(self, rng):
        grids = random_active_grids(rng, 10, density=0.7, high=50)
        ks = (0.5, 1.0, 1.5)
        expected = {k: build_flag_report(make_tensor(grids), k=k) for k in ks}
        shared = make_tensor(grids)
        results, errors = [], []

        def sweep():
            try:
                results.extend((k, build_flag_report(shared, k=k)) for k in ks)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 6 * len(ks)
        for k, report in results:
            assert _report_arrays(report) == _report_arrays(expected[k])
            assert report.thresholds == expected[k].thresholds
            assert report.hot_links == expected[k].hot_links

    def test_outlier_removal_gives_a_tensor_with_its_own_indicators(self):
        tensor = _hub_fixture_tensor()
        reduced = remove_outliers(tensor, ["J004"])
        assert reduced.indicators is not tensor.indicators
        assert reduced.indicators is reduced.indicators
        assert reduced.indicators.triangle.n_nodes == 4

    def test_report_arrays_are_read_only(self, small_tensor):
        report = build_flag_report(small_tensor)
        arrays = [report.tensor.counts, report.triangle.values, report.revision.citing]
        arrays += [cells.values for cells in report.transitions.values()]
        arrays += list(report.value_sets.values())
        assert report.links[0].size
        arrays += list(report.links)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert build_flag_report(small_tensor).thresholds == report.thresholds

    def test_report_dicts_are_its_own(self, small_tensor):
        # The indicator mappings are shared read-only: no report can change
        # what a later report on the tensor reads.
        report = build_flag_report(small_tensor)
        for name in ("transitions", "value_sets", "statistics"):
            mapping = getattr(report, name)
            with pytest.raises(TypeError):
                mapping[next(iter(mapping))] = None
            with pytest.raises(AttributeError):
                mapping.clear()
        again = build_flag_report(small_tensor)
        assert len(again.value_sets) == 11 and len(again.transitions) == 3

    def test_reports_are_the_tensors_indicators_plus_flags(self, small_tensor):
        ind = small_tensor.indicators
        inherited = [f.name for f in dataclasses.fields(flags.Indicators)]
        for k in (0.0, 1.0, 2.5):
            report = build_flag_report(small_tensor, k=k)
            for name in inherited:
                assert getattr(report, name) is getattr(ind, name), name
        assert not set(inherited) & set(vars(flags.FlagReport)["__annotations__"])


# The report attributes built on first read, not by build_flag_report.
LAZY_VIEWS = ("thresholds", "monotonic_up", "monotonic_down", "revision_flagged",
              "triangle_flagged_nodes")


class TestLazyViews:
    """The thresholds and journal families are views: equal to what an
    eager report computed, and built only when read."""

    @pytest.mark.parametrize("drop_loops", [True, False])
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.5])
    def test_views_equal_the_eager_report(self, k, drop_loops):
        flagged = 0
        for tensor in _pin_tensors():
            report = build_flag_report(tensor, k=k, drop_loops=drop_loops)
            eager = eager_flag_report(tensor, k, drop_loops)
            assert report.thresholds == eager["thresholds"]
            for name in FAMILIES:
                assert families_of(getattr(report, name)) == families_of(eager[name]), name
            for got, want in zip(report.links, eager["links"]):
                assert got.tobytes() == want.tobytes()
            assert report.loops_flagged == eager["loops_flagged"]
            flagged += sum(ids.size for name in FAMILIES for ids in eager[name].values())
        assert flagged

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.5])
    def test_link_threshold_view_is_the_one_the_link_rule_used(self, rng, k, monkeypatch):
        used = []
        inner = flags.flag_links

        def recording(triangle, threshold, drop_loops=True):
            used.append(threshold)
            return inner(triangle, threshold, drop_loops)

        monkeypatch.setattr(flags, "flag_links", recording)
        report = build_flag_report(make_tensor(random_active_grids(rng, 9)), k=k)
        (threshold,) = used
        assert report.thresholds["links"] == threshold
        assert report.thresholds["links"].lower.hex() == threshold.lower.hex()

    def test_thresholds_are_read_only(self, small_tensor):
        # The journal families read the thresholds on first read, so a
        # writable mapping would let a caller change them first.
        report = build_flag_report(small_tensor, k=1.0)
        with pytest.raises(TypeError):
            report.thresholds["revision_cited"] = ThresholdSpec.of(0.0, 0.0, 1.0)
        eager = eager_flag_report(small_tensor, 1.0, True)
        assert families_of(report.revision_flagged) == families_of(eager["revision_flagged"])

    def test_a_sweep_reading_only_the_links_builds_no_view(self, small_tensor, monkeypatch):
        builds = count_cached_builds(
            monkeypatch, FlagReport, (*LAZY_VIEWS, "_families", "hot_links")
        )
        ks = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
        for k in ks:
            report = build_flag_report(small_tensor, k=k)
            assert len(report.hot_links) == report.links[0].size
        assert builds == {**dict.fromkeys((*LAZY_VIEWS, "_families"), 0),
                          "hot_links": len(ks)}

    def test_reading_one_family_builds_all_four_once(self, small_tensor, monkeypatch):
        builds = count_cached_builds(monkeypatch, FlagReport, (*LAZY_VIEWS, "_families"))
        report = build_flag_report(small_tensor, k=1.0)
        report.revision_flagged
        assert builds == {**dict.fromkeys(LAZY_VIEWS, 0), "thresholds": 1,
                          "revision_flagged": 1, "_families": 1}
        for name in FAMILIES:
            getattr(report, name)
        assert builds == {**dict.fromkeys(LAZY_VIEWS, 1), "_families": 1}

    @pytest.mark.parametrize("k", [0.0, 1.0, 2.5])
    def test_the_sidecar_lists_each_family_as_its_view(self, k, tmp_path):
        # FAMILIES above is written independently of flags.FAMILIES.
        assert flags.FAMILIES == FAMILIES
        for tensor in _pin_tensors():
            report = build_flag_report(tensor, k=k)
            write_flag_journal_reports(tmp_path, report)
            sidecar = json.loads((tmp_path / "journal_flags.json").read_text("utf-8"))
            assert sidecar["counts"].keys() == sidecar["flagged"].keys() == set(FAMILIES)
            names = report.tensor.registry.names
            for name in FAMILIES:
                view = getattr(report, name)
                assert sidecar["flagged"][name] == {
                    d: [names[i] for i in view[d].tolist()] for d in DIRECTIONS
                }, name
                assert sidecar["counts"][name] == {d: view[d].size for d in DIRECTIONS}, name


def test_registry_and_partition_hash_as_they_compare():
    # Their dict fields stay out of the hash, and == still compares them.
    for make in (lambda: JournalRegistry.from_names(["A", "B"]),
                 lambda: CommunityPartition({"A": 0}, 0.1, 0)):
        one, two = make(), make()
        assert one == two and hash(one) == hash(two) and len({one, two}) == 1
    registry = JournalRegistry.from_names(["A"])
    aliased = JournalRegistry(registry.names, {"A": "A", "Old A": "A"})
    assert aliased != registry and len({registry, aliased}) == 2


def test_array_holders_compare_and_hash_by_identity(small_tensor):
    # Field-wise == on arrays raises, or compares one-cell arrays by value.
    report = build_flag_report(small_tensor)
    year = YearMatrix.from_cells("2011", {("A", "B"): 1})
    holders = [year, small_tensor, report.triangle, report.revision, small_tensor.indicators,
               report]
    for holder in holders:
        twin = copy.copy(holder)
        assert holder == holder and holder != twin
        assert holder in [twin, holder] and twin not in [holder]
        assert len({holder, twin, holder}) == 2
