from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from citeheat import flags
from citeheat.corpus import (
    PAIRS,
    JournalRegistry,
    YearMatrix,
    apply_name_changes,
    build_common_set,
)
from citeheat.entropy import TriangleCells, margin_totals
from citeheat.errors import DataError
from citeheat.flags import (
    ThresholdSpec,
    _below_lower,
    _monotonic,
    build_flag_report,
    compute_threshold,
    flag_links,
    remove_outliers,
)

from helpers import (
    add_at_margins,
    dyad_fixture_cells,
    make_tensor,
    oracle_triangle,
    per_index_links,
    random_active_grids,
    three_term_triangle,
    triangle_of,
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
    return flag_links(triangle, compute_threshold(triangle.values, k), drop_loops=drop_loops)


def _triangle_of(values) -> TriangleCells:
    values = np.asarray(values, dtype=float)
    n = len(values)
    return TriangleCells(
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


class TestFlagMonotonic:
    def test_requires_both_intervals(self):
        up, down = _monotonic_of([0, 0, 0, 0, 0, 10], [1, 1, 1, 1, 1, 1])
        assert up == frozenset()
        assert down == frozenset()

    def test_degenerate_equal_values_flag_nothing(self):
        up, down = _monotonic_of([3, 3, 3, 3], [3, 3, 3, 3])
        assert up == frozenset() and down == frozenset()

    def test_injected_climber_is_the_only_flag(self):
        up, down = _monotonic_of([0, 0, 0, 0, 0, 10], [1, 0, 1, 0, 1, 12])
        assert up == frozenset({5})
        assert down == frozenset()

    def test_decliner(self):
        up, down = _monotonic_of([0, 0, 0, 0, 0, -10], [0, 1, 0, 1, 0, -12])
        assert down == frozenset({5})
        assert up == frozenset()


class TestFlagRevision:
    def test_all_zero_flags_nothing(self):
        assert _revision_flags_of([0.0] * 5) == frozenset()

    def test_strongly_negative_node_flagged(self):
        values = [0.1, 0.2, 0.0, -0.1, 0.1, -5.0]
        assert _revision_flags_of(values) == frozenset({5})

    def test_matches_brute_force_filter(self, rng):
        values = rng.normal(0, 1, size=10)
        mean, sd = values.mean(), values.std()
        expected = frozenset(int(i) for i in range(10) if values[i] < mean - 1.0 * sd)
        assert _revision_flags_of(values) == expected


class TestFlagLinks:
    def test_worked_threshold_from_reported_dyad(self):
        cells = _triangle_of([(1.251 + 2.465 - 4.728) / 1000.0, 0.0, 0.0])
        explicit = ThresholdSpec(k=1.0, mean=0.0, sd=0.0, upper=0.0, lower=-0.935e-3)
        hot = flag_links(cells, explicit, drop_loops=False)
        assert [(c, d) for c, d, _ in hot] == [(0, 1)]

    def test_boundary_equal_not_flagged(self):
        cells = _triangle_of([-1.0, 1.0])  # mean 0, sd exactly 1
        assert _hot(cells, drop_loops=False) == ()

    def test_injected_cell_found_by_oracle_and_flags(self, rng):
        grids = random_active_grids(rng, 8, density=0.9, high=50)
        for grid, count in zip(grids, (20, 45, 130)):  # inject a hot cell
            grid[2, 6] = count
        tensor = make_tensor(grids)
        cells = triangle_of(tensor)
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
        cells = TriangleCells(
            citing=np.array([0, 1, 2, 3, 4, 5]),
            cited=np.array([0, 2, 3, 4, 5, 1]),  # first cell is a loop
            values=values,
            n_nodes=6,
        )
        with_loops = _hot(cells, drop_loops=False)
        without = _hot(cells, drop_loops=True)
        assert {(c, d) for c, d, _ in with_loops} == {(0, 0), (1, 2)}
        assert {(c, d) for c, d, _ in without} == {(1, 2)}


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

    def test_empty_list_is_identity(self, small_tensor):
        assert remove_outliers(small_tensor, []) is small_tensor

    def test_unknown_node_errors(self, small_tensor):
        with pytest.raises(DataError, match="unknown"):
            remove_outliers(small_tensor, ["Nope"])

    def test_borderline_cell_crosses_after_removal(self):
        tensor = _hub_fixture_tensor()
        hot_before = {(c, d) for c, d, _ in _hot(triangle_of(tensor))}
        assert hot_before == {(4, 0)}  # only the hub cell

        reduced = remove_outliers(tensor, ["J004"])
        names = reduced.registry.names
        hot_after = {
            (names[c], names[d])
            for c, d, _ in _hot(triangle_of(reduced))
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


class TestReportAndProperties:
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
        for direction in ("cited", "citing"):
            assert base.monotonic_up[direction] == scaled.monotonic_up[direction]
            assert base.monotonic_down[direction] == scaled.monotonic_down[direction]
            assert base.revision_flagged[direction] == scaled.revision_flagged[direction]
            assert (
                base.triangle_flagged_nodes[direction]
                == scaled.triangle_flagged_nodes[direction]
            )

    def test_rerun_is_deterministic(self, small_tensor):
        a = build_flag_report(small_tensor)
        b = build_flag_report(small_tensor)
        assert a.hot_links == b.hot_links
        assert a.monotonic_up == b.monotonic_up
        assert a.thresholds == b.thresholds

    def test_monotonic_sets_disjoint_and_strict(self, rng):
        grids = random_active_grids(rng, 9, density=0.6, high=60)
        report = build_flag_report(make_tensor(grids))
        for direction in ("cited", "citing"):
            assert not (report.monotonic_up[direction] & report.monotonic_down[direction])

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

    def test_revision_of_prediction_runs_once(self, small_tensor, monkeypatch):
        calls = []
        inner = flags.revision_of_prediction

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(flags, "revision_of_prediction", counted)
        report = build_flag_report(small_tensor)
        assert len(calls) == 1
        assert set(report.revision_node_margins) == {"cited", "citing"}

    @pytest.mark.parametrize("drop_loops", [True, False])
    def test_every_flag_set_matches_brute_force_over_report_arrays(self, rng, drop_loops):
        grids = random_active_grids(rng, 12, density=0.7, high=60)
        for g in grids:
            np.fill_diagonal(g, 9)  # live self-citation cells
        report = build_flag_report(make_tensor(grids), k=0.5, drop_loops=drop_loops)
        n = report.tensor.n_nodes

        value_sets = {"links": report.triangle.values}
        for d in ("cited", "citing"):
            for cells, arrays in (
                (report.revision, report.revision_node_margins),
                (report.triangle, report.triangle_node_margins),
            ):
                assert np.array_equal(arrays[d], margin_totals(cells, d))
            value_sets[f"revision_{d}"] = report.revision_node_margins[d]
            value_sets[f"triangle_{d}"] = report.triangle_node_margins[d]
            for a, b in ((0, 1), (1, 2), (0, 2)):
                value_sets[f"margin_{a}{b}_{d}"] = report.margins[((a, b), d)]
        assert set(report.thresholds) == set(value_sets)
        bounds = {}
        for key, values in value_sets.items():
            mean, sd = float(np.mean(values)), float(np.std(values))
            bounds[key] = (mean - 0.5 * sd, mean + 0.5 * sd)
            spec = report.thresholds[key]
            assert (spec.k, spec.mean, spec.sd) == (0.5, mean, sd)
            assert (spec.lower, spec.upper) == bounds[key]

        def below(key):
            return {i for i in range(n) if value_sets[key][i] < bounds[key][0]}

        def above(key):
            return {i for i in range(n) if value_sets[key][i] > bounds[key][1]}

        for d in ("cited", "citing"):
            assert report.monotonic_up[d] == above(f"margin_01_{d}") & above(f"margin_12_{d}")
            assert report.monotonic_down[d] == below(f"margin_01_{d}") & below(f"margin_12_{d}")
            assert report.revision_flagged[d] == below(f"revision_{d}")
            assert report.triangle_flagged_nodes[d] == below(f"triangle_{d}")
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
    three-term triangle, ``np.add.at`` margins, ``math.fsum`` over a list and
    per-index link tuples gave."""

    @pytest.mark.parametrize("drop_loops", [True, False])
    def test_report_equals_the_earlier_code_paths(self, drop_loops):
        for tensor in _pin_tensors():
            report = build_flag_report(tensor, k=0.5, drop_loops=drop_loops)
            assert report.triangle.values.tobytes() == three_term_triangle(tensor).tobytes()
            for pair in PAIRS:
                cells = report.transitions[pair]
                assert cells.grand_sum.hex() == math.fsum(cells.values.tolist()).hex()
                for d in ("cited", "citing"):
                    expected = add_at_margins(cells, d).tobytes()
                    assert report.margins[(pair, d)].tobytes() == expected
            assert report.revision.grand_sum.hex() == math.fsum(
                report.revision.values.tolist()).hex()
            for d in ("cited", "citing"):
                for cells, arrays in (
                    (report.revision, report.revision_node_margins),
                    (report.triangle, report.triangle_node_margins),
                ):
                    assert arrays[d].tobytes() == add_at_margins(cells, d).tobytes()

            lower = report.thresholds["links"].lower
            assert report.hot_links == per_index_links(report.triangle, lower, drop_loops)
            every_hot = per_index_links(report.triangle, lower, drop_loops=False)
            loops = sum(c == d for c, d, _ in every_hot)
            assert report.loops_flagged == (loops if drop_loops else 0)
            for link in report.hot_links:
                assert tuple(map(type, link)) == (int, int, float)

    def test_dyad_pins_are_not_vacuous(self):
        report = build_flag_report(_dyad_tensor(), k=0.5)
        assert len(report.hot_links) >= 1
        assert np.count_nonzero(report.triangle.values) >= 1


class TestKValidation:
    @pytest.mark.parametrize("k", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_non_finite_or_negative_k_raises(self, small_tensor, k):
        with pytest.raises(ValueError, match="k must be"):
            build_flag_report(small_tensor, k=k)

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
    for (pair, d), values in report.margins.items():
        arrays[f"margin {pair} {d}"] = values.tobytes()
    for family, cells, margins in (
        ("revision", report.revision, report.revision_node_margins),
        ("triangle", report.triangle, report.triangle_node_margins),
    ):
        for name in ("citing", "cited", "values"):
            arrays[f"{family} {name}"] = getattr(cells, name).tobytes()
        for d, values in margins.items():
            arrays[f"{family} margin {d}"] = values.tobytes()
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
            for name in ("monotonic_up", "monotonic_down", "revision_flagged",
                         "triangle_flagged_nodes", "hot_links", "loops_flagged"):
                assert getattr(cached, name) == getattr(fresh, name), name
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
        for k in (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0):
            build_flag_report(small_tensor, k=k)
        assert calls == {
            "cell_divergence": 3, "revision_of_prediction": 1, "triangle_evaluation": 1,
        }

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
        arrays += list(report.margins.values())
        arrays += list(report.revision_node_margins.values())
        arrays += list(report.triangle_node_margins.values())
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert build_flag_report(small_tensor).thresholds == report.thresholds

    def test_report_dicts_are_its_own(self, small_tensor):
        report = build_flag_report(small_tensor)
        report.margins.clear()
        report.transitions.clear()
        again = build_flag_report(small_tensor)
        assert len(again.margins) == 6 and len(again.transitions) == 3
