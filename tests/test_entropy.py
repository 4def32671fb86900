from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citeheat.corpus import PAIRS
from citeheat.entropy import (
    DIRECTIONS,
    cell_divergence,
    kl_term,
    margin_totals,
    ordered_fsum,
    revision_of_prediction,
    segment_fsum,
    to_unit,
    triangle_evaluation,
)
from citeheat.errors import DataError
from citeheat.flags import compute_threshold, evaluate_indicators, threshold_key

from helpers import (
    exact_float_sum,
    fsum_margins,
    make_tensor,
    oracle_pair,
    oracle_triangle,
    random_active_grids,
    triangle_anchor_tensor,
)


def _grid(rows):
    return np.array(rows, dtype=np.int64)


def _sign(x) -> int:
    return int(x > 0) - int(x < 0)


class TestKlTerm:
    def test_zero_posterior_contributes_zero_bits(self):
        values = kl_term(np.array([0.0, 0.25]), np.array([0.3, 0.5]))
        assert values[0] == 0.0
        assert values[1] == pytest.approx(0.25 * math.log2(0.5), rel=1e-12)

    def test_posterior_on_zero_prior_fails_loudly(self):
        with pytest.raises(DataError, match="zero prior"):
            kl_term(np.array([0.5]), np.array([0.0]))


class TestCellDivergence:
    def test_identical_years_give_zero(self):
        grid = _grid([[0, 3], [5, 0]])
        tensor = make_tensor([grid, grid, grid])
        cells = cell_divergence(tensor, (0, 1))
        assert np.all(cells.values == 0.0)
        assert cells.grand_sum == 0.0

    def test_two_cell_system(self):
        # p = (0.5, 0.5), q = (0.25, 0.75)
        tensor = make_tensor([
            _grid([[0, 1], [1, 0]]),
            _grid([[0, 1], [3, 0]]),
            _grid([[0, 1], [3, 0]]),
        ])
        cells = cell_divergence(tensor, (0, 1))
        expected = 0.25 * math.log2(0.5) + 0.75 * math.log2(1.5)
        assert cells.grand_sum == pytest.approx(expected, rel=1e-12)
        assert cells.grand_sum == pytest.approx(0.188722, abs=5e-7)

    def test_posterior_zero_cell_is_valid_and_zero(self):
        tensor = make_tensor([
            _grid([[0, 3], [7, 0]]),
            _grid([[0, 0], [10, 0]]),   # (A, B) vanished
            _grid([[0, 1], [9, 0]]),
        ])
        cells = cell_divergence(tensor, (0, 1))
        ab = [i for i in range(len(cells.values))
              if (cells.citing[i], cells.cited[i]) == (0, 1)]
        assert len(ab) == 1
        assert cells.values[ab[0]] == 0.0

    def test_unknown_pair_rejected(self, small_tensor):
        with pytest.raises(ValueError):
            cell_divergence(small_tensor, (2, 0))


class TestMargins:
    def test_single_cell_appears_in_both_directions(self):
        tensor = make_tensor([
            _grid([[0, 2], [4, 0]]),
            _grid([[0, 3], [3, 0]]),
            _grid([[0, 3], [3, 0]]),
        ])
        cells = cell_divergence(tensor, (0, 1))
        cited = margin_totals(cells, "cited")
        citing = margin_totals(cells, "citing")
        ab = cells.values[[(cells.citing[i], cells.cited[i]) == (0, 1)
                           for i in range(len(cells.values))]][0]
        assert cited[1] == pytest.approx(ab, rel=1e-12)
        assert citing[0] == pytest.approx(ab, rel=1e-12)

    def test_decomposability(self, small_tensor):
        for pair in ((0, 1), (1, 2), (0, 2)):
            cells = cell_divergence(small_tensor, pair)
            for direction in ("cited", "citing"):
                margins = margin_totals(cells, direction)
                assert ordered_fsum(margins) == pytest.approx(
                    cells.grand_sum, rel=1e-9, abs=1e-15
                )

    def test_margins_match_dense_oracle(self, rng):
        grids = random_active_grids(rng, 5, density=0.8, high=25)
        tensor = make_tensor(grids)
        cells = cell_divergence(tensor, (0, 1))
        oracle = oracle_pair(grids[0], grids[1])
        assert margin_totals(cells, "cited") == pytest.approx(
            oracle["cited"], rel=1e-9, abs=1e-15
        )
        assert margin_totals(cells, "citing") == pytest.approx(
            oracle["citing"], rel=1e-9, abs=1e-15
        )

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from([0.3, 0.6, 0.9]))
    def test_every_margin_is_the_per_journal_fsum(self, seed, n, density):
        grids = random_active_grids(np.random.default_rng(seed), n, density=density, high=60)
        ind = evaluate_indicators(make_tensor(grids))
        cell_sets = {threshold_key("margin", d, pair): (ind.transitions[pair], d)
                     for pair in PAIRS for d in DIRECTIONS}
        cell_sets.update({threshold_key(family, d): (cells, d) for d in DIRECTIONS
                          for family, cells in (("revision", ind.revision),
                                                ("triangle", ind.triangle))})
        assert {*cell_sets, "links"} == set(ind.value_sets)
        for key, (cells, d) in cell_sets.items():
            assert ind.value_sets[key].tobytes() == fsum_margins(cells, d).tobytes(), key

    def test_bad_direction(self, small_tensor):
        cells = cell_divergence(small_tensor, (0, 1))
        with pytest.raises(ValueError, match="direction"):
            margin_totals(cells, "rows")


class TestRevision:
    def test_identical_first_two_years_give_zero(self):
        grid0 = _grid([[0, 3], [5, 0]])
        tensor = make_tensor([grid0, grid0, _grid([[0, 4], [9, 0]])])
        revision = revision_of_prediction(tensor)
        assert np.all(revision.values == 0.0)
        assert np.all(margin_totals(revision, "cited") == 0.0)

    def test_midyear_equal_to_final_gives_full_improvement(self):
        grids = [
            _grid([[0, 2, 1], [5, 0, 0], [1, 1, 0]]),
            _grid([[0, 4, 1], [3, 0, 0], [1, 2, 0]]),
            _grid([[0, 4, 1], [3, 0, 0], [1, 2, 0]]),
        ]
        tensor = make_tensor(grids)
        revision = margin_totals(revision_of_prediction(tensor), "citing")
        margins = margin_totals(cell_divergence(tensor, (0, 2)), "citing")
        assert revision == pytest.approx(margins, rel=1e-9, abs=1e-15)

    def test_two_cell_row_value_and_identity(self):
        # Row of A: frequencies p = (.2, .2), p' = (.25, .15), q = (.3, .1),
        # grand total 20 every year; filler cells keep other rows static.
        grids = [
            _grid([[0, 4, 4], [10, 0, 0], [2, 0, 0]]),
            _grid([[0, 5, 3], [10, 0, 0], [2, 0, 0]]),
            _grid([[0, 6, 2], [10, 0, 0], [2, 0, 0]]),
        ]
        tensor = make_tensor(grids)
        revision = margin_totals(revision_of_prediction(tensor), "citing")
        expected = 0.3 * math.log2(1.25) + 0.1 * math.log2(0.75)
        assert revision[0] == pytest.approx(expected, rel=1e-12)
        assert revision[0] == pytest.approx(0.055075, abs=5e-7)

        i_qp = 0.3 * math.log2(1.5) + 0.1 * math.log2(0.5)
        i_qpmid = 0.3 * math.log2(1.2) + 0.1 * math.log2(2 / 3)
        assert i_qp == pytest.approx(0.075489, abs=5e-7)
        assert i_qpmid == pytest.approx(0.020414, abs=5e-7)
        assert revision[0] == pytest.approx(i_qp - i_qpmid, rel=1e-12)

    def test_excluded_cells_counted(self):
        # (A, B) has posterior mass but no in-between support.
        grids = [
            _grid([[0, 3], [5, 0]]),
            _grid([[0, 0], [8, 0]]),
            _grid([[0, 2], [6, 0]]),
        ]
        tensor = make_tensor(grids)
        assert revision_of_prediction(tensor).excluded_cells == 1

    def test_grand_sum_matches_node_sum(self, small_tensor):
        revision = revision_of_prediction(small_tensor)
        for direction in ("cited", "citing"):
            assert ordered_fsum(margin_totals(revision, direction)) == pytest.approx(
                revision.grand_sum, rel=1e-9, abs=1e-15
            )


class TestTriangle:
    def test_sign_rule_on_small_counts(self, rng):
        # sign(score) = sign(p' - q) * sign(p' - p): negative exactly when the
        # share moves strictly monotonically, 0 when p' equals an end. Shares
        # are compared as exact fractions; small counts make ties common.
        signs = set()
        for trial in range(60):
            n = int(rng.integers(1, 7))
            if trial % 2:
                grids = random_active_grids(rng, n, density=0.7, high=4)
            else:
                grid = rng.integers(1, 4, size=(n, n))
                shuffled = [rng.permutation(grid.ravel()).reshape(n, n) for _ in range(2)]
                grids = [grid, shuffled[0], 2 * shuffled[1]]
            cells = triangle_evaluation(make_tensor(grids))
            totals = [int(g.sum()) for g in grids]
            for c, d, score in zip(cells.citing, cells.cited, cells.values):
                p, p_mid, q = (Fraction(int(g[c, d]), t) for g, t in zip(grids, totals))
                sign = _sign(p_mid - q) * _sign(p_mid - p)
                assert _sign(score) == sign
                signs.add(sign)
        assert signs == {-1, 0, 1}

    def test_static_cell_scores_zero(self):
        grid = _grid([[0, 3], [5, 0]])
        cells = triangle_evaluation(make_tensor([grid, grid, grid]))
        assert np.all(cells.values == 0.0)

    def test_worked_dyad_example(self):
        tensor = triangle_anchor_tensor()
        cells = triangle_evaluation(tensor)
        idx = [i for i in range(len(cells.values))
               if (cells.citing[i], cells.cited[i]) == (0, 1)][0]
        score_mbits = to_unit(float(cells.values[idx]), "mbits")
        assert score_mbits == pytest.approx(1.251 + 2.465 - 4.728, abs=5e-4)

    def test_scores_match_high_precision_oracle(self, rng):
        grids = random_active_grids(rng, 8, density=0.95, high=50)
        tensor = make_tensor(grids)
        cells = triangle_evaluation(tensor)
        assert len(cells.values) >= 50
        oracle = oracle_triangle(grids)
        for i in range(len(cells.values)):
            expected = oracle["scores"][cells.citing[i], cells.cited[i]]
            assert cells.values[i] == pytest.approx(expected, rel=1e-12, abs=1e-18)
        stats = compute_threshold(cells.values, k=1.0)
        assert stats.mean == pytest.approx(oracle["mean"], rel=1e-9, abs=1e-18)
        assert stats.sd == pytest.approx(oracle["sd"], rel=1e-9, abs=1e-18)

    def test_empty_tri_valid_errors(self):
        grids = [
            _grid([[0, 1], [1, 0]]),
            _grid([[0, 1], [1, 0]]),
            _grid([[0, 1], [1, 0]]),
        ]
        grids[2][0, 1] = 0
        grids[0][1, 0] = 0  # no cell is positive in all three years
        with pytest.raises(DataError, match="all three"):
            triangle_evaluation(make_tensor(grids))

    def test_margins_single_cell(self):
        tensor = make_tensor([
            _grid([[0, 2], [6, 0]]),
            _grid([[0, 5], [3, 0]]),
            _grid([[0, 7], [1, 0]]),
        ])
        cells = triangle_evaluation(tensor)
        cited = margin_totals(cells, "cited")
        citing = margin_totals(cells, "citing")
        ab = [i for i in range(len(cells.values))
              if (cells.citing[i], cells.cited[i]) == (0, 1)][0]
        assert cited[1] == pytest.approx(float(cells.values[ab]), rel=1e-12)
        assert citing[0] == pytest.approx(float(cells.values[ab]), rel=1e-12)

    def test_margins_match_dense_oracle(self, rng):
        grids = random_active_grids(rng, 6, density=0.9, high=30)
        tensor = make_tensor(grids)
        cells = triangle_evaluation(tensor)
        oracle = oracle_triangle(grids)
        dense = np.nan_to_num(oracle["scores"], nan=0.0)
        assert margin_totals(cells, "cited") == pytest.approx(
            dense.sum(axis=0), rel=1e-9, abs=1e-15
        )
        assert margin_totals(cells, "citing") == pytest.approx(
            dense.sum(axis=1), rel=1e-9, abs=1e-15
        )
        total = ordered_fsum(cells.values)
        for direction in ("cited", "citing"):
            assert ordered_fsum(margin_totals(cells, direction)) == pytest.approx(
                total, rel=1e-9, abs=1e-15
            )


class TestProperties:
    def test_gibbs_non_negativity_same_support(self, rng):
        for _ in range(20):
            support = rng.random((6, 6)) < 0.6
            np.fill_diagonal(support, True)
            g0 = np.where(support, rng.integers(1, 40, (6, 6)), 0)
            g1 = np.where(support, rng.integers(1, 40, (6, 6)), 0)
            for c in range(6):  # keep every node citing-active
                g0[c, (c + 1) % 6] = max(1, g0[c, (c + 1) % 6])
                g1[c, (c + 1) % 6] = max(1, g1[c, (c + 1) % 6])
            tensor = make_tensor([g0, g1, g1])
            assert cell_divergence(tensor, (0, 1)).grand_sum >= -1e-12

    def test_gibbs_equality_iff_equal_distributions(self):
        grid = _grid([[0, 3], [9, 0]])
        tensor = make_tensor([grid, 4 * grid, grid])
        assert cell_divergence(tensor, (0, 1)).grand_sum == pytest.approx(0.0, abs=1e-12)

    def test_per_cell_revision_identity(self, small_tensor):
        mask = small_tensor.tri_valid
        p = small_tensor.frequencies(0)[mask]
        p_mid = small_tensor.frequencies(1)[mask]
        q = small_tensor.frequencies(2)[mask]
        lhs = q * np.log2(p_mid / p) + q * np.log2(q / p_mid)
        rhs = q * np.log2(q / p)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_scale_invariance_is_bit_exact(self, rng):
        grids = random_active_grids(rng, 5, density=0.8, high=20)
        scaled = [grids[0], 7 * grids[1], grids[2]]
        base = make_tensor(grids)
        bumped = make_tensor(scaled)
        for pair in ((0, 1), (1, 2), (0, 2)):
            a = cell_divergence(base, pair)
            b = cell_divergence(bumped, pair)
            assert np.array_equal(a.values, b.values)
            assert a.grand_sum == b.grand_sum
        assert np.array_equal(
            triangle_evaluation(base).values, triangle_evaluation(bumped).values
        )

    def test_determinism_bit_identical(self, small_tensor):
        a = cell_divergence(small_tensor, (0, 2))
        b = cell_divergence(small_tensor, (0, 2))
        assert np.array_equal(a.values, b.values)
        assert a.grand_sum == b.grand_sum


# Fixed seeds: the same examples on every run, no example database.
FSUM_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _outcome(summer, values):
    """``float.hex`` of the sum (exact bits; every NaN reads "nan"), or the
    exception type it raised."""
    try:
        return summer(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


@st.composite
def bulk_arrays(draw):
    """Up to 5,000 doubles with random signs, binary exponents drawn from a
    window inside [-1074, 996] (subnormals up to 1e300), scattered signed
    zeros and, optionally, the negation of a subset so that most of the sum
    cancels."""
    n = draw(st.integers(0, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = draw(st.sampled_from([-1074, -1040, -997, -300, -20, 0, 300, 990, 996]))
    width = draw(st.sampled_from([0, 5, 60, 2070]))
    lo, hi = max(centre - width, -1074), min(centre + width, 996)
    values = np.ldexp(
        rng.choice([-1.0, 1.0], n) * (1.0 + rng.random(n)), rng.integers(lo, hi + 1, n)
    )
    zeros = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    values[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
    if draw(st.booleans()):
        values = np.concatenate([values, -values[rng.random(n) < 0.9]])
        rng.shuffle(values)
    return values


class TestOrderedFsum:
    @FSUM_SETTINGS
    @given(st.lists(st.floats(width=64), max_size=60))
    def test_same_bits_or_exception_as_math_fsum(self, values):
        """Any doubles: subnormals, +-0, huge, inf and nan."""
        expected = _outcome(math.fsum, values)
        assert _outcome(ordered_fsum, np.array(values, dtype=float)) == expected

    @FSUM_SETTINGS
    @given(bulk_arrays())
    def test_bulk_arrays_match_math_fsum_and_the_exact_sum(self, values):
        got = ordered_fsum(values)
        assert got.hex() == math.fsum(values.tolist()).hex()
        assert got == exact_float_sum(values.tolist())

    @pytest.mark.parametrize("values, expected", [
        ([], 0.0),
        ([-0.0, -0.0], math.fsum([-0.0, -0.0])),
        ([-0.0, 0.0], 0.0),
        ([1e308, -1e308, 1e-300], 1e-300),
        ([1.7e308, 1.7e308, -1.7e308], OverflowError),
        ([float("inf"), 1.0], float("inf")),
        ([float("inf"), float("-inf")], ValueError),
        ([float("nan"), 1.0], float("nan")),
    ])
    def test_edge_cases(self, values, expected):
        got = _outcome(ordered_fsum, np.array(values, dtype=float))
        assert got == _outcome(math.fsum, values)
        assert got == (expected if isinstance(expected, type) else expected.hex())


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7e308, -1.7e308,
                  float("inf"), float("-inf"), float("nan")]


@st.composite
def segmented_arrays(draw):
    """``(index, values, n)`` for ``segment_fsum``: a ``bulk_arrays`` draw or
    up to 60 doubles of any kind, with up to four special values (signed
    zeros, subnormals, huge values, inf and nan) mixed in. The values fall
    on up to 12 random segments; one more segment holds only -0.0 and the
    last one stays empty."""
    values = draw(st.one_of(
        bulk_arrays(), st.lists(st.floats(width=64), max_size=60).map(np.array)
    ))
    specials = draw(st.lists(st.sampled_from(SPECIAL_VALUES), max_size=4))
    zeros = draw(st.integers(1, 3))
    values = np.concatenate([values, specials, [-0.0] * zeros])
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = rng.integers(0, n, values.size)
    index[-zeros:] = n
    order = rng.permutation(values.size)
    return index[order], values[order], n + 2


def _per_segment(summer, index, values, n):
    """``float.hex`` of each segment's sum, or the exception type raised."""
    try:
        return [total.hex() for total in summer(index, values, n)]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _fsum_segments(index, values, n):
    """``math.fsum`` of each segment's values, segment by segment."""
    return [math.fsum(values[index == s].tolist()) for s in range(n)]


class TestSegmentFsum:
    @FSUM_SETTINGS
    @given(segmented_arrays())
    def test_each_segment_matches_math_fsum_or_the_first_exception(self, segmented):
        index, values, n = segmented
        expected = _per_segment(_fsum_segments, index, values, n)
        assert _per_segment(segment_fsum, index, values, n) == expected
        if not isinstance(expected, type):
            assert expected[-2:] == [math.fsum([-0.0]).hex(), (0.0).hex()]

    @FSUM_SETTINGS
    @given(bulk_arrays(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_finite_segments_match_the_exact_sum(self, values, n, seed):
        index = np.random.default_rng(seed).integers(0, n, values.size)
        totals = segment_fsum(index, values, n)
        assert totals.dtype == np.float64 and totals.shape == (n,)
        for s in range(n):
            assert totals[s] == exact_float_sum(values[index == s].tolist())

    def test_no_segments(self):
        assert segment_fsum(np.array([], dtype=np.int64), np.array([]), 0).shape == (0,)
