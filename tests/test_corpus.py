from __future__ import annotations

import logging

import numpy as np
import pytest

from citeheat.corpus import (
    AlignedTensor,
    YearMatrix,
    apply_name_changes,
    build_common_set,
    normalize_name,
    parse_edge_list,
    parse_rename_file,
    relative_frequencies,
)
from citeheat.errors import DataError

from helpers import exact_frequencies


def _matrix(label, cells):
    return YearMatrix(year_label=label, cells=dict(cells))


def _aligned(year_cells_by_name, labels=("2011", "2012", "2013")):
    matrices = [_matrix(label, cells) for label, cells in zip(labels, year_cells_by_name)]
    registry, renamed = apply_name_changes(matrices, [])
    return build_common_set(registry, renamed)


class TestParseEdgeList:
    def test_duplicates_sum(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t3\nA\tB\t2\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert matrix.cells == {("A", "B"): 5}
        assert matrix.grand_total == 5

    def test_comments_only_file_is_empty(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("# header\n# another\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert matrix.cells == {}
        assert matrix.grand_total == 0

    def test_totals_match_hand_tally(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t4\nB\tC\t1\nC\tA\t2\nA\tC\t3\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert matrix.grand_total == 10
        assert matrix.citing_totals == {"A": 7, "B": 1, "C": 2}
        assert matrix.cited_totals == {"B": 4, "C": 4, "A": 2}

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t1\nA\tB\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2"):
            parse_edge_list(path, "2011")

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\tlots\n", encoding="utf-8")
        with pytest.raises(DataError, match="not an integer"):
            parse_edge_list(path, "2011")

    def test_non_positive_count(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t0\n", encoding="utf-8")
        with pytest.raises(DataError, match="positive"):
            parse_edge_list(path, "2011")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_edge_list(tmp_path / "nope.tsv", "2011")

    def test_names_are_normalized(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text(" A \tB\t1\nA\t B\t2\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert matrix.cells == {("A", "B"): 3}


class TestNormalizeName:
    def test_nfc_and_ascii_trim(self):
        composed = "Arché"          # e-acute, precomposed
        decomposed = "Arché"       # e + combining acute
        assert normalize_name(f"  {decomposed}\t") == composed

    def test_non_ascii_whitespace_is_kept(self):
        assert normalize_name(" A") == " A"


class TestApplyNameChanges:
    def test_collision_aggregates(self):
        matrix = _matrix("2011", {("X", "A"): 2, ("Y", "A"): 3})
        _, renamed = apply_name_changes([matrix], [("X", "Y")])
        assert renamed[0].cells == {("Y", "A"): 5}

    def test_empty_rename_list_is_identity(self):
        matrix = _matrix("2011", {("A", "B"): 1})
        registry, renamed = apply_name_changes([matrix], [])
        assert renamed[0].cells == matrix.cells
        assert registry.names == ("A", "B")

    def test_chain_resolves_transitively(self):
        matrix = _matrix("2011", {("X", "X"): 1})
        registry, renamed = apply_name_changes([matrix], [("X", "Y"), ("Y", "Z")])
        assert renamed[0].cells == {("Z", "Z"): 1}
        assert registry.resolve("X") == "Z"
        assert registry.resolve("Y") == "Z"

    def test_cycle_is_an_error(self):
        matrix = _matrix("2011", {("A", "B"): 1})
        with pytest.raises(DataError, match="cycle"):
            apply_name_changes([matrix], [("A", "B"), ("B", "A")])

    def test_self_rename_warns_and_is_ignored(self, caplog):
        matrix = _matrix("2011", {("A", "B"): 1})
        with caplog.at_level(logging.WARNING, logger="citeheat.corpus"):
            _, renamed = apply_name_changes([matrix], [("A", "A")])
        assert "self-rename" in caplog.text
        assert renamed[0].cells == matrix.cells

    def test_conflicting_renames_rejected(self):
        matrix = _matrix("2011", {("A", "B"): 1})
        with pytest.raises(DataError, match="conflicting"):
            apply_name_changes([matrix], [("A", "B"), ("A", "C")])

    def test_rename_resolution_is_order_independent(self):
        cells = {("X", "Q"): 2, ("Y", "Q"): 1, ("Q", "X"): 4}
        renames = [("X", "Y"), ("Y", "Z"), ("Q", "R")]
        base_reg, base = apply_name_changes([_matrix("2011", cells)], renames)
        perm_reg, perm = apply_name_changes([_matrix("2011", cells)], renames[::-1])
        assert base[0].cells == perm[0].cells
        assert base_reg.names == perm_reg.names

    def test_grand_total_conserved(self):
        cells = {("X", "A"): 2, ("Y", "A"): 3, ("A", "X"): 7}
        _, renamed = apply_name_changes([_matrix("2011", cells)], [("X", "Y")])
        assert renamed[0].grand_total == 12

    def test_registry_ids_are_lexicographic(self):
        matrix = _matrix("2011", {("B", "A"): 1, ("C", "A"): 1})
        registry, _ = apply_name_changes([matrix], [])
        assert registry.names == ("A", "B", "C")
        assert [registry.id_of(n) for n in ("A", "B", "C")] == [0, 1, 2]

    def test_resolution_idempotent(self):
        matrix = _matrix("2011", {("X", "A"): 1})
        registry, _ = apply_name_changes([matrix], [("X", "Y")])
        assert registry.resolve(registry.resolve("X")) == "Y"
        with pytest.raises(DataError, match="unknown"):
            registry.resolve("Missing Journal")


class TestParseRenameFile:
    def test_basic(self, tmp_path):
        path = tmp_path / "renames.tsv"
        path.write_text("# old\tnew\nX\tY\n", encoding="utf-8")
        assert parse_rename_file(path) == [("X", "Y")]

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "renames.tsv"
        path.write_text("X\tY\tZ\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1"):
            parse_rename_file(path)


class TestBuildCommonSet:
    def test_non_citing_node_dropped_even_if_heavily_cited(self):
        # D never cites in 2012, so D's row and column vanish everywhere.
        years = [
            {("A", "B"): 1, ("B", "A"): 1, ("D", "A"): 5, ("A", "D"): 9},
            {("A", "B"): 1, ("B", "A"): 1, ("A", "D"): 9},
            {("A", "B"): 1, ("B", "A"): 1, ("D", "A"): 5, ("A", "D"): 9},
        ]
        tensor = _aligned(years)
        assert tensor.registry.names == ("A", "B")
        assert tensor.n_cells == 2

    def test_all_active_keeps_everyone(self):
        years = [{("A", "B"): 1, ("B", "A"): 2}] * 3
        tensor = _aligned(years)
        assert tensor.registry.names == ("A", "B")

    def test_pair_masks_follow_zero_rules(self):
        # (A, B) is absent only in the first year.
        years = [
            {("B", "A"): 1, ("A", "C"): 1, ("C", "A"): 1},
            {("A", "B"): 2, ("B", "A"): 1, ("A", "C"): 1, ("C", "A"): 1},
            {("A", "B"): 3, ("B", "A"): 1, ("A", "C"): 1, ("C", "A"): 1},
        ]
        tensor = _aligned(years)
        ab = (tensor.registry.id_of("A"), tensor.registry.id_of("B"))
        idx = next(
            i for i in range(tensor.n_cells)
            if (tensor.citing[i], tensor.cited[i]) == ab
        )
        assert not tensor.pair_valid((0, 1))[idx]
        assert not tensor.pair_valid((0, 2))[idx]
        assert tensor.pair_valid((1, 2))[idx]
        assert not tensor.tri_valid[idx]

    def test_tri_valid_subset_of_pair_masks(self, small_tensor):
        tri = small_tensor.tri_valid
        both = (
            small_tensor.pair_valid((0, 1))
            & small_tensor.pair_valid((1, 2))
            & small_tensor.pair_valid((0, 2))
        )
        assert not np.any(tri & ~both)

    def test_wrong_year_count(self):
        matrices = [_matrix("2011", {("A", "B"): 1})] * 2
        registry, renamed = apply_name_changes(matrices, [])
        with pytest.raises(DataError, match="exactly 3"):
            build_common_set(registry, renamed)

    def test_empty_intersection(self):
        years = [{("A", "B"): 1}, {("B", "A"): 1}, {("A", "B"): 1}]
        matrices = [_matrix(l, c) for l, c in zip(("2011", "2012", "2013"), years)]
        registry, renamed = apply_name_changes(matrices, [])
        with pytest.raises(DataError, match="no journal"):
            build_common_set(registry, renamed)

    def test_input_order_independence(self):
        years = [
            {("B", "A"): 1, ("A", "B"): 2, ("C", "A"): 3},
            {("C", "A"): 3, ("A", "B"): 2, ("B", "A"): 1},
            {("A", "B"): 2, ("C", "A"): 3, ("B", "A"): 1},
        ]
        t1 = _aligned(years)
        t2 = _aligned([dict(reversed(list(c.items()))) for c in years])
        assert t1.registry.names == t2.registry.names
        assert np.array_equal(t1.counts, t2.counts)
        assert np.array_equal(t1.citing, t2.citing)

    def test_year_matrix_round_trip(self, small_tensor):
        view = small_tensor.year_matrix(0)
        assert view.grand_total == int(small_tensor.grand_totals[0])
        assert all(count > 0 for count in view.cells.values())


class TestRelativeFrequencies:
    def test_two_cell_values(self):
        freqs = relative_frequencies(_matrix("2011", {("A", "B"): 1, ("B", "A"): 3}))
        assert freqs == {("A", "B"): 0.25, ("B", "A"): 0.75}

    def test_uniform_four_cells(self):
        cells = {("A", "B"): 5, ("B", "A"): 5, ("A", "C"): 5, ("C", "A"): 5}
        freqs = relative_frequencies(_matrix("2011", cells))
        assert all(v == 0.25 for v in freqs.values())

    def test_matches_exact_rational_oracle(self, rng):
        cells = {
            (f"N{i}", f"N{(i + 3) % 10}"): int(rng.integers(1, 50))
            for i in range(10)
        }
        matrix = _matrix("2011", cells)
        freqs = relative_frequencies(matrix)
        exact = exact_frequencies(cells)
        assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-12)
        for key, value in freqs.items():
            assert value == pytest.approx(float(exact[key]), rel=1e-15)

    def test_empty_matrix_errors(self):
        with pytest.raises(DataError, match="empty"):
            relative_frequencies(_matrix("2011", {}))

    def test_scaling_a_year_leaves_frequencies_unchanged(self):
        cells = {("A", "B"): 3, ("B", "C"): 4, ("C", "A"): 9}
        base = relative_frequencies(_matrix("2011", cells))
        scaled = relative_frequencies(
            _matrix("2011", {k: 7 * v for k, v in cells.items()})
        )
        assert base == scaled


def test_aligned_tensor_frequencies_sum_to_one(small_tensor: AlignedTensor):
    for year in range(3):
        freqs = small_tensor.frequencies(year)
        assert float(freqs.sum()) == pytest.approx(1.0, abs=1e-12)
