from __future__ import annotations

import json
import logging
import random
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citeheat
from citeheat.cli import main
from citeheat.corpus import (
    PAIRS,
    AlignedTensor,
    YearMatrix,
    apply_name_changes,
    build_common_set,
    normalize_name,
    parse_edge_list,
    parse_rename_file,
    remove_outliers,
)
from citeheat.errors import DataError

from helpers import (
    cells_of,
    exact_frequencies,
    make_tensor,
    reference_ingest,
    run_python,
    without_journals,
)


def _matrix(label, cells):
    return YearMatrix.from_cells(label, dict(cells))


def _aligned(year_cells_by_name, labels=("2011", "2012", "2013")):
    matrices = [_matrix(label, cells) for label, cells in zip(labels, year_cells_by_name)]
    registry, renamed = apply_name_changes(matrices, [])
    return build_common_set(registry, renamed)


class TestParseEdgeList:
    def test_duplicates_sum(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t3\nA\tB\t2\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert cells_of(matrix) == {("A", "B"): 5}
        assert int(matrix.counts.sum()) == 5

    def test_comments_only_file_is_empty(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("# header\n# another\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert cells_of(matrix) == {}
        assert matrix.names == ()
        assert int(matrix.counts.sum()) == 0

    def test_totals_match_hand_tally(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t4\nB\tC\t1\nC\tA\t2\nA\tC\t3\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert int(matrix.counts.sum()) == 10
        citing_totals = np.bincount(matrix.citing, weights=matrix.counts, minlength=3)
        cited_totals = np.bincount(matrix.cited, weights=matrix.counts, minlength=3)
        assert matrix.names == ("A", "B", "C")
        assert citing_totals.tolist() == [7, 1, 2]
        assert cited_totals.tolist() == [2, 4, 4]
        # Cells are sorted by (citing, cited) ids.
        assert matrix.citing.tolist() == [0, 0, 1, 2]
        assert matrix.cited.tolist() == [1, 2, 2, 0]
        assert matrix.counts.tolist() == [4, 3, 1, 2]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t1\nA\tB\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2"):
            parse_edge_list(path, "2011")

    @pytest.mark.parametrize("line", ["  \tB\t1", "A\t \t1"])
    def test_empty_name_reports_line_number(self, tmp_path, line):
        path = tmp_path / "y.tsv"
        path.write_text(f"A\tB\t1\n# note\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":3: empty journal name"):
            parse_edge_list(path, "2011")

    def test_repeated_raw_spelling_sums_into_one_cell(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text(
            " A\tB \t2\nB\tA\t1\n A\tB \t5\nA\tB\t4\n", encoding="utf-8"
        )
        matrix = parse_edge_list(path, "2011")
        assert cells_of(matrix) == {("A", "B"): 11, ("B", "A"): 1}

    @pytest.mark.parametrize(
        "count", ["lots", "1_0", "\u0663"], ids=["lots", "underscore", "arabic-indic-digit"]
    )
    def test_non_integer_count(self, tmp_path, count):
        # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3.
        path = tmp_path / "y.tsv"
        path.write_text(f"A\tB\t{count}\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1: count is not an integer"):
            parse_edge_list(path, "2011")

    def test_negative_count_reads_as_not_positive(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t2\nA\tC\t-3\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2: count must be positive, got -3"):
            parse_edge_list(path, "2011")

    @pytest.mark.parametrize("count", [str(2**63), "9" * 5000, "-" + "9" * 5000],
                             ids=["2**63", "5000-digits", "minus-5000-digits"])
    def test_single_count_past_int64_names_the_line(self, tmp_path, count):
        # int() refuses strings of more than 4300 digits with a ValueError.
        path = tmp_path / "y.tsv"
        path.write_text(f"A\tB\t1\nB\tA\t{count}\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2: count past the int64 range"):
            parse_edge_list(path, "2011")

    def test_non_positive_count(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t0\n", encoding="utf-8")
        with pytest.raises(DataError, match="positive"):
            parse_edge_list(path, "2011")

    def test_counts_past_int64_are_a_data_error(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text(f"A\tB\t{2**62}\nA\tB\t{2**62}\n", encoding="utf-8")
        with pytest.raises(DataError, match="int64"):
            parse_edge_list(path, "2011")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_edge_list(tmp_path / "nope.tsv", "2011")

    def test_names_are_normalized(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text(" A \tB\t1\nA\t B\t2\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert cells_of(matrix) == {("A", "B"): 3}

    def test_empty_name_is_reported_before_a_bad_count(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t1\n \tB\tlots\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2: empty journal name"):
            parse_edge_list(path, "2011")

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t1\nA\tB\tx\nA\tB\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2: count is not an integer: 'x'"):
            parse_edge_list(path, "2011")

    @pytest.mark.parametrize(
        "blank", [" \t\t ", "\t\t", "\u3000\t\u3000\t\u3000"],
        ids=["spaces", "tabs", "ideographic"],
    )
    def test_whitespace_only_line_with_three_fields_is_skipped(self, tmp_path, blank):
        # U+3000 is a name here (normalize_name trims ASCII whitespace only),
        # but a line of nothing else is blank.
        path = tmp_path / "y.tsv"
        path.write_text(f"\u3000\tA\t1\nA\t\u3000\t2\n{blank}\nA\tB\t3\n", encoding="utf-8")
        matrix = parse_edge_list(path, "2011")
        assert cells_of(matrix) == {("\u3000", "A"): 1, ("A", "\u3000"): 2, ("A", "B"): 3}

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_endings_parse_as_lf(self, tmp_path, newline):
        lines = [b"# note", b"A\tB\t3", b"", b"B\tC\t1", b"A\tB\t2"]
        lf, other = tmp_path / "lf.tsv", tmp_path / "other.tsv"
        lf.write_bytes(b"\n".join(lines) + b"\n")
        other.write_bytes(newline.join(lines) + newline)
        expected = parse_edge_list(lf, "2011")
        matrix = parse_edge_list(other, "2011")
        assert cells_of(matrix) == cells_of(expected) == {("A", "B"): 5, ("B", "C"): 1}
        assert matrix.names == expected.names

    @pytest.mark.parametrize(
        "raw, count",
        [("007", 7), ("0000000000000000009", 9), (str(2**63 - 1), 2**63 - 1)],
        ids=["leading-zeros", "19-digits", "int64-max"],
    )
    def test_count_reads_as_decimal(self, tmp_path, raw, count):
        path = tmp_path / "y.tsv"
        path.write_text(f"A\tB\t{raw}\n", encoding="utf-8")
        assert cells_of(parse_edge_list(path, "2011")) == {("A", "B"): count}

    @pytest.mark.parametrize("raw", ["0", "00", "-0"])
    def test_zero_count_in_any_spelling(self, tmp_path, raw):
        path = tmp_path / "y.tsv"
        path.write_text(f"A\tB\t1\nA\tC\t{raw}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":2: count must be positive, got 0$"):
            parse_edge_list(path, "2011")

    def test_plus_sign_is_not_an_integer(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("A\tB\t+5\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":1: count is not an integer: '\+5'"):
            parse_edge_list(path, "2011")


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
        assert cells_of(renamed[0]) == {("Y", "A"): 5}

    def test_empty_rename_list_is_identity(self):
        matrix = _matrix("2011", {("A", "B"): 1})
        registry, renamed = apply_name_changes([matrix], [])
        assert cells_of(renamed[0]) == cells_of(matrix)
        assert registry.names == ("A", "B")

    def test_chain_resolves_transitively(self):
        matrix = _matrix("2011", {("X", "X"): 1})
        registry, renamed = apply_name_changes([matrix], [("X", "Y"), ("Y", "Z")])
        assert cells_of(renamed[0]) == {("Z", "Z"): 1}
        assert registry.resolve("X") == "Z"
        assert registry.resolve("Y") == "Z"

    def test_cycle_is_an_error(self):
        matrix = _matrix("2011", {("A", "B"): 1})
        with pytest.raises(DataError, match="rename cycle through 'A'"):
            apply_name_changes([matrix], [("A", "B"), ("B", "A")])
        # X -> A is a valid rename into the cycle, so the error names A or B.
        with pytest.raises(DataError, match="rename cycle through '[AB]'"):
            apply_name_changes([matrix], [("X", "A"), ("A", "B"), ("B", "A")])

    def test_self_rename_warns_and_is_ignored(self, caplog):
        matrix = _matrix("2011", {("A", "B"): 1})
        with caplog.at_level(logging.WARNING, logger="citeheat.corpus"):
            _, renamed = apply_name_changes([matrix], [("A", "A")])
        assert "self-rename" in caplog.text
        assert cells_of(renamed[0]) == cells_of(matrix)

    def test_conflicting_renames_rejected(self):
        matrix = _matrix("2011", {("A", "B"): 1})
        with pytest.raises(DataError, match="conflicting"):
            apply_name_changes([matrix], [("A", "B"), ("A", "C")])

    def test_rename_resolution_is_order_independent(self):
        cells = {("X", "Q"): 2, ("Y", "Q"): 1, ("Q", "X"): 4}
        renames = [("X", "Y"), ("Y", "Z"), ("Q", "R")]
        base_reg, base = apply_name_changes([_matrix("2011", cells)], renames)
        perm_reg, perm = apply_name_changes([_matrix("2011", cells)], renames[::-1])
        assert cells_of(base[0]) == cells_of(perm[0])
        assert base_reg.names == perm_reg.names

    def test_grand_total_conserved(self):
        cells = {("X", "A"): 2, ("Y", "A"): 3, ("A", "X"): 7}
        _, renamed = apply_name_changes([_matrix("2011", cells)], [("X", "Y")])
        assert int(renamed[0].counts.sum()) == 12

    def test_registry_ids_are_lexicographic(self):
        matrix = _matrix("2011", {("B", "A"): 1, ("C", "A"): 1})
        registry, _ = apply_name_changes([matrix], [])
        assert registry.names == ("A", "B", "C")

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
        ab = (tensor.registry.names.index("A"), tensor.registry.names.index("B"))
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

    def test_a_year_off_the_registry_name_table_is_a_data_error(self):
        base = {("A", "B"): 1, ("B", "A"): 1}
        years = [base, {**base, ("C", "A"): 1}, base]
        matrices = [_matrix(l, c) for l, c in zip(("2011", "2012", "2013"), years)]
        registry, renamed = apply_name_changes(matrices, [])
        assert matrices[0].names != registry.names
        with pytest.raises(DataError, match="year '2011': its name table is not the registry's"):
            build_common_set(registry, [matrices[0], *renamed[1:]])

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

    @pytest.mark.parametrize("count", [0, -1])
    def test_from_cells_refuses_a_count_below_one(self, count):
        with pytest.raises(DataError, match=r"^year '2011': counts must be positive$"):
            _matrix("2011", {("A", "B"): 2, ("B", "A"): count})

    def test_from_cells_normalizes_names(self):
        # Two spellings of one journal, as parse_edge_list reads them.
        nfc = "Revista Econ\u00f3mica"
        nfd = unicodedata.normalize("NFD", nfc)
        year = _matrix("2011", {(nfc, "B"): 2, (nfd, "B"): 3, (f" {nfd}\t", nfc): 1})
        assert year.names == ("B", nfc)
        assert cells_of(year) == {(nfc, "B"): 5, (nfc, nfc): 1}

    @pytest.mark.parametrize("name", ["", " \t"])
    def test_from_cells_refuses_an_empty_name(self, name):
        with pytest.raises(DataError, match=r"^year '2011': empty journal name$"):
            _matrix("2011", {("A", "B"): 1, ("A", name): 1})

    def test_year_matrix_round_trip(self):
        years = [
            {("A", "B"): 1, ("B", "A"): 2, ("C", "A"): 4},
            {("A", "B"): 3, ("B", "C"): 5, ("C", "A"): 6},
            {("B", "A"): 7, ("C", "B"): 8, ("A", "C"): 9},
        ]
        tensor = _aligned(years)
        names = tensor.registry.names
        for y, cells in enumerate(years):
            present = tensor.counts[y] > 0
            back = {
                (names[c], names[d]): int(n)
                for c, d, n in zip(
                    tensor.citing[present], tensor.cited[present], tensor.counts[y][present]
                )
            }
            assert back == cells

    def test_renamed_years_share_the_registry_name_table(self):
        matrices = [_matrix("2011", {("X", "A"): 1}), _matrix("2012", {("A", "B"): 2})]
        registry, renamed = apply_name_changes(matrices, [("X", "Y")])
        assert registry.names == ("A", "B", "Y")
        assert all(m.names == registry.names for m in renamed)


def _one_year_tensor(cells):
    """Tensor whose first year holds ``cells`` (every citing journal is kept)."""
    return _aligned([cells, cells, cells])


class TestRelativeFrequencies:
    """``AlignedTensor.frequencies``: count / grand total per stored cell."""

    def test_two_cell_values(self):
        tensor = _one_year_tensor({("A", "B"): 1, ("B", "A"): 3})
        assert tensor.frequencies(0).tolist() == [0.25, 0.75]

    def test_uniform_four_cells(self):
        cells = {("A", "B"): 5, ("B", "A"): 5, ("A", "C"): 5, ("C", "A"): 5}
        freqs = _one_year_tensor(cells).frequencies(0)
        assert all(v == 0.25 for v in freqs)

    def test_matches_exact_rational_oracle(self, rng):
        cells = {
            (f"N{i}", f"N{(i + 3) % 10}"): int(rng.integers(1, 50))
            for i in range(10)
        }
        tensor = _one_year_tensor(cells)
        names = tensor.registry.names
        freqs = tensor.frequencies(0)
        exact = exact_frequencies(cells)
        assert float(freqs.sum()) == pytest.approx(1.0, abs=1e-12)
        assert len(freqs) == len(exact)
        for c, d, value in zip(tensor.citing, tensor.cited, freqs):
            assert value == float(exact[(names[c], names[d])])

    def test_empty_matrix_errors(self, small_tensor):
        empty = AlignedTensor(
            registry=small_tensor.registry,
            year_labels=small_tensor.year_labels,
            citing=small_tensor.citing,
            cited=small_tensor.cited,
            counts=small_tensor.counts * np.array([[0], [1], [1]]),
        )
        with pytest.raises(DataError, match="no citations"):
            empty.frequencies(0)

    def test_empty_year_is_named_and_other_years_still_read(self, small_tensor):
        empty = AlignedTensor(
            registry=small_tensor.registry,
            year_labels=small_tensor.year_labels,
            citing=small_tensor.citing,
            cited=small_tensor.cited,
            counts=small_tensor.counts * np.array([[1], [0], [1]]),
        )
        with pytest.raises(DataError, match="'2012' has no citations"):
            empty.frequencies(1)
        assert empty.frequencies(2).tobytes() == small_tensor.frequencies(2).tobytes()

    def test_frequencies_are_the_row_division(self, small_tensor):
        for year in range(3):
            total = int(small_tensor.counts[year].sum())
            expected = small_tensor.counts[year] / total
            assert small_tensor.frequencies(year).tobytes() == expected.tobytes()

    def test_scaling_a_year_leaves_frequencies_unchanged(self):
        cells = {("A", "B"): 3, ("B", "C"): 4, ("C", "A"): 9}
        base = _one_year_tensor(cells).frequencies(0)
        scaled = _one_year_tensor({k: 7 * v for k, v in cells.items()}).frequencies(0)
        assert base.tolist() == scaled.tolist()


def test_aligned_tensor_frequencies_sum_to_one(small_tensor: AlignedTensor):
    for year in range(3):
        freqs = small_tensor.frequencies(year)
        assert float(freqs.sum()) == pytest.approx(1.0, abs=1e-12)


# Every journal's spellings: its current name in NFC and NFD, plus former
# names. "J03 Old" -> "J03 Mid" -> "J03" is a chain into a live journal,
# "Serie X" collides into "Arché Rev", "Lost Old" -> "Lost New" renames to a
# name that never occurs in the data, and "Never Seen" never occurs itself.
_RENAMES = [
    ("J03 Old", "J03 Mid"),
    ("J03 Mid", "J03"),
    ("Serie X", unicodedata.normalize("NFD", "Arché Rev")),
    ("Lost Old", "Lost New"),
    ("Never Seen", "J01"),
]
_SPELLINGS = {
    **{f"J{i:02d}": [f"J{i:02d}"] for i in range(8) if i != 3},
    "J03": ["J03", "J03 Old", "J03 Mid"],
    "Arché Rev": ["Arché Rev", unicodedata.normalize("NFD", "Arché Rev"), "Serie X"],
    "Über Phys": ["Über Phys", unicodedata.normalize("NFD", "Über Phys")],
    "Lost New": ["Lost Old"],
}


def _messy_year(rng: random.Random, silent: set) -> str:
    """One year's edge list: padded spellings, split duplicate records,
    comments and blank lines; journals in ``silent`` cite nobody."""
    journals = sorted(_SPELLINGS)
    cells = {}
    for citing in journals:
        if citing in silent:
            continue
        for cited in rng.sample(journals, 3):
            cells[(citing, cited)] = rng.randint(1, 40)
    lines = ["# citing\tcited\tcount", ""]
    for (citing, cited), count in cells.items():
        while count > 0:
            part = rng.randint(1, count)
            count -= part
            raw = [
                " " * rng.randint(0, 1) + rng.choice(_SPELLINGS[name]) + " " * rng.randint(0, 1)
                for name in (citing, cited)
            ]
            lines.append(f"{raw[0]}\t{raw[1]}\t{part}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


class TestIngestOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_reference(self, tmp_path, seed):
        rng = random.Random(seed)
        labels = ("2011", "2012", "2013")
        silent = {1: {"J05"}}  # J05 is cited but cites nobody in 2012
        texts = {l: _messy_year(rng, silent.get(y, set())) for y, l in enumerate(labels)}
        paths = {}
        for label, text in texts.items():
            paths[label] = tmp_path / f"{label}.tsv"
            paths[label].write_text(text, encoding="utf-8")
        rename_path = tmp_path / "renames.tsv"
        rename_path.write_text("".join(f"{o}\t{n}\n" for o, n in _RENAMES), encoding="utf-8")

        expected = reference_ingest(texts, _RENAMES)
        assert "J05" not in expected["names"] and "Arché Rev" in expected["names"]

        matrices = [parse_edge_list(paths[l], l) for l in labels]
        registry, renamed = apply_name_changes(matrices, parse_rename_file(rename_path))
        tensor = build_common_set(registry, renamed)
        assert tensor.registry.names == expected["names"]
        assert len(registry) == expected["combined_journals"]
        got = [
            (int(c), int(d), tuple(int(n) for n in tensor.counts[:, i]))
            for i, (c, d) in enumerate(zip(tensor.citing, tensor.cited))
        ]
        assert got == expected["cells"]

        out = tmp_path / "out"
        args = ["ingest", "--out", str(out), "--renames", str(rename_path)]
        for label in labels:
            args += ["--year", f"{label}={paths[label]}"]
        assert main(args) == 0
        stats = json.loads((out / "ingest" / "corpus_stats.json").read_text(encoding="utf-8"))
        assert [(y["label"], y["journals"], y["links"]) for y in stats["years"]] == expected["years"]
        assert stats["combined_journals"] == expected["combined_journals"]
        assert stats["common_journals"] == len(expected["names"])
        counts = np.array([ns for *_, ns in expected["cells"]]).T
        assert stats["valid_transition_cells"] == {
            f"{labels[prior]}->{labels[post]}": int((counts[prior] > 0).sum())
            for prior, post in ((0, 1), (1, 2), (0, 2))
        }
        assert stats["all_years_cells"] == int((counts > 0).all(axis=0).sum())


def test_public_api_names_resolve():
    missing = [name for name in citeheat.__all__ if not hasattr(citeheat, name)]
    assert missing == []
    # In a fresh process, a bare import resolves each name on first use.
    # The submodules and dir() come first, before any name is loaded.
    script = """
import json, types
import citeheat
submodules = ("corpus", "entropy", "errors", "flags", "netgraph")
result = {
    "submodules": [m for m in submodules
                   if isinstance(getattr(citeheat, m, None), types.ModuleType)],
    "undir": sorted(set(citeheat.__all__) - set(dir(citeheat))),
    "missing": [name for name in citeheat.__all__ if not hasattr(citeheat, name)],
}
star = {}
exec("from citeheat import *", star)
result["star"] = sorted(set(star) - {"__builtins__"}) == sorted(citeheat.__all__)
try:
    citeheat.no_such_name
except AttributeError as exc:
    result["error"] = str(exc)
print(json.dumps(result))
"""
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "submodules": ["corpus", "entropy", "errors", "flags", "netgraph"],
        "missing": [],
        "undir": [],
        "star": True,
        "error": "module 'citeheat' has no attribute 'no_such_name'",
    }


def _outcome(tensor: AlignedTensor) -> tuple:
    """A tensor's names, ids and counts in the form of ``without_journals``."""
    return (tensor.registry.names, tensor.citing.tolist(), tensor.cited.tolist(),
            tensor.counts.T.tolist())


@st.composite
def _tensor_and_two_exclusions(draw):
    """A tensor of 2-6 journals and two disjoint lists of its names, in any
    order, that leave at least one journal."""
    n = draw(st.integers(2, 6))
    grids = draw(st.lists(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                                   min_size=n, max_size=n), min_size=3, max_size=3))
    tensor = make_tensor(grids)
    side = draw(st.lists(st.sampled_from("kab"), min_size=n, max_size=n).filter(
        lambda side: "k" in side))
    names = tensor.registry.names
    a, b = ([names[i] for i in range(n) if side[i] == s] for s in "ab")
    return tensor, draw(st.permutations(a)), draw(st.permutations(b))


class TestExclusion:
    def test_any_spelling_excludes_the_one_journal(self):
        nfc = "Revista Econ\u00f3mica"
        nfd = unicodedata.normalize("NFD", nfc)
        years = [{(nfc, "B"): 2, (nfd, "B"): 1, ("B", nfd): 4, ("B", "C"): 1, ("C", "B"): 1}] * 3
        tensor = _aligned(years)
        assert tensor.registry.names == ("B", "C", nfc)
        reduced = remove_outliers(tensor, [nfd])
        assert reduced.registry.names == ("B", "C")
        assert reduced.counts.T.tolist() == [[1, 1, 1], [1, 1, 1]]

    @settings(max_examples=150, deadline=None)
    @given(case=_tensor_and_two_exclusions())
    def test_exclusions_compose(self, case):
        tensor, a, b = case
        twice = remove_outliers(remove_outliers(tensor, a), b)
        once = remove_outliers(tensor, a + b)
        for array in ("citing", "cited", "counts"):
            x, y = getattr(twice, array), getattr(once, array)
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
        assert twice.registry.names == once.registry.names
        assert twice.year_labels == once.year_labels == tensor.year_labels
        assert _outcome(once) == without_journals(tensor, a + b)


class TestReadOnlyTensor:
    def test_writes_through_the_tensor_raise(self, small_tensor):
        with pytest.raises(ValueError, match="read-only"):
            small_tensor.counts[0, 0] += 1
        for array in (small_tensor.citing, small_tensor.cited):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_derived_arrays_are_read_only(self, small_tensor):
        derived = [small_tensor.grand_totals, small_tensor.tri_valid]
        derived += [small_tensor.frequencies(year) for year in range(3)]
        derived += [small_tensor.pair_valid(pair) for pair in PAIRS]
        for array in derived:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_caller_arrays_stay_writable(self, small_tensor):
        counts = np.array(small_tensor.counts)
        tensor = AlignedTensor(
            registry=small_tensor.registry,
            year_labels=small_tensor.year_labels,
            citing=small_tensor.citing,
            cited=small_tensor.cited,
            counts=counts,
        )
        counts[0, 0] += 1
        assert not tensor.counts.flags.writeable
