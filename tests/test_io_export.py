from __future__ import annotations

import csv

import numpy as np
import pytest

from citeheat.entropy import to_unit
from citeheat.errors import DataError
from citeheat.flags import build_flag_report
from citeheat.io_export import (
    fmt_dec6,
    fmt_sig6,
    read_basemap,
    read_pajek_clu,
    read_pajek_net,
    read_sidecar,
    read_tensor_cache,
    read_vosviewer_files,
    write_flag_journal_reports,
    write_hot_links_csv,
    write_link_flag_reports,
    write_overlay,
    write_pajek_clu,
    write_pajek_net,
    write_tensor_cache,
    write_vosviewer_files,
)
from citeheat.netgraph import HotLinkGraph, build_graph

from helpers import make_tensor, oracle_pair, random_active_grids


def labeled_edges(graph: HotLinkGraph, labels) -> dict:
    out = {}
    for u, v, w in graph.edges:
        a, b = sorted((str(labels[u]), str(labels[v])))
        out[(a, b)] = w
    return out


class TestFmt:
    def test_six_significant_digits(self):
        assert fmt_sig6(1.0) == "1.00000"
        assert fmt_sig6(0.1887218755) == "0.188722"
        assert fmt_sig6(123456.7) == "123457"
        assert fmt_sig6(0.0) == "0.00000"
        assert fmt_sig6(-0.00123456789) == "-0.00123457"

    def test_reparse_stability(self, rng):
        for x in rng.uniform(-1e4, 1e4, size=200):
            once = fmt_sig6(float(x))
            assert fmt_sig6(float(once)) == once
        for x in 10.0 ** rng.uniform(-8, 8, size=200):
            once = fmt_sig6(float(x))
            assert fmt_sig6(float(once)) == once

    def test_six_decimals(self):
        assert fmt_dec6(1.5) == "1.500000"
        assert fmt_dec6(-0.0000004) == "-0.000000"


class TestPajekNet:
    def test_exact_bytes_for_single_edge(self, tmp_path):
        graph = build_graph([("A", "B", -1.0)])
        path = tmp_path / "g.net"
        write_pajek_net(graph, path)
        assert path.read_text(encoding="utf-8") == (
            '*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 1.00000\n'
        )

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "g.net"
        write_pajek_net(build_graph([]), path)
        assert path.read_text(encoding="utf-8") == "*Vertices 0\n"
        graph, labels = read_pajek_net(path)
        assert graph.nodes == () and labels == []

    def test_round_trip_and_byte_identical_reexport(self, tmp_path):
        links = [("Genet Med", "Pers Med", -1.012e-3), ("Pers Med", "Nature", -2e-3),
                 ("Nature", "Genet Med", -0.5e-3)]
        graph = build_graph(links)
        path = tmp_path / "g.net"
        write_pajek_net(graph, path)
        parsed, labels = read_pajek_net(path)
        assert labeled_edges(parsed, labels) == pytest.approx(
            labeled_edges(graph, {v: v for v in graph.nodes})
        )
        again = tmp_path / "g2.net"
        write_pajek_net(parsed, again, labels=dict(enumerate(labels)))
        assert again.read_bytes() == path.read_bytes()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("vertices 2\n", encoding="utf-8")
        with pytest.raises(DataError, match="Vertices"):
            read_pajek_net(path)

    def test_edge_out_of_range(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text('*Vertices 1\n1 "A"\n*Edges\n1 4 1.0\n', encoding="utf-8")
        with pytest.raises(DataError, match="out of range"):
            read_pajek_net(path)

    def test_quote_in_label_rejected(self, tmp_path):
        graph = build_graph([('Jo"urnal', "B", -1.0)])
        with pytest.raises(DataError, match="not representable"):
            write_pajek_net(graph, tmp_path / "g.net")


class TestPajekClu:
    def test_one_based_shift(self, tmp_path):
        path = tmp_path / "p.clu"
        write_pajek_clu({"A": 0, "B": 0, "C": 1}, path)
        assert path.read_text(encoding="utf-8") == "*Vertices 3\n1\n1\n2\n"

    def test_empty(self, tmp_path):
        path = tmp_path / "p.clu"
        write_pajek_clu({}, path)
        assert path.read_text(encoding="utf-8") == "*Vertices 0\n"

    def test_round_trip(self, tmp_path):
        assignment = {f"N{i}": i % 3 for i in range(10)}
        path = tmp_path / "p.clu"
        write_pajek_clu(assignment, path)
        clusters = read_pajek_clu(path)
        assert clusters == [assignment[v] for v in sorted(assignment)]

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "p.clu"
        path.write_text("*Vertices 3\n1\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 3"):
            read_pajek_clu(path)

    def test_malformed_lines(self, tmp_path):
        path = tmp_path / "p.clu"
        for text in ("*Vertices\n", "*Vertices 2\n1\none\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError, match="malformed"):
                read_pajek_clu(path)


BASEMAP_TSV = (
    "label\tx\ty\tcluster\tweight\n"
    "Genet Med\t0.10\t-0.20\t1\t5\n"
    "Pers Med\t0.30\t0.40\t2\t3\n"
    "Nature\t-1.00\t0.00\t1\t9\n"
)


class TestVosviewer:
    def _graph(self):
        return build_graph(
            [("Genet Med", "Pers Med", -1.5e-3), ("Pers Med", "Unknown J", -2e-3)]
        )

    def test_column_rule_without_basemap(self, tmp_path):
        graph = self._graph()
        partition = {v: i for i, v in enumerate(graph.nodes)}
        write_vosviewer_files(graph, partition, tmp_path / "m.txt", tmp_path / "n.txt")
        header = (tmp_path / "m.txt").read_text(encoding="utf-8").splitlines()[0]
        assert header == "id\tlabel\tcluster\tweight"

    def test_basemap_coordinates_copied_verbatim(self, tmp_path):
        (tmp_path / "base.txt").write_text(BASEMAP_TSV, encoding="utf-8")
        basemap = read_basemap(tmp_path / "base.txt")
        graph = self._graph()
        partition = {v: 0 for v in graph.nodes}
        unmatched = write_vosviewer_files(
            graph, partition, tmp_path / "m.txt", tmp_path / "n.txt",
            basemap=basemap, unmatched_path=tmp_path / "u.txt",
        )
        lines = (tmp_path / "m.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id\tlabel\tx\ty\tcluster\tweight"
        genet = next(l for l in lines if "Genet Med" in l).split("\t")
        assert genet[2] == "0.10" and genet[3] == "-0.20"
        assert unmatched == ["Unknown J"]
        assert (tmp_path / "u.txt").read_text(encoding="utf-8") == "Unknown J\n"

    def test_round_trip(self, tmp_path):
        graph = self._graph()
        partition = {v: i % 2 for i, v in enumerate(graph.nodes)}
        write_vosviewer_files(graph, partition, tmp_path / "m.txt", tmp_path / "n.txt")
        parsed, clusters, labels = read_vosviewer_files(tmp_path / "m.txt", tmp_path / "n.txt")
        assert labels == list(graph.nodes)
        assert labeled_edges(parsed, labels) == pytest.approx(
            labeled_edges(graph, {v: v for v in graph.nodes})
        )
        assert [clusters[i] for i in range(len(labels))] == [
            partition[v] for v in graph.nodes
        ]


class TestOverlay:
    def test_empty_flag_sets_keep_neutral_styling(self, tmp_path):
        (tmp_path / "base.txt").write_text(BASEMAP_TSV, encoding="utf-8")
        basemap = read_basemap(tmp_path / "base.txt")
        write_overlay({}, basemap, {}, tmp_path / "o.txt")
        lines = (tmp_path / "o.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "label\tx\ty\tcluster\tweight\tcategory\tcolor"
        assert len(lines) == 4
        assert all(line.endswith("\t\t#c8c8c8") for line in lines[1:])

    def test_single_flagged_node(self, tmp_path):
        (tmp_path / "base.txt").write_text(BASEMAP_TSV, encoding="utf-8")
        basemap = read_basemap(tmp_path / "base.txt")
        write_overlay(
            {"cited": {"Pers Med"}}, basemap, {"cited": "red"}, tmp_path / "o.txt"
        )
        lines = (tmp_path / "o.txt").read_text(encoding="utf-8").splitlines()[1:]
        flagged = [line for line in lines if line.endswith("\tcited\tred")]
        assert len(flagged) == 1 and "Pers Med" in flagged[0]

    def test_two_category_counts_and_priority(self, tmp_path):
        (tmp_path / "base.txt").write_text(BASEMAP_TSV, encoding="utf-8")
        basemap = read_basemap(tmp_path / "base.txt")
        flag_sets = {"cited": {"Genet Med", "Pers Med"}, "citing": {"Pers Med", "Nature"}}
        write_overlay(
            flag_sets, basemap, {"cited": "red", "citing": "blue"}, tmp_path / "o.txt"
        )
        rows = (tmp_path / "o.txt").read_text(encoding="utf-8").splitlines()[1:]
        categories = {row.split("\t")[0]: row.split("\t")[5] for row in rows}
        # First category wins for the doubly flagged node (one category each).
        assert categories == {"Genet Med": "cited", "Pers Med": "cited", "Nature": "citing"}
        assert sum(1 for c in categories.values() if c == "cited") == 2
        assert sum(1 for c in categories.values() if c == "citing") == 1

    def test_duplicate_basemap_labels_rejected(self, tmp_path):
        bad = "label\tx\ty\nA\t0\t0\nA\t1\t1\n"
        (tmp_path / "base.txt").write_text(bad, encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            read_basemap(tmp_path / "base.txt")


class TestTensorCache:
    def test_round_trip_preserves_everything(self, tmp_path, rng):
        tensor = make_tensor(random_active_grids(rng, 7, density=0.6, high=25))
        write_tensor_cache(tensor, tmp_path / "cache")
        again = read_tensor_cache(tmp_path / "cache")
        assert again.registry.names == tensor.registry.names
        assert again.year_labels == tensor.year_labels
        assert np.array_equal(again.counts, tensor.counts)
        assert np.array_equal(again.citing, tensor.citing)
        assert np.array_equal(again.cited, tensor.cited)

    @pytest.mark.parametrize("corrupt, culprit", [
        (lambda d: _rewrite_bytes(d / "cells.npy", lambda b: b[:-8]), "cells.npy"),
        (lambda d: _rewrite_bytes(d / "cells.npy", lambda b: b[:40]), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: c[:4]), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: c.ravel()), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: c.astype(np.int32)), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: _set(c, (1, -1), 7)), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: _set(c, (0, 0), -1)), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: np.hstack([c, c[:, -1:]])), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: c[:, ::-1]), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: _set(c, (3, 0), -2)), "cells.npy"),
        (lambda d: _rewrite_cells(d, lambda c: _set(c, (slice(2, 5), 0), 0)), "cells.npy"),
        (lambda d: (d / "years.txt").write_text("2011\n2012\n", encoding="utf-8"), "years.txt"),
        (lambda d: _rewrite_bytes(d / "registry.tsv", lambda b: b.replace(b"\n1\t", b"\n2\t")),
         "registry.tsv"),
    ], ids=[
        "truncated-data", "truncated-header", "four-rows", "one-dimensional", "int32",
        "id-out-of-range", "negative-id", "duplicate-key", "unsorted-keys",
        "negative-count", "empty-cell", "two-labels", "sparse-ids",
    ])
    def test_malformed_cache_is_a_data_error(self, tmp_path, rng, corrupt, culprit):
        write_tensor_cache(make_tensor(random_active_grids(rng, 7, density=0.6)), tmp_path)
        corrupt(tmp_path)
        with pytest.raises(DataError, match=culprit):
            read_tensor_cache(tmp_path)

    def test_missing_cells_file_is_an_io_error(self, tmp_path, small_tensor):
        write_tensor_cache(small_tensor, tmp_path)
        (tmp_path / "cells.npy").unlink()
        with pytest.raises(FileNotFoundError):
            read_tensor_cache(tmp_path)


def _rewrite_bytes(path, edit) -> None:
    path.write_bytes(edit(path.read_bytes()))


def _rewrite_cells(directory, edit) -> None:
    cells = np.load(directory / "cells.npy", allow_pickle=False)
    np.save(directory / "cells.npy", np.ascontiguousarray(edit(cells)))


def _set(cells, index, value):
    cells[index] = value
    return cells


class TestHotLinksCsv:
    def test_round_trip_and_ranking(self, tmp_path):
        # A static ring plus three risers: J004 -> J001 rises fastest, and the
        # identical risers J003 -> J000 and J005 -> J002 tie on their score.
        grids = [np.zeros((6, 6), dtype=np.int64) for _ in range(3)]
        for y, grid in enumerate(grids):
            for i in range(6):
                grid[i, (i + 1) % 6] = 200
            grid[3, 0] = grid[5, 2] = (29, 54, 106)[y]
            grid[4, 1] = (10, 40, 160)[y]
        report = build_flag_report(make_tensor(grids), k=0.0, unit="mbits")
        assert [(c, d) for c, d, _ in report.hot_links] == [(3, 0), (4, 1), (5, 2)]
        write_link_flag_reports(tmp_path, report)
        rows = (tmp_path / "hot_links.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "citing,cited,triangle_mbits"
        # Hottest first, labels break the tie; the sidecar has the same order.
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["J004", "J001"], ["J003", "J000"], ["J005", "J002"]
        ]
        links = read_sidecar(tmp_path / "link_flags.json")["links"]
        assert links[1][2] == links[2][2] > links[0][2]
        assert rows[1:] == [f"{c},{d},{to_unit(s, 'mbits'):.6f}" for c, d, s in links]

    def test_writer_keeps_the_given_order(self, tmp_path):
        links = [("B", "C", -0.002), ("A", "B", -0.005), ("C", "A", -0.001)]
        path = tmp_path / "hot_links.csv"
        write_hot_links_csv(path, links, "mbits")
        rows = path.read_text(encoding="utf-8").splitlines()
        assert rows == ["citing,cited,triangle_mbits", "B,C,-2.000000", "A,B,-5.000000",
                        "C,A,-1.000000"]


class TestSidecars:
    def test_links_carry_exact_bit_scores_in_report_order(self, tmp_path, rng):
        tensor = make_tensor(random_active_grids(rng, 10, density=0.7, high=40))
        report = build_flag_report(tensor, k=0.0, unit="mbits")
        assert report.hot_links
        write_link_flag_reports(tmp_path, report)
        link_flags = read_sidecar(tmp_path / "link_flags.json")
        names = tensor.registry.names
        expected = {(names[c], names[d], s) for c, d, s in report.hot_links}
        links = link_flags["links"]
        assert {tuple(link) for link in links} == expected  # floats compared exactly
        assert len(links) == link_flags["hot_links"] == len(report.hot_links)
        with open(tmp_path / "hot_links.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert [[c, d] for c, d, _ in links] == [row[:2] for row in rows]

    @pytest.mark.parametrize(
        "text",
        [
            '{"format_version": 1, "links": []}\n',
            '{"links": []}\n',
            "[2]\n",
            '{"format_version": 2, "li',
            "",
        ],
        ids=["version-1", "no-version", "not-an-object", "truncated", "empty"],
    )
    def test_other_versions_and_broken_json_are_data_errors(self, tmp_path, text):
        path = tmp_path / "link_flags.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="link_flags.json"):
            read_sidecar(path)


class TestReports:
    def test_headers_and_oracle_values(self, tmp_path, rng):
        grids = random_active_grids(rng, 10, density=0.7, high=40)
        tensor = make_tensor(grids)
        report = build_flag_report(tensor, k=1.0, unit="mbits")
        write_flag_journal_reports(tmp_path, report)

        with open(tmp_path / "transition_summary.csv", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "transition", "mean_mbits", "sd_cited_mbits", "sd_citing_mbits", "sum_mbits"
        ]
        assert [row[0] for row in rows[1:]] == [
            "2011->2012", "2012->2013", "2011->2013", "revision_of_prediction"
        ]
        oracle = oracle_pair(grids[0], grids[1])
        assert float(rows[1][4]) == pytest.approx(oracle["grand"] * 1000, abs=1.5e-6)
        assert float(rows[1][1]) == pytest.approx(oracle["grand"] * 1000 / 10, abs=1.5e-6)
        assert float(rows[1][2]) == pytest.approx(
            float(np.std(oracle["cited"])) * 1000, abs=1.5e-6
        )

        margins_header = (tmp_path / "margins_cited.csv").read_text(
            encoding="utf-8"
        ).splitlines()[0]
        assert margins_header == (
            "journal,kl_2011_2012_mbits,kl_2012_2013_mbits,kl_2011_2013_mbits,monotonic"
        )
        revision_header = (tmp_path / "revision_citing.csv").read_text(
            encoding="utf-8"
        ).splitlines()[0]
        assert revision_header == "journal,revision_mbits,flagged"

    def test_unit_scaling(self, tmp_path, rng):
        grids = random_active_grids(rng, 6, density=0.8, high=30)
        tensor = make_tensor(grids)
        for unit in ("bits", "mbits", "microbits"):
            outdir = tmp_path / unit
            write_flag_journal_reports(outdir, build_flag_report(tensor, unit=unit))
            with open(outdir / "transition_summary.csv", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            value = float(rows[1][4])
            if unit == "bits":
                base = value
        with open(tmp_path / "mbits" / "transition_summary.csv", encoding="utf-8") as handle:
            mb = float(list(csv.reader(handle))[1][4])
        with open(tmp_path / "microbits" / "transition_summary.csv", encoding="utf-8") as handle:
            ub = float(list(csv.reader(handle))[1][4])
        assert mb == pytest.approx(base * 1e3, rel=1e-4)
        assert ub == pytest.approx(base * 1e6, rel=1e-4)

    def test_margins_ranked_by_final_pair(self, tmp_path, rng):
        grids = random_active_grids(rng, 8, density=0.7, high=30)
        report = build_flag_report(make_tensor(grids))
        write_flag_journal_reports(tmp_path, report)
        with open(tmp_path / "margins_citing.csv", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        values = [float(row[3]) for row in rows]
        assert values == sorted(values, reverse=True)

    def test_to_unit_round_trip(self):
        assert to_unit(0.001, "mbits") == pytest.approx(1.0)
        assert to_unit(1e-6, "microbits") == pytest.approx(1.0)
        with pytest.raises(ValueError):
            to_unit(1.0, "nanobits")
