from __future__ import annotations

import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citeheat import io_export
from citeheat.corpus import (
    JournalRegistry,
    YearMatrix,
    apply_name_changes,
    build_common_set,
    normalize_name,
)
from citeheat.entropy import to_unit
from citeheat.errors import DataError
from citeheat.flags import build_flag_report
from citeheat.io_export import (
    fmt_sig6,
    fmt_sig6_column,
    read_basemap,
    read_hot_link_arrays,
    read_sidecar,
    read_tensor_cache,
    write_flag_journal_reports,
    write_hot_link_arrays,
    write_link_flag_reports,
    write_network_reports,
    write_overlay,
    write_pajek_clu,
    write_pajek_net,
    write_tensor_cache,
    write_json,
    write_vosviewer_files,
)
from citeheat.netgraph import (
    HotLinkGraph,
    Network,
    build_graph,
    connected_components,
    degree_centrality,
    louvain,
)

from helpers import (
    BAD_REGISTRY_EDITS,
    csv_writer_rows,
    make_tensor,
    oracle_pair,
    random_active_grids,
    rewrite_registry,
)
from interchange import read_pajek_clu, read_pajek_net, read_vosviewer_files


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
        values = np.array([1.5, -0.0000004, 2e-4])
        assert list(io_export._dec6_column(values, "bits")) == ["1.500000", "-0.000000", "0.000200"]
        assert list(io_export._dec6_column(values, "mbits")) == [
            "1500.000000", "-0.000400", "0.200000"]


def _ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# Values a few ulps around the places where %.5e carries into the next
# exponent (9.999995 * 10**e) or where log10 is at an integer (10**e).
_DECADE_EDGE = st.builds(
    lambda sign, mantissa, e, steps: sign * _ulps(mantissa * 10.0**e, steps),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([1.0, 9.999995, 9.9999949999, 9.99999, 9.9999999, 10.0]),
    st.integers(-323, 307),
    st.integers(-3, 3),
)
_EDGE_CASES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0),
    1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
    *(9.999995 * 10.0**e for e in range(-24, 25)),
    *(math.nextafter(10.0**e, 0) for e in range(-24, 25)),
]


class TestFmtSig6Column:
    """fmt_sig6_column against the scalar fmt_sig6, its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | _DECADE_EDGE, max_size=40))
    @example(_EDGE_CASES)
    def test_matches_the_scalar(self, values):
        column = fmt_sig6_column(np.array(values, dtype=np.float64))
        assert column == [fmt_sig6(x) for x in values]

    def test_wide_random_range(self, rng):
        values = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-24, 24, 20_000)
        assert fmt_sig6_column(values) == list(map(fmt_sig6, values.tolist()))

    def test_empty(self):
        assert fmt_sig6_column(np.array([])) == []

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_fails_where_the_scalar_fails(self, bad):
        with pytest.raises(IndexError):
            fmt_sig6(bad)
        with pytest.raises(IndexError):
            fmt_sig6_column(np.array([1.0, bad]))


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
        write_pajek_net(HotLinkGraph.from_ids(parsed.u, parsed.v, parsed.weights, labels), again)
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

    @pytest.mark.parametrize("weight", ["-inf", "inf", "nan"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "bad.net"
        path.write_text(f'*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 {weight}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.net:5: edge weight .* not finite"):
            read_pajek_net(path)

    @pytest.mark.parametrize(
        "edge", ["1 x 1.0", "1 2 heavy", "1 2", "\u0661 2 1.0", "1 +2 1.0", "1_0 2 1.0"]
    )
    def test_malformed_edge_field(self, tmp_path, edge):
        path = tmp_path / "bad.net"
        path.write_text(f'*Vertices 2\n1 "A"\n2 "B"\n*Edges\n{edge}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"bad\.net:5: malformed edge line"):
            read_pajek_net(path)

    @pytest.mark.parametrize(
        "text, problem",
        [('*Vertices \u0662\n1 "A"\n2 "B"\n', r"bad\.net:1: malformed \*Vertices header"),
         ('*Vertices +2\n1 "A"\n2 "B"\n', r"bad\.net:1: malformed \*Vertices header"),
         ('*Vertices 2\n1 "A"\n\u0662 "B"\n', r"bad\.net:3: malformed vertex line")],
        ids=["arabic-indic-count", "signed-count", "arabic-indic-vertex-id"],
    )
    def test_vertex_count_and_ids_take_ascii_digits_only(self, tmp_path, text, problem):
        path = tmp_path / "bad.net"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=problem):
            read_pajek_net(path)

    @pytest.mark.parametrize(
        "edges, problem",
        [("1 1 0.5", r"bad\.net:5: self-loop on vertex 1"),
         ("1 2 0.5\n2 1 1.0", r"bad\.net:6: repeats the edge 2-1 of line 5"),
         ("1 2 0.5\n1 2 0.5", r"bad\.net:6: repeats the edge 1-2 of line 5")],
    )
    def test_loop_or_repeated_edge_rejected(self, tmp_path, edges, problem):
        path = tmp_path / "bad.net"
        path.write_text(f'*Vertices 2\n1 "A"\n2 "B"\n*Edges\n{edges}\n', encoding="utf-8")
        with pytest.raises(DataError, match=problem):
            read_pajek_net(path)

    def test_quote_in_label_rejected(self, tmp_path):
        graph = build_graph([('Jo"urnal', "B", -1.0)])
        with pytest.raises(DataError, match="not representable"):
            write_pajek_net(graph, tmp_path / "g.net")
        assert not (tmp_path / "g.net").exists()

    @pytest.mark.parametrize("label", ["Tab\tName", "Line\nBreak", "Carriage\rReturn"])
    def test_field_or_line_break_in_label_rejected_by_both_formats(self, tmp_path, label):
        graph = build_graph([(label, "B", -1.0)])
        message = re.escape(f"label not representable in Pajek or VOSviewer: {label!r}")
        with pytest.raises(DataError, match=message):
            write_pajek_net(graph, tmp_path / "g.net")
        with pytest.raises(DataError, match=message):
            write_vosviewer_files(graph, {v: 0 for v in graph.nodes},
                                  tmp_path / "m.txt", tmp_path / "n.txt")
        assert list(tmp_path.iterdir()) == []


class TestPajekClu:
    def test_one_based_shift(self, tmp_path):
        path = tmp_path / "p.clu"
        write_pajek_clu({"A": 0, "B": 0, "C": 1}, path, nodes=["A", "B", "C"])
        assert path.read_text(encoding="utf-8") == "*Vertices 3\n1\n1\n2\n"

    def test_empty(self, tmp_path):
        path = tmp_path / "p.clu"
        write_pajek_clu({}, path, nodes=[])
        assert path.read_text(encoding="utf-8") == "*Vertices 0\n"

    def test_round_trip(self, tmp_path):
        assignment = {f"N{i}": i % 3 for i in range(10)}
        path = tmp_path / "p.clu"
        write_pajek_clu(assignment, path, nodes=sorted(assignment))
        clusters = read_pajek_clu(path)
        assert clusters == [assignment[v] for v in sorted(assignment)]

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "p.clu"
        path.write_text("*Vertices 3\n1\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 3"):
            read_pajek_clu(path)

    def test_malformed_lines(self, tmp_path):
        path = tmp_path / "p.clu"
        for text in ("*Vertices\n", "*Vertices 2\n1\none\n", "*Vertices 2\n1\n\u0663\n",
                     "*Vertices 2\n1\n+2\n", "*Vertices \u0662\n1\n1\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError, match="malformed"):
                read_pajek_clu(path)

    @pytest.mark.parametrize("number", ["0", "-7"])
    def test_cluster_below_one_rejected(self, tmp_path, number):
        path = tmp_path / "p.clu"
        path.write_text(f"*Vertices 2\n1\n{number}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"p\.clu:3: "):
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

    def test_basemap_lookup_normalizes_each_label_once(self, tmp_path, monkeypatch):
        (tmp_path / "base.txt").write_text(BASEMAP_TSV, encoding="utf-8")
        basemap = read_basemap(tmp_path / "base.txt")
        calls = []
        normalize_name = io_export.normalize_name
        monkeypatch.setattr(
            io_export, "normalize_name", lambda name: calls.append(name) or normalize_name(name)
        )
        graph = self._graph()
        write_vosviewer_files(
            graph, {v: 0 for v in graph.nodes}, tmp_path / "m.txt", tmp_path / "n.txt",
            basemap=basemap, unmatched_path=tmp_path / "u.txt",
        )
        assert calls == list(graph.nodes)

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

    @pytest.mark.parametrize(
        "map_text, network_text, where",
        [
            ("id\tlabel\tcluster\tweight\n1\tA\n", "", r"m\.txt:2: malformed map line"),
            ("id\tlabel\tcluster\tweight\n1\tA\tone\t1.0\n", "", r"m\.txt:2: malformed map line"),
            ("id\tlabel\tcluster\tweight\n1\tA\t1\t1.0\n2\tB\t1\t1.0\n",
             "1\t2\theavy\n", r"n\.txt:1: malformed edge line"),
            ("id\tlabel\tcluster\tweight\n1\tA\t+1\t1.0\n", "", r"m\.txt:2: malformed map line"),
            ("id\tlabel\tcluster\tweight\n\u0661\tA\t1\t1.0\n", "",
             r"m\.txt:2: malformed map line"),
            ("id\tlabel\tcluster\tweight\n1\tA\t1\t1.0\n2\tB\t1\t1.0\n",
             "1\t\u0662\t1.0\n", r"n\.txt:1: malformed edge line"),
        ],
    )
    def test_malformed_lines(self, tmp_path, map_text, network_text, where):
        (tmp_path / "m.txt").write_text(map_text, encoding="utf-8")
        (tmp_path / "n.txt").write_text(network_text, encoding="utf-8")
        with pytest.raises(DataError, match=where):
            read_vosviewer_files(tmp_path / "m.txt", tmp_path / "n.txt")

    @pytest.mark.parametrize("cluster", ["0", "-7"])
    def test_cluster_below_one_rejected(self, tmp_path, cluster):
        (tmp_path / "m.txt").write_text(
            f"id\tlabel\tcluster\tweight\n1\tA\t1\t1.0\n2\tB\t{cluster}\t1.0\n",
            encoding="utf-8",
        )
        (tmp_path / "n.txt").write_text("1\t2\t1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"m\.txt:3: cluster number"):
            read_vosviewer_files(tmp_path / "m.txt", tmp_path / "n.txt")

    @pytest.mark.parametrize(
        "edge, problem",
        [("1\t5\t1.0", "not an id of the map"), ("0\t2\t1.0", "not an id of the map"),
         ("1\t2\tnan", "not finite"), ("1\t2\t-inf", "not finite")],
    )
    def test_bad_network_line_rejected(self, tmp_path, edge, problem):
        (tmp_path / "m.txt").write_text(
            "id\tlabel\tcluster\tweight\n1\tA\t1\t1.0\n2\tB\t1\t1.0\n", encoding="utf-8"
        )
        (tmp_path / "n.txt").write_text(f"1\t2\t1.0\n{edge}\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"n\.txt:2: .*{problem}"):
            read_vosviewer_files(tmp_path / "m.txt", tmp_path / "n.txt")


    @pytest.mark.parametrize(
        "edges, problem",
        [("1\t1\t0.5", r"n\.txt:1: self-loop on vertex 1"),
         ("1\t2\t0.5\n2\t1\t1.0", r"n\.txt:2: repeats the edge 2-1 of line 1"),
         ("1\t2\t0.5\n\n1\t2\t0.5", r"n\.txt:3: repeats the edge 1-2 of line 1")],
    )
    def test_loop_or_repeated_edge_rejected(self, tmp_path, edges, problem):
        (tmp_path / "m.txt").write_text(
            "id\tlabel\tcluster\tweight\n1\tA\t1\t1.0\n2\tB\t1\t1.0\n", encoding="utf-8"
        )
        (tmp_path / "n.txt").write_text(f"{edges}\n", encoding="utf-8")
        with pytest.raises(DataError, match=problem):
            read_vosviewer_files(tmp_path / "m.txt", tmp_path / "n.txt")


# Bad edge lines, each after the good line "1 2 0.5" in a file over the two
# vertices A and B; None stands for the reader's own endpoint message.
BAD_EDGE_LINES = [
    (("1", "x", "1.0"), "malformed edge line"),
    (("1", "2"), "malformed edge line"),
    (("1", "2", "1.0", "9"), "malformed edge line"),
    (("0", "2", "1.0"), None),
    (("1", "3", "1.0"), None),
    (("1", "2", "inf"), "edge weight inf is not finite"),
    (("1", "2", "-inf"), "edge weight -inf is not finite"),
    (("1", "2", "nan"), "edge weight nan is not finite"),
    (("2", "2", "1.0"), "self-loop on vertex 2"),
    (("2", "1", "1.0"), "repeats the edge 2-1 of line {first}"),
    (("1", "2", "0.5"), "repeats the edge 1-2 of line {first}"),
]


def _pajek_reader(tmp_path, edges):
    path = tmp_path / "g.net"
    path.write_text(f'*Vertices 2\n1 "A"\n2 "B"\n*Edges\n{edges}', encoding="utf-8")
    return path, 5, lambda: read_pajek_net(path)


def _vosviewer_reader(tmp_path, edges):
    (tmp_path / "m.txt").write_text(
        "id\tlabel\tcluster\tweight\n1\tA\t1\t1.0\n2\tB\t1\t1.0\n", encoding="utf-8"
    )
    path = tmp_path / "n.txt"
    path.write_text(edges, encoding="utf-8")
    return path, 1, lambda: read_vosviewer_files(tmp_path / "m.txt", path)


# reader: (field separator, endpoint message, file writer)
EDGE_READERS = {
    "pajek": (" ", "edge endpoint out of range", _pajek_reader),
    "vosviewer": ("\t", "edge endpoint not an id of the map", _vosviewer_reader),
}


@pytest.mark.parametrize("reader", sorted(EDGE_READERS))
@pytest.mark.parametrize(
    "fields, problem", BAD_EDGE_LINES,
    ids=["letter", "two-fields", "four-fields", "endpoint-0", "endpoint-n+1", "inf", "-inf",
         "nan", "loop", "reversed-repeat", "repeat"],
)
def test_both_graph_readers_refuse_a_bad_edge_line(tmp_path, reader, fields, problem):
    sep, out_of_range, write = EDGE_READERS[reader]
    path, first, read = write(tmp_path, f"1{sep}2{sep}0.5\n{sep.join(fields)}\n")
    message = (problem or out_of_range).format(first=first)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:{first + 1}: {message}')}$"):
        read()


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

    def test_each_distinct_name_is_normalized_once(self, tmp_path, monkeypatch):
        (tmp_path / "base.txt").write_text(BASEMAP_TSV, encoding="utf-8")
        basemap = read_basemap(tmp_path / "base.txt")
        calls = []
        normalize_name = io_export.normalize_name
        monkeypatch.setattr(
            io_export, "normalize_name", lambda name: calls.append(name) or normalize_name(name)
        )
        # "Pers Med" is in two categories; " Nature" and "Nature" are two
        # names with one key, whose first category is "citing".
        flag_sets = {"cited": ["Genet Med", "Pers Med"], "citing": ["Pers Med", " Nature"],
                     "other": ["Nature"]}
        colors = {"cited": "red", "citing": "blue", "other": "green"}
        write_overlay(flag_sets, basemap, colors, tmp_path / "o.txt")
        assert sorted(calls) == sorted({n for names in flag_sets.values() for n in names})
        rows = (tmp_path / "o.txt").read_text(encoding="utf-8").splitlines()[1:]
        categories = {row.split("\t")[0]: row.split("\t")[5:] for row in rows}
        assert categories == {"Genet Med": ["cited", "red"], "Pers Med": ["cited", "red"],
                              "Nature": ["citing", "blue"]}

    def test_duplicate_basemap_labels_rejected(self, tmp_path):
        bad = "label\tx\ty\nA\t0\t0\nA\t1\t1\n"
        (tmp_path / "base.txt").write_text(bad, encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            read_basemap(tmp_path / "base.txt")


# Base maps whose optional columns differ: (text, (cluster, weight) per row,
# expected overlay bytes).
BASEMAP_COLUMN_CASES = {
    "reordered": (
        "weight\ty\tid\tlabel\tx\n5\t-0.20\t1\tGenet Med\t0.10\n3\t0.40\t2\tPers Med\t0.30\n",
        [("", "5"), ("", "3")],
        "label\tx\ty\tweight\tcategory\tcolor\n"
        "Genet Med\t0.10\t-0.20\t5\t\t#c8c8c8\nPers Med\t0.30\t0.40\t3\tcited\tred\n",
    ),
    "id-and-unknown": (
        "id\tlabel\tnote\tx\ty\n1\tGenet Med\tgenetics\t0.10\t-0.20\n"
        "2\tPers Med\tmedicine\t0.30\t0.40\n",
        [("", ""), ("", "")],
        "label\tx\ty\tcategory\tcolor\n"
        "Genet Med\t0.10\t-0.20\t\t#c8c8c8\nPers Med\t0.30\t0.40\tcited\tred\n",
    ),
    "weight-without-cluster": (
        "label\tx\ty\tweight\nGenet Med\t0.10\t-0.20\t5\nPers Med\t0.30\t0.40\t3\n",
        [("", "5"), ("", "3")],
        "label\tx\ty\tweight\tcategory\tcolor\n"
        "Genet Med\t0.10\t-0.20\t5\t\t#c8c8c8\nPers Med\t0.30\t0.40\t3\tcited\tred\n",
    ),
    "cluster-without-weight": (
        "label\tx\ty\tcluster\nGenet Med\t0.10\t-0.20\t1\nPers Med\t0.30\t0.40\t2\n",
        [("1", ""), ("2", "")],
        "label\tx\ty\tcluster\tcategory\tcolor\n"
        "Genet Med\t0.10\t-0.20\t1\t\t#c8c8c8\nPers Med\t0.30\t0.40\t2\tcited\tred\n",
    ),
}

# The VOSviewer map takes only x and y from a base map, whatever else it has.
BASEMAP_VOSVIEWER_MAP = (
    "id\tlabel\tx\ty\tcluster\tweight\n"
    "1\tGenet Med\t0.10\t-0.20\t1\t0.00150000\n"
    "2\tPers Med\t0.30\t0.40\t1\t0.00350000\n"
    "3\tUnknown J\t\t\t1\t0.00200000\n"
)


@pytest.mark.parametrize("case", list(BASEMAP_COLUMN_CASES))
def test_basemap_columns_keep_their_values_and_bytes(tmp_path, case):
    text, cluster_weight, overlay = BASEMAP_COLUMN_CASES[case]
    (tmp_path / "base.txt").write_text(text, encoding="utf-8")
    basemap = read_basemap(tmp_path / "base.txt")
    rows = [dict(zip(basemap.columns, row)) for row in basemap.index.values()]
    assert [(row["label"], row["x"], row["y"]) for row in rows] == [
        ("Genet Med", "0.10", "-0.20"), ("Pers Med", "0.30", "0.40")
    ]
    assert [(row.get("cluster", ""), row.get("weight", "")) for row in rows] == cluster_weight
    write_overlay({"cited": {"Pers Med"}}, basemap, {"cited": "red"}, tmp_path / "o.txt")
    assert (tmp_path / "o.txt").read_bytes() == overlay.encode()
    graph = build_graph([("Genet Med", "Pers Med", -1.5e-3), ("Pers Med", "Unknown J", -2e-3)])
    write_vosviewer_files(graph, {v: 0 for v in graph.nodes}, tmp_path / "m.txt",
                          tmp_path / "n.txt", basemap=basemap)
    assert (tmp_path / "m.txt").read_bytes() == BASEMAP_VOSVIEWER_MAP.encode()


# Characters at which str.splitlines breaks a line but "\n"-only reading
# does not; a journal name may hold any of them.
SPLITLINES_ONLY_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", SPLITLINES_ONLY_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
class TestLinesBreakOnlyAtNewline:
    def _graph(self, char):
        return build_graph([("A", f"C{char}D", -1.0), (f"C{char}D", "E", -2.0)])

    def test_pajek_round_trip(self, tmp_path, char):
        graph = self._graph(char)
        write_pajek_net(graph, tmp_path / "g.net")
        parsed, labels = read_pajek_net(tmp_path / "g.net")
        assert labels == list(graph.nodes)
        assert labeled_edges(parsed, labels) == labeled_edges(graph, {v: v for v in graph.nodes})

    def test_vosviewer_round_trip(self, tmp_path, char):
        graph = self._graph(char)
        partition = {v: i for i, v in enumerate(graph.nodes)}
        write_vosviewer_files(graph, partition, tmp_path / "m.txt", tmp_path / "n.txt")
        _, clusters, labels = read_vosviewer_files(tmp_path / "m.txt", tmp_path / "n.txt")
        assert labels == list(graph.nodes)
        assert clusters == {i: i for i in range(len(labels))}

    def test_basemap_round_trip_through_overlay(self, tmp_path, char):
        (tmp_path / "base.txt").write_text(f"label\tx\ty\nC{char}D\t0.1\t0.2\nE\t1\t2\n", "utf-8")
        basemap = read_basemap(tmp_path / "base.txt")
        assert [row[0] for row in basemap.index.values()] == [f"C{char}D", "E"]
        write_overlay({"cited": {f"C{char}D"}}, basemap, {"cited": "red"}, tmp_path / "o.txt")
        again = read_basemap(tmp_path / "o.txt")
        # Both maps have the columns label, x, y, so rows are (label, x, y).
        assert again.columns == basemap.columns == ("label", "x", "y")
        assert list(again.index.values()) == list(basemap.index.values())

    def test_tensor_cache_year_labels(self, tmp_path, rng, char):
        labels = (f"20{char}11", "2012", "2013")
        tensor = make_tensor(random_active_grids(rng, 4, density=0.6, high=5), labels)
        write_tensor_cache(tensor, tmp_path / "cache")
        assert read_tensor_cache(tmp_path / "cache").year_labels == labels


# Any text, with the characters a line or a field of a text file cannot
# hold, others where str.splitlines breaks, a comment mark and a quote.
_ANY_TEXT = st.text(st.sampled_from(["\t", "\n", "\r", "\u2028", "\x0c", "#", '"', " "])
                    | st.characters(), max_size=5)


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
        (lambda d: rewrite_registry(d / "registry.json", lambda r: {**r, "years": r["years"][:2]}),
         "registry.json"),
        *((lambda d, edit=edit: rewrite_registry(d / "registry.json", edit), "registry.json")
          for edit in BAD_REGISTRY_EDITS.values()),
    ], ids=[
        "truncated-data", "truncated-header", "four-rows", "one-dimensional", "int32",
        "id-out-of-range", "negative-id", "duplicate-key", "unsorted-keys",
        "negative-count", "empty-cell", "two-labels",
        *(f"registry-{kind}" for kind in BAD_REGISTRY_EDITS),
    ])
    def test_malformed_cache_is_a_data_error(self, tmp_path, rng, corrupt, culprit):
        write_tensor_cache(make_tensor(random_active_grids(rng, 7, density=0.6)), tmp_path)
        corrupt(tmp_path)
        with pytest.raises(DataError, match=culprit):
            read_tensor_cache(tmp_path)

    def test_registry_holds_the_names_in_id_order_and_the_labels(self, tmp_path, small_tensor):
        write_tensor_cache(small_tensor, tmp_path)
        text = (tmp_path / "registry.json").read_text(encoding="utf-8")
        registry = {"journals": list(small_tensor.registry.names),
                    "years": list(small_tensor.year_labels)}
        assert text == json.dumps(registry, sort_keys=True) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cells.npy", "registry.json"]

    def test_unusual_names_round_trip(self, tmp_path, rng):
        tensor = make_tensor(random_active_grids(rng, len(REGISTRY_NAMES), density=0.6))
        tensor = dataclasses.replace(tensor, registry=JournalRegistry.from_names(REGISTRY_NAMES))
        write_tensor_cache(tensor, tmp_path)
        assert read_tensor_cache(tmp_path).registry.names == tensor.registry.names

    @settings(max_examples=80, deadline=None)
    @given(names=st.lists(_ANY_TEXT.filter(normalize_name), min_size=1, max_size=7, unique=True),
           labels=st.tuples(_ANY_TEXT, _ANY_TEXT, _ANY_TEXT),
           years=st.lists(st.lists(st.tuples(*[st.integers(0, 6)] * 2, st.integers(1, 9)),
                                   max_size=12), min_size=3, max_size=3),
           rename=st.none() | st.tuples(st.integers(0, 6), _ANY_TEXT))
    @example(names=["Line\nBreak", "Carriage\rReturn", " Padded\t", "Tab\tName", "Line\u2028Sep",
                    "# Not a Comment", '"Quoted"'],
             labels=("", "2012\t", "2013\r\n"), years=[[(1, 2, 3), (3, 4, 5)]] * 3, rename=(2, ""))
    def test_every_library_built_registry_round_trips(
        self, tmp_path_factory, names, labels, years, rename
    ):
        # Cell (0, 0) in every year keeps the common set from being empty.
        # from_cells refuses a name that normalizes to "", but a rename to
        # "" still puts one in the registry.
        matrices = [
            YearMatrix.from_cells(label, {
                (names[0], names[0]): 1,
                **{(names[c % len(names)], names[d % len(names)]): n for c, d, n in cells},
            })
            for label, cells in zip(labels, years)
        ]
        renames = [] if rename is None else [(names[rename[0] % len(names)], rename[1])]
        tensor = build_common_set(*apply_name_changes(matrices, renames))
        directory = tmp_path_factory.mktemp("cache")
        write_tensor_cache(tensor, directory)
        again = read_tensor_cache(directory)
        assert again.registry.names == tensor.registry.names
        assert again.year_labels == tensor.year_labels == labels
        for array in ("citing", "cited", "counts"):
            assert np.array_equal(getattr(again, array), getattr(tensor, array))

    def test_cache_bytes_do_not_depend_on_the_counts_layout(self, tmp_path, small_tensor):
        # remove_outliers and build_common_set return Fortran-ordered counts.
        counts = small_tensor.counts
        c_order = dataclasses.replace(small_tensor, counts=np.ascontiguousarray(counts))
        fortran = dataclasses.replace(small_tensor, counts=np.asfortranarray(counts))
        assert c_order.counts.flags.c_contiguous and not fortran.counts.flags.c_contiguous
        write_tensor_cache(c_order, tmp_path / "c")
        write_tensor_cache(fortran, tmp_path / "f")
        assert (tmp_path / "f" / "cells.npy").read_bytes() == \
            (tmp_path / "c" / "cells.npy").read_bytes()

    def test_missing_cells_file_is_an_io_error(self, tmp_path, small_tensor):
        write_tensor_cache(small_tensor, tmp_path)
        (tmp_path / "cells.npy").unlink()
        with pytest.raises(FileNotFoundError):
            read_tensor_cache(tmp_path)


def _rewrite_bytes(path, edit) -> None:
    path.write_bytes(edit(path.read_bytes()))


# Names a registry keeps: a comment mark, Unicode-only whitespace,
# characters where str.splitlines breaks, a quote and "; ".
REGISTRY_NAMES = [
    "# Not a Comment", "\u3000", "Form\x0cFeed", "Line\u2028Separator",
    'The "Quoted" Review', "Semi; Colon",
]


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
        citing, cited, scores = write_link_flag_reports(tmp_path, report)
        rows = (tmp_path / "hot_links.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "citing,cited,triangle_mbits"
        # Hottest first, labels break the tie; the returned arrays have the same order.
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["J004", "J001"], ["J003", "J000"], ["J005", "J002"]
        ]
        assert citing.tolist() == [4, 3, 5] and cited.tolist() == [1, 0, 2]
        assert scores[1] == scores[2] > scores[0]
        names = report.tensor.registry.names
        assert rows[1:] == [f"{names[c]},{names[d]},{to_unit(s, 'mbits'):.6f}"
                            for c, d, s in zip(citing, cited, scores.tolist())]


class TestSidecars:
    def test_links_carry_exact_bit_scores_in_report_order(self, tmp_path, rng):
        tensor = make_tensor(random_active_grids(rng, 10, density=0.7, high=40))
        report = build_flag_report(tensor, k=0.0, unit="mbits")
        assert report.hot_links
        write_hot_link_arrays(tmp_path, *write_link_flag_reports(tmp_path, report))
        link_flags = read_sidecar(tmp_path / "link_flags.json")
        assert "links" not in link_flags
        names = tensor.registry.names
        citing, cited, scores = read_hot_link_arrays(tmp_path, len(names))
        links = [(names[c], names[d], s)
                 for c, d, s in zip(citing.tolist(), cited.tolist(), scores.tolist())]
        expected = {(names[c], names[d], s) for c, d, s in report.hot_links}
        assert set(links) == expected  # floats compared exactly
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
            '{"format_version": 3, "k": NaN}\n',
            '{"format_version": 3, "threshold": {"lower": -Infinity}}\n',
            '{"format_version": 3, "threshold": {"upper": Infinity}}\n',
        ],
        ids=["version-1", "no-version", "not-an-object", "truncated", "empty", "nan",
             "minus-infinity", "infinity"],
    )
    def test_other_versions_and_broken_json_are_data_errors(self, tmp_path, text):
        path = tmp_path / "link_flags.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match="link_flags.json"):
            read_sidecar(path)


class TestHotLinkArrays:
    def _write(self, directory):
        citing, cited = np.array([3, 0, 2]), np.array([1, 2, 0])
        write_hot_link_arrays(directory, citing, cited, np.array([-3.5, -1.25, -1.0]))

    def test_round_trip_is_exact(self, tmp_path):
        self._write(tmp_path)
        citing, cited, scores = read_hot_link_arrays(tmp_path, 4)
        assert citing.dtype == cited.dtype == np.int64 and scores.dtype == np.float64
        assert citing.tolist() == [3, 0, 2] and cited.tolist() == [1, 2, 0]
        assert scores.tolist() == [-3.5, -1.25, -1.0]

    def test_empty_round_trip(self, tmp_path):
        empty = np.zeros(0, dtype=np.int64)
        write_hot_link_arrays(tmp_path, empty, empty, np.zeros(0))
        assert all(a.size == 0 for a in read_hot_link_arrays(tmp_path, 0))

    @pytest.mark.parametrize("name, edit, n", [
        ("hot_link_ids.npy", lambda a: a.astype(object), 4),
        ("hot_link_scores.npy", lambda a: a.astype(object), 4),
        ("hot_link_ids.npy", lambda a: a.astype(np.int32), 4),
        ("hot_link_ids.npy", lambda a: a.astype(np.float64), 4),
        ("hot_link_scores.npy", lambda a: a.astype(np.float32), 4),
        ("hot_link_ids.npy", lambda a: a.ravel(), 4),
        ("hot_link_scores.npy", lambda a: a[:2], 4),
        ("hot_link_ids.npy", lambda a: a, 3),
        ("hot_link_ids.npy", lambda a: _set(a, (1, 0), -1), 4),
        ("hot_link_scores.npy", lambda a: _set(a, 1, np.nan), 4),
        ("hot_link_scores.npy", lambda a: _set(a, 1, -np.inf), 4),
    ], ids=[
        "pickled-ids", "pickled-scores", "int32-ids", "float-ids", "float32-scores",
        "one-dimensional-ids", "short-scores", "id-out-of-range", "negative-id", "nan-score",
        "infinite-score",
    ])
    def test_tampered_arrays_are_data_errors(self, tmp_path, name, edit, n):
        self._write(tmp_path)
        path = tmp_path / name
        np.save(path, edit(np.load(path, allow_pickle=False)), allow_pickle=True)
        with pytest.raises(DataError, match=name):
            read_hot_link_arrays(tmp_path, n)

    def test_repeated_pair_is_a_data_error(self, tmp_path):
        citing, cited = np.array([3, 0, 2, 0]), np.array([1, 2, 0, 2])
        write_hot_link_arrays(tmp_path, citing, cited, np.array([-3.5, -1.25, -1.0, -1.0]))
        with pytest.raises(DataError, match=r"hot_link_ids\.npy: a \(citing, cited\) pair "
                                            r"appears twice"):
            read_hot_link_arrays(tmp_path, 4)

    def test_reversed_pair_is_not_a_repeat(self, tmp_path):
        write_hot_link_arrays(tmp_path, np.array([0, 2]), np.array([2, 0]), np.array([-2.0, -1.0]))
        assert read_hot_link_arrays(tmp_path, 4)[0].tolist() == [0, 2]


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

    def test_tied_values_rank_by_name(self, tmp_path):
        # Journals 0-5 cite circulantly, so they share every margin; 6 and 7
        # are a constant dyad and 8 is idle, so several values are 0.0.
        grids = []
        for row in ([3, 1, 0, 2, 0, 1], [2, 2, 1, 0, 1, 3], [1, 4, 1, 1, 0, 2]):
            grid = np.zeros((9, 9), dtype=np.int64)
            for i in range(6):
                for k, count in enumerate(row):
                    grid[i, (i + k) % 6] = count
            grid[6, 7] = grid[7, 6] = 5
            grids.append(grid)
        report = build_flag_report(make_tensor(grids), k=1.0, unit="mbits")
        write_flag_journal_reports(tmp_path, report)
        names = report.tensor.registry.names

        def journals(filename):
            with open(tmp_path / filename, encoding="utf-8", newline="") as handle:
                return [row[0] for row in list(csv.reader(handle))[1:]]

        def ranked(values):
            values = values.tolist()
            assert 0.0 in values and len(set(values)) < len(values) - 2
            order = sorted(range(len(names)), key=lambda i: (values[i], names[i]))
            return [names[i] for i in order]

        for direction in ("cited", "citing"):
            values = report.value_sets
            final = values[f"margin_02_{direction}"]
            assert journals(f"margins_{direction}.csv") == ranked(-final)
            assert journals(f"revision_{direction}.csv") == ranked(values[f"revision_{direction}"])
            assert journals(f"triangle_nodes_{direction}.csv") == ranked(
                values[f"triangle_{direction}"]
            )

    def test_to_unit_round_trip(self):
        assert to_unit(0.001, "mbits") == pytest.approx(1.0)
        assert to_unit(1e-6, "microbits") == pytest.approx(1.0)
        with pytest.raises(ValueError):
            to_unit(1.0, "nanobits")


# Names csv.writer must quote (a comma, a quote) or must not (spaces at
# either end, a form feed, a line separator that only str.splitlines breaks at).
QUOTING_NAMES = [
    "  Leading Spaces", "Trailing Spaces  ", "Comma, Journal of", 'The "Quoted" Review',
    "Form\x0cFeed Letters", "\u2028Separator Review", "Plain Annals",
]


def test_names_in_reports_are_quoted_as_csv_writer_quotes_them(tmp_path, rng):
    tensor = make_tensor(random_active_grids(rng, len(QUOTING_NAMES), density=0.8))
    tensor = dataclasses.replace(tensor, registry=JournalRegistry.from_names(QUOTING_NAMES))
    report = build_flag_report(tensor, k=0.0)
    write_flag_journal_reports(tmp_path, report)
    citing, cited, scores = write_link_flag_reports(tmp_path, report)
    graph = HotLinkGraph.from_ids(citing, cited, scores, tensor.registry.names)
    components = connected_components(graph)
    write_network_reports(
        tmp_path, Network(graph, components, louvain(graph), degree_centrality(graph))
    )

    names = set(QUOTING_NAMES)
    journal_tables = [
        f"{table}_{direction}.csv"
        for table in ("margins", "revision", "triangle_nodes")
        for direction in ("cited", "citing")
    ]
    for table in journal_tables:
        assert {row[0] for row in csv_writer_rows(tmp_path / table)} == names
    links = csv_writer_rows(tmp_path / "hot_links.csv")
    assert {name for row in links for name in row[:2]} == names
    assert [row[0] for row in csv_writer_rows(tmp_path / "communities.csv")] == list(graph.nodes)
    assert {row[0] for row in csv_writer_rows(tmp_path / "degree_ranking.csv")} == names
    assert [row[2] for row in csv_writer_rows(tmp_path / "components.csv")] == [
        "; ".join(members) for members in components.components
    ]
    csv_writer_rows(tmp_path / "transition_summary.csv")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_degree_ranking_is_degree_descending_then_journal_name(tmp_path, seed):
    # A sparse random graph on 80 journals: few distinct degrees, each
    # shared by many journals of the main component.
    rng = np.random.default_rng(seed)
    names = sorted(f"J{i}" for i in range(80))
    pairs = rng.integers(0, 80, size=(120, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    graph = HotLinkGraph.from_ids(pairs[:, 0], pairs[:, 1], -rng.random(len(pairs)), names)
    components = connected_components(graph)
    write_network_reports(
        tmp_path, Network(graph, components, louvain(graph), degree_centrality(graph))
    )

    deg = dict.fromkeys(graph.nodes, 0)
    for i in graph.u.tolist() + graph.v.tolist():
        deg[graph.nodes[i]] += 1
    giant = components.components[0]
    assert len({deg[v] for v in giant}) * 5 < len(giant)
    assert csv_writer_rows(tmp_path / "degree_ranking.csv") == [
        [v, str(deg[v])] for v in sorted(giant, key=lambda v: (-deg[v], v))
    ]


class TestWriteJson:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_is_rejected_before_the_file_opens(self, tmp_path, bad):
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            write_json(path, {"config": {"k": bad}})
        assert not path.exists()
