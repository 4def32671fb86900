"""Every text input may start with a UTF-8 byte-order mark: a file written
with one reads the same as the file without it."""

from __future__ import annotations

import pytest

from citeheat.cli import load_config_file
from citeheat.corpus import parse_edge_list, parse_rename_file
from citeheat.io_export import (
    read_basemap,
    read_json,
    read_registry,
    read_sidecar,
)

from interchange import read_pajek_clu, read_pajek_net, read_vosviewer_files

BOM = "\ufeff"


def _year(matrix):
    return (matrix.names, matrix.citing.tolist(), matrix.cited.tolist(), matrix.counts.tolist())


def _graph(graph_and_rest):
    graph, *rest = graph_and_rest
    return graph.edges, rest


# kind: ({file name: text}, read(directory) -> a comparable value)
FILE_KINDS = {
    "edge-list": ({"y.tsv": "A\tB\t3\nB\tA\t2\nA\tB\t1\n"},
                  lambda d: _year(parse_edge_list(d / "y.tsv", "2011"))),
    "edge-list-comment-first": ({"y.tsv": "# year 2011\nA\tB\t3\nB\tA\t2\n"},
                                lambda d: _year(parse_edge_list(d / "y.tsv", "2011"))),
    "renames": ({"r.tsv": "Old J\tNew J\n# note\nNew J\tNewer J\n"},
                lambda d: parse_rename_file(d / "r.tsv")),
    "renames-comment-first": ({"r.tsv": "# renames\nOld J\tNew J\n"},
                              lambda d: parse_rename_file(d / "r.tsv")),
    "basemap": ({"b.txt": "label\tx\ty\tcluster\nA\t0.1\t0.2\t1\nB\t1\t2\t2\n"},
                lambda d: read_basemap(d / "b.txt")),
    "config": ({"run.cfg": "k = 2.0\nyear = 2011=a.tsv\n"},
               lambda d: load_config_file(d / "run.cfg")),
    "config-comment-first": ({"run.cfg": "# config\nk = 2.0\n"},
                             lambda d: load_config_file(d / "run.cfg")),
    "registry": ({"registry.tsv": "A\nB\n"}, lambda d: read_registry(d / "registry.tsv")),
    "json": ({"s.json": '{"format_version": 3, "k": 1.0}\n'},
             lambda d: read_json(d / "s.json")),
    "sidecar": ({"s.json": '{"format_version": 3, "k": 1.0}\n'},
                lambda d: read_sidecar(d / "s.json")),
    "pajek-net": ({"g.net": '*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 0.5\n'},
                  lambda d: _graph(read_pajek_net(d / "g.net"))),
    "pajek-clu": ({"c.clu": "*Vertices 2\n1\n2\n"}, lambda d: read_pajek_clu(d / "c.clu")),
    "vosviewer": ({"m.txt": "id\tlabel\tcluster\tweight\n1\tA\t1\t0.5\n2\tB\t2\t0.5\n",
                   "n.txt": "1\t2\t0.5\n"},
                  lambda d: _graph(read_vosviewer_files(d / "m.txt", d / "n.txt"))),
}


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
def test_a_leading_byte_order_mark_is_dropped(tmp_path, kind):
    files, read = FILE_KINDS[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for directory, prefix in ((plain, ""), (marked, BOM)):
        directory.mkdir()
        for name, text in files.items():
            (directory / name).write_text(prefix + text, encoding="utf-8")
    assert (marked / next(iter(files))).read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(marked) == read(plain)


def test_edge_list_with_a_mark_has_no_phantom_journal(tmp_path):
    path = tmp_path / "y.tsv"
    path.write_text(BOM + "A\tB\t3\nB\tA\t2\n", encoding="utf-8")
    assert parse_edge_list(path, "2011").names == ("A", "B")


def test_only_a_leading_mark_is_dropped(tmp_path):
    # A mark inside the file is part of the text: here, of a name.
    path = tmp_path / "y.tsv"
    path.write_text("A\tB\t3\n" + BOM + "A\tB\t2\n", encoding="utf-8")
    assert parse_edge_list(path, "2011").names == ("A", "B", BOM + "A")
