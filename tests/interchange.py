"""Strict readers of the Pajek and VOSviewer files that citeheat writes.

citeheat itself never reads these formats back; the tests use the readers
as the writers' oracle. Each is the exact inverse of its writer on the
writer's own output, and refuses anything the writer cannot have written
(a malformed line, an endpoint out of range, a non-finite weight, a loop,
a repeated edge, a cluster number below 1) with DataError naming
``path:line``, so a writer regression shows as a failed round trip.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from citeheat.corpus import open_utf8
from citeheat.errors import DataError
from citeheat.netgraph import HotLinkGraph, build_graph


def _read_lines(path: str | Path) -> list[str]:
    """A UTF-8 text file's lines, broken only at "\n" after universal-newline
    decoding: a name may hold "\x0c" or U+2028, where str.splitlines breaks."""
    with open_utf8(path) as handle:
        return [line.rstrip("\n") for line in handle]


def _decimal(text: str) -> int:
    """The integer that ``text`` spells in ASCII decimal digits, with an
    optional "-", as the writers spell it; int() alone would also read
    "+1", "1_0", " 3" or an Arabic-Indic digit. Else ValueError."""
    digits = text.removeprefix("-")
    if not (digits.isdigit() and digits.isascii()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _read_edge(fields: list[str], n: int, seen: dict, path, lineno: int, out_of_range: str):
    """0-based endpoints and weight of an edge line's three ``fields``: ASCII
    decimal endpoints in 1..``n``, a finite weight, and neither a loop nor a
    repeat of a line in ``seen`` (the writers write neither). Else DataError
    at ``path:lineno``, with ``out_of_range`` as the endpoint message."""
    try:
        i, j, w = fields
        i, j, w = _decimal(i), _decimal(j), float(w)
    except ValueError:
        raise DataError(f"{path}:{lineno}: malformed edge line") from None
    if not (1 <= i <= n and 1 <= j <= n):
        raise DataError(f"{path}:{lineno}: {out_of_range}")
    if not math.isfinite(w):
        raise DataError(f"{path}:{lineno}: edge weight {w} is not finite")
    if i == j:
        raise DataError(f"{path}:{lineno}: self-loop on vertex {i}")
    key = (i, j) if i < j else (j, i)
    if key in seen:
        raise DataError(f"{path}:{lineno}: repeats the edge {i}-{j} of line {seen[key]}")
    seen[key] = lineno
    return i - 1, j - 1, w


def _read_vertices_header(lines: list[str], path) -> int:
    """N of the ``*Vertices N`` line that opens a Pajek file."""
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise DataError(f"{path}:1: expected *Vertices header")
    try:
        return _decimal(lines[0].split()[1])
    except (IndexError, ValueError):
        raise DataError(f"{path}:1: malformed *Vertices header") from None


_VERTEX_RE = re.compile(r'^([0-9]+)\s+"([^"]*)"\s*$')


def read_pajek_net(path: str | Path) -> tuple[HotLinkGraph, list[str]]:
    """Inverse of write_pajek_net; nodes come back as 0-based positions.

    A malformed line, an endpoint out of range, a non-finite weight, a loop
    or a repeated edge is a DataError naming ``path:line``."""
    labels: list[str] = []
    edges: list[tuple[int, int, float]] = []
    seen: dict = {}
    lines = _read_lines(path)
    n_vertices = _read_vertices_header(lines, path)
    section = "vertices"
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.lower().startswith("*edges"):
            section = "edges"
            continue
        if section == "vertices":
            match = _VERTEX_RE.match(line)
            if not match:
                raise DataError(f"{path}:{lineno}: malformed vertex line")
            if int(match.group(1)) != len(labels) + 1:
                raise DataError(f"{path}:{lineno}: vertex ids must be sequential")
            labels.append(match.group(2))
        else:
            edges.append(_read_edge(line.split(), n_vertices, seen, path, lineno,
                                    "edge endpoint out of range"))
    if len(labels) != n_vertices:
        raise DataError(f"{path}: vertex count mismatch: header says {n_vertices}")
    return build_graph(edges), labels


def read_pajek_clu(path: str | Path) -> list[int]:
    """Inverse of write_pajek_clu; returns 0-based cluster ids."""
    lines = _read_lines(path)
    n = _read_vertices_header(lines, path)
    clusters = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        digits = line.strip()
        if not (digits.isdigit() and digits.isascii()) or int(digits) < 1:
            raise DataError(f"{path}:{lineno}: malformed cluster number, not an integer >= 1")
        clusters.append(int(digits) - 1)
    if len(clusters) != n:
        raise DataError(f"{path}: expected {n} cluster lines, found {len(clusters)}")
    return clusters


def read_vosviewer_files(
    map_path: str | Path, network_path: str | Path
) -> tuple[HotLinkGraph, dict[int, int], list[str]]:
    """Inverse of write_vosviewer_files on its own output.

    Cluster numbers are integers >= 1, edge endpoints ids of the map, edge
    weights finite and no edge a loop or a repeat, else DataError naming
    ``path:line``."""
    lines = _read_lines(map_path)
    if not lines:
        raise DataError(f"{map_path}: empty map file")
    header = lines[0].split("\t")
    col = {name: i for i, name in enumerate(header)}
    for required in ("id", "label", "cluster"):
        if required not in col:
            raise DataError(f"{map_path}: missing column {required!r}")
    labels: list[str] = []
    clusters: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            node_id, cluster = _decimal(fields[col["id"]]), _decimal(fields[col["cluster"]])
            label = fields[col["label"]]
        except (IndexError, ValueError):
            raise DataError(f"{map_path}:{lineno}: malformed map line") from None
        if node_id != len(labels) + 1:
            raise DataError(f"{map_path}:{lineno}: ids must be sequential")
        if cluster < 1:
            raise DataError(f"{map_path}:{lineno}: cluster number {cluster} is below 1")
        labels.append(label)
        clusters[node_id - 1] = cluster - 1
    edges = []
    seen: dict = {}
    for lineno, line in enumerate(_read_lines(network_path), start=1):
        if line.strip():
            edges.append(_read_edge(line.split("\t"), len(labels), seen, network_path, lineno,
                                    "edge endpoint not an id of the map"))
    return build_graph(edges), clusters, labels
