"""File emission and parsing: Pajek, VOSviewer, overlays, CSV/JSON reports.

Every writer is deterministic: LF line endings, fixed orderings, fixed float
formats (6 significant digits in network files, 6 decimals in CSVs), so
identical input produces byte-identical files on any platform. The readers
of the interchange formats (Pajek, VOSviewer, base maps) are exact inverses
of the writers on their own output.

Human reports (CSV, comma-separated, one header row) are write-only: no
stage reads them back. They round to 6 decimals in the reporting unit:

* transition_summary.csv: transition, mean_<u>, sd_cited_<u>, sd_citing_<u>, sum_<u>
  (mean and SDs are those of the journal_flags.json margin_<ab> and
  revision thresholds: mean and SD of the cited margins, SD of the citing)
* margins_<dir>.csv:      journal, kl_<y0>_<y1>_<u>, kl_<y1>_<y2>_<u>, kl_<y0>_<y2>_<u>, monotonic
* revision_<dir>.csv:     journal, revision_<u>, flagged
* triangle_nodes_<dir>.csv: journal, triangle_<u>, flagged
* hot_links.csv:          citing, cited, triangle_<u>
* degree_ranking.csv:     journal, degree            (giant component only)
* components.csv:         component, size, members   (members "; "-joined)
* communities.csv:        journal, component, community

with <u> the configured unit (bits | mbits | microbits) and <dir> cited or
citing. Margins are ranked by the t0->t2 column descending; revision,
triangle and link tables ascending (most negative first).

Sidecars (JSON, format_version 2) are the machine boundary out of reports/;
read_sidecar rejects any other version with DataError naming the file.
Every JSON file (the two sidecars, corpus_stats.json and summary.json) is
one line with sorted keys.

* journal_flags.json: unit, k, outliers_removed, journals, thresholds (in
  the unit), counts and revision_excluded_cells, plus ``flagged``: for each
  key of counts (monotonic_up, monotonic_down, revision_flagged,
  triangle_flagged_nodes) ``{"cited": [names], "citing": [names]}`` with
  names sorted, so len(flagged[key][dir]) == counts[key][dir].
* link_flags.json: unit, k, drop_loops, outliers_removed, threshold (in the
  unit), evaluated_cells, hot_links, loops_flagged, plus ``links``:
  ``[citing, cited, triangle]`` rows in hot_links.csv order with the score
  in bits, written with repr so it reads back exactly. The graph stage
  builds its network from these rows, so network/ and export/ do not
  depend on the unit.

Stage cache (ingest/): registry.tsv (``id<TAB>name``, ids dense, names
strictly increasing), years.txt (the three labels, one per line) and
cells.npy, one little-endian int64 array of shape (5, n_cells) with rows
citing, cited, counts[0..2], written by np.save, which stores no timestamp.
The reader treats these files as outside input: .npy format only, no
pickles, ids in [0, N), keys citing*N + cited strictly increasing, counts
>= 0 and every cell positive in some year, else DataError naming the file.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import AlignedTensor, JournalRegistry, normalize_name, open_utf8
from .entropy import DIRECTIONS, to_unit
from .errors import DataError
from .flags import FlagReport, ThresholdSpec, threshold_key
from .netgraph import CommunityPartition, ComponentPartition, HotLinkGraph

FORMAT_VERSION = 2

NEUTRAL_COLOR = "#c8c8c8"


def _open_w(path: str | Path):
    return open(path, "w", encoding="utf-8", newline="\n")


def fmt_sig6(x: float) -> str:
    """Positional formatting with 6 significant digits (stable under
    re-parsing, so re-exports are byte-identical)."""
    if x == 0:
        return "0.00000"
    exponent = int(f"{abs(x):.5e}".split("e")[1])
    decimals = max(0, 5 - exponent)
    return f"{x:.{decimals}f}"


def fmt_dec6(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# Pajek
# ---------------------------------------------------------------------------

def write_pajek_net(graph: HotLinkGraph, path: str | Path, labels: Mapping | None = None) -> None:
    """Emit `*Vertices N` with 1-based ids and quoted labels, then `*Edges`.

    Vertex order is ascending node id; edge endpoints reference vertex
    positions. Labels containing a double quote cannot be represented.
    """
    nodes = list(graph.nodes)
    position = {v: i + 1 for i, v in enumerate(nodes)}
    with _open_w(path) as out:
        out.write(f"*Vertices {len(nodes)}\n")
        for v in nodes:
            label = str(labels[v]) if labels is not None else str(v)
            if '"' in label:
                raise DataError(f"label not representable in Pajek: {label!r}")
            out.write(f'{position[v]} "{label}"\n')
        if graph.edges:
            out.write("*Edges\n")
            for u, v, w in graph.edges:
                i, j = sorted((position[u], position[v]))
                out.write(f"{i} {j} {fmt_sig6(w)}\n")


_VERTEX_RE = re.compile(r'^(\d+)\s+"([^"]*)"\s*$')


def read_pajek_net(path: str | Path) -> tuple[HotLinkGraph, list[str]]:
    """Inverse of write_pajek_net; nodes come back as 0-based positions."""
    labels: list[str] = []
    edges: list[tuple[int, int, float]] = []
    with open_utf8(path) as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise DataError(f"{path}:1: expected *Vertices header")
    try:
        n_vertices = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise DataError(f"{path}:1: malformed *Vertices header") from None
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
            fields = line.split()
            if len(fields) != 3:
                raise DataError(f"{path}:{lineno}: malformed edge line")
            i, j = int(fields[0]), int(fields[1])
            if not (1 <= i <= n_vertices and 1 <= j <= n_vertices):
                raise DataError(f"{path}:{lineno}: edge endpoint out of range")
            edges.append((i - 1, j - 1, float(fields[2])))
    if len(labels) != n_vertices:
        raise DataError(f"{path}: vertex count mismatch: header says {n_vertices}")
    return HotLinkGraph.from_edges(edges), labels


def write_pajek_clu(
    assignment: Mapping, path: str | Path, nodes: Sequence | None = None
) -> None:
    """One 1-based cluster id per line, in ascending-node vertex order."""
    if nodes is None:
        nodes = sorted(assignment)
    with _open_w(path) as out:
        out.write(f"*Vertices {len(nodes)}\n")
        for v in nodes:
            out.write(f"{assignment[v] + 1}\n")


def read_pajek_clu(path: str | Path) -> list[int]:
    """Inverse of write_pajek_clu; returns 0-based cluster ids."""
    with open_utf8(path) as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise DataError(f"{path}:1: expected *Vertices header")
    try:
        n = int(lines[0].split()[1])
        clusters = [int(line) - 1 for line in lines[1:] if line.strip()]
    except (IndexError, ValueError):
        raise DataError(f"{path}: malformed partition file") from None
    if len(clusters) != n:
        raise DataError(f"{path}: expected {n} cluster lines, found {len(clusters)}")
    return clusters


# ---------------------------------------------------------------------------
# Base maps and VOSviewer files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseMapRow:
    label: str
    x: str
    y: str
    cluster: str = ""
    weight: str = ""


@dataclass(frozen=True)
class BaseMap:
    """A fixed global map to overlay results on; labels unique after the
    same normalization the registry applies. Coordinates are kept verbatim."""

    rows: tuple[BaseMapRow, ...]
    has_cluster: bool
    has_weight: bool

    @cached_property
    def index(self) -> dict[str, BaseMapRow]:
        return {normalize_name(row.label): row for row in self.rows}


def read_basemap(path: str | Path) -> BaseMap:
    """Parse a tab-separated map file with a header naming at least
    label, x and y columns (id, cluster and weight are recognized too)."""
    with open_utf8(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty base map")
    header = [h.strip().lower() for h in lines[0].split("\t")]
    try:
        col = {name: header.index(name) for name in ("label", "x", "y")}
    except ValueError as exc:
        raise DataError(f"{path}: base map header must name label, x and y ({exc})") from None
    cluster_idx = header.index("cluster") if "cluster" in header else None
    weight_idx = header.index("weight") if "weight" in header else None
    rows = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
        label = fields[col["label"]]
        key = normalize_name(label)
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate label {label!r}")
        seen.add(key)
        rows.append(
            BaseMapRow(
                label=label,
                x=fields[col["x"]],
                y=fields[col["y"]],
                cluster=fields[cluster_idx] if cluster_idx is not None else "",
                weight=fields[weight_idx] if weight_idx is not None else "",
            )
        )
    return BaseMap(
        rows=tuple(rows),
        has_cluster=cluster_idx is not None,
        has_weight=weight_idx is not None,
    )


def write_vosviewer_files(
    graph: HotLinkGraph,
    partition: Mapping,
    map_path: str | Path,
    network_path: str | Path,
    labels: Mapping | None = None,
    basemap: BaseMap | None = None,
    unmatched_path: str | Path | None = None,
) -> list:
    """Emit the map/network text file pair VOSviewer opens directly.

    Without a base map the x,y columns are omitted so VOSviewer computes its
    own layout; with one, coordinates are copied verbatim and nodes missing
    from the map are written with empty coordinates and listed in the
    unmatched report. Returns the unmatched nodes.

    The weight column is the node strength summed over the 6-digit edge
    weights the network file itself declares, which keeps re-exports of a
    re-read pair byte-identical.
    """
    nodes = list(graph.nodes)
    position = {v: i + 1 for i, v in enumerate(nodes)}
    strength = {v: 0.0 for v in nodes}
    for u, v, w in graph.edges:
        declared = float(fmt_sig6(w))
        strength[u] += declared
        strength[v] += declared

    def label_of(v) -> str:
        return str(labels[v]) if labels is not None else str(v)

    unmatched = []
    if basemap is not None:
        unmatched = [v for v in nodes if normalize_name(label_of(v)) not in basemap.index]

    with _open_w(map_path) as out:
        if basemap is None:
            out.write("id\tlabel\tcluster\tweight\n")
        else:
            out.write("id\tlabel\tx\ty\tcluster\tweight\n")
        for v in nodes:
            cluster = partition[v] + 1
            weight = fmt_sig6(strength[v])
            if basemap is None:
                out.write(f"{position[v]}\t{label_of(v)}\t{cluster}\t{weight}\n")
            else:
                row = basemap.index.get(normalize_name(label_of(v)))
                x, y = (row.x, row.y) if row is not None else ("", "")
                out.write(f"{position[v]}\t{label_of(v)}\t{x}\t{y}\t{cluster}\t{weight}\n")

    with _open_w(network_path) as out:
        for u, v, w in graph.edges:
            i, j = sorted((position[u], position[v]))
            out.write(f"{i}\t{j}\t{fmt_sig6(w)}\n")

    if basemap is not None and unmatched_path is not None:
        with _open_w(unmatched_path) as out:
            for v in unmatched:
                out.write(f"{label_of(v)}\n")
    return unmatched


def read_vosviewer_files(
    map_path: str | Path, network_path: str | Path
) -> tuple[HotLinkGraph, dict[int, int], list[str]]:
    """Inverse of write_vosviewer_files on its own output."""
    with open_utf8(map_path) as handle:
        lines = handle.read().splitlines()
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
        node_id = int(fields[col["id"]])
        if node_id != len(labels) + 1:
            raise DataError(f"{map_path}:{lineno}: ids must be sequential")
        labels.append(fields[col["label"]])
        clusters[node_id - 1] = int(fields[col["cluster"]]) - 1
    edges = []
    with open_utf8(network_path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise DataError(f"{network_path}:{lineno}: malformed edge line")
            edges.append((int(fields[0]) - 1, int(fields[1]) - 1, float(fields[2])))
    return HotLinkGraph.from_edges(edges), clusters, labels


def write_overlay(
    flag_sets: Mapping[str, Iterable[str]],
    basemap: BaseMap,
    colors: Mapping[str, str],
    path: str | Path,
) -> None:
    """Annotate base-map rows with flag categories for visual overlay.

    A node flagged in several categories gets the first matching one in
    ``flag_sets`` order; unflagged rows keep neutral styling.
    """
    normalized = {
        category: {normalize_name(n) for n in names}
        for category, names in flag_sets.items()
    }
    columns = ["label", "x", "y"]
    if basemap.has_cluster:
        columns.append("cluster")
    if basemap.has_weight:
        columns.append("weight")
    columns += ["category", "color"]
    with _open_w(path) as out:
        out.write("\t".join(columns) + "\n")
        for row in basemap.rows:
            key = normalize_name(row.label)
            category, color = "", NEUTRAL_COLOR
            for name, members in normalized.items():
                if key in members:
                    category, color = name, colors[name]
                    break
            fields = [row.label, row.x, row.y]
            if basemap.has_cluster:
                fields.append(row.cluster)
            if basemap.has_weight:
                fields.append(row.weight)
            fields += [category, color]
            out.write("\t".join(fields) + "\n")


# ---------------------------------------------------------------------------
# Stage cache: aligned tensor and hot links
# ---------------------------------------------------------------------------

def write_tensor_cache(tensor: AlignedTensor, directory: str | Path) -> None:
    """Persist the aligned tensor as registry.tsv, years.txt and cells.npy."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with _open_w(directory / "registry.tsv") as out:
        out.write("# id\tname\n")
        for i, name in enumerate(tensor.registry.names):
            out.write(f"{i}\t{name}\n")
    with _open_w(directory / "years.txt") as out:
        out.write("".join(f"{label}\n" for label in tensor.year_labels))
    cells = np.vstack([tensor.citing, tensor.cited, tensor.counts]).astype("<i8", copy=False)
    np.save(directory / "cells.npy", cells, allow_pickle=False)


def read_tensor_cache(directory: str | Path) -> AlignedTensor:
    """Rebuild the tensor exactly from the files write_tensor_cache wrote.

    The cache is checked like outside input (see the module docstring); a
    violation raises DataError naming the file, a missing file OSError.
    """
    directory = Path(directory)
    registry_path = directory / "registry.tsv"
    names: list[str] = []
    with open_utf8(registry_path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise DataError(f"{registry_path}:{lineno}: malformed entry")
            if fields[0] != str(len(names)):
                raise DataError(f"{registry_path}:{lineno}: ids must be dense")
            names.append(fields[1])
    if any(a >= b for a, b in zip(names, names[1:])):
        raise DataError(f"{registry_path}: names are not strictly increasing")

    years_path = directory / "years.txt"
    with open_utf8(years_path) as handle:
        labels = handle.read().splitlines()
    if len(labels) != 3 or not all(labels):
        raise DataError(f"{years_path}: expected 3 year labels, found {labels}")

    cells_path = directory / "cells.npy"
    with open(cells_path, "rb") as handle:
        try:
            cells = np.lib.format.read_array(handle, allow_pickle=False)
        except ValueError as exc:
            raise DataError(f"{cells_path}: {exc}") from None
    n = len(names)
    if cells.dtype != np.dtype("<i8") or cells.ndim != 2 or cells.shape[0] != 5:
        raise DataError(
            f"{cells_path}: expected int64 of shape (5, n), got {cells.dtype} {cells.shape}"
        )
    citing, cited, counts = cells[0], cells[1], cells[2:]
    if not ((cells[:2] >= 0) & (cells[:2] < n)).all():
        raise DataError(f"{cells_path}: journal id outside [0, {n})")
    if not (np.diff(citing * n + cited) > 0).all():
        raise DataError(f"{cells_path}: cells are not strictly increasing by (citing, cited)")
    if (counts < 0).any():
        raise DataError(f"{cells_path}: negative count")
    if not (counts > 0).any(axis=0).all():
        raise DataError(f"{cells_path}: cell with no positive count in any year")
    return AlignedTensor(
        registry=JournalRegistry.from_names(names),
        year_labels=tuple(labels),
        citing=citing,
        cited=cited,
        counts=counts,
    )


def write_hot_links_csv(
    path: str | Path, hot_links: Sequence[tuple[str, str, float]], unit: str
) -> None:
    """Label-keyed flagged cells, one row each, in the order given."""
    with _open_w(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["citing", "cited", f"triangle_{unit}"])
        for citing, cited, score in hot_links:
            writer.writerow([citing, cited, fmt_dec6(to_unit(score, unit))])


# ---------------------------------------------------------------------------
# Report tables
# ---------------------------------------------------------------------------

def _threshold_json(spec: ThresholdSpec, unit: str) -> dict:
    return {
        "k": spec.k,
        "mean": to_unit(spec.mean, unit),
        "sd": to_unit(spec.sd, unit),
        "upper": to_unit(spec.upper, unit),
        "lower": to_unit(spec.lower, unit),
    }


def write_json(path: str | Path, payload: dict) -> None:
    """One line of JSON with sorted keys. ``json.dumps`` without an indent
    uses the C encoder; ``json.dump`` never does."""
    with _open_w(path) as out:
        out.write(json.dumps(payload, sort_keys=True) + "\n")


def read_sidecar(path: str | Path) -> dict:
    """Load a JSON sidecar of the current FORMAT_VERSION."""
    try:
        with open_utf8(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise DataError(
            f"{path}: format_version {version!r}, expected {FORMAT_VERSION}; "
            "re-run the stage that writes it"
        )
    return payload


def write_flag_journal_reports(outdir: str | Path, report: FlagReport) -> None:
    """Emit the journal-level tables plus the journal_flags.json sidecar."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    unit = report.unit
    tensor = report.tensor
    names = tensor.registry.names

    with _open_w(outdir / "transition_summary.csv") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["transition", f"mean_{unit}", f"sd_cited_{unit}", f"sd_citing_{unit}", f"sum_{unit}"]
        )
        rows = [
            (cells.pair_label, "margin", pair, cells.grand_sum)
            for pair, cells in report.transitions.items()
        ]
        rows.append(("revision_of_prediction", "revision", None, report.revision.grand_sum))
        for label, family, pair, grand_sum in rows:
            cited = report.thresholds[threshold_key(family, "cited", pair)]
            citing = report.thresholds[threshold_key(family, "citing", pair)]
            values = (cited.mean, cited.sd, citing.sd, grand_sum)
            writer.writerow([label] + [fmt_dec6(to_unit(x, unit)) for x in values])

    labels = tensor.year_labels
    for direction in DIRECTIONS:
        m01 = report.margins[((0, 1), direction)]
        m12 = report.margins[((1, 2), direction)]
        m02 = report.margins[((0, 2), direction)]
        up = report.monotonic_up[direction]
        down = report.monotonic_down[direction]
        order = sorted(range(len(names)), key=lambda i: (-m02[i], names[i]))
        with _open_w(outdir / f"margins_{direction}.csv") as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(
                [
                    "journal",
                    f"kl_{labels[0]}_{labels[1]}_{unit}",
                    f"kl_{labels[1]}_{labels[2]}_{unit}",
                    f"kl_{labels[0]}_{labels[2]}_{unit}",
                    "monotonic",
                ]
            )
            for i in order:
                flag = "up" if i in up else "down" if i in down else ""
                writer.writerow(
                    [
                        names[i],
                        fmt_dec6(to_unit(m01[i], unit)),
                        fmt_dec6(to_unit(m12[i], unit)),
                        fmt_dec6(to_unit(m02[i], unit)),
                        flag,
                    ]
                )

        _write_flag_table(
            outdir / f"revision_{direction}.csv",
            "revision",
            names,
            report.revision_node_margins[direction],
            report.revision_flagged[direction],
            unit,
        )
        _write_flag_table(
            outdir / f"triangle_nodes_{direction}.csv",
            "triangle",
            names,
            report.triangle_node_margins[direction],
            report.triangle_flagged_nodes[direction],
            unit,
        )

    flag_sets = {
        "monotonic_up": report.monotonic_up,
        "monotonic_down": report.monotonic_down,
        "revision_flagged": report.revision_flagged,
        "triangle_flagged_nodes": report.triangle_flagged_nodes,
    }
    write_json(
        outdir / "journal_flags.json",
        {
            "format_version": FORMAT_VERSION,
            "unit": unit,
            "k": report.k,
            "outliers_removed": list(report.outliers_removed),
            "journals": tensor.n_nodes,
            "thresholds": {
                key: _threshold_json(spec, unit) for key, spec in report.thresholds.items()
            },
            "counts": {
                key: {d: len(ids) for d, ids in sets.items()} for key, sets in flag_sets.items()
            },
            "flagged": {
                key: {d: sorted(names[i] for i in ids) for d, ids in sets.items()}
                for key, sets in flag_sets.items()
            },
            "revision_excluded_cells": {d: report.revision.excluded_cells for d in DIRECTIONS},
        },
    )


def _write_flag_table(path, column, names, values, flagged, unit):
    order = sorted(range(len(names)), key=lambda i: (values[i], names[i]))
    with _open_w(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["journal", f"{column}_{unit}", "flagged"])
        for i in order:
            writer.writerow(
                [names[i], fmt_dec6(to_unit(float(values[i]), unit)), str(i in flagged).lower()]
            )


def write_link_flag_reports(outdir: str | Path, report: FlagReport) -> None:
    """Emit hot_links.csv (label-keyed) and the link_flags.json sidecar,
    both ranked hottest first (score ascending, labels tie-break)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = report.tensor.registry.names
    ranked = sorted(
        ((names[c], names[d], s) for c, d, s in report.hot_links),
        key=lambda link: (link[2], link[0], link[1]),
    )
    write_hot_links_csv(outdir / "hot_links.csv", ranked, report.unit)
    write_json(
        outdir / "link_flags.json",
        {
            "format_version": FORMAT_VERSION,
            "unit": report.unit,
            "k": report.k,
            "drop_loops": report.drop_loops,
            "outliers_removed": list(report.outliers_removed),
            "threshold": _threshold_json(report.thresholds["links"], report.unit),
            "evaluated_cells": int(report.triangle.values.shape[0]),
            "hot_links": len(report.hot_links),
            "loops_flagged": report.loops_flagged,
            "links": [list(link) for link in ranked],
        },
    )


def write_network_reports(
    outdir: str | Path,
    graph: HotLinkGraph,
    components: ComponentPartition,
    communities: CommunityPartition,
    degrees: Mapping,
) -> None:
    """Component listing, community assignment and the degree ranking of
    the giant component, over a label-keyed graph."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with _open_w(outdir / "components.csv") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["component", "size", "members"])
        for i, comp in enumerate(components.components):
            writer.writerow([i, len(comp), "; ".join(str(v) for v in comp)])

    with _open_w(outdir / "communities.csv") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["journal", "component", "community"])
        for v in graph.nodes:
            writer.writerow([v, components.assignment[v], communities.assignment[v]])

    giant = components.components[0] if components.components else ()
    ranked = sorted(giant, key=lambda v: (-degrees[v], v))
    with _open_w(outdir / "degree_ranking.csv") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["journal", "degree"])
        for v in ranked:
            writer.writerow([v, degrees[v]])

