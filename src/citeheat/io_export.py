"""File emission and parsing: Pajek, VOSviewer, overlays, CSV/JSON reports.

Every writer is deterministic: LF line endings, fixed orderings, fixed float
formats (6 significant digits in network files, 6 decimals in CSVs), so
identical input produces byte-identical files on any platform. A writer
builds each file as whole columns of strings, one format map per numeric
column, joins the rows and writes the file in one call. A CSV report
quotes each distinct name once, through ``csv.writer``, so csv's own
minimal quoting rule decides which names are quoted. citeheat
reads neither Pajek nor VOSviewer files: they go out to those programs.
tests/interchange.py pins the round trip with strict readers of both, and
a re-export of what they read is byte-identical.

Human reports (CSV, comma-separated, one header row) are write-only: no
stage reads them back. They round to 6 decimals in the reporting unit:

* transition_summary.csv: transition, mean_<u>, sd_cited_<u>, sd_citing_<u>, sum_<u>
  (mean and SDs are those of the journal_flags.json margin_<ab> and
  revision thresholds: mean and SD of the cited margins, SD of the citing)
* margins_<dir>.csv:      journal, kl_<y0>_<y1>_<u>, kl_<y1>_<y2>_<u>, kl_<y0>_<y2>_<u>, monotonic
* revision_<dir>.csv:     journal, revision_<u>, flagged
* triangle_nodes_<dir>.csv: journal, triangle_<u>, flagged
* hot_links.csv:          citing, cited, triangle_<u>  (the FlagReport.links arrays)
* degree_ranking.csv:     journal, degree            (giant component only)
* components.csv:         component, size, members   (members "; "-joined:
  a main component's field can pass csv's default field_size_limit of
  131,072 characters, and a name may hold "; ", so parse communities.csv)
* communities.csv:        journal, component, community

with <u> the configured unit (bits | mbits | microbits) and <dir> cited or
citing. Margins are ranked by the t0->t2 column descending; revision,
triangle and link tables ascending (most negative first). Ties rank by
journal name (links by citing, then cited name): registry names are sorted,
so a stable sort of the ids does.

Sidecars (JSON, format_version 3) and the hot-link arrays are the machine
boundary out of reports/; read_sidecar rejects any other version with
DataError naming the file. Every JSON file (the sidecars, registry.json,
corpus_stats.json and summary.json) is one line with sorted keys.

* journal_flags.json: unit, k, outliers_removed, journals, thresholds (in
  the unit, one per key of ``FlagReport.value_sets``: the ten journal value
  sets and ``links``), counts and revision_excluded_cells (one integer: the
  count has no direction), plus ``flagged``: for each key of counts, the
  journal families of flags.FAMILIES (monotonic_up, monotonic_down,
  revision_flagged, triangle_flagged_nodes),
  ``{"cited": [names], "citing": [names]}`` with names sorted, so
  len(flagged[key][dir]) == counts[key][dir].
* link_flags.json: unit, k, drop_loops, outliers_removed, threshold (in the
  unit), evaluated_cells, hot_links and loops_flagged.
* hot_link_ids.npy and hot_link_scores.npy: the hot links in hot_links.csv
  order, as one little-endian int64 array of shape (2, n) with rows citing
  and cited, and one float64 array of shape (n,) with the exact scores in
  bits. The ids index registry.json journals, the registry before --exclude.
  The network stage builds its graph from these arrays, so network/ and
  export/ do not depend on the unit. read_hot_link_arrays treats them as
  outside input: .npy format only, no pickles, those dtypes and shapes, ids
  in [0, N) of the registry, distinct (citing, cited) pairs and finite
  scores, else DataError naming the file. The network stage also refuses
  arrays whose length is not link_flags.json hot_links.

Stage cache (ingest/): registry.json, ``{"journals": [names], "years":
[3 labels]}`` of any strings (id i names journals[i]), and cells.npy, one
little-endian int64 array of shape (5, n_cells) with rows citing, cited,
counts[0..2], written in C order by np.save, which stores no timestamp, so
its bytes depend on the values only, not on the tensor's layout. The reader
treats these files as outside input: that JSON shape with names strictly
increasing, .npy format only, no pickles, ids in [0, N), keys citing*N +
cited strictly increasing, counts >= 0 and every cell positive in some
year, else DataError naming the file. Network labels: see pajek_labels.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import PAIRS, AlignedTensor, JournalRegistry, normalize_name, open_utf8
from .entropy import DIRECTIONS, UNIT_SCALE, segment_fsum, to_unit
from .errors import DataError
from .flags import FAMILIES, FlagReport, ThresholdSpec, threshold_key
from .netgraph import HotLinkGraph, Network

FORMAT_VERSION = 3

NEUTRAL_COLOR = "#c8c8c8"


def _write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """The lines, each ended by LF, in one UTF-8 write."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("\n".join([*lines, ""]))


def _csv_fields(fields: Iterable[str]) -> list[str]:
    """Each field as ``csv.writer`` writes it in a row, quoted by csv's own
    minimal rule. A second, empty field keeps a lone empty field unquoted."""
    rows: list[str] = []
    sink = SimpleNamespace(write=rows.append)
    csv.writer(sink, lineterminator="\n").writerows(zip(fields, repeat("")))
    return [row[:-2] for row in rows]


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """One CSV report: the header row, then ``rows`` of finished fields
    (names quoted by ``_csv_fields``), comma-separated with LF line ends."""
    _write_lines(path, [",".join(_csv_fields(header)), *map(",".join, rows)])


def fmt_sig6(x: float) -> str:
    """Positional formatting with 6 significant digits (stable under
    re-parsing, so re-exports are byte-identical)."""
    if x == 0:
        return "0.00000"
    exponent = int(f"{abs(x):.5e}".split("e")[1])
    decimals = max(0, 5 - exponent)
    return f"{x:.{decimals}f}"


def fmt_sig6_column(values: np.ndarray) -> list[str]:
    """``fmt_sig6`` of each value: exponents from ``np.log10``, one format
    map per decimal count. Zeros, non-finite values and values within a
    rounding step of a decade edge go through ``fmt_sig6``."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log10(np.abs(values))
        exponent = np.floor(log)
        # Within a rounding step of the next decade, %.5e may carry into it.
        keep = log - exponent < np.log10(9.99999)
        decimals = np.where(keep, np.maximum(5 - exponent, 0), -1).astype(np.int64)
    out = np.empty(values.size, dtype=object)
    # np.bincount, since a flag-less np.unique imports numpy.ma.
    for d in (np.flatnonzero(np.bincount(decimals + 1)) - 1).tolist():
        at = np.flatnonzero(decimals == d)
        x = values[at].tolist()
        out[at] = list(map(fmt_sig6, x) if d < 0 else map(float.__format__, x, repeat(f".{d}f")))
    return out.tolist()


# ---------------------------------------------------------------------------
# Pajek
# ---------------------------------------------------------------------------

def _edge_lines(graph: HotLinkGraph, sep: str) -> Iterable[str]:
    """One ``i<sep>j<sep>w`` line per edge, 1-based, with the 6-digit weight."""
    ids = np.array(list(map(str, range(1, len(graph.nodes) + 1))), dtype=object)
    ends = (ids[side].tolist() for side in (graph.u, graph.v))
    return map(sep.join, zip(*ends, graph.sig6_weights))


def pajek_labels(graph: HotLinkGraph) -> list[str]:
    """The graph's vertex labels; a DataError for one Pajek cannot quote, or
    one holding a tab, LF or CR, which end a field or a line of either format."""
    names = list(map(str, graph.nodes))
    for label in names:
        if '"' in label:
            raise DataError(f"label not representable in Pajek: {label!r}")
        if "\t" in label or "\n" in label or "\r" in label:
            raise DataError(f"label not representable in Pajek or VOSviewer: {label!r}")
    return names


def write_pajek_net(graph: HotLinkGraph, path: str | Path) -> None:
    """Emit `*Vertices N` with 1-based ids and quoted labels, then `*Edges`.

    Vertex order is ascending node id; edge endpoints reference vertex
    positions. Labels are those of ``pajek_labels``.
    """
    names = pajek_labels(graph)
    lines = [f"*Vertices {len(names)}", *map('{} "{}"'.format, range(1, len(names) + 1), names)]
    if graph.weights.size:
        lines += ["*Edges", *_edge_lines(graph, " ")]
    _write_lines(path, lines)


def write_pajek_clu(assignment: Mapping, path: str | Path, nodes: Sequence) -> None:
    """One 1-based cluster id per line, in the vertex order of ``nodes``."""
    clusters = np.fromiter(map(assignment.__getitem__, nodes), np.int64, len(nodes)) + 1
    _write_lines(path, [f"*Vertices {len(nodes)}", *map(str, clusters.tolist())])


# ---------------------------------------------------------------------------
# Base maps and VOSviewer files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseMap:
    """A fixed global map to overlay results on; labels non-empty and
    unique after the same normalization the registry applies. Fields are
    kept verbatim. ``index`` maps each row's normalized label, in file
    order, to its fields as a tuple in ``columns`` order: label, x, y, then
    cluster and weight if the file has them."""

    index: dict[str, tuple[str, ...]]
    columns: tuple[str, ...]


def read_basemap(path: str | Path) -> BaseMap:
    """Parse a tab-separated map file with a header naming at least
    label, x and y columns (cluster and weight are kept too, other columns
    such as id are not)."""
    # Lines break only at "\n" after universal-newline decoding: a label may
    # hold "\x0c" or U+2028, where str.splitlines breaks.
    with open_utf8(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines:
        raise DataError(f"{path}: empty base map")
    header = [h.strip().lower() for h in lines[0].split("\t")]
    try:
        col = {name: header.index(name) for name in ("label", "x", "y")}
    except ValueError as exc:
        raise DataError(f"{path}: base map header must name label, x and y ({exc})") from None
    col.update((name, header.index(name)) for name in ("cluster", "weight") if name in header)
    index: dict[str, tuple[str, ...]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
        row = tuple(fields[i] for i in col.values())
        key = normalize_name(row[0])
        if not key:
            raise DataError(f"{path}:{lineno}: empty label")
        if key in index:
            raise DataError(f"{path}:{lineno}: duplicate label {row[0]!r}")
        index[key] = row
    return BaseMap(index=index, columns=tuple(col))


def write_vosviewer_files(
    graph: HotLinkGraph,
    partition: Mapping,
    map_path: str | Path,
    network_path: str | Path,
    basemap: BaseMap | None = None,
    unmatched_path: str | Path | None = None,
) -> list:
    """Emit the map/network text file pair VOSviewer opens directly.

    Without a base map the x,y columns are omitted so VOSviewer computes its
    own layout; with one, coordinates are copied verbatim and nodes missing
    from the map are written with empty coordinates and listed in the
    unmatched report. Returns the unmatched nodes.

    The weight column is each node's strength: the exactly rounded sum
    (``segment_fsum``) of the 6-digit edge weights the network file itself
    declares, which keeps re-exports of a re-read pair byte-identical, in
    any edge order. Labels are those of ``pajek_labels``.
    """
    nodes = graph.nodes
    declared = np.array(list(map(float, graph.sig6_weights)))
    strength = segment_fsum(
        np.concatenate((graph.u, graph.v)), np.concatenate((declared, declared)), len(nodes)
    )
    names = pajek_labels(graph)
    clusters = np.fromiter(map(partition.__getitem__, nodes), np.int64, len(nodes)) + 1
    header, coords, unmatched = ["id", "label", "cluster", "weight"], [], []
    if basemap is not None:
        missing = ("", "", "")
        rows = list(map(basemap.index.get, map(normalize_name, names), repeat(missing)))
        unmatched = [v for v, row in zip(nodes, rows) if row is missing]
        coords = [[row[1] for row in rows], [row[2] for row in rows]]
        header[2:2] = ["x", "y"]
    ids = map(str, range(1, len(nodes) + 1))
    table = zip(ids, names, *coords, map(str, clusters.tolist()), fmt_sig6_column(strength))
    _write_lines(map_path, ["\t".join(header), *map("\t".join, table)])
    _write_lines(network_path, _edge_lines(graph, "\t"))
    if basemap is not None and unmatched_path is not None:
        _write_lines(unmatched_path, map(str, unmatched))
    return unmatched


def write_overlay(
    flag_sets: Mapping[str, Iterable[str]],
    basemap: BaseMap,
    colors: Mapping[str, str],
    path: str | Path,
) -> None:
    """Annotate base-map rows with flag categories for visual overlay: the
    base map's ``columns``, then category and color.

    A node flagged in several categories gets the first matching one in
    ``flag_sets`` order; unflagged rows keep neutral styling.
    """
    # Each distinct name is normalized once. Names enter ``first`` in
    # ``flag_sets`` order, so the first name to claim a key carries the
    # key's first category.
    first: dict[str, str] = {}
    for category, names in flag_sets.items():
        for name in names:
            first.setdefault(name, category)
    category_of: dict[str, str] = {}
    for name, category in first.items():
        category_of.setdefault(normalize_name(name), category)
    found = list(map(category_of.get, basemap.index))
    style = {category: f"{category}\t{colors[category]}" for category in set(found) - {None}}
    style[None] = f"\t{NEUTRAL_COLOR}"
    rows = map("\t".join, basemap.index.values())
    lines = map("{}\t{}".format, rows, map(style.__getitem__, found))
    _write_lines(path, ["\t".join((*basemap.columns, "category", "color")), *lines])


# ---------------------------------------------------------------------------
# Stage cache: aligned tensor and hot links
# ---------------------------------------------------------------------------

def write_tensor_cache(tensor: AlignedTensor, directory: str | Path) -> None:
    """Persist the aligned tensor as registry.json and cells.npy."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    registry = {"journals": tensor.registry.names, "years": tensor.year_labels}
    write_json(directory / "registry.json", registry)
    cells = np.ascontiguousarray(np.vstack([tensor.citing, tensor.cited, tensor.counts]), "<i8")
    np.save(directory / "cells.npy", cells, allow_pickle=False)


def read_tensor_cache(directory: str | Path) -> AlignedTensor:
    """Rebuild the tensor exactly from the files write_tensor_cache wrote.

    The cache is checked like outside input (see the module docstring); a
    violation raises DataError naming the file, a missing file OSError.
    """
    directory = Path(directory)
    names, labels = read_registry(directory / "registry.json")
    cells_path = directory / "cells.npy"
    n = len(names)
    cells = _read_id_array(cells_path, 5, n)
    citing, cited, counts = cells[0], cells[1], cells[2:]
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


def read_registry(path: str | Path) -> tuple[list[str], list[str]]:
    """The journal names (id i names ``journals[i]``) and the year labels of
    ingest/registry.json; a file of another shape is a DataError naming it."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        payload = {}
    names, labels = payload.get("journals"), payload.get("years")
    if not (isinstance(names, list) and isinstance(labels, list) and len(labels) == 3
            and set(map(type, names + labels)) <= {str}):
        raise DataError(f'{path}: expected {{"journals": [names], "years": [3 labels]}}')
    if any(a >= b for a, b in zip(names, names[1:])):
        raise DataError(f"{path}: names are not strictly increasing")
    return names, labels


def _read_npy(path: Path) -> np.ndarray:
    """One array of a .npy file; no pickles, and a malformed file is a
    DataError naming it."""
    with open(path, "rb") as handle:
        try:
            return np.lib.format.read_array(handle, allow_pickle=False)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None


def _read_id_array(path: Path, rows: int, n_journals: int) -> np.ndarray:
    """The int64 array of shape (``rows``, n) in ``path`` whose first two
    rows are journal ids in [0, ``n_journals``), else a DataError naming it."""
    array = _read_npy(path)
    if array.dtype != np.dtype("<i8") or array.ndim != 2 or array.shape[0] != rows:
        raise DataError(
            f"{path}: expected int64 of shape ({rows}, n), got {array.dtype} {array.shape}"
        )
    if not ((array[:2] >= 0) & (array[:2] < n_journals)).all():
        raise DataError(f"{path}: journal id outside [0, {n_journals})")
    return array


def write_hot_link_arrays(
    directory: str | Path, citing: np.ndarray, cited: np.ndarray, scores: np.ndarray
) -> None:
    """Persist ranked hot links as hot_link_ids.npy and hot_link_scores.npy."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = np.vstack([citing, cited]).astype("<i8", copy=False)
    np.save(directory / "hot_link_ids.npy", ids, allow_pickle=False)
    np.save(directory / "hot_link_scores.npy", scores.astype("<f8", copy=False), allow_pickle=False)


def read_hot_link_arrays(
    directory: str | Path, n_journals: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Citing ids, cited ids and scores as write_hot_link_arrays wrote them,
    checked like outside input against a registry of ``n_journals`` names
    (see the module docstring)."""
    directory = Path(directory)
    ids_path = directory / "hot_link_ids.npy"
    scores_path = directory / "hot_link_scores.npy"
    ids = _read_id_array(ids_path, 2, n_journals)
    scores = _read_npy(scores_path)
    if scores.dtype != np.dtype("<f8") or scores.shape != ids.shape[1:]:
        raise DataError(
            f"{scores_path}: expected float64 of shape ({ids.shape[1]},), "
            f"got {scores.dtype} {scores.shape}"
        )
    if not np.isfinite(scores).all():
        raise DataError(f"{scores_path}: score is not finite")
    # A sort and a neighbour compare: a flag-less np.unique imports numpy.ma.
    keys = np.sort(ids[0] * n_journals + ids[1])
    if (keys[1:] == keys[:-1]).any():
        raise DataError(f"{ids_path}: a (citing, cited) pair appears twice")
    return ids[0], ids[1], scores


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
    """One line of strict JSON with sorted keys: a NaN or infinity is a
    ``ValueError``, never a ``NaN`` token. ``json.dumps`` without an indent
    uses the C encoder; ``json.dump`` never does."""
    _write_lines(path, [json.dumps(payload, sort_keys=True, allow_nan=False)])


def read_json(path: str | Path):
    """Load a JSON file as strict as write_json writes it: bad JSON, or a
    ``NaN``, ``Infinity`` or ``-Infinity`` token, is a DataError naming it."""

    def refuse(token: str):
        raise DataError(f"{path}: invalid JSON: {token} is not a JSON number")

    try:
        with open_utf8(path) as handle:
            return json.load(handle, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None


def read_sidecar(path: str | Path) -> dict:
    """Load a JSON sidecar of the current FORMAT_VERSION."""
    payload = read_json(path)
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

    transitions = [
        (tensor.pair_label(pair), "margin", pair, cells.grand_sum)
        for pair, cells in report.transitions.items()
    ]
    transitions.append(("revision_of_prediction", "revision", None, report.revision.grand_sum))
    summary = []
    for label, family, pair, grand_sum in transitions:
        cited = report.thresholds[threshold_key(family, "cited", pair)]
        citing = report.thresholds[threshold_key(family, "citing", pair)]
        values = np.array([cited.mean, cited.sd, citing.sd, grand_sum])
        summary.append(_csv_fields([label]) + list(_dec6_column(values, unit)))
    _write_csv(
        outdir / "transition_summary.csv",
        ["transition", f"mean_{unit}", f"sd_cited_{unit}", f"sd_citing_{unit}", f"sum_{unit}"],
        summary,
    )

    labels = tensor.year_labels
    quoted = np.array(_csv_fields(names), dtype=object)
    for direction in DIRECTIONS:
        margins = [report.value_sets[threshold_key("margin", direction, pair)] for pair in PAIRS]
        trend = np.full(len(names), "", dtype=object)
        trend[report.monotonic_up[direction]] = "up"
        trend[report.monotonic_down[direction]] = "down"
        order = np.argsort(-margins[2], kind="stable")
        _write_csv(
            outdir / f"margins_{direction}.csv",
            ["journal", *(f"kl_{labels[a]}_{labels[b]}_{unit}" for a, b in PAIRS), "monotonic"],
            zip(
                quoted[order].tolist(),
                *(_dec6_column(m[order], unit) for m in margins),
                trend[order].tolist(),
            ),
        )

        for stem, family, flagged in (
            ("revision", "revision", report.revision_flagged),
            ("triangle_nodes", "triangle", report.triangle_flagged_nodes),
        ):
            values = report.value_sets[threshold_key(family, direction)]
            order = np.argsort(values, kind="stable")
            marks = np.full(values.size, "false", dtype=object)
            marks[flagged[direction]] = "true"
            _write_csv(
                outdir / f"{stem}_{direction}.csv",
                ["journal", f"{family}_{unit}", "flagged"],
                zip(quoted[order].tolist(), _dec6_column(values[order], unit),
                    marks[order].tolist()),
            )

    families = {name: getattr(report, name) for name in FAMILIES}
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
                name: {d: ids.size for d, ids in sets.items()} for name, sets in families.items()
            },
            # Ids ascend and registry names are sorted, so the names are too.
            "flagged": {
                name: {d: [names[i] for i in ids.tolist()] for d, ids in sets.items()}
                for name, sets in families.items()
            },
            "revision_excluded_cells": report.revision.excluded_cells,
        },
    )


def _dec6_column(values: np.ndarray, unit: str) -> Iterable[str]:
    """Each value converted from bits to ``unit`` by one array multiply,
    the same float multiply as ``to_unit``, and written with six decimals
    (``.6f``)."""
    return map(float.__format__, (values * UNIT_SCALE[unit]).tolist(), repeat(".6f"))


def write_link_flag_reports(
    outdir: str | Path, report: FlagReport
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Emit hot_links.csv (label-keyed) from ``report.links`` and link_flags.json.

    Links rank hottest first: score ascending, then citing and cited label.
    ``report.links`` is in (citing, cited) id order and registry names are
    sorted, so a stable sort on the scores alone breaks ties by label.
    Returns the ranked citing ids, cited ids and scores, with ids over
    ``report.tensor.registry``, for ``write_hot_link_arrays``.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = report.tensor.registry.names
    citing, cited, scores = report.links
    order = np.argsort(scores, kind="stable")
    citing, cited, scores = citing[order], cited[order], scores[order]
    quoted = np.array(_csv_fields(names), dtype=object)
    _write_csv(
        outdir / "hot_links.csv",
        ["citing", "cited", f"triangle_{report.unit}"],
        zip(
            quoted[citing].tolist(),
            quoted[cited].tolist(),
            _dec6_column(scores, report.unit),
        ),
    )
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
            "hot_links": len(scores),
            "loops_flagged": report.loops_flagged,
        },
    )
    return citing, cited, scores


def write_network_reports(outdir: str | Path, network: Network) -> None:
    """Component listing, community assignment and the degree ranking of
    the giant component, read by position over ``network.graph.nodes``;
    positions are in label order, so degree ties rank by journal name."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    graph, component, degrees = network.graph, network.components.component, network.degrees
    comps = network.components.components
    _write_csv(
        outdir / "components.csv",
        ["component", "size", "members"],
        zip(map(str, range(len(comps))), map(str, map(len, comps)),
            _csv_fields("; ".join(map(str, comp)) for comp in comps)),
    )
    quoted = np.array(_csv_fields(map(str, graph.nodes)), dtype=object)
    _write_csv(
        outdir / "communities.csv",
        ["journal", "component", "community"],
        zip(quoted.tolist(), map(str, component.tolist()),
            map(str, map(network.communities.assignment.__getitem__, graph.nodes))),
    )
    giant = np.flatnonzero(component == 0)
    ranked = giant[np.argsort(-degrees[giant], kind="stable")]
    _write_csv(outdir / "degree_ranking.csv", ["journal", "degree"],
               zip(quoted[ranked].tolist(), map(str, degrees[ranked].tolist())))
