"""Independent oracles and fixture builders shared across the test suite.

Everything here is deliberately written against the definitions, not the
library code paths: dense high-precision brute force for the information
measures, exhaustive partition enumeration for modularity, a standalone
union-find for connectivity. Oracles must stay independent of the code they
check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import unicodedata
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import mpmath
import numpy as np

from citeheat import netgraph
from citeheat.corpus import (
    AlignedTensor,
    JournalRegistry,
    apply_name_changes,
    build_common_set,
    parse_edge_list,
    parse_rename_file,
)
from citeheat.entropy import DIRECTIONS
from citeheat.flags import (
    FAMILIES,
    ThresholdSpec,
    _below_lower,
    _monotonic,
    build_flag_report,
    flag_links,
    threshold_key,
)
from citeheat.io_export import write_vosviewer_files

mpmath.mp.dps = 40

LABELS = ("2011", "2012", "2013")
SRC = Path(netgraph.__file__).resolve().parents[1]


def run_python(*args: str, cwd: Path | None = None, timeout: float = 120,
               **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports citeheat from this
    checkout, killed after ``timeout`` seconds. The process inherits the
    environment without ``OPENBLAS_NUM_THREADS``, so only ``env`` can set
    that."""
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**inherited, "PYTHONPATH": str(SRC), **env},
        capture_output=True, text=True, timeout=timeout,
    )


# ---------------------------------------------------------------------------
# Tensor fixtures
# ---------------------------------------------------------------------------

def node_names(n: int) -> list[str]:
    return [f"J{i:03d}" for i in range(n)]


def make_tensor(grids, labels=LABELS) -> AlignedTensor:
    """Aligned tensor from three dense (citing, cited) integer grids."""
    grids = np.stack([np.asarray(g, dtype=np.int64) for g in grids])
    citing, cited = np.nonzero((grids > 0).any(axis=0))
    return AlignedTensor(
        registry=JournalRegistry.from_names(node_names(grids.shape[1])),
        year_labels=tuple(labels),
        citing=citing.astype(np.int64),
        cited=cited.astype(np.int64),
        counts=grids[:, citing, cited],
    )


def without_journals(tensor: AlignedTensor, dropped) -> tuple:
    """``(names, citing, cited, counts)`` of ``tensor`` without the journals
    named in ``dropped``, by dicts: the other names sorted, each cell of two
    kept journals keyed by their positions there, and the cells in key
    order, ``counts`` holding each cell's three counts."""
    old = tensor.registry.names
    names = sorted(set(old) - set(dropped))
    position = {name: i for i, name in enumerate(names)}
    cells = {}
    for i, (c, d) in enumerate(zip(tensor.citing.tolist(), tensor.cited.tolist())):
        if old[c] in position and old[d] in position:
            cells[position[old[c]], position[old[d]]] = tensor.counts[:, i].tolist()
    keys = sorted(cells)
    return (tuple(names), [c for c, _ in keys], [d for _, d in keys], [cells[k] for k in keys])


def cells_of(matrix) -> dict:
    """A YearMatrix as a ``(citing name, cited name) -> count`` dict."""
    return {
        (matrix.names[c], matrix.names[d]): int(n)
        for c, d, n in zip(matrix.citing, matrix.cited, matrix.counts)
    }


def random_active_grids(rng: np.random.Generator, n: int, density: float = 0.5,
                        high: int = 30) -> list[np.ndarray]:
    """Three random count grids where every node is citing-active each year."""
    grids = []
    for _ in range(3):
        grid = rng.integers(0, high + 1, size=(n, n))
        grid[rng.random((n, n)) > density] = 0
        for c in range(n):  # keep every node on the citing side
            grid[c, (c + 1) % n] = max(1, int(grid[c, (c + 1) % n]))
        grids.append(grid.astype(np.int64))
    return grids


def write_edge_list(path: Path, cells: dict, comment: str = "") -> None:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    for (citing, cited), count in sorted(cells.items()):
        lines.append(f"{citing}\t{cited}\t{count}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def rewrite_registry(path: Path, edit) -> None:
    """Replace a registry.json by ``edit(payload)``: a str is written as it
    is, anything else as JSON."""
    edited = edit(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited), encoding="utf-8")


def _replace(registry: dict, key: str, value) -> dict:
    return {**registry, key: value}


# Damaged registries: two texts that are not JSON (the one-name-per-line
# format of earlier versions, and a blank line), JSON of another shape, two
# names out of order, and four year labels.
BAD_REGISTRY_EDITS = {
    "old-format": lambda r: "".join(f"{name}\n" for name in r["journals"]),
    "blank-line": lambda r: "\n",
    "not-an-object": lambda r: [r["journals"], r["years"]],
    "journals-not-a-list": lambda r: _replace(r, "journals", "\n".join(r["journals"])),
    "name-not-a-string": lambda r: _replace(r, "journals", [*r["journals"][:-1], 7]),
    "swapped-names": lambda r: _replace(r, "journals", [*r["journals"][1::-1], *r["journals"][2:]]),
    "four-labels": lambda r: _replace(r, "years", [*r["years"], "2014"]),
}


def csv_writer_rows(path) -> list[list[str]]:
    """The rows of a CSV report, after checking that the file is exactly
    what csv.writer writes for them and that each row is as wide as the
    header."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert {len(row) for row in rows} == {len(rows[0])}
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(rows)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    return rows[1:]


def dyad_fixture_cells() -> dict[str, dict]:
    """12 journals: a stable 10-node background ring plus one dyad whose
    forward link rises 29 -> 54 -> 106 while the reverse stays 5 -> 5 -> 7."""
    background = [f"Bkg{i:02d}" for i in range(10)]
    rising = {"2011": 29, "2012": 54, "2013": 106}
    reverse = {"2011": 5, "2012": 5, "2013": 7}
    years: dict[str, dict] = {}
    for label in LABELS:
        cells = {}
        for i, node in enumerate(background):
            cells[(node, background[(i + 1) % 10])] = 200
        cells[("Pers Med", "Genet Med")] = rising[label]
        cells[("Genet Med", "Pers Med")] = reverse[label]
        years[label] = cells
    return years


def reference_ingest(year_texts: dict[str, str], renames) -> dict:
    """Dict-keyed ingest written from the ``citeheat.corpus`` definitions.

    ``year_texts`` maps each year label to its edge-list text and
    ``renames`` is a list of ``(old, new)`` pairs without cycles. Names are
    NFC-normalized and trimmed of ASCII whitespace, duplicate records sum,
    every name is replaced by its terminal rename, the common set is the
    journals citing in every year, and ids follow lexicographic name order.
    Returns the common names, the aligned cells as ``(citing id, cited id,
    per-year counts)`` in key order, per-year ``(label, journals, links)``
    after renames, and the number of journals seen after renames.
    """
    def norm(name):
        return unicodedata.normalize("NFC", name).strip(" \t\n\r\v\f")

    direct = {norm(old): norm(new) for old, new in renames if norm(old) != norm(new)}

    def terminal(name):
        while name in direct:
            name = direct[name]
        return name

    labels = sorted(year_texts)
    years = {}
    for label in labels:
        cells: dict = {}
        for line in year_texts[label].split("\n"):
            if not line.strip() or line.startswith("#"):
                continue
            citing, cited, count = line.split("\t")
            key = (terminal(norm(citing)), terminal(norm(cited)))
            cells[key] = cells.get(key, 0) + int(count)
        years[label] = cells

    common = sorted(set.intersection(*({c for c, _ in years[l]} for l in labels)))
    index = {name: i for i, name in enumerate(common)}
    pairs = sorted(
        (index[c], index[d])
        for c, d in {pair for cells in years.values() for pair in cells}
        if c in index and d in index
    )
    return {
        "names": tuple(common),
        "cells": [
            (c, d, tuple(years[l].get((common[c], common[d]), 0) for l in labels))
            for c, d in pairs
        ],
        "years": [
            (l, len({name for pair in years[l] for name in pair}), len(years[l]))
            for l in labels
        ],
        "combined_journals": len({n for cells in years.values() for p in cells for n in p}),
    }


def link_triples(links) -> tuple:
    """The citing, cited and score arrays of ``flag_links`` as one
    ``(int, int, float)`` tuple per link, in array order."""
    citing, cited, scores = links
    return tuple((int(c), int(d), float(s)) for c, d, s in zip(citing, cited, scores))


# ---------------------------------------------------------------------------
# Bit-identity oracles: per-formula and per-element code paths
# ---------------------------------------------------------------------------

def _all_years_shares(tensor: AlignedTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shares p, p', q of the all-years cells, each count over its year
    total, where every share is positive."""
    mask = (tensor.counts > 0).all(axis=0)
    return tuple(tensor.counts[y][mask] / int(tensor.counts[y].sum()) for y in range(3))


def three_term_triangle(tensor: AlignedTensor) -> np.ndarray:
    """KL(p'|p) + KL(q|p') - KL(q|p) from three fresh q * log2(q / p) terms
    over the all-years cells."""
    p, p_mid, q = _all_years_shares(tensor)
    return p_mid * np.log2(p_mid / p) + q * np.log2(q / p_mid) - q * np.log2(q / p)


def three_term_scale(tensor: AlignedTensor) -> np.ndarray:
    """The largest of each all-years cell's three KL terms, in magnitude."""
    p, p_mid, q = _all_years_shares(tensor)
    terms = (p_mid * np.log2(p_mid / p), q * np.log2(q / p_mid), q * np.log2(q / p))
    return np.max(np.abs(terms), axis=0)


def closed_form_triangle(tensor: AlignedTensor) -> np.ndarray:
    """(p' - q) * log2(p'/p) over the all-years cells."""
    p, p_mid, q = _all_years_shares(tensor)
    return (p_mid - q) * np.log2(p_mid / p)


def fsum_margins(cells, direction: str) -> np.ndarray:
    """Per-node sums of the cell values, each one ``math.fsum`` over the
    node's cells."""
    index = cells.cited if direction == "cited" else cells.citing
    return np.array([math.fsum(cells.values[index == node].tolist())
                     for node in range(cells.n_nodes)])


def per_index_links(triangle, lower: float, drop_loops: bool) -> tuple:
    """Hot links built one index at a time with ``int``/``float`` casts."""
    hot = triangle.values < lower
    if drop_loops:
        hot &= triangle.citing != triangle.cited
    return tuple(
        (int(triangle.citing[i]), int(triangle.cited[i]), float(triangle.values[i]))
        for i in np.flatnonzero(hot)
    )


def mask_flag_links(triangle, lower: float, drop_loops: bool) -> tuple:
    """``flag_links`` as boolean masks over every cell: the scores strictly
    below ``lower``, less the loops with ``drop_loops``, gathered by mask."""
    hot = triangle.values < lower
    if drop_loops:
        hot &= triangle.citing != triangle.cited
    return tuple(a[hot] for a in (triangle.citing, triangle.cited, triangle.values))


def mask_loops_flagged(triangle, lower: float, drop_loops: bool) -> int:
    """``FlagReport.loops_flagged`` from a diagonal mask over every cell."""
    if not drop_loops:
        return 0
    loop_scores = triangle.values[triangle.citing == triangle.cited]
    return int(np.count_nonzero(loop_scores < lower))


def eager_flag_report(tensor: AlignedTensor, k: float, drop_loops: bool) -> dict:
    """Every threshold and flag set of a report, computed up front as
    ``build_flag_report`` once did: all 11 thresholds, the four journal
    families, the links and ``loops_flagged``, keyed by report attribute."""
    ind = tensor.indicators
    thresholds = {key: ThresholdSpec.of(s.mean, s.sd, k) for key, s in ind.statistics.items()}

    def rule(family, d, pair=None):
        key = threshold_key(family, d, pair)
        return ind.value_sets[key], thresholds[key]

    monotonic_up, monotonic_down = {}, {}
    for d in DIRECTIONS:
        (v01, t01), (v12, t12) = rule("margin", d, (0, 1)), rule("margin", d, (1, 2))
        monotonic_up[d], monotonic_down[d] = _monotonic(v01, v12, t01, t12)
    loops_flagged = 0
    if drop_loops:
        loops_flagged = int(np.count_nonzero(ind.loop_scores < thresholds["links"].lower))
    return {
        "thresholds": thresholds,
        "monotonic_up": monotonic_up,
        "monotonic_down": monotonic_down,
        "revision_flagged": {d: _below_lower(*rule("revision", d)) for d in DIRECTIONS},
        "triangle_flagged_nodes": {d: _below_lower(*rule("triangle", d)) for d in DIRECTIONS},
        "links": flag_links(ind.triangle, thresholds["links"], drop_loops),
        "loops_flagged": loops_flagged,
    }


def transposed_order(cells) -> np.ndarray:
    """The order that sorts cells by (cited, citing): the order of their
    transposes by the transposed tensor's (citing, cited) key."""
    return np.lexsort((cells.citing, cells.cited))


def transposed(tensor: AlignedTensor) -> AlignedTensor:
    """The tensor with citing and cited swapped, its cells re-sorted."""
    order = transposed_order(tensor)
    return AlignedTensor(
        registry=tensor.registry,
        year_labels=tensor.year_labels,
        citing=tensor.cited[order],
        cited=tensor.citing[order],
        counts=tensor.counts[:, order],
    )


def assert_transposition_holds(tensor: AlignedTensor, ks) -> None:
    """Swapping citing and cited swaps the directions of a report at each k.

    Each value set and its statistics under a ``_cited`` key equal, bit for
    bit, the transposed tensor's under the ``_citing`` key, and the reverse;
    the ``links`` scores are the same scores in the transposed cell order,
    with the same statistics. The four journal families swap directions, the
    hot links reverse and ``loops_flagged`` stays."""
    flipped = transposed(tensor)
    swap = {"cited": "citing", "citing": "cited"}

    def twin(key):
        stem, _, d = key.rpartition("_")
        return key if key == "links" else f"{stem}_{swap[d]}"

    for k in ks:
        report, other = build_flag_report(tensor, k=k), build_flag_report(flipped, k=k)
        assert {twin(key) for key in report.value_sets} == set(other.value_sets)
        for key, values in report.value_sets.items():
            expected = values[transposed_order(report.triangle)] if key == "links" else values
            assert other.value_sets[twin(key)].tobytes() == expected.tobytes(), (k, key)
            ours, theirs = report.statistics[key], other.statistics[twin(key)]
            assert (ours.mean.hex(), ours.sd.hex()) == (theirs.mean.hex(), theirs.sd.hex())
        for family in FAMILIES:
            for d in DIRECTIONS:
                ours, theirs = getattr(report, family)[d], getattr(other, family)[swap[d]]
                assert ids_of(ours) == ids_of(theirs), (k, family, d)
        reversed_links = sorted((cited, citing, s) for citing, cited, s in other.hot_links)
        assert reversed_links == sorted(report.hot_links), k
        assert other.loops_flagged == report.loops_flagged, k


def ingest_texts(directory: Path, year_texts: dict[str, str], renames_text: str) -> AlignedTensor:
    """Write each year's edge-list text and the rename table under
    ``directory`` and ingest them as the ingest stage does:
    ``parse_edge_list``, ``apply_name_changes``, ``build_common_set``."""
    directory.mkdir(parents=True)
    rename_path = directory / "renames.tsv"
    rename_path.write_text(renames_text, encoding="utf-8")
    matrices = []
    for label, text in year_texts.items():
        path = directory / f"{label}.tsv"
        path.write_text(text, encoding="utf-8")
        matrices.append(parse_edge_list(path, label))
    return build_common_set(*apply_name_changes(matrices, parse_rename_file(rename_path)))


def transposed_text(text: str) -> str:
    """An edge list's text with citing and cited swapped on every record;
    comments and blank lines stay."""
    lines = []
    for line in text.split("\n"):
        if line.strip() and not line.startswith("#"):
            citing, cited, count = line.split("\t")
            line = f"{cited}\t{citing}\t{count}"
        lines.append(line)
    return "\n".join(lines)


def assert_raw_transposition_holds(year_texts: dict[str, str], renames_text: str, ks) -> None:
    """Writing every year file transposed gives the transposed tensor.

    On a corpus whose journals each cite and are cited in every year, the
    common set is the same either way round, so ingesting the transposed
    year texts gives ``transposed`` of the ingest of the texts as they are:
    the same registry and year labels, and the same arrays, bit for bit.
    The reports then swap directions (``assert_transposition_holds``)."""
    flipped_texts = {label: transposed_text(text) for label, text in year_texts.items()}
    with tempfile.TemporaryDirectory() as tmp:
        tensor = ingest_texts(Path(tmp, "years"), year_texts, renames_text)
        flipped = ingest_texts(Path(tmp, "transposed"), flipped_texts, renames_text)
    expected = transposed(tensor)
    assert flipped.registry == expected.registry
    assert flipped.year_labels == expected.year_labels
    for name in ("citing", "cited", "counts"):
        ours, theirs = getattr(flipped, name), getattr(expected, name)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), name
        assert ours.tobytes() == theirs.tobytes(), name
    assert_transposition_holds(tensor, ks)


def renamed(tensor: AlignedTensor) -> tuple[AlignedTensor, np.ndarray]:
    """The tensor with journal i renamed ``f"{perm[i]:06d}|{name}"``, perm
    a seeded random permutation, so that the sorted names, the ids and the
    cell order all change; its cells are re-sorted by the new ids. Returns
    the renamed tensor and perm, which maps each old id to its new one."""
    names = tensor.registry.names
    perm = np.random.default_rng(0).permutation(len(names))
    citing, cited = perm[tensor.citing], perm[tensor.cited]
    order = np.lexsort((cited, citing))
    return AlignedTensor(
        registry=JournalRegistry.from_names(f"{p:06d}|{name}" for p, name in zip(perm, names)),
        year_labels=tensor.year_labels,
        citing=citing[order],
        cited=cited[order],
        counts=tensor.counts[:, order],
    ), perm


def assert_renaming_holds(tensor: AlignedTensor, ks) -> None:
    """Renaming the journals in an order-changing way (see ``renamed``)
    changes no result but the names, at each k.

    After mapping the ids, every value set is bit-equal to the renamed
    tensor's (the ``links`` scores in the renamed cell order), and so is
    every statistic's mean and SD. The four journal families, the hot links
    as (citing, cited, score) name triples, ``loops_flagged`` and the
    hot-link graph's edges and components as name sets are equal too, and
    so are the graph's total weight, the Q of one partition carried over by
    name and the weight column of the VOSviewer map, by name. Louvain's
    partition is not compared: its seeded shuffle visits nodes by position,
    so it may differ when the positions do."""
    other_tensor, perm = renamed(tensor)
    names, other_names = tensor.registry.names, other_tensor.registry.names
    new_name = dict(zip(names, (other_names[p] for p in perm)))
    # Three communities by old id, which the new positions do not follow.
    partition = {new_name[name]: i % 3 for i, name in enumerate(names)}

    def network(report, label):
        graph = netgraph.HotLinkGraph.from_ids(*report.links, report.tensor.registry.names)
        edges = {(frozenset((label(u), label(v))), w.hex()) for u, v, w in graph.edges}
        parts = netgraph.connected_components(graph).components
        communities = {v: partition[label(v)] for v in graph.nodes}
        with tempfile.TemporaryDirectory() as tmp:
            map_path = Path(tmp, "map.txt")
            write_vosviewer_files(graph, communities, map_path, Path(tmp, "network.txt"))
            lines = map_path.read_text(encoding="utf-8").split("\n")[:-1]
        header, *rows = [line.split("\t") for line in lines]
        weights = {label(row[header.index("label")]): row[header.index("weight")] for row in rows}
        q = netgraph.modularity(graph, communities)
        return (edges, {frozenset(map(label, part)) for part in parts},
                graph.total_weight.hex(), q.hex(), weights)

    for k in ks:
        report, other = build_flag_report(tensor, k=k), build_flag_report(other_tensor, k=k)
        assert set(report.value_sets) == set(other.value_sets)
        for key, values in report.value_sets.items():
            theirs = other.value_sets[key]
            if key == "links":
                order = np.lexsort((perm[report.triangle.cited], perm[report.triangle.citing]))
                assert theirs.tobytes() == values[order].tobytes(), k
            else:
                assert theirs[perm].tobytes() == values.tobytes(), (k, key)
            ours, theirs = report.statistics[key], other.statistics[key]
            assert (ours.mean.hex(), ours.sd.hex()) == (theirs.mean.hex(), theirs.sd.hex()), key
        for family in FAMILIES:
            for d in DIRECTIONS:
                ours = {new_name[names[i]] for i in getattr(report, family)[d].tolist()}
                theirs = {other_names[i] for i in getattr(other, family)[d].tolist()}
                assert ours == theirs, (k, family, d)
        ours = {(new_name[names[c]], new_name[names[d]], s) for c, d, s in report.hot_links}
        assert ours == {(other_names[c], other_names[d], s) for c, d, s in other.hot_links}, k
        assert other.loops_flagged == report.loops_flagged, k
        assert network(report, new_name.get) == network(other, str), k


def ids_of(array) -> list[int]:
    """The ids of a journal family's direction as a list, after checking
    that they form a read-only, strictly ascending, one-dimensional int64
    array, the form every family holds."""
    assert isinstance(array, np.ndarray), type(array)
    assert array.dtype == np.int64 and array.ndim == 1, (array.dtype, array.shape)
    assert not array.flags.writeable
    assert (np.diff(array) > 0).all(), array
    return array.tolist()


def families_of(family) -> dict[str, list[int]]:
    """A journal family, direction -> id array, as direction -> ``ids_of``."""
    return {d: ids_of(ids) for d, ids in family.items()}


def exact_float_sum(values) -> float:
    """Correctly rounded sum of finite floats via one exact rational."""
    scale = 2 ** 1074  # every finite double times 2^1074 is an integer
    total = 0
    for x in values:
        num, den = float(x).as_integer_ratio()
        total += num * (scale // den)
    return float(Fraction(total, scale))


# ---------------------------------------------------------------------------
# High-precision information-measure oracles (dense, mpmath)
# ---------------------------------------------------------------------------

def mp_freq(count: int, total: int) -> mpmath.mpf:
    return mpmath.mpf(int(count)) / mpmath.mpf(int(total))


def mp_kl_cell(q, p) -> mpmath.mpf:
    if q == 0:
        return mpmath.mpf(0)
    return q * mpmath.log(q / p, 2)


def oracle_pair(prior_grid: np.ndarray, post_grid: np.ndarray) -> dict:
    """Dense brute-force evaluation of one year-pair transition.

    Returns the per-cell bit matrix (NaN outside the valid mask), the cited
    and citing margin vectors and the grand total, all computed in 40-digit
    arithmetic and cast to float at the end.
    """
    n = prior_grid.shape[0]
    g_prior = int(prior_grid.sum())
    g_post = int(post_grid.sum())
    cells = np.full((n, n), np.nan)
    cited_margin = [mpmath.mpf(0)] * n
    citing_margin = [mpmath.mpf(0)] * n
    grand = mpmath.mpf(0)
    for c in range(n):
        for d in range(n):
            if prior_grid[c, d] <= 0:
                continue
            p = mp_freq(prior_grid[c, d], g_prior)
            q = mp_freq(post_grid[c, d], g_post)
            value = mp_kl_cell(q, p)
            cells[c, d] = float(value)
            citing_margin[c] += value
            cited_margin[d] += value
            grand += value
    return {
        "cells": cells,
        "cited": np.array([float(v) for v in cited_margin]),
        "citing": np.array([float(v) for v in citing_margin]),
        "grand": float(grand),
    }


def oracle_triangle(grids) -> dict:
    """Dense brute-force triangle scores over cells live in all years."""
    g = [int(grid.sum()) for grid in grids]
    n = grids[0].shape[0]
    scores = np.full((n, n), np.nan)
    values = []
    for c in range(n):
        for d in range(n):
            if any(grid[c, d] <= 0 for grid in grids):
                continue
            p = mp_freq(grids[0][c, d], g[0])
            p_mid = mp_freq(grids[1][c, d], g[1])
            q = mp_freq(grids[2][c, d], g[2])
            score = mp_kl_cell(p_mid, p) + mp_kl_cell(q, p_mid) - mp_kl_cell(q, p)
            scores[c, d] = float(score)
            values.append(float(score))
    values = np.array(values)
    return {
        "scores": scores,
        "mean": float(values.mean()) if values.size else float("nan"),
        "sd": float(values.std()) if values.size else float("nan"),
    }


def exact_frequencies(cells: dict) -> dict:
    """Exact-rational relative frequencies of a sparse count map."""
    total = sum(cells.values())
    return {key: Fraction(count, total) for key, count in cells.items()}


def solve_triangle_frequencies(a_bits: float, b_bits: float, c_bits: float):
    """Frequencies (p, p', q) whose three KL terms hit given targets.

    Inverts p'*log2(p'/p) = a, q*log2(q/p') = b, q*log2(q/p) = c in closed
    form: q/p' = (c-b)/a, q = b / log2(q/p'), p from the first equation.
    """
    s = (c_bits - b_bits) / a_bits
    q = b_bits / mpmath.log(s, 2)
    p_mid = q / s
    p = p_mid * mpmath.power(2, -(a_bits / p_mid))
    return float(p), float(p_mid), float(q)


def triangle_anchor_tensor(terms_mbits=(1.251, 2.465, 4.728), grand=10**9):
    """Two-node tensor whose (A, B) cell carries the requested KL terms.

    Counts are the target frequencies scaled to ``grand`` and rounded; the
    (B, A) cell absorbs the remainder so every year totals ``grand``.
    """
    p, p_mid, q = solve_triangle_frequencies(*(t / 1000.0 for t in terms_mbits))
    cell_counts = [round(p * grand), round(p_mid * grand), round(q * grand)]
    grids = []
    for count in cell_counts:
        grid = np.zeros((2, 2), dtype=np.int64)
        grid[0, 1] = count          # (A, B): A cites B
        grid[1, 0] = grand - count  # (B, A) filler keeps the total fixed
        grids.append(grid)
    return make_tensor(grids)


# ---------------------------------------------------------------------------
# Graph oracles
# ---------------------------------------------------------------------------

def dict_merge_graph(edges) -> tuple[tuple, tuple]:
    """(nodes, edges) of the simple graph on (u, v, w) label triples, merged
    the plain way: a running float sum per sorted label pair, in link order."""
    merged: dict[tuple, float] = {}
    for u, v, w in edges:
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0.0) + w
    edge_tuple = tuple((u, v, merged[(u, v)]) for u, v in sorted(merged))
    return tuple(sorted({x for u, v, _ in edge_tuple for x in (u, v)})), edge_tuple


def unique_merge(a, b, weights, n: int) -> tuple:
    """The edge merge as ``netgraph._merge`` once did it: ``np.unique`` of
    the keys min*n + max, then a sequential ``np.bincount`` of the weights
    over the inverse, in pair order."""
    keys, inverse = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    weights = np.bincount(inverse, weights=weights, minlength=keys.size).astype(np.float64)
    u, v = np.divmod(keys, n)
    return u, v, weights


def fsum_modularity(edges, partition) -> float:
    """Q = sum_c e_c/m - sum_c (d_c/2m)^2 over the label edges, with
    ``math.fsum`` for m, for each community degree d_c, for the intra
    weight and for the squared terms."""
    m = math.fsum(w for _, _, w in edges)
    if m <= 0:
        return 0.0
    intra = []
    ends = defaultdict(list)
    for u, v, w in edges:
        cu, cv = partition[u], partition[v]
        ends[cu].append(w)
        ends[cv].append(w)
        if cu == cv:
            intra.append(w)
    two_m = 2.0 * m
    return math.fsum(intra) / m - math.fsum((math.fsum(d) / two_m) ** 2 for d in ends.values())


def normalized_mutual_information(a, b) -> float:
    """NMI of two labelings of the same items, 2 I(A;B) / (H(A) + H(B))
    (Danon, Diaz-Guilera, Duch & Arenas 2005), from their contingency
    table; 1 when both put every item in one group."""
    _, a = np.unique(np.asarray(a), return_inverse=True)
    _, b = np.unique(np.asarray(b), return_inverse=True)
    joint = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(joint, (a, b), 1.0 / a.size)
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nonzero = joint > 0
    mutual = (joint[nonzero] * np.log(joint[nonzero] / np.outer(pa, pb)[nonzero])).sum()
    entropies = -(pa * np.log(pa)).sum() - (pb * np.log(pb)).sum()
    return 1.0 if entropies == 0 else float(2.0 * mutual / entropies)


def count_cached_builds(monkeypatch, cls, names) -> dict:
    """Wrap the cached properties ``names`` of ``cls`` so that every build
    (first read on an instance) is counted; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = cls.__dict__[name].func

        def build(self, name=name, inner=inner):
            calls[name] += 1
            return inner(self)

        prop = cached_property(build)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    return calls


class UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def groups(self):
        out: dict = {}
        for item in self.parent:
            out.setdefault(self.find(item), set()).add(item)
        return sorted((sorted(g) for g in out.values()), key=lambda g: (-len(g), g[0]))


def modularity_oracle(nodes, edges, assignment) -> float:
    """Dense adjacency-matrix modularity: (1/2m) sum_ij (A_ij - k_i k_j / 2m) delta."""
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for u, v, w in edges:
        A[index[u], index[v]] += w
        A[index[v], index[u]] += w
    two_m = A.sum()
    if two_m == 0:
        return 0.0
    k = A.sum(axis=1)
    q = 0.0
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if assignment[u] == assignment[v]:
                q += A[i, j] - k[i] * k[j] / two_m
    return q / two_m


def all_partitions(items: list):
    """Every set partition of ``items`` (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


def best_partition_q(nodes, edges) -> float:
    """Brute-force maximum modularity over every partition.

    Block-sum evaluation of Q = sum_c [e_c/m - (d_c/2m)^2]; agrees with
    modularity_oracle but avoids rebuilding the adjacency matrix per
    partition (Bell(8) = 4140 of them).
    """
    nodes = list(nodes)
    strength = {v: 0.0 for v in nodes}
    m = 0.0
    for u, v, w in edges:
        m += w
        strength[u] += w
        strength[v] += w
    if m == 0:
        return 0.0
    best = -np.inf
    for blocks in all_partitions(nodes):
        assign = {v: i for i, block in enumerate(blocks) for v in block}
        intra = [0.0] * len(blocks)
        for u, v, w in edges:
            if assign[u] == assign[v]:
                intra[assign[u]] += w
        q = 0.0
        for i, block in enumerate(blocks):
            d = sum(strength[v] for v in block)
            q += intra[i] / m - (d / (2.0 * m)) ** 2
        if q > best:
            best = q
    return best


def dict_aggregate(adj: list[dict], comm: list[int]) -> tuple[list[dict], dict[int, int]]:
    """Louvain's aggregation on adjacency dicts, as the unrefined pass did
    it: a community's internal weight becomes a loop of twice that weight,
    so row sums stay the strengths."""
    renum = {c: i for i, c in enumerate(sorted(set(comm)))}
    new_adj: list[dict] = [defaultdict(float) for _ in range(len(renum))]
    for v, nbrs in enumerate(adj):
        cv = renum[comm[v]]
        for u, w in nbrs.items():
            if u < v:
                continue
            if u == v:
                new_adj[cv][cv] += w
            else:
                cu = renum[comm[u]]
                if cu == cv:
                    new_adj[cv][cv] += 2.0 * w
                else:
                    new_adj[cu][cv] += w
                    new_adj[cv][cu] += w
    return [dict(nbrs) for nbrs in new_adj], renum


def unrefined_louvain_q(graph, seed: int) -> float:
    """Q of ``louvain`` as it was before multilevel refinement: each of 8
    seeded restarts coarsens until a level moves nothing and is not walked
    back down, and the best Q is kept.

    A Q baseline to compare against, not an independent oracle: it runs the
    library's own local moves (from singletons, as they always started),
    split and Q, with the dict aggregation the pass used. That aggregation
    keeps a community's internal weight as a loop, which the local moves
    do not take: each level's strengths are its row sums with the loops,
    and its moves walk the rows without them. A loop only ever added to a
    strength and never queued a node, so the moves are those the pass
    made."""
    m = graph.total_weight
    rng = random.Random(seed)
    best = -np.inf
    top = netgraph._adjacency(len(graph.nodes), graph.u, graph.v, graph.weights)
    for _ in range(8):
        adj = top
        node2agg = list(range(len(adj)))
        while True:
            k = [sum(nbrs.values()) for nbrs in adj]
            loopless = [{u: w for u, w in nbrs.items() if u != v} for v, nbrs in enumerate(adj)]
            comm = netgraph._move_nodes(loopless, k, m, rng, list(range(len(adj))))
            n = len(adj)
            adj, renum = dict_aggregate(adj, comm)
            if len(adj) == n:
                break
            node2agg = [renum[comm[agg]] for agg in node2agg]
        pieces = netgraph._split_disconnected(graph, np.array(node2agg, dtype=np.int64))
        best = max(best, netgraph._modularity(graph, pieces))
    return best


def random_graph_edges(rng: random.Random, n: int, p: float):
    """G(n, p) with unit weights; may be disconnected or empty."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, 1.0))
    return edges
