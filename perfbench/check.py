"""Independent output checker for the citeheat benchmark.

It never imports citeheat. Every expected value is recomputed from the
generator's truth arrays with numpy and ``math.fsum``, and every program
output is read back with the standard library. A check returns a list of
problems; an empty list means the operation's outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAIRS = ((0, 1), (1, 2), (0, 2))
MBITS = 1e3
# transition_summary.csv rounds to 6 decimals.
CSV_TOL = 6e-7
# graph.net rounds weights to 6 significant digits, so Q recomputed from it
# differs from the program's full-precision Q by far less than this.
Q_TOL = 1e-4
# Cells whose triangle score lies this close (relative) to the threshold may
# fall on either side, because the program's mean and SD use another
# summation order than the fsum reference.
BAND_REL = 1e-9


def fsum_stats(values: np.ndarray) -> tuple[float, float]:
    """Exactly rounded population mean and SD (two-pass)."""
    n = values.size
    mean = math.fsum(values.tolist()) / n
    var = math.fsum(((values - mean) ** 2).tolist()) / n
    return mean, math.sqrt(var)


def _kl(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    out = np.zeros(q.shape)
    nz = q > 0
    out[nz] = q[nz] * np.log2(q[nz] / p[nz])
    return out


@dataclass(frozen=True)
class Cells:
    """The aligned tensor after an optional exclusion, with its scores."""

    names: tuple[str, ...]
    citing: np.ndarray
    cited: np.ndarray
    counts: np.ndarray
    kl_bits: tuple[float, float, float]
    tri_citing: np.ndarray
    tri_cited: np.ndarray
    triangle: np.ndarray
    tri_mean: float
    tri_sd: float

    @classmethod
    def from_truth(cls, truth, exclude: str | None = None) -> "Cells":
        citing, cited, counts = truth.citing, truth.cited, truth.counts
        if exclude is not None:
            drop = truth.names.index(exclude)
            keep = (citing != drop) & (cited != drop)
            citing, cited, counts = citing[keep], cited[keep], counts[:, keep]
        freq = counts / counts.sum(axis=1, keepdims=True)
        kl_bits = []
        for prior, post in PAIRS:
            valid = counts[prior] > 0
            kl_bits.append(math.fsum(_kl(freq[post][valid], freq[prior][valid]).tolist()))
        tri = (counts > 0).all(axis=0)
        p, p_mid, q = freq[0][tri], freq[1][tri], freq[2][tri]
        triangle = _kl(p_mid, p) + _kl(q, p_mid) - _kl(q, p)
        mean, sd = fsum_stats(triangle)
        return cls(truth.names, citing, cited, counts, tuple(kl_bits),
                   citing[tri], cited[tri], triangle, mean, sd)

    def hot_links(self, k: float) -> "HotLinks":
        lower = self.tri_mean - k * self.tri_sd
        band = BAND_REL * (abs(self.tri_mean) + k * self.tri_sd)
        no_loop = self.tri_citing != self.tri_cited
        sure = (self.triangle < lower - band) & no_loop
        maybe = (np.abs(self.triangle - lower) <= band) & no_loop
        names = self.names

        def labelled(mask):
            return {(names[c], names[d]) for c, d in
                    zip(self.tri_citing[mask].tolist(), self.tri_cited[mask].tolist())}

        return HotLinks(sure=labelled(sure), maybe=labelled(maybe))


@dataclass(frozen=True)
class HotLinks:
    """Links certainly flagged, and links within rounding of the threshold."""

    sure: set
    maybe: set

    def problems(self, links: set, what: str) -> list[str]:
        if self.sure <= links <= self.sure | self.maybe:
            return []
        missing = len(self.sure - links)
        extra = len(links - self.sure - self.maybe)
        return [f"{what}: {missing} expected hot links missing, {extra} unexpected"]

    def graph(self) -> "Graph | None":
        """The symmetrized hot-link graph, when no link is in doubt."""
        if self.maybe:
            return None
        return Graph.from_pairs(self.sure)


@dataclass(frozen=True)
class Graph:
    nodes: tuple[str, ...]
    edges: frozenset

    @classmethod
    def from_pairs(cls, pairs) -> "Graph":
        edges = frozenset((a, b) if a < b else (b, a) for a, b in pairs if a != b)
        nodes = tuple(sorted({v for edge in edges for v in edge}))
        return cls(nodes=nodes, edges=edges)

    def components(self) -> list[int]:
        """Component sizes, largest first."""
        return sorted(_union_find(self.nodes, self.edges).values(), reverse=True)


def _union_find(nodes, edges) -> dict:
    parent = {v: v for v in nodes}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
    sizes: dict = {}
    for v in nodes:
        r = root(v)
        sizes[r] = sizes.get(r, 0) + 1
    return sizes


# ---------------------------------------------------------------------------
# Pajek partition: modularity and connectivity
# ---------------------------------------------------------------------------

def read_pajek(net_path: Path, clu_path: Path):
    """Labels, (i, j, w) edges over 0-based vertices, and cluster ids."""
    lines = net_path.read_text(encoding="utf-8").splitlines()
    n = int(lines[0].split()[1])
    labels = [line.split(" ", 1)[1].strip('"') for line in lines[1:n + 1]]
    edges = [line.split() for line in lines[n + 2:]] if len(lines) > n + 1 else []
    src = np.array([int(e[0]) - 1 for e in edges], dtype=np.int64)
    dst = np.array([int(e[1]) - 1 for e in edges], dtype=np.int64)
    weight = np.array([float(e[2]) for e in edges])
    clu_lines = clu_path.read_text(encoding="utf-8").splitlines()
    clusters = np.array([int(x) - 1 for x in clu_lines[1:]], dtype=np.int64)
    if clusters.size != n:
        raise ValueError(f"{clu_path.name} has {clusters.size} clusters for {n} vertices")
    return labels, src, dst, weight, clusters


def modularity(src, dst, weight, clusters) -> float:
    """Q = sum_c [e_c / m - (d_c / 2m)^2] over an undirected weighted graph."""
    m = math.fsum(weight.tolist())
    if m <= 0:
        return 0.0
    c_src, c_dst = clusters[src], clusters[dst]
    size = int(clusters.max()) + 1 if clusters.size else 0
    same = c_src == c_dst
    intra = np.bincount(c_src[same], weights=weight[same], minlength=size)
    degree = (np.bincount(c_src, weights=weight, minlength=size)
              + np.bincount(c_dst, weights=weight, minlength=size))
    return math.fsum((intra / m).tolist()) - math.fsum(((degree / (2 * m)) ** 2).tolist())


def check_partition(net_path: Path, clu_path: Path, claimed_q: float,
                    expected: Graph | None) -> tuple[list[str], float | None]:
    """Recompute Q of the written partition and check every community is
    connected and the graph is the expected hot-link graph."""
    try:
        labels, src, dst, weight, clusters = read_pajek(net_path, clu_path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable partition: {exc}"], None
    problems = []
    q = modularity(src, dst, weight, clusters)
    if not abs(q - claimed_q) <= Q_TOL:
        problems.append(f"modularity {claimed_q} but the written partition has {q}")
    intra = [(a, b) for a, b in zip(src.tolist(), dst.tolist()) if clusters[a] == clusters[b]]
    pieces = _union_find(range(len(labels)), intra)
    communities = len(set(clusters.tolist()))
    if len(pieces) != communities:
        problems.append(f"{communities} communities fall into {len(pieces)} connected pieces")
    if expected is not None:
        written = Graph.from_pairs((labels[a], labels[b]) for a, b in zip(src.tolist(), dst.tolist()))
        if written.nodes != expected.nodes or written.edges != expected.edges:
            problems.append(
                f"graph.net has {len(written.nodes)} nodes and {len(written.edges)} edges, "
                f"expected {len(expected.nodes)} and {len(expected.edges)}"
            )
    return problems, q


# ---------------------------------------------------------------------------
# One `citeheat run`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunExpectation:
    truth_cells: Cells   # before the exclude
    cells: Cells         # after it
    excluded: bool
    hot: HotLinks

    @classmethod
    def build(cls, truth, k: float, exclude: str | None) -> "RunExpectation":
        cells = Cells.from_truth(truth, exclude)
        full = cells if exclude is None else Cells.from_truth(truth)
        return cls(full, cells, exclude is not None, cells.hot_links(k))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_run(out: Path, exp: RunExpectation) -> tuple[list[str], float | None]:
    """Problems with one run's artifact tree, and the recomputed Q."""
    try:
        return _check_run(out, exp)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None


def _check_run(out: Path, exp: RunExpectation) -> tuple[list[str], float | None]:
    problems = []
    full, cells = exp.truth_cells, exp.cells
    stats = _read_json(out / "ingest" / "corpus_stats.json")
    if stats["common_journals"] != len(full.names):
        problems.append(f"common set {stats['common_journals']}, expected {len(full.names)}")
    all_years = int((full.counts > 0).all(axis=0).sum())
    if stats["all_years_cells"] != all_years:
        problems.append(f"all-years cells {stats['all_years_cells']}, expected {all_years}")

    with open(out / "reports" / "transition_summary.csv", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    sums = [float(row[4]) for row in rows[1:4]]
    for (prior, post), got, want in zip(PAIRS, sums, cells.kl_bits):
        want *= MBITS
        if not abs(got - want) <= CSV_TOL + 1e-12 * abs(want):
            problems.append(f"KL sum {prior}->{post}: {got}, expected {want:.7f}")

    flags = _read_json(out / "reports" / "journal_flags.json")
    if flags["journals"] != len(full.names) - exp.excluded:
        problems.append(f"{flags['journals']} journals after exclusion")

    with open(out / "reports" / "hot_links.csv", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    links = {(row[0], row[1]) for row in rows}
    problems += exp.hot.problems(links, "hot_links.csv")
    link_flags = _read_json(out / "reports" / "link_flags.json")
    if link_flags["hot_links"] != len(rows) or len(links) != len(rows):
        problems.append(f"link_flags.json counts {link_flags['hot_links']} of {len(rows)} rows")

    summary = _read_json(out / "summary.json")
    network = summary["network"]
    graph = exp.hot.graph()
    part_problems, q = check_partition(
        out / "network" / "graph.net", out / "network" / "communities.clu",
        network["modularity"], graph,
    )
    problems += part_problems
    if graph is not None:
        sizes = graph.components()
        if network["components"] != len(sizes) or network["giant_size"] != (sizes[0] if sizes else 0):
            problems.append(f"components {network['components']}/{network['giant_size']}, "
                            f"expected {len(sizes)}/{sizes[:1]}")
    return problems, q


def tree_digest(out: Path, subdirs=("reports", "network", "export")) -> str:
    """sha256 over the files of the given subtrees (paths and bytes)."""
    digest = hashlib.sha256()
    for sub in subdirs:
        for path in sorted((out / sub).rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(out).as_posix().encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# One flag-sweep operation (library calls inside one process)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepExpectation:
    kl_bits: tuple[float, float, float]
    hot: HotLinks
    graph: Graph | None
    components: list[int] | None

    @classmethod
    def build(cls, cells: Cells, k: float) -> "SweepExpectation":
        hot = cells.hot_links(k)
        graph = hot.graph()
        return cls(cells.kl_bits, hot, graph, graph.components() if graph else None)


def check_sweep_op(record: dict, exp: SweepExpectation) -> list[str]:
    problems = []
    for pair, got, want in zip(PAIRS, record["kl_bits"], exp.kl_bits):
        if not abs(got - want) <= 1e-9 * abs(want) + 1e-15:
            problems.append(f"k={record['k']}: KL sum {pair} {got}, expected {want}")
    n_hot = record["hot_links"]
    lo, hi = len(exp.hot.sure), len(exp.hot.sure) + len(exp.hot.maybe)
    if not lo <= n_hot <= hi:
        problems.append(f"k={record['k']}: {n_hot} hot links, expected {lo}..{hi}")
    if exp.graph is not None:
        got = (record["nodes"], record["edges"], record["components"], record["giant"])
        sizes = exp.components
        want = (len(exp.graph.nodes), len(exp.graph.edges), len(sizes), sizes[0] if sizes else 0)
        if got != want:
            problems.append(f"k={record['k']}: graph (nodes, edges, components, giant) "
                            f"{got}, expected {want}")
    return problems
