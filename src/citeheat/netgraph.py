"""Hot-link graph analysis: components, communities, degree centrality.

The graph is undirected and simple: a flagged cell and its reverse merge
into one edge whose weight is the summed score magnitude. Community
detection is the multilevel modularity optimization of Blondel et al.
(2008): local moves to a local optimum, aggregate, repeat. The local moves
are the "fast local move" of Leiden (Traag, Waltman & van Eck 2019): nodes
are visited from a FIFO queue, and after a move only the neighbours outside
the node's new community are queued again. A node moves only for a gain
strictly above that of staying, and equal best gains resolve to the lowest
community id. Each level's Q is the singleton Q of the aggregate graph. The
result is fully deterministic for a given seed: the initial queue order is
a seeded shuffle.

A node's id is its position in the sorted ``HotLinkGraph.nodes``, as a
journal's is in ``AlignedTensor``. Every consumer reads the graph's one
positional adjacency, and one BFS (``_split_disconnected``) finds both the
components and the connected pieces of Louvain's communities.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError

# Minimum modularity gain for another multilevel pass.
_MIN_LEVEL_GAIN = 1e-9
# Multilevel passes per louvain call; the best partition is kept.
_RESTARTS = 8


@dataclass(frozen=True)
class HotLinkGraph:
    """Undirected weighted graph of flagged links; no loops, no isolates.

    ``nodes`` is sorted; ``edges`` holds sorted (u, v, w) label triples with
    u < v. A node's id is its position in ``nodes``: ``index`` maps a label
    to it, and ``adjacency[i]`` maps neighbour ids to weights (read-only).
    """

    nodes: tuple
    edges: tuple

    @classmethod
    def from_edges(cls, edges: Iterable[tuple]) -> "HotLinkGraph":
        merged: dict[tuple, float] = {}
        for u, v, w in edges:
            if u == v:
                raise DataError(f"self-loop on {u!r}; loops must be removed upstream")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0.0) + w
        edge_tuple = tuple((u, v, merged[(u, v)]) for u, v in sorted(merged))
        nodes = set()
        for u, v, _ in edge_tuple:
            nodes.add(u)
            nodes.add(v)
        return cls(nodes=tuple(sorted(nodes)), edges=edge_tuple)

    @classmethod
    def from_ids(
        cls, citing: np.ndarray, cited: np.ndarray, scores: np.ndarray, names: Sequence[str]
    ) -> "HotLinkGraph":
        """The graph ``build_graph`` makes of the labelled links, built from
        id arrays over ``names``. Names are sorted, so id order is label
        order: an edge's key is ``min*N + max``, ``np.unique`` sorts the
        keys and a sequential ``np.bincount`` sums |score| per key in link
        order, so every edge weight has the bits of the label path."""
        if (citing == cited).any():
            raise DataError("self-loop among the hot links; loops must be removed upstream")
        n = len(names)
        keys, inverse = np.unique(
            np.minimum(citing, cited) * n + np.maximum(citing, cited), return_inverse=True
        )
        weights = np.bincount(inverse, weights=np.abs(scores), minlength=keys.size)
        u, v = np.divmod(keys, n)
        label = [names[i] for i in np.union1d(u, v).tolist()]
        edges = zip((names[i] for i in u.tolist()), (names[i] for i in v.tolist()), weights.tolist())
        return cls(nodes=tuple(label), edges=tuple(edges))

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def adjacency(self) -> list[dict[int, float]]:
        # Rows fill in edge order, which fixes the order of Louvain's sums.
        index = self.index
        adj: list[dict[int, float]] = [{} for _ in self.nodes]
        for u, v, w in self.edges:
            i, j = index[u], index[v]
            adj[i][j] = adj[j][i] = w
        return adj

    @cached_property
    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    @cached_property
    def sig6_weights(self) -> tuple[str, ...]:
        """Each edge weight as the network files declare it (``fmt_sig6``),
        formatted once for the Pajek and both VOSviewer writers."""
        from . import io_export  # io_export imports this module

        return tuple(io_export.fmt_sig6(w) for _, _, w in self.edges)


def build_graph(hot_links: Iterable[tuple]) -> HotLinkGraph:
    """Symmetrize flagged (citing, cited, score) cells; weight = |score|."""
    return HotLinkGraph.from_edges((u, v, abs(s)) for u, v, s in hot_links)


@dataclass(frozen=True)
class ComponentPartition:
    """Connectivity partition; components ordered by size descending,
    ties broken by smallest member."""

    assignment: dict
    components: tuple


def connected_components(graph: HotLinkGraph) -> ComponentPartition:
    pieces = _split_disconnected(graph.adjacency, [0] * len(graph.nodes))
    raw: list[list] = [[] for _ in range(max(pieces, default=-1) + 1)]
    for v, piece in zip(graph.nodes, pieces):
        raw[piece].append(v)
    raw.sort(key=lambda comp: (-len(comp), comp[0]))
    assignment = {v: i for i, comp in enumerate(raw) for v in comp}
    return ComponentPartition(assignment=assignment, components=tuple(tuple(c) for c in raw))


def degree_centrality(graph: HotLinkGraph) -> dict:
    """Unweighted incident-edge count per node."""
    return {v: len(nbrs) for v, nbrs in zip(graph.nodes, graph.adjacency)}


def modularity(graph: HotLinkGraph, partition: Mapping) -> float:
    """Q = sum_c [e_c/m - (d_c/2m)^2] with weighted edges.

    e_c is the intra-community edge weight, d_c the community degree sum and
    m the total edge weight. An edgeless graph has Q = 0 by convention.
    """
    missing = [v for v in graph.nodes if v not in partition]
    if missing:
        raise DataError(f"partition is missing nodes: {missing[:5]}")
    m = graph.total_weight
    if m <= 0:
        return 0.0
    intra: dict = defaultdict(float)
    deg: dict = defaultdict(float)
    for u, v, w in graph.edges:
        cu, cv = partition[u], partition[v]
        deg[cu] += w
        deg[cv] += w
        if cu == cv:
            intra[cu] += w
    return sum(intra[c] / m - (deg[c] / (2.0 * m)) ** 2 for c in deg)


@dataclass(frozen=True)
class CommunityPartition:
    """Modularity partition; every community is internally connected."""

    assignment: dict
    q: float
    seed: int


def _level_modularity(adj: list[dict], m: float) -> float:
    """Q of the partition that puts every node of ``adj`` alone.

    adj uses the A[v][v] = 2*loop convention, so a node's own entry is twice
    the intra weight of the community it stands for and the row sum is that
    community's degree sum.
    """
    return sum(
        nbrs.get(v, 0.0) / (2.0 * m) - (sum(nbrs.values()) / (2.0 * m)) ** 2
        for v, nbrs in enumerate(adj)
    )


def _move_nodes(adj: list[dict], m: float, rng: random.Random) -> list[int]:
    """One fast local-move phase, run until the queue of nodes to visit is empty.

    Every node starts in the queue, in seeded shuffled order. A node moves
    only when its best gain beats the gain of staying; it then queues each
    neighbour that is neither queued nor in its new community. Each move
    raises Q, so the queue drains.
    """
    n = len(adj)
    comm = list(range(n))
    k = [sum(nbrs.values()) for nbrs in adj]
    tot = k[:]
    order = list(range(n))
    rng.shuffle(order)
    queue = deque(order)
    queued = [True] * n
    two_m_sq = 2.0 * m * m
    while queue:
        v = queue.popleft()
        queued[v] = False
        c_old = comm[v]
        k_v = k[v]
        tot[c_old] -= k_v
        links: dict[int, float] = {}
        for u, w in adj[v].items():
            if u != v:
                c = comm[u]
                links[c] = links.get(c, 0.0) + w
        gain_old = links.get(c_old, 0.0) / m - tot[c_old] * k_v / two_m_sq
        best_c, best_gain = c_old, -float("inf")
        for c, w_c in links.items():
            gain = w_c / m - tot[c] * k_v / two_m_sq
            if gain > best_gain or (gain == best_gain and c < best_c):
                best_c, best_gain = c, gain
        if best_gain <= gain_old:
            tot[c_old] += k_v
            continue
        tot[best_c] += k_v
        comm[v] = best_c
        for u in adj[v]:
            if not queued[u] and comm[u] != best_c:
                queued[u] = True
                queue.append(u)
    return comm


def _aggregate(adj: list[dict], comm: list[int]) -> tuple[list[dict], dict[int, int]]:
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


def _split_disconnected(adj: list[dict], comm: list[int]) -> list[int]:
    """Split internally disconnected communities into their connected
    pieces; with every node in one community the pieces are the connected
    components. A split never lowers Q: the intra weight is preserved while
    the squared-degree penalty strictly shrinks. Pieces are numbered in the
    order of their smallest position."""
    piece = [-1] * len(adj)
    n_pieces = 0
    for start in range(len(adj)):
        if piece[start] >= 0:
            continue
        piece[start] = n_pieces
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if piece[u] < 0 and comm[u] == comm[v]:
                    piece[u] = n_pieces
                    stack.append(u)
        n_pieces += 1
    return piece


def _multilevel(adj0: list[dict], m: float, q0: float, rng: random.Random) -> list[int]:
    """One full multilevel run from the base graph ``adj0``, whose singleton
    partition has modularity ``q0``; returns the community of every base node."""
    node2agg = list(range(len(adj0)))
    adj = adj0
    q_level = q0
    while True:
        comm = _move_nodes(adj, m, rng)
        adj, renum = _aggregate(adj, comm)
        node2agg = [renum[comm[agg]] for agg in node2agg]
        q_new = _level_modularity(adj, m)
        if q_new < q_level - 1e-12:
            raise RuntimeError(f"local moves lowered Q from {q_level!r} to {q_new!r}")
        if q_new - q_level <= _MIN_LEVEL_GAIN or len(adj) == 1:
            return node2agg
        q_level = q_new


def louvain(graph: HotLinkGraph, seed: int = 0) -> CommunityPartition:
    """Multilevel modularity optimization, deterministic for a given seed.

    Each level runs a fast local move: every node is queued once in a
    seeded shuffled order, a popped node moves to the neighbouring community
    of highest gain (lowest id among equals) only when that gain is strictly
    above the gain of staying, and a move queues the node's neighbours that
    are outside its new community and not yet queued. The level ends when
    the queue is empty; the communities are then aggregated into nodes, and
    the level's Q is the singleton Q of that aggregate graph. Levels repeat
    while Q rises by more than a small tolerance.

    The multilevel pass is greedy, so it runs ``_RESTARTS`` (8) times with
    fresh visiting orders drawn from the seeded stream and the best
    partition kept (first achieved wins ties). Communities are split into
    connected pieces. Identical seed, identical partition. A graph without
    edge weight, the empty graph included, gets singletons and Q = 0.
    """
    adj = graph.adjacency
    m = graph.total_weight
    if m <= 0:
        assignment = {v: i for i, v in enumerate(graph.nodes)}
        return CommunityPartition(assignment=assignment, q=0.0, seed=seed)

    rng = random.Random(seed)
    q0 = _level_modularity(adj, m)
    best_assignment: dict | None = None
    best_q = -float("inf")
    for _ in range(_RESTARTS):
        pieces = _split_disconnected(adj, _multilevel(adj, m, q0, rng))
        assignment = dict(zip(graph.nodes, pieces))
        q = modularity(graph, assignment)
        if q > best_q:
            best_assignment, best_q = assignment, q
    return CommunityPartition(assignment=best_assignment, q=best_q, seed=seed)
