"""Hot-link graph analysis: components, communities, degree centrality.

The graph is undirected and simple: a flagged cell and its reverse merge
into one edge whose weight is the summed score magnitude. Community
detection is the multilevel modularity optimization of Blondel et al.
(2008) with multilevel refinement (Rotta & Noack 2011). Going up, each
level runs local moves to a local optimum and its communities become the
nodes of the next level; a pass stops climbing at the first level whose
local moves leave every node alone, as in Blondel et al. Going back down,
each finer level runs its local moves once more, started from the
partition projected from the level above, so a node can leave a community
that a coarser level placed it in as a block. The local moves are the
"fast local move" of Leiden (Traag, Waltman & van Eck 2019): nodes are
visited from a FIFO queue, and after a move only the neighbours outside
the node's new community are queued again. A node moves only for a gain
strictly above that of staying, and equal best gains resolve to the lowest
community id, so each move raises Q. The result is fully deterministic for
a given seed: every queue starts in a seeded shuffled order.

A node's id is its position in the sorted ``HotLinkGraph.nodes``, as a
journal's is in ``AlignedTensor``; the graph, its component numbers and
its degrees are arrays over those positions. One array component routine
(``_pieces``, min-label hook and shortcut after Shiloach & Vishkin 1982)
finds both the components and the connected pieces of Louvain's
communities, and one array core (``_modularity``) gives every Q. Louvain
aggregates levels as edge arrays too (``_merge``, ``from_ids``'s edge
merge); only its local moves walk positional neighbour dicts, which
``louvain`` builds per level (``_adjacency``). No level holds a loop: the
graph has none, and an aggregated level keeps only the edges between
communities. Labels cross into and out of positions in one C-level
``operator.itemgetter`` call each way (``_gather``).

The total weight m and every Q are exactly rounded (``segment_fsum``), so
they do not depend on the names. Louvain's levels add in position order:
its seeded shuffle visits nodes by position, so its partition does anyway.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import read_only
from .entropy import ordered_fsum, segment_fsum
from .errors import DataError

# Multilevel passes per louvain call; the best partition is kept. Three is
# the fewest that keeps acceptance criterion 6 (see louvain).
_RESTARTS = 3


@dataclass(frozen=True, eq=False)
class HotLinkGraph:
    """Undirected weighted graph of flagged links; no loops, no isolates.

    ``nodes`` is sorted, and a node's id is its position there. Edge e
    joins positions ``u[e] < v[e]`` with weight ``weights[e]``; edges are
    in (u, v) order, so in label order, and the three arrays are
    read-only. ``edges``, the (u, v, w) label triples, is built on first
    use and kept. Build a graph with ``from_ids`` or ``build_graph``: the
    bare constructor does not check that no edge is a loop and that every
    weight is finite, which Louvain relies on.
    """

    nodes: tuple
    u: np.ndarray
    v: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_ids(
        cls, citing: np.ndarray, cited: np.ndarray, scores: np.ndarray, names: Sequence[str]
    ) -> "HotLinkGraph":
        """The graph of the links given as id arrays over the sorted
        ``names``; weight = |score|, and an edge and its reverse or a repeat
        sum their weights in link order. Journals without a link are left
        out. A loop, or a weight that is not finite after merging (a NaN or
        infinite score, or a pair and its reverse that overflow), is a
        DataError naming the journals: Louvain would not end on it."""
        citing = np.asarray(citing, dtype=np.int64)
        cited = np.asarray(cited, dtype=np.int64)
        linked = np.zeros(len(names), dtype=bool)
        linked[citing] = linked[cited] = True
        if not linked.all():
            position = np.cumsum(linked) - 1
            citing, cited = position[citing], position[cited]
            names = [names[i] for i in np.flatnonzero(linked).tolist()]
        # names is sorted and each one is linked, so id order is label order.
        loops = citing == cited
        if loops.any():
            label = names[citing[loops.argmax()]]
            raise DataError(f"self-loop on {label!r}; loops must be removed upstream")
        u, v, weights = _merge(citing, cited, np.abs(scores), len(names))
        finite = np.isfinite(weights)
        if not finite.all():
            e = finite.argmin()
            raise DataError(f"edge {names[u[e]]!r} -- {names[v[e]]!r}: weight "
                            f"{weights[e]} is not finite after merging")
        return cls(nodes=tuple(names), u=read_only(u), v=read_only(v), weights=read_only(weights))

    @cached_property
    def edges(self) -> tuple:
        nodes = self.nodes
        return tuple([
            (nodes[i], nodes[j], w)
            for i, j, w in zip(self.u.tolist(), self.v.tolist(), self.weights.tolist())
        ])

    @cached_property
    def total_weight(self) -> float:
        """The sum of the edge weights, exactly rounded (``ordered_fsum``)."""
        return ordered_fsum(self.weights)

    @cached_property
    def sig6_weights(self) -> tuple[str, ...]:
        """Each edge weight as the network files declare it (``fmt_sig6``),
        formatted once for the Pajek and both VOSviewer writers."""
        from . import io_export  # io_export imports this module

        return tuple(io_export.fmt_sig6_column(self.weights))


def _merge(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The simple graph on positions 0..n-1 of the pairs (a[e], b[e]), none
    a loop: edges (u, v) with u < v in (u, v) order, each weighing the sum
    of its pairs' weights."""
    keys, edge = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    # A sequential bincount sums each edge's weights in pair order (it gives
    # int64 for no keys at all).
    weights = np.bincount(edge, weights=weights, minlength=keys.size).astype(np.float64)
    u, v = np.divmod(keys, n)
    return u, v, weights


def _gather(items, keys) -> tuple:
    """``items[key]`` for each key, as a tuple, in one C-level call where
    ``itemgetter`` allows (it returns a bare item for a single key)."""
    if len(keys) > 1:
        return itemgetter(*keys)(items)
    return tuple(items[key] for key in keys)


def _adjacency(n: int, u: np.ndarray, v: np.ndarray, weights: np.ndarray) -> list[dict[int, float]]:
    """Per position, neighbour position -> edge weight."""
    # Rows fill in edge order, which fixes the order of Louvain's sums.
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for i, j, w in zip(u.tolist(), v.tolist(), weights.tolist()):
        adj[i][j] = adj[j][i] = w
    return adj


def build_graph(hot_links: Iterable[tuple]) -> HotLinkGraph:
    """``HotLinkGraph.from_ids`` over flagged (citing, cited, score) label
    triples: the labels are interned as ids over their sorted set."""
    # One triple at a time: holding them all at once would hand the cyclic
    # garbage collector thousands of short-lived tuples to promote.
    citing, cited, values = [], [], []
    for u, v, w in hot_links:
        citing.append(u)
        cited.append(v)
        values.append(w)
    # The distinct labels in order of first appearance: links in cell order
    # give the citing labels as one ascending run, which the sort passes
    # over instead of re-sorting a hash order. The dict then becomes the
    # index, and one lookup call maps both label lists to ids.
    labels = citing + cited
    index = dict.fromkeys(labels)
    names = sorted(index)
    index.update(zip(names, range(len(names))))
    ids = np.fromiter(_gather(index, labels), np.int64, len(labels))
    values = np.fromiter(values, np.float64, len(values))
    return HotLinkGraph.from_ids(ids[: len(citing)], ids[len(citing):], values, names)


@dataclass(frozen=True)
class ComponentPartition:
    """Connectivity partition; components ordered by size descending,
    ties broken by smallest member.

    ``component[i]`` is the component number of ``nodes[i]``, a read-only
    array over the graph's node positions. Two partitions are equal when
    their ``nodes`` and ``components`` are, which fix ``component``.
    """

    nodes: tuple
    component: np.ndarray = field(compare=False)
    components: tuple


def _pieces(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected pieces of the graph on positions 0..n-1 with edges (u, v),
    numbered in the order of their smallest position.

    Min-label hook and shortcut (Shiloach & Vishkin 1982, without their
    unconditional hooks): every node points at a smaller or equal position,
    and a node pointing at itself is a root. Each round hooks every root
    that an edge joins to a smaller root onto the smallest such root, then
    jumps pointers until each node points at its root. The roots left are
    those no neighbouring tree undercut, no two of them joined by an edge;
    a piece's smallest position is always a root, so the rounds end with
    it as the root of the piece.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        if (ru == rv).all():
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if (jumped == root).all():
                break
            root = jumped
    return np.cumsum(root == np.arange(n))[root] - 1


def connected_components(graph: HotLinkGraph) -> ComponentPartition:
    nodes = graph.nodes
    pieces = _pieces(len(nodes), graph.u, graph.v)
    sizes = np.bincount(pieces)
    # Pieces are numbered by smallest member, so a stable sort on size
    # gives the (-size, smallest member) order.
    order = np.argsort(-sizes, kind="stable")
    component = np.argsort(order)[pieces]
    members = _gather(nodes, np.argsort(component, kind="stable").tolist())
    bounds = np.cumsum(sizes[order]).tolist()
    components = tuple(members[a:b] for a, b in zip([0, *bounds], bounds))
    return ComponentPartition(nodes=nodes, component=read_only(component), components=components)


def degree_centrality(graph: HotLinkGraph) -> np.ndarray:
    """Unweighted incident-edge count per node position, read-only int64."""
    n = len(graph.nodes)
    return read_only(np.bincount(graph.u, minlength=n) + np.bincount(graph.v, minlength=n))


def _modularity(graph: HotLinkGraph, comm: np.ndarray) -> float:
    """Q of the partition that puts position i in community ``comm[i]``
    (ints >= 0), as sum(e_c)/m - sum((d_c/2m)^2) with each sum exactly
    rounded: every community degree d_c over both ends of its edges, the
    intra weight and the squared terms, so in no particular edge order."""
    m = graph.total_weight
    if m <= 0:
        return 0.0
    w = graph.weights
    cu, cv = comm[graph.u], comm[graph.v]
    deg = segment_fsum(np.concatenate((cu, cv)), np.concatenate((w, w)), int(comm.max()) + 1)
    return ordered_fsum(w[cu == cv]) / m - ordered_fsum((deg / (2.0 * m)) ** 2)


def modularity(graph: HotLinkGraph, partition: Mapping) -> float:
    """Q = sum_c [e_c/m - (d_c/2m)^2] with weighted edges.

    e_c is the intra-community edge weight, d_c the community degree sum and
    m the total edge weight. An edgeless graph has Q = 0 by convention.
    """
    missing = [v for v in graph.nodes if v not in partition]
    if missing:
        raise DataError(f"partition is missing nodes: {missing[:5]}")
    codes: dict = {}
    comm = [codes.setdefault(partition[v], len(codes)) for v in graph.nodes]
    return _modularity(graph, np.array(comm, dtype=np.int64))


@dataclass(frozen=True)
class CommunityPartition:
    """Modularity partition; every community is internally connected."""

    assignment: dict = field(hash=False)
    q: float
    seed: int


def _move_nodes(
    adj: list[dict], k: list[float], m: float, rng: random.Random, start: list[int]
) -> list[int]:
    """One fast local-move phase, run until the queue of nodes to visit is empty.

    ``adj`` holds no loop, and ``k`` holds the node strengths, which a
    level computes once for both of its passes. The phase starts from
    ``start``, community ids below ``len(adj)``: singletons going up, the
    partition projected from the level above going back down. Every node
    starts in the queue, in seeded shuffled order. A node moves only when
    its best gain beats the gain of staying; it then queues each neighbour
    that is neither queued nor in its new community. Each move raises Q, so
    the queue drains and the result's Q is never below that of the start.
    """
    n = len(adj)
    comm = start[:]
    tot = [0.0] * n
    for c, k_v in zip(comm, k):
        tot[c] += k_v
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


def _aggregate(
    u: np.ndarray, v: np.ndarray, weights: np.ndarray, k: list[float], comm: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The level above a partition of the level with edges (u, v, weights)
    and node strengths ``k``: each community becomes a node, numbered in
    community id order. Returns every node's new number, the new level's
    edges as ``_merge`` gives them, and its strengths, each the sum of its
    members'. The weight inside a community is left out: a local move
    reads it only through the strengths."""
    ids, node2agg = np.unique(comm, return_inverse=True)
    n = ids.size
    cu, cv = node2agg[u], node2agg[v]
    cross = cu != cv
    return (
        node2agg,
        *_merge(cu[cross], cv[cross], weights[cross], n),
        np.bincount(node2agg, weights=k, minlength=n),
    )


def _split_disconnected(graph: HotLinkGraph, comm: np.ndarray) -> np.ndarray:
    """Split internally disconnected communities into their connected
    pieces, numbered in the order of their smallest position. A split never
    lowers Q: the intra weight is preserved while the squared-degree
    penalty strictly shrinks."""
    inside = comm[graph.u] == comm[graph.v]
    return _pieces(comm.size, graph.u[inside], graph.v[inside])


def _multilevel(
    graph: HotLinkGraph, adj: list[dict], k: list[float], rng: random.Random
) -> list[int]:
    """One full multilevel run over ``graph``, whose neighbour dicts are
    ``adj`` and node strengths ``k``; returns the community of every node.

    Coarsening ends at the first level whose local moves leave every node
    alone. The run then walks back down (multilevel refinement, Rotta &
    Noack 2011): each finer level runs one more local-move phase, started
    from the partition projected down from the level above."""
    m = graph.total_weight
    u, v, w = graph.u, graph.v, graph.weights
    levels = []
    while True:
        comm = _move_nodes(adj, k, m, rng, list(range(len(adj))))
        node2agg, u, v, w, coarse_k = _aggregate(u, v, w, k, comm)
        if coarse_k.size == len(adj):
            break
        levels.append((adj, k, node2agg.tolist()))
        k = coarse_k.tolist()
        adj = _adjacency(len(k), u, v, w)
    # Each node of the coarsest level is a community of its own.
    part = list(range(len(adj)))
    for adj, k, node2agg in reversed(levels):
        part = _move_nodes(adj, k, m, rng, [part[c] for c in node2agg])
    return part


def louvain(graph: HotLinkGraph, seed: int = 0) -> CommunityPartition:
    """Multilevel modularity optimization, deterministic for a given seed.

    Each level runs a fast local move: every node is queued once in a
    seeded shuffled order, a popped node moves to the neighbouring community
    of highest gain (lowest id among equals) only when that gain is strictly
    above the gain of staying, and a move queues the node's neighbours that
    are outside its new community and not yet queued. The level ends when
    the queue is empty; the communities are then aggregated into nodes.
    Levels repeat until one moves no node. The pass then walks back down
    and runs one more local move at each finer level, started from the
    partition of the level above (multilevel refinement).

    The multilevel pass is greedy, so it runs ``_RESTARTS`` (3) times with
    fresh visiting orders drawn from the seeded stream and the best
    partition kept (first achieved wins ties). Refinement lifts each pass's
    Q, so three refined passes reach a higher Q than eight unrefined ones
    did; three is the fewest at which acceptance criterion 6 finds the
    brute-force optimum on 95% of its small graphs (1, 2, 3, 4 and 8
    refined passes reach 102, 104, 105, 105 and 107 of 110). Refinement
    does not keep communities connected, so they are split into connected
    pieces. Identical seed, identical partition. A graph without edge
    weight, the empty graph included, gets singletons and Q = 0. A graph
    is solved as its weights scaled by a power of two when its largest
    weight lies beyond 2**256 or below 2**-256.
    """
    # The gains divide by 2*m*m, which overflows or underflows at extreme
    # weight scales, and m itself may overflow. A power-of-two scale changes
    # no bit of any comparison, so such a graph is solved with its largest
    # weight brought near 1.
    exponent = math.frexp(graph.weights.max(initial=0.0))[1]
    if abs(exponent) > 256:
        scaled = read_only(np.ldexp(graph.weights, -exponent))
        return louvain(HotLinkGraph(graph.nodes, graph.u, graph.v, scaled), seed)
    m = graph.total_weight
    if m <= 0:
        assignment = {v: i for i, v in enumerate(graph.nodes)}
        return CommunityPartition(assignment=assignment, q=0.0, seed=seed)
    adj = _adjacency(len(graph.nodes), graph.u, graph.v, graph.weights)
    k = [sum(nbrs.values()) for nbrs in adj]

    rng = random.Random(seed)
    best_q = -float("inf")
    for _ in range(_RESTARTS):
        comm = np.array(_multilevel(graph, adj, k, rng), dtype=np.int64)
        pieces = _split_disconnected(graph, comm)
        q = _modularity(graph, pieces)
        if q > best_q:
            best_pieces, best_q = pieces, q
    assignment = dict(zip(graph.nodes, best_pieces.tolist()))
    return CommunityPartition(assignment=assignment, q=best_q, seed=seed)


@dataclass(frozen=True, eq=False)
class Network:
    """The hot-link graph with its components, communities and degrees."""

    graph: HotLinkGraph
    components: ComponentPartition
    communities: CommunityPartition
    degrees: np.ndarray

    @property
    def giant(self) -> tuple:
        """The main component's members; an empty graph has none."""
        return self.components.components[0] if self.components.components else ()

    def counts(self) -> dict:
        """The network block of summary.json, without the base map's count."""
        return {
            "nodes": len(self.graph.nodes),
            "edges": self.graph.weights.size,
            "components": len(self.components.components),
            "giant_size": len(self.giant),
            "communities": len(set(self.communities.assignment.values())),
            "modularity": self.communities.q,
        }
