from __future__ import annotations

import functools
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import citeheat
from citeheat.errors import DataError
from citeheat import netgraph
from citeheat.netgraph import (
    HotLinkGraph,
    _adjacency,
    _aggregate,
    _move_nodes,
    _split_disconnected,
    build_graph,
    connected_components,
    degree_centrality,
    louvain,
    modularity,
)

from helpers import (
    UnionFind,
    best_partition_q,
    count_cached_builds,
    dict_aggregate,
    dict_merge_graph,
    fsum_modularity,
    modularity_oracle,
    normalized_mutual_information,
    random_graph_edges,
    unique_merge,
    unrefined_louvain_q,
)

SRC = Path(citeheat.__file__).resolve().parents[1]

TWO_TRIANGLES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)]


def _scrambled_labels(edges: list[tuple], n: int) -> list[tuple]:
    """Relabel int nodes 0..n-1 as strings whose sorted positions differ
    from the ints, so a label/position mix-up cannot pass unnoticed."""
    label = {u: f"J{(5 * u + 3) % n:02d}" for u in range(n)}
    return [(label[u], label[v], w) for u, v, w in edges]


def _neighbours(graph: HotLinkGraph) -> list[dict]:
    """Louvain's top-level neighbour dicts of ``graph``."""
    return _adjacency(len(graph.nodes), graph.u, graph.v, graph.weights)


def _planted_partition_edges(rng: random.Random, n: int = 120) -> list[tuple]:
    """Four blocks of n/4 nodes, edge probability 0.25 inside a block and
    0.04 across, weights uniform in [0.5, 2]."""
    block = n // 4
    return [
        (u, v, rng.uniform(0.5, 2.0))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < (0.25 if u // block == v // block else 0.04)
    ]


class TestBuildGraph:
    def test_reciprocal_links_merge(self):
        graph = build_graph([("A", "B", -0.5), ("B", "A", -0.25)])
        assert graph.edges == (("A", "B", 0.75),)
        assert graph.nodes == ("A", "B")

    def test_empty(self):
        graph = build_graph([])
        assert graph.nodes == ()
        assert graph.edges == ()

    def test_hand_fixture_adjacency(self):
        links = [("A", "B", -1.0), ("B", "C", -2.0), ("C", "A", -0.5),
                 ("D", "E", -1.5), ("E", "D", -0.5), ("A", "D", -0.25)]
        graph = build_graph(links)
        assert {v: i for i, v in enumerate(graph.nodes)} == {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}
        adj = _neighbours(graph)
        assert adj == [
            {1: 1.0, 2: 0.5, 3: 0.25},
            {0: 1.0, 2: 2.0},
            {0: 0.5, 1: 2.0},
            {0: 0.25, 4: 2.0},
            {3: 2.0},
        ]
        # Rows fill in edge order, which fixes Louvain's summation order.
        assert [list(row) for row in adj] == [[1, 2, 3], [0, 2], [0, 1], [0, 4], [3]]
        # Degrees are over positions, A..E.
        assert degree_centrality(graph).tolist() == [3, 2, 2, 2, 1]

    def test_loop_rejected(self):
        with pytest.raises(DataError, match="loop"):
            build_graph([("A", "A", -1.0)])
        with pytest.raises(DataError, match="loop"):
            HotLinkGraph.from_ids(np.array([0]), np.array([0]), np.array([-1.0]), ["A"])

    @pytest.mark.parametrize(
        "cited, scores, weight",
        [([1, 2], [np.nan, -1.0], "nan"), ([1, 2], [-np.inf, -1.0], "inf"),
         ([1, 0], [-1e308, -1e308], "inf")],
        ids=["nan", "inf", "finite-pair-and-reverse-overflow"],
    )
    def test_a_weight_not_finite_after_merging_is_refused(self, cited, scores, weight):
        # Louvain does not end on such a graph, so none is built.
        names, citing = ["A", "B", "C"], [0, 1]
        message = rf"^edge 'A' -- 'B': weight {weight} is not finite after merging$"
        with pytest.raises(DataError, match=message):
            HotLinkGraph.from_ids(np.array(citing), np.array(cited), np.array(scores), names)
        with pytest.raises(DataError, match=message):
            build_graph((names[c], names[d], s) for c, d, s in zip(citing, cited, scores))
        # A pair and its reverse that stay below the float range are one edge.
        graph = build_graph([("A", "B", -1e308), ("B", "A", -7e307)])
        assert graph.weights.tolist() == [1e308 + 7e307]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_from_ids_equals_the_label_path(self, seed):
        # Random links over 40 journals, many reciprocal, some journals
        # unlinked, in a random order: the same nodes, edges, bits and Q.
        rng = np.random.default_rng(seed)
        names = [f"J{i:02d}" for i in range(40)]
        pairs = {(int(c), int(d)) for c, d in rng.integers(0, 40, size=(300, 2)) if c != d}
        pairs |= {(d, c) for c, d in list(pairs)[::2]}
        citing, cited = (np.array(col, dtype=np.int64) for col in zip(*sorted(pairs)))
        order = rng.permutation(citing.size)
        citing, cited = citing[order], cited[order]
        scores = -rng.exponential(1e-3, size=citing.size)
        graph = HotLinkGraph.from_ids(citing, cited, scores, names)
        expected = build_graph(
            (names[c], names[d], s) for c, d, s in zip(citing, cited, scores.tolist())
        )
        assert graph.nodes == expected.nodes
        assert graph.edges == expected.edges  # floats compared exactly
        assert graph.weights.tobytes() == expected.weights.tobytes()
        assert graph.total_weight == expected.total_weight
        assert louvain(graph, seed=seed) == louvain(expected, seed=seed)


# Fixed seeds: the same examples on every run, no example database.
GRAPH_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def labelled_links(draw):
    """A pool of int or str labels and loop-free (citing, cited, score)
    links over it, with reversed pairs and repeats, in shuffled order. Some
    labels of the pool may have no link."""
    label = draw(st.sampled_from([st.integers(-40, 40), st.text("aBz é", max_size=3)]))
    pool = draw(st.lists(label, min_size=2, max_size=12, unique=True))
    pair = st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=30))
    if pairs:
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))]
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    pairs = draw(st.permutations(pairs))
    score = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    scores = draw(st.lists(score, min_size=len(pairs), max_size=len(pairs)))
    return pool, [(a, b, s) for (a, b), s in zip(pairs, scores)]


@st.composite
def cell_order_links(draw):
    """Links as a flag report gives them: distinct (citing, cited) cells in
    cell order, so sorted by citing label, then by cited label. Only some
    labels of the pool cite; the others occur only as cited, or not at all."""
    label = draw(st.sampled_from([st.integers(-40, 40), st.text("aBz é", max_size=3)]))
    pool = draw(st.lists(label, min_size=2, max_size=12, unique=True))
    citers = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    pair = st.tuples(st.sampled_from(citers), st.sampled_from(pool)).filter(lambda p: p[0] != p[1])
    pairs = sorted(draw(st.lists(pair, max_size=30, unique=True)))
    score = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    scores = draw(st.lists(score, min_size=len(pairs), max_size=len(pairs)))
    return pool, [(a, b, s) for (a, b), s in zip(pairs, scores)]


ANY_LINKS = st.one_of(labelled_links(), cell_order_links())


def _assert_same_graph(graph, nodes, edges):
    """Same nodes, same edge triples with the same weight bits, same
    total weight bits, and views that agree with the arrays."""
    assert graph.nodes == nodes
    assert [(a, b, float(w).hex()) for a, b, w in graph.edges] == [
        (a, b, float(w).hex()) for a, b, w in edges
    ]
    assert graph.total_weight.hex() == math.fsum(w for _, _, w in edges).hex()
    assert graph.u.dtype == graph.v.dtype == np.int64 and graph.weights.dtype == np.float64
    assert [(graph.nodes[i], graph.nodes[j]) for i, j in zip(graph.u, graph.v)] == [
        (a, b) for a, b, _ in edges
    ]


@st.composite
def merge_input(draw):
    """Loop-free position pairs over n nodes, with reversed pairs and
    repeats, and weights that include +-0.0 and magnitudes near the
    overflow range; n below 2 gives no pairs at all."""
    n = draw(st.integers(0, 12))
    pairs = []
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        pairs = draw(st.lists(pair, max_size=30))
        if pairs:
            pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))]
            pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
        pairs = draw(st.permutations(pairs))
    weight = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16, 1.7e308, -1.7e308, 5e-324]),
    )
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    return n, pairs, weights


class TestMerge:
    @GRAPH_SETTINGS
    @given(merge_input())
    # One edge whose three pairs sum to 0.0 in pair order and to 1.0 in
    # reverse order.
    @example((2, [(0, 1), (1, 0), (0, 1)], [1.0, 1e16, -1e16]))
    def test_merge_is_the_unique_merge_bit_for_bit(self, merge_case):
        n, pairs, weights = merge_case
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        w = np.array(weights, dtype=np.float64)
        got, want = netgraph._merge(a, b, w, n), unique_merge(a, b, w, n)
        for x, y in zip(got[:2], want[:2]):
            assert x.dtype == y.dtype and x.tolist() == y.tolist()
        assert got[2].dtype == np.float64
        assert [x.hex() for x in got[2].tolist()] == [y.hex() for y in want[2].tolist()]


class TestArrayGraph:
    """The array form against the plain label-keyed algorithms."""

    @GRAPH_SETTINGS
    @given(ANY_LINKS, st.randoms(use_true_random=False))
    def test_build_graph_and_its_results_match_the_label_oracles(self, pool_links, rnd):
        _, links = pool_links
        graph = build_graph(links)
        nodes, edges = dict_merge_graph((a, b, abs(s)) for a, b, s in links)
        _assert_same_graph(graph, nodes, edges)

        uf = UnionFind(nodes)
        for a, b, _ in edges:
            uf.union(a, b)
        parts = connected_components(graph)
        assert [list(c) for c in parts.components] == uf.groups()
        assert dict(zip(graph.nodes, parts.component.tolist())) == {
            v: i for i, c in enumerate(uf.groups()) for v in c
        }

        degrees = degree_centrality(graph)
        assert degrees.shape == (len(nodes),)
        assert dict(zip(graph.nodes, degrees.tolist())) == {
            v: sum(v in (a, b) for a, b, _ in edges) for v in nodes
        }

        partition = {v: f"c{rnd.randrange(4)}" for v in nodes}
        assert modularity(graph, partition).hex() == fsum_modularity(edges, partition).hex()

    @GRAPH_SETTINGS
    @given(ANY_LINKS)
    def test_from_ids_matches_the_dict_merge(self, pool_links):
        pool, links = pool_links
        names = sorted(pool)
        position = {name: i for i, name in enumerate(names)}
        citing, cited = (
            np.array([position[link[end]] for link in links], dtype=np.int64) for end in (0, 1)
        )
        scores = np.array([s for _, _, s in links], dtype=np.float64)
        graph = HotLinkGraph.from_ids(citing, cited, scores, names)
        _assert_same_graph(graph, *dict_merge_graph((a, b, abs(s)) for a, b, s in links))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_louvain_q_is_the_fsum_q_of_its_partition(self, seed):
        rng = random.Random(seed)
        edges = [(u, v, rng.uniform(0.5, 2.0)) for u, v, _ in random_graph_edges(rng, 41, 0.1)]
        graph = build_graph(_scrambled_labels(edges, 41))
        result = louvain(graph, seed=seed)
        assert len(set(result.assignment.values())) > 1
        assert result.q.hex() == fsum_modularity(graph.edges, result.assignment).hex()

    def test_shuffled_path_is_one_component(self):
        # A long path whose positions are shuffled along it: the slowest
        # case for labels that spread one hop per round.
        labels = [f"J{i:05d}" for i in range(20_000)]
        random.Random(12).shuffle(labels)
        graph = build_graph((a, b, 1.0) for a, b in zip(labels, labels[1:]))
        parts = connected_components(graph)
        assert parts.components == (tuple(sorted(labels)),)
        assert set(parts.component.tolist()) == {0}

    def test_arrays_are_read_only(self):
        graphs = [
            build_graph([("A", "B", -1.0), ("C", "B", -2.0)]),
            HotLinkGraph.from_ids(np.array([0, 2]), np.array([2, 3]), np.array([1.0, 2.0]),
                                  ["A", "B", "C", "D"]),
        ]
        for graph in graphs:
            for array in (graph.u, graph.v, graph.weights):
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_components_build_neither_adjacency_nor_edge_tuple(self, monkeypatch):
        builds = count_cached_builds(monkeypatch, HotLinkGraph, ("edges",))
        monkeypatch.setattr(netgraph, "_adjacency", None)  # a call would raise
        links = [("A", "B", -1.0), ("B", "C", -2.0), ("D", "E", -0.5), ("E", "D", -0.5)]
        parts = connected_components(build_graph(links))
        assert parts.components == (("A", "B", "C"), ("D", "E"))
        assert builds == {"edges": 0}


class TestComponents:
    def test_two_paths(self):
        graph = build_graph(
            [("A", "B", 1.0), ("B", "C", 1.0), ("D", "E", 1.0)]
        )
        parts = connected_components(graph)
        assert parts.components == (("A", "B", "C"), ("D", "E"))
        assert parts.component[graph.nodes.index("C")] == 0
        assert parts.component[graph.nodes.index("E")] == 1

    def test_connected_graph_single_component(self):
        rng = random.Random(5)
        edges = [(i, i + 1, 1.0) for i in range(9)]
        edges += random_graph_edges(rng, 10, 0.3)
        graph = build_graph(edges)
        assert len(connected_components(graph).components) == 1

    def test_planted_components_match_union_find(self):
        rng = random.Random(99)
        edges = []
        node = 0
        while node < 96:  # planted dyads and triads
            size = rng.choice([2, 3])
            members = list(range(node, node + size))
            for i in range(len(members) - 1):
                edges.append((members[i], members[i + 1], 1.0))
            if size == 3 and rng.random() < 0.5:
                edges.append((members[0], members[2], 1.0))
            node += size
        graph = build_graph(edges)
        parts = connected_components(graph)

        uf = UnionFind([v for e in edges for v in e[:2]])
        for u, v, _ in edges:
            uf.union(u, v)
        assert [list(c) for c in parts.components] == uf.groups()

    def test_idempotent_and_order_independent(self):
        edges = [("B", "C", 1.0), ("A", "B", 1.0), ("E", "D", 2.0)]
        a = connected_components(build_graph(edges))
        b = connected_components(build_graph(edges[::-1]))
        assert a == b

    def test_size_ties_break_on_smallest_member(self):
        graph = build_graph([("C", "D", 1.0), ("A", "B", 1.0)])
        parts = connected_components(graph)
        assert parts.components == (("A", "B"), ("C", "D"))


class TestModularity:
    def test_single_community_is_zero_for_any_graph(self):
        rng = random.Random(3)
        for n in (2, 5, 8):
            edges = random_graph_edges(rng, n, 0.6)
            if not edges:
                continue
            graph = build_graph(edges)
            assert modularity(graph, {v: 0 for v in graph.nodes}) == pytest.approx(0.0, abs=1e-15)

    def test_two_triangle_bridge_split(self):
        graph = build_graph(TWO_TRIANGLES)
        partition = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        assert modularity(graph, partition) == pytest.approx(6 / 7 - 1 / 2, rel=1e-12)
        assert modularity(graph, partition) == pytest.approx(0.357143, abs=1e-6)

    def test_matches_dense_oracle_on_random_partitions(self):
        rng = random.Random(17)
        for _ in range(10):
            edges = random_graph_edges(rng, 7, 0.5)
            if not edges:
                continue
            graph = build_graph(edges)
            assignment = {v: rng.randrange(3) for v in graph.nodes}
            expected = modularity_oracle(graph.nodes, graph.edges, assignment)
            assert modularity(graph, assignment) == pytest.approx(expected, abs=1e-12)

    def test_missing_node_errors(self):
        graph = build_graph([("A", "B", 1.0)])
        with pytest.raises(DataError, match="missing"):
            modularity(graph, {"A": 0})


class TestLouvain:
    def test_two_triangle_bridge(self):
        graph = build_graph(TWO_TRIANGLES)
        result = louvain(graph, seed=0)
        assert result.q == pytest.approx(0.357143, abs=1e-6)
        assert result.q == pytest.approx(best_partition_q(graph.nodes, graph.edges), abs=1e-9)
        left = {result.assignment[v] for v in (0, 1, 2)}
        right = {result.assignment[v] for v in (3, 4, 5)}
        assert len(left) == len(right) == 1
        assert left != right

    def test_single_edge_merges(self):
        graph = build_graph([("A", "B", 1.0)])
        result = louvain(graph, seed=0)
        assert result.assignment["A"] == result.assignment["B"]
        assert result.q == pytest.approx(0.0, abs=1e-15)
        assert best_partition_q(graph.nodes, graph.edges) == pytest.approx(0.0, abs=1e-15)

    def test_clique_of_four_single_community(self):
        edges = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
        graph = build_graph(edges)
        result = louvain(graph, seed=1)
        assert len(set(result.assignment.values())) == 1
        assert result.q == pytest.approx(0.0, abs=1e-15)
        assert best_partition_q(graph.nodes, graph.edges) == pytest.approx(0.0, abs=1e-12)

    def test_never_below_singletons(self):
        rng = random.Random(23)
        for _ in range(15):
            edges = random_graph_edges(rng, 8, 0.4)
            if not edges:
                continue
            graph = build_graph(edges)
            singleton_q = modularity(graph, {v: i for i, v in enumerate(graph.nodes)})
            assert louvain(graph, seed=2).q >= singleton_q - 1e-12

    def test_local_moves_never_lower_q(self):
        rng = random.Random(2008)
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 30)
            edges = [
                (u, v, rng.choice([1.0, rng.uniform(1e-3, 10.0)]))
                for u, v, _ in random_graph_edges(rng, n, rng.choice([0.1, 0.3, 0.6]))
            ]
            if not edges:
                continue
            graph = build_graph(edges)
            adj = _neighbours(graph)
            k = [sum(nbrs.values()) for nbrs in adj]
            comm = _move_nodes(adj, k, graph.total_weight, random.Random(rng.randrange(2**32)),
                               list(range(len(adj))))
            singleton_q = modularity(graph, {v: i for i, v in enumerate(graph.nodes)})
            assert modularity(graph, dict(zip(graph.nodes, comm))) >= singleton_q - 1e-12
            checked += 1
        assert checked >= 150

    def test_local_moves_from_a_start_partition_never_lower_q(self):
        rng = random.Random(2011)
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 30)
            edges = [
                (u, v, rng.choice([1.0, rng.uniform(1e-3, 10.0)]))
                for u, v, _ in random_graph_edges(rng, n, rng.choice([0.1, 0.3, 0.6]))
            ]
            if not edges:
                continue
            graph = build_graph(edges)
            size = len(graph.nodes)
            start = [rng.randrange(rng.randint(1, size)) for _ in range(size)]
            seed = rng.randrange(2**32)
            adj = _neighbours(graph)
            k = [sum(nbrs.values()) for nbrs in adj]
            comm = _move_nodes(adj, k, graph.total_weight, random.Random(seed), start)
            start_q = modularity(graph, dict(zip(graph.nodes, start)))
            assert modularity(graph, dict(zip(graph.nodes, comm))) >= start_q - 1e-12
            checked += 1
        assert checked >= 150

    def test_aggregate_matches_the_dict_aggregation(self):
        rng = random.Random(1402)
        for _ in range(60):
            n = rng.randint(2, 25)
            edges = [(u, v, rng.uniform(0.1, 5.0)) for u, v, _ in random_graph_edges(rng, n, 0.3)]
            if not edges:
                continue
            graph = build_graph(edges)
            size = len(graph.nodes)
            comm = [rng.randrange(size) for _ in range(size)]
            adj = _neighbours(graph)
            k = [sum(nbrs.values()) for nbrs in adj]
            node2agg, u, v, w, coarse_k = _aggregate(graph.u, graph.v, graph.weights, k, comm)
            expected, renum = dict_aggregate(adj, comm)
            assert node2agg.tolist() == [renum[c] for c in comm]
            assert coarse_k.tolist() == pytest.approx([sum(row.values()) for row in expected])
            assert (u < v).all() and np.all(np.diff(u * len(expected) + v) > 0)
            between = {(i, j): x for i, row in enumerate(expected) for j, x in row.items() if i < j}
            assert dict(zip(zip(u.tolist(), v.tolist()), w.tolist())) == pytest.approx(between)

    def test_pass_ends_at_first_level_that_moves_nothing(self, monkeypatch):
        # The bridge merges into its two triangles at the first level, and
        # the second level moves nothing; the walk back down refines the
        # first level once: 3 local-move phases in each of 3 restarts.
        calls = []

        def counted(adj, k, m, rng, start):
            calls.append(len(adj))
            return _move_nodes(adj, k, m, rng, start)

        monkeypatch.setattr(netgraph, "_move_nodes", counted)
        louvain(build_graph(TWO_TRIANGLES), seed=17)
        assert calls == [6, 2, 6] * 3

    def test_every_level_is_loop_free_and_symmetric(self, monkeypatch):
        # The local moves count every neighbour in a row as another node, so
        # each level they see must be a simple undirected graph whose
        # strengths sum to twice its total weight.
        sizes = []

        def checked(adj, k, m, rng, start):
            assert all(i not in row for i, row in enumerate(adj))
            assert all(adj[j][i] == w for i, row in enumerate(adj) for j, w in row.items())
            assert len(k) == len(adj)
            assert sum(k) == pytest.approx(2.0 * m, rel=1e-12)
            sizes.append(len(adj))
            return _move_nodes(adj, k, m, rng, start)

        monkeypatch.setattr(netgraph, "_move_nodes", checked)
        rng = random.Random(2019)
        graphs = [build_graph((u, v, w * 2.0**e) for u, v, w in TWO_TRIANGLES)
                  for e in (-600, 0, 600)]
        for _ in range(20):
            n, p = rng.randint(2, 60), rng.choice([0.05, 0.2, 0.5])
            edges = [(u, v, rng.uniform(0.1, 5.0)) for u, v, _ in random_graph_edges(rng, n, p)]
            graphs += [build_graph(edges)] if edges else []
        graphs += [build_graph(_planted_partition_edges(rng, 80)) for _ in range(3)]
        for seed, graph in enumerate(graphs):
            before = len(sizes)
            louvain(graph, seed=seed)
            # Coarser levels than the graph itself are checked too.
            assert min(sizes[before:]) < len(graph.nodes)

    @pytest.mark.parametrize("exponent", [-1000, -600, -500, 0, 500, 600, 1000, 1023])
    def test_weight_scale_changes_nothing(self, exponent):
        bridge = build_graph(TWO_TRIANGLES)
        expected = louvain(bridge, seed=17)
        scaled = build_graph((u, v, w * 2.0**exponent) for u, v, w in TWO_TRIANGLES)
        result = louvain(scaled, seed=17)
        assert result.assignment == expected.assignment
        assert result.q == expected.q

    def test_seed_determinism(self):
        rng = random.Random(7)
        edges = random_graph_edges(rng, 12, 0.3) or [(0, 1, 1.0)]
        graph = build_graph(edges)
        a = louvain(graph, seed=42)
        b = louvain(graph, seed=42)
        assert a.assignment == b.assignment
        assert a.q == b.q

    def test_communities_within_components_and_connected(self):
        rng = random.Random(11)
        edges = random_graph_edges(rng, 6, 0.5)
        edges = [(u, v, w) for u, v, w in edges] + [(u + 6, v + 6, w) for u, v, w in edges]
        edges = edges or [(0, 1, 1.0), (6, 7, 1.0)]
        graph = build_graph(_scrambled_labels(edges, 12))
        result = louvain(graph, seed=3)
        comp = dict(zip(graph.nodes, connected_components(graph).component.tolist()))
        neighbours: dict[str, set] = {}
        for u, v, _ in graph.edges:
            neighbours.setdefault(u, set()).add(v)
            neighbours.setdefault(v, set()).add(u)
        members: dict[int, set] = {}
        for v, c in result.assignment.items():
            members.setdefault(c, set()).add(v)
        assert len(members) > 1
        for community in members.values():
            assert len({comp[v] for v in community}) == 1
            seen = set()
            stack = [next(iter(sorted(community)))]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(u for u in neighbours[v] if u in community)
            assert seen == community

    def test_empty_graph_gives_empty_partition(self):
        result = louvain(build_graph([]), seed=4)
        assert result.assignment == {}
        assert result.q == 0.0
        assert result.seed == 4

    def test_split_disconnected_numbers_pieces_by_smallest_member(self):
        # Community 5 holds the paths 0-2-4 and 1-3-5; community 0 holds
        # 6-7, joined to 5 by an edge that must not merge pieces.
        edges = [(0, 2), (2, 4), (1, 3), (3, 5), (6, 7), (5, 6)]
        graph = build_graph((u, v, 1.0) for u, v in edges)
        comm = np.array([5, 5, 5, 5, 5, 5, 0, 0])
        assert _split_disconnected(graph, comm).tolist() == [0, 1, 0, 1, 0, 1, 2, 2]

    def test_same_partition_under_any_string_hash_seed(self):
        rng = random.Random(5)
        edges = [(f"J{u:02d}", f"J{v:02d}", w) for u, v, w in random_graph_edges(rng, 60, 0.08)]
        script = (
            "import json, sys\n"
            "from citeheat.netgraph import build_graph, louvain\n"
            "result = louvain(build_graph(json.load(sys.stdin)), seed=3)\n"
            "print(json.dumps([sorted(result.assignment.items()), repr(result.q)]))\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(
                [sys.executable, "-c", script], input=json.dumps(edges), env=env,
                capture_output=True, text=True, timeout=60, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assignment, _ = json.loads(outputs[0])
        assert len(assignment) == len({v for u, w, _ in edges for v in (u, w)})
        assert len({c for _, c in assignment}) > 1

    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    def test_q_at_least_networkx_louvain(self, graph_seed):
        nx = pytest.importorskip("networkx")
        edges = _planted_partition_edges(random.Random(graph_seed))
        nx_graph = nx.Graph()
        nx_graph.add_weighted_edges_from(edges)
        nx_q = statistics.mean(
            nx.community.modularity(
                nx_graph, nx.community.louvain_communities(nx_graph, weight="weight", seed=s)
            )
            for s in range(5)
        )
        # networkx's Q spreads by about 0.01 over its seeds on these graphs,
        # so the mean of five is known to within about half that.
        assert louvain(build_graph(edges), seed=0).q >= nx_q - 0.005

    def test_q_at_least_that_of_eight_unrefined_restarts(self):
        # Refinement with fewer restarts may lose on a single graph, but
        # not on the mean of a suite of planted partitions.
        rng = random.Random(2011)
        q_new, q_old = [], []
        for n in range(20, 151, 10):
            graph = build_graph(_planted_partition_edges(rng, n))
            for seed in range(5):
                q_new.append(louvain(graph, seed=seed).q)
                q_old.append(unrefined_louvain_q(graph, seed))
        assert statistics.mean(q_new) >= statistics.mean(q_old)


@functools.cache
def _lfr_graph(mu: float, seed: int):
    """An LFR benchmark graph (Lancichinetti, Fortunato & Radicchi 2008) of
    1,000 nodes, and each node's planted community as its smallest member.
    These parameters generate for mu 0.1, 0.3 and 0.5 and seeds 1 and 2;
    networkx raises for parameter sets that do not converge."""
    nx = pytest.importorskip("networkx")
    graph = nx.LFR_benchmark_graph(1000, 3, 1.5, mu, average_degree=10, max_degree=50,
                                   min_community=20, seed=seed)
    graph.remove_edges_from(list(nx.selfloop_edges(graph)))
    return graph, [min(graph.nodes[v]["community"]) for v in sorted(graph)]


def _planted_nmi(graph, planted, weights=None) -> tuple[float, float]:
    """NMI against the planted communities of ``louvain`` (seed 0) and of
    networkx's Louvain (seed 0), both with the given edge weights."""
    nx = pytest.importorskip("networkx")
    edges = list(graph.edges())
    weights = [1.0] * len(edges) if weights is None else weights
    ours = louvain(build_graph((f"J{u:04d}", f"J{v:04d}", w) for (u, v), w in zip(edges, weights)))
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph)
    nx_graph.add_weighted_edges_from((u, v, w) for (u, v), w in zip(edges, weights))
    theirs = {v: c for c, members in enumerate(
        nx.community.louvain_communities(nx_graph, weight="weight", seed=0)) for v in members}
    nodes = sorted(graph)
    return (
        normalized_mutual_information(planted, [ours.assignment[f"J{v:04d}"] for v in nodes]),
        normalized_mutual_information(planted, [theirs[v] for v in nodes]),
    )


class TestPlantedCommunities:
    """Louvain recovers planted communities about as well as networkx's
    Louvain does (Lancichinetti & Fortunato 2009), scored by NMI."""

    # Fixed before the first run: the mean NMI over the graph seeds may
    # fall below networkx's by at most this.
    MARGIN = 0.02

    def test_nmi_of_a_hand_worked_contingency_table(self):
        # Rows a = 0, 1; columns b = 0, 1, 2: [[2, 1, 0], [0, 1, 2]] over
        # 6 items. H(a) = ln 2, H(b) = ln 3, I = (1/3 + 1/3) ln 2, so
        # NMI = (4/3) ln 2 / ln 6.
        a, b = [0, 0, 0, 1, 1, 1], ["x", "x", "y", "y", "z", "z"]
        expected = 4 * math.log(2) / (3 * math.log(6))
        assert normalized_mutual_information(a, b) == pytest.approx(expected, rel=1e-12)
        assert normalized_mutual_information(b, a) == pytest.approx(expected, rel=1e-12)
        assert normalized_mutual_information(a, [5, 5, 5, 7, 7, 7]) == pytest.approx(1.0)
        assert normalized_mutual_information([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
        assert normalized_mutual_information([3] * 4, [1] * 4) == 1.0

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5])
    def test_louvain_recovers_planted_communities(self, mu):
        scores = [_planted_nmi(*_lfr_graph(mu, seed)) for seed in (1, 2)]
        ours, theirs = (statistics.mean(column) for column in zip(*scores))
        assert ours >= theirs - self.MARGIN

    def test_lognormal_weights(self):
        # Weights spread like the hot-link score magnitudes.
        graph, planted = _lfr_graph(0.3, 1)
        weights = np.random.default_rng(0).lognormal(0.0, 1.0, graph.number_of_edges())
        ours, theirs = _planted_nmi(graph, planted, weights.tolist())
        assert ours >= theirs - self.MARGIN


class TestDegreeCentrality:
    def test_star(self):
        edges = [("C", leaf, 1.0) for leaf in ("L1", "L2", "L3", "L4", "L5")]
        graph = build_graph(edges)
        degrees = dict(zip(graph.nodes, degree_centrality(graph).tolist()))
        assert degrees["C"] == 5
        assert all(degrees[leaf] == 1 for leaf in ("L1", "L2", "L3", "L4", "L5"))

    def test_empty(self):
        degrees = degree_centrality(build_graph([]))
        assert degrees.dtype == np.int64 and degrees.tolist() == []

    def test_matches_adjacency_row_sums(self):
        rng = random.Random(31)
        edges = _scrambled_labels(random_graph_edges(rng, 9, 0.4) or [(0, 1, 1.0)], 9)
        graph = build_graph(edges)
        degrees = degree_centrality(graph)
        adj = _neighbours(graph)
        assert degrees.shape == (len(graph.nodes),)
        for i, v in enumerate(graph.nodes):
            assert degrees[i] == len(adj[i])
            assert degrees[i] == sum(v in (a, b) for a, b, _ in edges)

    def test_read_only_int64_over_positions(self):
        graph = HotLinkGraph.from_ids(np.array([0, 2, 2]), np.array([2, 3, 1]),
                                      np.array([1.0, 2.0, 3.0]), ["A", "B", "C", "D"])
        degrees = degree_centrality(graph)
        assert degrees.dtype == np.int64
        assert degrees.tolist() == [1, 1, 3, 1]
        with pytest.raises(ValueError):
            degrees[0] = 0
