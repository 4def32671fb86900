"""Exit criteria for the package, one test per criterion.

Each test pins the tolerance it must meet and, where a runtime bound is
part of the criterion, asserts it. The terminal summary hook in conftest
prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from citeheat.cli import main
from citeheat.corpus import YearMatrix, apply_name_changes, build_common_set
from citeheat.entropy import (
    cell_divergence,
    margin_totals,
    revision_of_prediction,
    to_unit,
    triangle_evaluation,
)
from citeheat.flags import ThresholdSpec, build_flag_report, flag_links
from citeheat.io_export import write_pajek_clu, write_pajek_net, write_vosviewer_files
from citeheat.netgraph import HotLinkGraph, build_graph, connected_components, louvain

from helpers import (
    best_partition_q,
    dyad_fixture_cells,
    families_of,
    link_triples,
    make_tensor,
    oracle_pair,
    oracle_triangle,
    random_active_grids,
    random_graph_edges,
    triangle_anchor_tensor,
    write_edge_list,
)
from interchange import read_pajek_clu, read_pajek_net, read_vosviewer_files


def test_criterion_1_triangle_anchor_arithmetic():
    """KL terms 1.251 + 2.465 - 4.728 mbits give -1.012 mbits and flag at
    the -0.935 mbits threshold; tolerance 0.0005 mbits; under 1 second."""
    started = time.perf_counter()
    tensor = triangle_anchor_tensor(terms_mbits=(1.251, 2.465, 4.728))
    cells = triangle_evaluation(tensor)
    idx = next(
        i for i in range(len(cells.values))
        if (cells.citing[i], cells.cited[i]) == (0, 1)
    )

    # The constructed cell really carries the three reported KL terms.
    p, p_mid, q = (float(tensor.frequencies(y)[idx]) for y in range(3))
    terms = (
        p_mid * np.log2(p_mid / p),
        q * np.log2(q / p_mid),
        q * np.log2(q / p),
    )
    for term, target in zip(terms, (1.251, 2.465, 4.728)):
        assert to_unit(term, "mbits") == pytest.approx(target, abs=1e-4)

    score_mbits = to_unit(float(cells.values[idx]), "mbits")
    assert score_mbits == pytest.approx(-1.012, abs=0.0005)

    reported_threshold = ThresholdSpec(k=1.0, mean=0.0, sd=0.0, upper=0.0, lower=-0.935e-3)
    hot = link_triples(flag_links(cells, threshold=reported_threshold, drop_loops=False))
    assert (0, 1) in {(c, d) for c, d, _ in hot}
    assert time.perf_counter() - started < 1.0


def test_criterion_2_synthetic_dyad_reproduction():
    """The 12-node tensor with one link rising 29 -> 54 -> 106 (reverse
    5 -> 5 -> 7) flags exactly that directed cell, which then forms a dyad
    component with no background node in the graph; under 1 second."""
    started = time.perf_counter()
    years = dyad_fixture_cells()

    # Independent brute-force oracle over every cell, before the main build.
    names = sorted({n for cells in years.values() for pair in cells for n in pair})
    index = {n: i for i, n in enumerate(names)}
    grids = []
    for label in sorted(years):
        grid = np.zeros((len(names), len(names)), dtype=np.int64)
        for (c, d), n in years[label].items():
            grid[index[c], index[d]] = n
        grids.append(grid)
    oracle = oracle_triangle(grids)
    lower = oracle["mean"] - oracle["sd"]
    expected = {
        (names[c], names[d])
        for c in range(len(names))
        for d in range(len(names))
        if c != d
        and not np.isnan(oracle["scores"][c, d])
        and oracle["scores"][c, d] < lower
    }
    assert expected == {("Pers Med", "Genet Med")}

    matrices = [YearMatrix.from_cells(label, years[label]) for label in sorted(years)]
    registry, renamed = apply_name_changes(matrices, [])
    tensor = build_common_set(registry, renamed)
    report = build_flag_report(tensor, k=1.0)
    flagged = {
        (tensor.registry.names[c], tensor.registry.names[d])
        for c, d, _ in report.hot_links
    }
    assert flagged == expected

    labeled = [
        (tensor.registry.names[c], tensor.registry.names[d], s)
        for c, d, s in report.hot_links
    ]
    graph = build_graph(labeled)
    components = connected_components(graph)
    assert components.components == (("Genet Med", "Pers Med"),)
    background = {n for n in names if n.startswith("Bkg")}
    assert not background & set(graph.nodes)
    assert time.perf_counter() - started < 1.0


def test_criterion_3_divergence_matches_dense_oracle():
    """100 random 20x20 three-year tensors: every cell contribution, margin
    and grand sum within 1e-9 relative of the dense 40-digit oracle; under
    30 seconds."""
    started = time.perf_counter()
    rng = np.random.default_rng(1207)
    pair_of = {(0, 1): (0, 1), (1, 2): (1, 2), (0, 2): (0, 2)}
    for trial in range(100):
        grids = random_active_grids(rng, 20, density=0.45, high=30)
        tensor = make_tensor(grids)
        for pair in pair_of:
            cells = cell_divergence(tensor, pair)
            oracle = oracle_pair(grids[pair[0]], grids[pair[1]])
            got = np.zeros((20, 20))
            got[cells.citing, cells.cited] = cells.values
            expected = np.nan_to_num(oracle["cells"], nan=0.0)
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-15)
            assert np.allclose(
                margin_totals(cells, "cited"), oracle["cited"],
                rtol=1e-9, atol=1e-15,
            )
            assert np.allclose(
                margin_totals(cells, "citing"), oracle["citing"],
                rtol=1e-9, atol=1e-15,
            )
            assert cells.grand_sum == pytest.approx(oracle["grand"], rel=1e-9, abs=1e-15)
    assert time.perf_counter() - started < 30.0


def test_criterion_4_revision_identities():
    """Per-node revision equals I_node(q|p) - I_node(q|p') within 1e-9
    relative over the same cells, and the per-cell identity
    q*log2(p'/p) + q*log2(q/p') = q*log2(q/p) holds within 1e-12."""
    rng = np.random.default_rng(1972)
    for trial in range(100):
        grids = random_active_grids(rng, 20, density=0.45, high=30)
        tensor = make_tensor(grids)
        c0, c1, c2 = tensor.counts
        included = (c0 > 0) & (c1 > 0)
        p = tensor.frequencies(0)[included]
        p_mid = tensor.frequencies(1)[included]
        q = tensor.frequencies(2)[included]

        nz = q > 0
        i_qp = np.zeros(p.shape)
        i_qpmid = np.zeros(p.shape)
        i_qp[nz] = q[nz] * np.log2(q[nz] / p[nz])
        i_qpmid[nz] = q[nz] * np.log2(q[nz] / p_mid[nz])
        revision = revision_of_prediction(tensor)
        for direction, key in (("cited", tensor.cited), ("citing", tensor.citing)):
            node_qp = np.zeros(tensor.n_nodes)
            node_qpmid = np.zeros(tensor.n_nodes)
            np.add.at(node_qp, key[included], i_qp)
            np.add.at(node_qpmid, key[included], i_qpmid)
            assert np.allclose(
                margin_totals(revision, direction), node_qp - node_qpmid,
                rtol=1e-9, atol=1e-12,
            )

        lhs = np.zeros(p.shape)
        lhs[nz] = q[nz] * np.log2(p_mid[nz] / p[nz]) + q[nz] * np.log2(q[nz] / p_mid[nz])
        rhs = i_qp
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_criterion_5_gibbs_non_negativity():
    """100 random same-support year pairs: total divergence >= -1e-12, and
    it is 0 within 1e-12 exactly when the two distributions are equal."""
    rng = np.random.default_rng(451)
    for trial in range(100):
        n = 8
        support = rng.random((n, n)) < 0.5
        np.fill_diagonal(support, True)
        g0 = np.where(support, rng.integers(1, 60, (n, n)), 0).astype(np.int64)
        if trial % 3 == 0:
            g1 = g0 * int(rng.integers(1, 5))  # equal distributions
        else:
            g1 = np.where(support, rng.integers(1, 60, (n, n)), 0).astype(np.int64)
        for c in range(n):
            g0[c, (c + 1) % n] = max(1, g0[c, (c + 1) % n])
            g1[c, (c + 1) % n] = max(1, g1[c, (c + 1) % n])
        tensor = make_tensor([g0, g1, g1])
        total = cell_divergence(tensor, (0, 1)).grand_sum

        assert total >= -1e-12
        t0, t1 = int(g0.sum()), int(g1.sum())
        equal = all(
            Fraction(int(a), t0) == Fraction(int(b), t1)
            for a, b in zip(g0.ravel(), g1.ravel())
        )
        assert (abs(total) <= 1e-12) == equal


def test_criterion_6_louvain_reaches_brute_force_optimum():
    """Across a generated suite of graphs with at most 8 nodes, louvain's Q
    is within 1e-9 of the exhaustive maximum for >= 95% of instances and
    never exceeds it by more than 1e-9; the two-triangle bridge yields the
    triangle split with Q = 0.357143 +/- 1e-6; under 60 seconds."""
    started = time.perf_counter()
    rng = random.Random(8128)
    total = 0
    optimal = 0
    for n in range(2, 9):
        for p in (0.3, 0.5, 0.8):
            for _ in range(6):
                edges = random_graph_edges(rng, n, p)
                weighted = [
                    (u, v, w if rng.random() < 0.5 else round(rng.uniform(0.5, 3.0), 3))
                    for u, v, w in edges
                ]
                if not weighted:
                    continue
                graph = build_graph(weighted)
                result = louvain(graph, seed=17)
                best = best_partition_q(graph.nodes, graph.edges)
                assert result.q <= best + 1e-9
                total += 1
                if result.q >= best - 1e-9:
                    optimal += 1
    assert total >= 100
    assert optimal / total >= 0.95, f"{optimal}/{total} optimal"

    bridge = build_graph(
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
         (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)]
    )
    result = louvain(bridge, seed=17)
    assert result.q == pytest.approx(0.357143, abs=1e-6)
    assert {result.assignment[v] for v in (0, 1, 2)} != {result.assignment[v] for v in (3, 4, 5)}
    assert time.perf_counter() - started < 60.0


def test_criterion_7_format_round_trips(tmp_path):
    """Pajek .net/.clu and VOSviewer write-then-read equality on 50 random
    graphs and partitions, with byte-identical re-export."""
    rng = random.Random(90125)
    for trial in range(50):
        n = rng.randint(2, 12)
        edges = random_graph_edges(rng, n, 0.4) or [(0, 1, 1.0)]
        labels = {i: f"Journal {trial:02d}-{i:02d}" for i in range(n)}
        weighted = [
            (labels[u], labels[v], round(rng.uniform(1e-4, 5.0), 6)) for u, v, w in edges
        ]
        graph = build_graph(weighted)
        partition = {v: rng.randrange(3) for v in graph.nodes}

        net = tmp_path / f"g{trial}.net"
        write_pajek_net(graph, net)
        parsed, parsed_labels = read_pajek_net(net)
        assert parsed_labels == list(graph.nodes)
        original = {(u, v): w for u, v, w in graph.edges}
        back = {
            (parsed_labels[u], parsed_labels[v]): w for u, v, w in parsed.edges
        }
        assert set(original) == set(back)
        for key, w in original.items():
            # 6 significant digits bound the relative rounding by 5e-6
            assert back[key] == pytest.approx(w, rel=5e-6)
        net2 = tmp_path / f"g{trial}_again.net"
        reparsed = HotLinkGraph.from_ids(parsed.u, parsed.v, parsed.weights, parsed_labels)
        write_pajek_net(reparsed, net2)
        assert net2.read_bytes() == net.read_bytes()

        clu = tmp_path / f"g{trial}.clu"
        write_pajek_clu(partition, clu, nodes=graph.nodes)
        clusters = read_pajek_clu(clu)
        assert clusters == [partition[v] for v in graph.nodes]
        clu2 = tmp_path / f"g{trial}_again.clu"
        write_pajek_clu(dict(enumerate(clusters)), clu2, nodes=range(len(clusters)))
        assert clu2.read_bytes() == clu.read_bytes()

        vmap = tmp_path / f"g{trial}_map.txt"
        vnet = tmp_path / f"g{trial}_net.txt"
        write_vosviewer_files(graph, partition, vmap, vnet)
        vgraph, vclusters, vlabels = read_vosviewer_files(vmap, vnet)
        assert vlabels == list(graph.nodes)
        assert [vclusters[i] for i in range(len(vlabels))] == [
            partition[v] for v in graph.nodes
        ]
        vmap2 = tmp_path / f"g{trial}_map2.txt"
        vnet2 = tmp_path / f"g{trial}_net2.txt"
        write_vosviewer_files(
            HotLinkGraph.from_ids(vgraph.u, vgraph.v, vgraph.weights, vlabels),
            {vlabels[i]: c for i, c in vclusters.items()},
            vmap2,
            vnet2,
        )
        assert vmap2.read_bytes() == vmap.read_bytes()
        assert vnet2.read_bytes() == vnet.read_bytes()


def test_criterion_8_pipeline_determinism(tmp_path):
    """Two full pipeline runs on the same fixture and seed produce
    byte-identical artifact trees."""
    paths = {}
    for label, cells in dyad_fixture_cells().items():
        path = tmp_path / f"y{label}.tsv"
        write_edge_list(path, cells)
        paths[label] = path
    args = []
    for label in sorted(paths):
        args += ["--year", f"{label}={paths[label]}"]
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", *args, "--out", str(out), "--seed", "99"]) == 0
        trees.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    assert trees[0] == trees[1]


def test_criterion_9_scale_invariance_of_flags_and_entropy():
    """Multiplying every count of one fixture year by 7 changes no flag set
    and no entropy value beyond 1e-12 relative."""
    years = dyad_fixture_cells()
    matrices = [YearMatrix.from_cells(label, years[label]) for label in sorted(years)]
    registry, renamed = apply_name_changes(matrices, [])
    base = build_common_set(registry, renamed)

    scaled_years = {
        label: (
            {k: 7 * v for k, v in cells.items()} if label == "2012" else dict(cells)
        )
        for label, cells in years.items()
    }
    matrices7 = [YearMatrix.from_cells(label, scaled_years[label]) for label in sorted(scaled_years)]
    registry7, renamed7 = apply_name_changes(matrices7, [])
    scaled = build_common_set(registry7, renamed7)

    for pair in ((0, 1), (1, 2), (0, 2)):
        a = cell_divergence(base, pair)
        b = cell_divergence(scaled, pair)
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-18)
        assert a.grand_sum == pytest.approx(b.grand_sum, rel=1e-12, abs=1e-18)
    assert np.allclose(
        triangle_evaluation(base).values,
        triangle_evaluation(scaled).values,
        rtol=1e-12,
        atol=1e-18,
    )

    report_a = build_flag_report(base)
    report_b = build_flag_report(scaled)
    assert report_a.hot_links == report_b.hot_links
    for family in ("monotonic_up", "monotonic_down", "revision_flagged", "triangle_flagged_nodes"):
        assert families_of(getattr(report_a, family)) == families_of(getattr(report_b, family))
