"""Smoke test of the benchmark's library path: the unchanged flag-sweep child
(``perfbench/child.py sweep``) on a tiny generated corpus.

It runs ``build_flag_report``, ``build_graph``, ``connected_components``,
``louvain`` and the Pajek writers as the README's library example does, so
a change to one of them that the flag-sweep workload would trip over fails
here first. Every operation is judged by the benchmark's own checker
(``perfbench/check.py``) against the generator's truth arrays, so a flag
rule or graph builder that miscounts hot links, nodes, edges, components
or the giant component fails here too.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

# Benchmark trace targets that the program does not define. The set may
# shrink; a target that goes missing would read 0 in its per-layer metric.
ABSENT_TARGETS = {
    "citeheat.cli.stage_flag_journals",
    "citeheat.cli.stage_flag_links",
    "citeheat.cli.stage_graph",
    "citeheat.cli.stage_export",
    "citeheat.cli.build_graph",
    "citeheat.corpus.AlignedTensor.from_year_cells",
    "citeheat.io_export.parse_edge_list",
    "citeheat.io_export.read_hot_links_csv",
    "citeheat.io_export.read_flag_table",
    "citeheat.io_export.read_monotonic_column",
    "citeheat.flags.flag_monotonic",
    "citeheat.flags.flag_revision",
    "citeheat.flags.flag_triangle_nodes",
    "citeheat.flags.triangle_margins",
}


def test_no_trace_target_goes_missing():
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        assert set(tracer.absent) <= ABSENT_TARGETS
    finally:
        uninstall()


def test_flag_sweep_child_runs_on_a_tiny_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "gen.py"), "--seed", "3", "--n", "80", "--m", "600",
         "--out", str(corpus)],
        check=True, capture_output=True,
    )
    result, partition = tmp_path / "result.json", tmp_path / "partition"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "sweep", "--corpus", str(corpus),
         "--seconds", "0.3", "--setups", "1", "--result", str(result),
         "--partition", str(partition)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr

    payload = json.loads(result.read_text(encoding="utf-8"))
    assert payload["ops"]
    cells = check.Cells.from_truth(gen.Truth.load(corpus))
    for op in payload["ops"]:
        assert op["edges"] <= op["hot_links"]
        assert len(op["kl_bits"]) == 3 and all(map(math.isfinite, op["kl_bits"]))
        assert check.check_sweep_op(op, check.SweepExpectation.build(cells, op["k"])) == []
    final = payload["final"]
    assert math.isfinite(final["q"])
    problems, q = check.check_partition(
        partition / "graph.net", partition / "communities.clu", final["q"],
        cells.hot_links(final["k"]).graph(),
    )
    assert problems == [] and q is not None
