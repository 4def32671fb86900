"""Smoke test of the benchmark's library path: the unchanged flag-sweep child
(``perfbench/child.py sweep``) on a tiny generated corpus.

It runs ``build_flag_report``, ``build_graph``, ``connected_components``,
``louvain`` and the Pajek writers as the README's library example does, so
a change to one of them that the flag-sweep workload would trip over fails
here first. Every operation is judged by the benchmark's own checker
(``perfbench/check.py``) against the generator's truth arrays, so a flag
rule or graph builder that miscounts hot links, nodes, edges, components
or the giant component fails here too. The benchmark's trace targets are
checked here as well: none goes missing beyond the known absent ones, and
a CLI run calls every present target in ``cli``, ``io_export`` and
``flags``, so no per-layer metric reads 0 for want of a caller.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from citeheat import cli

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


def test_every_present_run_target_records_a_span(tmp_path):
    """A target that is present but never called reads 0, as an absent one
    does. A CLI run with renames, a base map and one exclude (the window-run
    workload's options) calls every present target of the modules it runs."""
    corpus = gen.generate(3, 80, 600, tmp_path / "corpus")
    # Each target under its own name, since several share one metric.
    targets = [(module, attribute, f"{module}.{attribute}", layer)
               for module, attribute, _, layer in spans.TARGETS
               if module in ("citeheat.cli", "citeheat.io_export", "citeheat.flags")]
    tracer = spans.Tracer()
    uninstall = tracer.install(targets)
    try:
        years = [arg for label, path in corpus.years for arg in ("--year", f"{label}={path}")]
        assert cli.main(["run", *years, "--renames", str(corpus.renames),
                         "--basemap", str(corpus.basemap), "--exclude", corpus.truth.exclude,
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        uninstall()
    present = {metric for _, _, metric, _ in targets} - set(tracer.absent)
    assert len(present) > 20
    assert present - {span["metric"] for span in tracer.spans} == set()


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
