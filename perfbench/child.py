"""Child process of the benchmark: the only code that imports citeheat.

  python3 perfbench/child.py cli --spans FILE -- <citeheat arguments>
      Runs ``citeheat.cli.main`` with every trace target wrapped and writes
      the spans to FILE. (Untraced CLI operations run ``python3 -m
      citeheat.cli`` directly, without this file.)

  python3 perfbench/child.py sweep --corpus DIR --seconds S --setups N
                                   --result FILE --partition DIR [--trace]
      Library use as the README shows it. Set-up ingests the corpus N
      times; the timed loop runs build_flag_report, build_graph and
      connected_components over a cycle of k values for S seconds; a closing
      untimed step runs Louvain on the k = 1 graph and writes it as Pajek
      files. With --trace, every other timed operation, the set-ups and the
      closing step are traced.

citeheat is imported from the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
from spans import Tracer  # noqa: E402

K_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
FINAL_K = 1.0
PAIRS = ((0, 1), (1, 2), (0, 2))


def run_cli(spans_path: str, argv: list[str]) -> int:
    import citeheat.cli

    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.main", "cli"):
        code = citeheat.cli.main(argv)
    tracer.dump(spans_path)
    return code


def _ingest(citeheat, corpus: Path):
    years = sorted(corpus.glob("year_*.tsv"))
    matrices = [citeheat.parse_edge_list(path, path.stem[len("year_"):]) for path in years]
    renames = citeheat.parse_rename_file(corpus / "renames.tsv")
    registry, renamed = citeheat.apply_name_changes(matrices, renames)
    return citeheat.build_common_set(registry, renamed)


def _flag_op(citeheat, tensor, k: float):
    report = citeheat.build_flag_report(tensor, k=k, unit="mbits")
    names = report.tensor.registry.names
    graph = citeheat.build_graph((names[c], names[d], s) for c, d, s in report.hot_links)
    components = citeheat.connected_components(graph)
    return report, graph, components


def run_sweep(args) -> int:
    import citeheat
    import citeheat.io_export

    tracer = Tracer()
    corpus = Path(args.corpus)

    def traced(kind: str, op: int):
        tracer.kind, tracer.op = kind, op
        return tracer.install()

    setup_s, setup_scale = [], []
    for i in range(args.setups):
        uninstall = traced("setup", i) if args.trace else None
        before = hostspeed.measure()
        start = time.perf_counter()
        tensor = _ingest(citeheat, corpus)
        setup_s.append(time.perf_counter() - start)
        setup_scale.append(hostspeed.task_scale(before, hostspeed.measure()))
        if uninstall:
            uninstall()

    _flag_op(citeheat, tensor, K_GRID[0])  # warm-up, untimed

    # The host-speed reference is measured around every cycle of k values;
    # each operation is scaled by the two measurements around its cycle.
    ops = []
    deadline = time.perf_counter() + args.seconds
    i = cycle_start = 0
    reference = hostspeed.measure()
    while True:
        k = K_GRID[i % len(K_GRID)]
        uninstall = traced("op", i) if args.trace and i % 2 else None
        start = time.perf_counter()
        report, graph, components = _flag_op(citeheat, tensor, k)
        seconds = time.perf_counter() - start
        if uninstall:
            uninstall()
        ops.append({
            "k": k,
            "seconds": seconds,
            "traced": uninstall is not None,
            "hot_links": len(report.hot_links),
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
            "components": len(components.components),
            "giant": len(components.components[0]) if components.components else 0,
            "kl_bits": [report.transitions[pair].grand_sum for pair in PAIRS],
        })
        i += 1
        if i % len(K_GRID) == 0 or time.perf_counter() >= deadline:
            now = hostspeed.measure()
            for op in ops[cycle_start:]:
                op["scale"] = hostspeed.task_scale(reference, now)
            reference, cycle_start = now, len(ops)
            if time.perf_counter() >= deadline:
                break

    uninstall = traced("final", 0) if args.trace else None
    _, graph, _ = _flag_op(citeheat, tensor, FINAL_K)
    partition = citeheat.louvain(graph, seed=0)
    out = Path(args.partition)
    out.mkdir(parents=True, exist_ok=True)
    citeheat.io_export.write_pajek_net(graph, out / "graph.net")
    citeheat.io_export.write_pajek_clu(partition.assignment, out / "communities.clu",
                                       nodes=graph.nodes)
    if uninstall:
        uninstall()

    result = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "cells": tensor.n_cells,
        "ops": ops,
        "final": {"k": FINAL_K, "q": partition.q},
        "spans": tracer.spans,
        "absent": tracer.absent,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--corpus", required=True)
    sweep.add_argument("--seconds", type=float, required=True)
    sweep.add_argument("--setups", type=int, required=True)
    sweep.add_argument("--result", required=True)
    sweep.add_argument("--partition", required=True)
    sweep.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(args.spans, argv)
    return run_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
