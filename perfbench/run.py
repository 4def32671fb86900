"""Seeded end-to-end benchmark of citeheat.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/citeheat``. The benchmark
generates a seeded corpus, prepares the program untimed, then runs one
operation at a time in a closed loop for S seconds and checks every
operation's outputs against an independent oracle. It prints a table, then
as its last line one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.

Workloads (see perfbench/README.md for why each exists):

  window-run   citeheat run, with renames, a base map and one exclude
  hot-network  citeheat run at a low k, so the hot-link graph is large
  flag-sweep   library calls over a cycle of k values on one ingested tensor

CLI operations are fresh child processes timed from spawn to exit; the peak
RSS is the child's ``ru_maxrss`` from ``os.wait4``. This process never imports
citeheat. All files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 120.0
# The run stops starting operations once this much wall time has passed, so
# it always ends within three minutes.
RUN_BUDGET_S = 140.0
SETUPS = 3


@dataclass(frozen=True)
class Workload:
    mode: str            # "cli" or "sweep"
    n: int               # journals
    m: int               # distinct (citing, cited) pairs
    k: float = 1.0
    exclude: bool = False


WORKLOADS = {
    "window-run": Workload("cli", n=700, m=16000, k=1.0, exclude=True),
    "hot-network": Workload("cli", n=450, m=7000, k=0.25),
    "flag-sweep": Workload("sweep", n=700, m=16000),
}

END_TO_END = (
    ("op_p50_s", "s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("modularity_q", "Q"),
)

# Per-layer metrics in the JSON line: the times every workload exercises,
# and counts. Times of functions that a workload never calls are printed in
# the table only, since they would read exactly 0 on every run.
PER_LAYER = (
    ("corpus.parse_edge_list_s", "s"),
    ("corpus.parse_edge_list_calls", "count"),
    ("corpus.apply_name_changes_s", "s"),
    ("corpus.build_common_set_s", "s"),
    ("corpus.from_year_cells_s", "s"),
    ("corpus.from_year_cells_calls", "count"),
    ("corpus.self_s", "s"),
    ("io_export.read_tensor_cache_calls", "count"),
    ("io_export.write_network_s", "s"),
    ("io_export.bytes_written", "bytes"),
    ("io_export.self_s", "s"),
    ("flags.build_flag_report_s", "s"),
    ("flags.build_flag_report_calls", "count"),
    ("flags.remove_outliers_calls", "count"),
    ("flags.compute_threshold_s", "s"),
    ("flags.flag_links_s", "s"),
    ("flags.self_s", "s"),
    ("entropy.cell_divergence_s", "s"),
    ("entropy.revision_of_prediction_s", "s"),
    ("entropy.triangle_evaluation_s", "s"),
    ("entropy.margins_s", "s"),
    ("entropy.self_s", "s"),
    ("netgraph.build_graph_s", "s"),
    ("netgraph.connected_components_s", "s"),
    ("netgraph.louvain_s", "s"),
    ("netgraph.louvain_calls", "count"),
    ("netgraph.graph_nodes", "count"),
    ("netgraph.graph_edges", "count"),
    ("netgraph.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.absent_targets", "count"),
)

# Printed in the traced table besides PER_LAYER.
TABLE_ONLY = (
    "cli.ingest_s", "cli.flag_journals_s", "cli.flag_links_s", "cli.graph_s",
    "cli.export_s", "cli.self_s", "cli.process_s",
    "io_export.write_tensor_cache_s", "io_export.read_tensor_cache_s",
    "io_export.write_reports_s", "io_export.read_hot_links_csv_s",
    "io_export.write_vosviewer_s", "flags.remove_outliers_s",
)


@dataclass
class Op:
    seconds: float       # wall time
    rss_mb: float
    problems: list
    scale: float = 1.0   # wall seconds -> reference seconds (hostspeed.py)
    q: float | None = None
    digest: str | None = None
    traced: bool = False
    timed: bool = True
    extra: dict | None = None

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def spawn(argv: list[str], log: Path, env: dict) -> tuple[float, float, int]:
    """Run one child to completion: wall seconds from spawn to exit, peak RSS
    in MB and exit code. A child that outlives the timeout is killed."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=WORK)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def reference_child(env: dict) -> float:
    """Spawn-to-exit seconds of the host-speed reference child."""
    log = WORK / "reference.log"
    seconds, _, code = spawn([sys.executable, str(HERE / "hostspeed.py")], log, env)
    if code != 0:
        raise RuntimeError(f"host-speed reference failed: {_tail(log)}")
    return seconds


def _tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def _tree_bytes(out: Path) -> int:
    return sum(path.stat().st_size for path in out.rglob("*") if path.is_file())


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def run_cli_workload(wl: Workload, corpus: gen.Corpus, seconds: float, trace: bool,
                     env: dict, started: float) -> tuple[list[Op], list[Op], list[str]]:
    truth = corpus.truth
    exclude = truth.exclude if wl.exclude else None
    expectation = check.RunExpectation.build(truth, wl.k, exclude)
    out = WORK / "out"
    args = ["run"]
    for label, path in corpus.years:
        args += ["--year", f"{label}={path}"]
    args += ["--renames", str(corpus.renames), "--basemap", str(corpus.basemap),
             "--k", str(wl.k), "--out", str(out)]
    if exclude is not None:
        args += ["--exclude", exclude]
    plain = [sys.executable, "-m", "citeheat.cli", *args]
    absent: list[str] = []
    # Reference children alternate with the operations; each operation is
    # scaled by the two around it.
    last_reference = [reference_child(env)]

    def one(traced: bool) -> Op:
        shutil.rmtree(out, ignore_errors=True)
        span_file = WORK / "spans.json"
        argv = ([sys.executable, str(HERE / "child.py"), "cli", "--spans", str(span_file),
                 "--", *args] if traced else plain)
        log = WORK / "child.log"
        wall, rss, code = spawn(argv, log, env)
        after = reference_child(env)
        scale = hostspeed.child_scale(last_reference[0], after)
        last_reference[0] = after
        if code != 0:
            return Op(wall, rss, [f"exit code {code}: {_tail(log)}"], scale, traced=traced)
        problems, q = check.check_run(out, expectation)
        op = Op(wall, rss, problems, scale, q=q, digest=check.tree_digest(out), traced=traced)
        if traced:
            recorded, missing = spans.load(span_file)
            absent[:] = missing
            groups = spans.group_by_op(recorded)
            totals = spans.op_totals(groups[("op", 0)]) if groups else {}
            main_s = totals.get("cli.main_s", 0.0)
            totals["cli.process_s"] = wall - main_s
            totals["io_export.bytes_written"] = _tree_bytes(out)
            op.extra = totals
        return op

    setups = [one(False) for _ in range(SETUPS if not trace else 1)]
    ops = []
    loop_start = time.perf_counter()
    while True:
        ops.append(one(trace and len(ops) % 2 == 1))
        now = time.perf_counter()
        if now - loop_start >= seconds or now - started >= RUN_BUDGET_S:
            break
    if trace and len(ops) < 2:
        ops.append(one(True))
    return setups, ops, absent


# ---------------------------------------------------------------------------
# Library workload
# ---------------------------------------------------------------------------

def run_sweep_workload(wl: Workload, corpus: gen.Corpus, seconds: float, trace: bool,
                       env: dict) -> tuple[list[Op], list[Op], list[str], dict]:
    result_path = WORK / "sweep.json"
    partition = WORK / "partition"
    argv = [sys.executable, str(HERE / "child.py"), "sweep", "--corpus", str(corpus.directory),
            "--seconds", str(seconds), "--setups", str(SETUPS if not trace else 1),
            "--result", str(result_path), "--partition", str(partition)]
    if trace:
        argv.append("--trace")
    log = WORK / "child.log"
    wall, rss, code = spawn(argv, log, env)
    if code != 0:
        failed = Op(wall, rss, [f"exit code {code}: {_tail(log)}"])
        return [], [failed], [], {}
    result = json.loads(result_path.read_text(encoding="utf-8"))

    cells = check.Cells.from_truth(corpus.truth)
    expected = {}
    setups = [Op(seconds, rss, [], scale)
              for seconds, scale in zip(result["setup_s"], result["setup_scale"])]
    ops = []
    for record in result["ops"]:
        k = record["k"]
        if k not in expected:
            expected[k] = check.SweepExpectation.build(cells, k)
        ops.append(Op(record["seconds"], rss, check.check_sweep_op(record, expected[k]),
                      record["scale"], traced=record["traced"]))
    final = result["final"]
    graph = cells.hot_links(final["k"]).graph()
    problems, q = check.check_partition(
        partition / "graph.net", partition / "communities.clu", final["q"], graph)
    if result["cells"] != corpus.truth.citing.size:
        problems.append(f"tensor has {result['cells']} cells, expected {corpus.truth.citing.size}")
    closing = Op(0.0, rss, problems, q=q, digest=check.tree_digest(partition, ("",)),
                 timed=False)
    for op in ops:
        op.q, op.digest = q, closing.digest
    return setups, ops + [closing], result["absent"], result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least 10 samples above it, and its
    value; None with fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    rank = n - 10          # 1-based rank of the value with 10 samples above
    return 100.0 * rank / n, ordered[rank - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "citeheat" / "cli.py").is_file():
        print(f"perfbench: no citeheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(WORK / "tmp"))
    # Children keep bytecode caches, as an installed program has them; the
    # warm-up operations write them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    corpus = gen.generate(args.seed, wl.n, wl.m, WORK / "corpus")
    n_cells = int(corpus.truth.citing.size)
    if wl.mode == "cli":
        setups, ops, absent = run_cli_workload(wl, corpus, args.seconds, trace, env, started)
        sweep = None
    else:
        setups, ops, absent, sweep = run_sweep_workload(wl, corpus, args.seconds, trace, env)

    timed = [op for op in ops if op.timed]
    everything = setups + ops
    reference = next((op.digest for op in everything if op.digest), None)
    failed = 0
    for op in everything:
        if op.digest is not None and op.digest != reference:
            op.problems.append("outputs differ from the first operation's")
        if op.problems:
            failed += 1
            print(f"FAILED: {'; '.join(op.problems[:3])}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  n={wl.n} m={wl.m}: "
          f"{n_cells} aligned cells, {len(corpus.truth.names)} common journals")
    print(f"outputs sha256 {reference}")
    if not trace:
        plain = [op.ref_seconds for op in timed]
        p50 = statistics.median(plain)
        qs = [op.q for op in ops if op.q is not None]
        metrics = {
            "op_p50_s": p50,
            "cells_per_s": n_cells / p50,
            "peak_rss_mb": max(op.rss_mb for op in everything),
            "setup_s": statistics.median(op.ref_seconds for op in setups) if setups else 0.0,
            "modularity_q": statistics.median(qs) if qs else 0.0,
        }
        print(f"  {'op_p50_s':<14}{p50:12.4f} s       median of {len(plain)} operations, "
              f"in reference seconds (wall median {statistics.median(op.seconds for op in timed):.4f} s, "
              f"host-speed scale median {statistics.median(op.scale for op in timed):.3f})")
        tail = tail_percentile(plain)
        if tail is None:
            print(f"  {'op_tail_s':<14}{'-':>12}         fewer than 20 operations")
        else:
            print(f"  {'op_tail_s':<14}{tail[1]:12.4f} s       p{tail[0]:.1f} of {len(plain)} operations")
        print(f"  {'cells_per_s':<14}{metrics['cells_per_s']:12.1f} cells/s at {n_cells} cells")
        print(f"  {'peak_rss_mb':<14}{metrics['peak_rss_mb']:12.1f} MB")
        print(f"  {'setup_s':<14}{metrics['setup_s']:12.4f} s       median of {len(setups)} set-ups")
        print(f"  {'modularity_q':<14}{metrics['modularity_q']:12.6f}         recomputed from graph.net")
        print(f"  {'error_rate':<14}{failed / len(everything):12.4f} ratio   "
              f"{failed} of {len(everything)} operations failed")
        units = dict(END_TO_END)
    else:
        per_kind: dict[str, list[dict]] = {}
        if sweep is None:
            per_kind["op"] = [op.extra for op in ops if op.traced and op.extra]
        else:
            groups = spans.group_by_op(sweep["spans"])
            for (kind, _), group in sorted(groups.items()):
                per_kind.setdefault(kind, []).append(spans.op_totals(group))
            for totals in per_kind.get("final", []):
                totals["io_export.bytes_written"] = _tree_bytes(WORK / "partition")
        names = [name for name, _ in PER_LAYER] + list(TABLE_ONLY)
        values = spans.summarize(per_kind, names)
        traced_s = [op.ref_seconds for op in timed if op.traced]
        plain_s = [op.ref_seconds for op in timed if not op.traced]
        if traced_s and plain_s:
            values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
        values["trace.absent_targets"] = len(absent)
        print(f"  traced {len(traced_s)} and untraced {len(plain_s)} operations")
        for name in names:
            print(f"  {name:<36}{values[name]:14.6f}")
        for label in absent:
            print(f"  absent trace target: {label}")
        metrics = {name: values[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
