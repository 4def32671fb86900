"""Spans around citeheat's public functions, recorded from outside the program.

``install`` replaces each target at the name its callers look up (a module
attribute, a class attribute or an entry of the CLI's stage table) with a
wrapper that records a span: metric name, layer, start, end, parent span and
operation id. Spans stay in memory until the process hands them over with
``Tracer.dump``. A target missing from the program is reported as absent and
never fails the run.

Importing this module does not import citeheat; ``summarize`` runs in the
benchmark's main process, which never imports the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (module the caller looks the name up in, attribute, metric, layer).
# A metric is the function's own name; the layer is where its time counts in
# self-time accounting. ``io_export.parse_edge_list`` is the cache reader's
# re-parse, so its time counts for io_export although the function is
# corpus's. ``_STAGES[run]`` is the entry ``main`` dispatches through.
TARGETS = (
    ("citeheat.cli", "_STAGES[run]", "cli.run", "cli"),
    ("citeheat.cli", "stage_ingest", "cli.ingest", "cli"),
    ("citeheat.cli", "stage_flag_journals", "cli.flag_journals", "cli"),
    ("citeheat.cli", "stage_flag_links", "cli.flag_links", "cli"),
    ("citeheat.cli", "stage_graph", "cli.graph", "cli"),
    ("citeheat.cli", "stage_export", "cli.export", "cli"),
    ("citeheat.cli", "parse_edge_list", "corpus.parse_edge_list", "corpus"),
    ("citeheat.cli", "parse_rename_file", "corpus.parse_rename_file", "corpus"),
    ("citeheat.cli", "apply_name_changes", "corpus.apply_name_changes", "corpus"),
    ("citeheat.cli", "build_common_set", "corpus.build_common_set", "corpus"),
    ("citeheat.cli", "build_flag_report", "flags.build_flag_report", "flags"),
    ("citeheat.cli", "build_graph", "netgraph.build_graph", "netgraph"),
    ("citeheat.cli", "connected_components", "netgraph.connected_components", "netgraph"),
    ("citeheat.cli", "louvain", "netgraph.louvain", "netgraph"),
    ("citeheat.cli", "degree_centrality", "netgraph.degree_centrality", "netgraph"),
    ("citeheat", "parse_edge_list", "corpus.parse_edge_list", "corpus"),
    ("citeheat", "parse_rename_file", "corpus.parse_rename_file", "corpus"),
    ("citeheat", "apply_name_changes", "corpus.apply_name_changes", "corpus"),
    ("citeheat", "build_common_set", "corpus.build_common_set", "corpus"),
    ("citeheat", "build_flag_report", "flags.build_flag_report", "flags"),
    ("citeheat", "build_graph", "netgraph.build_graph", "netgraph"),
    ("citeheat", "connected_components", "netgraph.connected_components", "netgraph"),
    ("citeheat", "louvain", "netgraph.louvain", "netgraph"),
    ("citeheat.corpus", "AlignedTensor.from_year_cells", "corpus.from_year_cells", "corpus"),
    ("citeheat.io_export", "parse_edge_list", "corpus.parse_edge_list", "io_export"),
    ("citeheat.io_export", "write_tensor_cache", "io_export.write_tensor_cache", "io_export"),
    ("citeheat.io_export", "read_tensor_cache", "io_export.read_tensor_cache", "io_export"),
    ("citeheat.io_export", "write_flag_journal_reports", "io_export.write_reports", "io_export"),
    ("citeheat.io_export", "write_link_flag_reports", "io_export.write_reports", "io_export"),
    ("citeheat.io_export", "read_hot_links_csv", "io_export.read_hot_links_csv", "io_export"),
    ("citeheat.io_export", "write_pajek_net", "io_export.write_network", "io_export"),
    ("citeheat.io_export", "write_pajek_clu", "io_export.write_network", "io_export"),
    ("citeheat.io_export", "write_network_reports", "io_export.write_network", "io_export"),
    ("citeheat.io_export", "write_vosviewer_files", "io_export.write_vosviewer", "io_export"),
    ("citeheat.io_export", "write_overlay", "io_export.write_vosviewer", "io_export"),
    ("citeheat.io_export", "read_basemap", "io_export.read_basemap", "io_export"),
    ("citeheat.io_export", "read_flag_table", "io_export.read_reports", "io_export"),
    ("citeheat.io_export", "read_monotonic_column", "io_export.read_reports", "io_export"),
    ("citeheat.flags", "remove_outliers", "flags.remove_outliers", "flags"),
    ("citeheat.flags", "compute_threshold", "flags.compute_threshold", "flags"),
    ("citeheat.flags", "flag_links", "flags.flag_links", "flags"),
    ("citeheat.flags", "flag_monotonic", "flags.flag_journals", "flags"),
    ("citeheat.flags", "flag_revision", "flags.flag_journals", "flags"),
    ("citeheat.flags", "flag_triangle_nodes", "flags.flag_journals", "flags"),
    ("citeheat.flags", "cell_divergence", "entropy.cell_divergence", "entropy"),
    ("citeheat.flags", "margin_totals", "entropy.margins", "entropy"),
    ("citeheat.flags", "triangle_margins", "entropy.margins", "entropy"),
    ("citeheat.flags", "revision_of_prediction", "entropy.revision_of_prediction", "entropy"),
    ("citeheat.flags", "triangle_evaluation", "entropy.triangle_evaluation", "entropy"),
)

def _graph_size(graph) -> dict:
    return {"netgraph.graph_nodes": len(graph.nodes), "netgraph.graph_edges": len(graph.edges)}


# Counts read off a function's result at the span boundary.
MEASURES = {"netgraph.build_graph": _graph_size}


class Tracer:
    """Records spans; ``op`` and ``kind`` tag every span opened meanwhile."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0
        self.kind = "op"
        self.absent: list[str] = []

    @contextmanager
    def span(self, metric: str, layer: str):
        record = {
            "metric": metric, "layer": layer, "op": self.op, "kind": self.kind,
            "parent": self._stack[-1] if self._stack else -1,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, metric: str, layer: str):
        measure = MEASURES.get(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(metric, layer) as record:
                result = fn(*args, **kwargs)
                if measure is not None:
                    record["attrs"] = measure(result)
                return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target that exists; returns a function undoing it."""
        undo = []
        for module_name, attribute, metric, layer in targets:
            try:
                undo.append(self._patch(module_name, attribute, metric, layer))
            except (ImportError, AttributeError, KeyError):
                label = f"{module_name}.{attribute}"
                if label not in self.absent:
                    self.absent.append(label)

        def uninstall():
            for restore in reversed(undo):
                restore()

        return uninstall

    def _patch(self, module_name, attribute, metric, layer):
        owner = importlib.import_module(module_name)
        if attribute.endswith("]"):
            table_name, key = attribute[:-1].split("[")
            table = getattr(owner, table_name)
            original = table[key]
            table[key] = self.wrap(original, metric, layer)
            return lambda: table.__setitem__(key, original)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            original = owner.__dict__[name]
            if isinstance(original, classmethod):
                setattr(owner, name, classmethod(self.wrap(original.__func__, metric, layer)))
            else:
                setattr(owner, name, self.wrap(original, metric, layer))
        else:
            original = getattr(owner, name)
            setattr(owner, name, self.wrap(original, metric, layer))
        return lambda: setattr(owner, name, original)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "absent": self.absent}), encoding="utf-8"
        )


def load(path: str | Path) -> tuple[list[dict], list[str]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return payload["spans"], payload["absent"]


def op_totals(spans: list[dict]) -> dict[str, float]:
    """Per-metric inclusive seconds and calls, per-layer self seconds and the
    counts measured at span boundaries, over the spans of one operation.

    A span's self time is its duration minus the time its child spans cover;
    children run inside their parent on the same thread and never overlap.
    """
    local = {span["_pos"]: i for i, span in enumerate(spans)}
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = local.get(span["parent"])
        if parent is not None:
            child_time[parent] += span["end"] - span["start"]
    totals: dict[str, float] = {"trace.spans": len(spans)}
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        metric, layer = span["metric"], span["layer"]
        totals[f"{metric}_s"] = totals.get(f"{metric}_s", 0.0) + duration
        totals[f"{metric}_calls"] = totals.get(f"{metric}_calls", 0) + 1
        totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + duration - child_time[i]
        for key, value in span.get("attrs", {}).items():
            totals[key] = max(totals.get(key, 0), value)
    return totals


def group_by_op(spans: list[dict]) -> dict[tuple[str, int], list[dict]]:
    """Spans of each (kind, op); each keeps its position in the full list so
    that parent links still resolve."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for position, span in enumerate(spans):
        groups.setdefault((span["kind"], span["op"]), []).append(dict(span, _pos=position))
    return groups


def summarize(per_kind: dict[str, list[dict]], names) -> dict[str, float]:
    """Median over timed operations of each per-operation total.

    A metric that no timed operation touches is taken over the set-up
    operations instead, and failing that over the closing step, so a layer a
    workload uses only outside its timed loop still shows where it ran.
    """
    out = {}
    for name in names:
        out[name] = 0
        for kind in ("op", "setup", "final"):
            values = [totals.get(name, 0) for totals in per_kind.get(kind, [])]
            if any(values):
                out[name] = statistics.median(values)
                break
    return out
