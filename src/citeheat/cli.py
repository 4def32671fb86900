"""Command-line pipeline: ingest -> entropy -> flags -> graph -> export.

One executable with one subcommand per stage (ingest, flag, graph,
export) and run. Stages compose exclusively via files under the output
directory, and ``run`` simply executes them in sequence, so a full run and a
staged run produce byte-identical artifact trees. flag is the only writer
of reports/: it builds the flag report once and writes both its halves.
Options can come from a flat key=value config file; command-line flags win
over the file.

Artifact tree (all under --out):

    ingest/registry.tsv, years.txt, cells.npy, corpus_stats.json
    reports/transition_summary.csv, margins_*.csv, revision_*.csv,
            triangle_nodes_*.csv, journal_flags.json,
            hot_links.csv, link_flags.json
    network/graph.net, communities.clu, components.csv, communities.csv,
            degree_ranking.csv
    export/vosviewer_map.txt, vosviewer_network.txt
    export/vosviewer_unmatched.txt, overlay_*.txt      (with --basemap)
    summary.json

graph and export read reports/ only through the two JSON sidecars, whose
link scores are exact bits, so network/ and export/ do not depend on --unit.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io_export
from .corpus import (
    apply_name_changes,
    build_common_set,
    open_utf8,
    parse_edge_list,
    parse_rename_file,
)
from .entropy import DIRECTIONS, UNIT_SCALE
from .errors import CiteHeatError, ConfigError, DataError
from .flags import build_flag_report
from .netgraph import (
    CommunityPartition,
    build_graph,
    connected_components,
    degree_centrality,
    louvain,
    modularity,
)

_LABEL_RE = re.compile(r"^[A-Za-z0-9._-]+$")

OVERLAY_COLORS = {
    "cited_up": "red",
    "cited_down": "blue",
    "citing_up": "orange",
    "citing_down": "green",
    "cited": "red",
    "citing": "blue",
}


@dataclass
class RunConfig:
    years: tuple[tuple[str, str], ...] = ()
    renames: str | None = None
    k: float = 1.0
    unit: str = "mbits"
    excludes: tuple[str, ...] = ()
    drop_loops: bool = True
    seed: int = 0
    out: Path = field(default_factory=lambda: Path("citeheat_out"))
    basemap: str | None = None

    def validate(self, need_years: bool) -> None:
        if self.k < 0:
            raise ConfigError(f"--k must be >= 0, got {self.k}")
        if self.unit not in UNIT_SCALE:
            raise ConfigError(
                f"--unit must be one of {sorted(UNIT_SCALE)}, got {self.unit!r}"
            )
        if need_years:
            if len(self.years) != 3:
                raise ConfigError(
                    f"--year must be given exactly 3 times, got {len(self.years)}"
                )
            labels = [label for label, _ in self.years]
            if sorted(labels) != labels or len(set(labels)) != 3:
                raise ConfigError(f"--year labels must be strictly increasing: {labels}")
            for label in labels:
                if not _LABEL_RE.match(label):
                    raise ConfigError(
                        f"--year label {label!r} must match {_LABEL_RE.pattern}"
                    )


def _parse_year_spec(spec: str) -> tuple[str, str]:
    label, sep, path = spec.partition("=")
    if not sep or not label or not path:
        raise ConfigError(f"--year expects <label>=<path>, got {spec!r}")
    return label, path


def load_config_file(path: str | Path) -> dict:
    """Flat key = value file; `year` and `exclude` may repeat."""
    values: dict = {"year": [], "exclude": []}
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = key.strip(), value.strip()
            if key in ("year", "exclude"):
                values[key].append(value)
            elif key in ("renames", "k", "unit", "seed", "out", "basemap"):
                values[key] = value
            elif key == "keep_loops":
                if value not in ("true", "false"):
                    raise ConfigError(f"{path}:{lineno}: keep_loops must be true or false")
                values[key] = value == "true"
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if args.config:
        file_values = load_config_file(args.config)

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_values and file_values[key] not in ([], None):
            return file_values[key]
        return default

    year_specs = pick(args.year or None, "year", [])
    out = args.out or file_values.get("out") or os.environ.get("CITEHEAT_OUT") or "citeheat_out"
    try:
        k = float(pick(args.k, "k", 1.0))
        seed = int(pick(args.seed, "seed", 0))
    except ValueError as exc:
        raise ConfigError(f"invalid numeric option: {exc}") from None
    keep_loops = bool(args.keep_loops or file_values.get("keep_loops", False))
    return RunConfig(
        years=tuple(_parse_year_spec(s) for s in year_specs),
        renames=pick(args.renames, "renames", None),
        k=k,
        unit=pick(args.unit, "unit", "mbits"),
        excludes=tuple(pick(args.exclude or None, "exclude", [])),
        drop_loops=not keep_loops,
        seed=seed,
        out=Path(out),
        basemap=pick(args.basemap, "basemap", None),
    )


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_ingest(config: RunConfig) -> None:
    config.validate(need_years=True)
    matrices = [parse_edge_list(path, label) for label, path in config.years]
    renames = parse_rename_file(config.renames) if config.renames else []
    registry, renamed = apply_name_changes(matrices, renames)
    tensor = build_common_set(registry, renamed)

    io_export.write_tensor_cache(tensor, config.out / "ingest")
    stats = {
        "years": [
            {
                "label": matrix.year_label,
                "journals": int(np.union1d(matrix.citing, matrix.cited).size),
                "links": int(matrix.counts.size),
            }
            for matrix in renamed
        ],
        "combined_journals": len(registry),
        "rename_records": len(renames),
        "common_journals": tensor.n_nodes,
        "valid_transition_cells": {
            tensor.pair_label(pair): int(tensor.pair_valid(pair).sum())
            for pair in ((0, 1), (1, 2), (0, 2))
        },
        "all_years_cells": int(tensor.tri_valid.sum()),
    }
    io_export.write_json(config.out / "ingest" / "corpus_stats.json", stats)
    _print_corpus_stats(stats)


def _print_corpus_stats(stats: dict) -> None:
    print("year        journals        links")
    for row in stats["years"]:
        print(f"{row['label']:<12}{row['journals']:<16}{row['links']}")
    print(f"combined    {stats['combined_journals']:<16}(after {stats['rename_records']} rename records)")
    print(f"common set: {stats['common_journals']} journals actively citing in all three years")
    cells = stats["valid_transition_cells"]
    joined = " | ".join(f"{label}: {n}" for label, n in cells.items())
    print(f"valid transition cells (prior year > 0): {joined}")
    print(f"cells positive in all three years: {stats['all_years_cells']}")


def stage_flag(config: RunConfig) -> None:
    config.validate(need_years=False)
    tensor = io_export.read_tensor_cache(config.out / "ingest")
    report = build_flag_report(
        tensor,
        k=config.k,
        unit=config.unit,
        drop_loops=config.drop_loops,
        outliers=config.excludes,
    )
    io_export.write_flag_journal_reports(config.out / "reports", report)
    io_export.write_link_flag_reports(config.out / "reports", report)


def _load_graph(link_flags: dict):
    # The network is simple: hot self-citations (--keep-loops) stay in reports/.
    graph = build_graph([link for link in link_flags["links"] if link[0] != link[1]])
    return graph, connected_components(graph)


def stage_graph(config: RunConfig) -> None:
    config.validate(need_years=False)
    link_flags = io_export.read_sidecar(config.out / "reports" / "link_flags.json")
    graph, components = _load_graph(link_flags)
    if graph.nodes:
        communities = louvain(graph, seed=config.seed)
    else:
        communities = CommunityPartition(assignment={}, q=0.0, seed=config.seed)
    outdir = config.out / "network"
    outdir.mkdir(parents=True, exist_ok=True)
    io_export.write_pajek_net(graph, outdir / "graph.net")
    io_export.write_pajek_clu(communities.assignment, outdir / "communities.clu", nodes=graph.nodes)
    io_export.write_network_reports(
        outdir, graph, components, communities, degree_centrality(graph)
    )


def _overlay_sets(flagged: dict) -> dict[str, dict[str, list[str]]]:
    """Overlay categories per family, from journal_flags.json "flagged"."""
    return {
        "monotonic": {
            f"{d}_{trend}": flagged[f"monotonic_{trend}"][d]
            for d in DIRECTIONS
            for trend in ("up", "down")
        },
        "revision": {d: flagged["revision_flagged"][d] for d in DIRECTIONS},
        "triangle": {d: flagged["triangle_flagged_nodes"][d] for d in DIRECTIONS},
    }


def stage_export(config: RunConfig) -> None:
    config.validate(need_years=False)
    reports = config.out / "reports"
    journal_flags = io_export.read_sidecar(reports / "journal_flags.json")
    link_flags = io_export.read_sidecar(reports / "link_flags.json")
    graph, components = _load_graph(link_flags)
    clu = config.out / "network" / "communities.clu"
    clusters = io_export.read_pajek_clu(clu)
    if len(clusters) != len(graph.nodes):
        raise DataError(f"{clu}: {len(clusters)} vertices, the hot links {len(graph.nodes)}")
    communities = dict(zip(graph.nodes, clusters))
    # export/ has no other writer, so replace it whole: files of an earlier
    # run (say, overlays from a run with --basemap) must not survive.
    outdir = config.out / "export"
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)

    basemap = io_export.read_basemap(config.basemap) if config.basemap else None
    unmatched = io_export.write_vosviewer_files(
        graph,
        communities,
        outdir / "vosviewer_map.txt",
        outdir / "vosviewer_network.txt",
        basemap=basemap,
        unmatched_path=outdir / "vosviewer_unmatched.txt",
    )

    if basemap is not None:
        for family, sets in _overlay_sets(journal_flags["flagged"]).items():
            io_export.write_overlay(sets, basemap, OVERLAY_COLORS, outdir / f"overlay_{family}.txt")

    with open_utf8(config.out / "ingest" / "corpus_stats.json") as handle:
        corpus_stats = json.load(handle)
    summary = {
        "format_version": io_export.FORMAT_VERSION,
        # The analysis options are those the flag stage recorded, not this
        # invocation's: a staged export with other options describes reports/.
        "config": {
            **{key: link_flags[key] for key in ("k", "unit", "drop_loops", "outliers_removed")},
            "seed": config.seed,
            "basemap": config.basemap,
            "year_labels": [row["label"] for row in corpus_stats["years"]],
        },
        "corpus": corpus_stats,
        "journal_flags": {key: journal_flags[key] for key in
                          ("thresholds", "counts", "revision_excluded_cells", "journals")},
        "links": {key: link_flags[key] for key in
                  ("threshold", "evaluated_cells", "hot_links", "loops_flagged")},
        "network": {
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
            "components": len(components.components),
            "giant_size": len(components.components[0]) if components.components else 0,
            "communities": len(set(communities.values())),
            "modularity": modularity(graph, communities),
            "unmatched_basemap_nodes": len(unmatched) if basemap is not None else None,
        },
    }
    io_export.write_json(config.out / "summary.json", summary)


def run_pipeline(config: RunConfig) -> None:
    """Full pipeline; composes the stages through their file artifacts so a
    staged run and a full run are byte-identical."""
    stage_ingest(config)
    stage_flag(config)
    stage_graph(config)
    stage_export(config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for configuration errors
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="citeheat", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--year", action="append", metavar="LABEL=PATH",
                        help="year edge list, exactly 3 times (for run/ingest)")
    common.add_argument("--renames", metavar="PATH", help="old/new name table")
    common.add_argument("--k", type=float, default=None, metavar="FLOAT",
                        help="SD multiplier for all thresholds (default 1.0)")
    common.add_argument("--unit", choices=sorted(UNIT_SCALE), default=None,
                        help="reporting unit (default mbits)")
    common.add_argument("--exclude", action="append", metavar="NAME",
                        help="journal to remove as an outlier (repeatable)")
    common.add_argument("--keep-loops", action="store_true", default=False,
                        help="keep self-citation cells among the hot links")
    common.add_argument("--seed", type=int, default=None, metavar="INT",
                        help="community-detection seed (default 0)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default $CITEHEAT_OUT or citeheat_out)")
    common.add_argument("--basemap", metavar="PATH", help="map file for overlays")
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "full pipeline: ingest, flags, graph, export"),
        ("ingest", "parse and align the three years into the cache"),
        ("flag", "journal flags and hot links, from one flag report"),
        ("graph", "hot-link graph, components, communities, degrees"),
        ("export", "VOSviewer files, overlays and the JSON summary"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


_STAGES = {
    "run": run_pipeline,
    "ingest": stage_ingest,
    "flag": stage_flag,
    "graph": stage_graph,
    "export": stage_export,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = build_run_config(args)
        _STAGES[args.command](config)
        return 0
    except ConfigError as exc:
        print(f"citeheat: configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, UnicodeDecodeError) as exc:
        print(f"citeheat: data error: {exc}", file=sys.stderr)
        return 2
    except CiteHeatError as exc:
        print(f"citeheat: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"citeheat: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
