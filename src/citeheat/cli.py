"""Command-line pipeline: ingest -> entropy -> flags -> network.

One executable with one subcommand per stage (ingest, flag, network) and
run. Stages compose exclusively via files under the output directory, and
``run`` simply executes them in sequence, so a full run and a staged run
produce byte-identical artifact trees. flag is the only writer of
reports/: it builds the flag report once and writes both its halves.
network reads and checks its inputs, calls ``network_of`` once on the
hot-link arrays (graph, components, communities, degrees) and writes
network/, export/ and summary.json from that ``Network``, so the summary's
seed is the seed of the partition. ``network_of`` serves library callers
too; it lives here because it calls the graph functions by this module's
names, which the tests and the benchmark's tracer replace to count and
time them. Options can come from a flat key=value config file, read by the
same parser as the flags; a flag wins over the file key by key.

Artifact tree (all under --out):

    ingest/registry.json, cells.npy, corpus_stats.json
    reports/transition_summary.csv, margins_*.csv, revision_*.csv,
            triangle_nodes_*.csv, journal_flags.json,
            hot_links.csv, link_flags.json,
            hot_link_ids.npy, hot_link_scores.npy
    network/graph.net, communities.clu, components.csv, communities.csv,
            degree_ranking.csv
    export/vosviewer_map.txt, vosviewer_network.txt
    export/vosviewer_unmatched.txt, overlay_*.txt      (with --basemap)
    summary.json

network reads reports/ only through the two JSON sidecars and the hot-link
arrays, whose ids index ingest/registry.json's journals and whose scores
are exact bits, so network/ and export/ do not depend on --unit. flag and
network each read registry.json through io_export.read_registry.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 I/O error.

``main`` is the in-process entry, for tests and library callers; it never
touches the garbage collector. ``console_main``, the entry of the
``citeheat`` executable and of ``python -m citeheat.cli``, runs ``main`` and
calls ``gc.freeze()`` before it exits, so the interpreter's final collection
skips every object still alive (mostly numpy's and the standard library's
module objects) and the OS reclaims them with the process. That saves
20-30 ms per process, about a tenth of a ``run`` on one window's ~16k cells
(README, "Command line").

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads,
unless the variable is already set or numpy is already imported. OpenBLAS
otherwise starts a worker thread per extra CPU while numpy imports, and on
2 CPUs that worker can slow the rest of the import by about 70 ms, a sixth
of a window-sized ``run`` (README, "Command line"). citeheat makes no BLAS call (no matrix product, no
``linalg``), so its results do not depend on the thread count, which
tests/test_cli.py pins. ``import citeheat`` alone leaves the environment
alone, so a library caller keeps BLAS threads for their own linear algebra.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import shutil
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS thread default)

from . import io_export
from .corpus import (
    PAIRS,
    apply_name_changes,
    build_common_set,
    open_utf8,
    parse_edge_list,
    parse_rename_file,
)
from .entropy import DIRECTIONS, UNIT_SCALE, to_unit
from .errors import ConfigError, DataError
from .flags import build_flag_report
from .netgraph import HotLinkGraph, Network, connected_components, degree_centrality, louvain

_LABEL_RE = re.compile(r"[A-Za-z0-9._-]+")

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
    """One invocation's options: a field per option, named as its dest."""
    out: Path
    year: Sequence[tuple[str, str]] = ()
    renames: str | None = None
    k: float = 1.0
    unit: str = "mbits"
    exclude: Sequence[str] = ()
    keep_loops: bool = False
    seed: int = 0
    basemap: str | None = None


def _parse_year_spec(spec: str) -> tuple[str, str]:
    label, sep, path = spec.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expects <label>=<path>, got {spec!r}")
    return label, path


def _nonempty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _parse_k(text: str) -> float:
    try:
        k = float(text)
    except ValueError:
        k = math.nan
    if not (math.isfinite(k) and k >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return k


def load_config_file(path: str | Path) -> list[str]:
    """Flat key = value file, as command-line tokens. A key is an option's
    name with ``_`` for ``-``; `year` and `exclude` may repeat, and
    ``keep_loops = true|false`` stands for ``--keep-loops`` or nothing."""
    options = {a.dest: a for a in _options()._actions if a.dest != "config"}
    tokens = []
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = key.strip(), value.strip()
            if key not in options:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            flag = options[key].option_strings[0]
            if options[key].nargs != 0:
                tokens.append(f"{flag}={value}")
            elif value in ("true", "false"):
                tokens += [flag] * (value == "true")
            else:
                raise ConfigError(f"{path}:{lineno}: {key} must be true or false")
    return tokens


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The command line's options over the config file's: the file's go
    through the same parser, so each value is converted and checked once."""
    options = {"config": None, **vars(args)}
    if options["config"]:
        # A flag wins key by key, so the file's value for its key is not read.
        given = {f"--{dest.replace('_', '-')}" for dest in options}
        tokens = [t for t in load_config_file(args.config) if t.partition("=")[0] not in given]
        try:
            options = {**vars(_build_parser().parse_args([args.command, *tokens])), **options}
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    del options["command"], options["config"]
    out = options.pop("out", None) or os.environ.get("CITEHEAT_OUT") or "citeheat_out"
    config = RunConfig(Path(out), **options)
    if args.command in ("run", "ingest"):  # they read three years, in label order
        labels = [label for label, _ in config.year]
        if len(labels) != 3:
            raise ConfigError(f"--year must be given exactly 3 times, got {len(labels)}")
        if sorted(set(labels)) != labels:
            raise ConfigError(f"--year labels must be strictly increasing: {labels}")
        for label in labels:
            if not _LABEL_RE.fullmatch(label):
                raise ConfigError(f"--year label {label!r} must match {_LABEL_RE.pattern}")
    return config


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_ingest(config: RunConfig) -> None:
    matrices = [parse_edge_list(path, label) for label, path in config.year]
    renames = parse_rename_file(config.renames) if config.renames else []
    registry, renamed = apply_name_changes(matrices, renames)
    tensor = build_common_set(registry, renamed)

    io_export.write_tensor_cache(tensor, config.out / "ingest")
    # Distinct ids by bincount: numpy 2's np.unique and np.union1d without
    # return_* flags import numpy.ma, which costs a run about 10 ms.
    stats = {
        "years": [
            {
                "label": matrix.year_label,
                "journals": int(
                    np.count_nonzero(np.bincount(np.concatenate((matrix.citing, matrix.cited))))
                ),
                "links": int(matrix.counts.size),
            }
            for matrix in renamed
        ],
        "combined_journals": len(registry),
        "rename_records": len(renames),
        "common_journals": tensor.n_nodes,
        "valid_transition_cells": {
            tensor.pair_label(pair): int(tensor.pair_valid(pair).sum())
            for pair in PAIRS
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
    tensor = io_export.read_tensor_cache(config.out / "ingest")
    report = build_flag_report(
        tensor,
        k=config.k,
        unit=config.unit,
        drop_loops=not config.keep_loops,
        outliers=config.exclude,
    )
    # A huge finite k can carry mean +/- k*sd, or its unit conversion, past
    # the float range, and a JSON sidecar cannot hold an infinity: refuse it
    # before the first write, so reports/ stays as it was.
    bounds = (x for spec in report.thresholds.values() for x in (spec.upper, spec.lower))
    if not all(math.isfinite(to_unit(x, config.unit)) for x in bounds):
        raise ConfigError(f"--k {config.k!r} puts a threshold beyond the float range "
                          f"in {config.unit}")
    reports = config.out / "reports"
    io_export.write_flag_journal_reports(reports, report)
    citing, cited, scores = io_export.write_link_flag_reports(reports, report)
    # The report's ids index the registry after --exclude, the arrays'
    # ingest/registry.json. Both are sorted and every kept name is an ingest
    # name, so the kept names' ingest positions, in order, are the map.
    kept = set(report.tensor.registry.names)
    to_ingest = np.flatnonzero([name in kept for name in tensor.registry.names])
    io_export.write_hot_link_arrays(reports, to_ingest[citing], to_ingest[cited], scores)


def _lookup(path: Path, payload, *keys):
    """``payload[keys[0]][keys[1]]...`` of a JSON payload read from ``path``;
    a DataError names the file and the first key path it lacks."""
    for depth, key in enumerate(keys):
        try:
            payload = payload[key]
        except (KeyError, IndexError, TypeError):
            where = ".".join(map(str, keys[: depth + 1]))
            raise DataError(f"{path}: no key {where!r}; re-run the stage that writes it") from None
    return payload


def _overlay_sets(path: Path, journal_flags: dict) -> dict[str, dict[str, list[str]]]:
    """Overlay categories per family, from journal_flags.json "flagged"."""

    def flagged(family: str, d: str) -> list[str]:
        names = _lookup(path, journal_flags, "flagged", family, d)
        if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
            raise DataError(f"{path}: 'flagged.{family}.{d}' is not a list of names")
        return names

    return {
        "monotonic": {
            f"{d}_{trend}": flagged(f"monotonic_{trend}", d)
            for d in DIRECTIONS
            for trend in ("up", "down")
        },
        "revision": {d: flagged("revision_flagged", d) for d in DIRECTIONS},
        "triangle": {d: flagged("triangle_flagged_nodes", d) for d in DIRECTIONS},
    }


def network_of(citing: np.ndarray, cited: np.ndarray, scores: np.ndarray,
               names: Sequence[str], seed: int = 0) -> Network:
    """The network of hot links given as id arrays over the sorted ``names``:
    its graph, components, Louvain communities (``seed``) and degrees."""
    # The network is simple: hot self-citations (--keep-loops) stay in reports/.
    simple = citing != cited
    graph = HotLinkGraph.from_ids(citing[simple], cited[simple], scores[simple], names)
    return Network(graph, connected_components(graph), louvain(graph, seed=seed),
                   degree_centrality(graph))


def stage_network(config: RunConfig) -> None:
    reports = config.out / "reports"
    journal_path = reports / "journal_flags.json"
    link_path = reports / "link_flags.json"
    stats_path = config.out / "ingest" / "corpus_stats.json"
    journal_flags = io_export.read_sidecar(journal_path)
    link_flags = io_export.read_sidecar(link_path)
    corpus_stats = io_export.read_json(stats_path)
    _lookup(stats_path, corpus_stats, "years")  # ingest's object; the summary copies it
    names, labels = io_export.read_registry(config.out / "ingest" / "registry.json")
    # Every input, the base map and the graph's Pajek labels included, is
    # checked before anything is written, so a bad one leaves --out as it was.
    overlays = _overlay_sets(journal_path, journal_flags)
    summary = {
        "format_version": io_export.FORMAT_VERSION,
        # The analysis options are those the flag stage recorded, not this
        # invocation's: a staged network with other options describes
        # reports/. The seed is this invocation's, the partition's.
        "config": {
            **{key: _lookup(link_path, link_flags, key)
               for key in ("k", "unit", "drop_loops", "outliers_removed")},
            "seed": config.seed,
            "basemap": config.basemap,
            "year_labels": labels,
        },
        "corpus": corpus_stats,
        "journal_flags": {key: _lookup(journal_path, journal_flags, key) for key in
                          ("thresholds", "counts", "revision_excluded_cells", "journals")},
        "links": {key: _lookup(link_path, link_flags, key) for key in
                  ("threshold", "evaluated_cells", "hot_links", "loops_flagged")},
    }
    citing, cited, scores = io_export.read_hot_link_arrays(reports, len(names))
    if citing.size != summary["links"]["hot_links"]:
        raise DataError(f"{reports / 'hot_link_ids.npy'}: {citing.size} hot links, "
                        f"but {link_path} counts {summary['links']['hot_links']}")
    basemap = io_export.read_basemap(config.basemap) if config.basemap else None
    network = network_of(citing, cited, scores, names, seed=config.seed)
    graph, assignment = network.graph, network.communities.assignment
    io_export.pajek_labels(graph)

    outdir = config.out / "network"
    outdir.mkdir(parents=True, exist_ok=True)
    io_export.write_pajek_net(graph, outdir / "graph.net")
    io_export.write_pajek_clu(assignment, outdir / "communities.clu", nodes=graph.nodes)
    io_export.write_network_reports(outdir, network)

    # export/ has no other writer, so replace it whole: files of an earlier
    # run (say, overlays from a run with --basemap) must not survive.
    outdir = config.out / "export"
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    unmatched = io_export.write_vosviewer_files(
        graph,
        assignment,
        outdir / "vosviewer_map.txt",
        outdir / "vosviewer_network.txt",
        basemap=basemap,
        unmatched_path=outdir / "vosviewer_unmatched.txt",
    )
    if basemap is not None:
        for family, sets in overlays.items():
            io_export.write_overlay(sets, basemap, OVERLAY_COLORS, outdir / f"overlay_{family}.txt")

    summary["network"] = {
        **network.counts(),
        "unmatched_basemap_nodes": len(unmatched) if basemap is not None else None,
    }
    io_export.write_json(config.out / "summary.json", summary)


def run_pipeline(config: RunConfig) -> None:
    """Full pipeline; composes the stages through their file artifacts so a
    staged run and a full run are byte-identical."""
    stage_ingest(config)
    stage_flag(config)
    stage_network(config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for configuration errors
        raise ConfigError(message)


def _options() -> argparse.ArgumentParser:
    """Every subcommand's options, also those of a config file; only those
    given reach the namespace (RunConfig holds the defaults)."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--year", action="append", type=_parse_year_spec, metavar="LABEL=PATH",
                        help="year edge list, exactly 3 times (for run/ingest)")
    common.add_argument("--renames", type=_nonempty, metavar="PATH", help="old/new name table")
    common.add_argument("--k", type=_parse_k, metavar="FLOAT",
                        help="SD multiplier for all thresholds (default 1.0)")
    common.add_argument("--unit", choices=sorted(UNIT_SCALE),
                        help="reporting unit (default mbits)")
    common.add_argument("--exclude", action="append", metavar="NAME",
                        help="journal to remove as an outlier (repeatable)")
    common.add_argument("--keep-loops", action="store_true",
                        help="keep self-citation cells among the hot links")
    common.add_argument("--seed", type=int, metavar="INT",
                        help="community-detection seed (default 0)")
    common.add_argument("--out", type=_nonempty, metavar="DIR",
                        help="output directory (default $CITEHEAT_OUT or citeheat_out)")
    common.add_argument("--basemap", type=_nonempty, metavar="PATH", help="map file for overlays")
    common.add_argument("--config", type=_nonempty, metavar="PATH",
                        help="flat key=value config file")
    return common


def _build_parser() -> _Parser:
    parser = _Parser(prog="citeheat", description=__doc__.splitlines()[0])
    common = _options()

    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "full pipeline: ingest, flag, network"),
        ("ingest", "parse and align the three years into the cache"),
        ("flag", "journal flags and hot links, from one flag report"),
        ("network", "hot-link graph, components, communities, degrees, "
                    "VOSviewer files, overlays and the JSON summary"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


_STAGES = {
    "run": run_pipeline,
    "ingest": stage_ingest,
    "flag": stage_flag,
    "network": stage_network,
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
    except OSError as exc:
        print(f"citeheat: i/o error: {exc}", file=sys.stderr)
        return 3


def console_main() -> NoReturn:
    """``main`` on ``sys.argv`` as a whole process: exit with its code,
    leaving the heap to the OS. Output is still flushed and atexit handlers
    still run; an exception that escapes ``main`` exits as it would without
    this."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
