from __future__ import annotations

import csv
import gc
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import citeheat
from citeheat import cli, io_export, netgraph
from citeheat.cli import main
from citeheat.flags import FlagReport
from citeheat.io_export import (
    FORMAT_VERSION,
    read_hot_link_arrays,
    read_registry,
    read_sidecar,
    read_tensor_cache,
)
from citeheat.netgraph import HotLinkGraph

from helpers import (
    BAD_REGISTRY_EDITS,
    count_cached_builds,
    csv_writer_rows,
    dyad_fixture_cells,
    ids_of,
    node_names,
    oracle_triangle,
    random_active_grids,
    rewrite_registry,
    run_python,
    write_edge_list,
)


def _year_args(paths: dict) -> list[str]:
    args = []
    for label in sorted(paths):
        args += ["--year", f"{label}={paths[label]}"]
    return args


def _hot_links(out: Path) -> list:
    """(citing, cited, score) rows of the hot-link arrays, ids as names."""
    names = read_registry(out / "ingest" / "registry.tsv")
    citing, cited, scores = read_hot_link_arrays(out / "reports", len(names))
    return [(names[c], names[d], s)
            for c, d, s in zip(citing.tolist(), cited.tolist(), scores.tolist())]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _random_year_files(tmp_path: Path, rng) -> dict:
    """A 14-journal random corpus: many hot links and journal flags at k=0."""
    names = node_names(14)
    paths = {}
    for label, grid in zip(("2011", "2012", "2013"), random_active_grids(rng, 14, 0.6)):
        cells = {(names[c], names[d]): int(grid[c, d]) for c, d in zip(*np.nonzero(grid))}
        path = tmp_path / f"random_{label}.tsv"
        write_edge_list(path, cells)
        paths[label] = path
    return paths


def _loop_year_files(tmp_path: Path) -> dict:
    """The dyad fixture plus a self-citation cell of Bkg00 hot enough to flag."""
    loop = {"2011": 10, "2012": 40, "2013": 160}
    paths = {}
    for label, cells in dyad_fixture_cells().items():
        cells[("Bkg00", "Bkg00")] = loop[label]
        paths[label] = tmp_path / f"y{label}.tsv"
        write_edge_list(paths[label], cells)
    return paths


def _write_basemap(tmp_path: Path) -> Path:
    """A base map holding every journal of the dyad and the random corpus."""
    basemap = tmp_path / "base.txt"
    rows = ["label\tx\ty"]
    dyad = {n for y in dyad_fixture_cells().values() for p in y for n in p}
    for label in sorted(dyad) + node_names(14):
        rows.append(f"{label}\t0.5\t-0.5")
    basemap.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return basemap


def _dyad_dense_grids():
    cells = dyad_fixture_cells()
    names = sorted({n for year in cells.values() for pair in year for n in pair})
    index = {n: i for i, n in enumerate(names)}
    grids = []
    for label in sorted(cells):
        grid = np.zeros((len(names), len(names)), dtype=np.int64)
        for (c, d), n in cells[label].items():
            grid[index[c], index[d]] = n
        grids.append(grid)
    return names, grids


class TestRun:
    def test_full_run_artifacts_and_counts(self, dyad_year_files, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", *_year_args(dyad_year_files), "--out", str(out), "--seed", "3"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "common set: 12 journals" in stdout

        for rel in (
            "ingest/registry.tsv", "ingest/corpus_stats.json",
            "reports/transition_summary.csv", "reports/margins_cited.csv",
            "reports/margins_citing.csv", "reports/revision_cited.csv",
            "reports/revision_citing.csv", "reports/triangle_nodes_cited.csv",
            "reports/triangle_nodes_citing.csv", "reports/journal_flags.json",
            "reports/hot_links.csv", "reports/link_flags.json",
            "network/graph.net", "network/communities.clu",
            "network/components.csv", "network/communities.csv",
            "network/degree_ranking.csv",
            "export/vosviewer_map.txt", "export/vosviewer_network.txt",
            "summary.json",
        ):
            assert (out / rel).is_file(), rel

        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        cells = dyad_fixture_cells()
        assert summary["corpus"]["common_journals"] == 12
        assert summary["corpus"]["all_years_cells"] == len(cells["2011"])
        assert summary["corpus"]["years"][0]["links"] == len(cells["2011"])
        assert summary["links"]["hot_links"] == 1
        assert summary["network"]["nodes"] == 2
        assert summary["network"]["components"] == 1
        assert summary["config"]["seed"] == 3

        hot = _hot_links(out)
        assert [(c, d) for c, d, _ in hot] == [("Pers Med", "Genet Med")]

    def test_staged_composition_equals_run(self, dyad_year_files, tmp_path):
        full = tmp_path / "full"
        staged = tmp_path / "staged"
        base = [*_year_args(dyad_year_files), "--seed", "5", "--k", "1.0"]
        assert main(["run", *base, "--out", str(full)]) == 0
        for stage in ("ingest", "flag", "network"):
            assert main([stage, *base, "--out", str(staged)]) == 0
        assert _tree(full) == _tree(staged)

    def test_names_csv_quotes_read_back_whole_in_run_and_staged(self, tmp_path, rng):
        # Pajek cannot quote '"', and the reader trims ASCII whitespace at a
        # name's ends, so these names carry the other cases csv must get right.
        names = ["Comma, Journal of", "Form\x0cFeed Letters", "\u2028Separator Review",
                 "\u00a0No-Break Annals\u00a0", *node_names(5)]
        years = {}
        for label, grid in zip(("2011", "2012", "2013"),
                               random_active_grids(rng, len(names), 0.7)):
            years[label] = tmp_path / f"{label}.tsv"
            write_edge_list(years[label], {(names[c], names[d]): int(grid[c, d])
                                           for c, d in zip(*np.nonzero(grid))})
        base = [*_year_args(years), "--k", "0"]
        full, staged = tmp_path / "full", tmp_path / "staged"
        assert main(["run", *base, "--out", str(full)]) == 0
        for stage in ("ingest", "flag", "network"):
            assert main([stage, *base, "--out", str(staged)]) == 0
        assert _tree(full) == _tree(staged)

        tables = sorted((full / "reports").glob("*.csv")) + sorted((full / "network").glob("*.csv"))
        assert len(tables) == 11
        rows = {path.name: csv_writer_rows(path) for path in tables}
        assert {row[0] for row in rows["margins_cited.csv"]} == set(names)
        assert {name for row in rows["hot_links.csv"] for name in row[:2]} == set(names)
        assert {row[0] for row in rows["communities.csv"]} == set(names)

    def test_graph_and_export_are_unknown_subcommands(self, dyad_year_files, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", *_year_args(dyad_year_files), "--out", out]) == 0
        for stage in ("graph", "export"):
            assert main([stage, "--out", out]) == 1
            assert "invalid choice" in capsys.readouterr().err

    def test_summary_seed_is_the_partition_seed(self, tmp_path, rng):
        years = _random_year_files(tmp_path, rng)
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        args = [*_year_args(years), "--k", "0"]
        assert main(["run", *args, "--seed", "3", "--out", str(rerun)]) == 0
        assert main(["network", "--seed", "5", "--out", str(rerun)]) == 0
        assert main(["run", *args, "--seed", "5", "--out", str(fresh)]) == 0
        summary = json.loads((rerun / "summary.json").read_text("utf-8"))
        assert summary["config"]["seed"] == 5
        assert _tree(rerun) == _tree(fresh)

    def test_run_reads_builds_and_formats_the_graph_once(self, tmp_path, rng, monkeypatch):
        calls = dict.fromkeys((
            "read_hot_link_arrays", "from_ids", "connected_components", "degree_centrality",
            "louvain", "modularity outside louvain", "fmt_sig6", "fmt_sig6_column",
            "adjacency inside connected_components",
        ), 0)
        inside_louvain = False

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        real_louvain, real_modularity = cli.louvain, netgraph.modularity

        def louvain(*args, **kwargs):
            nonlocal inside_louvain
            calls["louvain"] += 1
            inside_louvain = True
            try:
                return real_louvain(*args, **kwargs)
            finally:
                inside_louvain = False

        def modularity(*args, **kwargs):
            calls["modularity outside louvain"] += not inside_louvain
            return real_modularity(*args, **kwargs)

        monkeypatch.setattr(cli, "louvain", louvain)
        monkeypatch.setattr(netgraph, "modularity", modularity)
        counted(io_export, "read_hot_link_arrays")
        counted(HotLinkGraph, "from_ids")
        counted(cli, "connected_components")
        counted(cli, "degree_centrality")
        counted(io_export, "fmt_sig6")
        counted(io_export, "fmt_sig6_column")
        builds = count_cached_builds(monkeypatch, HotLinkGraph, ("edges",))
        adjacency_sizes = []
        real_adjacency, real_components = netgraph._adjacency, cli.connected_components

        def adjacency(n, *args):
            adjacency_sizes.append(n)
            return real_adjacency(n, *args)

        def connected_components(graph):
            before = len(adjacency_sizes)
            result = real_components(graph)
            calls["adjacency inside connected_components"] += len(adjacency_sizes) - before
            return result

        monkeypatch.setattr(netgraph, "_adjacency", adjacency)
        monkeypatch.setattr(cli, "connected_components", connected_components)
        out = tmp_path / "out"
        basemap = _write_basemap(tmp_path)
        assert main(["run", *_year_args(_random_year_files(tmp_path, rng)), "--k", "0",
                     "--basemap", str(basemap), "--out", str(out)]) == 0
        network = json.loads((out / "summary.json").read_text("utf-8"))["network"]
        assert network["edges"] > network["nodes"] > 0
        fmt_calls = calls.pop("fmt_sig6")
        assert fmt_calls <= network["edges"] + network["nodes"]
        assert calls == {
            "read_hot_link_arrays": 1, "from_ids": 1,
            "connected_components": 1, "degree_centrality": 1, "louvain": 1,
            "modularity outside louvain": 0,
            "adjacency inside connected_components": 0,
            # The edge weights once for all three network files, the VOSviewer strengths once.
            "fmt_sig6_column": 2,
        }
        # Louvain alone builds neighbour dicts, the top level's once (every
        # coarser level is smaller); nothing needs the label triples.
        assert adjacency_sizes.count(network["nodes"]) == 1
        assert builds == {"edges": 0}

    def test_run_builds_the_flag_report_once(self, dyad_year_files, tmp_path, monkeypatch):
        calls = {"build_flag_report": 0, "read_tensor_cache": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "build_flag_report")
        counted(io_export, "read_tensor_cache")
        out = str(tmp_path / "out")
        assert main(["run", *_year_args(dyad_year_files), "--out", out]) == 0
        assert calls == {"build_flag_report": 1, "read_tensor_cache": 1}
        assert main(["flag-journals", "--out", out]) == 1

    def test_run_never_builds_the_hot_link_tuples(self, dyad_year_files, tmp_path, monkeypatch):
        builds = count_cached_builds(monkeypatch, FlagReport, ("hot_links",))
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text("utf-8"))["links"]["hot_links"] > 0
        # The flag stage writes reports/ from the link arrays alone.
        assert builds == {"hot_links": 0}

    def test_run_builds_each_report_view_once_and_no_component_dict(
        self, dyad_year_files, tmp_path, monkeypatch
    ):
        views = ("thresholds", "monotonic_up", "monotonic_down", "revision_flagged",
                 "triangle_flagged_nodes")
        builds = count_cached_builds(monkeypatch, FlagReport, views)
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out)]) == 0
        assert (out / "network" / "communities.csv").is_file()
        assert builds == dict.fromkeys(views, 1)

    def test_summary_config_describes_the_flag_files(self, dyad_year_files, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--k", "1", "--out", str(out)]) == 0
        before = json.loads((out / "summary.json").read_text("utf-8"))["config"]
        rc = main(["network", "--out", str(out), "--k", "2", "--unit", "bits",
                   "--exclude", "Bkg00"])
        assert rc == 0
        config = json.loads((out / "summary.json").read_text("utf-8"))["config"]
        assert config == before
        assert (config["k"], config["unit"], config["outliers_removed"]) == (1.0, "mbits", [])
        assert config["drop_loops"] is True

    def test_optimized_python_writes_the_same_tree(self, dyad_year_files, tmp_path):
        basemap = _write_basemap(tmp_path)
        args = [*_year_args(dyad_year_files), "--k", "0", "--exclude", "Bkg00",
                "--basemap", str(basemap)]
        plain, optimized = tmp_path / "plain", tmp_path / "optimized"
        assert main(["run", *args, "--out", str(plain)]) == 0
        proc = run_python("-O", "-m", "citeheat.cli", "run", *args, "--out", str(optimized))
        assert proc.returncode == 0, proc.stderr
        assert (plain / "export" / "overlay_triangle.txt").is_file()
        assert _tree(plain) == _tree(optimized)

    def test_run_leaves_numpy_ma_unimported(self, dyad_year_files, tmp_path):
        # Under numpy 2, np.unique and np.union1d without return_* flags
        # import numpy.ma, which costs each run about 10 ms.
        renames = tmp_path / "renames.tsv"
        renames.write_text("Genet Med\tGenetics in Medicine\n", encoding="utf-8")
        args = [*_year_args(dyad_year_files), "--k", "0", "--exclude", "Bkg00",
                "--renames", str(renames), "--basemap", str(_write_basemap(tmp_path)),
                "--out", str(tmp_path / "out")]
        script = (
            "import sys\nfrom citeheat.cli import main\n"
            "code = main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)\n"
        )
        proc = run_python("-c", script, "run", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", "False"]
        assert (tmp_path / "out" / "export" / "overlay_triangle.txt").is_file()
        # The network files were written, so fmt_sig6_column ran too.
        summary = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
        assert summary["network"]["edges"] > 0

    def test_import_leaves_logging_unimported(self):
        # corpus imports logging (and with it traceback and string) only to
        # warn of a self-rename, so a start without one does not pay for it.
        script = "import sys\nimport citeheat.cli\nprint('logging' in sys.modules)\n"
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_library_import_leaves_numpy_and_blas_threads_alone(self, dyad_year_files):
        # Names load on first use, and only cli sets the BLAS thread default:
        # a library caller keeps OpenBLAS's threads for their own algebra.
        script = (
            "import os, sys\nimport citeheat\n"
            "def show():\n"
            "    print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
            "show()\n"
            "years = [citeheat.parse_edge_list(p, p[-8:-4]) for p in sys.argv[1:]]\n"
            "tensor = citeheat.build_common_set(*citeheat.apply_name_changes(years, []))\n"
            "print(len(citeheat.build_flag_report(tensor, k=0).hot_links) > 0)\n"
            "show()\n"
        )
        proc = run_python("-c", script, *(str(dyad_year_files[y]) for y in sorted(dyad_year_files)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False", "True", "True", "False"]

    def test_cli_import_defaults_blas_to_one_thread(self):
        # A user's value wins. After numpy, OpenBLAS has already started, so
        # a late setting would only mislead child processes: leave it unset.
        show = "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        outputs = []
        for script, env in (
            ("import os\nimport citeheat.cli\n", {}),
            ("import os\nimport citeheat.cli\n", {"OPENBLAS_NUM_THREADS": "3"}),
            ("import os\nimport numpy, citeheat.cli\n", {}),
        ):
            proc = run_python("-c", script + show, **env)
            assert proc.returncode == 0, proc.stderr
            outputs += proc.stdout.split()
        assert outputs == ["1", "3", "None"]

    def test_tree_does_not_depend_on_blas_threads(self, dyad_year_files, tmp_path):
        # The one-thread default is safe because citeheat makes no BLAS call
        # whose result could depend on the thread count.
        args = [*_year_args(dyad_year_files), "--k", "0", "--exclude", "Bkg00",
                "--basemap", str(_write_basemap(tmp_path))]
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_python("-m", "citeheat.cli", "run", *args, "--out", str(out),
                              OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            trees.append(_tree(out))
        assert (tmp_path / "threads1" / "export" / "overlay_triangle.txt").is_file()
        assert trees[0] == trees[1]

    def test_two_runs_byte_identical(self, dyad_year_files, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = [*_year_args(dyad_year_files), "--seed", "11"]
        assert main(["run", *args, "--out", str(a)]) == 0
        assert main(["run", *args, "--out", str(b)]) == 0
        assert _tree(a) == _tree(b)

    def test_k_zero_flags_every_cell_below_mean(self, dyad_year_files, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out), "--k", "0"]) == 0
        names, grids = _dyad_dense_grids()
        oracle = oracle_triangle(grids)
        expected = {
            (names[c], names[d])
            for c in range(len(names))
            for d in range(len(names))
            if c != d
            and not np.isnan(oracle["scores"][c, d])
            and oracle["scores"][c, d] < oracle["mean"]
        }
        hot = _hot_links(out)
        assert {(c, d) for c, d, _ in hot} == expected
        assert expected  # the collapsed threshold must flag something

    def test_renames_merge_in_ingest(self, tmp_path):
        years = dyad_fixture_cells()
        years["2011"][("Old Name", "Bkg00")] = 3
        years["2012"][("Old Name", "Bkg00")] = 3
        years["2013"][("Pers Med", "Bkg00")] = 3  # renamed by 2013
        paths = {}
        for label, cells in years.items():
            path = tmp_path / f"y{label}.tsv"
            write_edge_list(path, cells)
            paths[label] = path
        renames = tmp_path / "renames.tsv"
        renames.write_text("Old Name\tPers Med\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main([
            "ingest", *_year_args(paths), "--renames", str(renames), "--out", str(out)
        ])
        assert rc == 0
        tensor = read_tensor_cache(out / "ingest")
        assert "Old Name" not in tensor.registry.names
        pm = tensor.registry.names.index("Pers Med")
        b0 = tensor.registry.names.index("Bkg00")
        idx = next(
            i for i in range(tensor.n_cells)
            if tensor.citing[i] == pm and tensor.cited[i] == b0
        )
        assert tensor.counts[0][idx] == 3

    def test_rerun_with_shifted_labels_matches_fresh_out(self, dyad_year_files, tmp_path):
        shifted = {
            str(int(label) + 1): path for label, path in dyad_year_files.items()
        }
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(reused)]) == 0
        assert main(["run", *_year_args(shifted), "--out", str(reused)]) == 0
        assert main(["run", *_year_args(shifted), "--out", str(fresh)]) == 0
        for rel in ("reports", "network", "export"):
            assert _tree(reused / rel) == _tree(fresh / rel), rel
        assert (reused / "summary.json").read_bytes() == (fresh / "summary.json").read_bytes()

    def test_rerun_without_basemap_matches_fresh_out(self, dyad_year_files, tmp_path):
        basemap = _write_basemap(tmp_path)
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        args = [*_year_args(dyad_year_files), "--k", "0"]
        assert main(["run", *args, "--basemap", str(basemap), "--out", str(reused)]) == 0
        assert (reused / "export" / "overlay_triangle.txt").is_file()
        assert main(["run", *args, "--out", str(reused)]) == 0
        assert main(["run", *args, "--out", str(fresh)]) == 0
        assert _tree(reused / "export") == _tree(fresh / "export")
        assert (reused / "summary.json").read_bytes() == (fresh / "summary.json").read_bytes()

    @pytest.mark.parametrize("corpus", ["dyad", "random"])
    def test_network_and_export_do_not_depend_on_unit(
        self, dyad_year_files, tmp_path, rng, corpus
    ):
        years = dyad_year_files if corpus == "dyad" else _random_year_files(tmp_path, rng)
        basemap = _write_basemap(tmp_path)
        trees = {}
        for unit in ("bits", "mbits", "microbits"):
            out = tmp_path / unit
            assert main([
                "run", *_year_args(years), "--out", str(out), "--k", "0",
                "--unit", unit, "--basemap", str(basemap),
            ]) == 0
            trees[unit] = (_tree(out / "network"), _tree(out / "export"))
        assert b"*Edges" in trees["bits"][0]["graph.net"]
        assert trees["bits"] == trees["mbits"] == trees["microbits"]

    def test_sidecars_agree_with_report_csvs(self, tmp_path, rng):
        out = tmp_path / "out"
        years = _random_year_files(tmp_path, rng)
        assert main(["run", *_year_args(years), "--out", str(out), "--k", "0"]) == 0
        reports = out / "reports"
        link_flags = read_sidecar(reports / "link_flags.json")
        rows = _read_csv(reports / "hot_links.csv")[1:]
        links = _hot_links(out)
        assert [[c, d] for c, d, _ in links] == [row[:2] for row in rows]
        assert len(links) == link_flags["hot_links"] > 10
        assert "links" not in link_flags
        journal_flags = read_sidecar(reports / "journal_flags.json")
        counts, flagged = journal_flags["counts"], journal_flags["flagged"]
        assert set(flagged) == set(counts)
        for key in counts:
            for direction in ("cited", "citing"):
                assert len(flagged[key][direction]) == counts[key][direction]
        for direction in ("cited", "citing"):
            for key, table in (("revision_flagged", "revision"),
                               ("triangle_flagged_nodes", "triangle_nodes")):
                rows = _read_csv(reports / f"{table}_{direction}.csv")[1:]
                assert flagged[key][direction] == sorted(r[0] for r in rows if r[2] == "true")
            rows = _read_csv(reports / f"margins_{direction}.csv")[1:]
            for trend in ("up", "down"):
                assert flagged[f"monotonic_{trend}"][direction] == sorted(
                    r[0] for r in rows if r[4] == trend
                )

    def test_journal_families_are_id_arrays_and_the_reports_agree(
        self, tmp_path, rng, monkeypatch
    ):
        built, inner = [], cli.build_flag_report

        def recording(*args, **kwargs):
            built.append(inner(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_flag_report", recording)
        out = tmp_path / "out"
        years = _random_year_files(tmp_path, rng)
        excluded = node_names(14)[4]
        rc = main(["run", *_year_args(years), "--out", str(out), "--k", "0.5",
                   "--exclude", excluded])
        assert rc == 0
        (report,) = built
        names = report.tensor.registry.names
        assert excluded not in names and len(names) == 13
        t = report.thresholds

        def margin(pair, d):
            return report.margins[(pair, d)]

        rules = {}
        for d in ("cited", "citing"):
            t01, t12 = (t[f"margin_{pair}_{d}"] for pair in ("01", "12"))
            rules["monotonic_up", d] = (
                (margin((0, 1), d) > t01.upper) & (margin((1, 2), d) > t12.upper))
            rules["monotonic_down", d] = (
                (margin((0, 1), d) < t01.lower) & (margin((1, 2), d) < t12.lower))
            rules["revision_flagged", d] = (
                report.revision_node_margins[d] < t[f"revision_{d}"].lower)
            rules["triangle_flagged_nodes", d] = (
                report.triangle_node_margins[d] < t[f"triangle_{d}"].lower)
        families = {}
        for (family, d), rule in rules.items():
            ids = getattr(report, family)[d]
            assert ids_of(ids) == np.flatnonzero(rule).tolist(), (family, d)
            families[family, d] = ids.tolist()
        assert 0 < sum(map(len, families.values())) < 8 * len(names)

        reports = out / "reports"
        journal_flags = read_sidecar(reports / "journal_flags.json")
        for (family, d), ids in families.items():
            assert journal_flags["flagged"][family][d] == [names[i] for i in ids]
            assert journal_flags["counts"][family][d] == len(ids)
        for d in ("cited", "citing"):
            trend = {names[i]: "up" for i in families["monotonic_up", d]}
            trend.update({names[i]: "down" for i in families["monotonic_down", d]})
            rows = _read_csv(reports / f"margins_{d}.csv")[1:]
            assert sorted(r[0] for r in rows) == list(names)
            assert {r[0]: r[4] for r in rows} == {n: trend.get(n, "") for n in names}
            for family, table in (("revision_flagged", "revision"),
                                  ("triangle_flagged_nodes", "triangle_nodes")):
                rows = _read_csv(reports / f"{table}_{d}.csv")[1:]
                flagged = {names[i] for i in families[family, d]}
                assert {r[0]: r[2] for r in rows} == {
                    n: "true" if n in flagged else "false" for n in names}

    @pytest.mark.parametrize("unit", ["bits", "mbits", "microbits"])
    def test_transition_summary_statistics_are_the_thresholds(self, tmp_path, rng, unit):
        out = tmp_path / "out"
        years = _random_year_files(tmp_path, rng)
        assert main(["run", *_year_args(years), "--out", str(out), "--unit", unit]) == 0
        thresholds = read_sidecar(out / "reports" / "journal_flags.json")["thresholds"]
        header, *rows = _read_csv(out / "reports" / "transition_summary.csv")
        assert header[1:4] == [f"mean_{unit}", f"sd_cited_{unit}", f"sd_citing_{unit}"]
        keys = ["margin_01", "margin_12", "margin_02", "revision"]
        assert [row[0] for row in rows] == [
            "2011->2012", "2012->2013", "2011->2013", "revision_of_prediction"
        ]
        for row, key in zip(rows, keys):
            cited, citing = thresholds[f"{key}_cited"], thresholds[f"{key}_citing"]
            expected = [f"{x:.6f}" for x in (cited["mean"], cited["sd"], citing["sd"])]
            assert row[1:4] == expected

    def test_no_hot_links_writes_an_empty_network(self, dyad_year_files, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out), "--k", "1000"]) == 0
        assert _hot_links(out) == []
        assert (out / "network" / "graph.net").read_text(encoding="utf-8") == "*Vertices 0\n"
        assert (out / "network" / "communities.clu").read_text(encoding="utf-8") == "*Vertices 0\n"
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["network"] == {
            "nodes": 0, "edges": 0, "components": 0, "giant_size": 0,
            "communities": 0, "modularity": 0.0, "unmatched_basemap_nodes": None,
        }

    @staticmethod
    def _years_renaming(tmp_path: Path, journal: str) -> list[str]:
        """The dyad fixture's year arguments with ``journal`` named Annals "Q"."""
        paths = {}
        for label, cells in dyad_fixture_cells().items():
            cells = {tuple('Annals "Q"' if n == journal else n for n in pair): count
                     for pair, count in cells.items()}
            paths[label] = tmp_path / f"quoted_{label}.tsv"
            write_edge_list(paths[label], cells)
        return _year_args(paths)

    def test_a_hot_label_pajek_cannot_quote_fails_network_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", *self._years_renaming(tmp_path, "Pers Med"), "--out", str(out)]) == 0
        assert main(["flag", "--out", str(out)]) == 0
        before = sorted(out.rglob("*")), _tree(out)
        capsys.readouterr()
        assert main(["network", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "label not representable in Pajek: 'Annals \"Q\"'" in err
        assert (sorted(out.rglob("*")), _tree(out)) == before

    def test_a_label_pajek_cannot_quote_outside_the_graph_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *self._years_renaming(tmp_path, "Bkg03"), "--out", str(out)]) == 0
        assert 'Annals "Q"' in read_registry(out / "ingest" / "registry.tsv")
        assert [(c, d) for c, d, _ in _hot_links(out)] == [("Pers Med", "Genet Med")]

    def test_exclude_outlier(self, dyad_year_files, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "run", *_year_args(dyad_year_files), "--out", str(out),
            "--exclude", "Pers Med",
        ])
        assert rc == 0
        flags = json.loads((out / "reports" / "journal_flags.json").read_text("utf-8"))
        assert flags["outliers_removed"] == ["Pers Med"]
        assert flags["journals"] == 11

    def test_exclude_spellings_of_one_journal_write_one_tree(self, dyad_year_files, tmp_path):
        trees = []
        for spellings in (["Pers Med"], ["  Pers Med "], ["Pers Med", "Pers Med"]):
            out = tmp_path / f"out{len(trees)}"
            excludes = [arg for name in spellings for arg in ("--exclude", name)]
            assert main(["run", *_year_args(dyad_year_files), *excludes, "--out", str(out)]) == 0
            trees.append(_tree(out))
        assert trees[1] == trees[0] == trees[2]
        assert json.loads(trees[0]["summary.json"])["config"]["outliers_removed"] == ["Pers Med"]

    def test_exclude_takes_the_name_after_renames(self, dyad_year_files, tmp_path, capsys):
        # The ingest registry holds terminal names only.
        renames = tmp_path / "renames.tsv"
        renames.write_text("Pers Med\tJ Pers Med\n", encoding="utf-8")
        base = ["run", *_year_args(dyad_year_files), "--renames", str(renames)]
        assert main([*base, "--exclude", "Pers Med", "--out", str(tmp_path / "old")]) == 2
        assert "unknown journal name: 'Pers Med'" in capsys.readouterr().err
        assert main([*base, "--exclude", "J Pers Med", "--out", str(tmp_path / "new")]) == 0

    def test_exclude_keeps_ingest_ids_in_the_link_arrays(self, tmp_path, rng):
        out = tmp_path / "out"
        years = _random_year_files(tmp_path, rng)
        excluded = node_names(14)[0]
        assert main(["run", *_year_args(years), "--k", "0", "--exclude", excluded,
                     "--out", str(out)]) == 0
        names = read_registry(out / "ingest" / "registry.tsv")
        assert names[0] == excluded and len(names) == 14
        citing, cited, _ = read_hot_link_arrays(out / "reports", len(names))
        assert citing.size > 10 and not (citing == 0).any() and not (cited == 0).any()
        rows = _read_csv(out / "reports" / "hot_links.csv")[1:]
        assert [(c, d) for c, d, _ in _hot_links(out)] == [(r[0], r[1]) for r in rows]
        edges = {tuple(sorted((c, d))) for c, d, _ in _hot_links(out)}
        graph_net = (out / "network" / "graph.net").read_text("utf-8").splitlines()
        assert int(graph_net[0].split()[1]) == len({v for e in edges for v in e})
        assert sum(1 for line in graph_net if line.count(" ") == 2) == len(edges)


class TestNetworkOf:
    """``network_of`` over the hot-link arrays is the network that the
    network stage writes, so its counts are the summary's."""

    @staticmethod
    def _network(out: Path, seed: int) -> netgraph.Network:
        names = read_registry(out / "ingest" / "registry.tsv")
        return cli.network_of(*read_hot_link_arrays(out / "reports", len(names)), names, seed)

    @staticmethod
    def _written_counts(out: Path) -> dict:
        network = json.loads((out / "summary.json").read_text("utf-8"))["network"]
        del network["unmatched_basemap_nodes"]
        return network

    def test_counts_are_the_summary_on_the_dyad(self, dyad_year_files, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--seed", "3", "--out", str(out)]) == 0
        assert self._network(out, 3).counts() == self._written_counts(out)

    def test_counts_are_the_summary_on_a_random_corpus(self, tmp_path, rng):
        out = tmp_path / "out"
        assert main(["run", *_year_args(_random_year_files(tmp_path, rng)), "--k", "0",
                     "--seed", "4", "--basemap", str(_write_basemap(tmp_path)),
                     "--out", str(out)]) == 0
        network = self._network(out, 4)
        written = self._written_counts(out)
        assert written["communities"] > 1 and written["edges"] > written["nodes"]
        assert network.counts() == written
        ranked = _read_csv(out / "network" / "degree_ranking.csv")[1:]
        assert sorted(row[0] for row in ranked) == sorted(network.giant)

    def test_no_links_count_zero_and_have_no_giant(self):
        none = np.zeros(0, dtype=np.int64)
        network = cli.network_of(none, none, np.zeros(0), node_names(3))
        assert network.giant == ()
        assert network.counts() == {
            "nodes": 0, "edges": 0, "components": 0, "giant_size": 0,
            "communities": 0, "modularity": 0.0,
        }

    def test_a_hot_self_citation_is_no_edge(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *_year_args(_loop_year_files(tmp_path)), "--keep-loops",
                     "--out", str(out)]) == 0
        names = read_registry(out / "ingest" / "registry.tsv")
        citing, cited, scores = read_hot_link_arrays(out / "reports", len(names))
        loops = citing == cited
        assert [names[i] for i in citing[loops].tolist()] == ["Bkg00"]
        graph = cli.network_of(citing, cited, scores, names).graph
        simple = cli.network_of(citing[~loops], cited[~loops], scores[~loops], names).graph
        assert "Bkg00" not in graph.nodes
        assert graph.nodes == simple.nodes
        assert graph.edges == simple.edges


class TestConfigHandling:
    def test_missing_year_flag_exits_1_and_names_flag(self, dyad_year_files, tmp_path, capsys):
        labels = sorted(dyad_year_files)
        args = ["run", "--out", str(tmp_path / "out")]
        for label in labels[:2]:
            args += ["--year", f"{label}={dyad_year_files[label]}"]
        assert main(args) == 1
        assert "--year" in capsys.readouterr().err

    def test_bad_unit_exits_1(self, dyad_year_files, tmp_path, capsys):
        rc = main([
            "run", *_year_args(dyad_year_files), "--out", str(tmp_path / "o"),
            "--unit", "nanobits",
        ])
        assert rc == 1
        assert "--unit" in capsys.readouterr().err

    def test_negative_k_exits_1(self, dyad_year_files, tmp_path, capsys):
        rc = main([
            "run", *_year_args(dyad_year_files), "--out", str(tmp_path / "o"), "--k", "-1"
        ])
        assert rc == 1
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
    def test_non_finite_k_exits_1(self, dyad_year_files, tmp_path, capsys, k):
        out = tmp_path / "o"
        rc = main(["run", *_year_args(dyad_year_files), "--out", str(out), "--k", k])
        assert rc == 1
        assert "--k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k, unit", [("1.7e308", "mbits"), ("1e306", "microbits")])
    def test_k_past_the_float_range_exits_1_and_leaves_reports(
        self, dyad_year_files, tmp_path, capsys, k, unit
    ):
        out = tmp_path / "out"
        args = ["run", *_year_args(dyad_year_files), "--out", str(out)]
        assert main(args) == 0
        before = _tree(out / "reports")
        capsys.readouterr()
        assert main([*args, "--k", k, "--unit", unit]) == 1
        err = capsys.readouterr().err
        assert err == (f"citeheat: configuration error: --k {float(k)!r} puts a threshold "
                       f"beyond the float range in {unit}\n")
        assert _tree(out / "reports") == before

    def test_config_k_nan_exits_1(self, dyad_year_files, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        lines = [f"year = {label}={dyad_year_files[label]}" for label in sorted(dyad_year_files)]
        lines += ["k = nan", f"out = {tmp_path / 'cfg_out'}"]
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert "--k" in capsys.readouterr().err
        assert not (tmp_path / "cfg_out").exists()

    def test_malformed_data_exits_2(self, tmp_path, capsys):
        paths = {}
        for label in ("2011", "2012", "2013"):
            path = tmp_path / f"y{label}.tsv"
            path.write_text("A\tB\tbogus\n", encoding="utf-8")
            paths[label] = path
        rc = main(["run", *_year_args(paths), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not an integer" in capsys.readouterr().err

    def test_count_past_int64_exits_2_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "big.tsv"
        path.write_text("A\tB\t99999999999999999999\nB\tA\t1\n", encoding="utf-8")
        paths = dict.fromkeys(("2011", "2012", "2013"), path)
        assert main(["ingest", *_year_args(paths), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: count past the int64 range" in err
        assert "Traceback" not in err

    def test_non_utf8_input_exits_2(self, dyad_year_files, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"A\tB\t1\n\xff\tC\t2\n")
        good = dict(dyad_year_files)
        out = str(tmp_path / "o")
        cases = [
            ["ingest", *_year_args({**good, "2012": bad}), "--out", out],
            ["ingest", *_year_args(good), "--renames", str(bad), "--out", out],
            ["run", *_year_args(good), "--basemap", str(bad), "--out", out],
            ["ingest", "--config", str(bad), "--out", out],
        ]
        for argv in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "data error" in err and "utf-8" in err
            assert f"{bad}: not valid utf-8" in err
            assert not any(str(path) in err for path in good.values())
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rel, stage",
        [
            ("ingest/years.txt", "flag"),
            ("ingest/registry.tsv", "flag"),
            ("ingest/registry.tsv", "network"),
            ("reports/link_flags.json", "network"),
            ("reports/journal_flags.json", "network"),
            ("ingest/corpus_stats.json", "network"),
        ],
    )
    def test_non_utf8_stage_file_exits_2(self, dyad_year_files, tmp_path, capsys, rel, stage):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out), "--k", "0"]) == 0
        bad = out / rel
        data = bad.read_bytes()
        bad.write_bytes(data[:10] + b"\xff" + data[11:])
        capsys.readouterr()
        assert main([stage, "--out", str(out), "--k", "0"]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not valid utf-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["flag", "network"])
    @pytest.mark.parametrize("kind", sorted(BAD_REGISTRY_EDITS))
    def test_malformed_registry_exits_2(self, dyad_year_files, tmp_path, capsys, kind, stage):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out), "--k", "0"]) == 0
        registry = out / "ingest" / "registry.tsv"
        rewrite_registry(registry, BAD_REGISTRY_EDITS[kind])
        before = _tree(out)
        capsys.readouterr()
        assert main([stage, "--out", str(out), "--k", "0"]) == 2
        err = capsys.readouterr().err
        assert f"data error: {registry}: " in err
        assert "Traceback" not in err
        assert _tree(out) == before

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace(
                f'"format_version": {FORMAT_VERSION}', '"format_version": 1'
            ),
            lambda text: text[: len(text) // 2],
        ],
        ids=["format-version-1", "truncated"],
    )
    def test_old_or_broken_link_sidecar_exits_2(self, dyad_year_files, tmp_path, capsys, edit):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out)]) == 0
        sidecar = out / "reports" / "link_flags.json"
        sidecar.write_text(edit(sidecar.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert main(["network", "--out", str(out)]) == 2
        assert "link_flags.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rel, old, new",
        [
            ("reports/link_flags.json", '"k": 1.0', '"k": NaN'),
            ("reports/journal_flags.json", '"k": 1.0', '"k": Infinity'),
            ("ingest/corpus_stats.json", "{", '{"extra": -Infinity, '),
        ],
        ids=["link-flags-nan", "journal-flags-infinity", "corpus-stats-minus-infinity"],
    )
    def test_non_finite_json_number_exits_2_before_writing(
        self, dyad_year_files, tmp_path, capsys, rel, old, new
    ):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out)]) == 0
        path = out / rel
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        for stale in ("network", "export"):
            shutil.rmtree(out / stale)
        (out / "summary.json").unlink()
        capsys.readouterr()
        assert main(["network", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: invalid JSON" in err and "Traceback" not in err
        assert not any((out / name).exists() for name in ("network", "export", "summary.json"))

    @pytest.mark.parametrize(
        "rel, edit, key",
        [
            ("ingest/corpus_stats.json", lambda payload: [2], "years"),
            ("reports/link_flags.json", lambda payload: _without(payload, "threshold"),
             "threshold"),
            ("reports/journal_flags.json",
             lambda payload: _without(payload, "flagged", "monotonic_up", "cited"),
             "flagged.monotonic_up.cited"),
        ],
        ids=["corpus-stats-not-an-object", "link-flags-without-threshold",
             "journal-flags-without-a-flag-set"],
    )
    def test_sidecar_missing_a_key_exits_2_and_changes_nothing(
        self, dyad_year_files, tmp_path, capsys, rel, edit, key
    ):
        out = tmp_path / "out"
        basemap = str(_write_basemap(tmp_path))
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out),
                     "--basemap", basemap]) == 0
        path = out / rel
        path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))),
                        encoding="utf-8")
        # Stale network outputs stay in --out and must survive untouched.
        before = _tree(out)
        capsys.readouterr()
        assert main(["network", "--out", str(out), "--basemap", basemap]) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: no key {key!r}" in err and "Traceback" not in err
        assert _tree(out) == before

    @pytest.mark.parametrize("value", [5, [5], "Acta"], ids=["number", "numbers", "string"])
    @pytest.mark.parametrize("with_basemap", [True, False], ids=["basemap", "no-basemap"])
    def test_flagged_entry_not_a_list_of_names_exits_2_and_changes_nothing(
        self, dyad_year_files, tmp_path, capsys, value, with_basemap
    ):
        out = tmp_path / "out"
        basemap = ["--basemap", str(_write_basemap(tmp_path))] if with_basemap else []
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out), *basemap]) == 0
        path = out / "reports" / "journal_flags.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["flagged"]["revision_flagged"]["cited"] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        before = _tree(out)
        capsys.readouterr()
        # Another seed, so a write before the check could not go unseen.
        assert main(["network", "--seed", "4", "--out", str(out), *basemap]) == 2
        err = capsys.readouterr().err
        assert f"data error: {path}: 'flagged.revision_flagged.cited'" in err
        assert "Traceback" not in err
        assert _tree(out) == before

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("hot_link_ids.npy", lambda a: _set(a, (0, 0), 99)),
            ("hot_link_scores.npy", lambda a: a.astype(object)),
        ],
        ids=["id-out-of-range", "pickled"],
    )
    def test_tampered_link_arrays_exit_2(self, dyad_year_files, tmp_path, capsys, name, edit):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--k", "0", "--out", str(out)]) == 0
        path = out / "reports" / name
        np.save(path, edit(np.load(path, allow_pickle=False)), allow_pickle=True)
        capsys.readouterr()
        assert main(["network", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda ids, scores: (np.hstack([ids, ids[:, :5]]), np.append(scores, scores[:5])),
             "a (citing, cited) pair appears twice"),
            (lambda ids, scores: (ids[:, 1:].copy(), scores[1:]), "hot links, but"),
        ],
        ids=["five-repeated-pairs", "one-link-short"],
    )
    def test_link_arrays_that_disagree_with_link_flags_exit_2_and_change_nothing(
        self, dyad_year_files, tmp_path, capsys, edit, problem
    ):
        out = tmp_path / "out"
        basemap = str(_write_basemap(tmp_path))
        assert main(["run", *_year_args(dyad_year_files), "--k", "0", "--out", str(out),
                     "--basemap", basemap]) == 0
        ids_path = out / "reports" / "hot_link_ids.npy"
        scores_path = out / "reports" / "hot_link_scores.npy"
        ids, scores = edit(np.load(ids_path), np.load(scores_path))
        np.save(ids_path, ids, allow_pickle=False)
        np.save(scores_path, scores, allow_pickle=False)
        before = _tree(out)
        capsys.readouterr()
        assert main(["network", "--out", str(out), "--basemap", basemap]) == 2
        err = capsys.readouterr().err
        assert f"data error: {ids_path}: " in err and problem in err and "Traceback" not in err
        assert _tree(out) == before

    def test_missing_input_file_exits_3(self, tmp_path, capsys):
        paths = {label: tmp_path / f"missing{label}.tsv" for label in ("2011", "2012", "2013")}
        rc = main(["run", *_year_args(paths), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "i/o error" in capsys.readouterr().err

    def test_env_var_default_out(self, dyad_year_files, tmp_path, monkeypatch, capsys):
        out = tmp_path / "env_out"
        monkeypatch.setenv("CITEHEAT_OUT", str(out))
        assert main(["ingest", *_year_args(dyad_year_files)]) == 0
        assert (out / "ingest" / "registry.tsv").is_file()

    def test_config_file_with_cli_override(self, dyad_year_files, tmp_path):
        config = tmp_path / "run.cfg"
        lines = ["# pipeline config"]
        for label in sorted(dyad_year_files):
            lines.append(f"year = {label}={dyad_year_files[label]}")
        lines += ["k = 2.0", "unit = microbits", f"out = {tmp_path / 'cfg_out'}", "seed = 9"]
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--k", "1.0"]) == 0
        summary = json.loads((tmp_path / "cfg_out" / "summary.json").read_text("utf-8"))
        assert summary["config"]["k"] == 1.0          # flag wins
        assert summary["config"]["unit"] == "microbits"  # file value survives
        assert summary["config"]["seed"] == 9

    def test_config_file_and_flags_give_one_tree(self, dyad_year_files, tmp_path):
        renames = tmp_path / "renames.tsv"
        renames.write_text("Bkg09\tBkg Nine\n", encoding="utf-8")
        basemap = _write_basemap(tmp_path)
        flags = {"--year": [f"{label}={path}" for label, path in sorted(dyad_year_files.items())],
                 "--renames": [renames], "--k": ["0"], "--unit": ["bits"],
                 "--exclude": ["Bkg00", "Bkg01"], "--seed": ["7"], "--basemap": [basemap]}

        def as_argv(options):
            return [token for flag, values in options.items()
                    for v in values for token in (flag, str(v))]

        def as_file(name, options, extra=()):
            lines = [f"{flag[2:]} = {v}" for flag, values in options.items() for v in values]
            path = tmp_path / name
            path.write_text("\n".join([*lines, *extra]) + "\n", encoding="utf-8")
            return str(path)

        trees = {}
        out = tmp_path / "flags"
        assert main(["run", *as_argv(flags), "--keep-loops", "--out", str(out)]) == 0
        trees["flags"] = _tree(out)
        out = tmp_path / "file"
        config = as_file("all.cfg", flags, ["keep_loops = true", f"out = {out}"])
        assert main(["run", "--config", config]) == 0
        trees["file"] = _tree(out)
        # The flags win key by key; a repeated flag replaces the file's whole list.
        out = tmp_path / "mixed"
        in_file = {key: flags[key] for key in ("--year", "--renames", "--unit", "--basemap")}
        config = as_file("mixed.cfg", in_file, ["k = 5", "exclude = Bkg00", "exclude = Nowhere",
                                                 "keep_loops = false", "seed = 7",
                                                 f"out = {tmp_path / 'unused'}"])
        assert main(["run", "--config", config, "--k", "0", "--exclude", "Bkg00",
                     "--exclude", "Bkg01", "--keep-loops", "--out", str(out)]) == 0
        trees["mixed"] = _tree(out)
        assert not (tmp_path / "unused").exists()
        assert trees["file"] == trees["flags"] and trees["mixed"] == trees["flags"]
        summary = json.loads(trees["flags"]["summary.json"])["config"]
        assert (summary["k"], summary["unit"], summary["seed"], summary["drop_loops"]) == (
            0.0, "bits", 7, False)
        assert summary["outliers_removed"] == ["Bkg00", "Bkg01"]

    @pytest.mark.parametrize("line, option", [("k = abc", "--k"), ("unit = foo", "--unit")])
    def test_bad_config_value_exits_1_naming_file_and_option(
        self, dyad_year_files, tmp_path, capsys, line, option
    ):
        config = tmp_path / "run.cfg"
        lines = [f"year = {label}={dyad_year_files[label]}" for label in sorted(dyad_year_files)]
        config.write_text("\n".join([*lines, line, f"out = {tmp_path / 'o'}"]) + "\n",
                          encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{config}: argument {option}: " in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("wibble = 3\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 1
        assert "wibble" in capsys.readouterr().err

    def test_unordered_year_labels_exit_1(self, dyad_year_files, tmp_path, capsys):
        labels = sorted(dyad_year_files)
        args = ["run", "--out", str(tmp_path / "o")]
        for label in (labels[1], labels[0], labels[2]):
            args += ["--year", f"{label}={dyad_year_files[label]}"]
        assert main(args) == 1
        assert "increasing" in capsys.readouterr().err

    def test_year_label_with_a_trailing_newline_exits_1(self, dyad_year_files, tmp_path, capsys):
        # "$" also matches before a final "\n"; the label must match whole.
        paths = dict(dyad_year_files)
        first = sorted(paths)[0]
        label = f"{first}\n"
        paths[label] = paths.pop(first)
        out = tmp_path / "o"
        assert main(["run", *_year_args(paths), "--out", str(out)]) == 1
        assert f"--year label {label!r} must match [A-Za-z0-9._-]+\n" in capsys.readouterr().err
        assert not out.exists()

    def test_keep_loops_flag(self, tmp_path):
        paths = _loop_year_files(tmp_path)
        dropped = tmp_path / "dropped"
        kept = tmp_path / "kept"
        # stages need the ingest cache; a missing cache is an I/O failure
        assert main(["flag", *_year_args(paths), "--out", str(dropped)]) == 3
        assert main(["ingest", *_year_args(paths), "--out", str(dropped)]) == 0
        assert main(["flag", "--out", str(dropped)]) == 0
        assert main(["ingest", *_year_args(paths), "--out", str(kept)]) == 0
        assert main(["flag", "--out", str(kept), "--keep-loops"]) == 0
        hot_dropped = {(c, d) for c, d, _ in _hot_links(dropped)}
        hot_kept = {(c, d) for c, d, _ in _hot_links(kept)}
        assert ("Bkg00", "Bkg00") not in hot_dropped
        assert ("Bkg00", "Bkg00") in hot_kept

        # run --keep-loops keeps the loop in reports/; the network is simple,
        # so network/ and the VOSviewer files equal a run without the flag.
        run_dropped, run_kept = tmp_path / "run_dropped", tmp_path / "run_kept"
        assert main(["run", *_year_args(paths), "--out", str(run_dropped)]) == 0
        assert main(["run", *_year_args(paths), "--out", str(run_kept), "--keep-loops"]) == 0
        rows = _read_csv(run_kept / "reports" / "hot_links.csv")[1:]
        assert ["Bkg00", "Bkg00"] in [row[:2] for row in rows]
        assert [(c, d) for c, d, _ in _hot_links(run_kept)] == [(r[0], r[1]) for r in rows]
        assert _tree(run_kept / "network") == _tree(run_dropped / "network")
        for name in ("vosviewer_map.txt", "vosviewer_network.txt"):
            kept_file = (run_kept / "export" / name).read_bytes()
            assert kept_file == (run_dropped / "export" / name).read_bytes()


def _without(payload: dict, *keys: str) -> dict:
    """``payload`` with the key at the path ``keys`` deleted."""
    inner = payload
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    return payload


def _set(array, index, value):
    array[index] = value
    return array


class TestBasemapExport:
    @pytest.mark.parametrize(
        "text, code, message",
        [(None, 3, "i/o error"),
         ("label\ty\nJ\t0.5\n", 2, "base map header must name label, x and y")],
        ids=["missing", "no-x-column"],
    )
    def test_bad_basemap_exits_before_writing(
        self, dyad_year_files, tmp_path, capsys, text, code, message
    ):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out),
                     "--basemap", str(_write_basemap(tmp_path))]) == 0
        bad = tmp_path / "bad_base.txt"
        if text is not None:
            bad.write_text(text, encoding="utf-8")
        before = _tree(out)
        assert any(rel.startswith("export") for rel in before)
        capsys.readouterr()
        assert main(["network", "--seed", "4", "--out", str(out), "--basemap", str(bad)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert _tree(out) == before

    def test_overlays_written(self, dyad_year_files, tmp_path):
        basemap = _write_basemap(tmp_path)
        out = tmp_path / "out"
        rc = main([
            "run", *_year_args(dyad_year_files), "--out", str(out),
            "--basemap", str(basemap),
        ])
        assert rc == 0
        for rel in (
            "export/overlay_monotonic.txt", "export/overlay_revision.txt",
            "export/overlay_triangle.txt", "export/vosviewer_unmatched.txt",
        ):
            assert (out / rel).is_file(), rel
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        assert summary["network"]["unmatched_basemap_nodes"] == 0
        map_header = (out / "export" / "vosviewer_map.txt").read_text("utf-8").splitlines()[0]
        assert map_header == "id\tlabel\tx\ty\tcluster\tweight"

    def test_overlay_categories_match_report_flags(self, tmp_path, rng):
        basemap = _write_basemap(tmp_path)
        out = tmp_path / "out"
        assert main([
            "run", *_year_args(_random_year_files(tmp_path, rng)), "--out", str(out), "--k", "0",
            "--basemap", str(basemap),
        ]) == 0
        reports = out / "reports"

        def flagged(table: str, column: int, value: str) -> set[str]:
            return {r[0] for r in _read_csv(reports / table)[1:] if r[column] == value}

        # write_overlay gives a journal the first category it falls in.
        families = {
            "monotonic": [
                (f"{d}_{trend}", flagged(f"margins_{d}.csv", 4, trend))
                for d in ("cited", "citing") for trend in ("up", "down")
            ],
            "revision": [(d, flagged(f"revision_{d}.csv", 2, "true"))
                         for d in ("cited", "citing")],
            "triangle": [(d, flagged(f"triangle_nodes_{d}.csv", 2, "true"))
                         for d in ("cited", "citing")],
        }
        seen_categories = set()
        for family, categories in families.items():
            rows = _read_csv(out / "export" / f"overlay_{family}.txt")
            rows = [line[0].split("\t") for line in rows]
            header, body = rows[0], rows[1:]
            label, category = header.index("label"), header.index("category")
            for row in body:
                expected = next((c for c, names in categories if row[label] in names), "")
                assert row[category] == expected, (family, row[label])
                seen_categories.add(row[category])
        assert len(seen_categories - {""}) >= 2


def _malformed_year_files(tmp_path: Path) -> dict:
    paths = {}
    for label in ("2011", "2012", "2013"):
        paths[label] = tmp_path / f"bad{label}.tsv"
        paths[label].write_text("A\tB\tbogus\n", encoding="utf-8")
    return paths


class TestProcessEntry:
    """``console_main``, the entry of the executable and of ``python -m``,
    and ``main``, the in-process one."""

    @pytest.mark.parametrize(
        "case, code",
        [("negative-k", 1), ("malformed-year-line", 2), ("missing-year-file", 3)],
    )
    def test_exit_codes_and_messages_match_main(
        self, dyad_year_files, tmp_path, capsys, case, code
    ):
        if case == "negative-k":
            paths, extra = dyad_year_files, ["--k", "-1"]
        elif case == "malformed-year-line":
            paths, extra = _malformed_year_files(tmp_path), []
        else:
            paths = {label: tmp_path / f"missing{label}.tsv" for label in ("2011", "2012", "2013")}
            extra = []
        args = ["run", *_year_args(paths), *extra, "--out", str(tmp_path / "out")]
        assert main(args) == code
        expected = capsys.readouterr().err
        assert expected.count("\n") == 1
        proc = run_python("-m", "citeheat.cli", *args)
        assert (proc.returncode, proc.stderr) == (code, expected)

    def test_main_leaves_the_collector_as_it_found_it(self, dyad_year_files, tmp_path):
        # Only the process entry freezes: in a process that goes on after
        # main (pytest, a benchmark child), frozen objects are never freed.
        before = (gc.get_freeze_count(), gc.isenabled())
        assert main(["run", *_year_args(dyad_year_files), "--out", str(tmp_path / "out")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_the_console_script_is_the_process_entry(self):
        pyproject = Path(citeheat.__file__).resolve().parents[2] / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        assert re.search(r'^citeheat = "citeheat\.cli:console_main"$', text, re.M)
