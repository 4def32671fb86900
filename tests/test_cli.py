from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import citeheat
from citeheat import cli, io_export
from citeheat.cli import main
from citeheat.io_export import FORMAT_VERSION, read_sidecar, read_tensor_cache

from helpers import (
    dyad_fixture_cells,
    node_names,
    oracle_triangle,
    random_active_grids,
    write_edge_list,
)


def _year_args(paths: dict) -> list[str]:
    args = []
    for label in sorted(paths):
        args += ["--year", f"{label}={paths[label]}"]
    return args


def _hot_links(out: Path) -> list:
    return read_sidecar(out / "reports" / "link_flags.json")["links"]


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
        for stage in ("ingest", "flag", "graph", "export"):
            assert main([stage, *base, "--out", str(staged)]) == 0
        assert _tree(full) == _tree(staged)

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

    def test_summary_config_describes_the_flag_files(self, dyad_year_files, tmp_path):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--k", "1", "--out", str(out)]) == 0
        before = json.loads((out / "summary.json").read_text("utf-8"))["config"]
        rc = main(["export", "--out", str(out), "--k", "2", "--unit", "bits",
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
        src = Path(citeheat.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "citeheat.cli", "run", *args, "--out", str(optimized)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (plain / "export" / "overlay_triangle.txt").is_file()
        assert _tree(plain) == _tree(optimized)

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
        pm = tensor.registry.id_of("Pers Med")
        b0 = tensor.registry.id_of("Bkg00")
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
        assert [[c, d] for c, d, _ in link_flags["links"]] == [row[:2] for row in rows]
        assert len(link_flags["links"]) == link_flags["hot_links"] > 10
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

    def test_export_rejects_partition_of_another_graph(self, dyad_year_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", *_year_args(dyad_year_files), "--out", str(out), "--k", "0"]) == 0
        clu = out / "network" / "communities.clu"
        lines = clu.read_text(encoding="utf-8").splitlines()
        n = len(lines) - 1
        clu.write_text(f"*Vertices {n - 1}\n" + "\n".join(lines[1:-1]) + "\n", encoding="utf-8")
        assert main(["export", "--out", str(out)]) == 2
        assert "communities.clu" in capsys.readouterr().err

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
            ("reports/link_flags.json", "graph"),
            ("reports/journal_flags.json", "export"),
            ("network/communities.clu", "export"),
            ("ingest/corpus_stats.json", "export"),
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
        assert main(["graph", "--out", str(out)]) == 2
        assert "link_flags.json" in capsys.readouterr().err

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

    def test_keep_loops_flag(self, tmp_path):
        # A self-citation cell hot enough to flag.
        years = dyad_fixture_cells()
        loop = {"2011": 10, "2012": 40, "2013": 160}
        paths = {}
        for label, cells in years.items():
            cells[("Bkg00", "Bkg00")] = loop[label]
            path = tmp_path / f"y{label}.tsv"
            write_edge_list(path, cells)
            paths[label] = path
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
        rows = _read_csv(run_kept / "reports" / "hot_links.csv")
        assert ["Bkg00", "Bkg00"] in [row[:2] for row in rows]
        assert _tree(run_kept / "network") == _tree(run_dropped / "network")
        for name in ("vosviewer_map.txt", "vosviewer_network.txt"):
            kept_file = (run_kept / "export" / name).read_bytes()
            assert kept_file == (run_dropped / "export" / name).read_bytes()


class TestBasemapExport:
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
