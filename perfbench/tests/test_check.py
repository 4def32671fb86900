"""The checker passes the program's own output and fails corrupted copies."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("run")
    corpus = gen.generate(3, 300, 6000, work / "corpus")
    out = work / "out"
    argv = [sys.executable, "-m", "citeheat.cli", "run", "--k", "1.0",
            "--renames", str(corpus.renames), "--basemap", str(corpus.basemap),
            "--exclude", corpus.truth.exclude, "--out", str(out)]
    for label, path in corpus.years:
        argv += ["--year", f"{label}={path}"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, check=True, env=env, capture_output=True)
    expectation = check.RunExpectation.build(corpus.truth, 1.0, corpus.truth.exclude)
    return out, expectation


def _corrupted(run_output, tmp_path, edit):
    out, expectation = run_output
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit(copy)
    return check.check_run(copy, expectation)[0]


def test_program_output_passes(run_output):
    out, expectation = run_output
    problems, q = check.check_run(out, expectation)
    assert problems == []
    summary = json.loads((out / "summary.json").read_text("utf-8"))
    assert abs(q - summary["network"]["modularity"]) < check.Q_TOL


def _replace(path, old, new):
    text = path.read_text("utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_wrong_kl_sum_fails(run_output, tmp_path):
    def edit(out):
        path = out / "reports" / "transition_summary.csv"
        rows = path.read_text("utf-8").splitlines()
        fields = rows[1].split(",")
        fields[4] = f"{float(fields[4]) + 0.001:.6f}"
        rows[1] = ",".join(fields)
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert _corrupted(run_output, tmp_path, edit)


def test_missing_hot_link_fails(run_output, tmp_path):
    def edit(out):
        path = out / "reports" / "hot_links.csv"
        rows = path.read_text("utf-8").splitlines()
        path.write_text("\n".join(rows[:1] + rows[2:]) + "\n", encoding="utf-8")
    assert _corrupted(run_output, tmp_path, edit)


def test_merged_communities_fail(run_output, tmp_path):
    def edit(out):
        path = out / "network" / "communities.clu"
        rows = path.read_text("utf-8").splitlines()
        merged = [rows[0]] + ["1" if row == "2" else row for row in rows[1:]]
        assert merged != rows
        path.write_text("\n".join(merged) + "\n", encoding="utf-8")
    assert _corrupted(run_output, tmp_path, edit)


def test_wrong_common_set_fails(run_output, tmp_path):
    def edit(out):
        path = out / "ingest" / "corpus_stats.json"
        stats = json.loads(path.read_text("utf-8"))
        stats["common_journals"] += 1
        path.write_text(json.dumps(stats), encoding="utf-8")
    assert _corrupted(run_output, tmp_path, edit)


def test_missing_artifact_fails(run_output, tmp_path):
    assert _corrupted(run_output, tmp_path, lambda out: (out / "summary.json").unlink())


def test_digest_moves_with_outputs(run_output, tmp_path):
    out, _ = run_output
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    assert check.tree_digest(copy) == check.tree_digest(out)
    _replace(copy / "export" / "vosviewer_map.txt", "\t", "\t ")
    assert check.tree_digest(copy) != check.tree_digest(out)
