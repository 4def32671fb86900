"""The README's library code runs as written against this checkout."""

from __future__ import annotations

import fnmatch
import itertools
import re
from pathlib import Path

from citeheat.cli import main

from helpers import LABELS, dyad_fixture_cells, write_edge_list

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    """The ```python blocks of the README's "Library" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_section_runs_in_order(tmp_path, monkeypatch):
    # The dyad fixture gives hot links at k=1; "PLoS ONE", the outlier the
    # README removes, cites two of its journals in every year.
    (tmp_path / "data").mkdir()
    for label, cells in dyad_fixture_cells().items():
        cells[("PLoS ONE", "Bkg00")] = cells[("PLoS ONE", "Genet Med")] = 40
        write_edge_list(tmp_path / "data" / f"{label}.tsv", cells)
    monkeypatch.chdir(tmp_path)

    blocks = _library_blocks()
    assert blocks
    namespace: dict = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

    assert namespace["tensor"].year_labels == LABELS
    assert "PLoS ONE" in namespace["tensor"].registry.names
    assert "PLoS ONE" not in namespace["names"]
    assert namespace["report"].links[0].size > 0
    assert namespace["network"].counts()["edges"] > 0


def _artifact_patterns() -> list[str]:
    """The paths under ``out/`` that the README's "Artifact tree" block
    names, with each ``{a,b}`` expanded; ``*`` is left for fnmatch."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Artifact tree\n", 1)[1]
    block = re.search(r"^```\nout/\n(.*?)^```$", section, flags=re.M | re.S).group(1)
    patterns, directory = [], ""
    for line in block.splitlines():
        entry = line[2:]
        if not entry.startswith(" "):
            head = entry.split()[0]
            directory = head[: head.index("/") + 1] if "/" in head else ""
            entry = entry[len(directory):]
        for name in re.findall(r"(?:\w|\{[\w,]+\}|\*)+\.\w+", entry):
            parts = re.split(r"\{([\w,]+)\}", name)
            choices = [part.split(",") if i % 2 else [part] for i, part in enumerate(parts)]
            patterns += [directory + "".join(p) for p in itertools.product(*choices)]
    return patterns


def test_artifact_tree_names_every_file_of_a_run(dyad_year_files, tmp_path):
    basemap = tmp_path / "base.txt"
    basemap.write_text("label\tx\ty\nBkg00\t0\t0\n", encoding="utf-8")
    out = tmp_path / "out"
    years = [arg for label in LABELS for arg in ("--year", f"{label}={dyad_year_files[label]}")]
    assert main(["run", *years, "--basemap", str(basemap), "--out", str(out)]) == 0

    written = [str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()]
    patterns = _artifact_patterns()
    assert len(patterns) == len(set(patterns))
    assert [p for p in patterns if not fnmatch.filter(written, p)] == []
    assert [f for f in written if not any(fnmatch.fnmatch(f, p) for p in patterns)] == []
