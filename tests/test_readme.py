"""The README's library code runs as written against this checkout."""

from __future__ import annotations

import re
from pathlib import Path

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
