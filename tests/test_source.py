"""Static checks of the package source, read with ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

import citeheat

PACKAGE = Path(citeheat.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each name an import binds in ``path`` that no
    expression of the module reads. An import of ``a.b`` binds ``a``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        read |= set(citeheat.__all__)  # re-exported
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    # An import kept only to make a name present would also keep a benchmark
    # trace target present whose per-layer metric then reads 0.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in _unused_imports(path)] == []


def test_the_check_sees_an_unused_import(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import os\nimport numpy.linalg\nfrom . import io_export as io\n"
                      "from typing import Mapping\n\ndef f(x: Mapping):\n    return os.sep\n",
                      encoding="utf-8")
    assert _unused_imports(source) == ["module.py:2: numpy", "module.py:3: io"]
