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


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of each private module-level function, class and
    constant of a module, and of each private method of its classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.endswith("__")]


def _unread_private_names(paths: list[Path]) -> list[str]:
    """``file:line: name`` for each private definition (see
    ``_private_definitions``) in ``paths`` that no expression in any of
    them reads, as a bare name or as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{path.name}:{line}: {name}" for path, tree in trees.items()
            for line, name in _private_definitions(tree) if name not in read]


def test_every_private_name_is_read_in_src():
    # A private name that nothing reads is code that neither the CLI nor
    # the public API reaches.
    modules = sorted(PACKAGE.glob("*.py"))
    assert sum(len(_private_definitions(ast.parse(p.read_text(encoding="utf-8"))))
               for p in modules) > 30
    assert _unread_private_names(modules) == []


def test_the_check_sees_an_unread_private_name(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("_LIMIT = 3\n_UNUSED: int = 4\n\n"
                      "def _helper():\n    return _LIMIT\n\n"
                      "def _unread_helper():\n    return 1\n\n"
                      "class _Holder:\n"
                      "    def __init__(self):\n        self._x = self._read()\n\n"
                      "    def _read(self):\n        return _helper()\n\n"
                      "    def _unread(self):\n        return self._x\n\n"
                      "def public():\n    return _Holder()\n",
                      encoding="utf-8")
    assert _unread_private_names([source]) == [
        "module.py:2: _UNUSED", "module.py:7: _unread_helper", "module.py:17: _unread",
    ]


def _defaulted_parameters(tree: ast.Module):
    """``(function, parameter, positional index)`` for each parameter with
    a default of each private function of a module, methods and nested
    functions included. The index counts a method's arguments as a call
    through an attribute passes them, without ``self`` or ``cls``; it is
    None for a keyword-only parameter."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, functions)
               and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in item.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, functions):
            continue
        if not node.name.startswith("_") or node.name.endswith("__"):
            continue
        args = node.args
        positional = (args.posonlyargs + args.args)[id(node) in methods:]
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield node, positional[i].arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node, arg.arg, None


def _leaves_out(call: ast.Call, parameter: str, index: int | None) -> bool:
    """Whether ``call`` leaves ``parameter`` to its default; a call that
    unpacks ``*args`` or ``**kwargs`` may pass anything, so it does not."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return False
    return index is None or index >= len(call.args)


def _defaults_never_left_out(paths: list[Path]) -> list[str]:
    """``file:line: function(parameter)`` for each default of a private
    function in ``paths`` that every call in ``paths`` overrides. A call is
    matched by the function's name, as a bare name or as an attribute."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    return [f"{path.name}:{function.lineno}: {function.name}({parameter})"
            for path, tree in trees.items()
            for function, parameter, index in _defaulted_parameters(tree)
            if not any(_leaves_out(call, parameter, index)
                       for call in calls.get(function.name, []))]


def test_every_private_default_is_used_in_src():
    # A default that every caller overrides is a code path that neither
    # the CLI nor the public API reaches.
    modules = sorted(PACKAGE.glob("*.py"))
    assert [d for p in modules for d in _defaulted_parameters(ast.parse(p.read_text("utf-8")))]
    assert _defaults_never_left_out(modules) == []


def test_the_check_sees_a_default_no_call_uses(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("def _scale(x, factor=2, *, offset=0, unit=None):\n"
                      "    return x * factor + offset\n\n"
                      "def _spread(*values, step=1):\n    return values\n\n"
                      "class _Box:\n"
                      "    def _get(self, key, default=None):\n        return default\n\n"
                      "    def _put(self, key, value=None):\n        return key\n\n"
                      "def public(box, args):\n"
                      "    box._get(1, 2)\n"
                      "    box._put(1)\n"
                      "    _spread(*args)\n"
                      "    return _scale(1, 3, offset=1) + _scale(2, factor=4, offset=2)\n",
                      encoding="utf-8")
    assert _defaults_never_left_out([source]) == [
        "module.py:1: _scale(factor)", "module.py:1: _scale(offset)",
        "module.py:4: _spread(step)", "module.py:8: _get(default)",
    ]


# numpy routines that import numpy.ma when they run (numpy 2.4), about 10 ms
# of a process: np.unique without a return_* flag, and these set routines.
_MA_IMPORTING = {"union1d", "intersect1d", "setdiff1d", "setxor1d", "unique_values"}
_UNIQUE_FLAGS = {"return_index", "return_inverse", "return_counts"}


def _numpy_ma_importers(path: Path) -> list[str]:
    """``file:line: np.name`` for each call in ``path``, in source order,
    that imports numpy.ma: an ``np.unique`` that passes no ``return_*`` flag
    by keyword (a literal False passes none), or a routine in
    ``_MA_IMPORTING``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")):
            continue
        flagged = any(kw.arg in _UNIQUE_FLAGS
                      and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                      for kw in node.keywords)
        if func.attr in _MA_IMPORTING or (func.attr == "unique" and not flagged):
            found.append((node.lineno, node.col_offset,
                          f"{path.name}:{node.lineno}: np.{func.attr}"))
    return [line for _, _, line in sorted(found)]


def test_no_numpy_call_in_src_imports_numpy_ma():
    # test_run_leaves_numpy_ma_unimported sees only the calls one dyad run
    # makes; this sees every call.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in _numpy_ma_importers(path)] == []


def test_the_check_sees_a_call_that_imports_numpy_ma(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import numpy as np\n\n"
                      "def f(a, b):\n"
                      "    keys, edge = np.unique(a, return_inverse=True)\n"
                      "    np.unique(a, return_counts=False)\n"
                      "    ids = np.unique(b)\n"
                      "    return np.union1d(a, b), np.intersect1d(a, b), np.setdiff1d(a, b)\n",
                      encoding="utf-8")
    assert _numpy_ma_importers(source) == [
        "module.py:5: np.unique", "module.py:6: np.unique", "module.py:7: np.union1d",
        "module.py:7: np.intersect1d", "module.py:7: np.setdiff1d",
    ]




def _private_reads(paths: list[Path]) -> list[str]:
    """``file:line: name`` for each private name that a module in ``paths``
    takes from another, in source order: a name starting with ``_`` that it
    imports from a citeheat module, by a relative or a ``citeheat`` import,
    or an attribute it reads through anything but ``self`` or ``cls`` whose
    name only another module of ``paths`` defines (see
    ``_private_definitions``)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    defined = {path: {name for _, name in _private_definitions(tree)}
               for path, tree in trees.items()}
    lines = []
    for path, tree in trees.items():
        elsewhere = set().union(*(names for other, names in defined.items() if other != path))
        elsewhere -= defined[path]
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level or module == "citeheat" or module.startswith("citeheat."):
                    found += [(node.lineno, node.col_offset, alias.name)
                              for alias in node.names if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in elsewhere:
                if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                    found.append((node.lineno, node.col_offset, node.attr))
        lines += [f"{path.name}:{line}: {name}" for line, _, name in sorted(found)]
    return lines


def test_no_module_in_src_reads_a_private_name_of_another():
    # A module reads another's results through its public names, so a
    # private helper such as FlagReport._families can change on its own.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert _private_reads(modules) == []


def test_the_check_sees_a_private_read(tmp_path):
    flags = tmp_path / "flags.py"
    flags.write_text("FAMILIES = ()\n\n"
                     "def _monotonic():\n    return 1\n\n"
                     "class Report:\n"
                     "    def _families(self):\n        return self._x\n",
                     encoding="utf-8")
    source = tmp_path / "module.py"
    source.write_text("from __future__ import annotations\n\n"
                      "from os import _exit\n"
                      "from .flags import FAMILIES, _monotonic\n"
                      "from . import _helpers, io_export\n\n"
                      "def f(report, parser):\n"
                      "    from citeheat.netgraph import _merge as merge\n"
                      "    from citeheatx import _other\n"
                      "    return merge, report._families, parser._actions, report._x\n\n"
                      "class Box:\n"
                      "    def get(self):\n        return self._families\n",
                      encoding="utf-8")
    assert _private_reads([flags, source]) == [
        "module.py:4: _monotonic", "module.py:5: _helpers", "module.py:8: _merge",
        "module.py:10: _families",
    ]


# Each kind of file has one reader and one writer in src, so one codec:
# UTF-8 text in through corpus.open_utf8 (a byte-order mark dropped, bad
# bytes a DataError naming the file), LF-ended UTF-8 text out through
# io_export._write_lines, .npy arrays in through io_export._read_npy (no
# pickles) and out through io_export's np.save calls.
_FILE_IO_PLACES = {"open": {("corpus", "open_utf8"), ("io_export", "_write_lines"),
                            ("io_export", "_read_npy")},
                   "np.save": {("io_export", None)}}
_FILE_IO_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _calls(path: Path):
    """``(call, function)`` for each call in the module at ``path``, with
    the name of the innermost function whose body makes it (None at module
    level)."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            yield from visit(child, function)
            if isinstance(child, ast.Call):
                yield child, function

    yield from visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)


def _stray_file_io(path: Path) -> list[str]:
    """``file:line: call`` for each file I/O call in ``path``, in source
    order, outside its place in ``_FILE_IO_PLACES``: an ``open`` call or a
    method call of that name, ``np.load``, ``np.save``, or a ``read_text``,
    ``write_text``, ``read_bytes`` or ``write_bytes`` method call. A place
    names the module and the function whose body makes the call; None
    stands for any function of the module."""
    found = []
    for child, function in _calls(path):
        func = child.func
        if isinstance(func, ast.Name) and func.id == "open":
            call = "open"
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in ("np", "numpy") and func.attr in ("load", "save")):
            call = f"np.{func.attr}"
        elif isinstance(func, ast.Attribute) and func.attr in _FILE_IO_METHODS:
            call = func.attr
        else:
            continue
        places = _FILE_IO_PLACES.get(call, set())
        if not places & {(path.stem, function), (path.stem, None)}:
            line = f"{path.name}:{child.lineno}: {call}"
            found.append((child.lineno, child.col_offset, line))
    return [line for _, _, line in sorted(found)]


def test_file_io_in_src_happens_in_one_place_per_file_kind():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in _stray_file_io(path)] == []


def test_the_check_sees_stray_file_io(tmp_path):
    source = tmp_path / "io_export.py"
    source.write_text("import numpy as np\n\n"
                      "def _write_lines(path, text):\n"
                      "    with open(path, 'w') as out:\n        out.write(text)\n\n"
                      "def _read_npy(path):\n    return np.load(path)\n\n"
                      "def write(path, array):\n"
                      "    np.save(path, array)\n    path.write_text('')\n\n"
                      "class Cache:\n"
                      "    def read(self, path):\n"
                      "        return open(path).read(), path.open(), path.read_bytes()\n\n"
                      "def _save(path, array):\n"
                      "    def inner():\n        return path.write_bytes(b''), open(path)\n"
                      "    np.save(path, array)\n    return inner\n",
                      encoding="utf-8")
    assert _stray_file_io(source) == [
        "io_export.py:8: np.load", "io_export.py:12: write_text",
        "io_export.py:16: open", "io_export.py:16: open", "io_export.py:16: read_bytes",
        "io_export.py:20: write_bytes", "io_export.py:20: open",
    ]
    # In another module, io_export's places are not places.
    corpus = tmp_path / "corpus.py"
    corpus.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    assert "corpus.py:4: open" in _stray_file_io(corpus)
    assert "corpus.py:11: np.save" in _stray_file_io(corpus)


# A tensor and a registry are built in corpus, which knows how a journal
# subset is cut and renumbered, and rebuilt from the stage cache in one
# reader; None stands for any function of the module.
_TENSOR_PLACES = {("corpus", None), ("io_export", "read_tensor_cache")}
_TENSOR_TYPES = {"AlignedTensor", "JournalRegistry"}


def _stray_tensor_builds(path: Path) -> list[str]:
    """``file:line: call`` for each call in ``path``, in source order, of
    ``AlignedTensor``, ``JournalRegistry`` or ``JournalRegistry.from_names``
    (by a bare name or through a module) outside ``_TENSOR_PLACES``."""
    found = []
    for call, function in _calls(path):
        parts = ast.unparse(call.func).split(".")
        if parts[-1] == "from_names":
            parts.pop()
        if parts[-1] in _TENSOR_TYPES and not _TENSOR_PLACES & {
                (path.stem, function), (path.stem, None)}:
            line = f"{path.name}:{call.lineno}: {ast.unparse(call.func)}"
            found.append((call.lineno, call.col_offset, line))
    return [line for _, _, line in sorted(found)]


def test_only_corpus_builds_a_tensor_or_a_registry():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in _stray_tensor_builds(path)] == []


def test_the_check_sees_a_stray_tensor_build(tmp_path):
    source = tmp_path / "flags.py"
    source.write_text("from . import corpus\n"
                      "from .corpus import AlignedTensor, JournalRegistry\n\n"
                      "def remove_outliers(tensor, keep):\n"
                      "    return AlignedTensor(\n"
                      "        registry=JournalRegistry.from_names(keep),\n"
                      "        year_labels=tensor.year_labels, citing=0, cited=0, counts=0)\n\n"
                      "class Cut:\n"
                      "    def registry(self, names):\n"
                      "        return corpus.JournalRegistry(names, {}), names.from_names()\n\n"
                      "def read_tensor_cache(names):\n"
                      "    return corpus.AlignedTensor.from_year_cells(names)\n\n"
                      "REGISTRY = JournalRegistry.from_names([])\n",
                      encoding="utf-8")
    assert _stray_tensor_builds(source) == [
        "flags.py:5: AlignedTensor", "flags.py:6: JournalRegistry.from_names",
        "flags.py:11: corpus.JournalRegistry", "flags.py:16: JournalRegistry.from_names",
    ]
    # io_export's reader is a place; its other functions are not.
    reader = tmp_path / "io_export.py"
    reader.write_text("def read_tensor_cache(names):\n"
                      "    return AlignedTensor(JournalRegistry.from_names(names))\n\n"
                      "def write_tensor_cache(names):\n"
                      "    return JournalRegistry(names, {})\n",
                      encoding="utf-8")
    assert _stray_tensor_builds(reader) == ["io_export.py:5: JournalRegistry"]
    corpus = tmp_path / "corpus.py"
    corpus.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    assert _stray_tensor_builds(corpus) == []


# The mappings keyed by threshold key, whether read as an attribute or
# through a local name of the same name.
_KEYED = {"value_sets", "statistics", "thresholds"}


def _spelled_keys(path: Path) -> list[str]:
    """``file:line: key`` for each subscript in ``path`` of a ``value_sets``,
    ``statistics`` or ``thresholds`` attribute or name whose key is neither
    a ``threshold_key(...)`` call, a name nor the literal ``"links"``, so
    that ``threshold_key`` is the one place where a key is spelled."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript):
            continue
        mapping = node.value
        name = (mapping.attr if isinstance(mapping, ast.Attribute)
                else mapping.id if isinstance(mapping, ast.Name) else None)
        key = node.slice
        if name not in _KEYED or isinstance(key, ast.Name):
            continue
        if isinstance(key, ast.Constant) and key.value == "links":
            continue
        if (isinstance(key, ast.Call) and isinstance(key.func, ast.Name)
                and key.func.id == "threshold_key"):
            continue
        found.append((node.lineno, node.col_offset,
                      f"{path.name}:{node.lineno}: {ast.unparse(key)}"))
    return [line for _, _, line in sorted(found)]


def test_src_spells_value_set_keys_only_in_threshold_key():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules for line in _spelled_keys(path)] == []


def test_the_check_sees_a_spelled_key(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("def f(report, ind, key, d):\n"
                      "    value_sets = {'links': ind.triangle}\n"
                      "    value_sets['links'] = ind.values\n"
                      "    a = report.thresholds[threshold_key('margin', d, (0, 1))]\n"
                      "    b = ind.statistics['links'], report.value_sets[key]\n"
                      "    c = report.thresholds['revision_cited'], ind.statistics[f'tri_{d}']\n"
                      "    thresholds = report.thresholds\n"
                      "    e = thresholds['margin_01_cited'], value_sets[key + '_x']\n"
                      "    return report.other['x'], ind.value_sets[0], a, b, c, e\n",
                      encoding="utf-8")
    assert _spelled_keys(source) == [
        "module.py:6: 'revision_cited'", "module.py:6: f'tri_{d}'",
        "module.py:8: 'margin_01_cited'", "module.py:8: key + '_x'", "module.py:9: 0",
    ]


# Float reductions: numpy's and the builtin sums, means and SDs, math.fsum,
# np.add.at and the like, and a weighted np.bincount.
_REDUCING_ATTRIBUTES = {"sum", "nansum", "mean", "std", "var", "fsum"}
_ADD_METHODS = {"at", "reduce", "reduceat", "accumulate"}

# The functions whose bodies may sum floats, each with its reason.
_LOUVAIN_LEVELS = (
    "Louvain's level arithmetic: its seeded shuffle visits nodes by position, so "
    "exact sums here would make no result name-independent, and could move partitions"
)
_EXEMPT = {
    "segment_fsum": "the exact-sum routine itself",
    "_merge": _LOUVAIN_LEVELS + " (the edge merge of every level)",
    "_aggregate": _LOUVAIN_LEVELS + " (a level's strengths)",
    "louvain": _LOUVAIN_LEVELS + " (the top level's strengths)",
}


def _float_sums_outside_segment_fsum(path: Path) -> list[str]:
    """``file:line: call`` for each float reduction in ``path``, in source
    order, outside the bodies of the ``_EXEMPT`` functions: a call of the
    builtin ``sum``, of any attribute in ``_REDUCING_ATTRIBUTES``
    (``np.sum``, ``values.sum``, ``math.fsum``, ...), of ``add.at`` and the
    other ``_ADD_METHODS`` of ``add``, or of ``bincount`` with weights."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def reduces(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id == "sum"
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr == "bincount":
            return len(call.args) > 1 or any(kw.arg == "weights" for kw in call.keywords)
        return func.attr in _REDUCING_ATTRIBUTES or (
            func.attr in _ADD_METHODS
            and isinstance(func.value, ast.Attribute) and func.value.attr == "add")

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside or child.name in _EXEMPT)
                continue
            visit(child, inside)
            if isinstance(child, ast.Call) and not inside and reduces(child):
                line = f"{path.name}:{child.lineno}: {ast.unparse(child.func)}"
                found.append((child.lineno, child.col_offset, line))

    visit(tree, False)
    return [line for _, _, line in sorted(found)]


def test_entropy_and_flags_sum_floats_only_in_segment_fsum():
    # One routine rounds every float sum: the grand sums, means and SDs
    # through ordered_fsum, its one-segment case, and the journal margins.
    modules = [PACKAGE / "entropy.py", PACKAGE / "flags.py"]
    assert [line for path in modules for line in _float_sums_outside_segment_fsum(path)] == []


def test_the_network_sums_floats_only_in_segment_fsum():
    # The total weight, every Q and the VOSviewer strengths are exactly
    # rounded too; Louvain's levels are exempt (see _EXEMPT).
    modules = [PACKAGE / "netgraph.py", PACKAGE / "io_export.py"]
    assert [line for path in modules for line in _float_sums_outside_segment_fsum(path)] == []


def test_the_check_sees_a_float_sum(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import math\nimport numpy as np\n\n"
                      "def segment_fsum(index, values, n):\n"
                      "    def inner(v):\n        return v.sum() + math.fsum(v)\n"
                      "    return np.bincount(index, weights=values, minlength=n) + sum(values)\n\n"
                      "def margins(index, values, n):\n"
                      "    counts = np.bincount(index, minlength=n)\n"
                      "    totals = np.bincount(index, values, n) + np.bincount(index, weights=values)\n"
                      "    np.add.at(totals, index, values)\n"
                      "    return totals, np.cumsum(counts), np.multiply.reduce(values)\n\n"
                      "class Stats:\n"
                      "    def mean(self, v):\n"
                      "        return np.sum(v) / v.size + sum(v) + v.mean() + math.fsum(v)\n"
                      "    def spread(self, v):\n        return np.add.reduce(v), np.std(v)\n",
                      encoding="utf-8")
    assert _float_sums_outside_segment_fsum(source) == [
        "module.py:11: np.bincount", "module.py:11: np.bincount", "module.py:12: np.add.at",
        "module.py:17: np.sum", "module.py:17: sum", "module.py:17: v.mean",
        "module.py:17: math.fsum", "module.py:19: np.add.reduce", "module.py:19: np.std",
    ]


def test_the_check_honours_the_exempt_functions(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import numpy as np\n\n"
                      "def _merge(a, w, n):\n"
                      "    return np.bincount(a, weights=w, minlength=n)\n\n"
                      "def louvain(adj):\n"
                      "    def strengths():\n        return [sum(row.values()) for row in adj]\n"
                      "    return strengths()\n\n"
                      "def total(w):\n    return sum(w)\n",
                      encoding="utf-8")
    assert {"_merge", "louvain"} <= set(_EXEMPT)
    assert _float_sums_outside_segment_fsum(source) == ["module.py:12: sum"]
