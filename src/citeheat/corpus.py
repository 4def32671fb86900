"""Ingest per-year citation edge lists into an aligned three-year count tensor.

Input is one TSV edge list per year (``citing<TAB>cited<TAB>count``, ``#``
comments, UTF-8; LF, CRLF or CR line ends all read as LF, and lines of
whitespace only are skipped) plus an optional rename table
(``old<TAB>new``). Names are compared byte-exactly after NFC normalization
and trimming of leading/trailing ASCII whitespace; records of one (citing,
cited) pair sum, also after renames resolve to terminal names. The node set
is then restricted to journals that are actively citing (appear on the
citing side of at least one edge) in all three years, and the three
matrices are aligned over one dense id space, in lexicographic name order,
with per-transition validity masks.

From the first parsed line on, a year is coordinate arrays over a name
table. Renames map each year's cells onto one shared table, the renamed
names of every year, and sum the cells that then share a (citing, cited)
pair; alignment merges integer keys ``citing * N + cited``.
"""

from __future__ import annotations

import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError

if TYPE_CHECKING:
    from .flags import Indicators


# Year-pair transitions, as (prior index, posterior index) into the ordered
# three-year window: t0->t1, t1->t2, t0->t2.
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (1, 2), (0, 2))

_ASCII_WS = " \t\n\r\v\f"


def normalize_name(name: str) -> str:
    """NFC-normalize and trim ASCII whitespace; identity for clean names."""
    return unicodedata.normalize("NFC", name).strip(_ASCII_WS)


@dataclass(frozen=True)
class JournalRegistry:
    """Canonical node identities after rename resolution.

    ``names`` is lexicographically sorted; a name's position is its internal
    id, so ids are contiguous 0..N-1 and reproducible across platforms.
    ``alias_map`` sends every known historical name (and every canonical
    name, to itself) to its terminal canonical name.
    """

    names: tuple[str, ...]
    alias_map: Mapping[str, str] = field(hash=False)

    def __len__(self) -> int:
        return len(self.names)

    def resolve(self, name: str) -> str:
        """Map a known name to its canonical form (idempotent). Only the
        registry of ``apply_name_changes`` knows historical names; a tensor's
        knows the names after renames, which ``--exclude`` therefore takes."""
        name = normalize_name(name)
        try:
            return self.alias_map[name]
        except KeyError:
            raise DataError(f"unknown journal name: {name!r}") from None

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "JournalRegistry":
        canon = tuple(sorted(set(names)))
        return cls(names=canon, alias_map={n: n for n in canon})


@dataclass(frozen=True, eq=False)
class YearMatrix:
    """One year of citation counts as coordinate arrays over a name table.

    ``citing``, ``cited`` and ``counts`` are int64 arrays of equal length;
    ids index ``names``, a sorted tuple of distinct journal names. Cells are
    distinct, sorted ascending by (citing, cited) and have counts > 0, so a
    zero cell is absent. Renamed years share the registry's name table,
    which may hold names that one year does not use.
    """

    year_label: str
    names: tuple[str, ...]
    citing: np.ndarray
    cited: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_cells(cls, year_label: str, cells: Mapping[tuple[str, str], int]) -> "YearMatrix":
        """Build a year from a ``(citing, cited) -> count`` map of names."""
        if any(count <= 0 for count in cells.values()):
            raise DataError(f"year {year_label!r}: counts must be positive")
        # Raw id 2i labels cell i's citing name and 2i+1 its cited name.
        names = [name for pair in cells for name in pair]
        ids = np.arange(len(names), dtype=np.int64)
        return _coalesce(year_label, names, ids[0::2], ids[1::2], list(cells.values()))


def _coalesce(year_label, names, citing, cited, counts, table=None) -> YearMatrix:
    """The one way a YearMatrix is built: ``names[i]`` labels raw id ``i``
    and may repeat (two spellings, or two names renamed to one). Ids move
    onto ``table`` (by default the sorted distinct labels) and cells that
    then share a (citing, cited) key are summed."""
    if table is None:
        table = tuple(sorted(set(names)))
    index = {name: i for i, name in enumerate(table)}
    remap = np.fromiter((index[name] for name in names), np.int64, len(names))
    n = len(table)
    keys = remap[np.asarray(citing, np.int64)] * n + remap[np.asarray(cited, np.int64)]
    unique, inverse = np.unique(keys, return_inverse=True)
    summed = np.zeros(unique.size, dtype=np.int64)
    np.add.at(summed, inverse, np.asarray(counts, dtype=np.int64))
    return YearMatrix(year_label, table, unique // n, unique % n, summed)


@contextmanager
def open_utf8(path: str | Path) -> Iterator[TextIO]:
    """Open a user-supplied text file; a leading UTF-8 byte-order mark is
    dropped, and bytes that are not UTF-8 raise a DataError naming the
    file. The text is decoded in chunks, so the message cannot name the
    line."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid utf-8 ({exc.reason})") from None


def parse_edge_list(path: str | Path, year_label: str) -> YearMatrix:
    """Read one year's TSV edge list; duplicate (citing, cited) records sum.

    Each distinct raw name field is normalized once and interned to an id,
    so spellings that normalize alike share a journal. Raises DataError
    naming the offending line for malformed records, counts that are not
    ASCII decimal integers, and non-positive or int64-overflowing counts;
    I/O failures propagate as OSError.
    """
    ids: dict[str, int] = {}
    names: list[str] = []
    records: list[int] = []  # citing id, cited id, count per record

    def intern(raw: str, lineno: int) -> int:
        if raw in ids:
            return ids[raw]
        name = normalize_name(raw)
        if not name:
            raise DataError(f"{path}:{lineno}: empty journal name")
        ids[raw] = len(names)
        names.append(name)
        return ids[raw]

    # A record of known names and a short count passes each test at its
    # first probe. A line of whitespace only fails one of the three tests
    # (field count, known names, count), so only a miss checks for it.
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line[0] == "#":
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                if not line.strip():
                    continue
                raise DataError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            source, target, raw_count = fields
            try:
                c, d = ids[source], ids[target]
            except KeyError:
                if not line.strip():
                    continue
                c, d = intern(source, lineno), intern(target, lineno)
            # Up to 18 ASCII digits is below 2**63. int() alone would also
            # read "1_0", " 3" or an Arabic-Indic digit; zero and every
            # other spelling go to _count.
            if raw_count.isdigit() and raw_count.isascii() and len(raw_count) < 19:
                count = int(raw_count)
            else:
                count = 0
            if not count:
                if not line.strip():
                    continue
                count = _count(raw_count, path, lineno)
            records += (c, d, count)
    if sum(records[2::3]) >= 2**63:  # cell sums are int64
        raise DataError(f"{path}: counts sum past the int64 range")
    rows = np.asarray(records, dtype=np.int64).reshape(-1, 3)
    return _coalesce(year_label, names, rows[:, 0], rows[:, 1], rows[:, 2])


def _count(raw: str, path: str | Path, lineno: int) -> int:
    """A count outside the fast path of parse_edge_list: the positive int64
    value of ``raw``, or a DataError naming the line."""
    # A leading "-" goes on to "must be positive".
    digits = raw.removeprefix("-")
    if not (digits.isdigit() and digits.isascii()):
        raise DataError(f"{path}:{lineno}: count is not an integer: {raw!r}")
    try:
        count = int(raw)
    except ValueError:  # more digits than int() converts (4300 by default)
        raise DataError(
            f"{path}:{lineno}: count past the int64 range: {len(digits)} digits"
        ) from None
    if count <= 0:
        raise DataError(f"{path}:{lineno}: count must be positive, got {count}")
    if count >= 2**63:
        raise DataError(f"{path}:{lineno}: count past the int64 range: {count}")
    return count


def parse_rename_file(path: str | Path) -> list[tuple[str, str]]:
    """Read the rename table: ``old_name<TAB>new_name``, ``#`` comments."""
    renames: list[tuple[str, str]] = []
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise DataError(
                    f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
                )
            old, new = normalize_name(fields[0]), normalize_name(fields[1])
            if not old or not new:
                raise DataError(f"{path}:{lineno}: empty journal name")
            renames.append((old, new))
    return renames


def _resolve_renames(renames: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Collapse a rename relation to terminal names; cycles are input errors."""
    direct: dict[str, str] = {}
    for old, new in renames:
        old, new = normalize_name(old), normalize_name(new)
        if old == new:
            # logging (with traceback and string) is imported for this
            # warning only, so a run without a self-rename never loads it.
            import logging

            logging.getLogger(__name__).warning("ignoring self-rename of %r", old)
            continue
        if old in direct and direct[old] != new:
            raise DataError(f"conflicting renames for {old!r}: {direct[old]!r} vs {new!r}")
        direct[old] = new

    terminal: dict[str, str] = {}
    for start in direct:
        seen = [start]
        current = start
        while current in direct:
            current = direct[current]
            if current in seen:
                raise DataError(f"rename cycle through {current!r}")
            seen.append(current)
        for name in seen[:-1]:
            terminal[name] = current
    return terminal


def apply_name_changes(
    matrices: Sequence[YearMatrix], renames: Iterable[tuple[str, str]]
) -> tuple[JournalRegistry, list[YearMatrix]]:
    """Rewrite all years under terminal canonical names, summing collisions.

    Renames apply globally to every year; the registry holds the canonical
    form of every name in the years' name tables, and is the name table of
    every renamed year. Grand totals are conserved exactly.
    """
    terminal = _resolve_renames(renames)
    renamed_names = [[terminal.get(n, n) for n in m.names] for m in matrices]
    names = tuple(sorted({n for year in renamed_names for n in year}))
    renamed = [
        _coalesce(m.year_label, year, m.citing, m.cited, m.counts, table=names)
        for m, year in zip(matrices, renamed_names)
    ]

    alias_map = {n: n for n in names}
    for old, new in terminal.items():
        if new in alias_map:
            alias_map[old] = new
    registry = JournalRegistry(names=names, alias_map=alias_map)
    return registry, renamed


def read_only(array) -> np.ndarray:
    """A view of ``array`` that refuses writes (``ValueError``)."""
    view = np.asarray(array).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class AlignedTensor:
    """Three year-aligned sparse count matrices over one common id space.

    Cells are stored coordinate-wise, sorted ascending by (citing, cited) —
    the canonical reduction order used throughout. ``counts[y, i]`` is the
    cell's count in year ``y`` (0 where absent). ``citing``, ``cited`` and
    ``counts`` are read-only views, and so is every array derived from
    them here.

    A tensor computes its derived arrays once and keeps them while it
    lives: grand totals, relative frequencies, validity masks and, in
    ``indicators``, every k-independent quantity of a flag report. A k sweep
    over one tensor therefore pays for the indicators once; a tensor from
    ``remove_outliers`` is a new tensor with its own cache. The cached
    values are deterministic functions of the immutable arrays, so the
    tensor is safe to share across threads: two threads that race on a
    first access compute the same values.
    """

    registry: JournalRegistry
    year_labels: tuple[str, str, str]
    citing: np.ndarray
    cited: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        for name in ("citing", "cited", "counts"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    @property
    def n_nodes(self) -> int:
        return len(self.registry)

    @property
    def n_cells(self) -> int:
        return int(self.citing.shape[0])

    @cached_property
    def grand_totals(self) -> np.ndarray:
        return read_only(self.counts.sum(axis=1))

    @cached_property
    def _frequencies(self) -> np.ndarray:
        totals = self.grand_totals[:, None]
        out = np.zeros(self.counts.shape)
        np.divide(self.counts, totals, out=out, where=totals > 0)
        return read_only(out)

    def frequencies(self, year: int) -> np.ndarray:
        """Grand-total relative frequencies of every stored cell in a year."""
        if self.grand_totals[year] == 0:
            raise DataError(f"year {self.year_labels[year]!r} has no citations")
        return self._frequencies[year]

    @cached_property
    def _positive(self) -> np.ndarray:
        return read_only(self.counts > 0)

    def pair_valid(self, pair: tuple[int, int]) -> np.ndarray:
        """Cells usable for the pair's prediction: prior-year count > 0."""
        if pair not in PAIRS:
            raise ValueError(f"unknown year pair {pair!r}")
        prior, _ = pair
        return self._positive[prior]

    @cached_property
    def tri_valid(self) -> np.ndarray:
        """Cells with a positive count in all three years."""
        return read_only(self._positive.all(axis=0))

    @cached_property
    def indicators(self) -> Indicators:
        """The k-independent half of every flag report on this tensor,
        computed on first use."""
        # Imported at call time: flags builds on this module.
        from .flags import evaluate_indicators

        return evaluate_indicators(self)

    def pair_label(self, pair: tuple[int, int]) -> str:
        return f"{self.year_labels[pair[0]]}->{self.year_labels[pair[1]]}"


def build_common_set(
    registry: JournalRegistry, matrices: Sequence[YearMatrix]
) -> AlignedTensor:
    """Restrict three year matrices to the actively-citing common set.

    A node is retained only if it appears on the citing side of at least one
    edge in every year; retained nodes keep both their rows and columns,
    everything else is dropped. Ids are reassigned lexicographically over the
    retained names, so the result is independent of input order. Every
    matrix's name table must be the registry's, as ``apply_name_changes``
    returns them, so its ids are registry ids.
    """
    if len(matrices) != 3:
        raise DataError(f"exactly 3 year matrices required, got {len(matrices)}")

    common = np.ones(len(registry), dtype=bool)
    for matrix in matrices:
        if matrix.names != registry.names:
            raise DataError(f"year {matrix.year_label!r}: its name table is not the registry's; "
                            "pass the years apply_name_changes returns")
        common &= np.bincount(matrix.citing, minlength=len(registry)) > 0
    if not common.any():
        raise DataError("no journal is actively citing in all three years")

    # Registry names are sorted, so numbering the common ids in order keeps
    # the ids lexicographic over the retained names.
    sub_registry = JournalRegistry.from_names(n for n, keep in zip(registry.names, common) if keep)
    n = len(sub_registry)
    new_id = np.cumsum(common, dtype=np.int64) - 1
    keys, kept = [], []
    for matrix in matrices:
        keep = common[matrix.citing] & common[matrix.cited]
        keys.append(new_id[matrix.citing[keep]] * n + new_id[matrix.cited[keep]])
        kept.append(matrix.counts[keep])
    unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    aligned = np.zeros((3, unique.size), dtype=np.int64)
    aligned[np.repeat(np.arange(3), [k.size for k in keys]), inverse] = np.concatenate(kept)
    return AlignedTensor(
        registry=sub_registry,
        year_labels=tuple(m.year_label for m in matrices),
        citing=unique // n,
        cited=unique % n,
        counts=aligned,
    )
