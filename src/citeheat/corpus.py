"""Ingest per-year citation edge lists into an aligned three-year count tensor.

Input is one TSV edge list per year (``citing<TAB>cited<TAB>count``, ``#``
comments, UTF-8, LF) plus an optional rename table (``old<TAB>new``). Names
are compared byte-exactly after NFC normalization and trimming of
leading/trailing ASCII whitespace. After renames are resolved, the node set
is restricted to journals that are actively citing (appear on the citing
side of at least one edge) in all three years, and the three matrices are
aligned over one dense id space with per-transition validity masks.
"""

from __future__ import annotations

import logging
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

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
    alias_map: Mapping[str, str]

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def resolve(self, name: str) -> str:
        """Map any historical name to its canonical form (idempotent)."""
        name = normalize_name(name)
        try:
            return self.alias_map[name]
        except KeyError:
            raise DataError(f"unknown journal name: {name!r}") from None

    def id_of(self, name: str) -> int:
        return self._ids[self.resolve(name)]

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "JournalRegistry":
        canon = tuple(sorted(set(names)))
        return cls(names=canon, alias_map={n: n for n in canon})


@dataclass(frozen=True)
class YearMatrix:
    """One year of citation counts as a sparse (citing, cited) -> count map.

    Zero-count cells are absent by construction. In the matrix picture rows
    are the cited side and columns the citing side, so ``cited_totals`` are
    row totals and ``citing_totals`` column totals. Keys are journal names
    during ingestion and dense integer ids inside an AlignedTensor.
    """

    year_label: str
    cells: dict

    @cached_property
    def grand_total(self) -> int:
        return sum(self.cells.values())

    @cached_property
    def citing_totals(self) -> dict:
        totals: dict = {}
        for (citing, _), count in self.cells.items():
            totals[citing] = totals.get(citing, 0) + count
        return totals

    @cached_property
    def cited_totals(self) -> dict:
        totals: dict = {}
        for (_, cited), count in self.cells.items():
            totals[cited] = totals.get(cited, 0) + count
        return totals

    def nodes(self) -> set:
        seen = set()
        for citing, cited in self.cells:
            seen.add(citing)
            seen.add(cited)
        return seen


@contextmanager
def open_utf8(path: str | Path) -> Iterator[TextIO]:
    """Open a user-supplied text file; bytes that are not UTF-8 raise a
    DataError naming the file. The text is decoded in chunks, so the
    message cannot name the line."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid utf-8 ({exc.reason})") from None


def parse_edge_list(path: str | Path, year_label: str) -> YearMatrix:
    """Read one year's TSV edge list; duplicate (citing, cited) records sum.

    Raises DataError naming the offending line for malformed records or
    non-positive counts; I/O failures propagate as OSError.
    """
    cells: dict[tuple[str, str], int] = {}
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").rstrip("\r").split("\t")
            if len(fields) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            citing = normalize_name(fields[0])
            cited = normalize_name(fields[1])
            if not citing or not cited:
                raise DataError(f"{path}:{lineno}: empty journal name")
            try:
                count = int(fields[2])
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: count is not an integer: {fields[2]!r}"
                ) from None
            if count <= 0:
                raise DataError(f"{path}:{lineno}: count must be positive, got {count}")
            key = (citing, cited)
            cells[key] = cells.get(key, 0) + count
    return YearMatrix(year_label=year_label, cells=cells)


def parse_rename_file(path: str | Path) -> list[tuple[str, str]]:
    """Read the rename table: ``old_name<TAB>new_name``, ``#`` comments."""
    renames: list[tuple[str, str]] = []
    with open_utf8(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").rstrip("\r").split("\t")
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
            log.warning("ignoring self-rename of %r", old)
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
            if current == start:
                raise DataError(f"rename cycle through {start!r}")
            seen.append(current)
            if len(seen) > len(direct) + 1:
                raise DataError(f"rename cycle through {start!r}")
        for name in seen[:-1]:
            terminal[name] = current
    return terminal


def apply_name_changes(
    matrices: Sequence[YearMatrix], renames: Iterable[tuple[str, str]]
) -> tuple[JournalRegistry, list[YearMatrix]]:
    """Rewrite all years under terminal canonical names, summing collisions.

    Renames apply globally to every year; the registry covers the union of
    canonical names observed in the renamed matrices. Grand totals are
    conserved exactly.
    """
    terminal = _resolve_renames(renames)

    renamed: list[YearMatrix] = []
    observed: set[str] = set()
    for matrix in matrices:
        cells: dict[tuple[str, str], int] = {}
        for (citing, cited), count in matrix.cells.items():
            key = (terminal.get(citing, citing), terminal.get(cited, cited))
            cells[key] = cells.get(key, 0) + count
        renamed.append(YearMatrix(year_label=matrix.year_label, cells=cells))
        observed.update(renamed[-1].nodes())

    names = tuple(sorted(observed))
    alias_map = {n: n for n in names}
    for old, new in terminal.items():
        if new in alias_map:
            alias_map[old] = new
    registry = JournalRegistry(names=names, alias_map=alias_map)
    return registry, renamed


@dataclass(frozen=True)
class AlignedTensor:
    """Three year-aligned sparse count matrices over one common id space.

    Cells are stored coordinate-wise, sorted ascending by (citing, cited) —
    the canonical reduction order used throughout. ``counts[y, i]`` is the
    cell's count in year ``y`` (0 where absent). Immutable after build;
    safe to share across threads.
    """

    registry: JournalRegistry
    year_labels: tuple[str, str, str]
    citing: np.ndarray
    cited: np.ndarray
    counts: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.registry)

    @property
    def n_cells(self) -> int:
        return int(self.citing.shape[0])

    @cached_property
    def grand_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def frequencies(self, year: int) -> np.ndarray:
        """Grand-total relative frequencies of every stored cell in a year."""
        total = int(self.grand_totals[year])
        if total == 0:
            raise DataError(f"year {self.year_labels[year]!r} has no citations")
        return self.counts[year] / total

    def pair_valid(self, pair: tuple[int, int]) -> np.ndarray:
        """Cells usable for the pair's prediction: prior-year count > 0."""
        if pair not in PAIRS:
            raise ValueError(f"unknown year pair {pair!r}")
        prior, _ = pair
        return self.counts[prior] > 0

    @cached_property
    def tri_valid(self) -> np.ndarray:
        """Cells with a positive count in all three years."""
        return (self.counts > 0).all(axis=0)

    def pair_label(self, pair: tuple[int, int]) -> str:
        return f"{self.year_labels[pair[0]]}->{self.year_labels[pair[1]]}"

    def year_matrix(self, year: int) -> YearMatrix:
        """Id-keyed sparse view of one year (zero cells absent)."""
        present = self.counts[year] > 0
        cells = {
            (int(c), int(d)): int(n)
            for c, d, n in zip(
                self.citing[present], self.cited[present], self.counts[year][present]
            )
        }
        return YearMatrix(year_label=self.year_labels[year], cells=cells)

    @classmethod
    def from_year_cells(
        cls,
        registry: JournalRegistry,
        year_labels: Sequence[str],
        year_cells: Sequence[Mapping[tuple[int, int], int]],
    ) -> "AlignedTensor":
        """Assemble the tensor from three id-keyed cell maps."""
        union: set[tuple[int, int]] = set()
        for cells in year_cells:
            union.update(cells)
        order = sorted(union)
        n = len(order)
        citing = np.fromiter((c for c, _ in order), dtype=np.int64, count=n)
        cited = np.fromiter((d for _, d in order), dtype=np.int64, count=n)
        counts = np.zeros((3, n), dtype=np.int64)
        for y, cells in enumerate(year_cells):
            counts[y] = np.fromiter((cells.get(key, 0) for key in order), dtype=np.int64, count=n)
        return cls(
            registry=registry,
            year_labels=tuple(year_labels),
            citing=citing,
            cited=cited,
            counts=counts,
        )


def build_common_set(
    registry: JournalRegistry, matrices: Sequence[YearMatrix]
) -> AlignedTensor:
    """Restrict three name-keyed matrices to the actively-citing common set.

    A node is retained only if it appears on the citing side of at least one
    edge in every year; retained nodes keep both their rows and columns,
    everything else is dropped. Ids are reassigned lexicographically over the
    retained names, so the result is independent of input order.
    """
    if len(matrices) != 3:
        raise DataError(f"exactly 3 year matrices required, got {len(matrices)}")

    active_sets = [set(m.citing_totals) for m in matrices]
    common = set.intersection(*active_sets)
    if not common:
        raise DataError("no journal is actively citing in all three years")
    unknown = common - set(registry.names)
    if unknown:
        raise DataError(f"matrices contain names outside the registry: {sorted(unknown)[:5]}")

    sub_registry = JournalRegistry.from_names(common)
    ids = {name: i for i, name in enumerate(sub_registry.names)}
    year_cells = []
    for matrix in matrices:
        cells = {
            (ids[citing], ids[cited]): count
            for (citing, cited), count in matrix.cells.items()
            if citing in ids and cited in ids
        }
        year_cells.append(cells)

    labels = tuple(m.year_label for m in matrices)
    return AlignedTensor.from_year_cells(sub_registry, labels, year_cells)


def relative_frequencies(matrix: YearMatrix) -> dict:
    """Map every stored cell to count / grand_total (sums to 1)."""
    total = matrix.grand_total
    if total == 0:
        raise DataError(f"year {matrix.year_label!r} is empty")
    return {key: count / total for key, count in matrix.cells.items()}
