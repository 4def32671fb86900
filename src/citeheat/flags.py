"""Turn entropy quantities into flag sets via mean +/- k*SD thresholds.

The benchmark is always the mean of the respective value set, not zero,
because the divergences are necessarily positive in aggregate. All
comparisons are strict: a value exactly on a threshold is not flagged
("more than" a standard deviation).

``compute_threshold`` is the only code that takes a mean or SD. A flag
report has two halves. ``evaluate_indicators`` computes the half that does
not depend on k: the per-cell indicators, the self-citation scores, the 11
value sets (``value_sets``: the journal margins and the link scores) and,
under the same keys, their means and SDs. It runs once per tensor, and the
tensor keeps the result (``AlignedTensor.indicators``), so a k sweep over
one tensor pays only for the second half. ``build_flag_report`` derives the link threshold from the
stored mean and SD and applies the link rule; that is all a report builds
up front. ``FlagReport.thresholds`` and the four journal families
(``FAMILIES``) are views, derived from the same stored statistics and k on
first read; one pass builds all four families, so a caller that reads only
the links never pays for them. Each flag rule compares its value set to
its threshold once and gathers only the flagged entries.

A ``FlagReport`` is an ``Indicators`` that adds the second half: it exposes
the tensor's own indicator objects, ``value_sets`` and ``statistics``
included, and every report on a tensor shares their read-only mappings.
Each key is ``links`` or spelled by ``threshold_key``, and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import PAIRS, AlignedTensor, JournalRegistry, read_only
from .entropy import (
    DIRECTIONS,
    UNIT_SCALE,
    Cells,
    RevisionCells,
    cell_divergence,
    margin_totals,
    ordered_fsum,
    revision_of_prediction,
    triangle_evaluation,
)
from .errors import DataError

# The journal families of a FlagReport, in the order journal_flags.json
# documents its "counts" and "flagged" keys.
FAMILIES = ("monotonic_up", "monotonic_down", "revision_flagged", "triangle_flagged_nodes")


@dataclass(frozen=True)
class ThresholdSpec:
    """Mean +/- k*SD bounds over one value set (population SD, bits)."""

    k: float
    mean: float
    sd: float
    upper: float
    lower: float

    @classmethod
    def of(cls, mean: float, sd: float, k: float) -> "ThresholdSpec":
        """The bounds mean +/- k*sd; every computed threshold is built here."""
        return cls(k=k, mean=mean, sd=sd, upper=mean + k * sd, lower=mean - k * sd)


def compute_threshold(values: np.ndarray, k: float) -> ThresholdSpec:
    """Population mean/SD of a value set and the derived flag bounds.

    Population SD (divide by N): the node or cell set is the full population.
    Both sums are exactly rounded and the SD takes two passes, so the strict
    flag comparisons do not depend on the platform's summation order.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DataError("cannot compute a threshold over an empty value set")
    mean = ordered_fsum(values) / values.size
    sd = math.sqrt(ordered_fsum((values - mean) ** 2) / values.size)
    return ThresholdSpec.of(mean, sd, k)


def threshold_key(family: str, direction: str, pair: tuple[int, int] | None = None) -> str:
    """Key of a journal value set in ``value_sets``, ``statistics`` and
    ``thresholds``: ``margin_<ab>_<dir>`` for a transition pair,
    ``<family>_<dir>`` otherwise."""
    if pair is not None:
        family = f"{family}_{pair[0]}{pair[1]}"
    return f"{family}_{direction}"


def _monotonic(
    values_01: np.ndarray, values_12: np.ndarray, t01: ThresholdSpec, t12: ThresholdSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Ids beyond the per-pair thresholds in BOTH consecutive intervals.

    Up: above mean + k*sd in both t0->t1 and t1->t2; down: below mean - k*sd
    in both. Thresholds are computed per pair, never pooled.
    """
    up = (values_01 > t01.upper) & (values_12 > t12.upper)
    down = (values_01 < t01.lower) & (values_12 < t12.lower)
    return read_only(np.flatnonzero(up)), read_only(np.flatnonzero(down))


def _below_lower(values: np.ndarray, threshold: ThresholdSpec) -> np.ndarray:
    """Ids strictly below mean - k*sd. For the revision, the in-between
    year significantly worsens the prediction (a discontinuity); for the
    triangle margins, as for the links, shares moved monotonically."""
    return read_only(np.flatnonzero(values < threshold.lower))


def flag_links(
    triangle: Cells, threshold: ThresholdSpec, drop_loops: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells whose triangle score is strictly below ``threshold.lower``, as
    three read-only arrays in cell order: citing ids, cited ids and scores.

    ``build_flag_report`` takes the threshold over all evaluated cells, the
    diagonal included; with ``drop_loops`` the self-citation cells are
    removed from the flagged set afterwards, matching the network analysis.
    One comparison over the scores gives the flagged cells' indices; the
    loop test and the three gathers touch those cells only.
    """
    hot = np.flatnonzero(triangle.values < threshold.lower)
    if drop_loops:
        hot = hot[triangle.citing[hot] != triangle.cited[hot]]
    return tuple(read_only(a[hot]) for a in (triangle.citing, triangle.cited, triangle.values))


def remove_outliers(tensor: AlignedTensor, nodes: Sequence[str]) -> AlignedTensor:
    """Delete the named journals' rows and columns and renormalize.

    Remaining counts are untouched; only the grand totals (and therefore the
    relative frequencies, masks and downstream thresholds) change. Ids are
    reassigned contiguously over the surviving names.
    """
    if isinstance(nodes, str):
        raise ValueError(f"outliers must be a list of journal names, got the string {nodes!r}")
    if not nodes:
        return tensor
    drop_names = {tensor.registry.resolve(n) for n in nodes}
    keep_node = np.array([n not in drop_names for n in tensor.registry.names], dtype=bool)
    if not keep_node.any():
        raise DataError("outlier removal would empty the node set")
    # Names are sorted, so numbering the survivors in order keeps the cells
    # sorted by (citing, cited) without a re-sort.
    remap = np.cumsum(keep_node, dtype=np.int64) - 1
    keep = keep_node[tensor.citing] & keep_node[tensor.cited]
    return AlignedTensor(
        registry=JournalRegistry.from_names(
            n for n in tensor.registry.names if n not in drop_names
        ),
        year_labels=tensor.year_labels,
        citing=remap[tensor.citing[keep]],
        cited=remap[tensor.cited[keep]],
        counts=tensor.counts[:, keep],
    )


@dataclass(frozen=True, eq=False)
class Indicators:
    """The k-independent half of a flag report, computed once per tensor.

    Its ``entropy.Cells`` build each ``grand_sum`` on first read and keep
    it, so the reports on a tensor share one sum per cell set.
    ``value_sets`` holds each thresholded value set by ``threshold_key``
    name: the cited and citing margin totals of each transition's cells,
    the revision's and the triangle's, and under ``links`` the triangle
    scores. ``statistics`` holds, under the same keys, each set's threshold
    at k = 0: its mean and SD serve every k. ``loop_scores`` holds the
    triangle scores of the self-citation cells in cell order, which
    ``FlagReport.loops_flagged`` counts. Every array is read-only and every
    mapping a read-only ``MappingProxyType``, so reports share them safely.
    """

    transitions: Mapping[tuple[int, int], Cells]
    revision: RevisionCells
    triangle: Cells
    loop_scores: np.ndarray
    value_sets: Mapping[str, np.ndarray]
    statistics: Mapping[str, ThresholdSpec]


def evaluate_indicators(tensor: AlignedTensor) -> Indicators:
    """Every indicator family over the tensor, its value sets and the mean
    and SD of each; read it through ``tensor.indicators``, which keeps it.

    Keys are ``threshold_key`` names and ``links``; the link statistics are
    taken over every evaluated cell, loops included.
    """
    transitions = {pair: cell_divergence(tensor, pair) for pair in PAIRS}
    revision = revision_of_prediction(tensor)
    triangle = triangle_evaluation(tensor)
    journal_cells = [("margin", pair, cells) for pair, cells in transitions.items()]
    journal_cells += [("revision", None, revision), ("triangle", None, triangle)]
    value_sets = {
        threshold_key(family, d, pair): read_only(margin_totals(cells, d))
        for family, pair, cells in journal_cells for d in DIRECTIONS
    }
    value_sets["links"] = triangle.values
    return Indicators(
        transitions=MappingProxyType(transitions),
        revision=revision,
        triangle=triangle,
        loop_scores=read_only(triangle.values[triangle.citing == triangle.cited]),
        value_sets=MappingProxyType(value_sets),
        statistics=MappingProxyType(
            {key: compute_threshold(values, 0.0) for key, values in value_sets.items()}
        ),
    )


@dataclass(frozen=True, eq=False)
class FlagReport(Indicators):
    """A tensor's indicators plus every threshold and flag set at one k.

    The inherited ``Indicators`` fields, ``value_sets`` and ``statistics``
    included, are the tensor's own objects, shared read-only by every report
    on it. Raw values stay in bits; ``unit`` only records how reports should
    be serialized. ``links`` holds the hot links as ``flag_links`` returns
    them, read-only arrays in cell order, and ``loops_flagged`` counts the
    self-citation cells below the link threshold that ``drop_loops`` left
    out (0 without it); both are built with the report.

    The rest are views, each built on first read and kept. ``thresholds``
    holds the one mean and SD of each value set, with this report's k, as a
    read-only mapping; its ``links`` entry equals the threshold the link
    rule used, and its keys are those of ``value_sets``. The four journal
    families, which ``FAMILIES`` names in the order of the
    journal_flags.json schema (``monotonic_up``, ``monotonic_down``,
    ``revision_flagged``, ``triangle_flagged_nodes``), map each direction
    to a read-only, ascending int64 array of ids over ``tensor.registry``
    (the post-outlier-removal registry), as ``links`` holds its ids. They
    are built together, by one pass over the thresholds, on the first read
    of any one of them; a sweep that reads only ``links`` builds none.
    ``hot_links`` is ``links`` as ``(int, int, float)`` tuples.
    ``outliers_removed`` names each removed journal once, by its registry
    name, in registry order.
    """

    tensor: AlignedTensor
    unit: str
    k: float
    drop_loops: bool
    outliers_removed: tuple[str, ...]
    links: tuple[np.ndarray, np.ndarray, np.ndarray]
    loops_flagged: int = 0

    @cached_property
    def thresholds(self) -> Mapping[str, ThresholdSpec]:
        # Read-only: the journal families read it on their first read.
        k = self.k
        return MappingProxyType(
            {key: ThresholdSpec.of(s.mean, s.sd, k) for key, s in self.statistics.items()}
        )

    @cached_property
    def _families(self) -> dict[str, dict[str, np.ndarray]]:
        # One pass applies every family's rule, so the views share it.
        thresholds, value_sets = self.thresholds, self.value_sets
        families = {name: {} for name in FAMILIES}
        for d in DIRECTIONS:
            m01, m12 = threshold_key("margin", d, (0, 1)), threshold_key("margin", d, (1, 2))
            rev, tri = threshold_key("revision", d), threshold_key("triangle", d)
            flagged = (
                *_monotonic(value_sets[m01], value_sets[m12], thresholds[m01], thresholds[m12]),
                _below_lower(value_sets[rev], thresholds[rev]),
                _below_lower(value_sets[tri], thresholds[tri]),
            )
            for name, ids in zip(FAMILIES, flagged, strict=True):
                families[name][d] = ids
        return families

    @cached_property
    def monotonic_up(self) -> dict[str, np.ndarray]:
        return self._families["monotonic_up"]

    @cached_property
    def monotonic_down(self) -> dict[str, np.ndarray]:
        return self._families["monotonic_down"]

    @cached_property
    def revision_flagged(self) -> dict[str, np.ndarray]:
        return self._families["revision_flagged"]

    @cached_property
    def triangle_flagged_nodes(self) -> dict[str, np.ndarray]:
        return self._families["triangle_flagged_nodes"]

    @cached_property
    def hot_links(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(*(column.tolist() for column in self.links)))


def build_flag_report(
    tensor: AlignedTensor,
    k: float = 1.0,
    unit: str = "mbits",
    drop_loops: bool = True,
    outliers: Iterable[str] = (),
) -> FlagReport:
    """Apply mean +/- k*SD thresholds to the tensor's indicators.

    ``outliers`` are removed (rows and columns) before anything is computed,
    so every mean and SD reflects the reduced matrix; the reduced tensor is
    new, so its indicators are computed afresh. To sweep k with outliers
    removed, call ``remove_outliers`` once and pass its tensor. Threshold
    keys are ``threshold_key`` names and ``links``; the link threshold is
    taken over every evaluated cell, loops included. Only the links and
    ``loops_flagged`` are computed here; the thresholds and the journal
    flag sets are built on first read (see ``FlagReport``).
    """
    if not (math.isfinite(k) and k >= 0):
        raise ValueError(f"k must be a finite number >= 0, got {k}")
    if unit not in UNIT_SCALE:
        raise ValueError(f"unit must be one of {sorted(UNIT_SCALE)}, got {unit!r}")
    # A bare string goes on to remove_outliers, which refuses it.
    outliers = outliers if isinstance(outliers, str) else tuple(outliers)
    removed, names = (), tensor.registry.names
    if outliers:
        tensor = remove_outliers(tensor, outliers)
        removed = tuple(sorted(set(names).difference(tensor.registry.names)))

    ind = tensor.indicators
    stats = ind.statistics["links"]
    threshold = ThresholdSpec.of(stats.mean, stats.sd, k)
    loops_flagged = 0
    if drop_loops:
        loops_flagged = int(np.count_nonzero(ind.loop_scores < threshold.lower))

    # An Indicators caches nothing, so its vars are exactly its fields.
    return FlagReport(
        **vars(ind),
        tensor=tensor,
        unit=unit,
        k=k,
        drop_loops=drop_loops,
        outliers_removed=removed,
        links=flag_links(ind.triangle, threshold, drop_loops),
        loops_flagged=loops_flagged,
    )
