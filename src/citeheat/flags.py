"""Turn entropy quantities into flag sets via mean +/- k*SD thresholds.

The benchmark is always the mean of the respective value set, not zero,
because the divergences are necessarily positive in aggregate. All
comparisons are strict: a value exactly on a threshold is not flagged
("more than" a standard deviation).

``compute_threshold`` is the only code that takes a mean or SD. A flag
report has two halves. ``evaluate_indicators`` computes the half that does
not depend on k: the per-cell indicators, the journal margins and the mean
and SD of each of the 11 value sets. It runs once per tensor, and the tensor
keeps the result (``AlignedTensor.indicators``), so a k sweep over one
tensor pays only for the second half. ``build_flag_report`` then derives
each threshold from the stored mean and SD, keeps the thresholds in
``FlagReport.thresholds`` and applies them to every flag rule; the reports
read their statistics from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import PAIRS, AlignedTensor, JournalRegistry, read_only
from .entropy import (
    DIRECTIONS,
    UNIT_SCALE,
    RevisionCells,
    TransitionCells,
    TriangleCells,
    cell_divergence,
    margin_totals,
    revision_of_prediction,
    triangle_evaluation,
)
from .errors import DataError


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
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DataError("cannot compute a threshold over an empty value set")
    mean = float(np.mean(values))
    sd = float(np.std(values))
    return ThresholdSpec.of(mean, sd, k)


def threshold_key(family: str, direction: str, pair: tuple[int, int] | None = None) -> str:
    """Key of a journal value set in ``FlagReport.thresholds``:
    ``margin_<ab>_<dir>`` for a transition pair, ``<family>_<dir>`` otherwise."""
    if pair is not None:
        family = f"{family}_{pair[0]}{pair[1]}"
    return f"{family}_{direction}"


def _monotonic(
    values_01: np.ndarray, values_12: np.ndarray, t01: ThresholdSpec, t12: ThresholdSpec
) -> tuple[frozenset[int], frozenset[int]]:
    """Nodes beyond the per-pair thresholds in BOTH consecutive intervals.

    Up: above mean + k*sd in both t0->t1 and t1->t2; down: below mean - k*sd
    in both. Thresholds are computed per pair, never pooled.
    """
    up = (values_01 > t01.upper) & (values_12 > t12.upper)
    down = (values_01 < t01.lower) & (values_12 < t12.lower)
    return frozenset(np.flatnonzero(up).tolist()), frozenset(np.flatnonzero(down).tolist())


def _below_lower(values: np.ndarray, threshold: ThresholdSpec) -> frozenset[int]:
    """Journal flags strictly below mean - k*sd. For the revision, the
    in-between year significantly worsens the prediction (a discontinuity);
    for the triangle margins, as for the links, the two-step path is short."""
    return frozenset(np.flatnonzero(values < threshold.lower).tolist())


def flag_links(
    triangle: TriangleCells, threshold: ThresholdSpec, drop_loops: bool = True
) -> tuple[tuple[int, int, float], ...]:
    """Cells whose triangle score is strictly below ``threshold.lower``.

    ``build_flag_report`` takes the threshold over all evaluated cells, the
    diagonal included; with ``drop_loops`` the self-citation cells are
    removed from the flagged set afterwards, matching the network analysis.
    """
    hot = triangle.values < threshold.lower
    if drop_loops:
        hot &= triangle.citing != triangle.cited
    columns = (triangle.citing[hot], triangle.cited[hot], triangle.values[hot])
    return tuple(zip(*(column.tolist() for column in columns)))


def remove_outliers(tensor: AlignedTensor, nodes: Sequence[str]) -> AlignedTensor:
    """Delete the named journals' rows and columns and renormalize.

    Remaining counts are untouched; only the grand totals (and therefore the
    relative frequencies, masks and downstream thresholds) change. Ids are
    reassigned contiguously over the surviving names.
    """
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


@dataclass(frozen=True)
class Indicators:
    """The k-independent half of a flag report, computed once per tensor.

    ``statistics`` holds each value set's threshold at k = 0: its mean and
    SD serve every k. Every array is read-only.
    """

    transitions: dict[tuple[int, int], TransitionCells]
    margins: dict[tuple[tuple[int, int], str], np.ndarray]
    revision: RevisionCells
    revision_node_margins: dict[str, np.ndarray]
    triangle: TriangleCells
    triangle_node_margins: dict[str, np.ndarray]
    statistics: dict[str, ThresholdSpec]


def evaluate_indicators(tensor: AlignedTensor) -> Indicators:
    """Every indicator family over the tensor, and the mean and SD of each
    value set; read it through ``tensor.indicators``, which keeps it.

    Threshold keys are ``threshold_key`` names and ``links``; the link
    statistics are taken over every evaluated cell, loops included.
    """
    transitions = {pair: cell_divergence(tensor, pair) for pair in PAIRS}
    margins = {
        (pair, d): read_only(margin_totals(transitions[pair], d))
        for pair in PAIRS for d in DIRECTIONS
    }
    revision = revision_of_prediction(tensor)
    revision_node_margins = {d: read_only(margin_totals(revision, d)) for d in DIRECTIONS}
    triangle = triangle_evaluation(tensor, transitions)
    triangle_node_margins = {d: read_only(margin_totals(triangle, d)) for d in DIRECTIONS}

    value_sets = {
        threshold_key("margin", d, pair): margins[(pair, d)] for pair in PAIRS for d in DIRECTIONS
    }
    for d in DIRECTIONS:
        value_sets[threshold_key("revision", d)] = revision_node_margins[d]
        value_sets[threshold_key("triangle", d)] = triangle_node_margins[d]
    value_sets["links"] = triangle.values
    return Indicators(
        transitions=transitions,
        margins=margins,
        revision=revision,
        revision_node_margins=revision_node_margins,
        triangle=triangle,
        triangle_node_margins=triangle_node_margins,
        statistics={key: compute_threshold(values, 0.0) for key, values in value_sets.items()},
    )


@dataclass(frozen=True)
class FlagReport:
    """Every indicator, threshold and flag set for one analysis run.

    Raw values stay in bits; ``unit`` only records how reports should be
    serialized. The journal arrays (``margins``, ``revision_node_margins``,
    ``triangle_node_margins``) hold one value per node, and the flag sets
    hold internal node ids of ``tensor.registry`` (the post-outlier-removal
    registry). ``thresholds`` holds the one mean and SD of each value set.
    The indicator arrays are the tensor's cached, read-only ones; each
    report has its own dicts.
    """

    tensor: AlignedTensor
    unit: str
    k: float
    drop_loops: bool
    outliers_removed: tuple[str, ...]
    transitions: dict[tuple[int, int], TransitionCells]
    margins: dict[tuple[tuple[int, int], str], np.ndarray]
    revision: RevisionCells
    revision_node_margins: dict[str, np.ndarray]
    triangle: TriangleCells
    triangle_node_margins: dict[str, np.ndarray]
    thresholds: dict[str, ThresholdSpec]
    monotonic_up: dict[str, frozenset[int]]
    monotonic_down: dict[str, frozenset[int]]
    revision_flagged: dict[str, frozenset[int]]
    triangle_flagged_nodes: dict[str, frozenset[int]]
    hot_links: tuple[tuple[int, int, float], ...] = field(default=())
    loops_flagged: int = 0


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
    taken over every evaluated cell, loops included.
    """
    if not (math.isfinite(k) and k >= 0):
        raise ValueError(f"k must be a finite number >= 0, got {k}")
    if unit not in UNIT_SCALE:
        raise ValueError(f"unit must be one of {sorted(UNIT_SCALE)}, got {unit!r}")
    if isinstance(outliers, str):
        raise ValueError(f"outliers must be a list of journal names, got the string {outliers!r}")
    outliers = tuple(outliers)
    if outliers:
        tensor = remove_outliers(tensor, outliers)

    ind = tensor.indicators
    thresholds = {key: ThresholdSpec.of(s.mean, s.sd, k) for key, s in ind.statistics.items()}
    margins, triangle = ind.margins, ind.triangle

    monotonic_up: dict[str, frozenset[int]] = {}
    monotonic_down: dict[str, frozenset[int]] = {}
    for d in DIRECTIONS:
        monotonic_up[d], monotonic_down[d] = _monotonic(
            margins[((0, 1), d)], margins[((1, 2), d)],
            thresholds[threshold_key("margin", d, (0, 1))],
            thresholds[threshold_key("margin", d, (1, 2))],
        )

    loops_flagged = 0
    if drop_loops:
        loop_scores = triangle.values[triangle.citing == triangle.cited]
        loops_flagged = int(np.count_nonzero(loop_scores < thresholds["links"].lower))

    return FlagReport(
        tensor=tensor,
        unit=unit,
        k=k,
        drop_loops=drop_loops,
        outliers_removed=outliers,
        transitions=dict(ind.transitions),
        margins=dict(margins),
        revision=ind.revision,
        revision_node_margins=dict(ind.revision_node_margins),
        triangle=triangle,
        triangle_node_margins=dict(ind.triangle_node_margins),
        thresholds=thresholds,
        monotonic_up=monotonic_up,
        monotonic_down=monotonic_down,
        revision_flagged={
            d: _below_lower(ind.revision_node_margins[d], thresholds[threshold_key("revision", d)])
            for d in DIRECTIONS
        },
        triangle_flagged_nodes={
            d: _below_lower(ind.triangle_node_margins[d], thresholds[threshold_key("triangle", d)])
            for d in DIRECTIONS
        },
        hot_links=flag_links(triangle, thresholds["links"], drop_loops),
        loops_flagged=loops_flagged,
    )
