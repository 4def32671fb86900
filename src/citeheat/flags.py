"""Turn entropy quantities into flag sets via mean +/- k*SD thresholds.

The benchmark is always the mean of the respective value set, not zero,
because the divergences are necessarily positive in aggregate. All
comparisons are strict: a value exactly on a threshold is not flagged
("more than" a standard deviation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import PAIRS, AlignedTensor, JournalRegistry
from .entropy import (
    DIRECTIONS,
    JournalMargins,
    RevisionVector,
    TransitionCells,
    TriangleCells,
    cell_divergence,
    margin_totals,
    revision_of_prediction,
    triangle_evaluation,
    triangle_margins,
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


def compute_threshold(values: np.ndarray, k: float) -> ThresholdSpec:
    """Population mean/SD of a value set and the derived flag bounds."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DataError("cannot compute a threshold over an empty value set")
    mean = float(np.mean(values))
    sd = float(np.std(values))
    return ThresholdSpec(k=k, mean=mean, sd=sd, upper=mean + k * sd, lower=mean - k * sd)


def flag_monotonic(
    margins_01: JournalMargins, margins_12: JournalMargins, k: float
) -> tuple[frozenset[int], frozenset[int]]:
    """Nodes beyond the per-pair thresholds in BOTH consecutive intervals.

    Up: above mean + k*sd in both t0->t1 and t1->t2; down: below mean - k*sd
    in both. Thresholds are computed per pair, never pooled.
    """
    if margins_01.direction != margins_12.direction:
        raise ValueError(
            f"direction mismatch: {margins_01.direction!r} vs {margins_12.direction!r}"
        )
    t01 = compute_threshold(margins_01.values, k)
    t12 = compute_threshold(margins_12.values, k)
    return _monotonic(margins_01.values, margins_12.values, t01, t12)


def _monotonic(
    values_01: np.ndarray, values_12: np.ndarray, t01: ThresholdSpec, t12: ThresholdSpec
) -> tuple[frozenset[int], frozenset[int]]:
    up = (values_01 > t01.upper) & (values_12 > t12.upper)
    down = (values_01 < t01.lower) & (values_12 < t12.lower)
    return frozenset(np.flatnonzero(up).tolist()), frozenset(np.flatnonzero(down).tolist())


def _below_lower(values: np.ndarray, threshold: ThresholdSpec) -> frozenset[int]:
    return frozenset(np.flatnonzero(values < threshold.lower).tolist())


def flag_revision(revision: RevisionVector, k: float) -> frozenset[int]:
    """Nodes whose revision falls below mean - k*sd: the in-between year
    significantly worsens the prediction (a discontinuity)."""
    return _below_lower(revision.values, compute_threshold(revision.values, k))


def flag_triangle_nodes(margins: JournalMargins, k: float) -> frozenset[int]:
    """Journal-level triangle flags, below mean - k*sd like the links."""
    return _below_lower(margins.values, compute_threshold(margins.values, k))


def flag_links(
    triangle: TriangleCells,
    k: float = 1.0,
    drop_loops: bool = True,
    threshold: ThresholdSpec | None = None,
) -> tuple[tuple[int, int, float], ...]:
    """Cells whose triangle score is strictly below the lower threshold.

    The threshold is computed over all evaluated cells (the diagonal
    included); with ``drop_loops`` the self-citation cells are removed from
    the flagged set afterwards, matching the network analysis. An explicit
    ``threshold`` overrides the computed one.
    """
    if threshold is None:
        threshold = compute_threshold(triangle.values, k)
    hot = triangle.values < threshold.lower
    if drop_loops:
        hot &= triangle.citing != triangle.cited
    idx = np.flatnonzero(hot)
    return tuple(
        (int(triangle.citing[i]), int(triangle.cited[i]), float(triangle.values[i]))
        for i in idx
    )


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
class FlagReport:
    """Every indicator, threshold and flag set for one analysis run.

    Raw values stay in bits; ``unit`` only records how reports should be
    serialized. Flag sets hold internal node ids of ``tensor.registry``
    (the post-outlier-removal registry).
    """

    tensor: AlignedTensor
    unit: str
    k: float
    drop_loops: bool
    outliers_removed: tuple[str, ...]
    transitions: dict[tuple[int, int], TransitionCells]
    margins: dict[tuple[tuple[int, int], str], JournalMargins]
    revision: dict[str, RevisionVector]
    triangle: TriangleCells
    triangle_node_margins: dict[str, JournalMargins]
    thresholds: dict[str, ThresholdSpec]
    monotonic_up: dict[str, frozenset[int]]
    monotonic_down: dict[str, frozenset[int]]
    revision_flagged: dict[str, frozenset[int]]
    triangle_flagged_nodes: dict[str, frozenset[int]]
    hot_links: tuple[tuple[int, int, float], ...] = field(default=())
    loops_flagged: int = 0

    def label(self, node_id: int) -> str:
        return self.tensor.registry.names[node_id]


def build_flag_report(
    tensor: AlignedTensor,
    k: float = 1.0,
    unit: str = "mbits",
    drop_loops: bool = True,
    outliers: Iterable[str] = (),
) -> FlagReport:
    """Run every indicator family over the tensor and collect the flags.

    ``outliers`` are removed (rows and columns) before anything is computed,
    so every mean and SD reflects the reduced matrix.
    """
    outliers = tuple(outliers)
    if outliers:
        tensor = remove_outliers(tensor, outliers)

    transitions = {pair: cell_divergence(tensor, pair) for pair in PAIRS}
    margins: dict[tuple[tuple[int, int], str], JournalMargins] = {}
    thresholds: dict[str, ThresholdSpec] = {}
    for pair in PAIRS:
        for direction in DIRECTIONS:
            m = margin_totals(transitions[pair], direction)
            margins[(pair, direction)] = m
            key = f"margin_{pair[0]}{pair[1]}_{direction}"
            thresholds[key] = compute_threshold(m.values, k)

    monotonic_up: dict[str, frozenset[int]] = {}
    monotonic_down: dict[str, frozenset[int]] = {}
    for direction in DIRECTIONS:
        up, down = _monotonic(
            margins[((0, 1), direction)].values, margins[((1, 2), direction)].values,
            thresholds[f"margin_01_{direction}"], thresholds[f"margin_12_{direction}"],
        )
        monotonic_up[direction] = up
        monotonic_down[direction] = down

    revision: dict[str, RevisionVector] = {}
    revision_flagged: dict[str, frozenset[int]] = {}
    for direction in DIRECTIONS:
        vector = revision_of_prediction(tensor, direction)
        revision[direction] = vector
        key = f"revision_{direction}"
        thresholds[key] = compute_threshold(vector.values, k)
        revision_flagged[direction] = _below_lower(vector.values, thresholds[key])

    triangle = triangle_evaluation(tensor)
    thresholds["links"] = compute_threshold(triangle.values, k)
    triangle_node_margins: dict[str, JournalMargins] = {}
    triangle_flagged_nodes: dict[str, frozenset[int]] = {}
    for direction in DIRECTIONS:
        m = triangle_margins(triangle, direction)
        triangle_node_margins[direction] = m
        key = f"triangle_{direction}"
        thresholds[key] = compute_threshold(m.values, k)
        triangle_flagged_nodes[direction] = _below_lower(m.values, thresholds[key])

    hot = triangle.values < thresholds["links"].lower
    hot_links = flag_links(triangle, drop_loops=drop_loops, threshold=thresholds["links"])
    loops_flagged = int((hot & (triangle.citing == triangle.cited)).sum()) if drop_loops else 0

    return FlagReport(
        tensor=tensor,
        unit=unit,
        k=k,
        drop_loops=drop_loops,
        outliers_removed=outliers,
        transitions=transitions,
        margins=margins,
        revision=revision,
        triangle=triangle,
        triangle_node_margins=triangle_node_margins,
        thresholds=thresholds,
        monotonic_up=monotonic_up,
        monotonic_down=monotonic_down,
        revision_flagged=revision_flagged,
        triangle_flagged_nodes=triangle_flagged_nodes,
        hot_links=hot_links,
        loops_flagged=loops_flagged,
    )
