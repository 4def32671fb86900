"""Information-theoretic kernels over an aligned three-year tensor.

All cell values are grand-total relative frequencies (count / year total),
deliberately unnormalized by row or column so that no a priori grouping is
imposed. Everything is computed in bits (log base 2) and only converted to
reporting units (mbits, microbits) at the serialization boundary.

The quantities:

* per-cell divergence for a year pair: q * log2(q / p), prior p, posterior q;
  a posterior zero contributes exactly 0 bits, a prior zero makes the cell
  invalid for the pair (mask rule, enforced upstream);
* journal margins: row (cited) or column (citing) partial sums of the cell
  values — the cell sums decompose exactly into either margin family.
  ``margin_totals`` takes divergence, revision or triangle cells alike;
* revision of the prediction per journal: the margin of the per-cell terms
  q * log2(p'/p), p' the in-between year, equal to I(q|p) - I(q|p') over
  the same cells; negative values mean the in-between year made the
  forecast worse. ``revision_of_prediction`` computes the cells once for
  both directions;
* per-cell triangle score: KL(p'|p) + KL(q|p') - KL(q|p); negative values
  flag a candidate critical transition, which is the cell-level instrument
  because the per-cell revision identity q*log2(p'/p) + q*log2(q/p') =
  q*log2(q/p) makes cell-level revision vacuous.

Final reductions run over the canonical ascending (citing, cited) cell order
with exact compensated summation, so identical input gives bit-identical
sums regardless of platform or worker count. This module takes no mean or
SD: ``flags.compute_threshold`` is the only code that does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import PAIRS, AlignedTensor
from .errors import DataError

DIRECTIONS = ("cited", "citing")

UNIT_SCALE = {"bits": 1.0, "mbits": 1e3, "microbits": 1e6}


def to_unit(bits: float, unit: str) -> float:
    """Convert a value in bits to the configured reporting unit."""
    try:
        return bits * UNIT_SCALE[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}") from None


def ordered_fsum(values: np.ndarray) -> float:
    """Deterministic compensated reduction (exactly rounded partial sums)."""
    return math.fsum(values.tolist())


def kl_term(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Elementwise q * log2(q / p); q == 0 contributes exactly 0 bits.

    Any q > 0 paired with p <= 0 is a mask-construction bug and fails loudly.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.zeros(q.shape, dtype=float)
    nz = q > 0
    if np.any(p[nz] <= 0):
        raise DataError("posterior mass on a cell with zero prior frequency")
    out[nz] = q[nz] * np.log2(q[nz] / p[nz])
    return out


@dataclass(frozen=True)
class TransitionCells:
    """Per-cell KL contributions (bits) for one ordered year pair."""

    pair: tuple[int, int]
    pair_label: str
    citing: np.ndarray
    cited: np.ndarray
    values: np.ndarray
    grand_sum: float
    n_nodes: int


@dataclass(frozen=True)
class RevisionCells:
    """Per-cell revision terms q * log2(p'/p) over the revision cell set.

    Included: prior and in-between counts both positive (posterior may be
    zero; such terms are exactly 0). ``excluded_cells`` counts cells with
    posterior mass but a zero prior or in-between count; they cannot enter
    the revision sum without making it (and the matching KL difference)
    infinite.
    """

    citing: np.ndarray
    cited: np.ndarray
    values: np.ndarray
    grand_sum: float
    excluded_cells: int
    n_nodes: int


@dataclass(frozen=True)
class TriangleCells:
    """Per-cell triangle scores over cells live in all three years."""

    citing: np.ndarray
    cited: np.ndarray
    values: np.ndarray
    n_nodes: int


def cell_divergence(tensor: AlignedTensor, pair: tuple[int, int]) -> TransitionCells:
    """KL contribution of every pair-valid cell, posterior given prior."""
    if pair not in PAIRS:
        raise ValueError(f"unknown year pair {pair!r}")
    mask = tensor.pair_valid(pair)
    prior_idx, post_idx = pair
    p = tensor.frequencies(prior_idx)[mask]
    q = tensor.frequencies(post_idx)[mask]
    values = kl_term(q, p)
    return TransitionCells(
        pair=pair,
        pair_label=tensor.pair_label(pair),
        citing=tensor.citing[mask],
        cited=tensor.cited[mask],
        values=values,
        grand_sum=ordered_fsum(values),
        n_nodes=tensor.n_nodes,
    )


def margin_totals(
    cells: TransitionCells | RevisionCells | TriangleCells, direction: str
) -> np.ndarray:
    """Row (cited) or column (citing) sums of the cell values, one per node.

    Every node of the common set gets an entry, including nodes whose margin
    is zero, so the vector sums to the cells' grand total.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    index = cells.cited if direction == "cited" else cells.citing
    totals = np.zeros(cells.n_nodes, dtype=float)
    np.add.at(totals, index, cells.values)
    return totals


def revision_of_prediction(tensor: AlignedTensor) -> RevisionCells:
    """q * log2(p'/p) for every cell of the revision cell set."""
    c0, c1, c2 = tensor.counts
    included = (c0 > 0) & (c1 > 0)
    p = tensor.frequencies(0)[included]
    p_mid = tensor.frequencies(1)[included]
    q = tensor.frequencies(2)[included]
    values = np.zeros(p.shape, dtype=float)
    nz = q > 0
    values[nz] = q[nz] * np.log2(p_mid[nz] / p[nz])
    return RevisionCells(
        citing=tensor.citing[included],
        cited=tensor.cited[included],
        values=values,
        grand_sum=ordered_fsum(values),
        excluded_cells=int(np.count_nonzero((c2 > 0) & ~included)),
        n_nodes=tensor.n_nodes,
    )


def triangle_evaluation(tensor: AlignedTensor) -> TriangleCells:
    """Per-cell KL(p'|p) + KL(q|p') - KL(q|p) over the all-years cells."""
    mask = tensor.tri_valid
    if not np.any(mask):
        raise DataError("no cell has a positive count in all three years")
    p = tensor.frequencies(0)[mask]
    p_mid = tensor.frequencies(1)[mask]
    q = tensor.frequencies(2)[mask]
    values = kl_term(p_mid, p) + kl_term(q, p_mid) - kl_term(q, p)
    return TriangleCells(
        citing=tensor.citing[mask],
        cited=tensor.cited[mask],
        values=values,
        n_nodes=tensor.n_nodes,
    )
