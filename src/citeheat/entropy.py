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

Grand sums are exactly rounded (``ordered_fsum``), so they do not depend on
summation order; margins add cells in the canonical ascending (citing,
cited) order. The per-cell values are only as portable as numpy's ``log2``,
which is vectorized per CPU and not correctly rounded: on an AVX-512 host
it differed from ``math.log2`` in the last bit on 488 of 200,000 uniform
inputs in [0, 2). Identical input gives bit-identical values on one
platform, not across platforms. This module takes no mean or SD:
``flags.compute_threshold`` is the only code that does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import PAIRS, AlignedTensor, read_only
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
    """Correctly rounded sum of ``values``, bit-equal to ``math.fsum``.

    Error-free vector extraction (Rump, Ogita & Oishi, "Accurate
    floating-point summation, part I", SIAM J. Sci. Comput. 31(1), 2008).
    Each round picks 2^t from max|v| and n so that the high parts
    ``(v + sigma) - sigma``, sigma = 1.5 * 2^(t+52), are multiples of 2^t
    whose partial sums all stay below 2^(t+53): ``np.sum`` adds them exactly
    in any order. The remainders ``v - hi`` are exact and feed the next
    round, which stops when they are all zero; ``math.fsum`` then rounds the
    few exact round sums once. Non-finite input, and input so large that
    sigma would overflow, goes to ``math.fsum`` unchanged.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    top = float(np.max(np.abs(v))) if v.size else 0.0
    if top == 0.0:
        # Only signed zeros: fsum's sign rule, without a pass in Python.
        return math.fsum(v[:1].tolist()) if np.signbit(v).all() else 0.0
    if not math.isfinite(top) or math.frexp(top)[1] + v.size.bit_length() > 1021:
        return math.fsum(v.tolist())
    round_sums = []
    while v.size:
        # max|v| < 2^e and n < 2^b; t = e + b - 52 keeps n * max|hi| < 2^(t+53).
        t = max(math.frexp(top)[1] + v.size.bit_length() - 52, -1074)
        sigma = math.ldexp(1.5, t + 52)
        hi = (v + sigma) - sigma
        round_sums.append(float(np.sum(hi)))
        v = v - hi
        v = v[v != 0.0]
        if v.size:
            top = float(np.max(np.abs(v)))
    return math.fsum(round_sums)


def kl_term(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Elementwise q * log2(q / p); q == 0 contributes exactly 0 bits.

    Any q > 0 paired with p <= 0 is a mask-construction bug and fails loudly.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    out = np.zeros(q.shape, dtype=float)
    nz = q > 0
    q, p = q[nz], p[nz]
    if np.any(p <= 0):
        raise DataError("posterior mass on a cell with zero prior frequency")
    out[nz] = q * np.log2(q / p)
    return out


class _ReadOnlyArrays:
    """Frozen cells whose array fields are read-only views."""

    def __post_init__(self) -> None:
        for name in ("citing", "cited", "values"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


@dataclass(frozen=True)
class TransitionCells(_ReadOnlyArrays):
    """Per-cell KL contributions (bits) for one ordered year pair."""

    pair: tuple[int, int]
    pair_label: str
    citing: np.ndarray
    cited: np.ndarray
    values: np.ndarray
    grand_sum: float
    n_nodes: int


@dataclass(frozen=True)
class RevisionCells(_ReadOnlyArrays):
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
class TriangleCells(_ReadOnlyArrays):
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
    # bincount adds the weights in cell order, one node at a time.
    return np.bincount(index, weights=cells.values, minlength=cells.n_nodes)


def revision_of_prediction(tensor: AlignedTensor) -> RevisionCells:
    """q * log2(p'/p) for every cell of the revision cell set."""
    # Prior and in-between counts both positive.
    included = tensor.pair_valid((0, 1)) & tensor.pair_valid((1, 2))
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
        excluded_cells=int(np.count_nonzero((tensor.counts[2] > 0) & ~included)),
        n_nodes=tensor.n_nodes,
    )


def triangle_evaluation(
    tensor: AlignedTensor, transitions: dict[tuple[int, int], TransitionCells]
) -> TriangleCells:
    """Per-cell KL(p'|p) + KL(q|p') - KL(q|p) over the all-years cells.

    The three terms are the ``cell_divergence`` values of the pairs (0, 1),
    (1, 2) and (0, 2) of ``tensor``; every all-years cell is valid for each.
    """
    mask = tensor.tri_valid
    if not np.any(mask):
        raise DataError("no cell has a positive count in all three years")
    t01, t12, t02 = (
        transitions[pair].values[mask[tensor.pair_valid(pair)]]
        for pair in ((0, 1), (1, 2), (0, 2))
    )
    return TriangleCells(
        citing=tensor.citing[mask],
        cited=tensor.cited[mask],
        values=t01 + t12 - t02,
        n_nodes=tensor.n_nodes,
    )
