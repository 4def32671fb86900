"""Information-theoretic kernels over an aligned three-year tensor.

All cell values are grand-total relative frequencies (count / year total),
deliberately unnormalized by row or column so that no a priori grouping is
imposed. Everything is computed in bits (log base 2) and only converted to
reporting units (mbits, microbits) at the serialization boundary.

Each per-cell quantity is a ``Cells`` (the revision's a ``RevisionCells``,
which also counts the cells its rule leaves out). The quantities:

* per-cell divergence for a year pair: q * log2(q / p), prior p, posterior q;
  a posterior zero contributes exactly 0 bits, a prior zero makes the cell
  invalid for the pair (mask rule, enforced upstream);
* journal margins: row (cited) or column (citing) partial sums of the cell
  values — the cell sums decompose exactly into either margin family;
* revision of the prediction per journal: the margin of the per-cell terms
  q * log2(p'/p), p' the in-between year, equal to I(q|p) - I(q|p') over
  the same cells; negative values mean the in-between year made the
  forecast worse. ``revision_of_prediction`` computes the cells once for
  both directions;
* per-cell triangle score: KL(p'|p) + KL(q|p') - KL(q|p), computed in its
  closed form (p' - q) * log2(p'/p), to which the three terms reduce in real
  arithmetic. It is negative exactly when the cell's share moves strictly
  monotonically over the three years (p < p' < q or p > p' > q), and its
  size is the second step's share change times the first step's log ratio.
  Negative values flag a candidate critical transition, which is the
  cell-level instrument because the per-cell revision identity
  q*log2(p'/p) + q*log2(q/p') = q*log2(q/p) makes cell-level revision
  vacuous.

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
from functools import cached_property

import numpy as np

from .corpus import AlignedTensor, read_only
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


@dataclass(frozen=True, eq=False)
class Cells:
    """One value (bits) per cell of a subset of a tensor's cells.

    ``citing`` and ``cited`` are the cells' node ids in the tensor's
    ascending (citing, cited) order and ``values`` their values; the three
    arrays are read-only. ``grand_sum`` is built on first read and kept.
    """

    citing: np.ndarray
    cited: np.ndarray
    values: np.ndarray
    n_nodes: int

    def __post_init__(self) -> None:
        for name in ("citing", "cited", "values"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    @classmethod
    def of(cls, tensor: AlignedTensor, mask: np.ndarray, values: np.ndarray, **fields) -> Cells:
        """The cells of ``tensor`` that ``mask`` selects, with ``values``."""
        return cls(
            citing=tensor.citing[mask],
            cited=tensor.cited[mask],
            values=values,
            n_nodes=tensor.n_nodes,
            **fields,
        )

    @cached_property
    def grand_sum(self) -> float:
        """The exactly rounded sum of the values."""
        return ordered_fsum(self.values)


@dataclass(frozen=True, eq=False)
class RevisionCells(Cells):
    """Per-cell revision terms q * log2(p'/p) over the revision cell set.

    Included: prior and in-between counts both positive (posterior may be
    zero; such terms are exactly 0). ``excluded_cells`` counts cells with
    posterior mass but a zero prior or in-between count; they cannot enter
    the revision sum without making it (and the matching KL difference)
    infinite.
    """

    excluded_cells: int


def cell_divergence(tensor: AlignedTensor, pair: tuple[int, int]) -> Cells:
    """KL contribution (bits) of every pair-valid cell, posterior given prior."""
    mask = tensor.pair_valid(pair)
    prior_idx, post_idx = pair
    p = tensor.frequencies(prior_idx)[mask]
    q = tensor.frequencies(post_idx)[mask]
    return Cells.of(tensor, mask, kl_term(q, p))


def margin_totals(cells: Cells, direction: str) -> np.ndarray:
    """Row (cited) or column (citing) sums of the cell values, one per node.

    Every node of the common set gets an entry, including nodes whose margin
    is zero, so the vector sums to the cells' grand total. A node's cells
    are added in cell order, which follows the sorted names, so the last
    bits of its margin depend on the other nodes' names: renaming the
    journals of a 246k-cell corpus in an order-changing way changed 22,571
    of its 28,800 margins, all below the six decimals the CSVs write.
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
    excluded = int(np.count_nonzero((tensor.counts[2] > 0) & ~included))
    return RevisionCells.of(tensor, included, values, excluded_cells=excluded)


def triangle_evaluation(tensor: AlignedTensor) -> Cells:
    """Per-cell KL(p'|p) + KL(q|p') - KL(q|p) over the all-years cells, in
    its closed form (p' - q) * log2(p'/p); all three shares are positive.

    A score is negative exactly when the share moves strictly monotonically
    (p < p' < q or p > p' > q); shares equal to within rounding score 0.
    """
    mask = tensor.tri_valid
    if not np.any(mask):
        raise DataError("no cell has a positive count in all three years")
    p, p_mid, q = (tensor.frequencies(year)[mask] for year in range(3))
    return Cells.of(tensor, mask, (p_mid - q) * np.log2(p_mid / p))
