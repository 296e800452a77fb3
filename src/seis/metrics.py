"""Equivariance and invariance scores, and the end-to-end scoring pipeline.

The two scores answer different questions about a pair of activation
tensors. The equivariance score asks whether the information in one is
still linearly recoverable from the other: it is the mean absolute cosine
between paired canonical variates, which for centered variates equals the
mean canonical correlation. The invariance score asks the stronger
question of whether the spatial basis itself stayed put: it compares the
canonical projection directions of the two sides, weighted by how much
shared information each direction actually carries.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRankError,
    DegenerateSampleError,
    NumericalError,
    ShapeError,
)
from .linalg import CcaResult, cca, row_cosines, spatial_subspace
from .matricize import _center_in_place, matricize

# The cosine/mean-correlation identity is exact for centered variates; if
# it ever drifts past this, something upstream broke.
EQUIV_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class SeisScores:
    """Equivariance/invariance score pair plus subspace diagnostics."""

    s_equiv: float
    s_inv: float
    r: int
    k_a: int
    k_a_prime: int
    correlations: np.ndarray


def equivariance_score(c: CcaResult) -> float:
    """Mean absolute cosine similarity between paired canonical variates.

    Because the variates are centered, this equals the mean canonical
    correlation; the function verifies that identity to 1e-10 and fails
    loudly rather than return an inconsistent score.
    """
    if c.r < 1:
        raise DegenerateRankError("CCA result has no canonical pairs")
    cosines = row_cosines(c.variates_left, c.variates_right)
    score = float(np.mean(cosines))
    mean_rho = float(np.mean(c.correlations))
    if abs(score - mean_rho) > EQUIV_CONSISTENCY_TOL:
        raise NumericalError(
            f"variate cosines diverge from canonical correlations: "
            f"|{score} - {mean_rho}| > {EQUIV_CONSISTENCY_TOL}"
        )
    # pairwise summation of near-1 terms can round the mean past 1
    return min(score, 1.0)


def invariance_score(c: CcaResult, left_basis, right_basis) -> float:
    """Correlation-weighted alignment of the lifted projection directions.

    The projection vectors live in each side's truncated coordinate
    system, so with differing subspace sizes their raw cosine is not even
    defined. Both are lifted through their orthonormal bases into the
    shared spatial space first; when the two bases coincide this reduces
    to the plain cosine of the raw vectors. Each pair's cosine is weighted
    by its canonical correlation, so directions carrying no shared
    information cannot certify alignment, and the sum is divided by the
    number of pairs.
    """
    if c.r < 1:
        raise DegenerateRankError("CCA result has no canonical pairs")
    lb = np.asarray(left_basis, dtype=np.float64)
    rb = np.asarray(right_basis, dtype=np.float64)
    if lb.ndim != 2 or rb.ndim != 2:
        raise ShapeError("bases must be 2-D matrices")
    if lb.shape[0] != rb.shape[0]:
        raise ShapeError(
            f"bases live in different spatial spaces: d={lb.shape[0]} vs d={rb.shape[0]}"
        )
    if lb.shape[1] != c.proj_left.shape[0] or rb.shape[1] != c.proj_right.shape[0]:
        raise ShapeError(
            f"basis widths ({lb.shape[1]}, {rb.shape[1]}) do not match projection "
            f"vector sizes ({c.proj_left.shape[0]}, {c.proj_right.shape[0]})"
        )
    lifted_left = lb @ c.proj_left    # (d, r)
    lifted_right = rb @ c.proj_right  # (d, r)
    cosines = row_cosines(lifted_left.T, lifted_right.T)
    return min(float(np.sum(c.correlations * cosines) / c.r), 1.0)


def _side_subspace(side, matrix):
    """Truncated subspace of one side's (d, n) spatial matrix, which must be
    a float64 array the caller owns: it is centered in place."""
    try:
        return spatial_subspace(_center_in_place(matrix))
    except (DegenerateRankError, DegenerateSampleError) as exc:
        raise type(exc)(f"{side} tensor: {exc}") from exc


def _score(left, right) -> SeisScores:
    """Scores between two sides' truncated subspaces (see seis)."""
    c = cca(left, right)
    return SeisScores(
        s_equiv=equivariance_score(c),
        s_inv=invariance_score(c, left.basis, right.basis),
        r=c.r,
        k_a=left.k,
        k_a_prime=right.k,
        correlations=c.correlations,
    )


def seis(z_ref, z_alt) -> SeisScores:
    """Score a pair of equally-shaped activation tensors.

    Pipeline: matricize both tensors spatially (which validates them at
    their own precision and widens them to float64), center each row over
    the observations, truncate to the 99%-variance spatial subspace, run
    CCA between the projected coordinates, then aggregate the equivariance
    and invariance scores. Deterministic for fixed inputs.
    """
    if np.shape(z_ref) != np.shape(z_alt):
        raise ShapeError(f"tensor dims differ: {np.shape(z_ref)} vs {np.shape(z_alt)}")
    return _score(
        _side_subspace("reference", matricize(z_ref)),
        _side_subspace("alternate", matricize(z_alt)),
    )
