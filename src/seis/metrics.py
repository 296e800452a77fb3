"""Equivariance and invariance scores, and the end-to-end scoring pipeline.

The two scores answer different questions about a pair of activation
tensors. The equivariance score asks whether the information in one is
still linearly recoverable from the other: it is the mean canonical
correlation (the SVCCA similarity), which cca() computes as the absolute
cosine of each centered variate pair. The invariance score asks the stronger
question of whether the spatial basis itself stayed put: it compares the
canonical projection directions of the two sides, weighted by how much
shared information each direction actually carries.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRankError, DegenerateSampleError, ShapeError, ValidationError
from .linalg import CcaResult, cca, row_cosines, spatial_subspace
from .matricize import center_rows, matricize
from .tensor_io import _REAL_KINDS, _reject_nonfinite


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
    """Mean canonical correlation, the SVCCA similarity of the two sides.

    cca() reports each correlation as the absolute cosine of its centered
    variate pair, so this is also the mean absolute cosine between paired
    canonical variates.
    """
    # pairwise summation of near-1 terms can round the mean past 1
    return min(float(np.mean(c.correlations)), 1.0)


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

    The bases are those of the two subspaces c was computed from, so their
    shapes fit c's projection vectors; they are not checked here.
    """
    lifted_left = left_basis @ c.proj_left     # (d, r)
    lifted_right = right_basis @ c.proj_right  # (d, r)
    cosines = row_cosines(lifted_left.T, lifted_right.T)
    return min(float(np.sum(c.correlations * cosines) / c.r), 1.0)


def _side_subspace(side, matrix):
    """Truncated subspace of one side's (d, n) spatial matrix, which must be
    a float64 array the caller owns: it is centered in place."""
    try:
        return spatial_subspace(center_rows(matrix))
    except (DegenerateRankError, DegenerateSampleError) as exc:
        raise type(exc)(f"{side} tensor: {exc}") from exc


def _tensor_subspace(side, z):
    """_side_subspace of a tensor's spatial matrix; a failed Gram check rescans z."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _side_subspace(side, matricize(z))
        except ValidationError:
            _reject_nonfinite(z)
            raise


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


def _same_dims(ref_dims, alt_dims):
    if ref_dims != alt_dims:
        raise ShapeError(f"tensor dims differ: {ref_dims} vs {alt_dims}")


def seis(z_ref, z_alt) -> SeisScores:
    """Score a pair of equally-shaped activation tensors.

    Pipeline: matricize both tensors spatially (checking their structure
    and widening them to float64), center each row over the observations,
    truncate to the 99%-variance spatial subspace, checking values at its
    Gram diagonal, run CCA between the projected coordinates, then
    aggregate the equivariance and invariance scores. Deterministic.

    An alternate equal in value to the reference (float32 and float64
    copies of the same values included) widens to the same matrix, so it
    is scored against the reference subspace itself rather than a rebuilt
    copy of it, as the harness scores identity.
    """
    _same_dims(np.shape(z_ref), np.shape(z_alt))
    ref = _tensor_subspace("reference", z_ref)
    # the reference is valid here, so an equal alternate of a real dtype is too
    if np.asarray(z_alt).dtype.kind in _REAL_KINDS and np.array_equal(z_ref, z_alt):
        return _score(ref, ref)
    return _score(ref, _tensor_subspace("alternate", z_alt))
