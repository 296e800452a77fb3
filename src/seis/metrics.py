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

from .errors import SeisError, ShapeError, ValidationError
from .linalg import CcaResult, cca, center_rows, row_cosines, spatial_subspace
from .tensor_io import _REAL_KINDS, _reject_nonfinite, matricize


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
    canonical variates. Each is at most 1 and rounding is monotone, so the
    mean needs no clamp.
    """
    return float(np.mean(c.correlations))


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
    return float(np.mean(c.correlations * cosines))


def _side_subspace(role, matrix, z=None):
    """Truncated subspace of one side's (d, n) spatial matrix, which must be
    a float64 array the caller owns: it is centered in place. With matrix
    None, the side is the tensor z instead: it is matricized, and a failed
    Gram check rescans it. The caller names the side's role ("reference" or
    "alternate"), and every error raised here names it once."""
    try:
        try:
            return spatial_subspace(center_rows(matricize(z) if matrix is None else matrix))
        except ValidationError:
            if z is not None:
                _reject_nonfinite(z)
            raise
    except SeisError as exc:
        raise type(exc)(f"{role} tensor: {exc}") from exc


def _tensor_subspace(role, z):
    """_side_subspace of the tensor z, in the role the caller names."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _side_subspace(role, None, z)


def _score(left, right) -> SeisScores:
    """Scores between two sides' truncated subspaces (see seis)."""
    c = cca(left, right)
    return SeisScores(
        s_equiv=equivariance_score(c),
        s_inv=invariance_score(c, left.basis, right.basis),
        r=c.correlations.size,
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
    seis() builds each side in its role, so an error in a side's values,
    dtype or rank names it: "reference tensor: ..." or "alternate tensor: ...".

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
