"""Equivariance and invariance scores, and the end-to-end scoring pipeline.

The two scores answer different questions about a pair of activation
tensors. The equivariance score asks whether the information in one is
still linearly recoverable from the other: it is the mean canonical
correlation (the SVCCA similarity), which cca() computes as the absolute
cosine of each centered variate pair. The invariance score asks the stronger
question of whether the spatial basis itself stayed put: it compares the
canonical projection directions of the two sides, weighted by how much
shared information each direction actually carries. A Side is one tensor
built for scoring, so seis() can score it against many alternates.
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
    k_a: int
    k_a_prime: int
    correlations: np.ndarray

    @property
    def r(self) -> int:  # the number of canonical pairs, min(k_a, k_a_prime)
        return self.correlations.size


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
    cosines = row_cosines((left_basis @ c.proj_left).T, (right_basis @ c.proj_right).T)
    return float(np.mean(c.correlations * cosines))


@dataclass(frozen=True)
class Side:
    """A tensor's (b, c, h, w) dims and the truncated principal subspace of its
    centered spatial matrix, built once by Side.of and scored by seis(). basis
    has orthonormal columns; projected = basis.T @ centered are the coordinates
    in it of that matrix scaled by a power of two to a peak in [0.5, 1), whose
    rows stay centered under this linear map; k is the subspace size."""

    dims: tuple
    basis: np.ndarray      # (d, k)
    projected: np.ndarray  # (k, n)
    retained_variance: float

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def of(cls, z, role="reference") -> "Side":
        """The Side of tensor z: matricize it (checking its structure, widening to
        float64), center its rows (checking values at the row means) and keep its
        99%-variance subspace, which rejects an all-zero or overflowed centering.
        role is the name every SeisError carries ("<role> tensor: ..."):
        "reference" or "alternate" in seis(), "<path>: reference" in the CLI. A
        non-finite value is named by its flat index in z. z is dropped once
        matricized, so a temporary tensor is freed before the Gram."""
        # a value beyond float64's range widens to inf, which the row means report
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                dims = np.shape(z)
                matrix = matricize(z)
                del z
                try:
                    centered = center_rows(matrix)
                except ValidationError:
                    _reject_nonfinite(matrix.T)  # matrix.T's C order is the tensor's
                    raise
                return cls(dims, *spatial_subspace(centered))
            except SeisError as exc:
                raise type(exc)(f"{role} tensor: {exc}") from exc


def seis(z_ref, z_alt) -> SeisScores:
    """Score two equally-shaped activation tensors, or Sides built from them.

    Dims are compared first, so a mismatch builds nothing. Side.of builds each
    tensor in its positional role, so an error names it ("reference tensor:
    ..."), and CCA between the two subspaces gives both scores. A Side scores
    with the bits of its tensor, and a tensor alternate equal in value to a
    tensor reference (float32 and float64 copies included) is scored against
    the reference side itself, as the harness scores identity. Deterministic.
    """
    ref_dims, alt_dims = (z.dims if isinstance(z, Side) else np.shape(z) for z in (z_ref, z_alt))
    if ref_dims != alt_dims:
        raise ShapeError(f"tensor dims differ: {ref_dims} vs {alt_dims}")
    left = z_ref if isinstance(z_ref, Side) else Side.of(z_ref, "reference")
    if isinstance(z_alt, Side):
        right = z_alt
    # the reference is valid here, so an equal alternate of a real dtype is too
    elif (not isinstance(z_ref, Side) and np.asarray(z_alt).dtype.kind in _REAL_KINDS
          and np.array_equal(z_ref, z_alt)):
        right = left
    else:
        right = Side.of(z_alt, "alternate")
    c = cca(left.projected, right.projected)
    return SeisScores(equivariance_score(c), invariance_score(c, left.basis, right.basis),
                      left.k, right.k, c.correlations)
