"""Spatially-aware matricization.

A (b, c, h, w) tensor becomes a (h*w, b*c) matrix: spatial cells are the
features (rows), batch x channel slices are the observations (columns).
This is the transpose of the usual channels-as-features layout, and it is
what lets a spatial transform act as a plain linear operator on the row
axis. The flattening order is pinned so independent implementations agree:
spatial cell (y, x) lands in row y*w + x, observation (batch i, channel j)
in column i*c + j.
"""

import numpy as np

from .errors import DegenerateSampleError, ShapeError
from .tensor_io import _check_tensor


def matricize(z) -> np.ndarray:
    """Reshape a (b, c, h, w) tensor into its (h*w, b*c) spatial matrix.

    The tensor is checked at its own precision (see validate_tensor), then
    widened to float64 inside the one transposing copy, so the result is a
    new C-contiguous float64 array that never aliases the input.
    """
    z = _check_tensor(z)
    b, c, h, w = z.shape
    return np.array(z.reshape(b * c, h * w).T, dtype=np.float64, order="C")


def center_rows(a) -> np.ndarray:
    """Subtract each row's mean over the observations.

    Centering happens here, before any SVD, so the truncated basis is a
    true principal subspace and the canonical variates downstream come out
    centered. Idempotent. Requires at least two observations. The input is
    left untouched.
    """
    return _center_in_place(np.array(a, dtype=np.float64))


def _center_in_place(a: np.ndarray) -> np.ndarray:
    """center_rows on a float64 matrix the caller owns, overwriting and
    returning it; the result is bit-equal to center_rows(a)."""
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[1] < 2:
        raise DegenerateSampleError(
            f"centering needs at least 2 observations, got {a.shape[1]}"
        )
    a -= a.mean(axis=1)[:, None]
    return a
