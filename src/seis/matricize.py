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

from .errors import DegenerateSampleError
from .tensor_io import validate_tensor


def matricize(z) -> np.ndarray:
    """Reshape a (b, c, h, w) tensor into its (h*w, b*c) spatial matrix.

    The tensor is checked at its own precision by validate_tensor and
    widened to float64 inside the one transposing copy, so the result is a
    new C-contiguous float64 array that never aliases the input.
    """
    z = validate_tensor(z)
    b, c, h, w = z.shape
    return np.array(z.reshape(b * c, h * w).T, dtype=np.float64, order="C")


def center_rows(a: np.ndarray) -> np.ndarray:
    """Subtract each row's mean over the observations, in place.

    a is a 2-D float64 matrix the caller owns, such as matricize's result;
    it is overwritten and returned. Centering happens here, before any
    SVD, so the truncated basis is a true principal subspace and the
    canonical variates downstream come out centered. Idempotent. This is
    where the pipeline first checks the sample count: at least two
    observations are required.
    """
    if a.shape[1] < 2:
        raise DegenerateSampleError(
            f"centering needs at least 2 observations, got {a.shape[1]}"
        )
    a -= a.mean(axis=1)[:, None]
    return a
