"""Shared test utilities.

write_npy_independent is a from-scratch NPY v1.0 emitter used as the
oracle for the reader: it never touches numpy's own format module, so a
bug there cannot hide in both routes. cca_oracle plays the same role for
the whitened CCA, bilinear_gather_oracle for the sparse warp operator, and
full_lift_subspace for the k-column lift of spatial_subspace's tall route.
"""

import math
import struct

import numpy as np
from scipy import ndimage

from seis.errors import OracleError, ShapeError
from seis.linalg import TruncatedSubspace, _truncation_rank, spatial_subspace
from seis.matricize import center_rows, matricize


def write_npy_independent(path, arr, fortran_order=False, descr="<f8"):
    """Hand-rolled NPY v1.0 writer (magic + padded ASCII header + payload)."""
    arr = np.asarray(arr)
    shape = ",".join(str(s) for s in arr.shape)
    if arr.ndim == 1:
        shape += ","
    header = (
        f"{{'descr': '{descr}', 'fortran_order': {fortran_order}, "
        f"'shape': ({shape}), }}"
    )
    # total header block (incl. 10 preamble bytes) padded to a multiple of 64
    unpadded = 10 + len(header) + 1
    pad = (64 - unpadded % 64) % 64
    header = header + " " * pad + "\n"
    payload = arr.astype(descr).tobytes(order="F" if fortran_order else "C")
    with open(path, "wb") as fh:
        fh.write(b"\x93NUMPY")
        fh.write(bytes([1, 0]))
        fh.write(struct.pack("<H", len(header)))
        fh.write(header.encode("latin1"))
        fh.write(payload)


def dematricize(a, dims) -> np.ndarray:
    """Invert matricize; exact inverse for matching source dims."""
    b, c, h, w = dims
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (h * w, b * c):
        raise ShapeError(f"matrix shape {a.shape} does not match dims {tuple(dims)}")
    return np.ascontiguousarray(a.T).reshape(b, c, h, w)


def smooth_tensor(dims, sigma=1.5, seed=0):
    """Standardized smooth Gaussian field, independent of the harness code."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    x = rng.standard_normal(dims)
    x = ndimage.gaussian_filter(x, sigma=(0.0, 0.0, sigma, sigma))
    mean = x.mean(axis=(2, 3), keepdims=True)
    std = x.std(axis=(2, 3), keepdims=True)
    return (x - mean) / std


def subspace_of_tensor(z) -> TruncatedSubspace:
    return spatial_subspace(center_rows(matricize(z)))


def subspace_of_matrix(m) -> TruncatedSubspace:
    """Truncated subspace of a raw matrix after row centering."""
    return spatial_subspace(center_rows(np.asarray(m, dtype=np.float64)))


def full_lift_subspace(centered) -> TruncatedSubspace:
    """spatial_subspace of a tall (d > n) centered matrix, lifting every
    eigenvector above the rank floor, centered @ v / s, and then keeping the
    first k lifted columns."""
    centered = np.asarray(centered, dtype=np.float64)
    d, n = centered.shape
    if d <= n:
        raise ShapeError(f"the full lift needs a tall matrix, got {centered.shape}")
    lam, vecs = np.linalg.eigh(centered.T @ centered)
    s = np.sqrt(np.clip(lam[::-1], 0.0, None))
    vecs = vecs[:, ::-1]
    kept, k, retained = _truncation_rank(s)
    lifted = (centered @ vecs[:, kept]) / s[kept]
    basis = np.ascontiguousarray(lifted[:, :k])
    return TruncatedSubspace(
        basis=basis,
        singular_values=s[:k].copy(),
        projected=basis.T @ centered,
        retained_variance=retained,
        k=k,
    )


# dtype kinds without real values, which the tensor contract rejects
NON_REAL_KINDS = ("complex", "str", "datetime64")


def non_real_tensor(kind) -> np.ndarray:
    """A (2, 3, 4, 4) tensor of one of NON_REAL_KINDS."""
    base = np.arange(96).reshape(2, 3, 4, 4)
    return {
        "complex": base + 1j * base,
        "str": base.astype(str),
        "datetime64": base.astype("datetime64[s]"),
    }[kind]


def replace_projected(sub: TruncatedSubspace, projected) -> TruncatedSubspace:
    """Clone a subspace with different projected coordinates (CCA-level tests)."""
    return TruncatedSubspace(
        basis=sub.basis,
        singular_values=sub.singular_values,
        projected=np.asarray(projected, dtype=np.float64),
        retained_variance=sub.retained_variance,
        k=sub.k,
    )


def cca_oracle(left: TruncatedSubspace, right: TruncatedSubspace) -> np.ndarray:
    """Reference canonical correlations via the generalized eigenproblem.

    Brute force and test-oriented: explicit inverses, dense eigen-solve,
    no regularization. rho_i^2 are the eigenvalues of
    Cxx^-1 Cxy Cyy^-1 Cyx, sorted descending. Intended for small, well
    conditioned instances; on a singular covariance it raises OracleError
    and the caller should regenerate the instance.
    """
    x = np.asarray(left.projected, dtype=np.float64)
    y = np.asarray(right.projected, dtype=np.float64)
    kx = x.shape[0]
    cov = np.cov(x, y)
    cxx = cov[:kx, :kx]
    cxy = cov[:kx, kx:]
    cyx = cov[kx:, :kx]
    cyy = cov[kx:, kx:]
    try:
        m = np.linalg.inv(cxx) @ cxy @ np.linalg.inv(cyy) @ cyx
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular covariance: {exc}") from exc
    lam = np.linalg.eigvals(m)
    if np.max(np.abs(lam.imag)) > 1e-6:
        raise OracleError("eigenvalues are not numerically real")
    rho = np.sqrt(np.clip(lam.real, 0.0, None))
    rho = np.sort(rho)[::-1]
    return rho[: min(kx, y.shape[0])]


def bilinear_gather_oracle(z, params) -> np.ndarray:
    """apply_affine as an explicit corner-by-corner gather over the grid.

    Same inverse map and right-angle snapping as apply_affine, but each
    corner's clipped reads are weighted and accumulated in the order
    (0,0), (0,1), (1,0), (1,1), with out-of-grid reads multiplied by zero.
    """
    z = np.asarray(z, dtype=np.float64)
    b, c, h, w = z.shape
    angle = params.angle_deg % 360.0
    theta = math.radians(angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    if angle % 90.0 == 0.0:
        cos_t, sin_t = float(round(cos_t)), float(round(sin_t))
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(
        np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij"
    )
    ux = xs - cx - params.tx * w
    uy = ys - cy - params.ty * h
    src_x = (cos_t * ux - sin_t * uy) / params.scale + cx
    src_y = (sin_t * ux + cos_t * uy) / params.scale + cy
    x0 = np.floor(src_x).astype(np.intp)
    y0 = np.floor(src_y).astype(np.intp)
    fx = src_x - x0
    fy = src_y - y0
    flat = z.reshape(b * c, h, w)
    out = np.zeros_like(flat)
    for dy in (0, 1):
        for dx in (0, 1):
            yy = y0 + dy
            xx = x0 + dx
            weight = (fy if dy else 1.0 - fy) * (fx if dx else 1.0 - fx)
            inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            yc = np.clip(yy, 0, h - 1)
            xc = np.clip(xx, 0, w - 1)
            out += flat[:, yc, xc] * (weight * inside)
    return out.reshape(b, c, h, w)
