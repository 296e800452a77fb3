"""Shared test utilities.

write_npy_independent is a from-scratch NPY v1.0 emitter (npy_bytes, which
also writes the malformed headers of MALFORMED_NPY_HEADERS) used as the
oracle for the reader: it never touches numpy's own format module, so a
bug there cannot hide in both routes. cca_oracle plays the same role for
the whitened CCA, bilinear_gather_oracle for the sparse warp operator, and
full_lift_subspace for the k-column lift of spatial_subspace's tall route.
The package needs numpy only; scipy serves the bit-for-bit oracles of its
numpy code: gaussian_field_oracle for field generation and csr_of, the
CSR matrix of a warp table's stored corners, for the warp product.
The subspace_of_* helpers build Sides for stage-level tests, and
warp_alignment scores candidate warps between two Sides.
random_conv_stack is a small seeded CNN whose layers give a depth profile
without trained weights. run_condition and GEOMETRIC_CONDITIONS are
shorthands for running the harness one condition at a time, and
permute_spatial is the lossless spatial warp the exactness tests use.
fail_eigensolves makes seis.linalg's eigensolves fail as unconverged ones do,
at any one of the bound LAPACK stages, the partial Gram solve's dsterf
included.
child_env is the environment of a child interpreter that imports this
checkout's seis; with ONE_BLAS_THREAD it runs BLAS on one thread.
"""

import math
import os
import struct
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage, sparse

import seis
from seis import linalg
from seis.errors import SeisError, ShapeError, ValidationError
from seis.harness import HarnessConfig, run_validation_suite
from seis.linalg import _truncation_rank, cca, center_rows, row_cosines, spatial_subspace
from seis.metrics import Side
from seis.tensor_io import matricize
from seis.transforms import ConditionKind

GEOMETRIC_CONDITIONS = (
    ConditionKind.TRANSLATION,
    ConditionKind.SCALING,
    ConditionKind.ROTATION,
    ConditionKind.AFFINE,
)


# BLAS reads its thread count once, when numpy loads it
ONE_BLAS_THREAD = {var: "1" for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env(**overrides) -> dict:
    """os.environ for a child interpreter that imports this checkout's seis,
    without SEIS_LOG, so the child logs at the default level."""
    env = {**os.environ, "PYTHONPATH": str(Path(seis.__file__).parents[1]), **overrides}
    env.pop("SEIS_LOG", None)
    return env


def fail_eigensolves(monkeypatch, stage="dstedc"):
    """Make seis.linalg's symmetric eigensolves fail as unconverged ones do, on
    whichever solve it bound. Where it bound LAPACK's stages, the routine named
    stage reports info = 1, as dstedc does for an eigenvalue that did not
    converge and dsterf for one it did not find; a workspace query of dsytrd
    or dormtr fails the same way. A failed dstemr does not fail the Gram
    solve, which falls back to dsyevd's stages. numpy's
    gufunc leaves NaN in both outputs and raises the invalid-value flag, which
    warns unless the caller's errstate ignores it."""
    if linalg._LAPACK is None:
        def eigh_lo(a, out, signature):
            w, v = out
            np.sqrt(np.full_like(w, -1.0), out=w)
            v[...] = np.nan
            return out

        monkeypatch.setattr(linalg, "_umath_linalg", types.SimpleNamespace(eigh_lo=eigh_lo))
        return

    def unconverged(*args):
        # info follows the declared arguments, before one length per character argument
        args[-1 - sum(isinstance(x, bytes) for x in args)].value = 1

    monkeypatch.setitem(linalg._LAPACK, stage, unconverged)


def run_condition(cfg: HarnessConfig, kind) -> list:
    """Run every trial of one condition and return one ResultRow per trial."""
    return run_validation_suite(replace(cfg, conditions=(kind,)))[1]


def permute_spatial(z, perm) -> np.ndarray:
    """Move flattened spatial cell i of every slice to position perm[i].

    A permutation is the exactness probe for spatial transforms: it is a
    lossless linear operator on the feature axis, so equivariance scores
    across it should be indistinguishable from the identity case. It is
    applied like apply_affine's operator, to the spatial matrix. Values
    move unchanged, except that -0.0 comes out as +0.0.
    """
    m = matricize(z)
    d = m.shape[0]
    perm = np.asarray(perm)
    if perm.shape != (d,) or perm.dtype.kind not in "iu":
        raise ValidationError(f"perm must be {d} integer indices")
    if not np.array_equal(np.sort(perm), np.arange(d)):
        raise ValidationError("perm is not a bijection on the spatial cells")
    op = sparse.csr_array((np.ones(d), (perm, np.arange(d))), shape=(d, d))
    return (op @ m).T.reshape(np.shape(z))


def npy_bytes(header, payload) -> bytes:
    """NPY v1.0 bytes: magic, version, the header text padded with spaces and
    a newline to a multiple of 64 bytes (preamble included), then payload."""
    header += " " * ((64 - (10 + len(header) + 1) % 64) % 64) + "\n"
    return (b"\x93NUMPY" + bytes([1, 0]) + struct.pack("<H", len(header))
            + header.encode("latin1") + payload)


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
    payload = arr.astype(descr).tobytes(order="F" if fortran_order else "C")
    with open(path, "wb") as fh:
        fh.write(npy_bytes(header, payload))


# NPY headers numpy cannot read, one for each exception class other than
# ValueError that numpy raises on them
_HEADER = "{'descr': '<f8', 'fortran_order': False, 'shape': "
MALFORMED_NPY_HEADERS = {
    "unclosed": _HEADER + "(2, 3, 4, 4), ",                 # tokenize.TokenError
    "negative-dim": _HEADER + "(2, -3, 4, 4), }",           # OverflowError
    "bool-dim": _HEADER + "(2, True, 4, 4), }",             # TypeError
    "dedent": _HEADER + "(2, 3, 4, 4), }\n  1\n 2",         # IndentationError
}


def write_malformed_npy(path, name) -> None:
    """A (2, 3, 4, 4) float64 dump whose header is MALFORMED_NPY_HEADERS[name]."""
    with open(path, "wb") as fh:
        fh.write(npy_bytes(MALFORMED_NPY_HEADERS[name], bytes(2 * 3 * 4 * 4 * 8)))


def dematricize(a, dims) -> np.ndarray:
    """Invert matricize; exact inverse for matching source dims."""
    b, c, h, w = dims
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (h * w, b * c):
        raise ShapeError(f"matrix shape {a.shape} does not match dims {tuple(dims)}")
    return np.ascontiguousarray(a.T).reshape(b, c, h, w)


def gaussian_field_oracle(cfg: HarnessConfig, rng) -> np.ndarray:
    """gen_synthetic_activations on scipy: one whole draw, blurred by
    ndimage.gaussian_filter along h and w, each slice then standardized."""
    x = rng.standard_normal(cfg.dims)
    x = ndimage.gaussian_filter(x, sigma=(0.0, 0.0, cfg.smoothness, cfg.smoothness))
    x -= x.mean(axis=(2, 3), keepdims=True)
    x /= np.sqrt(np.mean(np.square(x), axis=(2, 3), keepdims=True))
    return x


def csr_of(op) -> sparse.csr_array:
    """The CSR matrix of a WarpOperator's stored corners: each row's slots
    whose source is a grid cell, in slot order."""
    d = len(op.sources)
    kept = op.sources < d
    return sparse.csr_array((op.weights[kept], (np.nonzero(kept)[0], op.sources[kept])),
                            shape=(d, d))


def smooth_tensor(dims, sigma=1.5, seed=0):
    """Standardized smooth Gaussian field, independent of the harness code."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    x = rng.standard_normal(dims)
    x = ndimage.gaussian_filter(x, sigma=(0.0, 0.0, sigma, sigma))
    mean = x.mean(axis=(2, 3), keepdims=True)
    std = x.std(axis=(2, 3), keepdims=True)
    return (x - mean) / std


def random_conv_stack(x, seed, widths=(16, 32, 64, 64), c4=False) -> list:
    """Activations after each block of a seeded random CNN.

    Each block is a 3x3 "same" convolution (zero padding, no bias) with
    He-scaled normal weights, a ReLU and 2x2 average pooling, so it halves
    h and w (both must stay even). The weights depend only on seed, so
    inputs passed with one seed go through one network. With c4, each
    filter of those same draws is averaged over its four 90-degree
    rotations, the filter-level form of rotation augmentation, so every
    block commutes with an exact rot90 of a square input. Returns the
    (b, c_out, h, w) output of every block.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    outputs = []
    for c_out in widths:
        c_in = x.shape[1]
        weights = rng.standard_normal((c_out, c_in, 3, 3)) * math.sqrt(2.0 / (9 * c_in))
        if c4:
            weights = sum(np.rot90(weights, k, axes=(2, 3)) for k in range(4)) / 4.0
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        windows = sliding_window_view(padded, (3, 3), axis=(2, 3))
        x = np.maximum(np.einsum("bchwij,ocij->bohw", windows, weights, optimize=True), 0.0)
        b, c, h, w = x.shape
        x = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        outputs.append(x)
    return outputs


def assert_same_bits(got, want) -> None:
    """Two SeisScores agree in every bit: both scores, both k and every correlation."""
    assert (got.s_equiv, got.s_inv, got.k_a, got.k_a_prime) == (
        want.s_equiv, want.s_inv, want.k_a, want.k_a_prime)
    assert np.array_equal(got.correlations, want.correlations)


def subspace_of_matrix(m) -> Side:
    """Side of a raw matrix after row centering; it has no tensor dims."""
    return subspace_of_centered(center_rows(np.array(m, dtype=np.float64)))


def subspace_of_centered(centered) -> Side:
    """Side of an already centered matrix; it has no tensor dims."""
    return Side(None, *spatial_subspace(centered))


def full_lift_subspace(centered) -> Side:
    """spatial_subspace of a tall (d > n) centered matrix, lifting every
    eigenvector above 1e-12 * sigma_max, centered @ v / s, and then keeping
    the first k lifted columns."""
    centered = np.asarray(centered, dtype=np.float64)
    d, n = centered.shape
    if d <= n:
        raise ShapeError(f"the full lift needs a tall matrix, got {centered.shape}")
    lam, vecs = np.linalg.eigh(centered.T @ centered)
    s = np.sqrt(np.clip(lam[::-1], 0.0, None))
    vecs = vecs[:, ::-1]
    kept = s >= 1e-12 * s[0]
    k, retained = _truncation_rank(s)
    lifted = (centered @ vecs[:, kept]) / s[kept]
    basis = np.ascontiguousarray(lifted[:, :k])
    return Side(None, basis, basis.T @ centered, retained)


def warp_alignment(ref: Side, alt: Side, operators) -> np.ndarray:
    """a(W) = mean_i rho_i |cos(W B_L p_i, B_R q_i)| for each candidate warp
    operator W: s_inv's formula after the reference's lifted canonical
    directions B_L p_i are moved by W. Canonical directions move by W^-T,
    close to W for a nearly orthogonal warp, so the candidate of largest a
    estimates the warp from ref to alt without being told it."""
    c = cca(ref.projected, alt.projected)
    lifted_ref = ref.basis @ c.proj_left
    lifted_alt = (alt.basis @ c.proj_right).T
    return np.array([np.mean(c.correlations * row_cosines((op @ lifted_ref).T, lifted_alt))
                     for op in operators])


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


class OracleError(SeisError):
    """The brute-force reference computation could not run on this instance."""


def cca_oracle(x, y) -> np.ndarray:
    """Reference canonical correlations via the generalized eigenproblem.

    Brute force and test-oriented: explicit inverses, dense eigen-solve,
    no regularization. rho_i^2 are the eigenvalues of
    Cxx^-1 Cxy Cyy^-1 Cyx, sorted descending. Intended for small, well
    conditioned instances; on a singular covariance it raises OracleError
    and the caller should regenerate the instance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
