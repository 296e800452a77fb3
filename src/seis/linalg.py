"""Row centering, principal-subspace truncation and a numerically stable CCA.

Raw CCA on high-dimensional activations is notoriously fragile: sample
covariances come out ill-conditioned and generalized eigensolvers fail to
converge. The implementation here therefore keeps the classic stable
recipe: center each side's rows (center_rows), truncate each to the
subspace holding 99% of its squared singular spectrum, whiten both
covariance blocks with symmetric inverse square roots (plus a tiny
relative ridge), and read the canonical system off the SVD of the
whitened cross covariance. The tests cross-check it
against a brute-force generalized eigenproblem that shares nothing with
the whitening path beyond covariance formation.
"""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateRankError, DegenerateSampleError, NumericalError, ValidationError

# Fraction of the squared singular spectrum the retained subspace must cover.
VARIANCE_THRESHOLD = 0.99

# Relative ridge added to each covariance diagonal before inversion.
COVARIANCE_RIDGE = 1e-10

# Floor on a nonzero side's largest Gram diagonal entry D: with m = min(d, n), the
# 99% cut keeps s_k^2 > 0.01 * s_1^2 / m and s_1^2 >= D, so lifted canonical directions
# have norms < 10 * sqrt((n - 1) * m / D), whose products stay under 1e308 for (n - 1) * m < 1e100.
GRAM_FLOOR = 1e-200

# Clamping correlations into [0, 1] may move a value at most this far;
# anything larger is a real numerical failure and must not be hidden.
CLAMP_GUARD = 1e-10


@dataclass(frozen=True)
class CcaResult:
    """Canonical system between two projected data sets.

    correlations are non-increasing values in [0, 1], one per thin-SVD pair
    of cca's whitened cross covariance; column i of proj_left / proj_right
    maps cca's x / y to the i-th canonical variate, proj_left[:, i] @ x,
    whose sample variance is 1 up to the ridge (see cca), and
    correlations[i] is the absolute cosine between the two sides' i-th
    variates.
    """

    correlations: np.ndarray    # (r,), r = min(k_a, k_a_prime)
    proj_left: np.ndarray       # (k_a, r)
    proj_right: np.ndarray      # (k_a_prime, r)


def row_cosines(a, b) -> np.ndarray:
    """Absolute cosine similarity between matching rows of two matrices.

    a and b are same-shaped float64 matrices, not checked here. Raises
    NumericalError on any zero-norm row; silent zeros would be
    indistinguishable from genuine orthogonality. Rounding can push a cosine
    past 1 by a few machine epsilons; such values are clamped back, but an
    excess beyond CLAMP_GUARD is a real failure and raises.
    """
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise NumericalError("zero-norm vector in cosine computation")
    cos = np.abs(np.einsum("ij,ij->i", a, b)) / (na * nb)
    if not np.all(np.isfinite(cos)):
        raise NumericalError("non-finite cosine")
    if np.any(cos > 1.0 + CLAMP_GUARD):
        raise NumericalError(
            f"cosine exceeds 1 by {float(np.max(cos) - 1.0):.3e}, beyond the clamp guard"
        )
    return np.minimum(cos, 1.0)


def _truncation_rank(s):
    """(k, retained variance) of a non-increasing spectrum with s[0] > 0: the fewest
    leading values holding 99% of sigma^2 over the whole spectrum, with no rank floor."""
    power = s**2
    frac = np.cumsum(power) / np.sum(power)
    k = int(np.searchsorted(frac, VARIANCE_THRESHOLD) + 1)
    return k, float(frac[k - 1])


def _eigh(a, failure):
    """np.linalg.eigh(a) through its own LAPACK gufunc, the eigenvectors written over a (C-order
    float64); a solve that does not converge raises NumericalError(failure) and warns nothing."""
    with np.errstate(all="ignore"):
        w, v = _umath_linalg.eigh_lo(a, out=(np.empty(a.shape[0]), a), signature="d->dd")
    if not np.isfinite(w).all():
        raise NumericalError(failure)
    return w, v


def center_rows(a: np.ndarray) -> np.ndarray:
    """Subtract each row's mean over the observations, in place.

    a is a 2-D float64 matrix the caller owns, such as matricize's result;
    it is overwritten and returned. Centering happens here, before any
    SVD, so the truncated basis is a true principal subspace and the
    canonical variates downstream come out centered. Idempotent. It needs
    n >= 2 observations, and a NaN, an inf or an overflowing sum, which makes
    its row's mean non-finite, raises ValidationError before a is changed.
    """
    if a.shape[1] < 2:
        raise DegenerateSampleError(f"centering needs at least 2 observations, got {a.shape[1]}")
    mean = a.mean(axis=1)
    if not np.isfinite(mean).all():
        raise ValidationError("matrix contains non-finite entries or its row sums overflow")
    a -= mean[:, None]
    return a


def spatial_subspace(centered) -> tuple:
    """(basis, projected, retained_variance) of a centered matrix's Side, via the Gram route.

    centered is a 2-D float64 matrix with rows centered by center_rows, as
    seis() builds it; it is not checked here. Faster than a thin SVD on the
    wide matrices the pipeline produces, but it resolves singular values
    only down to about sqrt(eps) * sigma_max (~1e-8); the noise directions
    below that carry ~1e-16 of sigma^2, and those under 1e-12 * sigma_max
    under min(d, n) * 1e-24, too little to move the 99% cut, which needs no
    rank floor. With values checked by center_rows, the Gram diagonal guards
    against overflow: a square that overflows at centered[i, j] reaches
    G[i, i] (wide) or G[j, j] (tall), and while the diagonal is finite no
    entry or partial sum can overflow (Cauchy-Schwarz: |ab| <= (a^2 + b^2) / 2).
    A zero or too small matrix (Gram diagonal below GRAM_FLOOR) raises before the eigensolve,
    whose eigenvectors overwrite the Gram.

    A tall (d > n) matrix is eigendecomposed through its (n, n) Gram, and
    only the k retained eigenvectors are lifted to the spatial basis,
    centered @ v_i / s_i: a (d, n, k) product instead of (d, n, n).
    """
    d, n = centered.shape
    tall = d > n
    gram = centered.T @ centered if tall else centered @ centered.T
    if not np.isfinite(gram.diagonal()).all():
        raise ValidationError("matrix contains non-finite entries or its Gram matrix overflows")
    if gram.diagonal().max() < GRAM_FLOOR:
        raise DegenerateRankError("all singular values are zero" if not centered.any() else
                                  f"values too small to score: Gram diagonal below {GRAM_FLOOR}")
    lam, vecs = _eigh(gram, "Gram eigensolve did not converge")
    s = np.sqrt(np.clip(lam[::-1], 0.0, None))
    vecs = vecs[:, ::-1]
    k, retained = _truncation_rank(s)
    if tall:
        # lifted as (v_k^T centered^T)^T: this keeps the bits of lifting every
        # direction above 1e-12 * s[0] on all but one of the benchmark's golden
        # inputs, while centered @ v_k takes another BLAS kernel on small
        # shapes and moves smoke-size s_inv by up to 1.8e-5; elsewhere the
        # basis can differ from the full lift by about 1e-16
        vecs = (np.ascontiguousarray(vecs[:, :k]).T @ centered.T).T / s[:k]
    basis = np.ascontiguousarray(vecs[:, :k])
    return basis, basis.T @ centered, retained


def _whitener(x):
    """Symmetric inverse square root of the sample covariance of x's rows,
    after adding COVARIANCE_RIDGE times its mean diagonal to the diagonal."""
    k, n = x.shape
    c = x @ x.T / (n - 1)
    c[np.diag_indices(k)] += COVARIANCE_RIDGE * np.trace(c) / k
    failure = "covariance is not positive definite even after regularization"
    w, v = _eigh(c, failure)
    if w[0] <= 0.0:
        raise NumericalError(failure)
    return (v / np.sqrt(w)) @ v.T


def cca(x, y) -> CcaResult:
    """Canonical correlation analysis between two projected data sets.

    Sample covariances of the projected rows are formed without re-centering
    (rows are centered upstream and projection preserves that), each side is
    whitened by _whitener, and the r = min(k_a, k_a') canonical directions are
    the thin SVD factors of the whitened cross covariance, mapped back through
    the whiteners. Whitening gives the variates unit sample variance up to the
    ridge; directions are not rescaled, since both scores read cosines. Each
    reported correlation is the absolute cosine of its centered variate pair
    (a zero variate raises there); no score reads the directions' SVD signs.

    x and y are the (k_a, n) and (k_a', n) projected matrices of two Sides
    with the same n >= 2 observations, which seis() and center_rows check
    beforehand.
    """
    inv_sqrt_x = _whitener(x)
    inv_sqrt_y = _whitener(y)
    whitened = inv_sqrt_x @ (x @ y.T / (x.shape[1] - 1)) @ inv_sqrt_y
    # finite positive-definite blocks never reach this: the ridge bounds every product term
    if not np.all(np.isfinite(whitened)):
        raise NumericalError("whitened cross covariance contains non-finite entries")

    e, _, ft = np.linalg.svd(whitened, full_matrices=False)
    w_left = inv_sqrt_x @ e
    v_right = inv_sqrt_y @ ft.T

    rho = row_cosines(w_left.T @ x, v_right.T @ y)
    order = np.argsort(-rho, kind="stable")
    return CcaResult(
        correlations=rho[order],
        proj_left=np.ascontiguousarray(w_left[:, order]),
        proj_right=np.ascontiguousarray(v_right[:, order]),
    )
