"""Row centering, principal-subspace truncation and a numerically stable CCA.

Raw CCA on high-dimensional activations is notoriously fragile: sample
covariances come out ill-conditioned and generalized eigensolvers fail
to converge. The implementation here therefore keeps the classic stable
recipe: center each side's rows (center_rows), scale each side by the
exact power of two that brings its peak into [0.5, 1), so its magnitude
moves no bit, truncate each to the subspace holding 99% of its squared
singular spectrum, whiten both covariance blocks with symmetric inverse
square roots (plus a tiny relative ridge), and read the canonical system
off the SVD of the whitened cross covariance. The tests cross-check it
against a brute-force generalized eigenproblem that shares nothing with
the whitening path beyond covariance formation.
"""

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateRankError, DegenerateSampleError, NumericalError, ValidationError

# Fraction of the squared singular spectrum the retained subspace must cover.
VARIANCE_THRESHOLD = 0.99

# Relative ridge added to each covariance diagonal before inversion.
COVARIANCE_RIDGE = 1e-10

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


def _bind_lapack(**signatures):
    """LAPACK routines, by name, from the library numpy's own eigh calls, or None where that
    library does not export them all: numpy's PyPI wheels link the ILP64 scipy-openblas
    build, whose symbols carry the scipy_ prefix and the 64_ suffix. A signature spells
    the declared arguments, c a character, i an integer and a an array. _lapack calls them."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in signatures}
    except (OSError, AttributeError):
        return None
    kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64), "a": ctypes.c_void_p}
    for name, routine in routines.items():
        # info follows the declared arguments, then each character's length
        routine.argtypes = ([kinds[k] for k in signatures[name] + "i"]
                            + [ctypes.c_size_t] * signatures[name].count("c"))
        routine.restype = None
    return routines


_LAPACK = _bind_lapack(dsytrd="ciaiaaaai", dstedc="ciaaaiaiai", dormtr="ccciiaiaaiai")


def _lapack(failure, name, *args):
    """Call the bound LAPACK routine name on bytes as characters, ints as ILP64 integers
    and arrays as their data pointers; a nonzero info raises NumericalError(failure)."""
    info = ctypes.c_int64(0)
    _LAPACK[name](*[ctypes.c_int64(x) if isinstance(x, int)
                    else x.ctypes.data if isinstance(x, np.ndarray) else x for x in args],
                  info, *[len(x) for x in args if isinstance(x, bytes)])
    if info.value:
        raise NumericalError(failure)


def _eigh(a, failure):
    """np.linalg.eigh(a) of a symmetric C-order float64 matrix, its eigenvectors written over a.

    numpy's eigh gufunc runs dsyevd('V', 'L') on a Fortran-order copy of a, which for a
    symmetric a holds a's bytes. Where numpy's LAPACK exports them (see _bind_lapack),
    the routines dsyevd calls run instead, in its order and with its workspace lengths,
    on a's own buffer, which Fortran reads as a.T, equal to a: dsytrd('L') reduces a to
    a tridiagonal, its reflectors are packed aside, dstedc('I') writes the tridiagonal's
    eigenvectors over a, and dormtr('L', 'L', 'N') applies the reflectors, unpacked into
    dstedc's spent workspace, to them. So w and v = a.T have dsyevd's bits for a peak
    magnitude in [2^-485, 2^485], where dsyevd does not rescale (see spatial_subspace),
    and the solve keeps about 2.5 n^2 doubles resident, where dsyevd kept 3 n^2. The
    gufunc runs only on numpy builds that export no such routines, with a as its
    eigenvector output. A solve that does not converge, or leaves an eigenvalue
    non-finite, raises NumericalError(failure) and warns nothing.
    """
    n = a.shape[0]
    w = np.empty(n)
    if _LAPACK is None:
        with np.errstate(all="ignore"):
            w, v = _umath_linalg.eigh_lo(a, out=(w, a), signature="d->dd")
    else:
        # LAPACK writes n * n doubles through a's raw pointer
        if not (a.dtype == np.float64 and a.shape == (n, n) and a.flags.c_contiguous
                and a.flags.writeable):
            raise ValueError(f"_eigh needs a writable C-order float64 square matrix, "
                             f"got {a.dtype} {a.shape}")
        # dsyevd's lwork for dstedc and dormtr (whose block size depends on it), n * n
        # less than dsytrd's; numpy hands dsyevd more for n <= 13, where no stage blocks
        lwork = 1 + 4 * n + n * n
        e, tau, iwork = np.empty(n), np.empty(n), np.empty(3 + 5 * n, np.int64)
        # dsytrd's workspace (it writes O(n) of it), then dstedc's, whose first n * n
        # doubles then hold the unpacked reflectors while dormtr works in the last lwork
        work = np.empty(n * n + lwork)
        _lapack(failure, "dsytrd", b"L", n, a, n, w, e, tau, work, work.size)
        # reflector i is a[i, i + 2:], flat i(n + 1) + 2 to (i + 1)n; memoryviews slice fast
        starts = np.cumsum([0, *range(n - 2, 0, -1)]).tolist()
        packed = memoryview(np.empty(starts[-1]))
        flat = memoryview(a.reshape(-1))
        for i in range(n - 2):
            packed[starts[i]:starts[i + 1]] = flat[i * (n + 1) + 2:(i + 1) * n]
        _lapack(failure, "dstedc", b"I", n, w, e, a, n, work, lwork, iwork, iwork.size)
        flat = memoryview(work)
        for i in range(n - 2):
            flat[i * (n + 1) + 2:(i + 1) * n] = packed[starts[i]:starts[i + 1]]
        del packed, flat
        _lapack(failure, "dormtr", b"L", b"L", b"N", n, n, work, n, tau, a, n, work[n * n:], lwork)
        v = a.T
    if not np.isfinite(w).all():
        raise NumericalError(failure)
    return w, v


def center_rows(a: np.ndarray) -> np.ndarray:
    """Subtract each row's mean over the observations, in place.

    a is a 2-D float64 matrix the caller owns, such as matricize's result;
    it is overwritten and returned. Centering happens here, before any
    SVD, so the truncated basis is a true principal subspace and the
    canonical variates downstream come out centered. Idempotent up to rounding:
    a second pass subtracts means of order eps times each row's peak. It needs
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
    seis() builds it. Like center_rows, this works in place: it scales centered by the
    power of two that puts its peak magnitude in [0.5, 1), which is exact. So a side
    whose values stay normal scores with the same bits at any power of two, and each
    Gram's peak lies in [1/4, max(d, n)] and each CCA covariance's in
    [1/(4(n - 1)), 2d], far inside the range _eigh needs. An overflowed centering or an
    all-zero matrix raises before the eigensolve, whose eigenvectors overwrite the Gram;
    it holds about 1.5 n^2 doubles besides (see _eigh). Faster than a thin SVD on the
    wide matrices the pipeline produces, but it resolves singular values only down to
    about sqrt(eps) * sigma_max (~1e-8); the noise directions below that carry ~1e-16 of
    sigma^2, and those under 1e-12 * sigma_max under min(d, n) * 1e-24, too little to
    move the 99% cut, which needs no rank floor.

    A tall (d > n) matrix is eigendecomposed through its (n, n) Gram, and
    only the k retained eigenvectors are lifted to the spatial basis,
    centered @ v_i / s_i: a (d, n, k) product instead of (d, n, n).
    """
    # max and min, since np.abs would allocate a second matrix
    peak = max(centered.max(), -centered.min())
    if not np.isfinite(peak):
        raise ValidationError("matrix contains non-finite entries or its centering overflows")
    if peak == 0.0:
        raise DegenerateRankError("all singular values are zero")
    # ldexp, since 2.0**-e overflows for a subnormal peak
    np.ldexp(centered, -np.frexp(peak)[1], out=centered)
    d, n = centered.shape
    tall = d > n
    gram = centered.T @ centered if tall else centered @ centered.T
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
    after adding COVARIANCE_RIDGE times its mean diagonal to the diagonal.
    A covariance that overflows, or whose ridge does, raises NumericalError
    before its eigensolve."""
    k, n = x.shape
    c = x @ x.T / (n - 1)
    c[np.diag_indices(k)] += COVARIANCE_RIDGE * np.trace(c) / k
    if not np.isfinite(c).all():
        raise NumericalError("covariance is not finite")
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
