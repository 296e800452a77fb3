import tracemalloc
import warnings

import numpy as np
import pytest

import seis.linalg as linalg
from seis.errors import (
    DegenerateRankError,
    NumericalError,
    ValidationError,
)
from seis.linalg import _eigh, _truncation_rank, cca, center_rows, row_cosines, spatial_subspace
from seis.metrics import Side, seis
from seis.tensor_io import matricize

from helpers import (
    OracleError,
    cca_oracle,
    fail_eigensolves,
    full_lift_subspace,
    smooth_tensor,
    subspace_of_centered,
    subspace_of_matrix,
)


def centered_noise(k, n, seed):
    rng = np.random.default_rng(seed)
    return center_rows(rng.standard_normal((k, n)))


def variates(res, left, right):
    """The canonical variates, (r, n) each, that res's directions give."""
    return res.proj_left.T @ left.projected, res.proj_right.T @ right.projected


def assert_matches_svd_route(m):
    """Check spatial_subspace on a copy of m against a LAPACK thin SVD that
    drops values under 1e-12 * sigma_max before the 99% budget; returns the
    reference k. projected is compared with m and s under the power-of-two
    scale that spatial_subspace applies, which is exact."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    power = s[s >= 1e-12 * s[0]] ** 2
    frac = np.cumsum(power) / power.sum()
    k = int(np.searchsorted(frac, 0.99) + 1)
    via_gram = subspace_of_centered(m.copy())
    scale = 2.0 ** -np.frexp(np.abs(m).max())[1]
    m, s = m * scale, s * scale
    assert via_gram.k == k
    assert np.allclose(np.linalg.norm(via_gram.projected, axis=1), s[:k],
                       rtol=1e-9, atol=1e-12)
    # bases agree column-wise up to sign
    sign = np.sign(np.sum(via_gram.basis * u[:, :k], axis=0))
    assert np.allclose(via_gram.basis * sign, u[:, :k], atol=1e-8)
    assert np.allclose(via_gram.projected * sign[:, None], u[:, :k].T @ m,
                       atol=1e-8)
    assert via_gram.retained_variance == pytest.approx(frac[k - 1], abs=1e-12)
    return k


class TestTruncate99:
    """The 99% rule, fed exact spectra."""

    def test_two_values_dominant(self):
        # 100 / 101 = 0.990099 >= 0.99, so one direction suffices
        k, retained = _truncation_rank(np.array([10.0, 1.0]))
        assert k == 1
        assert retained == pytest.approx(100.0 / 101.0, abs=1e-15)

    def test_two_equal_values(self):
        k, retained = _truncation_rank(np.array([1.0, 1.0]))
        assert k == 2
        assert retained == 1.0

    def test_rank_one(self):
        k, retained = _truncation_rank(np.array([5.0]))
        assert k == 1
        assert retained == 1.0

    def test_value_under_1e12_sigma_max_changes_neither_k_nor_retained(self):
        s = np.array([5.0, 4.9e-12])  # second is below 1e-12 * 5.0
        k, retained = _truncation_rank(s)
        assert k == 1
        assert retained == 1.0

    def test_projection_contents(self):
        m = centered_noise(6, 40, seed=3)
        sub = subspace_of_centered(m)
        assert sub.projected.shape == (sub.k, 40)
        assert np.allclose(sub.projected, sub.basis.T @ m)
        assert np.allclose(sub.basis.T @ sub.basis, np.eye(sub.k), atol=1e-10)
        assert sub.retained_variance >= 0.99

    @pytest.mark.parametrize("seed", range(10))
    def test_threshold_is_tight(self, seed):
        m = centered_noise(12, 60, seed=seed)
        sub = subspace_of_centered(m)
        s = np.linalg.svd(m, compute_uv=False)
        power = s**2
        frac = np.cumsum(power) / power.sum()
        assert frac[sub.k - 1] >= 0.99
        if sub.k > 1:
            assert frac[sub.k - 2] < 0.99


def tall_low_rank_matrix():
    # 120 cells by 40 observations: 10 dead rows, and the last 20
    # observations duplicate the first 20 with a fast-decaying spectrum,
    # so the Gram has null directions (fewer than n values above
    # 1e-12 * sigma_max) and the 99% cut keeps far fewer still
    rng = np.random.default_rng(7)
    half = rng.standard_normal((120, 20)) * 0.5 ** np.arange(20)
    half[:10] = 0.0
    return center_rows(np.hstack([half, half]))


# The k-column lift and the full lift run different GEMMs, which may order
# their sums differently: the unit-norm basis columns then differ by about
# 1e-16, and the projected coordinates by as much relative to their scale.
LIFT_TOL = 1e-15


def white_matrix(dims, seed):
    return matricize(np.random.default_rng(seed).standard_normal(dims))


TALL_CASES = {
    "white(3,50,15,15)": lambda: white_matrix((3, 50, 15, 15), 0),
    "white(2,16,6,6)": lambda: white_matrix((2, 16, 6, 6), 1),
    "smooth(2,8,10,10)": lambda: matricize(smooth_tensor((2, 8, 10, 10), seed=3)),
    "noise(300,64)": lambda: np.random.default_rng(2).standard_normal((300, 64)),
    "rank-floor": tall_low_rank_matrix,
}


class TestSpatialSubspace:
    @pytest.mark.parametrize("case", sorted(TALL_CASES))
    def test_tall_lift_matches_full_lift(self, case):
        m = center_rows(TALL_CASES[case]())
        assert m.shape[0] > m.shape[1]
        sub = subspace_of_centered(m)
        ref = full_lift_subspace(m)
        assert sub.k == ref.k
        assert sub.retained_variance == ref.retained_variance
        np.testing.assert_allclose(sub.basis, ref.basis, rtol=0, atol=LIFT_TOL)
        np.testing.assert_allclose(sub.projected, ref.projected, rtol=0,
                                   atol=LIFT_TOL * np.abs(ref.projected).max())

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30), (25, 25)])
    def test_matches_svd_route(self, shape):
        assert_matches_svd_route(centered_noise(*shape, seed=shape[0]))

    def test_tall_low_rank_matches_svd_route(self):
        m = tall_low_rank_matrix()
        s = np.sqrt(np.clip(np.linalg.eigvalsh(m.T @ m)[::-1], 0.0, None))
        k, _ = _truncation_rank(s)
        assert k <= 8 and np.count_nonzero(s >= 1e-12 * s[0]) < 40
        assert_matches_svd_route(m)

    def test_basis_orthonormal_tall(self):
        sub = subspace_of_centered(centered_noise(80, 20, seed=1))
        assert np.allclose(sub.basis.T @ sub.basis, np.eye(sub.k), atol=1e-10)

    def test_zero_matrix(self):
        with pytest.raises(DegenerateRankError):
            spatial_subspace(np.zeros((5, 8)))

    def test_all_zero_side_skips_its_eigensolve(self, monkeypatch):
        # a zero Gram diagonal already proves every singular value zero
        def eigh(a, failure):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(linalg, "_eigh", eigh)
        for shape in ((5, 8), (8, 5)):
            with pytest.raises(DegenerateRankError, match="^all singular values are zero$"):
                spatial_subspace(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite(self, bad):
        # one non-finite entry must reach the checked Gram on both routes
        for shape in ((3, 4), (4, 3)):
            m = np.ones(shape)
            m[1, 2] = bad
            with pytest.raises(ValidationError):
                spatial_subspace(m)

    @pytest.mark.filterwarnings("error")
    def test_gram_overflow(self):
        # finite entries whose squares overflow are scaled before the Gram, on
        # both routes, to the bits of the same matrix scaled by 2**-700
        for shape in ((3, 4), (4, 3)):
            m = 1e200 * (-1.0) ** np.arange(12).reshape(shape)
            small = m * 2.0**-700
            got, want = spatial_subspace(m), spatial_subspace(small)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert np.array_equal(m, small)  # both were scaled in place to one matrix

    def test_scales_in_place_to_a_peak_in_half_open_unit(self):
        m = centered_noise(6, 20, seed=8) * 2.0**-1070  # subnormal peak
        assert np.abs(m).max() < np.finfo(float).tiny
        expected = np.ldexp(m, -np.frexp(np.abs(m).max())[1])
        spatial_subspace(m)
        assert np.array_equal(m, expected)
        assert 0.5 <= np.abs(m).max() < 1.0


class TestInPlaceEigh:
    @pytest.mark.parametrize("shape", [(60, 25), (25, 60)], ids=["tall", "wide"])
    def test_bits_of_np_linalg_eigh_over_the_gram(self, shape):
        m = centered_noise(*shape, seed=4)
        gram = m.T @ m if shape[0] > shape[1] else m @ m.T
        want_w, want_v = np.linalg.eigh(gram)
        w, v = _eigh(gram, "unused")
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
        assert np.shares_memory(v, gram)

    def test_tall_side_holds_one_gram(self):
        # tracemalloc sees numpy's arrays but not LAPACK's own buffers (its copy
        # of the Gram and the 2n^2 workspace of dsyevd), so the traced peak is the
        # Gram, the eigenvalues and the lift of a rank-20 side; a separate
        # eigenvector array would add another n^2
        rng = np.random.default_rng(5)
        m = center_rows(rng.standard_normal((1200, 20)) @ rng.standard_normal((20, 800)))
        tracemalloc.start()
        try:
            basis, projected, _ = spatial_subspace(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = m.shape[1]
        assert peak < 1.5 * n * n * 8 + basis.nbytes + projected.nbytes

    def test_nonconvergence_raises_naming_the_role(self, monkeypatch):
        fail_eigensolves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="^alternate tensor: Gram eigensolve did not converge$"):
                Side.of(smooth_tensor((2, 4, 6, 6), seed=1), "alternate")
            x = centered_noise(3, 10, seed=2)
            with pytest.raises(NumericalError, match="^covariance is not positive definite"):
                cca(x, x)


def duplicated_channels(z):
    z[:, 1::2] = z[:, ::2]
    return z


def dead_spatial_rows(z):
    z[:, :, :2, :] = 0.0
    return z


def constant_slices(z):
    z[:, ::3] = np.arange(z.shape[0])[:, None, None, None]
    return z


LOW_RANK_INPUTS = {
    "duplicated-channels": duplicated_channels,
    "dead-spatial-rows": dead_spatial_rows,
    "constant-slices": constant_slices,
}

# one shape per Gram route: d=25 <= n=32 and d=100 > n=16
ROUTE_DIMS = {"wide": (4, 8, 5, 5), "tall": (2, 8, 10, 10)}


class TestLowRankInputs:
    """Rank-deficient tensors: the 99% budget alone gives the k and basis of
    an SVD reference that drops values under 1e-12 * sigma_max first."""

    @pytest.mark.parametrize("route", sorted(ROUTE_DIMS))
    @pytest.mark.parametrize("kind", sorted(LOW_RANK_INPUTS))
    def test_seis_matches_svd_route(self, kind, route):
        dims = ROUTE_DIMS[route]
        z = LOW_RANK_INPUTS[kind](smooth_tensor(dims, seed=5))
        m = center_rows(matricize(z))
        assert (m.shape[0] > m.shape[1]) == (route == "tall")
        s = np.linalg.svd(m, compute_uv=False)
        assert np.count_nonzero(s >= 1e-12 * s[0]) < min(m.shape)  # rank deficient
        k = assert_matches_svd_route(m)
        scores = seis(z, z)
        assert scores.k_a == scores.k_a_prime == k


class TestCca:
    def test_identical_subspaces(self):
        sub = subspace_of_matrix(np.random.default_rng(0).standard_normal((20, 200)))
        res = cca(sub.projected, sub.projected)
        assert np.all(res.correlations >= 1.0 - 1e-8)
        assert res.correlations.size == sub.k

    def test_invertible_map_invariance(self):
        left = subspace_of_matrix(np.random.default_rng(1).standard_normal((15, 120)))
        right = subspace_of_matrix(np.random.default_rng(2).standard_normal((15, 120)))
        base = cca(left.projected, right.projected).correlations
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            q = rng.standard_normal((right.k, right.k))
            q += right.k * np.eye(right.k)  # keep it comfortably invertible
            got = cca(left.projected, q @ right.projected).correlations
            assert np.max(np.abs(got - base)) <= 1e-8

    def test_shared_column_permutation_invariance(self):
        left = subspace_of_matrix(np.random.default_rng(30).standard_normal((6, 90)))
        right = subspace_of_matrix(np.random.default_rng(31).standard_normal((5, 90)))
        base = cca(left.projected, right.projected).correlations
        perm = np.random.default_rng(32).permutation(90)
        got = cca(left.projected[:, perm], right.projected[:, perm]).correlations
        assert np.max(np.abs(got - base)) <= 1e-8

    def test_positive_scaling_invariance(self):
        left = subspace_of_matrix(np.random.default_rng(33).standard_normal((6, 90)))
        right = subspace_of_matrix(np.random.default_rng(34).standard_normal((6, 90)))
        base = cca(left.projected, right.projected).correlations
        for alpha in (1e-4, 7.3, 2.0**20):
            got = cca(left.projected, alpha * right.projected).correlations
            assert np.max(np.abs(got - base)) <= 1e-8

    def test_chance_level_small_k(self):
        # independent sides, k=5, n=2000: mean correlation stays near
        # the sqrt(k/n) chance floor
        means = []
        for seed in range(20):
            left = subspace_of_matrix(
                np.random.default_rng(2 * seed).standard_normal((5, 2000)))
            right = subspace_of_matrix(
                np.random.default_rng(2 * seed + 1).standard_normal((5, 2000)))
            means.append(cca(left.projected, right.projected).correlations.mean())
        assert np.mean(means) <= 0.1

    def test_correlations_sorted_in_range(self):
        left = subspace_of_matrix(np.random.default_rng(3).standard_normal((8, 100)))
        right = subspace_of_matrix(np.random.default_rng(4).standard_normal((6, 100)))
        res = cca(left.projected, right.projected)
        assert res.correlations.size == min(left.k, right.k)
        assert np.all(res.correlations >= 0.0)
        assert np.all(res.correlations <= 1.0)
        assert np.all(np.diff(res.correlations) <= 0)

    def test_variates_unit_variance(self):
        left = subspace_of_matrix(np.random.default_rng(5).standard_normal((7, 90)))
        right = subspace_of_matrix(np.random.default_rng(6).standard_normal((7, 90)))
        res = cca(left.projected, right.projected)
        n = left.projected.shape[1]
        p, q = variates(res, left, right)
        var_p = np.sum(p**2, axis=1) / (n - 1)
        var_q = np.sum(q**2, axis=1) / (n - 1)
        assert np.allclose(var_p, 1.0, atol=1e-9)
        assert np.allclose(var_q, 1.0, atol=1e-9)

    def test_variate_correlation_equals_rho(self):
        left = subspace_of_matrix(np.random.default_rng(7).standard_normal((6, 80)))
        right = subspace_of_matrix(np.random.default_rng(8).standard_normal((5, 80)))
        res = cca(left.projected, right.projected)
        p, q = variates(res, left, right)
        for i in range(res.correlations.size):
            c = np.corrcoef(p[i], q[i])[0, 1]
            assert abs(abs(c) - res.correlations[i]) <= 1e-8

    def test_cross_variates_uncorrelated(self):
        left = subspace_of_matrix(np.random.default_rng(9).standard_normal((6, 150)))
        right = subspace_of_matrix(np.random.default_rng(10).standard_normal((6, 150)))
        res = cca(left.projected, right.projected)
        p, q = variates(res, left, right)
        n = p.shape[1]
        cross = p @ q.T / (n - 1)
        off = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off)) <= 1e-6


class TestCcaOracle:
    def test_identical(self):
        sub = subspace_of_matrix(np.random.default_rng(20).standard_normal((4, 100)))
        rho = cca_oracle(sub.projected, sub.projected)
        assert np.allclose(rho, 1.0, atol=1e-8)

    def test_anticorrelated_pair(self):
        # correlation magnitude: a 1-D pair with q = -p still gives rho = 1
        p = center_rows(np.random.default_rng(21).standard_normal((1, 60)))
        rho = cca_oracle(p, -p)
        assert rho.shape == (1,)
        assert rho[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_cca_square(self, seed):
        left = subspace_of_matrix(
            np.random.default_rng(3 * seed).standard_normal((3, 50)))
        right = subspace_of_matrix(
            np.random.default_rng(3 * seed + 1).standard_normal((3, 50)))
        assert np.max(np.abs(cca(left.projected, right.projected).correlations
                             - cca_oracle(left.projected, right.projected))) <= 1e-8

    def test_matches_cca_rectangular(self):
        # k_a < k_a' and k_a > k_a': the thin SVD sets the direction shapes
        n = 50
        for k_left, k_right in [(3, 4), (4, 3)]:
            left = subspace_of_matrix(np.random.default_rng(60).standard_normal((k_left, n)))
            right = subspace_of_matrix(np.random.default_rng(61).standard_normal((k_right, n)))
            res = cca(left.projected, right.projected)
            r = min(k_left, k_right)
            assert res.correlations.shape == (r,)
            assert res.proj_left.shape == (k_left, r)
            assert res.proj_right.shape == (k_right, r)
            rho = cca_oracle(left.projected, right.projected)
            assert np.max(np.abs(res.correlations - rho)) <= 1e-8
            p, q = variates(res, left, right)
            assert np.allclose(np.sum(p**2, axis=1) / (n - 1), 1.0, atol=1e-9)
            assert np.allclose(np.sum(q**2, axis=1) / (n - 1), 1.0, atol=1e-9)
            for i in range(r):
                assert abs(abs(np.corrcoef(p[i], q[i])[0, 1]) - res.correlations[i]) <= 1e-8

    def test_singular_covariance(self):
        p = center_rows(np.random.default_rng(22).standard_normal((3, 40)))
        p[2] = p[1]  # exactly dependent rows -> singular covariance
        with pytest.raises(OracleError):
            cca_oracle(p, p)


class TestRowCosines:
    def test_parallel_and_orthogonal(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert np.allclose(row_cosines(a, b), [1.0, 0.0])

    def test_sign_insensitive(self):
        a = np.array([[1.0, 2.0]])
        assert row_cosines(a, -a)[0] == pytest.approx(1.0)

    def test_zero_norm_raises(self):
        with pytest.raises(NumericalError):
            row_cosines(np.zeros((1, 3)), np.ones((1, 3)))

    def test_overflowing_norms_raise(self):
        a = np.array([[1e200, 1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="^non-finite cosine$"):
                row_cosines(a, a)

    def test_cosine_past_clamp_guard_raises(self):
        # subnormal norms round so far that the cosine comes out as 2
        a, b = np.array([[2.142857142857143e-162]]), np.array([[3.461538461538462e-162]])
        with pytest.raises(NumericalError, match="^cosine exceeds 1 by 1.000e"):
            row_cosines(a, b)


class TestCcaGuards:
    def test_zero_variance_variate_raises(self):
        # the zero row whitens to an exactly zero direction
        x = np.array([[1.0, 2.0, 3.0, 5.0], [0.0, 0.0, 0.0, 0.0]])
        y = np.random.default_rng(0).standard_normal((2, 4))
        with pytest.raises(NumericalError, match="^zero-norm vector in cosine computation$"):
            cca(x, y)

    def test_overflowing_covariance_raises(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4))
        x[0] *= 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="^covariance is not positive definite"):
                cca(x, rng.standard_normal((2, 4)))
