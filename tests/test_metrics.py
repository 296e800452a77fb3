import threading

import numpy as np
import pytest

import seis as package
from seis import metrics

from seis.errors import (
    DegenerateRankError,
    DegenerateSampleError,
    DtypeError,
    NumericalError,
    ShapeError,
    ValidationError,
)
from seis.harness import HarnessConfig, make_alternate
from seis.linalg import CcaResult, cca, center_rows
from seis.metrics import Side, equivariance_score, invariance_score, seis
from seis.tensor_io import matricize
from seis.transforms import (
    CONDITION_ORDER, AffineParams, ConditionKind, apply_affine, make_stream,
)

from helpers import (
    NON_REAL_KINDS,
    assert_same_bits,
    dematricize,
    non_real_tensor,
    permute_spatial,
    smooth_tensor,
)

DIMS = (6, 8, 12, 12)  # d=144, n=48

# one shape per Gram route: d=25 <= n=32 and d=25 > n=8
ROUTE_DIMS = [(4, 8, 5, 5), (2, 4, 5, 5)]


def alternating_huge(dims):
    """A finite tensor of +-1e200 alternating in C order. With h*w odd each
    spatial cell alternates across observations too, so centering keeps it
    at 1e200 and every Gram diagonal entry of the unscaled matrix overflows."""
    return 1e200 * (-1.0) ** np.arange(np.prod(dims)).reshape(dims)


def is_normal(z):
    """Whether every nonzero value of z is a normal float64."""
    return bool(np.all((z == 0.0) | (np.abs(z) >= np.finfo(np.float64).tiny)))


class TestSeisRegimes:
    def test_identity(self):
        z = smooth_tensor(DIMS, seed=0)
        s = seis(z, z)
        assert s.s_equiv >= 0.999
        assert s.s_inv >= 0.99
        assert s.r == min(s.k_a, s.k_a_prime)
        assert s.correlations.shape == (s.r,)

    @pytest.mark.parametrize("seed", range(20))
    def test_spatial_permutation_is_exact(self, seed):
        z = smooth_tensor(DIMS, seed=seed)
        perm = np.random.default_rng(1000 + seed).permutation(144)
        s = seis(z, permute_spatial(z, perm))
        assert s.s_equiv >= 0.999

    def test_permutation_breaks_invariance_but_not_equivariance(self):
        z = smooth_tensor(DIMS, seed=3)
        perm = np.random.default_rng(9).permutation(144)
        base = seis(z, z)
        moved = seis(z, permute_spatial(z, perm))
        assert moved.s_equiv >= 0.999
        assert base.s_inv >= 0.99
        assert moved.s_inv < base.s_inv - 0.5

    def test_rotation_180_high_equiv_low_inv(self):
        # asymmetric smooth field rotated half a turn: information intact,
        # basis moved far from itself
        z = smooth_tensor(DIMS, seed=4)
        s = seis(z, apply_affine(z, AffineParams(angle_deg=180.0)))
        assert s.s_equiv >= 0.999
        assert s.s_inv < 0.8

    def test_independent_fields_near_chance(self):
        big = (32, 32, 16, 16)  # n=1024 observations keeps chance low
        a = smooth_tensor(big, seed=5)
        b = smooth_tensor(big, seed=6)
        s = seis(a, b)
        assert s.s_equiv <= 0.2
        assert s.s_inv <= 0.05


class TestSeisInvariances:
    def test_symmetry(self):
        a = smooth_tensor(DIMS, seed=7)
        b = apply_affine(smooth_tensor(DIMS, seed=8), AffineParams(tx=0.1))
        ab = seis(a, b)
        ba = seis(b, a)
        assert abs(ab.s_equiv - ba.s_equiv) <= 1e-8
        assert abs(ab.s_inv - ba.s_inv) <= 1e-8

    @pytest.mark.parametrize("alpha", [3.7, 0.25, 2.0**10])
    def test_positive_scaling(self, alpha):
        a = smooth_tensor(DIMS, seed=9)
        b = smooth_tensor(DIMS, seed=10)
        base = seis(a, b)
        scaled = seis(a, alpha * b)
        assert abs(scaled.s_equiv - base.s_equiv) <= 1e-10
        assert abs(scaled.s_inv - base.s_inv) <= 1e-10

    def test_orthogonal_spatial_mixing(self):
        # an orthogonal remix of the feature axis rotates the basis but
        # leaves the projected coordinates untouched
        a = smooth_tensor(DIMS, seed=11)
        b = smooth_tensor(DIMS, seed=12)
        base = seis(a, b)
        d = 144
        q, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((d, d)))
        mixed = dematricize(q @ matricize(b), DIMS)
        got = seis(a, mixed)
        assert abs(got.s_equiv - base.s_equiv) <= 1e-6

    def test_invertible_mixing_on_full_rank_side(self):
        # when truncation keeps the full row space, any invertible remix of
        # the feature axis is a lossless recoding and cannot move the score
        dims = (2, 3, 4, 4)  # d=16, n=6: rank-5 sides survive truncation whole
        a = smooth_tensor(dims, sigma=0.8, seed=14)
        b = smooth_tensor(dims, sigma=0.8, seed=15)
        base = seis(a, b)
        assert base.k_a_prime == 5
        rng = np.random.default_rng(16)
        q = rng.standard_normal((16, 16)) + 4.0 * np.eye(16)
        mixed = dematricize(q @ matricize(b), dims)
        got = seis(a, mixed)
        assert got.k_a_prime == 5
        assert abs(got.s_equiv - base.s_equiv) <= 1e-6

    def test_shared_observation_permutation(self):
        a = smooth_tensor(DIMS, seed=17)
        b = smooth_tensor(DIMS, seed=18)
        base = seis(a, b)
        n = DIMS[0] * DIMS[1]
        perm = np.random.default_rng(19).permutation(n)

        def permute_obs(z):
            b_, c_, h_, w_ = z.shape
            return z.reshape(b_ * c_, h_, w_)[perm].reshape(z.shape)

        got = seis(permute_obs(a), permute_obs(b))
        assert abs(got.s_equiv - base.s_equiv) <= 1e-6
        assert abs(got.s_inv - base.s_inv) <= 1e-6


class TestScoreFunctions:
    def test_equiv_equals_mean_rho(self):
        a = smooth_tensor(DIMS, seed=20)
        b = apply_affine(a, AffineParams(angle_deg=45.0))
        res = cca(Side.of(a).projected, Side.of(b).projected)
        assert abs(equivariance_score(res) - res.correlations.mean()) <= 1e-10

    def test_orthogonal_variates_score_zero(self):
        n = 40
        t = np.linspace(0, 2 * np.pi, n, endpoint=False)
        p = np.vstack([np.cos(t)])
        q = np.vstack([np.sin(t)])  # orthogonal to p, both centered
        assert equivariance_score(cca(p, q)) <= 1e-10

    def test_invariance_identity_bases(self):
        a = smooth_tensor(DIMS, seed=21)
        left = Side.of(a)
        res = cca(left.projected, left.projected)
        assert invariance_score(res, left.basis, left.basis) >= 0.99

    def test_invariance_zero_lifted_vector(self):
        res = CcaResult(
            correlations=np.array([1.0]),
            proj_left=np.zeros((2, 1)),  # lifts to the zero vector
            proj_right=np.ones((2, 1)),
        )
        basis = np.eye(3)[:, :2]
        with pytest.raises(NumericalError):
            invariance_score(res, basis, basis)


class TestSeisErrors:
    def test_dim_mismatch_names_both(self):
        a = smooth_tensor((2, 2, 6, 6), seed=23)
        b = smooth_tensor((2, 2, 8, 8), seed=24)
        with pytest.raises(ShapeError, match=r"2, 2, 6, 6.*2, 2, 8, 8"):
            seis(a, b)

    def test_nonfinite_alternate_rejected(self):
        a = smooth_tensor((2, 2, 4, 4), seed=26)
        b = a.copy()
        b[1, 0, 2, 3] = np.nan  # flat index 32 + 8 + 3
        with pytest.raises(ValidationError,
                           match="^alternate tensor: non-finite value at flat index 43$"):
            seis(a, b)

    def test_fortran_order_nan_names_logical_flat_index(self):
        t = smooth_tensor((1, 2, 3, 3), seed=35)
        t[0, 1, 0, 1] = np.nan  # flat index 10 in C order
        t = np.asfortranarray(t.astype(np.float32))
        with pytest.raises(ValidationError, match="flat index 10"):
            seis(t, t)

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                        reason="long double has no range beyond float64 here")
    @pytest.mark.filterwarnings("error")
    def test_long_double_beyond_float64_is_non_finite(self):
        # widening to float64 makes the value infinite, without a warning
        t = np.ones((1, 2, 2, 2), dtype=np.longdouble)
        t[0, 0, 1, 0] = np.longdouble(np.finfo(np.float64).max) * 4
        with pytest.raises(ValidationError, match="flat index 2"):
            seis(t, t)

    @pytest.mark.parametrize("dims", ROUTE_DIMS)
    @pytest.mark.filterwarnings("error")
    def test_gram_overflow_scores_with_the_bits_of_a_smaller_scale(self, dims):
        # finite entries whose squares overflow: the side is scaled before its Gram
        z = alternating_huge(dims)
        other = smooth_tensor(dims, seed=36)
        assert_same_bits(seis(z, other), seis(z * 2.0**-700, other))

    @pytest.mark.filterwarnings("error")
    def test_matrix_side_names_the_tensor_flat_index(self):
        # the harness builds sides from the tensor views of (d, n) matrices:
        # matrix.T's C order is the tensor's, so cell 3 of observation 4 is
        # flat index 4 * 16 + 3
        m = np.random.default_rng(37).standard_normal((16, 6))
        m[3, 4] = np.nan
        with pytest.raises(ValidationError,
                           match="^alternate tensor: non-finite value at flat index 67$"):
            Side.of(m.T.reshape(2, 3, 4, 4), "alternate")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_sum_names_no_flat_index(self):
        # finite entries whose row sum overflows: the row means' own error
        m = np.random.default_rng(38).standard_normal((16, 6))
        m[5] = 1e308
        with pytest.raises(ValidationError,
                           match="^reference tensor: .*row sums overflow$") as exc:
            Side.of(m.T.reshape(2, 3, 4, 4))
        assert "flat index" not in str(exc.value)

    @pytest.mark.filterwarnings("error")
    def test_overflowed_centering_names_no_flat_index(self):
        # the row [1.7e308, -1.7e308, -1.7e308] has a finite mean, but its
        # first entry minus that mean overflows: the centered peak's own error
        m = np.random.default_rng(39).standard_normal((16, 3))
        m[5] = [1.7e308, -1.7e308, -1.7e308]
        with pytest.raises(ValidationError,
                           match="^alternate tensor: .*its centering overflows$") as exc:
            Side.of(m.T.reshape(1, 3, 4, 4), "alternate")
        assert "flat index" not in str(exc.value)

    @pytest.mark.parametrize("kind", NON_REAL_KINDS)
    def test_non_real_dtype_rejected(self, kind):
        # complex used to be scored on its real part, datetime64 as numbers;
        # the error names the side that holds it
        z = non_real_tensor(kind)
        real = smooth_tensor(z.shape, seed=27)
        with pytest.raises(DtypeError, match="^alternate tensor: unsupported dtype "):
            seis(real, z)
        with pytest.raises(DtypeError, match="^reference tensor: unsupported dtype "):
            seis(z, real)

    def test_degenerate_side_is_named(self):
        a = np.zeros((2, 2, 4, 4))
        b = smooth_tensor((2, 2, 4, 4), seed=25)
        with pytest.raises(DegenerateRankError, match="reference"):
            seis(a, b)
        with pytest.raises(DegenerateRankError, match="alternate"):
            seis(b, a)

    @pytest.mark.filterwarnings("error")
    def test_magnitude_ladder_keeps_every_bit(self):
        # both sides scaled by 2**e: each side is scaled by the power of two
        # that puts its centered peak in [0.5, 1), which is exact, so every
        # rung whose values stay normal scores with the unscaled pair's bits,
        # 2**506 to 2**508 included, where the unscaled Gram nears overflow
        z = smooth_tensor((4, 8, 12, 12), seed=0)
        a = apply_affine(z, AffineParams(angle_deg=15.0))
        base = seis(z, a)
        normal, zero = [], []
        for e in range(1020, -1081, -1):
            z_e, a_e = np.ldexp(z, e), np.ldexp(a, e)
            try:
                got = seis(z_e, a_e)
            except DegenerateRankError as exc:
                # only a side that underflowed to a constant row each raises
                role, _, message = str(exc).partition(" tensor: ")
                assert message == "all singular values are zero"
                assert not center_rows(matricize(z_e if role == "reference" else a_e)).any()
                zero.append(e)
                continue
            if is_normal(z_e) and is_normal(a_e):
                normal.append(e)
                assert_same_bits(got, base)
        assert {506, 507, 508, 0, -335, -900} <= set(normal)
        assert max(normal) == 1020 and min(normal) < -1000
        assert zero == list(range(zero[0], -1081, -1))  # the tail of the ladder

    def test_single_observation_is_named(self):
        # the sample count is checked once, by centering, before any stage
        # that divides by n - 1
        a = smooth_tensor((1, 1, 4, 4), seed=28)
        with pytest.raises(DegenerateSampleError, match="reference.*at least 2 observations"):
            seis(a, a)


def count_subspaces(monkeypatch):
    """The list of matrices each later spatial_subspace call appends to."""
    calls = []
    build = metrics.spatial_subspace
    monkeypatch.setattr(metrics, "spatial_subspace", lambda c: calls.append(c) or build(c))
    return calls


class TestSeisReuse:
    """An alternate equal in value to the reference is scored against the
    reference subspace itself."""

    @pytest.mark.parametrize("dims", [DIMS, (8, 16, 5, 5)])  # tall and wide
    @pytest.mark.parametrize("widen", [False, True])
    def test_equal_inputs_match_two_built_sides(self, dims, widen):
        z = smooth_tensor(dims, seed=31)
        if widen:
            z = z.astype(np.float32)
        alt = z.astype(np.float64) if widen else z.copy()
        got = seis(z, alt)
        want = seis(Side.of(z), Side.of(alt, "alternate"))
        assert (got.k_a, got.k_a_prime, got.r) == (want.k_a, want.k_a_prime, want.r)
        assert got.s_equiv == want.s_equiv
        assert abs(got.s_inv - want.s_inv) <= 1e-15

    def test_one_subspace_for_equal_inputs(self, monkeypatch):
        calls = count_subspaces(monkeypatch)
        z = smooth_tensor(DIMS, seed=32)
        seis(z, z.copy())
        assert len(calls) == 1
        alt = z.copy()
        alt[1, 2, 3, 4] += 1e-3
        seis(z, alt)
        assert len(calls) == 3

    def test_nan_in_reference_raises_the_reference_error(self):
        z = smooth_tensor((2, 2, 4, 4), seed=33)
        z[0, 0, 1, 1] = np.nan  # flat index 5
        alt = z.copy()
        alt[1, 1, 3, 3] = np.nan
        for a in (z, alt):
            with pytest.raises(ValidationError, match="flat index 5$"):
                seis(z, a)

    @pytest.mark.parametrize("dtype", [complex, object])
    def test_equal_values_of_a_non_real_dtype_rejected(self, dtype):
        z = smooth_tensor((2, 2, 4, 4), seed=34)
        with pytest.raises(DtypeError):
            seis(z, z.astype(dtype))


def score_bits(s):
    """Every field of a SeisScores, the correlations as their bytes."""
    return s.s_equiv, s.s_inv, s.r, s.k_a, s.k_a_prime, s.correlations.tobytes()


class TestSide:
    """A Side is built once and scores with the bits of its tensor."""

    @pytest.mark.parametrize("dims", ROUTE_DIMS)
    def test_side_scores_like_its_tensor_in_either_position(self, dims):
        z = smooth_tensor(dims, seed=50)
        alt = apply_affine(z, AffineParams(angle_deg=20.0))
        want = score_bits(seis(z, alt))
        ref_side, alt_side = Side.of(z), Side.of(alt, "alternate")
        assert ref_side.dims == alt_side.dims == dims
        for got in (seis(ref_side, alt), seis(z, alt_side), seis(ref_side, alt_side)):
            assert score_bits(got) == want

    def test_one_side_against_five_alternates_matches_five_calls(self, monkeypatch):
        cfg = HarnessConfig(dims=DIMS, trials=1)
        z = smooth_tensor(DIMS, seed=51)
        alts = [make_alternate(cfg, z, kind, make_stream(51, 0, 1))
                for kind in CONDITION_ORDER if kind is not ConditionKind.IDENTITY]
        want = [score_bits(seis(z, alt)) for alt in alts]
        calls = count_subspaces(monkeypatch)
        side = Side.of(z)
        assert [score_bits(seis(side, alt)) for alt in alts] == want
        assert len(calls) == 1 + len(alts) == 6

    @pytest.mark.parametrize("dims", ROUTE_DIMS)
    def test_side_of_spatial_matrix_scores_like_side_of(self, dims):
        # the harness hands over the matrix its alternate views and builds the
        # side on it in place: the bits of Side.of on that tensor view
        z = smooth_tensor(dims, seed=54)
        m = matricize(apply_affine(z, AffineParams(angle_deg=20.0)))
        want = score_bits(seis(z, Side.of(m.T.reshape(dims), "alternate")))
        assert score_bits(seis(z, Side._of_spatial(m, dims, "alternate"))) == want
        m[3, 4] = np.nan  # cell 3 of observation 4, as in the tensor view
        with pytest.raises(ValidationError, match=(
                f"^alternate tensor: non-finite value at flat index {4 * m.shape[0] + 3}$")):
            Side._of_spatial(m, dims, "alternate")

    def test_dims_mismatch_raises_before_anything_is_built(self, monkeypatch):
        side = Side.of(smooth_tensor(DIMS, seed=52))
        other = smooth_tensor((6, 8, 12, 11), seed=53)

        def matricize(z):
            raise AssertionError("a side was built")

        monkeypatch.setattr(metrics, "matricize", matricize)
        for ref, alt in ((side, other), (other, side)):
            with pytest.raises(ShapeError) as exc:
                seis(ref, alt)
            dims = [x.dims if isinstance(x, Side) else x.shape for x in (ref, alt)]
            assert str(exc.value) == f"tensor dims differ: {dims[0]} vs {dims[1]}"


def test_concurrent_calls_score_with_the_serial_bits():
    # seis() is safe to call concurrently: each call allocates its own eigensolve
    # workspaces. The two pairs share dims, so a workspace kept between calls
    # per size would be shared, and LAPACK releases the GIL while it works.
    pairs = []
    for seed in (60, 61):
        z = smooth_tensor((4, 8, 6, 6), seed=seed)  # d=36 > n=32
        pairs.append((z, apply_affine(z, AffineParams(angle_deg=20.0 + seed))))
    want = [score_bits(seis(*pair)) for pair in pairs]
    got = [[], []]
    start = threading.Barrier(2)

    def score(i):
        start.wait(timeout=60)
        for _ in range(20):
            got[i].append(score_bits(seis(*pairs[i])))

    threads = [threading.Thread(target=score, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert got == [[bits] * 20 for bits in want]


def test_every_exported_name_resolves():
    assert len(package.__all__) == len(set(package.__all__))
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    # the pipeline's stages trust their inputs and stay internal
    for name in ("cca", "spatial_subspace", "row_cosines", "center_rows",
                 "equivariance_score", "invariance_score"):
        assert name not in package.__all__
