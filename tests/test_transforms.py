import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seis.errors import ShapeError, ValidationError
from seis.harness import HarnessConfig, gen_synthetic_activations
from seis.tensor_io import matricize
from seis.transforms import (
    AffineParams,
    CONDITION_ORDER,
    ConditionKind,
    affine_operator,
    apply_affine,
    make_stream,
    sample_params,
)

from helpers import GEOMETRIC_CONDITIONS, bilinear_gather_oracle, csr_of, permute_spatial


def rand_tensor(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def shift_oracle(z, dx, dy):
    """Integer-pixel translation by direct index remap with zero fill."""
    b, c, h, w = z.shape
    out = np.zeros_like(z)
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[:, :, ys, xs] = z[:, :, ys_src, xs_src]
    return out


class TestSampleParams:
    def test_identity(self):
        p = sample_params(ConditionKind.IDENTITY, make_stream(0))
        assert p == AffineParams(0.0, 0.0, 1.0, 0.0)

    def test_translation_range(self):
        p = sample_params(ConditionKind.TRANSLATION, make_stream(7))
        assert -0.15 <= p.tx <= 0.15
        assert -0.15 <= p.ty <= 0.15
        assert p.scale == 1.0 and p.angle_deg == 0.0

    def test_scaling_range(self):
        p = sample_params(ConditionKind.SCALING, make_stream(7))
        assert 0.8 <= p.scale <= 1.2
        assert p.tx == p.ty == 0.0 and p.angle_deg == 0.0

    def test_rotation_range(self):
        p = sample_params(ConditionKind.ROTATION, make_stream(7))
        assert 0.0 <= p.angle_deg < 360.0
        assert p.tx == p.ty == 0.0 and p.scale == 1.0

    def test_affine_joint(self):
        p = sample_params(ConditionKind.AFFINE, make_stream(7))
        assert abs(p.tx) <= 0.15 and abs(p.ty) <= 0.15
        assert 0.8 <= p.scale <= 1.2
        assert 0.0 <= p.angle_deg < 360.0

    def test_random_baseline_rejected(self):
        with pytest.raises(ValidationError):
            sample_params(ConditionKind.RANDOM_BASELINE, make_stream(0))

    def test_deterministic_per_stream(self):
        a = sample_params(ConditionKind.AFFINE, make_stream(11, 3, 1))
        b = sample_params(ConditionKind.AFFINE, make_stream(11, 3, 1))
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown condition 'sideways'; valid: identity,"):
            sample_params("sideways", make_stream(0))

    def test_identity_draws_nothing(self):
        rng = make_stream(3)
        sample_params("identity", rng)
        assert np.array_equal(rng.standard_normal(4), make_stream(3).standard_normal(4))

    def test_accepts_string_kind(self):
        p = sample_params("scaling", make_stream(2))
        assert 0.8 <= p.scale <= 1.2

    def test_ranges_over_many_seeds(self):
        for seed in range(50):
            p = sample_params(ConditionKind.AFFINE, make_stream(seed))
            assert abs(p.tx) <= 0.15 and abs(p.ty) <= 0.15
            assert 0.8 <= p.scale <= 1.2
            assert 0.0 <= p.angle_deg < 360.0


class TestApplyAffine:
    def test_identity_bit_exact(self):
        z = rand_tensor((2, 3, 5, 7), seed=1)
        out = apply_affine(z, AffineParams())
        assert np.array_equal(out, z)
        assert out is not z  # a copy, not the same buffer

    def test_field_read_in_place(self):
        # a field is the tensor view of its C-contiguous float64 spatial matrix,
        # which the gather reads as it is: the warp allocates its output and
        # its operator, no copy of the input, and leaves the input unchanged
        z = gen_synthetic_activations(HarnessConfig(dims=(8, 64, 28, 28)), make_stream(2))
        before = z.tobytes()
        params = AffineParams(tx=0.1, scale=0.9, angle_deg=30.0)
        tracemalloc.start()
        try:
            out = apply_affine(z, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * z.nbytes
        assert out.tobytes() == bilinear_gather_oracle(z, params).tobytes()
        assert z.tobytes() == before

    def test_full_turn_is_identity(self):
        z = rand_tensor((1, 1, 4, 4), seed=2)
        assert np.array_equal(apply_affine(z, AffineParams(angle_deg=360.0)), z)

    @pytest.mark.parametrize("dx,dy", [(1, 0), (0, 1), (2, 3), (-1, 0), (-2, -1)])
    def test_integer_translation_matches_shift_oracle(self, dx, dy):
        z = rand_tensor((2, 2, 8, 16), seed=3)
        p = AffineParams(tx=dx / 16.0, ty=dy / 8.0)
        assert np.array_equal(apply_affine(z, p), shift_oracle(z, dx, dy))

    def test_rot90_matches_index_oracle(self):
        z = rand_tensor((2, 3, 6, 6), seed=4)
        out = apply_affine(z, AffineParams(angle_deg=90.0))
        oracle = np.rot90(z, k=1, axes=(2, 3))
        assert np.max(np.abs(out - oracle)) <= 1e-12

    def test_rot180_matches_index_oracle_nonsquare(self):
        z = rand_tensor((2, 2, 5, 8), seed=5)
        out = apply_affine(z, AffineParams(angle_deg=180.0))
        oracle = np.rot90(z, k=2, axes=(2, 3))
        assert np.max(np.abs(out - oracle)) <= 1e-12

    def test_rot270_matches_index_oracle(self):
        z = rand_tensor((1, 2, 7, 7), seed=6)
        out = apply_affine(z, AffineParams(angle_deg=270.0))
        oracle = np.rot90(z, k=3, axes=(2, 3))
        assert np.max(np.abs(out - oracle)) <= 1e-12

    def test_four_quarter_turns(self):
        z = rand_tensor((2, 2, 9, 9), seed=7)
        out = z
        for _ in range(4):
            out = apply_affine(out, AffineParams(angle_deg=90.0))
        assert np.max(np.abs(out - z)) <= 1e-9

    def test_half_pixel_translation_averages_neighbours(self):
        z = np.zeros((1, 1, 5, 8))
        z[0, 0, 2, 3] = 1.0
        out = apply_affine(z, AffineParams(tx=0.5 / 8.0))
        expect = np.zeros_like(z)
        expect[0, 0, 2, 3] = 0.5
        expect[0, 0, 2, 4] = 0.5
        assert np.allclose(out, expect, atol=1e-12)

    def test_linearity(self):
        z1 = rand_tensor((2, 2, 10, 10), seed=8)
        z2 = rand_tensor((2, 2, 10, 10), seed=9)
        p = AffineParams(tx=0.07, ty=-0.04, scale=1.13, angle_deg=33.0)
        lhs = apply_affine(2.5 * z1 - 1.25 * z2, p)
        rhs = 2.5 * apply_affine(z1, p) - 1.25 * apply_affine(z2, p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_out_of_bounds_reads_zero(self):
        z = np.ones((1, 1, 4, 4))
        out = apply_affine(z, AffineParams(tx=2 / 4.0))
        assert np.array_equal(out[0, 0, :, :2], np.zeros((4, 2)))
        assert np.array_equal(out[0, 0, :, 2:], np.ones((4, 2)))

    def test_shape_preserved(self):
        z = rand_tensor((3, 4, 6, 11), seed=10)
        assert apply_affine(z, AffineParams(angle_deg=17.0, scale=0.9)).shape == z.shape

    def test_small_grid_rejected(self):
        with pytest.raises(ShapeError):
            apply_affine(np.ones((1, 1, 1, 4)), AffineParams(tx=0.1))

    def test_nonfinite_param_rejected(self):
        z = rand_tensor((1, 1, 4, 4))
        with pytest.raises(ValidationError):
            apply_affine(z, AffineParams(tx=np.nan))

    def test_nonpositive_scale_rejected(self):
        z = rand_tensor((1, 1, 4, 4))
        with pytest.raises(ValidationError):
            apply_affine(z, AffineParams(scale=0.0))


class TestExactRemaps:
    """Identity parameters, integer translations, half turns and quarter
    turns of square grids store one 1.0 per output cell that reads inside
    the grid, so each input value reaches only the cell it moves to. A
    stored corner is a table slot whose source is a grid cell; every other
    slot reads the zero row h*w with weight 0.0."""

    @pytest.mark.parametrize("h,w,params,stored", [
        (5, 7, AffineParams(), 35),
        (4, 4, AffineParams(angle_deg=360.0), 16),
        (4, 6, AffineParams(tx=2 / 6, ty=-1 / 4), 3 * 4),
        (8, 16, AffineParams(tx=-1 / 16, ty=3 / 8), 5 * 15),
        (5, 8, AffineParams(angle_deg=180.0), 40),
        (6, 6, AffineParams(angle_deg=90.0), 36),
        (7, 7, AffineParams(angle_deg=270.0), 49),
        (6, 6, AffineParams(angle_deg=-90.0), 36),
    ])
    def test_one_stored_one_per_in_grid_cell(self, h, w, params, stored):
        op = affine_operator(h, w, params)
        assert op.shape == (h * w, h * w)
        assert op.sources.shape == op.weights.shape == (h * w, 4)
        kept = op.sources < h * w
        assert np.all(op.weights[kept] == 1.0)
        assert kept.sum(axis=1).max() == 1
        assert np.count_nonzero(kept) == stored
        assert np.all(op.sources[~kept] == h * w) and np.all(op.weights[~kept] == 0.0)

    @pytest.mark.parametrize("params", [
        AffineParams(tx=1 / 8, ty=0.3 / 5),  # integer x, fractional y
        AffineParams(tx=0.5 / 8),            # fractional x, integer y
        AffineParams(scale=1.3, angle_deg=33.0, tx=0.05),
    ])
    def test_no_zero_weight_stored(self, params):
        op = affine_operator(5, 8, params)
        kept = op.sources < 40
        assert kept.any() and np.all(op.weights[kept] != 0.0)
        assert np.all(op.weights[~kept] == 0.0)

    @pytest.mark.parametrize("h,w,params,oracle", [
        (5, 7, AffineParams(), lambda z: z),
        (6, 6, AffineParams(angle_deg=90.0), lambda z: np.rot90(z, 1, axes=(2, 3))),
        (5, 8, AffineParams(angle_deg=180.0), lambda z: np.rot90(z, 2, axes=(2, 3))),
        (4, 6, AffineParams(tx=2 / 6, ty=-1 / 4), lambda z: shift_oracle(z, 2, -1)),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_reaches_one_cell(self, h, w, params, oracle, bad):
        z = rand_tensor((2, 3, h, w), seed=14)
        z[1, 2, 2, 3] = bad
        out = apply_affine(z, params)
        assert np.array_equal(out, oracle(z), equal_nan=True)
        assert np.count_nonzero(~np.isfinite(out)) == 1

    def test_nan_reaches_only_cells_reading_it(self):
        # half a pixel along x: the NaN is read by its own cell and its
        # right-hand neighbour, and by no cell of the rows above or below
        z = np.zeros((1, 1, 5, 8))
        z[0, 0, 2, 3] = np.nan
        out = apply_affine(z, AffineParams(tx=0.5 / 8.0))
        assert np.argwhere(np.isnan(out[0, 0])).tolist() == [[2, 3], [2, 4]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_last_cell_reaches_only_cells_storing_it(self, bad):
        # unstored corners read past the grid, which take clips to the last
        # cell; a non-finite one there must still reach no other cell
        z = np.zeros((1, 2, 5, 8))
        z[0, 1, 4, 7] = bad
        out = apply_affine(z, AffineParams(tx=0.5 / 8.0))
        assert np.argwhere(~np.isfinite(out)).tolist() == [[0, 1, 4, 7]]
        assert np.array_equal(out[0, 1, 4, 7], bad, equal_nan=True)

    def test_identity_turns_negative_zero_positive(self):
        # the unstored slots read the last cell times 0.0, -0.0 where that
        # cell is negative, so -0.0 is the one value every term of the sum has
        z = rand_tensor((1, 2, 3, 4), seed=15)
        z[0, 1, 2, 0] = -0.0
        z[0, 1, -1, -1] = -1.0
        out = apply_affine(z, AffineParams())
        assert np.array_equal(out, z)
        assert not np.signbit(out[0, 1, 2, 0])


@st.composite
def warp_cases(draw):
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(dims)
    params = AffineParams(
        tx=draw(st.floats(-1.2, 1.2)),  # past +-1 the whole grid leaves the view
        ty=draw(st.floats(-1.2, 1.2)),
        scale=draw(st.floats(0.3, 3.0)),
        angle_deg=draw(st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0, -90.0]),
                                 st.floats(-360.0, 720.0))),
    )
    return z, params


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(warp_cases())
def test_apply_affine_matches_gather_oracle_bytes(case):
    z, params = case
    assert apply_affine(z, params).tobytes() == bilinear_gather_oracle(z, params).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(warp_cases(), st.lists(st.tuples(st.one_of(st.integers(0, 10**6), st.just(-1)),
                                        st.sampled_from([np.nan, np.inf, -np.inf, -0.0])),
                              max_size=4))
def test_apply_affine_matches_csr_product_bytes(case, specials):
    # the slot table's gather against scipy's CSR product of the same stored
    # corners, on values that show any change of summation: NaN, +-inf, -0.0,
    # also in the last cell (flat index -1), which unstored corners clip to
    z, params = case
    for at, value in specials:
        z.flat[at % z.size] = value
    want = (csr_of(affine_operator(*z.shape[2:], params)) @ matricize(z)).T.reshape(z.shape)
    assert apply_affine(z, params).tobytes() == want.tobytes()


def test_operator_rejects_a_matrix_of_other_order():
    op = affine_operator(3, 4, AffineParams())
    for m in (np.ones((11, 2)), np.ones((1, 2)), np.ones(12)):
        with pytest.raises(ShapeError, match=r"a \(12, 12\) operator cannot multiply"):
            op @ m


class TestPermuteSpatial:
    def test_identity_perm(self):
        z = rand_tensor((2, 2, 3, 3), seed=11)
        assert np.array_equal(permute_spatial(z, np.arange(9)), z)

    def test_swap_two_cells(self):
        z = np.array([[[[1.0, 2.0]]]])
        out = permute_spatial(z, np.array([1, 0]))
        assert np.array_equal(out, [[[[2.0, 1.0]]]])

    def test_signed_zero_comes_out_positive(self):
        z = np.array([[[[-0.0, 1.0]]]])
        out = permute_spatial(z, np.array([1, 0]))
        assert np.array_equal(out, [[[[1.0, 0.0]]]])
        assert not np.signbit(out[0, 0, 0, 1])

    def test_inverse_recovers(self):
        z = rand_tensor((2, 3, 4, 5), seed=12)
        perm = np.random.default_rng(13).permutation(20)
        inv = np.argsort(perm)
        assert np.array_equal(permute_spatial(permute_spatial(z, perm), inv), z)

    def test_non_bijective_rejected(self):
        z = rand_tensor((1, 1, 2, 2))
        with pytest.raises(ValidationError):
            permute_spatial(z, np.array([0, 0, 1, 2]))

    def test_wrong_length_rejected(self):
        z = rand_tensor((1, 1, 2, 2))
        with pytest.raises(ValidationError):
            permute_spatial(z, np.arange(3))


class TestMakeStream:
    def test_same_key_same_draws(self):
        a = make_stream(42, 7, 1).standard_normal(8)
        b = make_stream(42, 7, 1).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_draws(self):
        draws = {
            (seed, trial, role): tuple(make_stream(seed, trial, role).standard_normal(4))
            for seed in (0, 1)
            for trial in (0, 1, 2)
            for role in (0, 1)
        }
        assert len(set(draws.values())) == len(draws)

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_stream(-1)
        with pytest.raises(ValidationError):
            make_stream(0, -2)
        with pytest.raises(ValidationError):
            make_stream(0, 0, 5)

    @pytest.mark.parametrize("args", [(1.5,), (1.0,), (True,), (np.True_,), ("1",), (1, 2.5),
                                      (1, True), (1, 0, True), (1, 0, 1.0)])
    def test_non_integer_rejected(self, args):
        with pytest.raises(ValidationError, match="must be an integer"):
            make_stream(*args)

    def test_numpy_integers_draw_like_python_ints(self):
        a = make_stream(np.uint64(2**63 + 5), np.int64(3), np.int8(1)).standard_normal(4)
        assert np.array_equal(a, make_stream(2**63 + 5, 3, 1).standard_normal(4))


def test_condition_enumeration():
    assert [k.value for k in CONDITION_ORDER] == [
        "identity", "translation", "scaling", "rotation", "affine", "random_baseline",
    ]
    assert set(GEOMETRIC_CONDITIONS) < set(CONDITION_ORDER)
    assert ConditionKind("rotation") is ConditionKind.ROTATION


@pytest.mark.parametrize("name", ["sideways", "Rotation", "", None, 5])
def test_unknown_condition_is_validation_error(name):
    valid = "identity,translation,scaling,rotation,affine,random_baseline"
    with pytest.raises(ValidationError) as info:
        ConditionKind(name)
    assert str(info.value) == f"unknown condition {name!r}; valid: {valid}"
