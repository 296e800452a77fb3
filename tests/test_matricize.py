import numpy as np
import pytest

from seis.errors import DegenerateSampleError, DtypeError, ShapeError
from seis.matricize import center_rows, matricize
from seis.transforms import permute_spatial

from helpers import NON_REAL_KINDS, dematricize, non_real_tensor


def rand_tensor(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestMatricize:
    def test_2x2_single_slice(self):
        z = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        a = matricize(z)
        assert a.shape == (4, 1)
        assert np.array_equal(a[:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_shape(self):
        a = matricize(rand_tensor((2, 3, 4, 5)))
        assert a.shape == (20, 6)

    def test_index_mapping(self):
        b, c, h, w = 2, 3, 4, 5
        z = rand_tensor((b, c, h, w), seed=1)
        a = matricize(z)
        for i in range(b):
            for j in range(c):
                for y in range(h):
                    for x in range(w):
                        assert a[y * w + x, i * c + j] == z[i, j, y, x]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float32_widens_in_the_copy(self, order):
        # checked and widened at once: bit-equal to matricizing the float64
        # widening, as a fresh C-contiguous float64 array
        t32 = np.asarray(rand_tensor((2, 3, 4, 5), seed=4), dtype=np.float32, order=order)
        a = matricize(t32)
        assert a.dtype == np.float64 and a.flags["C_CONTIGUOUS"]
        assert a.tobytes() == matricize(t32.astype(np.float64)).tobytes()
        assert not np.shares_memory(a, t32)

    def test_float64_result_does_not_alias_input(self):
        # one observation: the (9, 1) matrix has z's own memory layout
        z = rand_tensor((1, 1, 3, 3), seed=5)
        assert not np.shares_memory(matricize(z), z)

    @pytest.mark.parametrize("kind", NON_REAL_KINDS)
    def test_non_real_dtype_rejected(self, kind):
        with pytest.raises(DtypeError):
            matricize(non_real_tensor(kind))

    def test_round_trip(self):
        z = rand_tensor((3, 4, 5, 6), seed=2)
        assert np.array_equal(dematricize(matricize(z), z.shape), z)

    def test_dematricize_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dematricize(np.zeros((4, 4)), (2, 3, 4, 5))

    def test_spatial_permutation_commutes(self):
        # the linchpin: permuting the (y, x) grid permutes the rows
        z = rand_tensor((2, 2, 3, 4), seed=3)
        d = 12
        perm = np.random.default_rng(5).permutation(d)
        left = matricize(permute_spatial(z, perm))
        right = matricize(z)
        assert np.array_equal(left[perm, :], right)


class TestCenterRows:
    def test_simple_row(self):
        centered = center_rows(np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(centered, [[-1.0, 0.0, 1.0]])

    def test_constant_row_kept(self):
        centered = center_rows(np.array([[5.0, 5.0, 5.0]]))
        assert np.array_equal(centered, [[0.0, 0.0, 0.0]])

    def test_random_rows_centered(self):
        # oracle: recompute the row means of the output
        a = np.random.default_rng(7).standard_normal((10, 100)) * 3 + 1
        centered = center_rows(a)
        assert np.max(np.abs(centered.mean(axis=1))) <= 1e-12

    def test_idempotent(self):
        a = np.random.default_rng(8).standard_normal((6, 40))
        once = center_rows(a)
        twice = center_rows(once)
        assert np.allclose(once, twice, atol=1e-15)

    def test_too_few_observations(self):
        with pytest.raises(DegenerateSampleError):
            center_rows(np.ones((4, 1)))

    def test_non_matrix(self):
        with pytest.raises(ShapeError):
            center_rows(np.ones((2, 2, 2)))
