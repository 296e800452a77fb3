import numpy as np
import pytest

from seis.errors import DegenerateSampleError, DtypeError, ShapeError
from seis.linalg import center_rows
from seis.tensor_io import matricize

from helpers import NON_REAL_KINDS, dematricize, non_real_tensor, permute_spatial


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

    # float32 in both memory orders (ids C and F), then every real dtype in C order
    @pytest.mark.parametrize("dtype,order", [
        pytest.param(np.float32, "C", id="C"),
        pytest.param(np.float32, "F", id="F"),
        *(pytest.param(dtype, "C", id=np.dtype(dtype).name)
          for dtype in (np.bool_, np.int8, np.uint16, np.int64, np.float16, np.float32,
                        np.float64)),
    ])
    def test_float32_widens_in_the_copy(self, dtype, order):
        # checked and widened at once: bit-equal to matricizing the float64
        # widening, as a fresh C-contiguous float64 array
        t = np.asarray(rand_tensor((2, 3, 4, 5), seed=4) * 10, order=order).astype(dtype)
        a = matricize(t)
        assert a.dtype == np.float64 and a.flags["C_CONTIGUOUS"]
        assert a.tobytes() == matricize(t.astype(np.float64)).tobytes()
        assert not np.shares_memory(a, t)

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
        once = center_rows(a.copy())
        twice = center_rows(once.copy())
        assert np.allclose(once, twice, atol=1e-15)

    def test_centers_its_argument_in_place(self):
        a = np.random.default_rng(9).standard_normal((5, 30)) + 2.0
        expected = a - a.mean(axis=1)[:, None]
        assert center_rows(a) is a
        assert np.array_equal(a, expected)

    def test_too_few_observations(self):
        with pytest.raises(DegenerateSampleError):
            center_rows(np.ones((4, 1)))
