"""Properties the mathematics guarantees, checked on generated tensor pairs.

Pairs are small Gaussian tensors whose alternate is an independent draw
plus a multiple of the reference, so the cases run from unrelated sides to
near copies, on both Gram routes (d <= n and d > n). Swap symmetry is
asserted for s_equiv only: when canonical correlations cluster near 1, the
directions inside the cluster are arbitrary and s_inv is not determined to
better than rounding noise amplified by the cluster gaps. A non-finite
entry put at a drawn position, on either route, must be named by its flat
index whichever side holds it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seis.errors import ValidationError
from seis.linalg import spatial_subspace
from seis.matricize import center_rows, matricize
from seis.metrics import seis

from helpers import permute_spatial

# s_equiv is the mean canonical correlation, well conditioned even when
# the correlations cluster, so it moves only by rounding.
EQUIV_TOL = 1e-9

# A permutation of the observations leaves each side's Gram matrix, and so
# its principal directions, unchanged up to the order of summation.
BASIS_TOL = 1e-10

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def tensor_pairs(draw):
    b = draw(st.integers(1, 4))
    c = draw(st.integers(2 if b == 1 else 1, 4))
    dims = (b, c, draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    coupling = draw(st.sampled_from([0.0, 0.3, 3.0]))
    rng = np.random.default_rng(draw(seeds))
    ref = rng.standard_normal(dims)
    return ref, coupling * ref + rng.standard_normal(dims)


@PROPERTY
@given(tensor_pairs())
def test_scores_lie_in_unit_interval(pair):
    scores = seis(*pair)
    assert 0.0 <= scores.s_equiv <= 1.0
    assert 0.0 <= scores.s_inv <= 1.0


@PROPERTY
@given(tensor_pairs())
def test_equivariance_is_swap_symmetric(pair):
    ref, alt = pair
    assert abs(seis(ref, alt).s_equiv - seis(alt, ref).s_equiv) <= EQUIV_TOL


@PROPERTY
@given(tensor_pairs(), st.floats(1e-3, 1e3), st.booleans())
def test_equivariance_ignores_positive_scale(pair, alpha, scale_alt):
    ref, alt = pair
    base = seis(ref, alt).s_equiv
    scaled = seis(ref, alpha * alt) if scale_alt else seis(alpha * ref, alt)
    assert abs(scaled.s_equiv - base) <= EQUIV_TOL


@PROPERTY
@given(tensor_pairs(), seeds)
def test_equivariance_ignores_shared_observation_permutation(pair, perm_seed):
    ref, alt = pair
    b, c, h, w = ref.shape
    perm = np.random.default_rng(perm_seed).permutation(b * c)

    def permute_obs(z):
        return z.reshape(b * c, h, w)[perm].reshape(z.shape)

    base = seis(ref, alt).s_equiv
    assert abs(seis(permute_obs(ref), permute_obs(alt)).s_equiv - base) <= EQUIV_TOL


@PROPERTY
@given(tensor_pairs(), seeds, st.booleans())
def test_equivariance_ignores_orthogonal_spatial_mixing(pair, mix_seed, dense):
    # an orthogonal map on one side's spatial axis rotates its principal
    # subspace but leaves the projected coordinates, and so every canonical
    # correlation, unchanged
    ref, alt = pair
    b, c, h, w = alt.shape
    rng = np.random.default_rng(mix_seed)
    if dense:
        q, _ = np.linalg.qr(rng.standard_normal((h * w, h * w)))
        mixed = (alt.reshape(b * c, h * w) @ q.T).reshape(alt.shape)
    else:
        mixed = permute_spatial(alt, rng.permutation(h * w))
    base = seis(ref, alt).s_equiv
    assert abs(seis(ref, mixed).s_equiv - base) <= EQUIV_TOL


@PROPERTY
@given(tensor_pairs(), seeds)
def test_subspaces_ignore_shared_observation_permutation(pair, perm_seed):
    # k and the basis of each side are unchanged, the basis up to the sign
    # of each column, so a permutation null needs no new eigensolve
    b, c, h, w = pair[0].shape
    perm = np.random.default_rng(perm_seed).permutation(b * c)
    for z in pair:
        base = spatial_subspace(center_rows(matricize(z)))
        moved = spatial_subspace(center_rows(matricize(z)[:, perm]))
        assert moved.k == base.k
        signs = np.where(np.sum(base.basis * moved.basis, axis=0) < 0.0, -1.0, 1.0)
        assert np.max(np.abs(moved.basis * signs - base.basis)) <= BASIS_TOL


@st.composite
def nonfinite_cases(draw):
    """(clean tensor, its copy with one non-finite entry, that entry's C-order
    flat index), float32 or float64, C or Fortran order, on either Gram route."""
    b = draw(st.integers(1, 3))
    c = draw(st.integers(2 if b == 1 else 1, 4))
    n = b * c
    if draw(st.booleans()):  # wide: d = h*w <= n
        w = draw(st.integers(1, n))
        h = draw(st.integers(1, n // w))
    else:  # tall: d > n
        h = draw(st.integers(2, 4))
        w = draw(st.integers(n // h + 1, n // h + 3))
    dims = (b, c, h, w)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    order = draw(st.sampled_from("CF"))
    clean = np.random.default_rng(draw(seeds)).standard_normal(dims).astype(dtype, order=order)
    index = draw(st.integers(0, clean.size - 1))
    bad = clean.copy(order=order)
    bad[np.unravel_index(index, dims)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return clean, bad, index


@PROPERTY
@given(nonfinite_cases())
def test_nonfinite_entry_named_by_flat_index(case):
    clean, bad, index = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in ((bad, clean), (clean, bad)):
            with pytest.raises(ValidationError, match=f"flat index {index}$"):
                seis(*pair)
