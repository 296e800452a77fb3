"""Properties the mathematics guarantees, checked on generated tensor pairs.

Pairs are small Gaussian tensors whose alternate is an independent draw
plus a multiple of the reference, so the cases run from unrelated sides to
near copies, on both Gram routes (d <= n and d > n). Swap symmetry is
asserted for s_equiv only: when canonical correlations cluster near 1, the
directions inside the cluster are arbitrary and s_inv is not determined to
better than rounding noise amplified by the cluster gaps. A non-finite
entry put at a drawn position, on either route, must be named by its flat
index whichever side holds it, and the error names that side. Scaling
either side by its own power of two moves no bit of either score. A dump
whose header bytes are mutated scores, or fails in one error line naming
its path: `score` exits 0 or 1, and `layers` skips its entry. Neither
score clamps: correlations and cosines are at most 1, and rounding is
monotone, so a mean of values a few ulps below 1 never passes 1.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seis.cli import main
from seis.errors import ValidationError
from seis.linalg import CcaResult, center_rows
from seis.tensor_io import matricize, write_tensor
from seis.metrics import equivariance_score, invariance_score, seis

from helpers import assert_same_bits, permute_spatial, subspace_of_centered

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


@st.composite
def near_one_results(draw):
    """A CcaResult of 1 to 10,000 correlations at most 2 ulps below 1 whose
    two sides' directions are equal, so each cosine rounds to about 1."""
    r = draw(st.integers(1, 10_000))
    rng = np.random.default_rng(draw(seeds))
    correlations = 1.0 - rng.integers(0, 3, r) * np.finfo(np.float64).epsneg
    directions = rng.standard_normal((3, r))
    return CcaResult(correlations=correlations, proj_left=directions, proj_right=directions)


@PROPERTY
@given(near_one_results())
def test_unclamped_scores_of_near_one_correlations_stay_in_unit_interval(res):
    basis = np.eye(3)
    assert 0.0 <= equivariance_score(res) <= 1.0
    assert 0.0 <= invariance_score(res, basis, basis) <= 1.0


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
@given(tensor_pairs(), st.integers(-900, 900), st.integers(-900, 900))
def test_power_of_two_scales_move_no_bit(pair, e_ref, e_alt):
    # each side is scaled to a centered peak in [0.5, 1) by an exact power of
    # two, so scaling either side by its own 2**e, with its values kept
    # normal, changes nothing at all
    ref, alt = pair
    base = seis(ref, alt)
    assert_same_bits(seis(np.ldexp(ref, e_ref), np.ldexp(alt, e_alt)), base)


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
        base = subspace_of_centered(center_rows(matricize(z)))
        moved = subspace_of_centered(center_rows(matricize(z)[:, perm]))
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
        for pair, role in (((bad, clean), "reference"), ((clean, bad), "alternate")):
            with pytest.raises(ValidationError,
                               match=f"^{role} tensor: non-finite value at flat index {index}$"):
                seis(*pair)


# a valid float32 dump, whose header the mutations below work on
VALID_DUMP = io.BytesIO()
np.save(VALID_DUMP, np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32))
VALID_DUMP = VALID_DUMP.getvalue()
HEADER_END = 10 + int.from_bytes(VALID_DUMP[8:10], "little")
HEADER_BYTES = sorted(set(VALID_DUMP[:HEADER_END]) | set(b"-0123456789[]TN"))


@st.composite
def mutated_dumps(draw):
    """VALID_DUMP with 1 to 4 header bytes replaced, deleted or inserted."""
    dump = bytearray(VALID_DUMP)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, HEADER_END - 1))
        op = draw(st.sampled_from(("replace", "delete", "insert")))
        if op == "delete":
            del dump[at]
        else:
            dump[at:at + (op == "replace")] = bytes([draw(st.sampled_from(HEADER_BYTES))])
    return bytes(dump)


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("dumps")
    write_tensor(np.load(io.BytesIO(VALID_DUMP)), work / "clean.npy")
    entries = [{"label": "clean", "ref": "clean.npy", "alt": "clean.npy"},
               {"label": "mutated", "ref": "mutated.npy", "alt": "clean.npy"}]
    (work / "manifest.json").write_text(json.dumps({"entries": entries}))
    return work


def run_main(*argv):
    """main(argv)'s exit code and the lines it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dump=mutated_dumps())
def test_mutated_header_scores_or_fails_in_one_line(dump_dir, dump):
    mutated, out = dump_dir / "mutated.npy", dump_dir / "rows.csv"
    mutated.write_bytes(dump)
    code, err = run_main("score", mutated, dump_dir / "clean.npy")
    assert code in (0, 1) and len(err) == code
    if code:  # a header that parses to other dims reads as a valid dump
        assert err[0].startswith((f"error: {mutated}: ", "error: tensor dims differ: ")), err
    out.unlink(missing_ok=True)
    code, err = run_main("layers", "--manifest", dump_dir / "manifest.json", "--out", out)
    assert code in (0, 2) and len(err) == code // 2
    assert out.read_text().splitlines()[1].startswith("clean,")
