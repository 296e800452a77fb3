"""Pinned scores of fixed small inputs: the constants that define them hold.

Eight harness pairs at dims (16, 32, 16, 16), master seeds 0 and 1, trial 0:
each geometric condition's alternate scored against the reference Side. k_a
and k_a_prime are pinned exactly, s_equiv at 1e-12 and s_inv at 1e-6. One BLAS
thread against two moves s_inv here by at most 1.5e-8 and s_equiv by 2.2e-16,
while a tenfold COVARIANCE_RIDGE moves s_inv by 5.8e-6 to 1.4e-3 on the
translation, rotation and affine rows (the scaling rows move by under 5e-7).
So the pin tells rounding from the ridge that defines s_inv. Tier-1 runs
the pins at the default BLAS thread count and again, in a child interpreter,
at one thread, and the child also reruns test_linalg.py's sweep of the bound
eigensolve against np.linalg.eigh. Where seis.linalg binds LAPACK's dsyevd
stages directly, every pinned pair and a tall warped pair also score with the
same bits on numpy's eigh gufunc, the solve that runs where numpy's LAPACK
exports no such routines.
"""

import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from seis import linalg
from seis.harness import (
    ROLE_ALTERNATE,
    ROLE_REFERENCE,
    HarnessConfig,
    gen_synthetic_activations,
    make_alternate,
)
from seis.metrics import Side, seis
from seis.transforms import make_stream

from helpers import ONE_BLAS_THREAD, child_env, smooth_tensor
from test_linalg import SWEEP_ORDERS

# (seed, condition): (k_a, k_a_prime, s_equiv, s_inv), computed at 2 BLAS threads
PINNED = {
    (0, "translation"): (28, 26, 0.9888511643970811, 0.41939111569283344),
    (0, "scaling"): (28, 26, 0.9947174909157037, 0.942536285971454),
    (0, "rotation"): (28, 26, 0.9887897911849051, 0.27064222058572135),
    (0, "affine"): (28, 25, 0.9778270762927482, 0.2532559622061388),
    (1, "translation"): (28, 24, 0.9751568241248466, 0.241551265184326),
    (1, "scaling"): (28, 27, 0.9997529748187387, 0.6208708108251424),
    (1, "rotation"): (28, 26, 0.9830333598053406, 0.36199354508541404),
    (1, "affine"): (28, 22, 0.9738383223895052, 0.1339569113571583),
}


@cache
def reference(seed):
    cfg = HarnessConfig(dims=(16, 32, 16, 16), master_seed=seed)
    ref = gen_synthetic_activations(cfg, make_stream(seed, 0, ROLE_REFERENCE))
    return cfg, ref, Side.of(ref)


@pytest.mark.parametrize("seed, kind", list(PINNED), ids=[f"{s}-{k}" for s, k in PINNED])
def test_pinned_scores(seed, kind):
    cfg, ref, side = reference(seed)
    alt = make_alternate(cfg, ref, kind, make_stream(seed, 0, ROLE_ALTERNATE))
    scores = seis(side, alt)
    k_a, k_a_prime, s_equiv, s_inv = PINNED[seed, kind]
    assert (scores.k_a, scores.k_a_prime) == (k_a, k_a_prime)
    assert scores.s_equiv == pytest.approx(s_equiv, rel=0, abs=1e-12)
    assert scores.s_inv == pytest.approx(s_inv, rel=0, abs=1e-6)


def warped_pairs():
    """Each pinned pair, then a tall (d=256 > n=16) pair warped by a rotation."""
    for seed, kind in PINNED:
        cfg, ref, _ = reference(seed)
        yield ref, make_alternate(cfg, ref, kind, make_stream(seed, 0, ROLE_ALTERNATE))
    tall = smooth_tensor((2, 8, 16, 16), seed=3)
    cfg = HarnessConfig(dims=tall.shape)
    yield tall, make_alternate(cfg, tall, "rotation", make_stream(3, 0, ROLE_ALTERNATE))


def test_gufunc_solve_scores_with_the_same_bits(monkeypatch):
    if linalg._LAPACK is None:
        pytest.skip("numpy's LAPACK exports no routines to bind, so the gufunc is the one solve")
    bound = [seis(ref, alt) for ref, alt in warped_pairs()]
    monkeypatch.setattr(linalg, "_LAPACK", None)
    for want, (ref, alt) in zip(bound, warped_pairs(), strict=True):
        got = seis(ref, alt)
        assert (got.s_equiv, got.s_inv, got.k_a, got.k_a_prime) == (
            want.s_equiv, want.s_inv, want.k_a, want.k_a_prime)
        assert np.array_equal(got.correlations, want.correlations)


def test_pinned_scores_hold_at_one_blas_thread():
    # BLAS takes its thread count when numpy loads, so the pins and the eigensolve
    # sweep run again in a pytest child that starts with one thread
    sweep = "test_linalg.py::TestInPlaceEigh::test_bound_stages_have_dsyevd_bits_at_every_switch"
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         str(Path(__file__).with_name(sweep)), "-k", "not one_blas_thread and not gufunc"],
        env=child_env(**ONE_BLAS_THREAD), capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout
    ran = len(PINNED) + (0 if linalg._LAPACK is None else len(SWEEP_ORDERS))
    assert child.stdout.splitlines()[-1].startswith(f"{ran} passed")
