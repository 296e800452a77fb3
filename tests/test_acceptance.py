"""End-to-end acceptance checks at their contracted tolerances.

Each criterion prints one [PASS]/[FAIL] line (run with -s to stream them).
The heavyweight regime criteria share one module-scoped run of the full
six-condition, 50-trial suite at default dims with master seed 42.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

from seis.cli import main as cli_main
from seis.harness import HarnessConfig, gen_synthetic_activations, run_validation_suite
from seis.linalg import cca, center_rows
from seis.metrics import Side, seis
from seis.tensor_io import RESULT_FIELDS, matricize, write_tensor
from seis.transforms import (
    AffineParams,
    ConditionKind,
    affine_operator,
    apply_affine,
    make_stream,
)

from helpers import (
    GEOMETRIC_CONDITIONS,
    ONE_BLAS_THREAD,
    child_env,
    cca_oracle,
    dematricize,
    permute_spatial,
    random_conv_stack,
    run_condition,
    smooth_tensor,
    subspace_of_centered,
    subspace_of_matrix,
    warp_alignment,
)

MASTER_SEED = 42

IDENTITY_EQUIV_FLOOR = 0.999
IDENTITY_INV_FLOOR = 0.99
IDENTITY_RUNTIME_BUDGET = 60.0     # seconds of process CPU time, one BLAS thread
GEOMETRIC_EQUIV_FLOOR = 0.85
GEOMETRIC_INV_DROP = 0.1
RANDOM_EQUIV_CEILING = 0.2
RANDOM_INV_CEILING = 0.05
ORACLE_TOL = 1e-8
EQUIV_RHO_TOL = 1e-10
PERMUTATION_EQUIV_FLOOR = 0.999
SCORE_INVARIANCE_TOL = 1e-6
WARP_ORACLE_TOL = 1e-12
WARP_LINEARITY_TOL = 1e-9
# Depth profile of random_conv_stack, minimum margins asserted on every seed;
# over seeds 0-4 the smallest margins measured are 0.425, 0.193, 0.216,
# 0.271 and 0.236 in the order below.
DEPTH_INV_RISE = 0.3            # s_inv(L4) - s_inv(L1), transformed pairs
DEPTH_EQUIV_FALL = 0.15         # s_equiv(L1) - s_equiv(L4), transformed pairs
DEPTH_EQUIV_OVER_CONTROL = 0.15  # s_equiv over the independent control, L1 and L4
DEPTH_INV_OVER_CONTROL = 0.15   # s_inv over the independent control, L4
# Dose-response sweeps at default dims, seeds 0-1, each asserted on every
# seed; the smallest values measured are a 0.0254 s_inv step (tx 0.1 to
# 0.15), s_equiv 0.972 (scale 1.5) and 0.152 of s_inv over the control.
DOSE_SWEEPS = {
    "rotation": [AffineParams(angle_deg=a) for a in (0.5, 2.0, 5.0, 10.0, 20.0, 30.0)],
    "translation": [AffineParams(tx=t) for t in (0.01, 0.02, 0.05, 0.1, 0.15, 0.3)],
    "scaling": [AffineParams(scale=s) for s in (1.02, 1.05, 1.1, 1.2, 1.5)],
}
DOSE_INV_STEP = 0.01            # s_inv fall from one magnitude to the next
DOSE_EQUIV_FLOOR = 0.95         # s_equiv at every point
DOSE_INV_OVER_CONTROL = 0.1     # s_inv over the independent control, every point
# Rank-reducing loss at default dims, seeds 0-4: re-encodings read 1 on both
# coverages (s_equiv within 3.3e-16 of 1), while blur and the half-grid mask
# read s_equiv >= 0.9774 at reference coverage <= 0.5464 (k_a' 41, 18 and 44
# against k_a 79).
REENCODING_EQUIV_TOL = 1e-12    # 1 - s_equiv and 1 - coverage, re-encodings
LOSS_EQUIV_FLOOR = 0.97         # s_equiv of a lossy alternate
LOSS_COVERAGE_CEILING = 0.6     # reference coverage r * s_equiv / k_a, lossy alternates
# C4-averaged random_conv_stack against the plain one, seeds 0-2: on rotate
# 20 degrees the smallest L4 s_inv rise is 0.153 and the smallest s_equiv
# rise at any layer 0.051; on an exact rot90 the C4 stack's s_equiv is within
# 2.5e-15 of 1 at every layer.
C4_INV_RISE = 0.1               # L4 s_inv, C4 over plain, rotate 20 degrees
C4_ROT90_EQUIV_TOL = 1e-12      # 1 - s_equiv of the C4 stack on rot90, every layer
# Warp recovery by warp_alignment at default dims, seeds 0-2: the smallest
# margins measured are 0.408 of a at the recovered warp over s_inv (zoom-out)
# and 0.904 over the independent control's largest a (shift).
RECOVERY_OVER_S_INV = 0.4       # a(recovered) - s_inv, every warp
RECOVERY_OVER_CONTROL = 0.9     # a(recovered) - max a of the independent control


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def mean_of(rows, attr):
    return float(np.mean([getattr(r, attr) for r in rows]))


# The identity-only run of criterion 1's budget, timed in CPU seconds.
IDENTITY_TIMING_CHILD = r"""
import sys, time
from seis.harness import HarnessConfig, run_validation_suite
cfg = HarnessConfig(master_seed=int(sys.argv[1]), conditions=("identity",))
t0 = time.process_time()
run_validation_suite(cfg)
print(time.process_time() - t0)
"""


def identity_cpu_seconds():
    """Process CPU time of the identity-only run, in a child process with one
    BLAS thread. Wall time grows with other load on the machine, and so does
    the CPU time of multithreaded OpenBLAS, whose threads spin while they
    wait for a core; a single thread does not spin."""
    child = subprocess.run([sys.executable, "-c", IDENTITY_TIMING_CHILD, str(MASTER_SEED)],
                           env=child_env(**ONE_BLAS_THREAD), capture_output=True, text=True,
                           timeout=600)
    assert child.returncode == 0, child.stderr
    return float(child.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def default_suite():
    """Full default run in one suite call, rows grouped by condition, plus
    an identity-only run's rows and the CPU time of another one."""
    cfg = HarnessConfig(master_seed=MASTER_SEED)
    _, suite_rows = run_validation_suite(cfg)
    rows = {kind: [r for r in suite_rows if r.condition == kind.value]
            for kind in cfg.conditions}
    identity_rows = run_condition(cfg, ConditionKind.IDENTITY)
    return cfg, rows, (identity_rows, identity_cpu_seconds())


def test_criterion_1_identity_regime(default_suite):
    _, rows, (identity_rows, runtime) = default_suite
    ident = rows[ConditionKind.IDENTITY]
    worst_eq = min(r.s_equiv for r in ident)
    worst_inv = min(r.s_inv for r in ident)
    same_rows = identity_rows == ident
    ok = (
        len(ident) == 50
        and same_rows
        and worst_eq >= IDENTITY_EQUIV_FLOOR
        and worst_inv >= IDENTITY_INV_FLOOR
        and runtime < IDENTITY_RUNTIME_BUDGET
    )
    report(
        1, ok,
        f"identity 50 trials: min s_equiv={worst_eq:.6f} (>= {IDENTITY_EQUIV_FLOOR}), "
        f"min s_inv={worst_inv:.6f} (>= {IDENTITY_INV_FLOOR}), "
        f"identity-only run equals the suite's identity rows: {same_rows}, "
        f"its CPU time on one BLAS thread {runtime:.1f}s (< {IDENTITY_RUNTIME_BUDGET:.0f}s)",
    )


def test_criterion_2_geometric_regime(default_suite):
    _, rows, _ = default_suite
    ident_inv = mean_of(rows[ConditionKind.IDENTITY], "s_inv")
    details = []
    ok = True
    for kind in GEOMETRIC_CONDITIONS:
        eq = mean_of(rows[kind], "s_equiv")
        inv = mean_of(rows[kind], "s_inv")
        cond_ok = eq > GEOMETRIC_EQUIV_FLOOR and inv <= ident_inv - GEOMETRIC_INV_DROP
        ok = ok and cond_ok
        details.append(f"{kind.value}: eq={eq:.4f} inv={inv:.4f}")
    report(
        2, ok,
        f"geometric 50-trial means (need eq > {GEOMETRIC_EQUIV_FLOOR}, "
        f"inv <= {ident_inv:.4f} - {GEOMETRIC_INV_DROP}): " + "; ".join(details),
    )


def test_criterion_3_random_regime(default_suite):
    _, rows, _ = default_suite
    eq = mean_of(rows[ConditionKind.RANDOM_BASELINE], "s_equiv")
    inv = mean_of(rows[ConditionKind.RANDOM_BASELINE], "s_inv")
    ok = eq <= RANDOM_EQUIV_CEILING and inv <= RANDOM_INV_CEILING
    report(
        3, ok,
        f"random baseline 50-trial means: s_equiv={eq:.4f} (<= {RANDOM_EQUIV_CEILING}), "
        f"s_inv={inv:.4f} (<= {RANDOM_INV_CEILING})",
    )


def test_score_ordering_property(default_suite):
    # the qualitative regime ordering, stated testably: identity >> each
    # geometric condition >> random for invariance (gaps >= 0.1), and every
    # geometric condition beats random equivariance by >= 0.4
    _, rows, _ = default_suite
    ident_inv = mean_of(rows[ConditionKind.IDENTITY], "s_inv")
    rand_inv = mean_of(rows[ConditionKind.RANDOM_BASELINE], "s_inv")
    rand_eq = mean_of(rows[ConditionKind.RANDOM_BASELINE], "s_equiv")
    for kind in GEOMETRIC_CONDITIONS:
        inv = mean_of(rows[kind], "s_inv")
        eq = mean_of(rows[kind], "s_equiv")
        assert ident_inv > inv + 0.1, f"{kind.value}: identity gap {ident_inv - inv:.4f}"
        assert inv > rand_inv + 0.1, f"{kind.value}: random gap {inv - rand_inv:.4f}"
        assert eq > rand_eq + 0.4, f"{kind.value}: equiv gap {eq - rand_eq:.4f}"


def test_criterion_4_cca_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    checked = 0
    while checked < 100:
        k_left = int(rng.integers(2, 9))
        k_right = int(rng.integers(2, 9))
        n = 50 * max(k_left, k_right)
        left = subspace_of_matrix(rng.standard_normal((k_left, n)))
        right = subspace_of_matrix(rng.standard_normal((k_right, n)))
        expected = cca_oracle(left.projected, right.projected)
        got = cca(left.projected, right.projected).correlations
        worst = max(worst, float(np.max(np.abs(got - expected))))
        checked += 1
    ok = worst <= ORACLE_TOL
    report(4, ok, f"100 instances (k <= 8, n = 50k): max |whitened - eigenproblem| "
                  f"= {worst:.2e} (<= {ORACLE_TOL})")


def test_criterion_5_equivariance_equals_mean_correlation():
    # scored pairs across regimes: warped, permuted, independent, identical
    pairs = []
    z = smooth_tensor((6, 8, 12, 12), seed=0)
    pairs.append((z, z))
    pairs.append((z, apply_affine(z, AffineParams(tx=0.1, ty=-0.05))))
    pairs.append((z, apply_affine(z, AffineParams(angle_deg=117.0, scale=0.9))))
    pairs.append((z, permute_spatial(z, np.random.default_rng(1).permutation(144))))
    pairs.append((z, smooth_tensor((6, 8, 12, 12), seed=2)))
    pairs.append((smooth_tensor((3, 5, 7, 9), seed=3),
                  smooth_tensor((3, 5, 7, 9), seed=4)))
    worst = 0.0
    for ref, alt in pairs:
        scores = seis(ref, alt)
        # the variates rebuilt from the canonical directions, and their mean
        # absolute cosine in plain numpy
        left, right = Side.of(ref), Side.of(alt)
        c = cca(left.projected, right.projected)
        p = c.proj_left.T @ left.projected
        q = c.proj_right.T @ right.projected
        cosines = np.abs(np.sum(p * q, axis=1)) / (
            np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1))
        worst = max(worst,
                    abs(scores.s_equiv - float(np.mean(scores.correlations))),
                    abs(scores.s_equiv - float(np.mean(cosines))))
    ok = worst <= EQUIV_RHO_TOL
    report(5, ok, f"|s_equiv - mean(rho)| and |s_equiv - mean variate |cos||, "
                  f"over {len(pairs)} scored pairs: max {worst:.2e} (<= {EQUIV_RHO_TOL})")


def test_criterion_6_permutation_exactness():
    worst = 1.0
    for seed in range(20):
        z = smooth_tensor((6, 8, 12, 12), seed=100 + seed)
        perm = np.random.default_rng(200 + seed).permutation(144)
        worst = min(worst, seis(z, permute_spatial(z, perm)).s_equiv)
    ok = worst >= PERMUTATION_EQUIV_FLOOR
    report(6, ok, f"20 random spatial permutations: min s_equiv={worst:.6f} "
                  f"(>= {PERMUTATION_EQUIV_FLOOR})")


def test_criterion_7_score_invariances():
    dims = (8, 8, 3, 3)  # d=9, n=64: white noise keeps all 9 directions
    worst_mix = worst_scale = worst_perm = 0.0
    for seed in range(20):
        a = np.random.default_rng(100 + 2 * seed).standard_normal(dims)
        b = np.random.default_rng(101 + 2 * seed).standard_normal(dims)
        base = seis(a, b)
        rng = np.random.default_rng(500 + seed)

        # (a) invertible (non-orthogonal) remix of one side's feature axis;
        # rank is fully retained so the recoding is lossless
        q = np.eye(9) + 0.1 * rng.standard_normal((9, 9))
        mixed = seis(a, dematricize(q @ matricize(b), dims))
        assert (base.k_a, base.k_a_prime, mixed.k_a_prime) == (9, 9, 9)
        worst_mix = max(worst_mix, abs(mixed.s_equiv - base.s_equiv))

        # (b) positive scalar scaling of one side
        scaled = seis(a, 3.7 * b)
        worst_scale = max(worst_scale, abs(scaled.s_equiv - base.s_equiv))

        # (c) identical observation permutation of both sides
        perm = rng.permutation(dims[0] * dims[1])
        def permute_obs(z):
            return z.reshape(-1, dims[2], dims[3])[perm].reshape(dims)
        permuted = seis(permute_obs(a), permute_obs(b))
        worst_perm = max(worst_perm, abs(permuted.s_equiv - base.s_equiv))

    ok = max(worst_mix, worst_scale, worst_perm) <= SCORE_INVARIANCE_TOL
    report(7, ok, f"s_equiv deviations over 20 instances: mixing {worst_mix:.2e}, "
                  f"scaling {worst_scale:.2e}, observation permutation {worst_perm:.2e} "
                  f"(each <= {SCORE_INVARIANCE_TOL})")


def test_criterion_8_truncation_contract():
    rng = np.random.default_rng(MASTER_SEED)
    ok = True
    for _ in range(50):
        d = int(rng.integers(4, 40))
        n = int(rng.integers(4, 60))
        scale = 10.0 ** rng.integers(-3, 4)
        m = center_rows(scale * rng.standard_normal((d, n)))
        sub = subspace_of_centered(m)
        s = np.linalg.svd(m, compute_uv=False)
        power = s[s >= 1e-12 * s[0]] ** 2
        frac = np.cumsum(power) / power.sum()
        ok = ok and frac[sub.k - 1] >= 0.99
        ok = ok and (sub.k == 1 or frac[sub.k - 2] < 0.99)
        ok = ok and sub.retained_variance >= 0.99
    report(8, ok, "50 random matrices: retained sigma^2 fraction >= 0.99 and "
                  "fraction at k-1 < 0.99")


def test_criterion_9_warp_oracles():
    rng = np.random.default_rng(MASTER_SEED)
    z = rng.standard_normal((3, 4, 8, 16))
    zsq = rng.standard_normal((3, 4, 10, 10))

    # integer translation against a direct index shift
    shifted = apply_affine(z, AffineParams(tx=3 / 16.0, ty=-2 / 8.0))
    oracle = np.zeros_like(z)
    oracle[:, :, :6, 3:] = z[:, :, 2:, :13]
    t_err = float(np.max(np.abs(shifted - oracle)))

    # right-angle rotations against index remaps
    r_err = 0.0
    for k, angle in ((1, 90.0), (2, 180.0), (3, 270.0)):
        got = apply_affine(zsq, AffineParams(angle_deg=angle))
        r_err = max(r_err, float(np.max(np.abs(got - np.rot90(zsq, k=k, axes=(2, 3))))))

    # linearity of the interpolating warp
    p = AffineParams(tx=0.08, ty=-0.03, scale=1.07, angle_deg=23.0)
    z2 = rng.standard_normal(z.shape)
    lin_err = float(np.max(np.abs(
        apply_affine(1.7 * z - 0.4 * z2, p)
        - (1.7 * apply_affine(z, p) - 0.4 * apply_affine(z2, p))
    )))

    ok = t_err <= WARP_ORACLE_TOL and r_err <= WARP_ORACLE_TOL and lin_err <= WARP_LINEARITY_TOL
    report(9, ok, f"warp oracles: translation err={t_err:.2e}, rotation err={r_err:.2e} "
                  f"(<= {WARP_ORACLE_TOL}); linearity err={lin_err:.2e} "
                  f"(<= {WARP_LINEARITY_TOL})")


def test_criterion_10_reproducibility(tmp_path):
    args = ["synth", "--seed", "42", "--trials", "5", "--dims", "8,8,12,12"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    ok = out_a.read_bytes() == out_b.read_bytes()
    report(10, ok, f"two `synth --seed 42` runs: byte-identical CSV "
                   f"({out_a.stat().st_size} bytes)")


def test_criterion_11_layers_pipeline(tmp_path):
    # trained-network depth profiles need trained models and stay out of
    # scope; the batch pipeline is accepted on identity manifests plus
    # schema conformance
    import json

    entries = []
    for i in range(3):
        z = smooth_tensor((4, 8, 10, 10), seed=300 + i)
        ref = tmp_path / f"layer{i}.npy"
        write_tensor(z, ref)
        entries.append({"label": f"layer{i}", "ref": str(ref), "alt": str(ref)})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": entries}))
    out = tmp_path / "rows.csv"
    code = cli_main(["layers", "--manifest", str(manifest), "--out", str(out)])
    lines = out.read_text().splitlines()
    header_ok = lines[0] == ",".join(RESULT_FIELDS)
    rows_ok = len(lines) == 4
    scores_ok = all(float(line.split(",")[4]) >= IDENTITY_EQUIV_FLOOR
                    and float(line.split(",")[5]) >= IDENTITY_INV_FLOOR
                    for line in lines[1:])
    order_ok = [line.split(",")[0] for line in lines[1:]] == ["layer0", "layer1", "layer2"]
    ok = code == 0 and header_ok and rows_ok and scores_ok and order_ok
    report(11, ok, "identity manifest through `layers`: exit 0, schema header, "
                   "manifest order, every row at identity-regime scores")


@pytest.mark.parametrize("seed", range(5))
def test_depth_profile_equivariant_early_invariant_late(seed):
    # the paper's headline shape on a seeded random CNN: early layers track
    # a transform of the input (high s_equiv), deep layers stop telling the
    # transformed input apart (s_inv rises with depth), and both layers beat
    # an independent input; the transforms come from scipy, not seis
    ref = smooth_tensor((64, 3, 64, 64), sigma=2.0, seed=2 * seed)
    inputs = {
        "translate 6 px": ndimage.shift(ref, (0, 0, 6, 6), order=1),
        "rotate 20 deg": ndimage.rotate(ref, 20.0, axes=(2, 3), reshape=False, order=1),
        "control": smooth_tensor((64, 3, 64, 64), sigma=2.0, seed=2 * seed + 1),
    }
    ref_layers = random_conv_stack(ref, seed)
    scores = {}
    for name, z in inputs.items():
        alt_layers = random_conv_stack(z, seed)
        scores[name] = [seis(ref_layers[i], alt_layers[i]) for i in (0, 3)]
    control_l1, control_l4 = scores.pop("control")
    for name, (l1, l4) in scores.items():
        margins = {
            "s_inv rise": (l4.s_inv - l1.s_inv, DEPTH_INV_RISE),
            "s_equiv fall": (l1.s_equiv - l4.s_equiv, DEPTH_EQUIV_FALL),
            "L1 s_equiv over control": (l1.s_equiv - control_l1.s_equiv,
                                        DEPTH_EQUIV_OVER_CONTROL),
            "L4 s_equiv over control": (l4.s_equiv - control_l4.s_equiv,
                                        DEPTH_EQUIV_OVER_CONTROL),
            "L4 s_inv over control": (l4.s_inv - control_l4.s_inv, DEPTH_INV_OVER_CONTROL),
        }
        for what, (margin, floor) in margins.items():
            assert margin >= floor, f"{name}, seed {seed}: {what} {margin:.3f} < {floor}"


@pytest.mark.parametrize("seed", range(2))
def test_dose_response_s_inv_tracks_warp_magnitude(seed):
    # the paper's synthetic validation as curves: s_inv falls strictly as a
    # rotation, translation or scaling grows, while s_equiv stays high and
    # every warped field stays above an independent one. Past 30 degrees
    # rotation plateaus (at seed 1, 45 reads above 30), so no point lies there
    cfg = HarnessConfig()
    h, w = cfg.dims[2:]
    m = matricize(gen_synthetic_activations(cfg, make_stream(seed, 0, 0)))
    ref = Side.of(m.T.reshape(cfg.dims))

    def score(alt):
        return seis(ref, alt.T.reshape(cfg.dims))

    control = score(matricize(gen_synthetic_activations(cfg, make_stream(seed, 0, 1))))
    for name, sweep in DOSE_SWEEPS.items():
        points = [score(affine_operator(h, w, p) @ m) for p in sweep]
        inv = [s.s_inv for s in points]
        where = f"{name}, seed {seed}, s_inv {np.round(inv, 3).tolist()}"
        assert np.all(-np.diff(inv) >= DOSE_INV_STEP), where
        assert min(s.s_equiv for s in points) >= DOSE_EQUIV_FLOOR, where
        assert min(inv) - control.s_inv >= DOSE_INV_OVER_CONTROL, where


@pytest.mark.parametrize("seed", range(5))
def test_rank_reducing_loss_is_invisible_to_both_scores(seed):
    # r = min(k_a, k_a'), so an alternate whose subspace lies inside the
    # reference's reads s_equiv near 1 however much it lost; only the
    # reference's coverage, sum(rho) / k_a = r * s_equiv / k_a, shows the
    # loss, while re-encodings keep both coverages at 1
    cfg = HarnessConfig()
    h, w = cfg.dims[2:]
    z = gen_synthetic_activations(cfg, make_stream(seed, 0, 0))
    ref = Side.of(z)

    def score(alt):
        s = seis(ref, alt)
        return s, s.r * s.s_equiv / s.k_a, s.r * s.s_equiv / s.k_a_prime

    half = z.copy()
    half[..., w // 2:] = 0.0
    for name, alt in {
        "permutation": permute_spatial(z, np.random.default_rng(seed).permutation(h * w)),
        "rot90": np.rot90(z, axes=(2, 3)),
    }.items():
        s, cov_ref, cov_alt = score(alt)
        where = f"{name}, seed {seed}: {s}"
        assert 1.0 - s.s_equiv <= REENCODING_EQUIV_TOL, where
        assert 1.0 - min(cov_ref, cov_alt) <= REENCODING_EQUIV_TOL, where
    for name, alt in {
        "blur 2": ndimage.gaussian_filter(z, sigma=(0.0, 0.0, 2.0, 2.0)),
        "blur 4": ndimage.gaussian_filter(z, sigma=(0.0, 0.0, 4.0, 4.0)),
        "right half zeroed": half,
    }.items():
        s, cov_ref, _ = score(alt)
        where = f"{name}, seed {seed}: reference coverage {cov_ref:.4f}, {s}"
        assert s.s_equiv >= LOSS_EQUIV_FLOOR, where
        assert cov_ref <= LOSS_COVERAGE_CEILING, where


@pytest.mark.parametrize("seed", range(3))
def test_c4_augmentation_raises_invariance_and_keeps_equivariance(seed):
    # averaging each filter over its four 90-degree rotations is rotation
    # augmentation at the filter level: deep s_inv rises on a 20-degree
    # rotation, s_equiv does not fall at any layer, and an exact rot90
    # passes through every block unchanged up to rounding. rot90's s_inv
    # sits on exact ties, so nothing is asserted on it
    ref = smooth_tensor((64, 3, 64, 64), sigma=2.0, seed=2 * seed)
    rotated = ndimage.rotate(ref, 20.0, axes=(2, 3), reshape=False, order=1)

    def sides(x, c4):
        return [Side.of(z) for z in random_conv_stack(x, seed, c4=c4)]

    def scores(refs, x, c4):
        return [seis(a, z) for a, z in zip(refs, random_conv_stack(x, seed, c4=c4))]

    plain_ref, c4_ref = sides(ref, False), sides(ref, True)
    plain, c4 = scores(plain_ref, rotated, False), scores(c4_ref, rotated, True)
    where = f"seed {seed}: plain {plain}, C4 {c4}"
    assert c4[3].s_inv - plain[3].s_inv >= C4_INV_RISE, where
    assert all(a.s_equiv >= p.s_equiv for p, a in zip(plain, c4)), where
    exact = scores(c4_ref, np.rot90(ref, axes=(2, 3)), True)
    assert all(1.0 - s.s_equiv <= C4_ROT90_EQUIV_TOL for s in exact), f"seed {seed}: {exact}"


@pytest.fixture(scope="module")
def candidate_warps():
    """Each grid's candidate warp operators on the default 28 x 28 grid, keyed
    by degrees (1 degree steps), whole-pixel (dx, dy) shifts and zoom in
    hundredths."""
    h, w = HarnessConfig().dims[2:]
    grids = {
        "rotation": {a: AffineParams(angle_deg=float(a)) for a in range(360)},
        "shift": {(dx, dy): AffineParams(tx=dx / w, ty=dy / h)
                  for dy in range(-5, 6) for dx in range(-5, 6)},
        "zoom": {z: AffineParams(scale=z / 100) for z in range(70, 131)},
    }
    return {name: {key: affine_operator(h, w, p) for key, p in grid.items()}
            for name, grid in grids.items()}


@pytest.mark.parametrize("seed", range(3))
def test_warp_recovered_without_being_told(seed, candidate_warps):
    # the paper's claim that SEIS needs no knowledge of the transformation:
    # moving the reference's canonical directions by each candidate warp and
    # re-reading s_inv's formula peaks at the warp applied, far above both
    # s_inv and an independent field. Zoom-in crops content and reads a flat
    # top below its true scale, so nothing is asserted on it
    cfg = HarnessConfig()
    h, w = cfg.dims[2:]
    z = gen_synthetic_activations(cfg, make_stream(seed, 0, 0))
    ref = Side.of(z)
    control = Side.of(gen_synthetic_activations(cfg, make_stream(seed, 0, 1)))
    control_max = max(float(warp_alignment(ref, control, ops.values()).max())
                      for ops in candidate_warps.values())
    for grid, params, recovered in (
        ("rotation", AffineParams(angle_deg=37.0), lambda a: a == 37),
        ("rotation", AffineParams(angle_deg=123.0), lambda a: a == 123),
        ("shift", AffineParams(tx=2.8 / w, ty=-1.4 / h), lambda d: d == (3, -1)),
        ("zoom", AffineParams(scale=0.87), lambda z: abs(z - 87) <= 1),
    ):
        alt = Side.of(apply_affine(z, params))
        keys = list(candidate_warps[grid])
        a = warp_alignment(ref, alt, candidate_warps[grid].values())
        best = int(np.argmax(a))
        s_inv = seis(ref, alt).s_inv
        where = (f"{params}, seed {seed}: recovered {keys[best]} at a={a[best]:.4f}, "
                 f"s_inv {s_inv:.4f}, control max {control_max:.4f}")
        assert recovered(keys[best]), where
        assert a[best] - s_inv >= RECOVERY_OVER_S_INV, where
        assert a[best] - control_max >= RECOVERY_OVER_CONTROL, where
