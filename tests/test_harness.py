import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seis.harness as harness
import seis.metrics as metrics
import seis.tensor_io as tensor_io
from seis.errors import DegenerateRankError, DtypeError, ShapeError, ValidationError
from seis.harness import (
    ConditionSummary,
    HarnessConfig,
    gen_synthetic_activations,
    make_alternate,
    run_validation_suite,
)
from seis.tensor_io import matricize
from seis.transforms import (
    CONDITION_ORDER,
    AffineParams,
    ConditionKind,
    apply_affine,
    make_stream,
    sample_params,
)

from helpers import (
    GEOMETRIC_CONDITIONS,
    bilinear_gather_oracle,
    gaussian_field_oracle,
    run_condition,
)

SMALL = HarnessConfig(dims=(4, 8, 10, 10), trials=3, master_seed=11)


@st.composite
def field_cases(draw):
    """A config and a seed: one-row and one-column grids, slice counts past
    and between multiples of FIELD_BLOCK, smoothness from 1e-300 (no blur)
    up to max(h, w), where the kernel's radius exceeds the grid."""
    h, w = draw(st.sampled_from([(1, 2), (2, 1), (1, 9), (9, 1), (4, 4), (7, 12), (16, 5)]))
    b = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3 * harness.FIELD_BLOCK // b))
    smoothness = draw(st.one_of(st.sampled_from([1e-300, 1e-15, 2e-15, float(max(h, w))]),
                                st.floats(1e-3, max(h, w))))
    return HarnessConfig(dims=(b, c, h, w), smoothness=smoothness), draw(st.integers(0, 2**32 - 1))


def lag1_autocorr(cfg, seed):
    """Pooled lag-1 spatial autocorrelation across >= 100 slices."""
    z = gen_synthetic_activations(cfg, make_stream(seed))
    slices = z.reshape(-1, cfg.dims[2], cfg.dims[3])
    assert slices.shape[0] >= 100
    pairs_h = np.corrcoef(slices[:, :, :-1].ravel(), slices[:, :, 1:].ravel())[0, 1]
    pairs_v = np.corrcoef(slices[:, :-1, :].ravel(), slices[:, 1:, :].ravel())[0, 1]
    return 0.5 * (pairs_h + pairs_v)


class TestConfig:
    def test_defaults(self):
        cfg = HarnessConfig()
        assert cfg.dims == (64, 32, 28, 28)
        assert cfg.trials == 50
        assert cfg.smoothness == 2.0
        assert cfg.conditions == CONDITION_ORDER

    def test_conditions_coerced_from_strings(self):
        cfg = HarnessConfig(conditions=("rotation", "identity"))
        assert cfg.conditions == (ConditionKind.ROTATION, ConditionKind.IDENTITY)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            HarnessConfig(trials=0)
        with pytest.raises(ValidationError):
            HarnessConfig(dims=(0, 1, 2, 3))
        with pytest.raises(ValidationError):
            HarnessConfig(dims=(1, 2, 3))
        with pytest.raises(ValidationError):
            HarnessConfig(smoothness=0.0)
        with pytest.raises(ValidationError):
            HarnessConfig(smoothness=float("inf"))
        with pytest.raises(ValidationError, match="sideways"):
            HarnessConfig(conditions=("sideways",))

    @pytest.mark.parametrize("dims", [(2, 2, 1, 1), (1, 1, 1, 1)])
    def test_one_cell_grid_rejected(self, dims):
        # a one-cell slice has zero variance, so it cannot be standardized
        with pytest.raises(ValidationError) as exc:
            HarnessConfig(dims=dims)
        assert str(exc.value) == f"dims must give an h*w grid of at least 2 cells, got {dims}"

    @pytest.mark.parametrize("dims", [(2, 2, 1, 2), (2, 2, 8, 1)])
    def test_one_row_or_column_grid_accepted(self, dims):
        assert HarnessConfig(dims=dims).dims == dims

    @pytest.mark.parametrize("dims,smoothness", [
        ((2, 2, 8, 8), 1e20), ((2, 2, 8, 8), 8.5), ((2, 2, 3, 5), 5.25),
        ((2, 2, 1, 2), 2.5), ((64, 32, 28, 28), float("inf")),
    ])
    def test_smoothness_longer_than_grid_rejected(self, dims, smoothness):
        # scipy's kernel has 2 * int(4 * sigma + 0.5) + 1 taps, so a huge
        # length-scale used to fail, or allocate gigabytes, in the filter
        with pytest.raises(ValidationError) as exc:
            HarnessConfig(dims=dims, smoothness=smoothness)
        assert str(exc.value) == f"smoothness must be in (0, max(h, w)], got {smoothness}"

    @pytest.mark.parametrize("dims", [(2, 2, 3, 5), (2, 2, 1, 2)])
    def test_smoothness_up_to_longest_side_accepted(self, dims):
        assert HarnessConfig(dims=dims, smoothness=max(dims[2:])).smoothness == max(dims[2:])

    @pytest.mark.parametrize("conditions", [(), []])
    def test_empty_conditions_rejected(self, conditions):
        # an empty selection used to run a suite that scored nothing
        with pytest.raises(ValidationError, match="at least one condition"):
            HarnessConfig(conditions=conditions)

    @pytest.mark.parametrize("field,value", [
        ("trials", 2.5),
        ("trials", 2.0),
        ("trials", True),
        ("trials", "2"),
        ("master_seed", 1.5),
        ("master_seed", np.True_),
        ("dims", (2.7, 8, 10, 10)),
        ("dims", (4, 8, False, 10)),
    ])
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(ValidationError, match="must be an integer"):
            HarnessConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_out_of_range(self, seed):
        with pytest.raises(ValidationError, match=f"master seed must be a uint64, got {seed}"):
            HarnessConfig(master_seed=seed)

    def test_numpy_integers_accepted(self):
        cfg = HarnessConfig(dims=np.array([4, 8, 10, 10]), trials=np.int64(2),
                            master_seed=np.uint64(2**63 + 5))
        assert cfg.dims == (4, 8, 10, 10) and cfg.trials == 2
        assert cfg.master_seed == 2**63 + 5
        assert all(type(v) is int for v in (*cfg.dims, cfg.trials, cfg.master_seed))

    @pytest.mark.parametrize("field,value,message", [
        ("smoothness", True, "smoothness must be a real number"),
        ("smoothness", np.True_, "smoothness must be a real number"),
        ("smoothness", "2", "smoothness must be a real number"),
        ("dims", 5, "dims must be a sequence"),
        ("dims", "4,8,10,10", "dims must be a sequence"),
        ("conditions", 5, "conditions must be a sequence"),
        ("conditions", "identity", "conditions must be a sequence"),
        ("conditions", ConditionKind.IDENTITY, "conditions must be a sequence"),
        ("conditions", ("identity", None), "unknown condition None"),
    ])
    def test_wrong_type_rejected(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            HarnessConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.float32(1.5), np.float64(1.5), np.int64(2), 2])
    def test_numpy_reals_accepted_as_float_smoothness(self, value):
        cfg = HarnessConfig(smoothness=value)
        assert type(cfg.smoothness) is float and cfg.smoothness == float(value)


class TestSyntheticFields:
    def test_smooth_fields_are_correlated(self):
        cfg = HarnessConfig(dims=(13, 8, 16, 16), trials=1, smoothness=2.0)
        assert lag1_autocorr(cfg, seed=0) > 0.5

    def test_rough_limit_is_white(self):
        cfg = HarnessConfig(dims=(13, 8, 16, 16), trials=1, smoothness=1e-3)
        assert abs(lag1_autocorr(cfg, seed=0)) < 0.1

    def test_deterministic(self):
        a = gen_synthetic_activations(SMALL, make_stream(3))
        b = gen_synthetic_activations(SMALL, make_stream(3))
        assert np.array_equal(a, b)

    def test_slices_standardized(self):
        z = gen_synthetic_activations(SMALL, make_stream(4))
        means = z.mean(axis=(2, 3))
        stds = z.std(axis=(2, 3))
        assert np.max(np.abs(means)) <= 1e-12
        assert np.allclose(stds, 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(field_cases())
    def test_matches_ndimage_oracle_bytes(self, case):
        cfg, seed = case
        z = gen_synthetic_activations(cfg, make_stream(seed))
        assert z.tobytes() == gaussian_field_oracle(cfg, make_stream(seed)).tobytes()
        b, c, h, w = cfg.dims
        assert z.base.shape == (h * w, b * c) and z.base.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("smoothness", [1e-300, 1e-15, 1.1e-15])
    def test_smoothness_at_ndimage_floor(self, smoothness):
        # ndimage skips the blur at sigma <= 1e-15, where 1e-300 squared would
        # divide by zero; just above, its kernel is the one tap 1.0
        cfg = HarnessConfig(dims=(2, 3, 4, 5), smoothness=smoothness)
        z = gen_synthetic_activations(cfg, make_stream(6))
        assert z.tobytes() == gaussian_field_oracle(cfg, make_stream(6)).tobytes()


class TestMakeAlternate:
    def setup_method(self):
        self.ref = gen_synthetic_activations(SMALL, make_stream(5, 0, 0))

    def test_identity_copies(self):
        alt = make_alternate(SMALL, self.ref, ConditionKind.IDENTITY, make_stream(5, 0, 1))
        assert np.array_equal(alt, self.ref)
        assert alt is not self.ref

    def test_geometric_warps(self):
        alt = make_alternate(SMALL, self.ref, ConditionKind.ROTATION, make_stream(5, 0, 1))
        assert alt.shape == self.ref.shape
        assert np.any(alt != self.ref)

    def test_random_is_independent_same_ensemble(self):
        alt = make_alternate(
            SMALL, self.ref, ConditionKind.RANDOM_BASELINE, make_stream(5, 0, 1)
        )
        # same smooth ensemble: standardized slices
        assert alt.shape == SMALL.dims
        assert np.max(np.abs(alt.mean(axis=(2, 3)))) <= 1e-12
        flat_corr = np.corrcoef(alt.ravel(), self.ref.ravel())[0, 1]
        assert abs(flat_corr) < 0.1

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValidationError, match="unknown condition 'sideways'; valid: identity,"):
            make_alternate(SMALL, self.ref, "sideways", make_stream(5, 0, 1))

    @pytest.mark.parametrize("kind", CONDITION_ORDER)
    @pytest.mark.parametrize("ref, error, message", [
        (np.zeros((2, 2, 9, 8)), ShapeError,
         r"^reference tensor must have dims \(2, 2, 8, 8\), got \(2, 2, 9, 8\)$"),
        (np.zeros(64), ShapeError, "expected a 4-D .* got ndim=1"),
        (np.zeros((2, 2, 8, 9)), ShapeError,
         r"^reference tensor must have dims \(2, 2, 8, 8\), got \(2, 2, 8, 9\)$"),
        (np.zeros((2, 2, 8, 8), dtype=complex), DtypeError, "unsupported dtype complex128"),
        (np.zeros((64, 4)), ShapeError, "expected a 4-D .* got ndim=2"),
    ], ids=["rows", "1-D", "columns", "complex", "spatial-matrix"])
    def test_malformed_reference_rejected(self, kind, ref, error, message):
        cfg = HarnessConfig(dims=(2, 2, 8, 8))
        with pytest.raises(error, match=message):
            make_alternate(cfg, ref, kind, make_stream(5, 0, 1))

    @pytest.mark.parametrize("kind", CONDITION_ORDER)
    def test_reference_structure_checked_once(self, monkeypatch, kind):
        checks, check = [], tensor_io.validate_tensor

        def validate_tensor(t):
            checks.append(kind)
            return check(t)

        monkeypatch.setattr(tensor_io, "validate_tensor", validate_tensor)
        monkeypatch.setattr(harness, "validate_tensor", validate_tensor)
        make_alternate(SMALL, self.ref, kind, make_stream(5, 0, 1))
        assert len(checks) == 1

    def test_deterministic(self):
        a = make_alternate(SMALL, self.ref, ConditionKind.AFFINE, make_stream(5, 0, 1))
        b = make_alternate(SMALL, self.ref, ConditionKind.AFFINE, make_stream(5, 0, 1))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("params", [
        AffineParams(angle_deg=90.0),
        AffineParams(angle_deg=180.0),
        AffineParams(angle_deg=-90.0),
        AffineParams(tx=0.37 / 10.0, ty=-1.6 / 10.0),
        AffineParams(tx=-0.93, ty=1.05),
        AffineParams(scale=0.55),
        AffineParams(scale=1.25, angle_deg=33.0),
        AffineParams(scale=2.9, angle_deg=211.0, tx=0.05, ty=0.02),
        AffineParams(),
    ])
    def test_warp_matches_tensor_warp_bytes(self, monkeypatch, params):
        # the suite hands make_alternate its reference as a tensor view of the
        # spatial matrix; the warp must give the gather oracle's bytes on the
        # plain tensor all the same
        ref = matricize(self.ref).T.reshape(SMALL.dims)
        monkeypatch.setattr(harness, "sample_params", lambda kind, rng: params)
        alt = make_alternate(SMALL, ref, ConditionKind.AFFINE, make_stream(5, 0, 1))
        assert alt.tobytes() == bilinear_gather_oracle(self.ref, params).tobytes()

    @pytest.mark.parametrize("kind", [ConditionKind.IDENTITY, *GEOMETRIC_CONDITIONS])
    def test_geometric_kind_is_apply_affine_bytes(self, kind):
        # the one warp path: apply_affine by the parameters the stream yields,
        # identity's AffineParams() included. A float32 reference comes out
        # float64, and its -0.0 comes out +0.0, so a widening copy fails too
        ref = self.ref.astype(np.float32)
        ref[1, 2, 3, 4] = -0.0
        alt = make_alternate(SMALL, ref, kind, make_stream(5, 0, 1))
        expected = apply_affine(ref, sample_params(kind, make_stream(5, 0, 1)))
        assert alt.shape == SMALL.dims
        assert alt.dtype == np.float64
        assert alt.tobytes() == expected.tobytes()


class TestRunCondition:
    def test_identity_rows(self):
        rows = run_condition(SMALL, ConditionKind.IDENTITY)
        assert len(rows) == SMALL.trials
        for t, row in enumerate(rows):
            assert row.label == "synthetic"
            assert row.condition == "identity"
            assert row.trial == t
            assert row.seed == SMALL.master_seed
            assert row.s_equiv >= 0.999
            assert row.s_inv >= 0.99
            assert row.r == min(row.k_a, row.k_a_prime)

    def test_deterministic(self):
        a = run_condition(SMALL, ConditionKind.SCALING)
        b = run_condition(SMALL, ConditionKind.SCALING)
        assert a == b

    def test_errors_annotated_with_condition_and_trial(self, monkeypatch):
        def boom(left, right):
            raise DegenerateRankError("synthetic failure")

        monkeypatch.setattr(metrics, "cca", boom)
        with pytest.raises(DegenerateRankError, match="condition identity, trial 0"):
            run_condition(SMALL, ConditionKind.IDENTITY)

    def test_headroom_warning(self, caplog):
        # 32 observations against a much larger retained subspace
        cfg = HarnessConfig(dims=(4, 8, 10, 10), trials=1, master_seed=1)
        with caplog.at_level("WARNING"):
            run_condition(cfg, ConditionKind.IDENTITY)
        assert any("chance-level" in rec.message for rec in caplog.records)

    def test_headroom_warning_once_per_condition(self, caplog):
        cfg = HarnessConfig(dims=(4, 8, 10, 10), trials=3, master_seed=1,
                            conditions=("identity", "rotation"))
        with caplog.at_level("WARNING"):
            run_validation_suite(cfg)
        warned = [rec.message.split(":")[0] for rec in caplog.records
                  if "chance-level" in rec.message]
        assert warned == ["condition identity", "condition rotation"]


class TestRunSuite:
    def test_single_condition(self):
        summaries, rows = run_validation_suite(
            HarnessConfig(dims=(4, 8, 10, 10), trials=2, conditions=("identity",))
        )
        assert len(summaries) == 1
        assert summaries[0].condition is ConditionKind.IDENTITY
        assert summaries[0].trials == 2
        assert len(rows) == 2

    def test_full_bookkeeping_and_order(self):
        cfg = HarnessConfig(dims=(4, 8, 10, 10), trials=2, master_seed=21)
        summaries, rows = run_validation_suite(cfg)
        assert [s.condition for s in summaries] == list(CONDITION_ORDER)
        assert len(rows) == 2 * len(CONDITION_ORDER)
        assert [r.condition for r in rows[:2]] == ["identity", "identity"]

    def test_condition_order_in_config_is_irrelevant(self):
        base = HarnessConfig(dims=(4, 8, 10, 10), trials=2, master_seed=22,
                             conditions=("identity", "rotation"))
        flipped = HarnessConfig(dims=(4, 8, 10, 10), trials=2, master_seed=22,
                                conditions=("rotation", "identity"))
        assert run_validation_suite(base) == run_validation_suite(flipped)

    def test_suite_deterministic(self):
        cfg = HarnessConfig(dims=(4, 8, 10, 10), trials=2, master_seed=23,
                            conditions=("identity", "random_baseline"))
        assert run_validation_suite(cfg) == run_validation_suite(cfg)

    def test_shared_reference_matches_single_condition_runs(self):
        # every condition scores against one shared reference subspace per
        # trial; a reference mutated by one condition or state carried from
        # one condition to the next would break this equality
        cfg = HarnessConfig(dims=(4, 8, 10, 10), trials=2, master_seed=25)
        _, rows = run_validation_suite(cfg)
        assert rows == [row for kind in CONDITION_ORDER for row in run_condition(cfg, kind)]

    def test_one_subspace_per_reference_and_non_identity_alternate(self, monkeypatch):
        # identity shares the reference subspace, so six conditions over
        # T trials build 6*T subspaces: T references and 5*T alternates
        calls = []
        real = metrics.spatial_subspace

        def counting(centered):
            calls.append(centered.shape)
            return real(centered)

        monkeypatch.setattr(metrics, "spatial_subspace", counting)
        cfg = HarnessConfig(dims=(4, 8, 10, 10), trials=3, master_seed=26)
        run_validation_suite(cfg)
        assert len(calls) == 6 * cfg.trials

    def test_each_alternate_released_before_its_gram(self, monkeypatch):
        # an alternate reaches Side.of only as a temporary, which it drops
        # once matricized, so no alternate is alive while a Gram is formed
        alternates = []
        make, build = harness.make_alternate, metrics.spatial_subspace

        def made(*args):
            alt = make(*args)
            alternates.append(weakref.ref(alt))
            return alt

        def released(centered):
            assert all(alt() is None for alt in alternates)
            return build(centered)

        monkeypatch.setattr(harness, "make_alternate", made)
        monkeypatch.setattr(metrics, "spatial_subspace", released)
        run_validation_suite(HarnessConfig(dims=(4, 8, 10, 10), trials=2, master_seed=27))
        assert len(alternates) == 10

    def test_summary_stats_match_rows(self):
        cfg = HarnessConfig(dims=(4, 8, 10, 10), trials=4, master_seed=24,
                            conditions=("rotation",))
        summaries, rows = run_validation_suite(cfg)
        eq = np.array([r.s_equiv for r in rows])
        s = summaries[0]
        assert s.mean_equiv == pytest.approx(eq.mean(), abs=1e-15)
        assert s.std_equiv == pytest.approx(eq.std(), abs=1e-15)
        assert isinstance(s, ConditionSummary)
