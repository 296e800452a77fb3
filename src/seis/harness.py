"""Synthetic validation harness.

Generates smooth Gaussian random fields as stand-in activations, runs the
six-condition protocol (identity, four geometric transforms, random
baseline), and aggregates per-condition statistics over independent
trials. Smoothness matters: interpolation-based warps act almost linearly
on the leading subspace of a smooth field, which is exactly the regime the
geometric conditions are meant to probe. Everything is a pure function of
the config, so two runs with the same master seed agree bit for bit. Fields
and warps need numpy only: the blur gives ndimage.gaussian_filter's
bits, and the warp those of a CSR product (tests/ holds both oracles).
"""

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import SeisError, ShapeError, ValidationError
from .metrics import Side, seis
from .tensor_io import ResultRow, validate_tensor
from .transforms import (
    CONDITION_ORDER,
    ConditionKind,
    _integer,
    _master_seed,
    apply_affine,
    make_stream,
    sample_params,
)

logger = logging.getLogger(__name__)

DEFAULT_DIMS = (64, 32, 28, 28)
DEFAULT_TRIALS = 50
DEFAULT_SMOOTHNESS = 2.0

# Slices drawn, blurred and standardized at a time: a block's work stays in cache.
FIELD_BLOCK = 64

# Stream roles within a trial.
ROLE_REFERENCE = 0
ROLE_ALTERNATE = 1

# Chance-level canonical correlations scale like sqrt(k/n); warn when the
# observation count drops below 100x the retained subspace size.
CHANCE_HEADROOM = 100

SYNTHETIC_LABEL = "synthetic"


def _sequence(name, value) -> tuple:
    """The items of value if it is an iterable other than a string; anything
    else raises ValidationError."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be a sequence, got {value!r}")


@dataclass(frozen=True)
class HarnessConfig:
    """Configuration of one validation run. dims is (b, c, h, w) with h*w >= 2,
    since each slice is standardized over its grid, and smoothness <= max(h, w)."""

    dims: tuple = DEFAULT_DIMS
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    conditions: tuple = CONDITION_ORDER
    smoothness: float = DEFAULT_SMOOTHNESS

    def __post_init__(self):
        dims = tuple(_integer("dims", v) for v in _sequence("dims", self.dims))
        if len(dims) != 4 or min(dims) < 1:
            raise ValidationError(f"dims must be four positive integers, got {self.dims}")
        if dims[2] * dims[3] < 2:
            raise ValidationError(f"dims must give an h*w grid of at least 2 cells, got {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "master_seed", _master_seed(self.master_seed))
        if isinstance(self.smoothness, bool) or not isinstance(self.smoothness, numbers.Real):
            raise ValidationError(f"smoothness must be a real number, got {self.smoothness!r}")
        object.__setattr__(self, "smoothness", float(self.smoothness))
        if not (0.0 < self.smoothness <= max(dims[2:])):
            raise ValidationError(f"smoothness must be in (0, max(h, w)], got {self.smoothness}")
        conditions = tuple(ConditionKind(c) for c in _sequence("conditions", self.conditions))
        if not conditions:
            raise ValidationError("conditions must name at least one condition")
        object.__setattr__(self, "conditions", conditions)


@dataclass(frozen=True)
class ConditionSummary:
    """Mean/std of both scores over the trials of one condition.

    Standard deviations are population (ddof=0) over the trial values.
    """

    condition: ConditionKind
    mean_equiv: float
    std_equiv: float
    mean_inv: float
    std_inv: float
    trials: int


def _gaussian_taps(sigma: float) -> np.ndarray:
    """Taps 0..r of ndimage's normalized Gaussian kernel for sigma,
    r = int(4 * sigma + 0.5); tap j weighs the values j cells either side."""
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return (phi / phi.sum())[r:]


def _blur(x, taps) -> np.ndarray:
    """x blurred along axis 0, bit for bit as ndimage.gaussian_filter1d
    blurs it: reflected at the ends (numpy's "symmetric" padding), then the
    center value times taps[0] plus, from the outermost tap inward, each
    mirrored pair's sum times its tap. Returns a new C-contiguous array."""
    r, n = len(taps) - 1, len(x)
    p = np.pad(x, [(r, r)] + [(0, 0)] * (x.ndim - 1), mode="symmetric")
    out = p[r:r + n] * taps[0]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(p[r - j:r - j + n], p[r + j:r + j + n], out=pair)
        pair *= taps[j]
        out += pair
    return out


def gen_synthetic_activations(cfg: HarnessConfig, rng: np.random.Generator) -> np.ndarray:
    """Smooth standardized Gaussian random fields.

    White noise is blurred per slice with an isotropic Gaussian kernel
    (sigma = cfg.smoothness pixels), then each (batch, channel) slice is
    standardized to zero mean and unit variance so covariances stay well
    conditioned and scores are comparable across seeds. As smoothness
    approaches zero the output approaches plain white noise.

    The bits are those of ndimage.gaussian_filter along h, then w, on
    one (b, c, h, w) draw, with the slice-wise standardization after it.
    Slices are drawn and blurred FIELD_BLOCK at a time and written into
    the (h*w, b*c) spatial matrix of matricize, and the result is a
    (b, c, h, w) view of that matrix.
    """
    b, c, h, w = cfg.dims
    # like ndimage, no blur at sigma <= 1e-15, where the kernel could divide by zero
    taps = _gaussian_taps(cfg.smoothness) if cfg.smoothness > 1e-15 else None
    m = np.empty((h * w, b * c))
    for start in range(0, b * c, FIELD_BLOCK):
        x = rng.standard_normal((min(FIELD_BLOCK, b * c - start), h, w))
        if taps is not None:
            # the blurred axis leads, so each tap's slices are contiguous
            x = _blur(x.transpose(1, 0, 2), taps)
            x = _blur(x.transpose(2, 0, 1), taps).transpose(2, 1, 0)
        x = np.ascontiguousarray(x).reshape(len(x), h * w)
        # in place, and bit-equal to (x - x.mean(...)) / x.std(...)
        x -= x.mean(axis=1, keepdims=True)
        x /= np.sqrt(np.mean(np.square(x), axis=1, keepdims=True))
        m[:, start:start + len(x)] = x.T
    return m.T.reshape(cfg.dims)


def make_alternate(cfg: HarnessConfig, ref, kind, rng) -> np.ndarray:
    """Build the comparison tensor for one condition.

    ref is the (b, c, h, w) reference tensor of cfg.dims, and the result is
    a new float64 tensor of the same dims. identity and the geometric kinds
    warp it by apply_affine(ref, sample_params(kind, rng)), identity's
    AffineParams() an exact remap that keeps every value (-0.0 comes out
    +0.0); the random baseline draws an independent field from the same
    smooth ensemble. Matching the null's spectrum to the reference keeps both
    truncated subspaces at comparable rank, so chance-level scores sit at the
    sqrt(k/n) floor instead of being inflated by the near-full-rank spectrum
    a raw white-noise alternate would retain.
    Whatever the condition, a 4-D ref of dims other than cfg.dims raises ShapeError,
    and ref's structure is checked once: by apply_affine or else validate_tensor.
    """
    kind = ConditionKind(kind)
    if np.ndim(ref) == 4 and np.shape(ref) != cfg.dims:
        raise ShapeError(f"reference tensor must have dims {cfg.dims}, got {np.shape(ref)}")
    if kind is ConditionKind.RANDOM_BASELINE:
        validate_tensor(ref)
        return gen_synthetic_activations(cfg, rng)
    return apply_affine(ref, sample_params(kind, rng))


def run_validation_suite(cfg: HarnessConfig):
    """Run all configured conditions; returns (summaries, rows).

    Trial t draws its reference from stream (seed, t, 0) and each
    condition's alternate material from a fresh stream (seed, t, 1), so
    trials are independent and a row does not depend on which other
    conditions run. Each trial's reference Side is built once; make_alternate
    makes every alternate from the reference tensor, and seis() scores each
    against that Side, identity the Side against itself. Conditions report
    in the canonical order identity, translation, scaling, rotation, affine,
    random_baseline regardless of the order they appear in the config.
    """
    kinds = [kind for kind in CONDITION_ORDER if kind in cfg.conditions]
    n_obs = cfg.dims[0] * cfg.dims[1]
    rows = {kind: [] for kind in kinds}
    warned = set()
    for trial in range(cfg.trials):
        where = f"trial {trial}"
        try:
            # a view of the spatial matrix, so each matricize of it copies without transposing
            ref = gen_synthetic_activations(cfg, make_stream(cfg.master_seed, trial, ROLE_REFERENCE))
            ref_side = Side.of(ref, "reference")
            for kind in kinds:
                where = f"condition {kind.value}, trial {trial}"
                alt_side = ref_side
                if kind is not ConditionKind.IDENTITY:
                    # the alternate stays a temporary, freed once Side.of copies it
                    alt_side = Side.of(make_alternate(
                        cfg, ref, kind, make_stream(cfg.master_seed, trial, ROLE_ALTERNATE)
                    ), "alternate")
                scores = seis(ref_side, alt_side)
                k_max = max(scores.k_a, scores.k_a_prime)
                if kind not in warned and n_obs < CHANCE_HEADROOM * k_max:
                    logger.warning(
                        "condition %s: %d observations for subspace size %d (below %dx "
                        "headroom); chance-level correlations may not be negligible",
                        kind.value, n_obs, k_max, CHANCE_HEADROOM,
                    )
                    warned.add(kind)
                logger.debug(
                    "condition %s trial %d: s_equiv=%.6f s_inv=%.6f",
                    kind.value, trial, scores.s_equiv, scores.s_inv,
                )
                rows[kind].append(
                    ResultRow.of(SYNTHETIC_LABEL, kind.value, trial, cfg.master_seed, scores)
                )
        except SeisError as exc:
            raise type(exc)(f"{where}: {exc}") from exc

    summaries = []
    for kind in kinds:
        eq = np.array([r.s_equiv for r in rows[kind]])
        iv = np.array([r.s_inv for r in rows[kind]])
        summaries.append(
            ConditionSummary(
                condition=kind,
                mean_equiv=float(eq.mean()),
                std_equiv=float(eq.std()),
                mean_inv=float(iv.mean()),
                std_inv=float(iv.std()),
                trials=cfg.trials,
            )
        )
        logger.info(
            "condition %s: mean s_equiv=%.6f mean s_inv=%.6f over %d trials",
            kind.value, summaries[-1].mean_equiv, summaries[-1].mean_inv, cfg.trials,
        )
    return summaries, [row for kind in kinds for row in rows[kind]]
