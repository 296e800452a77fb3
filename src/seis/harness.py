"""Synthetic validation harness.

Generates smooth Gaussian random fields as stand-in activations, runs the
six-condition protocol (identity, four geometric transforms, random
baseline), and aggregates per-condition statistics over independent
trials. Smoothness matters: interpolation-based warps act almost linearly
on the leading subspace of a smooth field, which is exactly the regime the
geometric conditions are meant to probe. Everything is a pure function of
the config, so two runs with the same master seed agree bit for bit.
"""

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import DtypeError, SeisError, ShapeError, ValidationError
from .tensor_io import _REAL_KINDS, ResultRow, matricize
from .transforms import (
    CONDITION_ORDER,
    ConditionKind,
    _integer,
    _master_seed,
    affine_operator,
    make_stream,
    sample_params,
)

logger = logging.getLogger(__name__)

DEFAULT_DIMS = (64, 32, 28, 28)
DEFAULT_TRIALS = 50
DEFAULT_SMOOTHNESS = 2.0

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


def gen_synthetic_activations(cfg: HarnessConfig, rng: np.random.Generator) -> np.ndarray:
    """Smooth standardized Gaussian random fields.

    White noise is blurred per slice with an isotropic Gaussian kernel
    (sigma = cfg.smoothness pixels), then each (batch, channel) slice is
    standardized to zero mean and unit variance so covariances stay well
    conditioned and scores are comparable across seeds. As smoothness
    approaches zero the output approaches plain white noise.
    """
    # imported here so that scoring, which never generates, loads numpy only
    from scipy import ndimage

    x = rng.standard_normal(cfg.dims)
    x = ndimage.gaussian_filter(x, sigma=(0.0, 0.0, cfg.smoothness, cfg.smoothness))
    # in place, and bit-equal to (x - x.mean(...)) / x.std(...)
    x -= x.mean(axis=(2, 3), keepdims=True)
    x /= np.sqrt(np.mean(np.square(x), axis=(2, 3), keepdims=True))
    return x


def make_alternate(cfg: HarnessConfig, ref: np.ndarray, kind, rng) -> np.ndarray:
    """Build the comparison matrix for one condition.

    ref is the reference's (h*w, b*c) spatial matrix (see matricize), and
    the result is a new matrix of the same layout. identity copies the
    reference bit-exactly; the geometric conditions warp it by the
    affine_operator of freshly sampled parameters, one sparse product for
    all slices; the random baseline draws an independent field from the
    same smooth ensemble. Matching the null's spectrum to the reference
    keeps both truncated subspaces at comparable rank, so chance-level
    scores sit at the sqrt(k/n) floor instead of being inflated by the
    near-full-rank spectrum a raw white-noise alternate would retain.
    Raises ShapeError when ref is not (h*w, b*c) for cfg.dims and
    DtypeError when its dtype has no real values, whatever the condition.
    """
    kind = ConditionKind(kind)
    ref = np.asarray(ref)
    b, c, h, w = cfg.dims
    if ref.shape != (h * w, b * c):
        raise ShapeError(
            f"reference matrix must be {(h * w, b * c)} for dims {cfg.dims}, got {ref.shape}"
        )
    if ref.dtype.kind not in _REAL_KINDS:
        raise DtypeError(
            f"unsupported reference matrix dtype {ref.dtype}, need bool, integer or float values"
        )
    if kind is ConditionKind.IDENTITY:
        return ref.copy()
    if kind is ConditionKind.RANDOM_BASELINE:
        return matricize(gen_synthetic_activations(cfg, rng))
    return affine_operator(h, w, sample_params(kind, rng)) @ ref


def run_validation_suite(cfg: HarnessConfig):
    """Run all configured conditions; returns (summaries, rows).

    Trial t draws its reference from stream (seed, t, 0) and each
    condition's alternate material from a fresh stream (seed, t, 1), so
    trials are independent and a row does not depend on which other
    conditions run. Each trial's reference is matricized and its subspace
    built once; every condition's alternate is made from that matrix, and
    identity scores the reference subspace against itself. Conditions
    report in the canonical order identity, translation, scaling,
    rotation, affine, random_baseline regardless of the order they appear
    in the config.
    """
    kinds = [kind for kind in CONDITION_ORDER if kind in cfg.conditions]
    n_obs = cfg.dims[0] * cfg.dims[1]
    rows = {kind: [] for kind in kinds}
    warned = set()
    for trial in range(cfg.trials):
        where = f"trial {trial}"
        try:
            ref = matricize(gen_synthetic_activations(
                cfg, make_stream(cfg.master_seed, trial, ROLE_REFERENCE)
            ))
            ref_side = metrics._side_subspace("reference", ref.copy())
            for kind in kinds:
                where = f"condition {kind.value}, trial {trial}"
                alt_side = ref_side
                if kind is not ConditionKind.IDENTITY:
                    alt = make_alternate(
                        cfg, ref, kind, make_stream(cfg.master_seed, trial, ROLE_ALTERNATE)
                    )
                    alt_side = metrics._side_subspace("alternate", alt)
                scores = metrics._score(ref_side, alt_side)
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
