"""Spatial transforms over activation tensors and their parameter sampling.

Transforms act directly at the representation level: each (batch, channel)
slice of a tensor is warped by the same affine map. Warping uses a single
composed inverse map with bilinear interpolation, so a composite transform
is resampled once rather than blurred by repeated interpolation. Every
warp is a sparse linear operator on the flattened spatial axis, a table of
each output cell's four bilinear corners (WarpOperator), applied to the
(h*w, b*c) spatial matrix of matricize in one product.

All randomness flows through named, counter-based Philox streams so a
(master seed, trial, role) triple yields the same draws on any machine and
regardless of execution order.
"""

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeError, ValidationError
from .tensor_io import matricize

# Sampling ranges for the stochastic transform parameters.
TRANSLATION_LIMIT = 0.15        # fraction of each spatial dimension
SCALE_RANGE = (0.8, 1.2)
ROTATION_RANGE = (0.0, 360.0)   # degrees


class ConditionKind(str, Enum):
    """The six experimental conditions; ConditionKind(name) raises
    ValidationError, listing the valid names, for any other name."""

    IDENTITY = "identity"
    TRANSLATION = "translation"
    SCALING = "scaling"
    ROTATION = "rotation"
    AFFINE = "affine"
    RANDOM_BASELINE = "random_baseline"

    @classmethod
    def _missing_(cls, value):
        valid = ",".join(kind.value for kind in cls)
        raise ValidationError(f"unknown condition {value!r}; valid: {valid}")


CONDITION_ORDER = tuple(ConditionKind)


@dataclass(frozen=True)
class AffineParams:
    """Affine warp parameters.

    tx/ty are signed fractions of the width/height, scale is isotropic
    about the grid center, and positive angles rotate counter-clockwise
    about the grid center (a +90 degree rotation of a square slice equals
    numpy.rot90 by one quarter turn).
    """

    tx: float = 0.0
    ty: float = 0.0
    scale: float = 1.0
    angle_deg: float = 0.0


def _integer(name, value) -> int:
    """value as a Python int if it is an integer (NumPy ones included) and
    not a bool; anything else, 2.0 too, raises ValidationError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _master_seed(value) -> int:
    """value as a master seed, an integer that fits a uint64; else ValidationError."""
    seed = _integer("master seed", value)
    if not (0 <= seed < 2**64):
        raise ValidationError(f"master seed must be a uint64, got {seed}")
    return seed


def make_stream(master_seed: int, trial: int = 0, role: int = 0) -> np.random.Generator:
    """Independent deterministic random stream for a (seed, trial, role) triple.

    Streams are Philox4x32-10 counter-based generators keyed by two 64-bit
    words: the master seed and (trial << 1) | role. Distinct keys give
    statistically independent streams, so trials can run in any order or
    in parallel and still reproduce the same draws. Role 0 is the
    reference draw, role 1 the alternate/parameter draw. All three must be
    integers (see _integer), and the master seed a uint64 (_master_seed).
    """
    master_seed = _master_seed(master_seed)
    trial = _integer("trial index", trial)
    role = _integer("role", role)
    if not (0 <= trial < 2**63):
        raise ValidationError(f"trial index out of range: {trial}")
    if role not in (0, 1):
        raise ValidationError(f"role must be 0 or 1, got {role}")
    key = np.array([master_seed, (trial << 1) | role], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_params(kind, rng: np.random.Generator) -> AffineParams:
    """Draw transform parameters for a condition from the given stream.

    A parameter the condition leaves alone keeps its identity value and
    draws nothing, so identity yields AffineParams() without consuming
    randomness; random_baseline has no affine parametrization and is
    rejected. The draw order is fixed (tx, ty, scale, angle) so one stream
    always yields the same parameters.
    """
    kind = ConditionKind(kind)
    if kind is ConditionKind.RANDOM_BASELINE:
        raise ValidationError("random_baseline has no affine parameters")
    tx = ty = 0.0
    scale = 1.0
    angle = 0.0
    if kind in (ConditionKind.TRANSLATION, ConditionKind.AFFINE):
        tx = float(rng.uniform(-TRANSLATION_LIMIT, TRANSLATION_LIMIT))
        ty = float(rng.uniform(-TRANSLATION_LIMIT, TRANSLATION_LIMIT))
    if kind in (ConditionKind.SCALING, ConditionKind.AFFINE):
        scale = float(rng.uniform(*SCALE_RANGE))
    if kind in (ConditionKind.ROTATION, ConditionKind.AFFINE):
        angle = float(rng.uniform(*ROTATION_RANGE))
    return AffineParams(tx=tx, ty=ty, scale=scale, angle_deg=angle)


# Elements of the spatial matrix gathered per chunk of WarpOperator's product,
# small enough that a chunk's reads and sums stay in cache.
GATHER_CHUNK = 1 << 15


@dataclass(frozen=True, eq=False)
class WarpOperator:
    """A sparse (h*w, h*w) operator stored as a 4-slot table (ELL format).

    Row i of sources and weights holds output cell i's bilinear corners
    (0,0) (0,1) (1,0) (1,1), in ascending source order. A stored corner is a
    source cell and its nonzero weight; a corner outside the grid or of zero
    weight is unstored: it reads source h*w, past the grid, with weight 0.0.
    """

    sources: np.ndarray
    weights: np.ndarray

    @property
    def shape(self) -> tuple:
        return (len(self.sources),) * 2

    def __matmul__(self, m) -> np.ndarray:
        """The (h*w, n) float64 product with an (h*w, n) matrix m, bit for bit
        that of a CSR matrix of the stored corners.

        Each output row starts at +0.0 and adds weight * source row slot by
        slot, in corner order. A sum that starts at +0.0 is never -0.0, so
        adding a zero of either sign leaves it unchanged. An unstored slot
        reads source h*w, which take clips to m's last row, times 0.0: such a
        zero, unless that row holds a non-finite value, which 0.0 would turn
        into NaN; then a zero row is appended below m for it to read.
        """
        m = np.asarray(m, dtype=np.float64)
        d = len(self.sources)
        if m.ndim != 2 or len(m) != d:
            raise ShapeError(f"a ({d}, {d}) operator cannot multiply shape {m.shape}")
        n = m.shape[1]
        if not np.isfinite(m[-1]).all():
            m = np.vstack([m, np.zeros(n)])
        out = np.zeros((d, n))
        rows = max(1, GATHER_CHUNK // max(n, 1))
        term = np.empty((min(rows, d), n))
        for start in range(0, d, rows):
            chunk = slice(start, start + rows)
            acc = out[chunk]
            t = term[:len(acc)]
            for slot in range(4):
                # mode="clip" lets take write into t directly; "raise" buffers it
                np.take(m, self.sources[chunk, slot], axis=0, out=t, mode="clip")
                t *= self.weights[chunk, slot, None]
                acc += t
        return out


def affine_operator(h: int, w: int, params: AffineParams) -> WarpOperator:
    """The (h*w, h*w) bilinear WarpOperator of an affine warp on an h x w grid.

    Forward model: scale about the grid center, rotate about the center,
    then translate by (tx*w, ty*h) pixels. The center is at
    ((h-1)/2, (w-1)/2) with pixel centers on integer coordinates, which
    makes right-angle rotations of square grids exact permutations.
    Sampling goes through the composed inverse map with bilinear
    interpolation; reads outside the grid contribute zero. The trig
    factors of right-angle rotations are snapped to integers and only
    nonzero weights are stored, so exact remaps (identity parameters,
    integer shifts, half turns, square quarter turns) store one 1.0 per row.

    Left-multiplying a (h*w, n) spatial matrix by the operator warps every
    one of its n slices.
    """
    if h < 2 or w < 2:
        raise ShapeError(f"warping needs h >= 2 and w >= 2, got ({h}, {w})")
    for name in ("tx", "ty", "scale", "angle_deg"):
        if not math.isfinite(getattr(params, name)):
            raise ValidationError(f"non-finite affine parameter {name}")
    if params.scale <= 0.0:
        raise ValidationError(f"scale must be positive, got {params.scale}")

    angle = params.angle_deg % 360.0
    theta = math.radians(angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    if angle % 90.0 == 0.0:
        cos_t, sin_t = float(round(cos_t)), float(round(sin_t))

    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.divmod(np.arange(h * w, dtype=np.float64), w)
    # invert: undo the translation, rotate back, unscale
    ux = xs - cx - params.tx * w
    uy = ys - cy - params.ty * h
    src_x = (cos_t * ux - sin_t * uy) / params.scale + cx
    src_y = (sin_t * ux + cos_t * uy) / params.scale + cy

    # one table row per output cell; its corners (0,0) (0,1) (1,0) (1,1)
    # come in ascending source index, and corners outside the grid or of
    # zero weight are unstored: source h*w, weight 0.0
    x0, y0 = np.floor(src_x)[:, None], np.floor(src_y)[:, None]
    fx, fy = src_x[:, None] - x0, src_y[:, None] - y0
    xx, yy = x0 + [0, 1, 0, 1], y0 + [0, 0, 1, 1]
    weight = np.hstack([1.0 - fy, 1.0 - fy, fy, fy]) * np.hstack([1.0 - fx, fx, 1.0 - fx, fx])
    stored = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w) & (weight != 0.0)
    sources = np.where(stored, yy * w + xx, h * w).astype(np.intp)
    return WarpOperator(sources, np.where(stored, weight, 0.0))


def apply_affine(z, params: AffineParams) -> np.ndarray:
    """Warp every (batch, channel) slice of a tensor by the same affine map.

    The tensor is matricized (structure checked, widened to float64),
    left-multiplied by the operator of affine_operator and returned as a
    (b, c, h, w) view of the warped matrix. A non-finite value reaches only
    the cells that read it; an exact remap moves values unchanged, but -0.0 becomes +0.0.
    """
    m = matricize(z)
    return (affine_operator(*np.shape(z)[2:], params) @ m).T.reshape(np.shape(z))
