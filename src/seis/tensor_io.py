"""Tensor, manifest, and result-table I/O.

Activation tensors travel as NPY files (v1.0/v2.0 readable, v1.0 written):
the format is unambiguous and every major numerical ecosystem can produce
it. Only 4-D float32/float64 arrays are accepted. read_tensor still returns
them widened to float64 in C order, but the scoring path (the CLI and
seis()) checks a dump at its stored precision and leaves the widening to
matricize, whose one transposing copy builds the float64 spatial matrix.
"""

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (
    DtypeError,
    FormatError,
    ParseError,
    ShapeError,
    ValidationError,
)

NPY_MAGIC = b"\x93NUMPY"

SCORE_FIELDS = ("s_equiv", "s_inv")


# dtype kinds with real values: bool, signed and unsigned int, float
_REAL_KINDS = "biuf"


def _check_tensor(t) -> np.ndarray:
    """Check the (b, c, h, w) tensor contract on the array's own dtype.

    Returns np.asarray(t) without a copy; only a float type wider than
    float64 is narrowed to float64 first, so that values beyond float64's
    range count as non-finite. Raises ShapeError for wrong dimensionality,
    DtypeError for a dtype without real values (complex, string, datetime,
    object, ...) and ValidationError for non-finite entries, naming the
    first offending flat index.
    """
    arr = np.asarray(t)
    if arr.ndim != 4:
        raise ShapeError(f"expected a 4-D (b, c, h, w) tensor, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all tensor dims must be >= 1, got {arr.shape}")
    if arr.dtype.kind not in _REAL_KINDS:
        raise DtypeError(f"unsupported dtype {arr.dtype}, need bool, integer or float values")
    if arr.dtype.kind == "f" and arr.dtype.itemsize > 8:
        arr = arr.astype(np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.flatnonzero(~finite.ravel())
        raise ValidationError(f"non-finite value at flat index {int(bad[0])}")
    return arr


def validate_tensor(t) -> np.ndarray:
    """Check the (b, c, h, w) tensor contract and normalize the layout.

    Returns a C-contiguous float64 view or copy. Raises ShapeError for
    wrong dimensionality, DtypeError for a dtype without real values and
    ValidationError for non-finite entries, naming the first offending
    flat index.
    """
    return np.ascontiguousarray(_check_tensor(t), dtype=np.float64)


def _load_npy(path) -> np.ndarray:
    """read_tensor's checks, returning the array at its stored precision
    (float32 or float64, C or Fortran order)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(NPY_MAGIC))
        if magic != NPY_MAGIC:
            raise FormatError(f"{path}: not an NPY file (magic bytes {magic!r})")
        fh.seek(0)
        try:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed NPY container ({exc})") from exc
    if arr.ndim != 4:
        raise ShapeError(f"{path}: expected a 4-D (b, c, h, w) array, got ndim={arr.ndim}")
    if arr.dtype.kind != "f" or arr.dtype.itemsize not in (4, 8):
        raise DtypeError(f"{path}: unsupported dtype {arr.dtype}, need float32/float64")
    try:
        return _check_tensor(arr)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def read_tensor(path) -> np.ndarray:
    """Load a 4-D activation tensor from an NPY file as C-order float64.

    Accepts v1.0/v2.0 containers holding float32/float64 data in either
    C or Fortran order; both encodings of the same logical array load to
    identical tensors.
    """
    return np.ascontiguousarray(_load_npy(path), dtype=np.float64)


def write_tensor(t, path) -> None:
    """Write a tensor as NPY v1.0, 64-bit little-endian float, C order.

    read_tensor inverts this bit-exactly.
    """
    arr = np.ascontiguousarray(validate_tensor(t), dtype="<f8")
    with _replacing(path, "wb") as fh:
        np.lib.format.write_array(fh, arr, version=(1, 0))


@contextmanager
def _replacing(path, mode, **kwargs):
    """Write to a temporary file next to `path` that replaces `path` only once
    the block completes; an interrupted write never leaves a truncated file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@dataclass(frozen=True)
class ManifestEntry:
    label: str
    ref_path: str
    alt_path: str


@dataclass(frozen=True)
class Manifest:
    """Ordered list of labelled (reference, alternate) tensor file pairs."""

    entries: tuple
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def load_manifest(path) -> Manifest:
    """Parse a JSON manifest: {"entries": [{"label", "ref", "alt"}, ...]}.

    File order is preserved. Duplicate labels are rejected so result rows
    stay unambiguous; an empty entries array is a valid (empty) manifest.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError(f"{path}: missing top-level 'entries' key")
    entries = []
    seen = set()
    for i, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: entry {i} is not an object")
        try:
            entry = ManifestEntry(
                label=str(raw["label"]),
                ref_path=str(raw["ref"]),
                alt_path=str(raw["alt"]),
            )
        except KeyError as exc:
            raise ParseError(f"{path}: entry {i} is missing key {exc}") from exc
        if entry.label in seen:
            raise ValidationError(f"{path}: duplicate label {entry.label!r}")
        seen.add(entry.label)
        entries.append(entry)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{path}: 'metadata' must be an object")
    return Manifest(entries=tuple(entries), metadata=metadata)


@dataclass(frozen=True)
class ResultRow:
    """One scored pair: which data, which condition, and both scores."""

    label: str
    condition: str
    trial: int
    seed: int
    s_equiv: float
    s_inv: float
    k_a: int
    k_a_prime: int
    r: int

    def __post_init__(self):
        if not (0.0 <= self.s_equiv <= 1.0) or not (0.0 <= self.s_inv <= 1.0):
            raise ValidationError(
                f"scores must lie in [0, 1], got s_equiv={self.s_equiv} s_inv={self.s_inv}"
            )
        if self.r != min(self.k_a, self.k_a_prime):
            raise ValidationError(
                f"r={self.r} inconsistent with min(k_a={self.k_a}, k_a_prime={self.k_a_prime})"
            )

    @classmethod
    def of(cls, label, condition, trial, seed, scores) -> "ResultRow":
        """Row for one scored pair; `scores` is a metrics.SeisScores."""
        return cls(
            label, condition, trial, seed,
            scores.s_equiv, scores.s_inv, scores.k_a, scores.k_a_prime, scores.r,
        )


RESULT_FIELDS = tuple(f.name for f in fields(ResultRow))


def write_results(rows, path, format="csv") -> None:
    """Serialize result rows as CSV (header + 6-decimal floats) or JSON.

    Output is byte-deterministic for a given row list, which is what makes
    repeated runs of the same seeded experiment directly diffable. Scores
    are rounded to 6 decimals in both formats.
    """
    if format not in ("csv", "json"):
        raise ValidationError(f"unknown result format {format!r}, expected 'csv' or 'json'")
    with _replacing(path, "w", newline="", encoding="utf-8") as fh:
        records = (asdict(row) for row in rows)
        if format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_FIELDS)
            for rec in records:
                writer.writerow(f"{v:.6f}" if k in SCORE_FIELDS else v for k, v in rec.items())
        else:
            json.dump(
                [{k: round(v, 6) if k in SCORE_FIELDS else v for k, v in rec.items()}
                 for rec in records],
                fh,
                indent=2,
            )
            fh.write("\n")
