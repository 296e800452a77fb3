"""Tensor, manifest, and result-table I/O.

Activation tensors travel as NPY files (v1.0/v2.0 readable, v1.0 written):
the format is unambiguous and every major numerical ecosystem can produce
it. Only 4-D float32/float64 arrays are accepted. read_tensor and
validate_tensor check structure and keep a tensor's precision and order;
matricize reshapes a tensor into its spatial matrix in the one copy that
widens to float64. Values are checked where they are used: at each side's
row means and Gram diagonal, and by write_tensor.
"""

import csv
import json
import logging
import os
import re
import stat
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from tokenize import TokenError

import numpy as np

from .errors import (
    DtypeError,
    FormatError,
    ParseError,
    SeisError,
    ShapeError,
    ValidationError,
)

SCORE_FIELDS = ("s_equiv", "s_inv")
RESULT_FORMATS = ("csv", "json")


# dtype kinds with real values: bool, signed and unsigned int, float
_REAL_KINDS = "biuf"


def validate_tensor(t) -> np.ndarray:
    """Check the (b, c, h, w) tensor contract on the array's own dtype.

    Returns np.asarray(t), so an array comes back uncopied in its own dtype
    and memory order. Raises ShapeError for wrong dimensionality and
    DtypeError for a dtype without real values (complex, string, datetime,
    object, ...); values are checked where they are used.
    """
    arr = np.asarray(t)
    if arr.ndim != 4:
        raise ShapeError(f"expected a 4-D (b, c, h, w) tensor, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all tensor dims must be >= 1, got {arr.shape}")
    if arr.dtype.kind not in _REAL_KINDS:
        raise DtypeError(f"unsupported dtype {arr.dtype}, need bool, integer or float values")
    return arr


def matricize(z) -> np.ndarray:
    """Reshape a (b, c, h, w) tensor into its (h*w, b*c) spatial matrix.

    Rows are spatial cells, (y, x) in row y*w + x; columns are observations,
    (batch i, channel j) in column i*c + j; so a spatial transform is a
    linear operator on the row axis. The tensor's structure is checked by
    validate_tensor; its values are widened to float64 unchecked inside the
    one transposing copy, so the result is a new C-contiguous array that
    never aliases the input.
    """
    z = validate_tensor(z)
    b, c, h, w = z.shape
    return np.array(z.reshape(b * c, h * w).T, dtype=np.float64, order="C")


def _reject_nonfinite(t) -> None:
    """ValidationError naming the float64 array t's first C-order flat index not finite."""
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise ValidationError(f"non-finite value at flat index {int(bad[0])}")


def read_tensor(path) -> np.ndarray:
    """Map a 4-D float32/float64 tensor, in C or Fortran order, from an NPY file.

    Returns a copy-on-write map of the regular file, checked by validate_tensor:
    writes stay in memory, and the file must not be truncated while the array
    is in use. A path that is neither a regular file nor a directory (a FIFO,
    a pipe, a device) is a FormatError before anything opens it, and so is a
    file numpy cannot map (a malformed header); a missing file or a directory
    keeps its OSError. Errors name the path, and so does the log line of each
    numpy warning, such as on a Python 2 header.
    """
    try:
        # opening a FIFO would block until a writer came
        if stat.S_IFMT(os.stat(os.fspath(path)).st_mode) not in (stat.S_IFREG, stat.S_IFDIR):
            raise ValueError("not a regular file")
        with warnings.catch_warnings(record=True, action="always") as caught:
            arr = np.lib.format.open_memmap(path, mode="c")
    except (ValueError, SyntaxError, TokenError, OverflowError, TypeError) as exc:
        # besides ValueError, numpy raises TokenError or IndentationError for an
        # unclosed header dict, OverflowError for a negative dim, TypeError for a bool one
        raise FormatError(f"{path}: not a readable NPY file ({exc})") from exc
    for w in caught:
        logging.getLogger(__name__).warning("%s: %s", path, w.message)
    if arr.dtype.kind != "f" or arr.dtype.itemsize not in (4, 8):
        raise DtypeError(f"{path}: unsupported dtype {arr.dtype}, need float32/float64")
    try:
        return validate_tensor(arr)
    except SeisError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_tensor(t, path) -> None:
    """Write a finite tensor as NPY v1.0, 64-bit little-endian float, C order.

    read_tensor inverts this bit-exactly.
    """
    # a value beyond float64's range narrows to inf, which the check reports
    with np.errstate(over="ignore"):
        arr = np.ascontiguousarray(validate_tensor(t), dtype="<f8")
    _reject_nonfinite(arr)
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


def _read_json(path):
    """The JSON document in a UTF-8 file; ParseError, naming the path, if
    the bytes are not UTF-8 or the decoder cannot finish the text: not
    JSON, nested past the recursion limit, or an integer past Python's
    digit limit."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc


# a NUL cannot be in a path, and a lone surrogate cannot be encoded as UTF-8
_NOT_TEXT = re.compile("[\0\ud800-\udfff]")


def _check_text(value, where) -> None:
    """ParseError unless the string value can name a file and be written as
    UTF-8 output; where names the file and key it came from."""
    if _NOT_TEXT.search(value):
        raise ParseError(f"{where} must hold no NUL or lone surrogate, got {json.dumps(value)}")


@dataclass(frozen=True)
class ManifestEntry:
    label: str
    ref_path: str
    alt_path: str


def load_manifest(path) -> tuple:
    """Parse a JSON manifest, {"entries": [{"label", "ref", "alt"}, ...]},
    into its tuple of ManifestEntry.

    File order is preserved, and other top-level keys are ignored. label,
    ref and alt must be JSON strings with no NUL or lone surrogate, so each
    can name a file and be written to the result table. Duplicate labels are
    rejected so result rows stay unambiguous; an empty entries array is a
    valid (empty) manifest.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError(f"{path}: missing top-level 'entries' key")
    if not isinstance(doc["entries"], list):
        raise ParseError(f"{path}: 'entries' must be an array, got {json.dumps(doc['entries'])}")
    entries = []
    seen = set()
    for i, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: entry {i} is not an object")
        for key in ("label", "ref", "alt"):
            if key not in raw:
                raise ParseError(f"{path}: entry {i} is missing key {key!r}")
            if not isinstance(raw[key], str):
                raise ParseError(
                    f"{path}: entry {i} key {key!r} must be a string, got {json.dumps(raw[key])}"
                )
            _check_text(raw[key], f"{path}: entry {i} key {key!r}")
        entry = ManifestEntry(raw["label"], raw["ref"], raw["alt"])
        if entry.label in seen:
            raise ValidationError(f"{path}: duplicate label {entry.label!r}")
        seen.add(entry.label)
        entries.append(entry)
    return tuple(entries)


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
    if format not in RESULT_FORMATS:
        raise ValidationError(f"unknown result format {format!r}, expected one of {RESULT_FORMATS}")
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
