"""Exception types shared across the package.

Plain I/O failures (unwritable paths, permission problems) are reported
with the builtin OSError; everything the library itself diagnoses derives
from SeisError so callers can catch one base class.
"""


class SeisError(Exception):
    """Base class for all library-diagnosed errors."""


class FormatError(SeisError):
    """File container is malformed (bad magic, header, or encoding)."""


class ParseError(SeisError):
    """Structured document is syntactically broken or missing required keys."""


class ShapeError(SeisError):
    """Array dimensionality or shape violates the contract."""


class DtypeError(SeisError):
    """Unsupported element type."""


class ValidationError(SeisError):
    """Input values violate an invariant (non-finite entries, bad parameters, ...)."""


class DegenerateSampleError(SeisError):
    """Too few observations for the requested statistic."""


class DegenerateRankError(SeisError):
    """Input carries no variance at all (all-zero spectrum)."""


class NumericalError(SeisError):
    """A numerical routine produced values outside its certified range."""
