"""Subspace equivariance and invariance scores for paired activation tensors.

Given two activation tensors of the same shape -- typically a layer's
response to a batch and to a spatially transformed version of it -- the
library matricizes them so spatial cells are features, truncates each side
to its leading principal subspace, runs a stable CCA between the two, and
reports two scores: equivariance (is the information still linearly
recoverable?) and invariance (did the spatial basis itself stay aligned?).
A synthetic harness with built-in spatial transforms validates the scores
against known ground-truth regimes, and the CLI batch-scores externally
dumped layer activations.

seis() checks its inputs once; the stages it runs (in seis.linalg and
seis.metrics) are unexported internals that trust them. Side.of builds a
side once for any number of seis() calls.
"""

from .errors import (
    DegenerateRankError,
    DegenerateSampleError,
    DtypeError,
    FormatError,
    NumericalError,
    ParseError,
    SeisError,
    ShapeError,
    ValidationError,
)
from .harness import (
    ConditionSummary,
    DEFAULT_DIMS,
    DEFAULT_SMOOTHNESS,
    DEFAULT_TRIALS,
    HarnessConfig,
    gen_synthetic_activations,
    make_alternate,
    run_validation_suite,
)
from .metrics import SeisScores, Side, seis
from .tensor_io import (
    ManifestEntry,
    ResultRow,
    load_manifest,
    matricize,
    read_tensor,
    validate_tensor,
    write_results,
    write_tensor,
)
from .transforms import (
    AffineParams,
    CONDITION_ORDER,
    ConditionKind,
    apply_affine,
    make_stream,
    sample_params,
)

__version__ = "0.1.0"

__all__ = [
    "AffineParams",
    "CONDITION_ORDER",
    "ConditionKind",
    "ConditionSummary",
    "DEFAULT_DIMS",
    "DEFAULT_SMOOTHNESS",
    "DEFAULT_TRIALS",
    "DegenerateRankError",
    "DegenerateSampleError",
    "DtypeError",
    "FormatError",
    "HarnessConfig",
    "ManifestEntry",
    "NumericalError",
    "ParseError",
    "ResultRow",
    "SeisError",
    "SeisScores",
    "ShapeError",
    "Side",
    "ValidationError",
    "apply_affine",
    "gen_synthetic_activations",
    "load_manifest",
    "make_alternate",
    "make_stream",
    "matricize",
    "read_tensor",
    "run_validation_suite",
    "sample_params",
    "seis",
    "validate_tensor",
    "write_results",
    "write_tensor",
]
