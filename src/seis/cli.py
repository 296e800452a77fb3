"""Command-line entry point.

Four subcommands cover the workflows: `score` a pair of tensor files,
`synth` runs the synthetic validation suite, `layers` batch-scores the
pairs listed in a manifest, and `gen` writes synthetic tensors (optionally
with a warped companion). Results go to stdout / the --out file; all
diagnostics go to stderr, with verbosity controlled by the SEIS_LOG
environment variable (debug|info|warn).

Exit codes: 0 success, 1 fatal configuration or compute error, 2 partial
batch failure in `layers`.
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .errors import ParseError, SeisError, ValidationError
from .harness import (
    DEFAULT_DIMS,
    DEFAULT_SMOOTHNESS,
    DEFAULT_TRIALS,
    HarnessConfig,
    ROLE_ALTERNATE,
    ROLE_REFERENCE,
    gen_synthetic_activations,
    make_alternate,
    run_validation_suite,
)
from .matricize import matricize
from .metrics import seis
from .tensor_io import ResultRow, _load_npy, load_manifest, write_results, write_tensor
from .transforms import CONDITION_ORDER, ConditionKind, make_stream

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warn": logging.WARNING}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for partial batch
    # failures, so remap flag errors to the fatal-config code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _setup_logging():
    name = os.environ.get("SEIS_LOG", "warn").lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s", force=True
    )


def _parse_dims(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 4:
        raise ValidationError(f"dims must be B,C,H,W, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"dims must be integers, got {text!r}") from exc


def _parse_conditions(value):
    if isinstance(value, str):
        value = [p.strip() for p in value.split(",") if p.strip()]
    try:
        return tuple(ConditionKind(v) for v in value)
    except ValueError as exc:
        valid = ",".join(k.value for k in CONDITION_ORDER)
        raise ValidationError(f"unknown condition ({exc}); valid: {valid}") from exc


def _check_out_path(path):
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ValidationError(f"output directory does not exist: {parent}")


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return doc


def _merged(args, key, fallback, kinds=(str,)):
    """Flag value if given, else config-file value of one of `kinds`, else the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if args.config_doc is None or key not in args.config_doc:
        return fallback
    value = args.config_doc[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(k.__name__ for k in kinds)
        raise ValidationError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    return value


def cmd_score(args) -> int:
    # seis() widens each dump to float64 as it matricizes it
    scores = seis(_load_npy(args.ref), _load_npy(args.alt))
    print(
        f"s_equiv={scores.s_equiv:.6f} s_inv={scores.s_inv:.6f} "
        f"k_a={scores.k_a} k_a_prime={scores.k_a_prime} r={scores.r}"
    )
    return 0


def cmd_synth(args) -> int:
    args.config_doc = _load_config_file(args.config) if args.config else None
    cfg = HarnessConfig(
        dims=_parse_dims(_merged(args, "dims", "%d,%d,%d,%d" % DEFAULT_DIMS)),
        trials=_merged(args, "trials", DEFAULT_TRIALS, (int,)),
        master_seed=_merged(args, "seed", 0, (int,)),
        conditions=_parse_conditions(_merged(args, "conditions", CONDITION_ORDER, (str, list))),
        smoothness=float(_merged(args, "smoothness", DEFAULT_SMOOTHNESS, (int, float))),
    )
    out = _merged(args, "out", None)
    fmt = _merged(args, "format", "csv")
    if out is None:
        raise ValidationError("synth requires --out (or 'out' in the config file)")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown result format {fmt!r}, expected 'csv' or 'json'")
    _check_out_path(out)
    summaries, rows = run_validation_suite(cfg)
    write_results(rows, out, format=fmt)
    print("condition mean_equiv std_equiv mean_inv std_inv trials")
    for s in summaries:
        print(
            f"{s.condition.value} {s.mean_equiv:.6f} {s.std_equiv:.6f} "
            f"{s.mean_inv:.6f} {s.std_inv:.6f} {s.trials}"
        )
    return 0


def cmd_layers(args) -> int:
    manifest = load_manifest(args.manifest)
    _check_out_path(args.out)
    # relative tensor paths are relative to the manifest's own directory
    base = Path(args.manifest).parent
    rows = []
    failures = 0
    for entry in manifest:
        try:
            scores = seis(_load_npy(base / entry.ref_path), _load_npy(base / entry.alt_path))
        except (SeisError, OSError) as exc:
            logger.warning("skipping entry %r: %s", entry.label, exc)
            failures += 1
            continue
        rows.append(ResultRow.of(entry.label, "manifest", 0, 0, scores))
    write_results(rows, args.out, format=args.format)
    if failures and not rows:
        logger.warning("all %d manifest entries failed", failures)
        return 1
    if failures:
        return 2
    return 0


def cmd_gen(args) -> int:
    dims = _parse_dims(args.dims)
    cfg = HarnessConfig(
        dims=dims, trials=1, master_seed=args.seed, smoothness=args.smoothness
    )
    _check_out_path(args.out)
    ref = gen_synthetic_activations(cfg, make_stream(args.seed, 0, ROLE_REFERENCE))
    write_tensor(ref, args.out)
    logger.info("wrote %s with dims %s", args.out, dims)
    if args.warp is not None:
        kind = _parse_conditions(args.warp)
        if len(kind) != 1:
            raise ValidationError("--warp takes exactly one condition kind")
        warp_seed = args.warp_seed if args.warp_seed is not None else args.seed
        alt = make_alternate(
            cfg, matricize(ref), kind[0], make_stream(warp_seed, 0, ROLE_ALTERNATE)
        )
        out = Path(args.out)
        alt_path = out.with_name(out.stem + "_alt" + out.suffix)
        # the (b, c, h, w) tensor view of the (h*w, b*c) spatial matrix
        write_tensor(alt.T.reshape(dims), alt_path)
        logger.info("wrote %s (%s warp)", alt_path, kind[0].value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seis",
        description="Subspace equivariance and invariance scores for activation tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_score = sub.add_parser("score", help="score one pair of NPY tensor files")
    p_score.add_argument("ref", help="reference activation tensor (.npy)")
    p_score.add_argument("alt", help="alternate activation tensor (.npy)")
    p_score.set_defaults(func=cmd_score)

    p_synth = sub.add_parser("synth", help="run the synthetic validation suite")
    p_synth.add_argument("--trials", type=int, default=None, help="trials per condition")
    p_synth.add_argument("--seed", type=int, default=None, help="master seed")
    p_synth.add_argument("--dims", default=None, help="tensor dims as B,C,H,W")
    p_synth.add_argument("--smoothness", type=float, default=None,
                         help="Gaussian field length-scale in pixels")
    p_synth.add_argument("--conditions", default=None,
                         help="comma-separated subset of conditions")
    p_synth.add_argument("--out", default=None, help="result table path")
    p_synth.add_argument("--format", choices=("csv", "json"), default=None)
    p_synth.add_argument("--config", default=None,
                         help="optional JSON config file; flags override it")
    p_synth.set_defaults(func=cmd_synth)

    p_layers = sub.add_parser("layers", help="score every pair in a manifest")
    p_layers.add_argument("--manifest", required=True, help="JSON manifest path")
    p_layers.add_argument("--out", required=True, help="result table path")
    p_layers.add_argument("--format", choices=("csv", "json"), default="csv")
    p_layers.set_defaults(func=cmd_layers)

    p_gen = sub.add_parser("gen", help="write a synthetic activation tensor")
    p_gen.add_argument("--dims", default="%d,%d,%d,%d" % DEFAULT_DIMS,
                       help="tensor dims as B,C,H,W")
    p_gen.add_argument("--smoothness", type=float, default=DEFAULT_SMOOTHNESS)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output .npy path")
    p_gen.add_argument("--warp", default=None,
                       help="also write a transformed companion (condition kind)")
    p_gen.add_argument("--warp-seed", type=int, default=None,
                       help="seed for the warp parameter stream (default: --seed)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
