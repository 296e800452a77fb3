"""Command-line entry point.

Four subcommands cover the workflows: `score` a pair of tensor files,
`synth` runs the synthetic validation suite, `layers` batch-scores the
pairs listed in a manifest, and `gen` writes synthetic tensors (optionally
with a warped companion). Results go to stdout / the --out file; all
diagnostics go to stderr, with verbosity controlled by the SEIS_LOG
environment variable (debug|info|warn).

`synth` and `gen` pass HarnessConfig only the settings given, so its
defaults and value rules hold; every `synth` config value is type-checked,
even one a flag overrides.

Exit codes: 0 success, 1 fatal configuration or compute error, 2 partial
batch failure in `layers`.
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import metrics
from .errors import ParseError, SeisError, ValidationError
from .harness import (
    HarnessConfig,
    ROLE_ALTERNATE,
    ROLE_REFERENCE,
    gen_synthetic_activations,
    make_alternate,
    run_validation_suite,
)
from .tensor_io import (
    RESULT_FORMATS, ResultRow, _read_json, load_manifest, matricize, read_tensor,
    write_results, write_tensor,
)
from .transforms import ConditionKind, make_stream

logger = logging.getLogger("seis.cli")

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warn": logging.WARNING}

# synth flags a config file may set: (JSON types, HarnessConfig field or None)
_CONFIG_KEYS = {
    "conditions": ((str, list), "conditions"), "dims": ((str,), "dims"),
    "format": ((str,), None), "out": ((str,), None), "seed": ((int,), "master_seed"),
    "smoothness": ((int, float), "smoothness"), "trials": ((int,), "trials"),
}


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


def _harness_config(settings) -> HarnessConfig:
    """HarnessConfig from the flag-named settings that are not None; the
    rest take HarnessConfig's defaults, and HarnessConfig checks every value."""
    given = {field: settings[key] for key, (_, field) in _CONFIG_KEYS.items()
             if field is not None and settings.get(key) is not None}
    if "dims" in given:
        text = given["dims"]
        try:
            given["dims"] = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise ValidationError(f"dims must be comma-separated integers, got {text!r}") from exc
    if isinstance(given.get("conditions"), str):
        given["conditions"] = [p.strip() for p in given["conditions"].split(",") if p.strip()]
    return HarnessConfig(**given)


def _check_out_path(path):
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ValidationError(f"output directory does not exist: {parent}")


def _load_config_file(path):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    for key, value in doc.items():
        if key not in _CONFIG_KEYS:
            raise ValidationError(
                f"{path}: unknown config key {key!r}; valid: {','.join(_CONFIG_KEYS)}"
            )
        kinds = _CONFIG_KEYS[key][0]
        if isinstance(value, bool) or not isinstance(value, kinds):
            expected = " or ".join(k.__name__ for k in kinds)
            raise ValidationError(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
    return doc


def _score_paths(ref_path, alt_path, sides):
    """Scores of the dumps at two paths. Each built (dims, subspace) is kept in
    sides by resolved path, so an alt that resolves to its ref, or a dump a
    later call names, reuses it. A dump not in sides is built in the role its
    path has in this pair, so its error names that role; a side that fails is
    not kept, and its error is raised, as in seis(), after the dims check."""
    paths = (ref_path, alt_path)
    keys = [os.path.realpath(p) for p in paths]
    failed = {}
    for path, key, role in zip(paths, keys, ("reference", "alternate")):
        if key not in sides and key not in failed:
            t = read_tensor(path)
            dims, m = t.shape, matricize(t)
            del t  # the dump goes before its side is built, and its matrix after
            try:
                sides[key] = dims, metrics._side_subspace(role, m)
            except SeisError as exc:
                failed[key] = dims, type(exc)(f"{path}: {exc}")
            del m
    (ref_dims, ref), (alt_dims, alt) = (sides.get(key) or failed[key] for key in keys)
    metrics._same_dims(ref_dims, alt_dims)
    for side in (ref, alt):
        if isinstance(side, SeisError):
            raise side
    return metrics._score(ref, alt)


def cmd_score(args) -> int:
    scores = _score_paths(args.ref, args.alt, {})
    print(
        f"s_equiv={scores.s_equiv:.6f} s_inv={scores.s_inv:.6f} "
        f"k_a={scores.k_a} k_a_prime={scores.k_a_prime} r={scores.r}"
    )
    return 0


def cmd_synth(args) -> int:
    flags = {key: value for key, value in vars(args).items() if value is not None}
    settings = {**(_load_config_file(args.config) if args.config else {}), **flags}
    cfg = _harness_config(settings)
    out = settings.get("out")
    fmt = settings.get("format", RESULT_FORMATS[0])
    if out is None:
        raise ValidationError("synth requires --out (or 'out' in the config file)")
    if fmt not in RESULT_FORMATS:
        raise ValidationError(f"unknown result format {fmt!r}, expected one of {RESULT_FORMATS}")
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
    entries = load_manifest(args.manifest)
    _check_out_path(args.out)
    # relative tensor paths are relative to the manifest's own directory
    base = Path(args.manifest).parent
    paths = [(base / e.ref_path, base / e.alt_path) for e in entries]
    # a built side is kept, keyed by resolved path, while a later entry names it
    last = {os.path.realpath(p): i for i, pair in enumerate(paths) for p in pair}
    sides = {}
    rows = []
    failures = 0
    for i, (entry, pair) in enumerate(zip(entries, paths)):
        try:
            scores = _score_paths(*pair, sides)
        except (SeisError, OSError) as exc:
            logger.warning("skipping entry %r: %s", entry.label, exc)
            failures += 1
        else:
            rows.append(ResultRow.of(entry.label, "manifest", 0, 0, scores))
        for key in map(os.path.realpath, pair):
            if last[key] == i:
                sides.pop(key, None)
    write_results(rows, args.out, format=args.format)
    if failures and not rows:
        logger.warning("all %d manifest entries failed", failures)
        return 1
    if failures:
        return 2
    return 0


def cmd_gen(args) -> int:
    cfg = _harness_config(vars(args))
    kind = None if args.warp is None else ConditionKind(args.warp)
    _check_out_path(args.out)
    ref = gen_synthetic_activations(cfg, make_stream(cfg.master_seed, 0, ROLE_REFERENCE))
    # build every tensor before writing any, so a failed warp leaves no file
    tensors = [(args.out, ref)]
    if kind is not None:
        warp_seed = cfg.master_seed if args.warp_seed is None else args.warp_seed
        try:
            rng = make_stream(warp_seed, 0, ROLE_ALTERNATE)
        except ValidationError as exc:
            raise ValidationError(f"--warp-seed: {exc}") from exc
        alt = make_alternate(cfg, matricize(ref), kind, rng)
        out = Path(args.out)
        # the (b, c, h, w) tensor view of the (h*w, b*c) spatial matrix
        tensors.append((out.with_name(out.stem + "_alt" + out.suffix), alt.T.reshape(cfg.dims)))
    for path, t in tensors:
        write_tensor(t, path)
        logger.info("wrote %s with dims %s", path, cfg.dims)
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
    p_synth.add_argument("--format", choices=RESULT_FORMATS, default=None)
    p_synth.add_argument("--config", default=None,
                         help="optional JSON config file; flags override it")
    p_synth.set_defaults(func=cmd_synth)

    p_layers = sub.add_parser("layers", help="score every pair in a manifest")
    p_layers.add_argument("--manifest", required=True, help="JSON manifest path")
    p_layers.add_argument("--out", required=True, help="result table path")
    p_layers.add_argument("--format", choices=RESULT_FORMATS, default=RESULT_FORMATS[0])
    p_layers.set_defaults(func=cmd_layers)

    p_gen = sub.add_parser("gen", help="write a synthetic activation tensor")
    p_gen.add_argument("--dims", default=None, help="tensor dims as B,C,H,W")
    p_gen.add_argument("--smoothness", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
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
