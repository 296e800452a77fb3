"""Input generator for the `pair` and `layers` workloads.

Runs as its own process so that its allocations never count towards the
peak resident set of the process that runs the timed phase. It uses only
numpy and scipy, never the package under test, so the inputs (and the
golden rows scored from them) do not move when the package changes.

    python3 perfbench/gen.py --workload pair --seed 0 --size full --out DIR

Writes into DIR:
  pair:   pair-<i>_ref.npy / pair-<i>_alt.npy (float64) and pool.json
  layers: <label>_ref.npy / <label>_alt.npy (float32), manifest.json with
          absolute paths, and warmup.json (a one-entry manifest)
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy import ndimage, sparse

SMOOTHNESS = 2.0  # Gaussian field length-scale in pixels

# Pool of the `pair` workload: (slot kind, rotation degrees, tx, ty), with
# translations as fractions of the width/height. Warp parameters are fixed
# so that only the noise realisation depends on the seed.
PAIR_POOL = (
    ("identity", 0.0, 0.0, 0.0),
    ("identity", 0.0, 0.0, 0.0),
    ("warp", 15.0, 0.05, -0.03),
    ("warp", 30.0, -0.08, 0.06),
    ("warp", 90.0, 0.0, 0.0),
    ("warp", 200.0, 0.1, 0.1),
    ("independent", 0.0, 0.0, 0.0),
    ("independent", 0.0, 0.0, 0.0),
)

# One fixed rotation plus translation for every `layers` entry.
LAYERS_WARP = (20.0, 0.08, -0.05)

SIZES = {
    "full": {
        "pair": (8, 64, 28, 28),
        # a CNN depth profile at batch 32; the first entry has d > n
        "layers": (
            ("conv2", (32, 64, 56, 56)),
            ("conv3", (32, 128, 28, 28)),
            ("conv4", (32, 256, 14, 14)),
            ("conv5", (32, 512, 7, 7)),
        ),
    },
    "smoke": {
        "pair": (2, 8, 10, 10),
        "layers": (("conv2", (2, 8, 12, 12)), ("conv3", (2, 16, 6, 6))),
    },
}

WORKLOAD_TAGS = {"pair": 1, "layers": 2}


def smooth_field(rng, dims):
    """Gaussian-blurred white noise, each (b, c) slice standardised."""
    x = rng.standard_normal(dims)
    x = ndimage.gaussian_filter(x, sigma=(0.0, 0.0, SMOOTHNESS, SMOOTHNESS))
    x -= x.mean(axis=(2, 3), keepdims=True)
    x /= x.std(axis=(2, 3), keepdims=True)
    return x


def warp_operator(h, w, angle_deg, tx, ty):
    """Sparse (h*w, h*w) bilinear resampling operator of a rotation + shift.

    Output cell q samples the source at R^-1 (q - c - t) + c, with c the
    grid centre; neighbours outside the grid contribute zero.
    """
    th = np.deg2rad(angle_deg)
    cos, sin = np.cos(th), np.sin(th)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    dy = yy.ravel() - cy - ty * h
    dx = xx.ravel() - cx - tx * w
    sy = cos * dy - sin * dx + cy
    sx = sin * dy + cos * dx + cx
    y0 = np.floor(sy)
    x0 = np.floor(sx)
    fy = sy - y0
    fx = sx - x0
    rows, cols, vals = [], [], []
    out = np.arange(h * w)
    for oy, ox, wt in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                       (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
        py = y0 + oy
        px = x0 + ox
        ok = (py >= 0) & (py < h) & (px >= 0) & (px < w) & (wt > 0)
        rows.append(out[ok])
        cols.append((py[ok] * w + px[ok]).astype(np.int64))
        vals.append(wt[ok])
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(h * w, h * w),
    )


def warp(x, angle_deg, tx, ty):
    b, c, h, w = x.shape
    op = warp_operator(h, w, angle_deg, tx, ty)
    flat = x.reshape(b * c, h * w)
    return np.ascontiguousarray((op @ flat.T).T).reshape(b, c, h, w)


def gen_pair(seed, size, out):
    dims = SIZES[size]["pair"]
    pool = []
    for slot, (kind, angle, tx, ty) in enumerate(PAIR_POOL):
        rng = np.random.default_rng([seed, WORKLOAD_TAGS["pair"], slot])
        ref = smooth_field(rng, dims)
        if kind == "identity":
            alt = ref.copy()
        elif kind == "warp":
            alt = warp(ref, angle, tx, ty)
        else:
            alt = smooth_field(rng, dims)
        key = f"pair-{slot}"
        np.save(out / f"{key}_ref.npy", ref)
        np.save(out / f"{key}_alt.npy", alt)
        pool.append({"key": key, "kind": kind})
    (out / "pool.json").write_text(json.dumps(pool, indent=1) + "\n")


def gen_layers(seed, size, out):
    entries = []
    for i, (label, dims) in enumerate(SIZES[size]["layers"]):
        rng = np.random.default_rng([seed, WORKLOAD_TAGS["layers"], i])
        ref = smooth_field(rng, dims)
        alt = warp(ref, *LAYERS_WARP)
        paths = {}
        for side, arr in (("ref", ref), ("alt", alt)):
            path = (out / f"{label}_{side}.npy").resolve()
            np.save(path, arr.astype(np.float32))
            paths[side] = str(path)
        entries.append({"label": label, **paths})
    manifest = {"entries": entries, "metadata": {"transform": "rotation+translation"}}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    warmup = {"entries": entries[-1:]}
    (out / "warmup.json").write_text(json.dumps(warmup, indent=1) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("pair", "layers"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (gen_pair if args.workload == "pair" else gen_layers)(args.seed, args.size, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
