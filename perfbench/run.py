"""Closed-loop benchmark of the seis package, built from the checkout's src/.

    python3 perfbench/run.py --workload suite|layers|pair --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # every workload at minimal size
    python3 perfbench/run.py --write-golden   # refresh perfbench/golden.json

One caller issues each call after the previous one returns, with the BLAS
thread count pinned to the CPUs this process may use. Workloads:

  suite   seis.harness.run_validation_suite at the default dims, all six
          conditions, one trial per call, cycling over three master seeds
          derived from --seed; 6 scored pairs per call.
  layers  seis.cli.main(["layers", ...]) in-process over a 4-entry
          manifest of float32 NPY files (a CNN depth profile at batch 32,
          every alternate one fixed rotation plus translation); 4 pairs
          per call.
  pair    seis.metrics.seis over a pool of eight in-memory (8,64,28,28)
          pairs: identity, warped and independent; 1 pair per call.

Inputs of `pair` and `layers` come from perfbench/gen.py, run as a child
process so its allocations do not set the peak resident set reported here.

End-to-end metrics (--trace 0):
  pairs_per_s   scored pairs per second of time spent inside calls
  pair_ms_p50   median over calls of call time / pairs in the call
  setup_s       start of this script to the end of the imports, plus the
                median over SETUP_REPS repetitions of input generation,
                loading and warm-up
  peak_rss_mb   peak resident set of this process (getrusage)

Per-layer metrics (--trace 1) come from a run that alternates untraced and
traced calls: spans (see spans.py) give self time in ms per scored pair,
call tallies per pair and computed counts (flops, bytes read), and the
untraced calls give trace.overhead_pct. A child run of `pair` with one BLAS
thread gives env.pair_ms_p50_1thread, reported and never gated.

Every scored pair passes a correctness gate: scores in [0, 1],
r = min(k_a, k_a_prime), identity pairs s_equiv >= 0.999 and s_inv >= 0.99,
the same result on every call with the same input, and for the default seed
agreement with perfbench/golden.json (1e-8 on the scores, exact on
k_a, k_a_prime and r). Rows, the environment record and the spans are
written under .perfbench/out/; the last stdout line is the JSON result.
"""

import argparse
import contextlib
import ctypes
import json
import os
import sys
import time

T0 = time.perf_counter()

from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
SETUP_REPS = 3
BASELINE_SECONDS = 3
GOLDEN_TOL = 1e-8
IDENTITY_EQUIV_FLOOR = 0.999
IDENTITY_INV_FLOOR = 0.99
WORKLOAD_NAMES = ("suite", "layers", "pair")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="seis benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS threads (default: CPUs available to this process)")
    p.add_argument("--smoke", action="store_true", help="run the smoke checks")
    p.add_argument("--write-golden", action="store_true",
                   help="score the default-seed inputs once and rewrite golden.json")
    args = p.parse_args(argv)
    if not (args.smoke or args.write_golden or args.workload):
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


ARGS = parse_args() if __name__ == "__main__" else None
NPROC = len(os.sched_getaffinity(0))
THREADS = min(NPROC, ARGS.threads) if ARGS and ARGS.threads else NPROC
# must happen before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import csv  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
try:
    import seis.cli  # noqa: E402
    import seis.harness  # noqa: E402
    import seis.metrics  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import seis from {ROOT / 'src'}: {exc}")
if Path(seis.__file__).resolve().parent != ROOT / "src" / "seis":
    sys.exit(f"perfbench: imported seis from {seis.__file__}, not from {ROOT / 'src'}")

sys.path.insert(0, str(BENCH))
from spans import TARGETS, Tracer  # noqa: E402

T_IMPORTED = time.perf_counter()


def run_gen(workload, seed, size, out):
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--size", size, "--out", str(out)],
        check=True, timeout=170,
    )


def score_row(key, identity, s):
    return {"key": key, "identity": identity, "s_equiv": float(s.s_equiv),
            "s_inv": float(s.s_inv), "k_a": int(s.k_a),
            "k_a_prime": int(s.k_a_prime), "r": int(s.r)}


class Pair:
    """In-memory seis() calls cycling over a pool of generated pairs."""

    pairs_per_call = 1

    def __init__(self, seed, size, work):
        self.seed, self.size, self.work = seed, size, work
        self.pool = []

    @property
    def cycle(self):
        return len(self.pool)

    def setup(self):
        run_gen("pair", self.seed, self.size, self.work)
        self.pool = [
            (e["key"], e["kind"] == "identity",
             np.load(self.work / f"{e['key']}_ref.npy"), np.load(self.work / f"{e['key']}_alt.npy"))
            for e in json.loads((self.work / "pool.json").read_text())
        ]

    def warmup(self):
        return [(i, self.call(i)) for i in range(self.cycle)]

    def call(self, i):
        _, _, ref, alt = self.pool[i % len(self.pool)]
        try:
            return seis.metrics.seis(ref, alt)
        except Exception as exc:  # a raising pair is a failed pair
            return exc

    def rows(self, i, out):
        key, identity, _, _ = self.pool[i % len(self.pool)]
        if isinstance(out, Exception):
            return [], [f"{key}: {type(out).__name__}: {out}"]
        return [score_row(key, identity, out)], []


class Suite:
    """The harness's validation suite, one trial per call."""

    seeds_in_pool = 3

    def __init__(self, seed, size, work):
        dims = seis.harness.DEFAULT_DIMS if size == "full" else (4, 8, 12, 12)
        masters = np.random.SeedSequence([seed, 3]).generate_state(self.seeds_in_pool, np.uint64)
        self.configs = [seis.harness.HarnessConfig(dims=dims, trials=1, master_seed=int(m))
                        for m in masters]
        self.pairs_per_call = len(self.configs[0].conditions)
        self.cycle = len(self.configs)

    def setup(self):
        pass

    def warmup(self):
        return [(0, self.call(0))]

    def call(self, i):
        try:
            return seis.harness.run_validation_suite(self.configs[i % self.cycle])
        except Exception as exc:
            return exc

    def rows(self, i, out):
        if isinstance(out, Exception):
            return [], [f"call {i}: {type(out).__name__}: {out}"] * self.pairs_per_call
        rows = [score_row(f"{r.condition}/{r.seed}/{r.trial}", r.condition == "identity", r)
                for r in out[1]]
        missing = self.pairs_per_call - len(rows)
        return rows, [f"call {i}: {missing} rows missing"] * max(missing, 0)


class Layers:
    """The `layers` subcommand in-process over a manifest of NPY dumps."""

    cycle = 1

    def __init__(self, seed, size, work):
        self.seed, self.size, self.work = seed, size, work
        self.pairs_per_call = 0

    def setup(self):
        run_gen("layers", self.seed, self.size, self.work)
        manifest = json.loads((self.work / "manifest.json").read_text())
        self.labels = [e["label"] for e in manifest["entries"]]
        self.pairs_per_call = len(self.labels)

    def _cli(self, manifest, out_csv):
        try:
            code = seis.cli.main(["layers", "--manifest", str(manifest), "--out", str(out_csv)])
        except Exception as exc:
            return exc, out_csv
        return code, out_csv

    def warmup(self):
        out = self._cli(self.work / "warmup.json", self.work / "warmup.csv")
        return [("warmup", out)]

    def call(self, i):
        return self._cli(self.work / "manifest.json", self.work / "rows.csv")

    def rows(self, i, out):
        code, out_csv = out
        expected = self.labels[-1:] if i == "warmup" else self.labels
        if isinstance(code, Exception):
            return [], [f"layers: {type(code).__name__}: {code}"] * len(expected)
        rows = []
        if out_csv.exists():
            with open(out_csv, newline="", encoding="utf-8") as fh:
                rows = [{"key": r["label"], "identity": False, "s_equiv": float(r["s_equiv"]),
                         "s_inv": float(r["s_inv"]), "k_a": int(r["k_a"]),
                         "k_a_prime": int(r["k_a_prime"]), "r": int(r["r"])}
                        for r in csv.DictReader(fh)]
            out_csv.unlink()  # so a call that writes nothing cannot pass on stale rows
        if code != 0:
            return rows, [f"layers exited {code}"] * len(expected)
        missing = len(expected) - len(rows)
        return rows, [f"layers: {missing} rows missing"] * max(missing, 0)


WORKLOADS = {"suite": Suite, "layers": Layers, "pair": Pair}


class Gate:
    """Correctness checks on every scored row; counts attempts and failures."""

    def __init__(self, golden):
        self.golden = golden  # {key: row} or None when the seed has no golden rows
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def problems(self, row):
        out = []
        if not (0.0 <= row["s_equiv"] <= 1.0 and 0.0 <= row["s_inv"] <= 1.0):
            out.append("score outside [0, 1]")
        if row["r"] != min(row["k_a"], row["k_a_prime"]):
            out.append("r != min(k_a, k_a_prime)")
        if row["identity"] and (row["s_equiv"] < IDENTITY_EQUIV_FLOOR
                                or row["s_inv"] < IDENTITY_INV_FLOOR):
            out.append("identity pair below the identity floors")
        first = self.first.setdefault(row["key"], row)
        if first != row:
            out.append("differs from an earlier call on the same input")
        if self.golden is not None:
            g = self.golden.get(row["key"])
            if g is None:
                out.append("no golden row")
            elif (abs(g["s_equiv"] - row["s_equiv"]) > GOLDEN_TOL
                  or abs(g["s_inv"] - row["s_inv"]) > GOLDEN_TOL
                  or any(g[k] != row[k] for k in ("k_a", "k_a_prime", "r"))):
                out.append(f"differs from golden {g}")
        return out

    def add(self, rows, errors, expected):
        """Gate one call's rows; `errors` name pairs that raised or are missing."""
        attempted = max(expected, len(rows))
        failed = len(errors)
        self.failures.extend(errors)
        for row in rows:
            bad = self.problems(row)
            if bad:
                failed += 1
                self.failures.append(f"{row['key']}: {'; '.join(bad)}")
        self.attempted += attempted
        self.failed += min(failed, attempted)


def load_golden(size, workload):
    data = json.loads((BENCH / "golden.json").read_text())
    return {r["key"]: r for r in data[size][workload]}


def blas_record():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads_pinned": THREADS}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    record["threads_runtime"] = int(fn())
                    return record
    except OSError:
        pass
    return record


def env_record():
    return {
        "nproc": NPROC,
        "blas": blas_record(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def single_thread_baseline(args):
    """pair_ms_p50 of a child run of `pair` with one BLAS thread."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", "pair",
         "--seed", str(args.seed), "--seconds", str(BASELINE_SECONDS), "--trace", "0",
         "--size", args.size, "--threads", "1"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["pair_ms_p50"]["value"]


def layer_metrics(tracer, traced_pairs, traced_s, untraced_pairs, untraced_s, rows):
    summ = tracer.summary()
    per = 1.0 / traced_pairs

    def agg(name):
        return summ.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "measures": {}})

    def self_ms(name):
        return agg(name)["self_s"] * 1e3 * per

    def calls(name):
        return agg(name)["calls"] * per

    def measure(name, key):
        return agg(name)["measures"].get(key, 0.0)

    eigh = agg("linalg.eigh")
    ks = [k for r in rows for k in (r["k_a"], r["k_a_prime"])]
    m = {}
    for name in ("harness.gen_synthetic_activations", "harness.make_alternate",
                 "transforms.apply_affine", "linalg.spatial_subspace", "linalg.eigh",
                 "linalg.cca", "linalg.row_cosines", "metrics.equivariance_score",
                 "metrics.invariance_score", "tensor_io.read_tensor",
                 "tensor_io.validate_tensor", "matricize.matricize", "matricize.center_rows",
                 "tensor_io.load_manifest", "tensor_io.write_results"):
        m[f"{name}.ms"] = (self_ms(name), "ms/pair")
    for name in ("harness.gen_synthetic_activations", "transforms.apply_affine",
                 "linalg.spatial_subspace", "tensor_io.validate_tensor"):
        m[f"{name}.calls"] = (calls(name), "calls/pair")
    m["harness.run_validation_suite.self_ms"] = (self_ms("harness.run_validation_suite"), "ms/pair")
    m["cli.main.self_ms"] = (self_ms("cli.main"), "ms/pair")
    m["metrics.seis.ms"] = (agg("metrics.seis")["total_s"] * 1e3 * per, "ms/pair")
    m["linalg.eigh.n"] = (measure("linalg.eigh", "n") / eigh["calls"] if eigh["calls"] else 0.0,
                          "order")
    m["linalg.gram.gflop"] = (measure("linalg.spatial_subspace", "gram_flop") * 1e-9 * per,
                              "GFLOP/pair")
    m["linalg.eigh.gflop"] = (measure("linalg.eigh", "eigh_flop") * 1e-9 * per, "GFLOP/pair")
    m["linalg.k"] = (statistics.fmean(ks) if ks else 0.0, "count")
    m["tensor_io.read_tensor.mb"] = (measure("tensor_io.read_tensor", "bytes") / 1e6 * per,
                                     "MB/pair")
    untraced_rate = untraced_pairs / untraced_s
    traced_rate = traced_pairs / traced_s
    m["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1.0) * 100.0, "%")
    return m


def run_workload(args):
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench" / "out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(args, work, out_dir):
    wl = WORKLOADS[args.workload](args.seed, args.size, work)
    gate = Gate(load_golden(args.size, args.workload) if args.seed == DEFAULT_SEED else None)
    rep_s = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl.setup()
        warm = wl.warmup()
        rep_s.append(time.perf_counter() - t)
        for i, out in warm:
            rows, errors = wl.rows(i, out)
            gate.add(rows, errors, len(rows) + len(errors))
    setup_s = (T_IMPORTED - T0) + statistics.median(rep_s)

    tracer = Tracer() if args.trace else None
    durations = {False: [], True: []}
    traced_rows = []
    i = 0
    while (sum(durations[False]) + sum(durations[True]) < args.seconds
           or len(durations[False]) < 2 or (tracer and not durations[True])):
        traced = tracer is not None and i % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            t = time.perf_counter()
            out = wl.call(i)
            dt = time.perf_counter() - t
        durations[traced].append(dt)
        rows, errors = wl.rows(i, out)
        gate.add(rows, errors, wl.pairs_per_call)
        if traced:
            traced_rows.extend(rows)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ppc = wl.pairs_per_call
    untraced = durations[False]
    e2e = {
        "pairs_per_s": (len(untraced) * ppc / sum(untraced), "1/s"),
        "pair_ms_p50": (statistics.median(d * 1e3 / ppc for d in untraced), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = []
    if tracer is not None:
        traced_n = len(durations[True]) * ppc
        reported = layer_metrics(tracer, traced_n, sum(durations[True]),
                                 len(untraced) * ppc, sum(untraced), traced_rows)
        baseline = single_thread_baseline(args)
        if baseline is None:
            notes.append("single-thread baseline run failed")
        reported["env.pair_ms_p50_1thread"] = (baseline or 0.0, "ms")
        notes.extend(tracer.notes)
    else:
        reported = e2e

    failed = gate.failed
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-threads{THREADS}"
    env = env_record()
    distinct = sorted(gate.first.values(), key=lambda r: r["key"])
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "call_s": {"untraced": untraced, "traced": durations[True]},
        "pairs_per_call": ppc, "setup_reps_s": rep_s, "import_s": T_IMPORTED - T0,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "fail_ratio": failed / gate.attempted, "failures": gate.failures[:50],
        "golden_checked": gate.golden is not None, "notes": notes, "rows": distinct,
    }
    if tracer is not None:
        record["per_layer"] = {k: v for k, (v, _) in reported.items()}
        record["spans"] = tracer.summary()
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for row in distinct:
        print("row " + json.dumps(row))
    for note in notes:
        print("note " + note)
    for msg in gate.failures[:20]:
        print("FAIL " + msg, file=sys.stderr)
    for name, (value, unit) in {**e2e, **reported}.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric fail_ratio {failed}/{gate.attempted} pairs")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


def write_golden():
    golden = {"seed": DEFAULT_SEED}
    for size in ("full", "smoke"):
        golden[size] = {}
        for name, cls in WORKLOADS.items():
            work = ROOT / ".perfbench" / "work" / f"golden-{name}-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                wl = cls(DEFAULT_SEED, size, work)
                wl.setup()
                gate = Gate(None)
                for i in range(wl.cycle):
                    rows, errors = wl.rows(i, wl.call(i))
                    gate.add(rows, errors, wl.pairs_per_call)
                if gate.failures:
                    sys.exit(f"golden {size}/{name}: {gate.failures}")
                golden[size][name] = sorted(gate.first.values(), key=lambda r: r["key"])
            finally:
                shutil.rmtree(work, ignore_errors=True)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def smoke():
    """Each workload at minimal size in both modes: output schema, a clean
    gate, a perturbed golden value that the gate must report, and a trace
    target that no longer exists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
                 "--size", "smoke"],
                capture_output=True, text=True, timeout=170,
            )
            tag = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: gate failed: {proc.stderr[-500:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics {got} != {wanted[trace]}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{tag}: non-numeric metric value")
        golden = load_golden("smoke", name)
        key, row = sorted(golden.items())[0]
        gate = Gate({**golden, key: {**row, "s_equiv": row["s_equiv"] + 10 * GOLDEN_TOL}})
        gate.add([dict(row)], [], 1)
        if not gate.failures:
            problems.append(f"{name}: perturbed golden value not reported")
    # a wrapped name that a later change deletes is skipped with a note
    tracer = Tracer(TARGETS + (("seis.linalg", "deleted_helper", "linalg.deleted", None, None),))
    if not any("seis.linalg.deleted_helper" in note for note in tracer.notes):
        problems.append("missing trace target not reported as a note")
    for msg in problems:
        print("smoke FAIL " + msg)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    if ARGS.smoke:
        sys.exit(smoke())
    if ARGS.write_golden:
        sys.exit(write_golden())
    sys.exit(run_workload(ARGS))
