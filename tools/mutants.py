"""One-line mutants of seis, each run against the tests that must kill it.

Each row of MUTANTS names a file under the repository root, one exact line
of it (indentation included), the line that replaces it, and the pytest
arguments that must then fail. For each row the runner copies src/, tests/
and pyproject.toml into a temporary directory, replaces the first line equal
to the old one, and runs `python -m pytest -x -q <selection>` there with
PYTHONPATH on the copy's src/. A mutant is killed when pytest fails and
survives when it passes. It is stale when its old line no longer exists, and
a stale mutant does not count as killed. Every selection first runs once on
an unmutated copy, which must pass, so a kill is the mutant's doing.

    python tools/mutants.py              # every row
    python tools/mutants.py -k linalg    # rows whose name contains "linalg"

Prints each survivor and stale row, then the counts and the wall time; exits
0 only when every row it ran was killed. A change to src/seis reruns it, and
a new constant or guard gets a row of its own.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CLI_TESTS = "tests/test_cli.py"
BAD_INPUT = f"{CLI_TESTS}::TestBadInput::test_exit_1_one_line_writes_nothing"
EIGH_TESTS = "tests/test_linalg.py::TestInPlaceEigh"
SWEEP = f"{EIGH_TESTS}::test_bound_stages_have_dsyevd_bits_at_every_switch"
PARTIAL_TESTS = "tests/test_linalg.py::TestPartialGramSolve"
DSYEVD_BITS = f"{PARTIAL_TESTS}::test_order_1024_keeps_dsyevd_bits"
FALLBACK = f"{PARTIAL_TESTS}::test_failed_dstemr_falls_back_to_dsyevd_bits"

# (name, file, old line, new line, pytest selection)
MUTANTS = [
    ("cli.main catches no MemoryError", "src/seis/cli.py",
     "    except (SeisError, OSError, MemoryError) as exc:",
     "    except (SeisError, OSError) as exc:",
     (f"{CLI_TESTS}::TestGen::test_allocation_that_cannot_be_made_exit_1_writes_nothing",)),
    ("tensor_io.read_tensor without its stat check", "src/seis/tensor_io.py",
     "        if stat.S_IFMT(os.stat(os.fspath(path)).st_mode) not in (stat.S_IFREG, stat.S_IFDIR):",
     "        if False:",
     ("tests/test_tensor_io.py::TestReadWriteTensor::test_pipe_is_format_error_naming_path",)),
    ("cli.cmd_gen writes the reference before building the warp", "src/seis/cli.py",
     "    tensors = [(args.out, ref)]",
     "    tensors = [(args.out, ref)]; write_tensor(ref, args.out)",
     (f"{CLI_TESTS}::TestGen::test_failed_warp_writes_nothing",)),
    ("metrics.Side names a non-finite index in matrix order", "src/seis/metrics.py",
     "                _reject_nonfinite(matrix.T)  # matrix.T's C order is the tensor's",
     "                _reject_nonfinite(matrix)",
     (f"{BAD_INPUT}[score-inf-reference]",)),
    ("harness.HarnessConfig without the one-cell-grid check", "src/seis/harness.py",
     "        if dims[2] * dims[3] < 2:",
     "        if False:",
     (f"{BAD_INPUT}[synth-one-cell-grid]", f"{BAD_INPUT}[gen-one-cell-grid]")),
    ("cli logger named __name__", "src/seis/cli.py",
     'logger = logging.getLogger("seis.cli")',
     "logger = logging.getLogger(__name__)",
     (f"{CLI_TESTS}::TestLayers::test_module_run_logs_as_seis_cli",)),
    ("pyproject's seis script is build_parser", "pyproject.toml",
     'seis = "seis.cli:main"',
     'seis = "seis.cli:build_parser"',
     ("tests/test_imports.py::test_console_script_is_cli_main",)),
    ("cli.cmd_score prints k_a and k_a_prime swapped", "src/seis/cli.py",
     '        f"k_a={scores.k_a} k_a_prime={scores.k_a_prime} r={scores.r}"',
     '        f"k_a={scores.k_a_prime} k_a_prime={scores.k_a} r={scores.r}"',
     (f"{CLI_TESTS}::TestLayersReuse::test_rows_match_per_entry_seis_with_one_subspace_per_dump",)),
    ("metrics._role_errors warns on invalid values", "src/seis/metrics.py",
     '    with np.errstate(over="ignore", invalid="ignore"):',
     '    with np.errstate(over="ignore"):',
     (f"{BAD_INPUT}[score-inf-and-minus-inf-in-one-cell]",)),
    ("linalg._eigh's gufunc solves a copy", "src/seis/linalg.py",
     '            w, v = _umath_linalg.eigh_lo(a, out=(w, a), signature="d->dd")',
     '            w, v = _umath_linalg.eigh_lo(a, out=(w, a.copy()), signature="d->dd")',
     (f"{EIGH_TESTS}::test_bits_of_np_linalg_eigh_over_the_gram",)),
    ("linalg._eigh reduces the upper triangle", "src/seis/linalg.py",
     '    _lapack(failure, "dsytrd", b"L", n, a, n, w, e, tau, work, work.size)',
     '    _lapack(failure, "dsytrd", b"U", n, a, n, w, e, tau, work, work.size)',
     (SWEEP,)),
    ("linalg._lapack ignores info", "src/seis/linalg.py",
     "    if info.value:",
     "    if False:",
     (f"{EIGH_TESTS}::test_nonconvergence_raises_naming_the_role",)),
    ("linalg._whitener without its finiteness check", "src/seis/linalg.py",
     "    if not np.isfinite(c).all():",
     "    if False:",
     ("tests/test_linalg.py::TestCcaGuards::test_overflowing_covariance_raises",)),
    ("cli.cmd_layers writes before its all-failed check", "src/seis/cli.py",
     '        logger.warning("all %d manifest entries failed", failures)',
     '        write_results(rows, args.out, format=args.format); '
     'logger.warning("all %d manifest entries failed", failures)',
     (f"{BAD_INPUT}[layers-nan-reference]",)),
    ("linalg binds a renamed symbol", "src/seis/linalg.py",
     '        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in signatures}',
     '        routines = {name: getattr(lib, f"scipy_{name}_64") for name in signatures}',
     (f"{EIGH_TESTS}::test_bound_whenever_numpy_links_scipy_openblas",)),
    ("linalg dormtr gets its own query's lwork", "src/seis/linalg.py",
     '    _lapack(failure, "dormtr", b"L", b"L", b"N", n, n, work, n, tau, a, n, '
     'work[n * n:], lwork)',
     '    _lapack(failure, "dormtr", b"L", b"L", b"N", n, n, work, n, tau, a, n, '
     'work[n * n:], 32 * n)',
     (SWEEP,)),
    ("linalg's dtrttp packs one reflector short", "src/seis/linalg.py",
     '    _lapack(failure, "dtrttp", b"L", max(n - 2, 0), a.reshape(-1)[2:], n, packed)',
     '    _lapack(failure, "dtrttp", b"L", max(n - 3, 0), a.reshape(-1)[2:], n, packed)',
     (SWEEP,)),
    ("linalg's dtpttr unpacks one double late", "src/seis/linalg.py",
     '    _lapack(failure, "dtpttr", b"L", max(n - 2, 0), packed, work[2:], n)',
     '    _lapack(failure, "dtpttr", b"L", max(n - 2, 0), packed, work[3:], n)',
     (SWEEP,)),
    ("linalg.cca without its whitened finiteness check", "src/seis/linalg.py",
     "    if not np.all(np.isfinite(whitened)):",
     "    if False:",
     ("tests/test_linalg.py::TestCcaGuards::test_overflowing_whitened_cross_covariance_raises",)),
    ("tensor_io.read_tensor maps without its warnings lock", "src/seis/tensor_io.py",
     '        with _WARNINGS_LOCK, warnings.catch_warnings(record=True, action="always") as caught:',
     '        with warnings.catch_warnings(record=True, action="always") as caught:',
     ("tests/test_tensor_io.py::TestReadWriteTensor::"
      "test_concurrent_reads_log_their_own_warnings_and_restore_filters",)),
    ("cli._check_out_path takes a directory for a file", "src/seis/cli.py",
     '    if os.path.basename(path) in ("", ".", "..") or os.path.isdir(path):',
     '    if os.path.basename(path) in ("", ".", ".."):',
     tuple(f"{BAD_INPUT}[{command}-out-directory]" for command in ("synth", "layers", "gen"))),
    ("cli._check_out_path takes a path that ends in a separator", "src/seis/cli.py",
     '    if os.path.basename(path) in ("", ".", "..") or os.path.isdir(path):',
     "    if os.path.isdir(path):",
     tuple(f"{BAD_INPUT}[{command}-out-{case}]" for command in ("synth", "layers", "gen")
           for case in ("empty", "trailing-separator"))),
    ("harness._gaussian_taps squares a sigma of radius 0", "src/seis/harness.py",
     "    if r == 0:",
     "    if False:",
     ("tests/test_harness.py::TestSyntheticFields::test_smoothness_at_ndimage_floor[1e-300]",)),
    ("linalg.spatial_subspace without its power-of-two scaling", "src/seis/linalg.py",
     "    np.ldexp(centered, -np.frexp(peak)[1], out=centered)",
     "    pass",
     ("tests/test_properties.py::"
      "test_every_eigensolve_input_lies_where_dsyevd_does_not_rescale",)),
    ("linalg._gram_eigh without its order gate", "src/seis/linalg.py",
     "    if _LAPACK is None or n <= PARTIAL_SOLVE_ORDER:",
     "    if _LAPACK is None:",
     tuple(f"{DSYEVD_BITS}[{route}-1024-smooth]" for route in ("tall", "wide"))),
    ("linalg._gram_eigh hands dstemr the tridiagonal, not copies", "src/seis/linalg.py",
     '        _lapack(failure, "dstemr", b"V", b"I", n, w.copy(), e.copy(), vl_vu, vl_vu,',
     '        _lapack(failure, "dstemr", b"V", b"I", n, w, e, vl_vu, vl_vu,',
     (FALLBACK,)),
    ("linalg._gram_eigh raises on dstemr's failure", "src/seis/linalg.py",
     "    except NumericalError:",
     "    except ValueError:",
     (FALLBACK,)),
    ("linalg.spatial_subspace keeps the Gram alive through the lift", "src/seis/linalg.py",
     "    del gram  # a partial solve's vectors hold no reference to it, and the lift comes next",
     "    pass",
     (f"{EIGH_TESTS}::test_tall_side_holds_one_gram[2200-1100-150]",)),
    ("linalg._gram_eigh takes a non-finite spectrum", "src/seis/linalg.py",
     "    k, _ = _truncation_rank(_singular_values(_finite(lam, failure)))",
     "    k, _ = _truncation_rank(_singular_values(lam))",
     (f"{PARTIAL_TESTS}::test_non_finite_spectrum_raises",)),
    ("cli.cmd_gen checks only --out, not its companion", "src/seis/cli.py",
     "        _check_out_path(alt_path)",
     "        pass",
     tuple(f"{BAD_INPUT}[gen-warp-companion-directory{case}]"
           for case in ("", "-without-suffix"))),
]


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_pytest(tree, selection):
    """True when pytest passes on selection in tree, with tree's src/ imported."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *selection], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def apply(tree, path, old, new):
    """Replace the first line of tree/path equal to old by new; False if there is none."""
    lines = (tree / path).read_text().split("\n")
    if old not in lines:
        return False
    lines[lines.index(old)] = new
    (tree / path).write_text("\n".join(lines))
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description="run seis's one-line mutants")
    parser.add_argument("-k", default="", help="run only rows whose name contains this")
    rows = [row for row in MUTANTS if parser.parse_args(argv).k in row[0]]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        selections = list(dict.fromkeys(arg for row in rows for arg in row[4]))
        if not run_pytest(clean, selections):
            print("the unmutated selections fail; no mutant can be judged")
            return 1
        outcome = {"killed": [], "survived": [], "stale": []}
        for i, (name, path, old, new, selection) in enumerate(rows):
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            if not apply(tree, path, old, new):
                verdict = "stale"
            else:
                verdict = "survived" if run_pytest(tree, selection) else "killed"
            outcome[verdict].append(name)
            if verdict != "killed":
                print(f"{verdict}: {name} ({path})")
            shutil.rmtree(tree)
    print(", ".join(f"{len(names)} {verdict}" for verdict, names in outcome.items())
          + f" in {time.perf_counter() - start:.0f} s")
    return 0 if len(outcome["killed"]) == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
