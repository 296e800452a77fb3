import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from seis import cli, metrics
from seis.cli import _score_paths, main
from seis.errors import DegenerateRankError, SeisError, ValidationError
from seis.metrics import seis
from seis.tensor_io import ResultRow, matricize, read_tensor, write_results, write_tensor
from seis.transforms import AffineParams, apply_affine

from helpers import permute_spatial, smooth_tensor, write_npy_independent


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def ref_file(tmp_path):
    path = tmp_path / "ref.npy"
    write_tensor(smooth_tensor((4, 6, 10, 10), seed=1), path)
    return path


class TestScore:
    def test_same_file_twice(self, ref_file, capsys):
        assert run_cli("score", str(ref_file), str(ref_file)) == 0
        out = capsys.readouterr().out
        m = re.fullmatch(
            r"s_equiv=(\d\.\d{6}) s_inv=(\d\.\d{6}) k_a=(\d+) k_a_prime=(\d+) r=(\d+)\n",
            out,
        )
        assert m, out
        assert float(m.group(1)) >= 0.999
        assert float(m.group(2)) >= 0.99

    def test_rot90_pair_scores_like_permutation(self, tmp_path, ref_file, capsys):
        # 90 degrees is an exact permutation of a square grid: the warp must
        # equal the explicit cell permutation, and the CLI score across the
        # pair must sit in the identity regime
        ref = read_tensor(ref_file)
        alt = apply_affine(ref, AffineParams(angle_deg=90.0))
        h = w = 10
        perm = np.empty(h * w, dtype=int)
        for y in range(h):
            for x in range(w):
                perm[y * w + x] = (h - 1 - x) * w + y
        assert np.array_equal(alt, permute_spatial(ref, perm))
        alt_path = tmp_path / "rot.npy"
        write_tensor(alt, alt_path)
        assert run_cli("score", str(ref_file), str(alt_path)) == 0
        out = capsys.readouterr().out
        s_equiv = float(re.search(r"s_equiv=(\d\.\d+)", out).group(1))
        assert s_equiv >= 0.999

    def test_float32_file_scores_like_its_float64_widening(self, tmp_path, ref_file, capsys):
        ref = read_tensor(ref_file).astype(np.float32)
        alt = apply_affine(ref, AffineParams(angle_deg=30.0)).astype(np.float32)
        lines = []
        for descr in ("<f4", "<f8"):
            paths = [tmp_path / f"{name}_{descr[1:]}.npy" for name in ("ref", "alt")]
            write_npy_independent(paths[0], ref, descr=descr)
            write_npy_independent(paths[1], alt, descr=descr)
            assert run_cli("score", *map(str, paths)) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]

    def test_shape_mismatch_exit_1(self, tmp_path, ref_file, capsys):
        other = tmp_path / "other.npy"
        write_tensor(smooth_tensor((4, 6, 8, 8), seed=2), other)
        assert run_cli("score", str(ref_file), str(other)) == 1
        err = capsys.readouterr().err
        assert "10, 10" in err and "8, 8" in err

    def test_non_npy_file_exit_1(self, tmp_path, ref_file, capsys):
        bad = tmp_path / "rows.csv"
        bad.write_text("label,ref\n")
        assert run_cli("score", str(ref_file), str(bad)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not a readable NPY file (")

    def test_nan_names_flat_index(self, tmp_path, capsys):
        t = smooth_tensor((1, 2, 3, 3), seed=3)
        t[0, 1, 0, 1] = np.nan  # flat index 9 + 1 = 10
        path = tmp_path / "nan.npy"
        write_npy_independent(path, t)
        assert run_cli("score", str(path), str(path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: reference tensor: non-finite value at flat index 10\n"

    def test_missing_file_exit_1(self, ref_file, capsys):
        assert run_cli("score", str(ref_file), "no_such.npy") == 1
        assert "error:" in capsys.readouterr().err


# per synth config key: the config file's value, then the flag's value, which wins
CONFIG_OVERRIDES = {
    "conditions": ("translation", "rotation"),
    "dims": ("2,4,10,10", "2,4,8,8"),
    "format": ("json", "csv"),
    "out": ("from_config.csv", "from_flag.csv"),
    "seed": (9, 3),
    "smoothness": (1, 3.0),
    "trials": (3, 2),
}


class TestSynth:
    def test_small_run_writes_rows_and_summary(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = run_cli(
            "synth", "--trials", "2", "--seed", "42", "--dims", "4,8,10,10",
            "--conditions", "identity,rotation", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,condition,trial,seed,s_equiv,s_inv,k_a,k_a_prime,r"
        assert len(lines) == 1 + 2 * 2
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "condition mean_equiv std_equiv mean_inv std_inv trials"
        assert len(printed) == 3
        assert printed[1].startswith("identity ")
        assert printed[2].startswith("rotation ")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("synth", "--trials", "2", "--seed", "42", "--dims", "4,8,10,10",
                "--conditions", "identity,scaling")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        code = run_cli("synth", "--trials", "1", "--seed", "1", "--dims", "4,8,10,10",
                       "--conditions", "identity", "--out", str(out), "--format", "json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 1
        assert doc[0]["condition"] == "identity"

    def test_config_file_merged_under_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(json.dumps({
            "trials": 5, "seed": 9, "dims": "4,8,10,10",
            "conditions": "identity", "out": str(out),
        }))
        # flag overrides trials; everything else comes from the file
        assert run_cli("synth", "--config", str(cfg_path), "--trials", "2") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2
        assert lines[1].split(",")[3] == "9"  # seed from config

    @pytest.mark.parametrize("key,value", [
        ("trials", "abc"),
        ("seed", 1.5),
        ("dims", [4, 8, 10, 10]),
        ("smoothness", None),
        ("conditions", 5),
        ("out", 5),
        ("format", True),
    ])
    def test_config_value_of_wrong_type_is_fatal(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "rows.csv"
        cfg_path.write_text(json.dumps({"out": str(out), key: value}))
        assert run_cli("synth", "--config", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,flag", [
        ("trials", "2", "1"),
        ("seed", 1.5, "1"),
        ("dims", [2, 2, 8, 8], "2,2,8,8"),
        ("smoothness", "2", "2"),
        ("conditions", 5, "identity"),
        ("out", 5, "rows.csv"),
        ("format", True, "csv"),
    ])
    def test_config_value_of_wrong_type_is_fatal_under_its_flag(
            self, tmp_path, capsys, monkeypatch, key, value, flag):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({
            "trials": 1, "dims": "2,2,8,8", "conditions": "identity", "out": "rows.csv",
            key: value,
        }))
        assert run_cli("synth", "--config", "cfg.json", f"--{key}", flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key ") and repr(key) in err
        assert not Path("rows.csv").exists()

    @pytest.mark.parametrize("key", sorted(CONFIG_OVERRIDES))
    def test_each_flag_overrides_its_config_key(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        base = {"conditions": "rotation", "dims": "2,4,8,8", "seed": 3, "trials": 2,
                "out": "rows.csv"}
        config_value, flag_value = CONFIG_OVERRIDES[key]

        def synth(config, flags):
            argv = ["synth"]
            if config is not None:
                Path("cfg.json").write_text(json.dumps(config))
                argv += ["--config", "cfg.json"]
            for name, value in flags.items():
                argv += [f"--{name}", str(value)]
            assert run_cli(*argv) == 0
            out = Path(flags.get("out") or config["out"])
            result = (out.name, out.read_bytes(), capsys.readouterr().out)
            out.unlink()
            return result

        overridden = synth({**base, key: config_value}, {key: flag_value})
        assert overridden == synth(None, {**base, key: flag_value})
        assert overridden != synth({**base, key: config_value}, {})

    def test_unknown_config_key_is_fatal(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "r.csv"
        cfg_path.write_text(json.dumps({
            "trails": 1, "dims": "2,2,8,8", "conditions": "identity", "out": str(out),
        }))
        assert run_cli("synth", "--config", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: unknown config key 'trails'; valid: ")
        assert "conditions,dims,format,out,seed,smoothness,trials" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "{cfg}: config must be a JSON object"),
        ({"format": "xml"}, "unknown result format 'xml', expected one of ('csv', 'json')"),
    ], ids=["not-an-object", "unknown-format"])
    def test_bad_config_is_fatal(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "r.csv"
        if isinstance(config, dict):
            config = {**config, "dims": "2,2,8,8", "trials": 1, "out": str(out)}
        cfg_path.write_text(json.dumps(config))
        assert run_cli("synth", "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg_path)}\n"
        assert not out.exists()

    def test_config_not_utf8_is_fatal(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"trials": 1, "out": "\xff.csv"}')
        assert run_cli("synth", "--config", str(cfg_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg_path) in err

    def test_missing_out_is_fatal(self, capsys):
        assert run_cli("synth", "--trials", "1", "--dims", "4,8,10,10",
                       "--conditions", "identity") == 1
        assert "out" in capsys.readouterr().err

    def test_bad_condition_is_fatal(self, tmp_path, capsys):
        assert run_cli("synth", "--trials", "1", "--dims", "4,8,10,10",
                       "--conditions", "sideways", "--out", str(tmp_path / "x.csv")) == 1
        assert "condition" in capsys.readouterr().err

    def test_bad_condition_names_it_and_the_valid_ones(self, tmp_path, capsys):
        assert run_cli("synth", "--trials", "1", "--dims", "4,8,10,10",
                       "--conditions", "identity,sideways", "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err == (
            "error: unknown condition 'sideways'; "
            "valid: identity,translation,scaling,rotation,affine,random_baseline\n"
        )

    def test_empty_conditions_flag_is_fatal(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run_cli("synth", "--conditions", ",", "--dims", "2,2,8,8", "--trials", "1",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: conditions must name at least one condition\n"
        assert not out.exists()

    def test_empty_conditions_in_config_is_fatal(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "e.csv"
        cfg_path.write_text(json.dumps({
            "conditions": [], "dims": "2,2,8,8", "trials": 1, "out": str(out),
        }))
        assert run_cli("synth", "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == "error: conditions must name at least one condition\n"
        assert not out.exists()

    def test_bad_dims_is_fatal(self, tmp_path):
        assert run_cli("synth", "--dims", "4,8", "--trials", "1",
                       "--out", str(tmp_path / "x.csv")) == 1

    def test_stdout_carries_only_results(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SEIS_LOG", "debug")
        out = tmp_path / "rows.csv"
        assert run_cli("synth", "--trials", "1", "--seed", "3", "--dims", "4,8,10,10",
                       "--conditions", "identity", "--out", str(out)) == 0
        captured = capsys.readouterr()
        for line in captured.out.splitlines():
            assert re.fullmatch(
                r"condition mean_equiv std_equiv mean_inv std_inv trials|"
                r"\w+ \d\.\d{6} \d\.\d{6} \d\.\d{6} \d\.\d{6} \d+",
                line,
            )
        assert "s_equiv" in captured.err  # debug diagnostics went to stderr


class TestGen:
    def test_writes_requested_shape(self, tmp_path):
        out = tmp_path / "t.npy"
        assert run_cli("gen", "--dims", "8,4,16,16", "--seed", "1", "--out", str(out)) == 0
        assert read_tensor(out).shape == (8, 4, 16, 16)

    def test_warp_writes_companion(self, tmp_path):
        out = tmp_path / "t.npy"
        code = run_cli("gen", "--dims", "6,4,12,12", "--seed", "1", "--out", str(out),
                       "--warp", "rotation", "--warp-seed", "2")
        assert code == 0
        alt = tmp_path / "t_alt.npy"
        assert alt.exists()
        a, b = read_tensor(out), read_tensor(alt)
        assert a.shape == b.shape
        assert np.any(a != b)

    def test_deterministic(self, tmp_path):
        args = ("gen", "--dims", "4,4,8,8", "--seed", "5", "--warp", "affine",
                "--warp-seed", "6")
        assert run_cli(*args, "--out", str(tmp_path / "a.npy")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b.npy")) == 0
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()
        assert (tmp_path / "a_alt.npy").read_bytes() == (tmp_path / "b_alt.npy").read_bytes()

    @pytest.mark.parametrize("warp", ["identity,rotation", "sideways"])
    def test_unknown_warp_writes_nothing(self, tmp_path, capsys, warp):
        out = tmp_path / "t.npy"
        assert run_cli("gen", "--dims", "4,4,8,8", "--out", str(out), "--warp", warp) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown condition {warp!r}; valid: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ("--dims", "2,2,1,8"),
        ("--dims", "2,2,8,8", "--warp-seed", "-1"),
    ], ids=["one-row-grid", "negative-warp-seed"])
    def test_failed_warp_writes_nothing(self, tmp_path, capsys, args):
        # the warp fails after the reference is drawn: neither file is written
        code = run_cli("gen", *args, "--out", str(tmp_path / "a.npy"), "--warp", "rotation")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_negative_warp_seed_names_the_flag(self, tmp_path, capsys):
        code = run_cli("gen", "--dims", "2,2,8,8", "--out", str(tmp_path / "a.npy"),
                       "--warp", "rotation", "--warp-seed", "-1")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --warp-seed: ")
        assert list(tmp_path.iterdir()) == []

    def test_defaults_are_harness_defaults(self, tmp_path):
        assert run_cli("gen", "--out", str(tmp_path / "a.npy")) == 0
        assert run_cli("gen", "--dims", "64,32,28,28", "--smoothness", "2", "--seed", "0",
                       "--out", str(tmp_path / "b.npy")) == 0
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()

    @pytest.mark.parametrize("dims", ["4,4,8", "4,4,8,8,1", "4,0,8,8", "4,4,8,x"])
    def test_bad_dims_exit_1(self, tmp_path, capsys, dims):
        assert run_cli("gen", "--dims", dims, "--out", str(tmp_path / "t.npy")) == 1
        assert capsys.readouterr().err.startswith("error: dims must be ")

    @pytest.mark.parametrize("command", ["gen", "synth"])
    def test_one_cell_grid_exit_1_writes_nothing(self, tmp_path, capsys, command):
        # a one-cell grid used to be standardized into NaN and fail later
        code = run_cli(command, "--dims", "2,2,1,1", "--out", str(tmp_path / "t.npy"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: dims must give an h*w grid of at least 2 cells, got (2, 2, 1, 1)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen", "synth"])
    def test_smoothness_longer_than_grid_exit_1_writes_nothing(self, tmp_path, capsys, command):
        # used to end in numpy's "Maximum allowed size exceeded" traceback
        code = run_cli(command, "--smoothness", "1e20", "--dims", "2,2,8,8",
                       "--out", str(tmp_path / "t.npy"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: smoothness must be in (0, max(h, w)], got 1e+20\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_exit_1(self, tmp_path, capsys):
        assert run_cli("gen", "--dims", "4,4,8,8",
                       "--out", str(tmp_path / "nodir" / "t.npy")) == 1
        assert "error:" in capsys.readouterr().err


class TestLayers:
    def make_pair_files(self, tmp_path, n=3):
        entries = []
        for i in range(n):
            z = smooth_tensor((3, 4, 8, 8), seed=10 + i)
            ref = tmp_path / f"l{i}_ref.npy"
            alt = tmp_path / f"l{i}_alt.npy"
            write_tensor(z, ref)
            write_tensor(z, alt)
            entries.append({"label": f"layer{i}", "ref": str(ref), "alt": str(alt)})
        return entries

    def write_manifest(self, tmp_path, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": entries}))
        return path

    def test_identity_manifest(self, tmp_path):
        entries = self.make_pair_files(tmp_path)
        man = self.write_manifest(tmp_path, entries)
        out = tmp_path / "rows.csv"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["layer0", "layer1", "layer2"]
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[1] == "manifest"
            assert float(parts[4]) >= 0.999

    def test_partial_failure_exit_2(self, tmp_path, capsys):
        entries = self.make_pair_files(tmp_path)
        entries[1]["alt"] = str(tmp_path / "missing.npy")
        man = self.write_manifest(tmp_path, entries)
        out = tmp_path / "rows.csv"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 2
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["layer0", "layer2"]
        err = capsys.readouterr().err
        assert "layer1" in err and "skipping" in err

    def test_module_run_logs_as_seis_cli(self, tmp_path):
        # `python -m seis.cli` runs cli.py as __main__; its warnings must
        # still carry the logger name the installed script prints
        entries = self.make_pair_files(tmp_path, n=2)
        write_tensor(np.zeros((3, 4, 8, 8)), tmp_path / "l1_ref.npy")
        man = self.write_manifest(tmp_path, entries)
        env = {**os.environ, "PYTHONPATH": str(Path(metrics.__file__).parents[1])}
        env.pop("SEIS_LOG", None)
        child = subprocess.run(
            [sys.executable, "-m", "seis.cli", "layers", "--manifest", str(man),
             "--out", str(tmp_path / "rows.csv")],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert child.returncode == 2, child.stderr
        assert child.stderr.startswith(f"WARNING seis.cli: skipping entry 'layer1': {tmp_path}")

    def test_total_failure_exit_1(self, tmp_path):
        entries = [
            {"label": "a", "ref": "gone1.npy", "alt": "gone2.npy"},
            {"label": "b", "ref": "gone3.npy", "alt": "gone4.npy"},
        ]
        man = self.write_manifest(tmp_path, entries)
        assert run_cli("layers", "--manifest", str(man),
                       "--out", str(tmp_path / "rows.csv")) == 1

    @pytest.mark.parametrize("content", [b'{"entries": 5}', b'{"entries": null}',
                                         b'{"entries": [], "x": "\xff"}',
                                         b'{"entries": [{"label": null, "ref": "a", "alt": "b"}]}'])
    def test_bad_manifest_is_fatal(self, tmp_path, capsys, content):
        man = tmp_path / "manifest.json"
        man.write_bytes(content)
        out = tmp_path / "rows.csv"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(man) in err
        assert not out.exists()

    def test_entry_not_an_object_is_fatal(self, tmp_path, capsys):
        entries = self.make_pair_files(tmp_path, n=1) + [5]
        man = self.write_manifest(tmp_path, entries)
        out = tmp_path / "rows.csv"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {man}: entry 1 is not an object\n"
        assert not out.exists()

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path, monkeypatch):
        data = tmp_path / "m"
        data.mkdir()
        entries = self.make_pair_files(data, n=2)
        for e in entries:
            e["ref"], e["alt"] = Path(e["ref"]).name, Path(e["alt"]).name
        self.write_manifest(data, entries)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("layers", "--manifest", "../m/manifest.json", "--out", "rows.csv") == 0
        lines = (elsewhere / "rows.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["layer0", "layer1"]

    def test_float32_dumps_score_like_their_float64_widening(self, tmp_path):
        # a tall (d > n) and a wide layer, each against a rotated copy; the
        # float32 dumps are widened in matricize, the float64 ones on disk
        pairs = {}
        for label, dims in (("tall", (2, 8, 12, 12)), ("wide", (4, 16, 6, 6))):
            z = smooth_tensor(dims, seed=len(label)).astype(np.float32)
            pairs[label] = (z, apply_affine(z, AffineParams(angle_deg=20.0)).astype(np.float32))
        rows = {}
        for descr in ("<f4", "<f8"):
            entries = []
            for label, pair in pairs.items():
                paths = [tmp_path / f"{label}{i}_{descr[1:]}.npy" for i in (0, 1)]
                for path, t in zip(paths, pair):
                    write_npy_independent(path, t, descr=descr)
                entries.append({"label": label, "ref": str(paths[0]), "alt": str(paths[1])})
            man = self.write_manifest(tmp_path, entries)
            out = tmp_path / f"rows_{descr[1:]}.csv"
            assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 0
            rows[descr] = out.read_bytes()
        assert rows["<f4"] == rows["<f8"]

    def test_nonfinite_float32_dump_skipped_with_path_and_index(self, tmp_path, capsys):
        entries = self.make_pair_files(tmp_path, n=2)
        bad = smooth_tensor((3, 4, 8, 8), seed=11).astype(np.float32)
        bad[0, 1, 2, 3] = np.inf  # flat index 64 + 16 + 3 = 83
        bad_path = tmp_path / "bad32.npy"
        write_npy_independent(bad_path, bad, descr="<f4")
        entries[1]["ref"] = str(bad_path)
        man = self.write_manifest(tmp_path, entries)
        out = tmp_path / "rows.csv"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 2
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["layer0"]
        err = capsys.readouterr().err
        assert "layer1" in err and str(bad_path) in err and "flat index 83" in err

    def test_empty_manifest_ok(self, tmp_path):
        man = self.write_manifest(tmp_path, [])
        out = tmp_path / "rows.csv"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 0
        assert out.read_text().splitlines() == [
            "label,condition,trial,seed,s_equiv,s_inv,k_a,k_a_prime,r"
        ]

    def test_json_output(self, tmp_path):
        entries = self.make_pair_files(tmp_path, n=1)
        man = self.write_manifest(tmp_path, entries)
        out = tmp_path / "rows.json"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out),
                       "--format", "json") == 0
        doc = json.loads(out.read_text())
        assert doc[0]["label"] == "layer0"


class TestLayersReuse:
    """`layers` builds each distinct dump's subspace once per run."""

    @pytest.fixture()
    def dumps(self, tmp_path):
        a = smooth_tensor((3, 4, 8, 8), seed=40)
        b = smooth_tensor((4, 8, 5, 5), seed=41)
        tensors = {
            "a": a, "a_rot": apply_affine(a, AffineParams(angle_deg=20.0)),
            "a_shift": apply_affine(a, AffineParams(tx=0.1)),
            "b": b, "b_rot": apply_affine(b, AffineParams(angle_deg=15.0)),
        }
        for name, t in tensors.items():
            write_tensor(t, tmp_path / f"{name}.npy")
        return tmp_path

    @staticmethod
    def manifest(tmp_path, pairs):
        path = tmp_path / "manifest.json"
        entries = [{"label": label, "ref": f"{ref}.npy", "alt": f"{alt}.npy"}
                   for label, ref, alt in pairs]
        path.write_text(json.dumps({"entries": entries}))
        return path

    def test_rows_match_per_entry_seis_with_one_subspace_per_dump(
            self, dumps, capsys, monkeypatch):
        pairs = [("a_rot", "a", "a_rot"), ("lost", "missing", "a_rot"),
                 ("a_shift", "a", "a_shift"), ("b_rot", "b", "b_rot"), ("a_self", "a", "a")]
        man = self.manifest(dumps, pairs)
        calls = []
        build = metrics.spatial_subspace
        monkeypatch.setattr(metrics, "spatial_subspace", lambda c: calls.append(c) or build(c))
        out = dumps / "rows.csv"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 2
        assert len(calls) == 5  # a, a_rot, a_shift, b, b_rot
        err = capsys.readouterr().err
        assert err.count("skipping entry") == 1 and "'lost'" in err

        monkeypatch.undo()
        want = dumps / "want.csv"
        write_results([
            ResultRow.of(label, "manifest", 0, 0, seis(
                read_tensor(dumps / f"{ref}.npy"), read_tensor(dumps / f"{alt}.npy")))
            for label, ref, alt in pairs if label != "lost"
        ], want)
        assert out.read_bytes() == want.read_bytes()

    def test_each_dump_released_before_its_gram(self, dumps, monkeypatch):
        # read_tensor maps each dump, and only its matrix reaches the side, so
        # no mapping is alive once a Gram is formed
        maps = []
        read, build = cli.read_tensor, metrics.spatial_subspace

        def mapped(path):
            t = read(path)
            assert isinstance(t.base, np.memmap)
            maps.append(weakref.ref(t.base))
            return t

        def released(centered):
            assert all(m() is None for m in maps)
            return build(centered)

        monkeypatch.setattr(cli, "read_tensor", mapped)
        monkeypatch.setattr(metrics, "spatial_subspace", released)
        man = self.manifest(dumps, [("a_rot", "a", "a_rot"), ("b_rot", "b", "b_rot")])
        assert run_cli("layers", "--manifest", str(man), "--out", str(dumps / "rows.csv")) == 0
        assert len(maps) == 4

    def test_unreadable_reference_named_again_fails_each_entry_alike(self, dumps, capsys):
        man = self.manifest(dumps, [("x", "missing", "a"), ("y", "a", "a"),
                                    ("z", "missing", "a_rot")])
        out = dumps / "rows.csv"
        assert run_cli("layers", "--manifest", str(man), "--out", str(out)) == 2
        warnings = [line for line in capsys.readouterr().err.splitlines() if "skipping" in line]
        assert len(warnings) == 2
        assert warnings[0].replace("'x'", "'z'") == warnings[1]
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["y"]

    @pytest.mark.parametrize("alt,message", [("missing", "No such file"),
                                             ("b", "tensor dims differ"),
                                             ("a", "reference tensor: all singular values")])
    def test_degenerate_reference_reported_where_seis_reports_it(
            self, dumps, capsys, alt, message):
        # the reference's subspace error comes after the alternate's read
        # and the dims check, as in seis() on the two read dumps
        write_tensor(np.zeros((3, 4, 8, 8)), dumps / "flat.npy")
        man = self.manifest(dumps, [("x", "flat", alt), ("y", "flat", "flat")])
        assert run_cli("layers", "--manifest", str(man), "--out", str(dumps / "r.csv")) == 1
        warnings = [line for line in capsys.readouterr().err.splitlines() if "skipping" in line]
        assert message in warnings[0]
        assert "reference tensor: all singular values" in warnings[1]

    @pytest.mark.parametrize("bad", ["nan", "flat"])
    def test_failed_dump_is_not_kept_and_fails_later_entry_in_its_role(self, dumps, bad):
        a = read_tensor(dumps / "a.npy")
        index = np.ravel_multi_index((1, 2, 3, 4), a.shape)
        a[1, 2, 3, 4] = np.nan
        np.save(dumps / "nan.npy", a)
        np.save(dumps / "flat.npy", np.zeros_like(a))
        path, clean = dumps / f"{bad}.npy", dumps / "a.npy"
        error, messages = {
            "nan": (ValidationError, [f"{role} tensor: non-finite value at flat index {index}"
                                      for role in ("reference", "alternate")]),
            "flat": (DegenerateRankError, ["reference tensor: all singular values",
                                           "alternate tensor: all singular values"]),
        }[bad]
        sides = {}
        with pytest.raises(error) as first:
            _score_paths(path, clean, sides)
        assert str(first.value).startswith(f"{path}: {messages[0]}")
        # only the clean alternate's subspace is kept, not the failure
        assert list(sides) == [os.path.realpath(clean)]
        assert not any(isinstance(side, SeisError) for _, side in sides.values())
        with pytest.raises(error) as later:
            _score_paths(clean, path, sides)
        assert str(later.value).startswith(f"{path}: {messages[1]}")

    def test_reused_degenerate_dump_named_in_each_entrys_role(self, dumps, capsys):
        write_tensor(np.zeros((3, 4, 8, 8)), dumps / "flat.npy")
        man = self.manifest(dumps, [("x", "a", "flat"), ("y", "flat", "a")])
        assert run_cli("layers", "--manifest", str(man), "--out", str(dumps / "r.csv")) == 1
        warnings = [line for line in capsys.readouterr().err.splitlines() if "skipping" in line]
        assert "flat.npy: alternate tensor: all singular values" in warnings[0]
        assert "flat.npy: reference tensor: all singular values" in warnings[1]


class TestParsing:
    def test_unknown_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--bogus")
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert "score" in capsys.readouterr().out
