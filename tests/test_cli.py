import json
import re
from pathlib import Path

import numpy as np
import pytest

from seis.cli import main
from seis.matricize import matricize
from seis.tensor_io import read_tensor, write_tensor
from seis.transforms import AffineParams, apply_affine, permute_spatial

from helpers import smooth_tensor, write_npy_independent


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

    def test_missing_file_exit_1(self, ref_file, capsys):
        assert run_cli("score", str(ref_file), "no_such.npy") == 1
        assert "error:" in capsys.readouterr().err


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

    def test_missing_out_is_fatal(self, capsys):
        assert run_cli("synth", "--trials", "1", "--dims", "4,8,10,10",
                       "--conditions", "identity") == 1
        assert "out" in capsys.readouterr().err

    def test_bad_condition_is_fatal(self, tmp_path, capsys):
        assert run_cli("synth", "--trials", "1", "--dims", "4,8,10,10",
                       "--conditions", "sideways", "--out", str(tmp_path / "x.csv")) == 1
        assert "condition" in capsys.readouterr().err

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

    def test_total_failure_exit_1(self, tmp_path):
        entries = [
            {"label": "a", "ref": "gone1.npy", "alt": "gone2.npy"},
            {"label": "b", "ref": "gone3.npy", "alt": "gone4.npy"},
        ]
        man = self.write_manifest(tmp_path, entries)
        assert run_cli("layers", "--manifest", str(man),
                       "--out", str(tmp_path / "rows.csv")) == 1

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
