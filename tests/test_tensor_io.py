import io
import json
import warnings

import numpy as np
import pytest

from seis.errors import (
    DtypeError,
    FormatError,
    ParseError,
    ShapeError,
    ValidationError,
)
from seis.tensor_io import (
    ManifestEntry,
    ResultRow,
    load_manifest,
    read_tensor,
    validate_tensor,
    write_results,
    write_tensor,
)

from helpers import NON_REAL_KINDS, non_real_tensor, write_npy_independent


def rand_tensor(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


def saved_bytes(save):
    """The bytes that np.save or np.savez writes for a (2, 3, 4, 4) tensor."""
    buf = io.BytesIO()
    save(buf, rand_tensor((2, 3, 4, 4)))
    return buf.getvalue()


class TestReadWriteTensor:
    def test_round_trip_bit_exact(self, tmp_path):
        t = rand_tensor((2, 3, 4, 4))
        path = tmp_path / "t.npy"
        write_tensor(t, path)
        back = read_tensor(path)
        assert back.dtype == np.float64
        assert back.flags["C_CONTIGUOUS"]
        assert np.array_equal(back, t)

    def test_write_is_byte_deterministic(self, tmp_path):
        t = rand_tensor((3, 2, 5, 6), seed=3)
        p1, p2 = tmp_path / "a.npy", tmp_path / "b.npy"
        write_tensor(t, p1)
        write_tensor(read_tensor(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_c_and_fortran_orders_load_identically(self, tmp_path):
        # oracle: independent writer emits the same logical array both ways
        t = rand_tensor((2, 3, 4, 5), seed=1)
        pc, pf = tmp_path / "c.npy", tmp_path / "f.npy"
        write_npy_independent(pc, t, fortran_order=False)
        write_npy_independent(pf, t, fortran_order=True)
        tc = read_tensor(pc)
        tf = read_tensor(pf)
        assert np.array_equal(tc, tf)
        assert np.array_equal(tc, t)

    def test_reads_independent_writer_output(self, tmp_path):
        t = rand_tensor((1, 2, 3, 3), seed=2)
        path = tmp_path / "i.npy"
        write_npy_independent(path, t)
        assert np.array_equal(read_tensor(path), t)

    def test_float32_widened(self, tmp_path):
        # read at the stored precision: widening is left to matricize
        t = rand_tensor((2, 2, 3, 3)).astype(np.float32)
        path = tmp_path / "f32.npy"
        write_npy_independent(path, t, descr="<f4")
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, t)

    def test_zero_tensor_payload(self, tmp_path):
        path = tmp_path / "z.npy"
        write_tensor(np.zeros((1, 1, 2, 2)), path)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[8:10], "little")
        payload = raw[10 + header_len:]
        assert payload == b"\x00" * 32

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"NOTNUMPY" + b"\x00" * 64)
        with pytest.raises(FormatError):
            read_tensor(path)

    @pytest.mark.parametrize("content", [
        b"", b"label,ref\n", b"\x93NUMPY\x01",
        pytest.param(saved_bytes(np.save)[:-40], id="data-40-bytes-short"),
        pytest.param(saved_bytes(np.savez), id="npz"),
    ])
    def test_not_npy_names_path(self, tmp_path, content):
        path = tmp_path / "bad.npy"
        path.write_bytes(content)
        with pytest.raises(FormatError, match=r"bad\.npy: not a readable NPY file \("):
            read_tensor(path)

    def test_returns_a_private_copy_on_write_map(self, tmp_path):
        t = rand_tensor((1, 2, 3, 3))
        path = tmp_path / "t.npy"
        write_tensor(t, path)
        back = read_tensor(path)
        assert isinstance(back.base, np.memmap)
        back[0, 1, 2, 2] = 7.0  # the write stays in memory
        assert np.array_equal(read_tensor(path), t)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (1, 0, 2, 2)])
    def test_shape_errors_name_path(self, tmp_path, shape):
        path = tmp_path / "odd.npy"
        write_npy_independent(path, np.zeros(shape))
        with pytest.raises(ShapeError, match=r"odd\.npy: "):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.npy"
        path.write_bytes(b"\x93NUMPY\x01\x00\xff\xff{")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_wrong_ndim(self, tmp_path):
        path = tmp_path / "3d.npy"
        write_npy_independent(path, rand_tensor((2, 3, 4)).reshape(2, 3, 4))
        with pytest.raises(ShapeError):
            read_tensor(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "int.npy"
        write_npy_independent(path, np.arange(16).reshape(1, 1, 4, 4), descr="<i8")
        with pytest.raises(DtypeError):
            read_tensor(path)

    def test_nan_read_as_stored(self, tmp_path):
        # values are checked where a side is built (see test_cli)
        t = rand_tensor((1, 2, 3, 3))
        t[0, 1, 0, 1] = np.nan
        path = tmp_path / "nan.npy"
        write_npy_independent(path, t)
        assert np.array_equal(read_tensor(path), t, equal_nan=True)

    def test_write_rejects_nonfinite(self, tmp_path):
        t = rand_tensor((1, 1, 2, 2))
        t[0, 0, 0, 0] = np.inf
        with pytest.raises(ValidationError):
            write_tensor(t, tmp_path / "x.npy")

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                        reason="long double has float64's range here")
    def test_write_out_of_range_long_double_raises_without_warning(self, tmp_path):
        t = np.zeros((1, 1, 2, 2), dtype=np.longdouble)
        t[0, 0, 1, 0] = np.finfo(np.float64).max * np.longdouble(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="flat index 2$"):
                write_tensor(t, tmp_path / "x.npy")
        assert not (tmp_path / "x.npy").exists()

    def test_write_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_tensor(rand_tensor((1, 1, 2, 2)), tmp_path / "nodir" / "x.npy")


class TestValidateTensor:
    def test_float64_checked_without_a_copy(self):
        t = np.asfortranarray(rand_tensor((2, 3, 4, 4)))
        assert np.shares_memory(validate_tensor(t), t)

    @pytest.mark.parametrize("kind", NON_REAL_KINDS)
    def test_non_real_dtype_rejected(self, kind):
        with pytest.raises(DtypeError, match="unsupported dtype"):
            validate_tensor(non_real_tensor(kind))

    def test_values_not_checked(self):
        # non-finite values are caught at the row means (see test_metrics)
        t = rand_tensor((1, 2, 3, 3))
        t[0, 1, 0, 1] = np.nan
        assert validate_tensor(t) is t


class TestManifest:
    def test_single_entry(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"entries":[{"label":"layer1","ref":"a.npy","alt":"b.npy"}]}')
        m = load_manifest(path)
        assert m == (ManifestEntry("layer1", "a.npy", "b.npy"),)

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "m.json"
        entries = [{"label": f"l{i}", "ref": "r", "alt": "a"} for i in range(5)]
        path.write_text(json.dumps({"entries": entries}))
        m = load_manifest(path)
        assert [e.label for e in m] == [f"l{i}" for i in range(5)]

    @pytest.mark.parametrize("metadata", ['{"epoch": "10"}', "5", "null"])
    def test_other_top_level_keys_ignored(self, tmp_path, metadata):
        path = tmp_path / "m.json"
        path.write_text(
            '{"entries":[{"label":"x","ref":"a","alt":"b"}],"metadata":' + metadata + "}"
        )
        assert load_manifest(path) == (ManifestEntry("x", "a", "b"),)

    def test_duplicate_labels(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"entries":[{"label":"x","ref":"a","alt":"b"},'
            '{"label":"x","ref":"c","alt":"d"}]}'
        )
        with pytest.raises(ValidationError):
            load_manifest(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"entries":[{"label":"x","ref":"a"}]}')
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_entry_not_an_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"entries": [{"label": "x", "ref": "a", "alt": "b"}, 5]}')
        with pytest.raises(ParseError, match=r"m\.json: entry 1 is not an object$"):
            load_manifest(path)

    @pytest.mark.parametrize("key,value", [("label", "null"), ("ref", "null"),
                                           ("alt", '{"a": 1}'), ("label", "1"),
                                           ("ref", '["a.npy"]'), ("alt", "true")])
    def test_non_string_value(self, tmp_path, key, value):
        raw = {"label": '"x"', "ref": '"a.npy"', "alt": '"b.npy"', key: value}
        path = tmp_path / "m.json"
        path.write_text(
            '{"entries": [{"label": "ok", "ref": "a.npy", "alt": "b.npy"}, {'
            + ", ".join(f'"{k}": {v}' for k, v in raw.items()) + "}]}"
        )
        with pytest.raises(ParseError, match=rf"m\.json: entry 1 key '{key}' must be a string"):
            load_manifest(path)

    def test_missing_entries(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"pairs": []}')
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_manifest(path)

    @pytest.mark.parametrize("entries", ["5", "null", '"ab"', "{}"])
    def test_entries_not_an_array(self, tmp_path, entries):
        path = tmp_path / "m.json"
        path.write_text(f'{{"entries": {entries}}}')
        with pytest.raises(ParseError, match=r"m\.json: 'entries' must be an array"):
            load_manifest(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"entries": [], "metadata": {"note": "\xff"}}')
        with pytest.raises(ParseError, match=r"m\.json: not UTF-8"):
            load_manifest(path)

    def test_empty_entries_ok(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"entries": []}')
        assert load_manifest(path) == ()


def make_row(**overrides):
    base = dict(
        label="layer1",
        condition="manifest",
        trial=0,
        seed=42,
        s_equiv=0.987654321,
        s_inv=0.1234567,
        k_a=5,
        k_a_prime=7,
        r=5,
    )
    base.update(overrides)
    return ResultRow(**base)


class TestResults:
    def test_csv_single_row(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([make_row()], path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "label,condition,trial,seed,s_equiv,s_inv,k_a,k_a_prime,r"
        assert lines[1] == "layer1,manifest,0,42,0.987654,0.123457,5,7,5"
        assert len(lines) == 2

    def test_csv_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results([], path, format="csv")
        assert path.read_text() == "label,condition,trial,seed,s_equiv,s_inv,k_a,k_a_prime,r\n"

    def test_json_single_row(self, tmp_path):
        path = tmp_path / "r.json"
        write_results([make_row()], path, format="json")
        doc = json.loads(path.read_text())
        assert isinstance(doc, list) and len(doc) == 1
        assert doc[0]["label"] == "layer1"
        assert doc[0]["s_equiv"] == pytest.approx(0.987654, abs=1e-9)
        assert set(doc[0]) == {
            "label", "condition", "trial", "seed",
            "s_equiv", "s_inv", "k_a", "k_a_prime", "r",
        }

    def test_csv_reparses_to_rows(self, tmp_path):
        rows = [make_row(trial=i, s_equiv=i / 7.0, s_inv=i / 13.0, label=f"l{i}")
                for i in range(4)]
        path = tmp_path / "r.csv"
        write_results(rows, path, format="csv")
        lines = path.read_text().splitlines()[1:]
        for line, row in zip(lines, rows):
            label, condition, trial, seed, s_eq, s_iv, k_a, k_ap, r = line.split(",")
            assert label == row.label
            assert int(trial) == row.trial
            assert float(s_eq) == pytest.approx(row.s_equiv, abs=5e-7)
            assert float(s_iv) == pytest.approx(row.s_inv, abs=5e-7)
            assert (int(k_a), int(k_ap), int(r)) == (row.k_a, row.k_a_prime, row.r)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_interrupted_write_keeps_existing_file(self, tmp_path, fmt):
        path = tmp_path / f"r.{fmt}"
        write_results([make_row()], path, format=fmt)
        before = path.read_bytes()

        def rows():
            yield make_row(label="new")
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_results(rows(), path, format=fmt)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            write_results([], tmp_path / "r.tsv", format="tsv")

    def test_row_score_range_enforced(self):
        with pytest.raises(ValidationError):
            make_row(s_equiv=1.5)
        with pytest.raises(ValidationError):
            make_row(s_inv=-0.1)

    def test_row_r_consistency_enforced(self):
        with pytest.raises(ValidationError):
            make_row(r=9)
