import numpy as np
import pytest

from mognmf.errors import DataError, IoError, ParamError, ParseError, ShapeError
from mognmf.hsi_core import (
    HsiCube,
    UnmixParams,
    load_cube,
    read_json_object,
    read_matrix,
    save_abundance_maps,
    save_cube,
    write_matrix,
)


class TestHsiCube:
    def test_constant_csv_cube(self, tmp_path):
        path = tmp_path / "cube.csv"
        path.write_text("3,2,2\n" + "\n".join(["1,1,1,1"] * 3) + "\n")
        cube = load_cube(path, format="csv")
        assert cube.band_count == 3
        assert cube.pixel_count == 4
        assert np.all(cube.data == 1.0)

    def test_header_pixel_count_mismatch(self, tmp_path):
        path = tmp_path / "cube.csv"
        path.write_text("2,2,2\n1,1,1,1,1\n1,1,1,1,1\n")
        with pytest.raises(ParseError):
            load_cube(path, format="csv")

    @pytest.mark.parametrize(
        "entry, problem", [("-4", "negative"), ("nan", "non-finite")], ids=["negative", "nan"]
    )
    def test_bad_entry_reports_location(self, tmp_path, entry, problem):
        path = tmp_path / "cube.csv"
        path.write_text(f"2,1,3\n0,1,2\n3,{entry},5\n")
        with pytest.raises(DataError, match=f"{problem} value at band 1, pixel 1"):
            load_cube(path, format="csv")

    def test_raw_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        data = rng.random((5, 12), dtype=np.float32).astype(np.float64)
        cube = HsiCube(data=data, height=3, width=4)
        save_cube(cube, tmp_path / "cube.raw", format="raw-f32")
        back = load_cube(tmp_path / "cube.raw", format="raw-f32")
        assert back.height == 3 and back.width == 4
        assert np.array_equal(back.data, data)

    def test_csv_roundtrip_exact_at_full_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        data = rng.random((4, 6))
        cube = HsiCube(data=data, height=2, width=3)
        save_cube(cube, tmp_path / "cube.csv", format="csv")
        back = load_cube(tmp_path / "cube.csv", format="csv")
        assert np.array_equal(back.data, data)

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "cube.raw").write_bytes(b"\x00" * 16)
        with pytest.raises(ParseError):
            load_cube(tmp_path / "cube.raw", format="raw-f32")

    def test_grid_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            HsiCube(data=np.ones((2, 5)), height=2, width=2)


class TestMatrixCodec:
    @pytest.mark.parametrize("shape", [(5, 1), (1, 5), (3, 4), (1, 1)])
    def test_roundtrip_keeps_shape_and_bits(self, tmp_path, shape):
        # a one-column file reads as a column, a one-row file as a row
        data = np.random.default_rng(3).random(shape)
        data[0, 0] = -0.0
        write_matrix(tmp_path / "m.csv", data)
        back = read_matrix(tmp_path / "m.csv")
        assert back.shape == shape
        assert np.array_equal(back, data) and np.signbit(back[0, 0])
        with open(tmp_path / "m.csv") as fh:
            assert np.array_equal(read_matrix(fh), data)

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(IoError, match="cannot read"):
            read_matrix(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "text", ["1,2\n3,x\n", "1,2\n3\n", "", "\n\n"],
        ids=["non_numeric", "ragged", "empty", "blank"],
    )
    def test_malformed_body_is_a_parse_error(self, tmp_path, text):
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(ParseError, match="not a numeric CSV"):
            read_matrix(tmp_path / "m.csv")

    @pytest.mark.parametrize(
        "text, required, problem",
        [(None, (), "cannot read"), ("{x", (), "cannot read"), ("[1]", (), "JSON object"),
         ('{"a": 1}', ("a", "b"), "has no 'b' field")],
        ids=["missing", "malformed", "not_object", "missing_key"],
    )
    def test_json_object_errors(self, tmp_path, text, required, problem):
        path = tmp_path / "f.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ParseError, match=problem):
            read_json_object(path, *required)


class TestAbundanceMaps:
    def _read_pgm(self, path):
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n")
        _, dims, maxval, pixels = raw.split(b"\n", 3)
        w, h = (int(t) for t in dims.split())
        assert maxval == b"255"
        return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)

    def test_saturated_and_zero_maps(self, tmp_path):
        S = np.vstack([np.ones(6), np.zeros(6)])
        paths = save_abundance_maps(S, 2, 3, tmp_path)
        assert len(paths) == 2
        assert np.all(self._read_pgm(paths[0]) == 255)
        assert np.all(self._read_pgm(paths[1]) == 0)

    def test_half_maps_to_128(self, tmp_path):
        S = np.full((1, 4), 0.5)
        (path,) = save_abundance_maps(S, 2, 2, tmp_path)
        assert np.all(self._read_pgm(path) == 128)

    def test_values_above_one_clamped(self, tmp_path):
        S = np.array([[1.7, 0.25, 0.0, 1.0]])
        (path,) = save_abundance_maps(S, 1, 4, tmp_path)
        assert self._read_pgm(path).ravel().tolist() == [255, 64, 0, 255]


class TestUnmixParams:
    def test_defaults_valid(self):
        p = UnmixParams()
        assert p.delta == 15.0 and p.order == 3 and p.t1 == 3000 and p.t2 == 50
        assert p.eps1 == 1e-4 and p.eps2 == 1e-6

    def test_dict_roundtrip(self):
        p = UnmixParams(lam=0.02, seed=9, sigma_s=2.0)
        q = UnmixParams.from_dict(p.to_dict())
        assert q == p

    def test_lambda_key_accepted(self):
        p = UnmixParams.from_dict({"lambda": 0.3})
        assert p.lam == 0.3

    def test_lam_and_lambda_together_rejected(self):
        with pytest.raises(ParamError, match="both 'lam' and 'lambda'"):
            UnmixParams.from_dict({"lam": 0.3, "lambda": 0.7})

    @pytest.mark.parametrize(
        "kw",
        [
            {"delta": 0.0},
            {"order": 0},
            {"t1": 0},
            {"t2": 0},
            {"eps1": 0.0},
            {"sigma_s": "median"},
            {"beta": -1.0},
            {"lam": float("nan")},
            {"gamma": float("nan")},
            {"beta": float("inf")},
            {"mu": float("nan")},
            {"alpha": float("nan")},
            {"delta": float("inf")},
            {"sigma_s": float("nan")},
            {"sigma_l": float("inf")},
            {"eps1": float("nan")},
            {"eps2": float("inf")},
            {"lam": float("-inf")},
            {"seed": np.int64(1)},  # the manifest's JSON config cannot hold it
            {"lam": np.float32(0.1)},
            {"alpha": 0.0},  # fusion's weight step divides by alpha
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ParamError):
            UnmixParams(**kw)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParamError):
            UnmixParams.from_dict({"gammma": 1.0})

    @pytest.mark.parametrize("d", [[], "x", None])
    def test_non_object_rejected(self, d):
        with pytest.raises(ParamError):
            UnmixParams.from_dict(d)
