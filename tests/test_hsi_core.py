import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mognmf import hsi_core, workers
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
from oracle import correlation_eigenvectors


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

    @pytest.mark.parametrize(
        "header",
        [{"bands": True, "height": 3, "width": 12}, {"bands": 3, "height": 3.9, "width": 4},
         {"bands": "3", "height": 3, "width": 4}, {"bands": 3, "height": 3, "width": 4.0},
         {"bands": -3, "height": -3, "width": 4}],
        ids=["bool", "fraction", "string", "float", "negative"],
    )
    def test_sidecar_dimensions_must_be_json_integers(self, tmp_path, header):
        # each header's int() values fit the 36 floats of the file, so a cast loads it
        (tmp_path / "cube.raw").write_bytes(np.ones(36, dtype="<f4").tobytes())
        (tmp_path / "cube.raw.json").write_text(json.dumps(header))
        with pytest.raises(ParseError, match="JSON integers"):
            load_cube(tmp_path / "cube.raw", format="raw-f32")

    @pytest.mark.parametrize("height, width", [(0, 4), (2.0, 2), (True, 4), (2, np.float64(2.0))])
    def test_height_and_width_are_positive_integers(self, height, width):
        # a float or a bool is no grid size, though height * width may be N
        with pytest.raises(ParamError, match="height and width must be positive integers"):
            HsiCube(data=np.ones((2, 4)), height=height, width=width)

    def test_grid_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            HsiCube(data=np.ones((2, 5)), height=2, width=2)

    @pytest.mark.parametrize("view", ["columns", "reshaped"])
    def test_a_write_through_the_base_leaves_the_cube_alone(self, view):
        # a view is copied, so neither the data nor its cached gram goes stale;
        # np.load returns a reshaped view of a flat array
        base = np.random.default_rng(4).random((3, 24) if view == "columns" else 36)
        cube = HsiCube(data=base[:, :12] if view == "columns" else base.reshape(3, 12),
                       height=3, width=4)
        data, gram = cube.data.copy(), cube.gram.copy()
        base[:] = 7.0
        assert np.array_equal(cube.data, data)
        assert np.array_equal(cube.gram, gram)

    def test_owned_arrays_are_kept_and_loaders_pass_owned_arrays(self, tmp_path, monkeypatch):
        data = np.random.default_rng(5).random((4, 6))
        assert HsiCube(data=data, height=2, width=3).data is data
        assert not data.flags.writeable
        cube = HsiCube(data=data.astype(np.float32).astype(np.float64), height=2, width=3)
        save_cube(cube, tmp_path / "cube.raw")
        save_cube(cube, tmp_path / "cube.csv", format="csv")
        passed = []

        def recording(data, height, width):
            passed.append(data.base is None)
            return HsiCube(data, height, width)

        monkeypatch.setattr(hsi_core, "HsiCube", recording)
        load_cube(tmp_path / "cube.raw")
        load_cube(tmp_path / "cube.csv", format="csv")
        assert passed == [True, True]

    def test_gram_and_basis_keep_their_bits_under_two_blas_threads(self):
        # at L = 100, N = 4096 OpenBLAS's X X^T changes bits with its thread
        # count on a 2-core Linux box; the cube pins it itself
        setters = workers._openblas()
        if not setters:
            pytest.skip("no OpenBLAS thread-count setter found")
        data = np.random.default_rng(6).random((100, 4096))
        with workers.blas_pinned():
            gram = data @ data.T
            basis = correlation_eigenvectors(data)
        saved = [get() for get, _ in setters]
        try:
            for _, put in setters:
                put(2)
            cube = HsiCube(data=data, height=64, width=64)
            got = cube.gram, cube.signal_basis
            assert [get() for get, _ in setters] == [2] * len(setters)
        finally:
            for (_, put), count in zip(setters, saved):
                put(count)
        assert np.array_equal(got[0], gram)
        assert np.array_equal(got[1], basis)
        assert not got[0].flags.writeable and not got[1].flags.writeable


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


def _savetxt_text(matrix) -> str:
    out = io.StringIO()
    np.savetxt(out, matrix, delimiter=",", fmt="%.17g")
    return out.getvalue()


def _written_text(matrix) -> str:
    out = io.StringIO()
    write_matrix(out, matrix)
    return out.getvalue()


# each one's digits or layout needs a case of its own: the signed zeros,
# non-finite values, subnormals and the ends of the certified range,
# values below a power of ten whose 17 digits round up to it (the doubles
# nearest 1e-14 and 1e-79), the edges of fixed-point notation, and exact
# ties at the 18th digit (half-even)
_SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e-200, 1e200, 1.7976931348623157e308, 1e-14, 1e-79, 1e17, 123456789012345678.0,
            1e-4, 9.999999999999999e-5, 1e-5, 1e16, 1.5, 1125899906842624.25,
            1125899906842624.75, 2251799813685248.5, 0.1, 1 / 3]


def _floats(bits):
    """Float64 values with the given bit patterns."""
    return np.array(bits, dtype=np.uint64).view(np.float64)


class TestWriteMatrixBytes:
    """write_matrix writes the bytes of np.savetxt(fmt="%.17g", delimiter=",")."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    @example(bits=list(np.array(_SPECIAL).view(np.uint64)))
    def test_every_float64_is_formatted_as_python_does(self, bits):
        values = _floats(bits)
        assert _written_text(values) == "".join(f"{'%.17g' % v}\n" for v in values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=50))
    def test_drawn_floats_are_formatted_as_python_does(self, values):
        values = np.array(values, dtype=np.float64)
        assert _written_text(values) == "".join(f"{'%.17g' % v}\n" for v in values)

    def test_powers_of_ten_and_their_neighbours(self):
        # 10^k and the floats beside it sit where the decimal exponent changes
        tens = 10.0 ** np.arange(-323, 309)
        values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
        values = np.concatenate([values, -values])
        assert _written_text(values) == "".join(f"{'%.17g' % v}\n" for v in values)

    @pytest.mark.parametrize(
        "shape", [(7,), (1, 9), (9, 1), (3, 4), (3, 1500), (1, 5000), (2, 4097), (3000, 3),
                  (0,), (0, 3), (3, 0)],
        ids=["1d", "1xN", "Nx1", "small", "rows_straddle_chunk", "row_over_chunk",
             "row_one_over_chunk", "many_rows", "empty_1d", "no_rows", "no_columns"],
    )
    def test_matrix_bytes_are_savetxts(self, shape):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        matrix.flat[::7] = 0.0
        assert _written_text(matrix) == _savetxt_text(matrix)

    def test_strided_view_matches_savetxt(self):
        # values are read in row-major order whatever the memory layout
        matrix = np.random.default_rng(15).random((3000, 5))[::2].T
        assert _written_text(matrix) == _savetxt_text(matrix)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.int32])
    def test_other_dtypes_match_savetxt(self, dtype):
        matrix = (np.random.default_rng(12).standard_normal((4, 6)) * 1e6).astype(dtype)
        assert _written_text(matrix) == _savetxt_text(matrix)

    def test_path_bytes_are_savetxts(self, tmp_path):
        matrix = np.random.default_rng(13).random((20, 300))
        matrix[3, :5] = [np.nan, -np.inf, -0.0, 1e-300, 1e300]
        write_matrix(tmp_path / "ours.csv", matrix)
        np.savetxt(tmp_path / "numpy.csv", matrix, delimiter=",", fmt="%.17g")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    def test_open_handle_after_a_header(self, tmp_path):
        # as the CSV cube writer does: the matrix follows what the handle holds
        matrix = np.random.default_rng(14).random((3, 4))
        with open(tmp_path / "cube.csv", "w") as fh:
            fh.write("3,2,2\n")
            write_matrix(fh, matrix)
        assert (tmp_path / "cube.csv").read_text() == "3,2,2\n" + _savetxt_text(matrix)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_other_ranks_are_refused_before_the_file_is_opened(self, tmp_path, shape):
        with pytest.raises(ShapeError, match="1-D or 2-D"):
            write_matrix(tmp_path / "m.csv", np.zeros(shape))
        assert not (tmp_path / "m.csv").exists()

    def test_unwritable_target_is_an_io_error(self, tmp_path):
        with pytest.raises(IoError, match="failed to write"):
            write_matrix(tmp_path / "absent" / "m.csv", np.zeros((2, 2)))


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
            {"seed": -1},  # a seed outside 64 bits would share a stream with one inside
            {"seed": 1 << 64},
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
