"""Deterministic JSON emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from centrum.errors import NonFinite
from centrum.jsonutil import dumps, format_float


def elementwise(row):
    """The row as _emit wrote it entry by entry before rows were
    formatted at once: the reference for byte identity."""
    parts = []
    for v in row:
        if isinstance(v, bool):
            parts.append("true" if v else "false")
        elif isinstance(v, (int, np.integer)):
            parts.append(str(int(v)))
        else:
            parts.append(format_float(float(v)))
    return "[" + ", ".join(parts) + "]"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e15 + 1, 1e16, -1e16, 1e17, 123456789.0,
               0.1, 2.0, -3.5, 1.7976931348623157e308, 2.2250738585072014e-308,
               9007199254740993.0, 1e16 - 2, 0.30000000000000004]


class TestNumericRows:
    def test_edge_values(self):
        assert dumps(EDGE_FLOATS) == elementwise(EDGE_FLOATS)

    def test_edge_values_one_per_row(self):
        for v in EDGE_FLOATS:
            assert dumps([v]) == elementwise([v]) == "[" + format_float(v) + "]"

    def test_integral_below_and_above_1e16(self):
        assert dumps([1e16]) == "[10000000000000000]"
        assert dumps([1e15 + 1, -0.0, 1e17]) == "[1000000000000001.0, -0.0, 1e+17]"

    def test_ints_mixed_with_floats(self):
        row = [1, 2.0, np.int64(3), 2.5, True, np.float64(4.0), 10**20]
        assert dumps(row) == elementwise(row)
        assert dumps(row) == "[1, 2.0, 3, 2.5, true, 4.0, 100000000000000000000]"

    def test_non_finite(self):
        # JSON has no NaN or Infinity: every path raises instead of writing one
        for bad in (math.nan, math.inf, -math.inf):
            pattern = r"^the non-finite float %s has no JSON form$" % bad
            for doc in ([1.0, bad, 0.5], [1, bad], bad, {"x": np.float64(bad)},
                        np.array([0.5, bad]), np.array([[0.5], [bad]])):
                with pytest.raises(NonFinite, match=pattern):
                    dumps(doc)
            with pytest.raises(NonFinite, match=pattern):
                format_float(bad)

    def test_numpy_scalars_and_matrix(self):
        mat = np.array([[0.0, 1.0 / 3.0, 1e16], [-0.0, 2.5, np.float64(7)]])
        expected = "[\n  " + elementwise(mat[0]) + ",\n  " + elementwise(mat[1]) + "\n]"
        assert dumps(mat) == expected
        assert dumps([np.float64(0.1), 0.2]) == elementwise([0.1, 0.2])

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30))
    def test_any_floats(self, row):
        if all(map(math.isfinite, row)):
            assert dumps(row) == elementwise(row)
        else:
            for write in (dumps, elementwise):
                with pytest.raises(NonFinite):
                    write(row)

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.integers(-10**18, 10**18)), min_size=1, max_size=30))
    def test_any_numbers(self, row):
        assert dumps(row) == elementwise(row)

    @given(st.lists(st.integers(-2**53, 2**53).map(float), min_size=1, max_size=30))
    def test_integral_floats(self, row):
        text = dumps(row)
        assert text == elementwise(row)
        assert json.loads(text) == row


def rowwise(mat, level=0):
    """The matrix as _emit wrote it one row at a time before matrices
    were formatted at once, at nesting depth level."""
    pad, inner = "  " * level, "  " * (level + 1)
    return "[\n" + ",\n".join(inner + elementwise(row.tolist()) for row in mat) + "\n" + pad + "]"


_MATRIX_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**60, 2**60).map(float),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, np.nextafter(1e16, 0), np.nextafter(-1e16, 0),
                     1e16 + 2, 0.5, 5e-324]),
)


@st.composite
def float_matrices(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(rows, cols), (1, cols), (rows, 1)]))
    values = draw(st.lists(_MATRIX_VALUES, min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]))
    return np.array(values, dtype=float).reshape(shape)


class TestMatrices:
    """2-d float arrays, formatted at once, against the row path."""

    @given(float_matrices())
    def test_same_bytes_as_the_row_path(self, mat):
        assert dumps(mat) == rowwise(mat)
        assert dumps({"m": mat}) == '{\n  "m": ' + rowwise(mat, 1) + "\n}"

    def test_random_and_integral_matrices(self):
        rng = np.random.default_rng(3)
        for shape in ((1, 7), (7, 1), (300, 2), (40, 33)):
            for mat in (rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape),
                        np.trunc(rng.normal(size=shape) * 1e17),
                        rng.integers(-100, 100, size=shape).astype(float)):
                mat.flat[0] = -0.0
                assert dumps(mat) == rowwise(mat)

    def test_edge_values(self):
        mat = np.array(EDGE_FLOATS[:16]).reshape(4, 4)
        assert dumps(mat) == rowwise(mat)

    @pytest.mark.parametrize("cells", [1, 5, 6, 7, 1 << 16])
    def test_blocks_of_rows(self, cells, monkeypatch):
        import centrum.jsonutil as jsonutil_mod

        monkeypatch.setattr(jsonutil_mod, "_FORMAT_CELLS", cells)
        mat = np.arange(42, dtype=float).reshape(7, 6) / 3.0
        assert dumps(mat) == rowwise(mat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_row(self, bad):
        mat = np.arange(12, dtype=float).reshape(4, 3) / 7.0
        mat[2, 1] = bad
        with pytest.raises(NonFinite, match="non-finite float %s" % bad):
            dumps(mat)
        with pytest.raises(NonFinite):
            rowwise(mat)

    def test_other_arrays_keep_the_row_path(self):
        for mat in (np.arange(6).reshape(2, 3), np.zeros((2, 0)),
                    np.array([[True, False]]), np.ones((2, 2), dtype=np.float32) / 3):
            assert dumps(mat) == rowwise(mat)
        assert dumps(np.zeros((0, 2))) == "[]"


class TestDumpPath:
    def test_text_longer_than_one_write(self, tmp_path, monkeypatch):
        import centrum.jsonutil as jsonutil_mod

        monkeypatch.setattr(jsonutil_mod, "_WRITE_SLICE", 7)
        doc = {"rows": np.arange(60, dtype=float).reshape(6, 10) / 7.0, "name": "é"}
        path = tmp_path / "doc.json"
        jsonutil_mod.dump_path(doc, path)
        assert path.read_text(encoding="utf-8") == dumps(doc) + "\n"
