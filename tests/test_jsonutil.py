"""Deterministic JSON emission."""

import json
import math

import numpy as np
from hypothesis import given, strategies as st

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
        row = [1.0, math.nan, math.inf, -math.inf, 0.5]
        assert dumps(row) == "[1.0, NaN, Infinity, -Infinity, 0.5]"
        assert dumps(row) == elementwise(row)

    def test_numpy_scalars_and_matrix(self):
        mat = np.array([[0.0, 1.0 / 3.0, 1e16], [-0.0, 2.5, np.float64(7)]])
        expected = "[\n  " + elementwise(mat[0]) + ",\n  " + elementwise(mat[1]) + "\n]"
        assert dumps(mat) == expected
        assert dumps([np.float64(0.1), 0.2]) == elementwise([0.1, 0.2])

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=30))
    def test_any_floats(self, row):
        assert dumps(row) == elementwise(row)

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.integers(-10**18, 10**18)), min_size=1, max_size=30))
    def test_any_numbers(self, row):
        assert dumps(row) == elementwise(row)

    @given(st.lists(st.integers(-2**53, 2**53).map(float), min_size=1, max_size=30))
    def test_integral_floats(self, row):
        text = dumps(row)
        assert text == elementwise(row)
        assert json.loads(text) == row


class TestDumpPath:
    def test_text_longer_than_one_write(self, tmp_path, monkeypatch):
        import centrum.jsonutil as jsonutil_mod

        monkeypatch.setattr(jsonutil_mod, "_WRITE_SLICE", 7)
        doc = {"rows": np.arange(60, dtype=float).reshape(6, 10) / 7.0, "name": "é"}
        path = tmp_path / "doc.json"
        jsonutil_mod.dump_path(doc, path)
        assert path.read_text(encoding="utf-8") == dumps(doc) + "\n"
