"""Deterministic JSON emission.

The stdlib json module formats floats with repr, which is already
round-trip safe, but we want byte-identical output across runs and
platforms for diffable reports, so every float goes through one
formatting routine (17 significant digits). Only the types our own
data structures produce are supported. JSON has no NaN or infinity, so
a non-finite float raises NonFinite instead of being written.
"""

import json
import math

import numpy as np

from .errors import NonFinite

_FLOAT_TYPES = {float, np.float64}
_WRITE_SLICE = 1 << 16  # characters per write in dump_path
_FORMAT_CELLS = 1 << 16  # matrix entries per %-format in _float_matrix
_INDENT = 2  # spaces per nesting level


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise NonFinite("the non-finite float %r has no JSON form" % value)
    if value == int(value) and abs(value) < 1e16:
        # keep 2.0 as 2.0, not 2
        return "%.1f" % value
    return format(value, ".17g")


def _specs(values: np.ndarray) -> list:
    """The %-format spec of each float, as nested lists shaped like
    values: "%.1f" where format_float keeps an integral value below 1e16,
    "%.17g" elsewhere ("%.17g" % v is format(v, ".17g")), so a format
    built from them matches format_float entry by entry."""
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    return np.where(integral, "%.1f", "%.17g").tolist()


def _check_finite(values: np.ndarray) -> None:
    """Raise NonFinite, as format_float does, on the first entry of
    values that is not finite."""
    if not np.isfinite(values).all():
        format_float(float(values.flat[np.argmin(np.isfinite(values))]))


def _float_row(seq: list, values: np.ndarray) -> str:
    """A row of finite floats as "[a, b, ...]", by one %-format string;
    seq holds the floats and values the same floats as an array."""
    return ("[" + ", ".join(_specs(values)) + "]") % tuple(seq)


def _float_matrix(matrix: np.ndarray, pad: str, inner: str) -> str:
    """A 2-d float64 array of finite values, as _emit writes it row by
    row (one indented row per line), with one %-format string per block
    of rows. Blocks of at most _FORMAT_CELLS entries bound the Python
    floats and spec strings alive at once."""
    sep = "],\n" + inner + "["
    step = max(1, _FORMAT_CELLS // matrix.shape[1])
    blocks = []
    for lo in range(0, len(matrix), step):
        block = matrix[lo:lo + step]
        rows = sep.join(map(", ".join, _specs(block)))
        blocks.append(rows % tuple(block.ravel().tolist()))
    return "[\n" + inner + "[" + sep.join(blocks) + "]\n" + pad + "]"


def _emit(obj, level: int, pieces: list) -> None:
    pad = " " * (_INDENT * level)
    inner = " " * (_INDENT * (level + 1))
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings, got %r" % (key,))
            pieces.append(inner + json.dumps(key) + ": ")
            _emit(val, level + 1, pieces)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim > 1:
        if obj.ndim == 2 and obj.dtype == np.float64 and obj.size:
            _check_finite(obj)
            pieces.append(_float_matrix(obj, pad, inner))
            return
        _emit(list(obj), level, pieces)  # row by row: other dtypes
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            pieces.append("[]")
            return
        # short numeric rows stay on one line so matrices read naturally
        if set(map(type, seq)) <= _FLOAT_TYPES:
            values = np.asarray(obj, dtype=float)
            _check_finite(values)
            pieces.append(_float_row(seq, values))
            return
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            parts = []
            for v in seq:
                sub: list = []
                _emit(v, 0, sub)
                parts.append("".join(sub))
            pieces.append("[" + ", ".join(parts) + "]")
            return
        pieces.append("[\n")
        for i, val in enumerate(seq):
            pieces.append(inner)
            _emit(val, level + 1, pieces)
            pieces.append(",\n" if i < len(seq) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj) -> str:
    pieces: list = []
    _emit(obj, 0, pieces)
    return "".join(pieces)


def dump_path(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        text = dumps(obj)
        # in slices, so encoding never holds a second copy of a large text
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start:start + _WRITE_SLICE])
        fh.write("\n")
