"""File formats: signal readers, CSV map/matrix writers and binary PGM.

All numeric CSV output uses a fixed "%.15e" format with a fixed traversal
order, so identical inputs produce byte-identical files.  Complex entries
occupy two adjacent columns (re, im); the header row names the indices.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import InputFormatError

__all__ = [
    "read_signal",
    "read_complex_matrix_csv",
    "read_vector_csv",
    "format_real_map_csv",
    "format_complex_matrix_csv",
    "format_vector_csv",
    "pgm_bytes",
]

_FMT = "%.15e"


def _parse_number(token: str | float, where: str) -> float:
    try:
        value = float(token)
    except (ValueError, OverflowError):
        raise InputFormatError(f"could not parse number {token!r} at {where}") from None
    if not math.isfinite(value):
        raise InputFormatError(f"non-finite number {token!r} at {where}")
    return value


def _json_number(value, where: str) -> float:
    """A JSON number (not a bool, string or container) that is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"expected a number at {where}, got {value!r}")
    return _parse_number(value, where)


def read_vector_csv(path: str | Path) -> np.ndarray:
    """Read a complex vector: one sample per line, ``x`` or ``re,im``."""
    values = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) == 1:
            values.append(complex(_parse_number(parts[0], f"row {i}")))
        elif len(parts) == 2:
            values.append(complex(_parse_number(parts[0], f"row {i}, column 1"),
                                  _parse_number(parts[1], f"row {i}, column 2")))
        else:
            raise InputFormatError(
                f"row {i}: expected 1 (real) or 2 (re,im) columns, got {len(parts)}")
    if not values:
        raise InputFormatError(f"{path}: no samples found")
    return np.array(values, dtype=complex)


def read_signal(path: str | Path) -> np.ndarray:
    """Read a signal from CSV (see :func:`read_vector_csv`) or JSON.

    JSON is either a bare array of reals or an object
    ``{"d": int, "values": [x or [re, im], ...]}``.  Every entry must be a
    finite JSON number; ``NaN``, ``Infinity``, booleans and strings raise
    :class:`InputFormatError`, as does a ``d`` that is not an integer.
    """
    path = Path(path)
    if path.suffix.lower() != ".json":
        return read_vector_csv(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from exc
    if isinstance(payload, dict):
        declared = payload.get("d")
        entries = payload.get("values")
        if entries is None:
            raise InputFormatError(f"{path}: JSON object needs a 'values' field")
    elif isinstance(payload, list):
        declared, entries = None, payload
    else:
        raise InputFormatError(f"{path}: JSON must be an array or an object")
    if declared is not None and (isinstance(declared, bool) or not isinstance(declared, int)):
        raise InputFormatError(f"{path}: 'd' must be an integer, got {declared!r}")
    if not isinstance(entries, list):
        raise InputFormatError(f"{path}: 'values' must be an array")
    values = []
    for i, entry in enumerate(entries):
        where = f"{path}: values[{i}]"
        if not isinstance(entry, list):
            values.append(complex(_json_number(entry, where)))
        elif len(entry) == 2:
            values.append(complex(_json_number(entry[0], where + "[0]"),
                                  _json_number(entry[1], where + "[1]")))
        else:
            raise InputFormatError(f"{where} must be a number or [re, im]")
    if not values:
        raise InputFormatError(f"{path}: no samples found")
    signal = np.array(values, dtype=complex)
    if declared is not None and declared != signal.shape[0]:
        raise InputFormatError(
            f"{path}: declared d={declared} but {signal.shape[0]} samples present")
    return signal


def read_complex_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a square complex matrix written by :func:`format_complex_matrix_csv`.

    Layout: header line, then one line per row: row index followed by
    re,im pairs for each column.
    """
    try:
        lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise InputFormatError(f"{path}: expected a header and at least one data row")
    rows = []
    for i, raw in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) < 3 or (len(parts) - 1) % 2:
            raise InputFormatError(
                f"row {i}: expected an index followed by re,im pairs, got {len(parts)} fields")
        pairs = parts[1:]
        row = [complex(_parse_number(pairs[2 * j], f"row {i}, column {2 + 2 * j}"),
                       _parse_number(pairs[2 * j + 1], f"row {i}, column {3 + 2 * j}"))
               for j in range(len(pairs) // 2)]
        rows.append(row)
    mat = np.array(rows, dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        raise InputFormatError(
            f"{path}: matrix must be square, got {mat.shape[0]} rows x {mat.shape[1]} columns")
    return mat


def _table_csv(header: list[str], table: np.ndarray) -> str:
    """Header line, then per row its index and each entry as ``%.15e``."""
    row = "%d" + ("," + _FMT) * table.shape[1]
    lines = [",".join(header)]
    lines += [row % (i, *values) for i, values in enumerate(table.tolist())]
    return "\n".join(lines) + "\n"


def format_real_map_csv(arr: np.ndarray, row_label: str = "m", col_label: str = "n") -> str:
    arr = np.asarray(arr).real
    header = [row_label] + [f"{col_label}{j}" for j in range(arr.shape[1])]
    return _table_csv(header, arr)


def format_complex_matrix_csv(arr: np.ndarray, row_label: str = "l",
                              col_label: str = "lp") -> str:
    arr = np.ascontiguousarray(arr, dtype=complex)
    header = [row_label]
    for j in range(arr.shape[1]):
        header += [f"{col_label}{j}_re", f"{col_label}{j}_im"]
    return _table_csv(header, arr.view(float))


def format_vector_csv(vec: np.ndarray, label: str = "l") -> str:
    vec = np.ascontiguousarray(vec, dtype=complex)
    return _table_csv([label, "re", "im"], vec.reshape(-1, 1).view(float))


def pgm_bytes(magnitude: np.ndarray) -> bytes:
    """8-bit binary PGM (P5) of a nonnegative map, linearly scaled to 255."""
    arr = np.asarray(magnitude, dtype=float)
    peak = arr.max()
    if peak > 0:
        scaled = np.floor(arr / peak * 255.0 + 0.5)
    else:
        scaled = np.zeros_like(arr)
    data = np.clip(scaled, 0, 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    return header + data.tobytes()
