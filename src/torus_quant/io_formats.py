"""File formats: signal readers, CSV map/matrix writers and binary PGM.

These are the command line's formats; the package does not export them.

Every number in CSV output is exactly what Python's ``"%.15e" % x`` writes
(correctly rounded, ties to even), in a fixed traversal order, so identical
inputs produce byte-identical files.  Complex entries occupy two adjacent
columns (re, im); the header row names the indices.

The writer formats blocks of rows with numpy: a table gives each value's
exact decimal exponent, and its 16 significant digits come from one exact
double-double product (see :func:`_decimal`).  A value is formatted by
Python's own ``%`` instead only when it is not finite or when its 17th
significant digit onwards lies within 1e-9 of a rounding tie (exact ties
need a double with at most a few fraction bits, such as a 16-digit
half-integer).
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import InputFormatError
from .hilbert import row_blocks

_FMT = "%.15e"


def _parse_number(token: str | float, where: str) -> float:
    try:
        value = float(token)
    except (ValueError, OverflowError):
        raise InputFormatError(f"could not parse number {token!r} at {where}") from None
    if not math.isfinite(value):
        raise InputFormatError(f"non-finite number {token!r} at {where}")
    return value


def _read_text(path: str | Path) -> str:
    """The text of ``path``, less a leading BOM; a non-UTF-8 file raises InputFormatError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _table(rows: list[tuple[int, str]], first: int, counts: tuple, fault: str) -> np.ndarray:
    """Fields ``first`` onwards of each (line, text) row, read by ``float()`` a row at a time.

    A row's field count must be in ``counts``, else ``fault.format(line, count)``
    is raised; a shorter row leaves its last entries 0.  A row float() rejects or
    reads as non-finite is read again by :func:`_parse_number`, field by field.
    """
    table = np.zeros((len(rows), max(counts, default=first) - first))
    for r, (line, text) in enumerate(rows):
        fields = text.split(",")
        if len(fields) not in counts:
            raise InputFormatError(fault.format(line, len(fields)))
        try:
            values = list(map(float, fields[first:]))
            read = math.isfinite(sum(values))  # false for nan or inf, or an overflowing sum
        except ValueError:
            read = False
        if not read:
            where = f"row {line}" if len(fields) == 1 else f"row {line}, column {{}}"
            # stripped first: str.strip removes a few control characters that float() rejects
            values = [_parse_number(token.strip(), where.format(j))
                      for j, token in enumerate(fields[first:], start=first + 1)]
        table[r, :len(values)] = values
    return table


def read_vector_csv(path: str | Path) -> np.ndarray:
    """Read a complex vector, one sample per line: ``x`` or ``re,im``; skip blank and ``#`` lines.

    A first line ``l,re,im`` starts the table :func:`format_vector_csv`
    writes: each line after it holds an index, not read, then ``re,im``.
    """
    rows = [(i, s) for i, line in enumerate(_read_text(path).splitlines(), start=1)
            if (s := line.strip()) and not s.startswith("#")]
    if rows and rows[0][1] == "l,re,im":
        table = _table(rows[1:], 1, (3,), "row {}: expected 3 (l,re,im) columns, got {}")
    else:
        table = _table(rows, 0, (1, 2), "row {}: expected 1 (real) or 2 (re,im) columns, got {}")
    if not table.size:
        raise InputFormatError(f"{path}: no samples found")
    return table.view(complex).ravel()


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
    import json  # only JSON signals need it: not imported with the command line
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, (dict, list)):
        raise InputFormatError(f"{path}: JSON must be an array or an object")
    declared, entries = ((payload.get("d"), payload.get("values")) if isinstance(payload, dict)
                         else (None, payload))
    if entries is None:
        raise InputFormatError(f"{path}: JSON object needs a 'values' field")
    if declared is not None and (isinstance(declared, bool) or not isinstance(declared, int)):
        raise InputFormatError(f"{path}: 'd' must be an integer, got {declared!r}")
    if not isinstance(entries, list):
        raise InputFormatError(f"{path}: 'values' must be an array")
    table = np.zeros((len(entries), 2))
    for i, entry in enumerate(entries):
        where, pair = f"{path}: values[{i}]", isinstance(entry, list)
        if pair and len(entry) != 2:
            raise InputFormatError(f"{where} must be a number or [re, im]")
        for j, value in enumerate(entry if pair else [entry]):
            at = f"{where}[{j}]" if pair else where
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputFormatError(f"expected a number at {at}, got {value!r}")
            table[i, j] = _parse_number(value, at)
    if not entries:
        raise InputFormatError(f"{path}: no samples found")
    if declared is not None and declared != len(entries):
        raise InputFormatError(
            f"{path}: declared d={declared} but {len(entries)} samples present")
    return table.view(complex).ravel()


def read_complex_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a square complex matrix written by :func:`format_complex_matrix_csv`.

    Layout: header line, then one line per row: row index (not read)
    followed by re,im pairs for each column.  Blank lines are skipped.
    """
    rows = [(i, s) for i, line in enumerate(_read_text(path).splitlines(), start=1)
            if (s := line.strip())]
    if len(rows) < 2:
        raise InputFormatError(f"{path}: expected a header and at least one data row")
    count = rows[1][1].count(",") + 1  # the index and re,im pairs: odd, and at least 3
    mat = _table(rows[1:], 1, (count,) if count >= 3 and count % 2 else (),
                 "row {}: expected an index followed by re,im pairs "
                 f"(as many as on row {rows[1][0]}), got {{}} fields").view(complex)
    if mat.shape[0] != mat.shape[1]:
        raise InputFormatError(
            f"{path}: matrix must be square, got {mat.shape[0]} rows x {mat.shape[1]} columns")
    return mat


def _word(b0, b1, b2, b3) -> np.ndarray:
    """Four byte values as one little-endian uint32 per entry."""
    return np.asarray(b0 | b1 << 8 | b2 << 16 | b3 << 24, dtype="<u4")


# Each value is written into a 24-byte slot of six little-endian words:
#   (sign, d0, ".", d1) (d2..d5) (d6..d9) (d10..d13) (d14, d15, "e", exponent sign)
#   (hundreds or NUL, tens, ones, separator)
# where d0..d15 are the 16 significant digits.  NUL bytes are dropped afterwards.
_SLOT_WORDS = 6
_ZERO, _DOT, _E, _PLUS, _MINUS = 48, 46, 101, 43, 45
#: smallest decimal exponent of a nonzero double; the largest is 308
_EXP_MIN = -324
#: np.frexp exponents of nonzero finite doubles are -1073..1024
_FREXP_MIN, _FREXP_MAX = -1073, 1024
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
#: a rounding within this distance of a half-integer is left to Python's own %.15e
_TIE_MARGIN = 1e-9


@functools.cache
def _tables() -> SimpleNamespace:
    """Lookup tables of the writer, built on its first use, not at import.

    ``k0[i]`` is the decimal exponent of 2**(e - 1), the smallest double
    with frexp exponent e = i + _FREXP_MIN; (e - 1) log10(2) stays at least
    4e-4 from every integer but 0, so the floor below is exact.  ``up[i]``
    is the smallest double >= 10**(k0[i] + 1) / 2**e, so f 2**e with f in
    [0.5, 1) has the exact decimal exponent k0[i] + j, j = (f >= up[i]).
    ``hi``, ``lo`` (and ``hi`` split in ``head`` + ``tail`` for Dekker's
    product) hold 2**e 10**(15 - k0[i] - j) as a double-double at index
    2 i + j.  :func:`_fill_scales` computes ``up`` and the scales as
    exponents appear.
    """
    pairs, quads, exps = np.arange(100), np.arange(10000), np.arange(_EXP_MIN, 310)
    mag = np.abs(exps)
    n_frexp = _FREXP_MAX - _FREXP_MIN + 1
    hi, lo, head, tail = np.zeros((4, 2 * n_frexp))
    return SimpleNamespace(
        lead=_word(0, _ZERO + pairs // 10, _DOT, _ZERO + pairs % 10),
        quad=_word(_ZERO + quads // 1000, _ZERO + quads // 100 % 10,
                   _ZERO + quads // 10 % 10, _ZERO + quads % 10),
        pair=_word(_ZERO + pairs // 10, _ZERO + pairs % 10, _E, 0),
        exp_sign=_word(0, 0, 0, np.where(exps < 0, _MINUS, _PLUS)),
        exp_digits=_word(np.where(mag >= 100, _ZERO + mag // 100, 0),
                         _ZERO + mag // 10 % 10, _ZERO + mag % 10, 0),
        k0=np.floor((np.arange(n_frexp) + _FREXP_MIN - 1) * np.log10(2.0)).astype(np.int64),
        up=np.zeros(n_frexp), hi=hi, lo=lo, head=head, tail=tail,
        ready=np.zeros(n_frexp, dtype=bool))


def _fill_scales(t: SimpleNamespace, ei: np.ndarray) -> None:
    """Compute ``up`` and the scales of the frexp exponent indices ``ei`` not yet known."""
    needed = np.zeros_like(t.ready)
    needed[ei] = True
    for i in np.flatnonzero(needed & ~t.ready).tolist():
        e, k0 = i + _FREXP_MIN, int(t.k0[i])
        num = 10 ** max(k0 + 1, 0) * 2 ** max(-e, 0)
        den = 10 ** max(-k0 - 1, 0) * 2 ** max(e, 0)
        up = num / den  # int / int is correctly rounded: up is raised if it fell below
        a, b = up.as_integer_ratio()
        t.up[i] = up if a * den >= num * b else math.nextafter(up, math.inf)
        for j in (0, 1):
            s = 15 - k0 - j
            num = 2 ** max(e, 0) * 10 ** max(s, 0)
            den = 2 ** max(-e, 0) * 10 ** max(-s, 0)
            hi = num / den
            a, b = hi.as_integer_ratio()
            c = _SPLIT * hi
            at = 2 * i + j
            t.hi[at], t.lo[at] = hi, (num * b - a * den) / (den * b)
            t.head[at] = c - (c - hi)
            t.tail[at] = hi - t.head[at]
        t.ready[i] = True


def _workspace(rows: int, width: int) -> SimpleNamespace:
    """The writer's scratch arrays for blocks of up to ``rows`` x ``width`` values.

    One workspace serves every block of a table, so a block allocates
    nothing but its compacted text.  ``real`` has nine rows of one float64
    per value; ``ints`` and ``u32`` view the same memory as int64 and
    uint32, so a row holds an integer intermediate once its float one is
    no longer needed.  ``flags`` has three bool rows.  ``text`` holds a
    block's text, viewed as ``slots`` of six words, so that one
    ``bytearray.translate`` drops its NUL bytes.
    """
    real = np.empty((9, rows * width))
    text = bytearray(rows * (width + 1) * 4 * _SLOT_WORDS)
    return SimpleNamespace(real=real, ints=real.view(np.int64), u32=real.view("<u4"),
                           flags=np.empty((3, rows * width), dtype=bool), text=text,
                           slots=np.frombuffer(text, "<u4").reshape(rows, width + 1, _SLOT_WORDS))


def _decimal(block: np.ndarray, ws: SimpleNamespace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """16 significant digits N, decimal exponent k and fallback mask of each entry, flattened.

    |x| = f 2**e has decimal exponent k = k0 + (f >= up), exactly (see
    :func:`_tables`), and is scaled to V = f C with C = 2**e 10**(15 - k)
    in [1e15, 1e16), so that the 16 significant digits are N = round(V);
    a V that rounds to 1e16 gives N = 1e15 and k + 1.  C is a double-double
    and f C is formed exactly by Dekker's product, so the fraction of V is
    known to ~1e-15.  A value is left to Python's ``%`` only when it is not
    finite or when V lies within _TIE_MARGIN of a half-integer; everything
    else is exactly what ``"%.15e" % x`` writes.  N and k of a fallback
    entry are in range of the tables but meaningless.

    Every intermediate lives in the workspace ``ws`` (see :func:`_workspace`);
    N, k and the mask are returned in its rows ``ints[0]``, ``ints[1]`` and
    ``flags[2]``, and its other rows are free for the caller.
    """
    t = _tables()
    size = block.size
    f, _, _, ph, f_head, f_tail, head, tail, pl = (row[:size] for row in ws.real)
    n, k, at, _, _, _, _, _, spare = (row[:size] for row in ws.ints)
    bad, flag, fallback = (row[:size] for row in ws.flags)
    np.abs(block, out=f.reshape(block.shape))
    np.isfinite(f, out=bad)
    np.logical_not(bad, out=bad)
    if bad.any():
        np.copyto(f, 0.0, where=bad)
    e = k.view(np.int32)[:size]  # frexp's int32 exponents, in k's row until k is formed
    np.frexp(f, out=(f, e))
    np.subtract(e, _FREXP_MIN, out=at)
    # every index is in range; only mode="clip" lets np.take fill ``out`` without a copy
    if not np.take(t.ready, at, out=flag, mode="clip").all():
        _fill_scales(t, at)
    np.take(t.k0, at, out=k, mode="clip")
    np.greater_equal(f, np.take(t.up, at, out=ph, mode="clip"), out=flag)
    k += flag
    at *= 2
    at += flag
    np.multiply(f, np.take(t.hi, at, out=ph, mode="clip"), out=ph)
    # f = f_head + f_tail in 26-bit halves: c = _SPLIT f, f_head = c - (c - f)
    np.multiply(f, _SPLIT, out=f_head)
    np.subtract(f_head, f, out=f_tail)
    np.subtract(f_head, f_tail, out=f_head)
    np.subtract(f, f_head, out=f_tail)
    np.take(t.head, at, out=head, mode="clip")
    np.take(t.tail, at, out=tail, mode="clip")
    # pl = (f_head head - ph + f_head tail + f_tail head) + f_tail tail
    np.multiply(f_head, head, out=pl)
    pl -= ph
    f_head *= tail
    pl += f_head
    head *= f_tail
    pl += head
    tail *= f_tail
    pl += tail
    # N = ih + rint(u): ih = rint(ph), u = (ph - ih) + pl + f lo in ph's row
    ih = head
    np.rint(ph, out=ih)
    u = ph
    u -= ih
    u += pl
    np.multiply(f, np.take(t.lo, at, out=tail, mode="clip"), out=tail)
    u += tail
    q = tail
    np.rint(u, out=q)
    u -= q  # V - N, to ~1e-15
    # N = ih + q in int64: N exceeds 2**53, where a float sum would round
    np.copyto(n, ih, casting="unsafe")
    np.copyto(spare, q, casting="unsafe")
    n += spare
    np.equal(n, 10**16, out=flag)  # 10**15 of the next decade
    np.copyto(n, 10**15, where=flag)
    k += flag
    np.equal(n, 0, out=flag)  # zero, whose k0 is -1, is written with exponent 0
    np.copyto(k, 0, where=flag)
    np.greater(np.abs(u, out=u), 0.5 - _TIE_MARGIN, out=fallback)
    fallback |= bad
    return n, k, fallback


def _format_block(block: np.ndarray, first_row: int, ws: SimpleNamespace) -> bytearray:
    """Rows of ``block`` as ASCII CSV lines: the row index, then each entry as ``%.15e``.

    The digits come from :func:`_decimal`; the fallback entries are
    written by Python's ``%``.  The text is built in the workspace ``ws``;
    only the returned, compacted copy is allocated.
    """
    t = _tables()
    rows, width = block.shape
    size = block.size
    n, k, fallback = _decimal(block, ws)
    n, k = n.reshape(block.shape), k.reshape(block.shape)
    _, _, high, top, mid, low, mid_head, low_head, _ = (
        row[:size].reshape(block.shape) for row in ws.ints)
    word = ws.u32[8, :size].reshape(block.shape)
    # floor division by a constant is vectorized by numpy, % and divmod are not
    np.floor_divide(n, 10**6, out=high)
    np.floor_divide(high, 10**8, out=top)
    np.subtract(high, np.multiply(top, 10**8, out=mid), out=mid)
    np.subtract(n, np.multiply(high, 10**6, out=low), out=low)
    np.floor_divide(mid, 10**4, out=mid_head)
    np.floor_divide(low, 100, out=low_head)
    mid_tail, low_tail = high, n
    np.subtract(mid, np.multiply(mid_head, 10**4, out=mid_tail), out=mid_tail)
    np.subtract(low, np.multiply(low_head, 100, out=low_tail), out=low_tail)
    k -= _EXP_MIN
    sign_word = ws.u32[4, :size].reshape(block.shape)  # mid's row, free from here on
    slots = ws.slots[:rows]
    words = slots[:, 1:]
    np.copyto(sign_word, np.signbit(block, out=ws.flags[0, :size].reshape(block.shape)))
    sign_word *= _MINUS
    words[..., 0] = np.bitwise_or(np.take(t.lead, top, out=word, mode="clip"), sign_word,
                                  out=word)
    for j, table, index in ((1, t.quad, mid_head), (2, t.quad, mid_tail),
                            (3, t.quad, low_head), (5, t.exp_digits, k)):
        words[..., j] = np.take(table, index, out=word, mode="clip")
    np.take(t.pair, low_tail, out=word, mode="clip")
    word |= np.take(t.exp_sign, k, out=sign_word, mode="clip")
    words[..., 4] = word
    text = slots.view(np.uint8).reshape(rows, width + 1, 4 * _SLOT_WORDS)
    index = b"".join(b"%-23d" % i for i in range(first_row, first_row + rows))
    text[:, 0, :23] = np.frombuffer(index.replace(b" ", b"\0"), np.uint8).reshape(rows, 23)
    for at in np.flatnonzero(fallback).tolist():
        r, col = divmod(at, width)
        exact = (_FMT % block[r, col]).encode("ascii")
        text[r, col + 1, :23] = 0
        text[r, col + 1, :len(exact)] = np.frombuffer(exact, np.uint8)
    text[:, :, 23] = ord(",")
    text[:, -1, 23] = ord("\n")
    ws.slots[rows:] = 0  # the rows past a short last block
    return ws.text.translate(None, b"\0")


def _table_csv(header: list[str], table: np.ndarray, write) -> None:
    """Header line, then per row its index and each entry as ``%.15e``, in ASCII.

    Each piece goes to ``write`` as soon as it is formatted: the header as
    bytes, then each block of rows as a bytearray of its text.  The other
    writers below pass bytes-like pieces the same way.  A piece is valid
    only until ``write`` returns: ``write`` must copy what it keeps.  The
    blocks share one workspace, sized to the first (largest) block.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, width = table.shape
    write((",".join(header) + "\n").encode("ascii"))
    blocks = row_blocks(rows, width)
    if blocks:
        ws = _workspace(blocks[0].stop, width)
    for block in blocks:
        write(_format_block(table[block], block.start, ws))


def format_real_map_csv(arr: np.ndarray, write) -> None:
    arr = np.asarray(arr).real
    _table_csv(["m"] + [f"n{j}" for j in range(arr.shape[1])], arr, write)


def format_complex_matrix_csv(arr: np.ndarray, write, row_label: str = "l",
                              col_label: str = "lp") -> None:
    arr = np.ascontiguousarray(arr, dtype=complex)
    header = [row_label]
    for j in range(arr.shape[1]):
        header += [f"{col_label}{j}_re", f"{col_label}{j}_im"]
    _table_csv(header, arr.view(float), write)


def format_vector_csv(vec: np.ndarray, write) -> None:
    vec = np.ascontiguousarray(vec, dtype=complex)
    _table_csv(["l", "re", "im"], vec.reshape(-1, 1).view(float), write)


def pgm_bytes(magnitude: np.ndarray, write) -> None:
    """8-bit binary PGM (P5) of a nonnegative map, linearly scaled to 255, by blocks of rows."""
    arr = np.asarray(magnitude, dtype=float)
    peak = arr.max()
    write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
    for rows in row_blocks(*arr.shape):
        block = arr[rows]
        scaled = np.floor(block / peak * 255.0 + 0.5) if peak > 0 else np.zeros_like(block)
        write(np.clip(scaled, 0, 255).astype(np.uint8).ravel())
