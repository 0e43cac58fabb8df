import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from torus_quant import (
    FiducialSpec,
    InputFormatError,
    gabor_transform,
    realize_fiducial,
)
from torus_quant import io_formats
from torus_quant.hilbert import BLOCK_VALUES
from torus_quant.signals import column_energy, dominant_rows, envelope_spectrum, period_estimate
from torus_quant.io_formats import (
    _table_csv,
    format_complex_matrix_csv,
    format_real_map_csv,
    format_vector_csv,
    pgm_bytes,
    read_complex_matrix_csv,
    read_signal,
    read_vector_csv,
)

from conftest import written_bytes
from oracles import table_csv_reference

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

#: repeating patterns of the demo signals in ``data/`` (periods 6, 15 and 10)
SIGNAL_PATTERNS = {
    1: (2, 4, 4, 3, 3, 5),
    2: (0, 0, 0, 3, 3, -2, 1, 1, 1, 4, -1, -1, 2, 2, 2),
}


def demo_signal(index: int, length: int = 60) -> np.ndarray:
    """Demo signal 1 (period 6), 2 (period 15) or 3 (their sum, period 10)."""
    if index in SIGNAL_PATTERNS:
        pattern = np.array(SIGNAL_PATTERNS[index], dtype=float)
        reps, rem = divmod(length, len(pattern))
        if rem:
            raise ValueError(f"length {length} is not a multiple of the period {len(pattern)}")
        return np.tile(pattern, reps)
    if index == 3:
        return demo_signal(1, length) + demo_signal(2, length)
    raise ValueError(f"unknown demo signal {index}")


def harmonic_energy_fraction(power: np.ndarray, base: int) -> float:
    """Fraction of off-DC envelope power on rows that are multiples of ``base``."""
    power = np.asarray(power, dtype=float)
    d = power.shape[0]
    if not 0 < base < d:
        raise ValueError(f"harmonic base {base} out of range (0, {d})")
    off_dc = power[1:].sum()
    if off_dc <= 0:
        return 0.0
    rows = np.arange(d)
    on_multiples = power[(rows % base == 0) & (rows != 0)].sum()
    return float(on_multiples / off_dc)


class TestDemoSignals:
    def test_patterns_and_lengths(self):
        s1 = demo_signal(1, 60)
        s2 = demo_signal(2, 60)
        s3 = demo_signal(3, 60)
        assert s1[:6].tolist() == [2, 4, 4, 3, 3, 5]
        assert s2[:15].tolist() == [0, 0, 0, 3, 3, -2, 1, 1, 1, 4, -1, -1, 2, 2, 2]
        assert np.array_equal(s3, s1 + s2)
        assert s3[:10].tolist() == [2, 4, 4, 6, 6, 3, 3, 5, 5, 7]
        assert np.array_equal(s3[:30], s3[30:])

    def test_incompatible_length_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            demo_signal(1, 50)

    def test_unknown_index(self):
        with pytest.raises(ValueError, match="unknown"):
            demo_signal(4)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_shipped_files_match_generator(self, k):
        shipped = read_signal(DATA_DIR / f"signal{k}.csv")
        assert np.array_equal(shipped.real, demo_signal(k, 60))
        assert np.abs(shipped.imag).max() == 0.0


class TestPeriodDetection:
    def test_toy_periodic_signal(self):
        d, period = 12, 3
        signal = np.tile([1.0, 4.0, 2.0], d // period)
        window = realize_fiducial(FiducialSpec("von_mises", 50.0), d)
        power = envelope_spectrum(column_energy(np.abs(gabor_transform(signal, window))))
        base = d // period
        assert harmonic_energy_fraction(power, base) > 0.99
        rows = dominant_rows(power)
        assert rows and all(r % base == 0 for r in rows)
        assert period_estimate(d, rows) == period

    @pytest.mark.parametrize("noise", [-2.0 ** -52, 0.0, 2.0 ** -52])
    def test_conjugate_rows_are_taken_together(self, noise):
        # rows 2 and 4 hold 90% of the off-DC power; rounding noise must not split a pair
        d = 6
        power = np.array([1.0, 0.05, 0.45, 0.0, 0.45 * (1 + noise), 0.05 * (1 - noise)])
        rows = dominant_rows(power)
        assert rows == sorted({*rows, *(d - k for k in rows)})
        assert {2, 4} <= set(rows)

    def test_constant_signal_has_no_dominant_rows(self):
        d = 8
        window = realize_fiducial(FiducialSpec("von_mises", 5.0), d)
        power = envelope_spectrum(column_energy(np.abs(gabor_transform(np.ones(d), window))))
        assert dominant_rows(power) == []
        assert period_estimate(d, []) is None

    @pytest.mark.parametrize("k", [-900, -600, 505, 1000])
    def test_column_energy_scales_the_map_exactly(self, rng, k):
        magnitude = np.abs(rng.normal(size=(12, 12)))
        with np.errstate(over="raise", under="raise"):
            assert np.array_equal(column_energy(np.ldexp(magnitude, k)), column_energy(magnitude))

    def test_envelope_of_a_subnormal_energy_does_not_overflow(self):
        energy = np.tile([1.0, 2.0], 6)
        with np.errstate(over="raise"):
            power = envelope_spectrum(np.ldexp(energy, -1073))
        assert np.array_equal(power, envelope_spectrum(energy))

    def test_fraction_base_bounds(self):
        with pytest.raises(ValueError, match="range"):
            harmonic_energy_fraction(np.ones(6), 6)


class TestSignalReaders:
    def test_csv_real_and_complex_rows(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# comment\n1.5\n2,-3\n\n4\n")
        sig = read_signal(path)
        assert sig.tolist() == [1.5 + 0j, 2 - 3j, 4 + 0j]

    def test_csv_bad_token_names_location(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0\nbad\n")
        with pytest.raises(InputFormatError, match="row 2"):
            read_signal(path)

    def test_csv_too_many_columns(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(InputFormatError, match="columns"):
            read_signal(path)

    def test_csv_rows_are_physical_lines(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1\n\n# note\n2,x\n")
        with pytest.raises(InputFormatError) as info:
            read_vector_csv(path)
        assert str(info.value) == "could not parse number 'x' at row 4, column 2"

    def test_fiducials_table_is_read_bit_for_bit(self, tmp_path):
        window = realize_fiducial(FiducialSpec("von_mises", 3.0), 7)
        text = written_bytes(format_vector_csv, window)
        path = tmp_path / "w.csv"
        path.write_bytes(text)
        read = read_vector_csv(path)
        fields = [line.split(b",") for line in text.splitlines()[1:]]
        expected = np.array([complex(float(re), float(im)) for _, re, im in fields])
        assert read.tobytes() == expected.tobytes()
        # what was read is written back as the same text, and read back bit for bit
        assert written_bytes(format_vector_csv, read) == text
        assert read_vector_csv(path).tobytes() == read.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("l,re,im\n0,1,2\n1,3\n", "row 3: expected 3 (l,re,im) columns, got 2"),
        ("# window\nl,re,im\n0,1,x\n", "could not parse number 'x' at row 3, column 3"),
        ("l,re,im\n", "no samples found"),
    ])
    def test_fiducials_table_faults(self, tmp_path, text, message):
        path = tmp_path / "w.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError, match=re.escape(message)):
            read_vector_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError, match="cannot read"):
            read_vector_csv(tmp_path / "absent.csv")

    def test_json_bare_array(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("[1, 2, 3]")
        assert read_signal(path).tolist() == [1, 2, 3]

    def test_json_object_with_pairs(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"d": 2, "values": [[1, -1], [0, 2]]}))
        assert read_signal(path).tolist() == [1 - 1j, 2j]

    def test_json_declared_dimension_mismatch(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"d": 5, "values": [1, 2]}))
        with pytest.raises(InputFormatError, match="declared"):
            read_signal(path)

    def test_json_invalid_payload(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text('{"values": [{"re": 1}]}')
        with pytest.raises(InputFormatError, match="values\\[0\\]"):
            read_signal(path)

    @pytest.mark.parametrize("kind", ["vector", "window_table", "json", "matrix"])
    def test_leading_byte_order_mark_is_skipped(self, rng, tmp_path, kind):
        reader, text = {
            "vector": (read_vector_csv, b"1.5\n2,-3\n"),
            "window_table": (read_vector_csv, written_bytes(
                format_vector_csv, realize_fiducial(FiducialSpec("von_mises", 3.0), 5))),
            "json": (read_signal, json.dumps({"d": 2, "values": [[1, -1], 2]}).encode()),
            "matrix": (read_complex_matrix_csv, written_bytes(
                format_complex_matrix_csv, rng.normal(size=(3, 3)))),
        }[kind]
        suffix = ".json" if kind == "json" else ".csv"
        plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert reader(marked).tobytes() == reader(plain).tobytes()


class TestMatrixCsv:
    def test_round_trip(self, rng, tmp_path):
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "mat.csv"
        path.write_bytes(written_bytes(format_complex_matrix_csv, mat))
        assert np.abs(read_complex_matrix_csv(path) - mat).max() < 1e-14

    def test_malformed_pair_names_row_and_column(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("l,lp0_re,lp0_im\n0,1.0,oops\n")
        with pytest.raises(InputFormatError, match="row 2, column 3"):
            read_complex_matrix_csv(path)

    def test_ragged_rows_name_the_row(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("l,lp0_re,lp0_im,lp1_re,lp1_im\n0,1,0,2,0\n1,1,0\n")
        with pytest.raises(InputFormatError, match="row 3: .*as many as on row 2"):
            read_complex_matrix_csv(path)

    def test_rows_are_physical_lines(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("l,lp0_re,lp0_im,lp1_re,lp1_im\n\n0,1,0,0,0\n1,0,0,x,0\n")
        with pytest.raises(InputFormatError) as info:
            read_complex_matrix_csv(path)
        assert str(info.value) == "could not parse number 'x' at row 4, column 4"

    def test_comment_header_and_blank_lines_count_as_rows(self, tmp_path):
        # the header is the first line that is not blank, whatever it holds
        path = tmp_path / "mat.csv"
        path.write_text("# operator\n\n0,1,0,2,0\n\n1,1,0\n")
        with pytest.raises(InputFormatError) as info:
            read_complex_matrix_csv(path)
        assert str(info.value) == ("row 5: expected an index followed by re,im pairs "
                                   "(as many as on row 3), got 3 fields")

    def test_header_alone_is_rejected(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("l,lp0_re,lp0_im\n\n")
        with pytest.raises(InputFormatError, match="expected a header and at least one data row"):
            read_complex_matrix_csv(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "mat.csv"
        mat = np.ones((2, 3), complex)
        path.write_bytes(written_bytes(format_complex_matrix_csv, mat))
        with pytest.raises(InputFormatError, match="square"):
            read_complex_matrix_csv(path)


#: any double, subnormals among them, as Python writes it; text float() reads its way, or rejects
_TINY = 2.2250738585072014e-308
_DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-_TINY, _TINY)
_TOKENS = st.one_of(
    st.builds(lambda x, fmt: fmt(x), _DOUBLES,
              st.sampled_from([repr, "%.17g".__mod__, "%.15e".__mod__])),
    st.sampled_from([" 2 ", "1_0", "", "x", " x ", "nan", " nan", "-Infinity", "0x1p3", "1e999"]),
)


def _contract(cells):
    """What a CSV reader must give for ``cells``, (line, column, token) in reading order.

    Either the values ``float()`` reads, and no message; or no values, and
    the message naming the first token that float() rejects or reads as
    non-finite, by its physical line and column.
    """
    values = []
    for line, column, token in cells:
        try:
            value = float(token)
        except ValueError:
            return None, f"could not parse number {token.strip()!r} at row {line}, column {column}"
        if not np.isfinite(value):
            return None, f"non-finite number {token.strip()!r} at row {line}, column {column}"
        values.append(value)
    return np.array(values), None


def _outcome(reader, lines):
    """Read ``lines`` (text, or a data row as a list of fields) from a file with ``reader``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text("\n".join(ln if isinstance(ln, str) else ",".join(ln) for ln in lines))
        try:
            return reader(path), None
        except InputFormatError as exc:
            return None, str(exc)


def _interleave(data, lines, extra):
    """``lines`` with a few of the ``extra`` lines drawn into them anywhere."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(extra)))
    return lines


class TestReaderContract:
    """Both CSV readers against ``float()`` itself, field by field."""

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_vector_reader(self, data):
        pairs = data.draw(st.lists(st.lists(_TOKENS, min_size=2, max_size=2), min_size=1,
                                   max_size=6))
        lines = _interleave(data, pairs, ["", "  ", "# note"])
        cells = [(n, j + 1, token) for n, row in enumerate(lines, start=1)
                 if isinstance(row, list) for j, token in enumerate(row)]
        values, message = _contract(cells)
        read, error = _outcome(read_vector_csv, lines)
        assert error == message
        if message is None:
            assert read.tobytes() == values.view(complex).tobytes()

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_matrix_reader(self, data):
        d = data.draw(st.integers(1, 3))
        rows = [[str(i)] + data.draw(st.lists(_TOKENS, min_size=2 * d, max_size=2 * d))
                for i in range(d)]
        lines = _interleave(data, ["l,header"] + rows, ["", "  "])
        cells = [(n, j + 1, token) for n, row in enumerate(lines, start=1)
                 if isinstance(row, list) for j, token in enumerate(row) if j]
        values, message = _contract(cells)
        read, error = _outcome(read_complex_matrix_csv, lines)
        assert error == message
        if message is None:
            assert read.tobytes() == values.view(complex).tobytes()


class TestFormatting:
    def test_real_map_header_and_shape(self):
        text = written_bytes(format_real_map_csv, np.zeros((2, 3)))
        lines = text.strip().split(b"\n")
        assert lines[0] == b"m,n0,n1,n2"
        assert len(lines) == 3
        assert lines[1].startswith(b"0,")

    def test_exact_bytes_with_signed_zero_and_nan(self):
        assert written_bytes(format_real_map_csv, np.array([[-0.0, np.nan], [1.5, -2e-300]])) == (
            b"m,n0,n1\n0,-0.000000000000000e+00,nan\n"
            b"1,1.500000000000000e+00,-2.000000000000000e-300\n")
        assert written_bytes(format_complex_matrix_csv, np.array([[complex(-0.0, np.nan), 1j, -1]]),
                                         row_label="m", col_label="n") == (
            b"m,n0_re,n0_im,n1_re,n1_im,n2_re,n2_im\n"
            b"0,-0.000000000000000e+00,nan,0.000000000000000e+00,1.000000000000000e+00,"
            b"-1.000000000000000e+00,0.000000000000000e+00\n")
        vec = np.array([complex(0.25, -0.0), complex(np.nan, 3)])
        assert written_bytes(format_vector_csv, vec) == (
            b"l,re,im\n0,2.500000000000000e-01,-0.000000000000000e+00\n"
            b"1,nan,3.000000000000000e+00\n")

    def test_vector_csv_header(self):
        text = written_bytes(format_vector_csv, np.array([1j]))
        assert text.splitlines()[0] == b"l,re,im"

    def test_pgm_header_and_scaling(self):
        arr = np.array([[0.0, 1.0], [2.0, 4.0]])
        blob = written_bytes(pgm_bytes, arr)
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = list(blob[len(b"P5\n2 2\n255\n"):])
        assert pixels == [0, 64, 128, 255]

    def test_pgm_zero_map(self):
        blob = written_bytes(pgm_bytes, np.zeros((1, 2)))
        assert blob.endswith(bytes([0, 0]))


def _first_difference(text: bytes, reference: bytes) -> str | None:
    """Where two CSV texts first differ (line and field values), or None."""
    if text == reference:
        return None
    for number, (line, expected) in enumerate(zip(text.split(b"\n"), reference.split(b"\n"))):
        for got, want in zip(line.split(b","), expected.split(b",")):
            if got != want:
                return f"line {number}: {got!r} != {want!r}"
    return "lengths differ"


class _CountingFormat(str):
    """``"%.15e"`` that records every value it formats."""

    def __new__(cls, calls):
        text = super().__new__(cls, "%.15e")
        text.calls = calls
        return text

    def __mod__(self, value):
        self.calls.append(value)
        return str.__mod__(self, value)


def _neighbours(x: np.ndarray, ulps: int) -> np.ndarray:
    """``x`` and the doubles up to ``ulps`` steps below and above each entry."""
    out = [x]
    for toward in (0.0, np.inf):
        y = x
        for _ in range(ulps):
            out.append(y := np.nextafter(y, toward))
    return np.concatenate(out)


def _crafted_values() -> np.ndarray:
    """Ties, powers of ten and rounding carries with their 2-ulp neighbourhoods, extremes."""
    powers = np.array([10.0**k for k in range(-323, 309)])
    carries = np.array([float(f"9.9999999999999995e{k}") for k in range(-324, 308)])
    ties = np.array([1234567890123456.5, 9007199254740990.5, 1000000000000000.5])
    extremes = np.array([5e-324, 2.2250738585072014e-308, np.finfo(float).max, 0.0,
                         np.nan, np.inf, 1.5e-150, 2.5e250, 1.0000000000000002e100])
    values = np.concatenate([_neighbours(powers, 2), _neighbours(carries, 2), ties, extremes])
    return np.concatenate([values, -values])


def _decade(x: float) -> int:
    """The k with 10**k <= |x| < 10**(k + 1), for a finite nonzero double, exactly."""
    a = abs(Fraction(x))
    k = len(str(a.numerator)) - len(str(a.denominator))
    while a < Fraction(10) ** k:
        k -= 1
    while a >= Fraction(10) ** (k + 1):
        k += 1
    return k


def _distance_to_tie(x: float) -> Fraction:
    """How far |x| 10**(15 - k), k the decade of x, lies from a half-integer, exactly."""
    v = abs(Fraction(x)) * Fraction(10) ** (15 - _decade(x))
    return abs(v - math.floor(v) - Fraction(1, 2))


def _formatted_by_python(table: np.ndarray, monkeypatch) -> list:
    """The finite values of ``table`` that the writer hands to Python's ``%``."""
    calls = []
    monkeypatch.setattr(io_formats, "_FMT", _CountingFormat(calls))
    header = ["m"] + [f"n{j}" for j in range(table.shape[1])]
    text = written_bytes(_table_csv, header, table)
    assert _first_difference(text, table_csv_reference(header, table)) is None
    return [x for x in calls if np.isfinite(x)]


class TestTableCsvMatchesPercentFormat:
    """The block-wise writer against Python's ``%.15e``, byte for byte."""

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=st.floats(width=64)))
    def test_small_tables_match_the_row_format(self, table):
        header = ["m"] + [f"n{j}" for j in range(table.shape[1])]
        assert written_bytes(_table_csv, header, table) == table_csv_reference(header, table)

    def test_random_bit_patterns_and_crafted_values(self, monkeypatch):
        bits = np.random.default_rng(20261018).integers(0, 2**64, size=2**20, dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), _crafted_values()])
        table = np.resize(values, (values.size // 1024 + 1, 1024))
        # besides nan and inf, Python gets only values within 1e-9 of a rounding
        # tie (common among the doubles of 2**44..2**54, which have few fraction bits)
        finite = _formatted_by_python(table, monkeypatch)
        assert [x for x in finite if _distance_to_tie(x) > Fraction(1, 10**9)] == []

    def test_crafted_values_reach_python_only_at_exact_ties(self, monkeypatch):
        values = _crafted_values()
        finite = _formatted_by_python(np.resize(values, (values.size // 1024 + 1, 1024)),
                                      monkeypatch)
        assert finite and all(_distance_to_tie(x) == 0 for x in finite), finite

    def test_decade_at_every_boundary(self):
        # the largest double below each power of ten and the smallest at or
        # above it; the first and last double of each binade (subnormal ones too)
        powers = []
        for p in range(-323, 309):
            x = float(Fraction(10) ** p)  # correctly rounded
            x = x if Fraction(x) >= Fraction(10) ** p else math.nextafter(x, math.inf)
            powers += [math.nextafter(x, 0.0), x]
        exponents = range(io_formats._FREXP_MIN, io_formats._FREXP_MAX + 1)
        firsts = [math.ldexp(0.5, e) for e in exponents]
        lasts = [math.nextafter(x, 0.0) for x in firsts[1:] + [math.inf]]
        values = np.array(powers + firsts + lasts)
        t = io_formats._tables.__wrapped__()  # a fresh copy, every exponent filled
        io_formats._fill_scales(t, np.arange(t.ready.size))
        f, e = np.frexp(values)  # a hand-built (f, e) is not a double in the subnormal range
        i = e - io_formats._FREXP_MIN
        assert (t.k0[i] + (f >= t.up[i])).tolist() == [_decade(x) for x in values]

    def test_several_blocks_and_a_partial_last_one(self, rng):
        width = 100
        rows = 2 * (BLOCK_VALUES // width) + 7
        table = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
        header = ["m"] + [f"n{j}" for j in range(width)]
        assert written_bytes(_table_csv, header, table) == table_csv_reference(header, table)

    def test_reused_workspace_leaks_no_stale_text(self, rng):
        # the full blocks mix text of every length (fallbacks, signs, 3-digit
        # exponents, 16 digits above 2**53); the short last block has the
        # shortest text, so a byte left over from an earlier block would show
        width = 100
        step = BLOCK_VALUES // width
        rows = 2 * step + 7
        crafted = np.array([np.nan, np.inf, -np.inf, 1234567890123456.5, -9007199254740990.5,
                            np.nextafter(1234567890123456.5, 0.0), 1.5e-150, -2.5e250,
                            -9.876543210987654e-200, 9.999999999999999e99, 9.9999999999999995e-5,
                            -0.0, 9.007199254740993e15, -0.1])
        table = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
        full = table[:2 * step]
        mixed = rng.random(full.shape) < 0.3
        full[mixed] = rng.choice(crafted, size=mixed.sum())
        table[2 * step:] = rng.uniform(1.0, 2.0, size=(7, width))
        header = ["m"] + [f"n{j}" for j in range(width)]
        text = written_bytes(_table_csv, header, table)
        assert _first_difference(text, table_csv_reference(header, table)) is None

    @pytest.mark.parametrize("value", [1234567890123456.5, 9.9999999999999995e-5, 1e22,
                                       np.nextafter(1e22, 0.0), 5e-324, -0.0])
    def test_crafted_value_in_every_column_of_a_block(self, value):
        table = np.full((3, 5), value)
        table[1, 2] = 0.1
        assert written_bytes(_table_csv, ["m"] * 6, table) == table_csv_reference(["m"] * 6, table)
