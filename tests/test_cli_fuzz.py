"""Fuzzed command lines: every run ends with exit 0, 2 or 3.

Each example draws one of the six subcommands, a small d, flag values
from the documented selectors and from junk, and input files that hold
random bytes, or CSV/JSON of random numbers (any finite double, so some
inputs overflow double precision in the computation).  An input error
(a --d below 1 among them) must exit 2 and a precondition violation 3; exit 1 (an uncaught
exception) and exit 4 (a tolerance failure) are never the right answer
to an input.  An input file whose bytes are not UTF-8 is an input error
whichever reader takes it.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from torus_quant.cli import main

ALLOWED_EXITS = {0, 2, 3}

NUMBERS = st.one_of(st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False))
#: number tokens: any finite double, and non-finite or malformed text
TOKENS = st.one_of(
    NUMBERS.map(repr),
    st.sampled_from(["1e999", "nan", "-inf", "0x10", "1_0", "", " ", "abc"]),
)
COMMANDS = ["gabor", "wigner", "husimi", "quantize", "portrait", "fiducials"]


@st.composite
def csv_vector(draw, length):
    """One sample per line, ``x`` or ``re,im``; clean files hold numbers only."""
    tokens = NUMBERS.map(repr) if draw(st.booleans()) else TOKENS
    rows = [",".join(draw(st.lists(tokens, min_size=1, max_size=2))) for _ in range(length)]
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, length)), draw(st.sampled_from(["# note", "", "1,2,3"])))
    return "\n".join(rows)


@st.composite
def csv_matrix(draw, size):
    """Header, then rows of an index and re,im pairs; w(0, 0) is often 1."""
    tokens = NUMBERS.map(repr) if draw(st.booleans()) else TOKENS
    rows = []
    for i in range(size):
        width = size if draw(st.integers(0, 9)) else draw(st.integers(0, size + 1))
        entries = [draw(tokens) for _ in range(2 * width)]
        if i == 0 and width and draw(st.booleans()):
            entries[:2] = ["1", "0"]
        rows.append(",".join([str(i)] + entries))
    return "\n".join(["l,header"] + rows)


@st.composite
def json_signal(draw, length):
    entry = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2))
    values = draw(st.lists(entry, min_size=length, max_size=length))
    junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                     st.floats(allow_nan=True, allow_infinity=True))
    payload = draw(st.sampled_from([
        values, {"values": values}, {"d": length, "values": values},
        {"d": draw(junk), "values": values}, {"values": values + [draw(junk)]}, draw(junk)]))
    return json.dumps(payload)


def maybe_garbled(text):
    """The text's bytes, or random bytes in its place."""
    return st.one_of(st.just(text.encode()), st.binary(max_size=48))


@st.composite
def fiducial(draw):
    kind = draw(st.sampled_from(["constant", "kronecker", "plane_wave", "gaussian",
                                 "dirichlet", "von_mises", "custom", "bogus"]))
    if kind == "custom":
        return "custom:{vector}"
    if kind == "constant" and draw(st.booleans()):
        return kind
    param = draw(st.one_of(st.integers(-2, 12).map(str), TOKENS))
    return f"{kind}:{param}"


@st.composite
def symbol(draw):
    choice = draw(st.sampled_from(["ones", "delta", "file:{symbol}", "vector", "bogus"]))
    if choice != "vector":
        return choice
    axis = draw(st.sampled_from(["momentum", "position"]))
    arg = draw(st.sampled_from(["index", "index2", "fourier", "file:{vector}", "bogus"]))
    return f"{axis}:{arg}"


@st.composite
def weight(draw):
    choice = draw(st.sampled_from(["parity", "cs", "file:{matrix}", "thermal"]))
    return "cs:" + draw(fiducial()) if choice == "cs" else choice


@st.composite
def fuzz_case(draw):
    """(argv with {name} placeholders for files, {name: file bytes})."""
    command = draw(st.sampled_from(COMMANDS))
    d = draw(st.integers(-1, 9))
    size = d if d >= 1 and draw(st.integers(0, 3)) else draw(st.integers(1, 9))
    d_text = str(d) if draw(st.integers(0, 9)) else draw(st.sampled_from(["x", "2.5", ""]))
    argv = [command]
    if command in ("gabor", "wigner", "husimi"):
        argv += ["--in", draw(st.sampled_from(["{signal_csv}", "{signal_json}"]))]
        if draw(st.booleans()):
            argv += ["--d", d_text]
        argv += [flag for flag in ("--truncate", "--pad") if draw(st.booleans())]
        if command == "husimi" or command == "gabor" and draw(st.booleans()):
            argv += ["--fiducial", draw(fiducial())]
        if command == "gabor" and draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["csv", "pgm", "png"]))]
    else:
        argv += ["--d", d_text]
        if command == "fiducials":
            argv += ["--fiducial", draw(fiducial())]
        else:
            argv += ["--symbol", draw(symbol()), "--weight", draw(weight())]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "--d", "-", "--help", "--version"])))
    files = {
        "signal_csv": (".csv", csv_vector(size)),
        "signal_json": (".json", json_signal(size)),
        "vector": (".csv", csv_vector(size)),
        "matrix": (".csv", csv_matrix(size)),
        "symbol": (".csv", csv_matrix(size)),
    }
    used = {name: (suffix, draw(text.flatmap(maybe_garbled)))
            for name, (suffix, text) in files.items() if any("{" + name + "}" in a for a in argv)}
    return argv, used


#: each reader path: its arguments, with {file} for the input file, and the file's contents
READERS = [
    (["gabor", "--in", "{file}"], ".csv", csv_vector),
    (["wigner", "--in", "{file}"], ".json", json_signal),
    (["fiducials", "--d", "{d}", "--fiducial", "custom:{file}"], ".csv", csv_vector),
    (["quantize", "--d", "{d}", "--symbol", "ones", "--weight", "file:{file}"], ".csv", csv_matrix),
    (["portrait", "--d", "{d}", "--symbol", "file:{file}", "--weight", "parity"], ".csv",
     csv_matrix),
    (["quantize", "--d", "{d}", "--symbol", "momentum:file:{file}", "--weight", "parity"], ".csv",
     csv_vector),
]


@st.composite
def non_utf8_case(draw):
    """A reader path whose file is ASCII text of its kind with one byte from 0x80 up inserted.

    A single such byte among ASCII bytes never forms a UTF-8 sequence.
    """
    argv, suffix, text = draw(st.sampled_from(READERS))
    d = draw(st.integers(1, 9))
    payload = bytearray(draw(text(d)).encode("ascii"))
    payload.insert(draw(st.integers(0, len(payload))), draw(st.integers(0x80, 0xFF)))
    return [arg.replace("{d}", str(d)) for arg in argv], {"file": (suffix, bytes(payload))}


def run_case(argv, files):
    """Exit code and captured output of ``main`` on the case, files in a temporary directory."""
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for name, (suffix, payload) in files.items():
            paths[name] = Path(directory) / (name + suffix)
            paths[name].write_bytes(payload)
        resolved = [arg.format(**paths) for arg in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(resolved + ["--out", str(Path(directory) / "out")])
            except SystemExit as exc:
                code = exc.code
    return code, sink.getvalue()


class TestFuzzedCommandLines:
    @seed(20261018)
    @settings(max_examples=500, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(case=fuzz_case())
    def test_exit_code_is_0_2_or_3(self, case):
        code, output = run_case(*case)
        assert code in ALLOWED_EXITS, (case, output[-500:])
        argv = case[0]
        dimensions = [value for flag, value in zip(argv, argv[1:]) if flag == "--d"]
        if any(value.lstrip("-").isdigit() and int(value) < 1 for value in dimensions):
            assert code == 2, (case, output[-500:])

    @seed(20261019)
    @settings(max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=non_utf8_case())
    def test_non_utf8_input_file_exits_2(self, case):
        code, output = run_case(*case)
        assert code == 2 and "cannot read" in output, (case, output[-500:])
