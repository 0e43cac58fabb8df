"""CLI outputs against golden files (see ``tests/golden/regenerate.py``).

Each case runs twice: both runs must write byte-identical output, exit
with the recorded code and print the recorded stderr keys, and the
numbers must match the golden file to 1e-12 relative to its largest
entry.
"""

import io
import json

import numpy as np
import pytest

from golden.regenerate import GOLDEN, run_case

CASES = json.loads((GOLDEN / "cases.json").read_text())

RELATIVE_TOL = 1e-12


def read_table(payload: bytes):
    """Header line and numeric table of a CSV written by the CLI."""
    text = payload.decode("ascii")
    header, _, body = text.partition("\n")
    return header, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def run(case, out_path):
    code, keys = run_case(case["argv"], out_path)
    return code, keys, out_path.read_bytes() if out_path.exists() else None


def test_cases_cover_every_command():
    commands = {case["argv"][0] for case in CASES}
    assert commands == {"quantize", "portrait", "fiducials", "gabor", "husimi", "wigner"}
    assert sum(f.stat().st_size for f in GOLDEN.iterdir()) < 300_000


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden(case, tmp_path):
    first = run(case, tmp_path / "first")
    second = run(case, tmp_path / "second")
    assert first == second
    code, keys, payload = first
    assert code == case["exit"]
    assert keys == case["stderr_keys"]
    if case["output"] is None:
        assert payload is None
        return
    golden = (GOLDEN / case["output"]).read_bytes()
    if case["output"].endswith(".pgm"):
        assert payload == golden
        return
    header, table = read_table(payload)
    golden_header, golden_table = read_table(golden)
    assert header == golden_header
    assert table.shape == golden_table.shape
    assert np.array_equal(table[:, 0], golden_table[:, 0])
    values, golden_values = table[:, 1:], golden_table[:, 1:]
    scale = np.abs(golden_values).max()
    assert np.abs(values - golden_values).max() <= RELATIVE_TOL * scale
