"""The one tolerance rule: a check's bound is relative to the size of its inputs.

Quantization is linear in the symbol, so scaling the symbol by any
amplitude scales the CLI output by it and leaves the exit code alone.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torus_quant.cli import main
from torus_quant.errors import ToleranceError, bound, hold
from torus_quant.io_formats import format_complex_matrix_csv, read_complex_matrix_csv

from conftest import written_bytes, random_map, random_symmetric_weight


FLOOR = 1e-10 * sys.float_info.min


class TestBound:
    def test_floor_then_relative(self):
        assert bound() == bound(1.0) == 1e-10
        assert bound(1e6) == pytest.approx(1e-4)
        assert bound(1e-12) == pytest.approx(1e-22)
        assert bound(0.0) == bound(sys.float_info.min / 2) == FLOOR

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_gets_the_floor(self, scale):
        assert bound(scale) == FLOOR


class TestHold:
    def test_nan_residual_fails(self):
        with pytest.raises(ToleranceError) as info:
            hold("check", float("nan"), 1.0)
        assert np.isnan(info.value.residual)

    @pytest.mark.parametrize("scale", [0.0, 1e-12, 1.0, 1e6, float("nan")])
    def test_residual_at_the_bound_passes(self, scale):
        hold("check", bound(scale), scale)
        with pytest.raises(ToleranceError):
            hold("check", np.nextafter(bound(scale), 1.0), scale)

    def test_error_carries_key_residual_and_bound(self):
        with pytest.raises(ToleranceError, match=r"^mass 3\.000e-04 exceeds 1\.000e-04$") as info:
            hold("mass", 3e-4, 1e6)
        error = info.value
        assert (error.key, error.residual, error.bound) == ("mass", 3e-4, bound(1e6))


def random_weight(rng, d, peak):
    """Weight meeting the self-adjointness condition, largest entry ``peak``, w(0, 0) = 1."""
    w = random_symmetric_weight(rng, d).values
    w *= peak / np.abs(w).max()  # a real factor keeps the condition
    w[0, 0] = 1.0
    return w


def run_file_inputs(directory, command, f, w):
    """Exit code and output of ``command`` on file symbol ``f`` and file weight ``w``."""
    sfile, wfile, out = (Path(directory) / name for name in ("f.csv", "w.csv", "out.csv"))
    sfile.write_bytes(written_bytes(format_complex_matrix_csv, f))
    wfile.write_bytes(written_bytes(format_complex_matrix_csv, w))
    code = main([command, "--d", str(f.shape[0]), "--symbol", f"file:{sfile}",
                 "--weight", f"file:{wfile}", "--out", str(out)])
    return code, read_complex_matrix_csv(out) if code == 0 else None


class TestAmplitude:
    @settings(max_examples=40, deadline=None)
    @given(command=st.sampled_from(["quantize", "portrait"]), d=st.integers(1, 24),
           exponent=st.floats(-16.0, 8.0), peak_exponent=st.floats(0.0, 6.0),
           seed=st.integers(0, 2**32 - 1))
    def test_exit_code_is_amplitude_free_and_output_linear(self, command, d, exponent,
                                                          peak_exponent, seed):
        rng = np.random.default_rng(seed)
        amplitude = 10.0 ** exponent
        f = random_map(rng, d)
        w = random_weight(rng, d, 10.0 ** peak_exponent)
        with tempfile.TemporaryDirectory() as directory:
            code, out = run_file_inputs(directory, command, f, w)
            scaled_code, scaled_out = run_file_inputs(directory, command, amplitude * f, w)
        assert scaled_code == code == 0
        scale = np.abs(f).max() * np.abs(w).max() ** (1 if command == "quantize" else 2)
        assert np.abs(scaled_out / amplitude - out).max() <= 1e-12 * scale
