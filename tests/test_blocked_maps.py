"""The d x d maps built a block of columns at a time, and written a block of rows at a time.

A block holds ``hilbert.BLOCK_VALUES`` values, so the block loops of
``gabor_transform``, ``husimi``, ``wigner`` and the CSV writer only run
more than once when d exceeds ~128.  The sizes below give several blocks
and a partial last one.  The memory tests bound what each builder, the
writer and the map commands allocate, measured with tracemalloc (numpy
reports its arrays to it): a map costs its own size and a few blocks,
and the writer a few blocks, whatever the size of its text.  The operator
routes (weight retrieval, quantization and its check route, the momentum
fast path, Gabor synthesis, portrait, the smoothed symbol, the overlap
distribution, the symplectic transform, the weight's symmetry defect) and
the ``quantize`` and ``portrait`` commands are bounded the same way, in
units of one d x d complex array.  The transform-pass counts pin how
many 1-D FFTs each subcommand runs, a cost measure that does not depend
on the machine.
"""

import tracemalloc

import numpy as np
import pytest

from torus_quant import (FiducialSpec, cli, coherent_state_weight, gabor_inverse,
                         gabor_transform, husimi, overlap_distribution, portrait,
                         portrait_of_symbol, quantization_operator, quantize, quantize_momentum,
                         realize_fiducial, symplectic_dft, weight_from_operator, wigner)
from torus_quant.hilbert import BLOCK_VALUES, row_blocks
from torus_quant.io_formats import format_real_map_csv

from conftest import random_map, random_state
from oracles import dft_matrix, wigner_half_argument

SIZES = [129, 131, 257]


def gabor_dense(phi, window):
    """Phi[m, n] = e^{i pi m n/d} sum_l e^{-2i pi m l/d} conj(window(l-n)) phi(l), one matrix product."""
    d = phi.shape[0]
    ls = np.arange(d)
    windowed = np.conj(window[(ls[:, None] - ls[None, :]) % d]) * phi[:, None]
    half = np.exp(1j * np.pi * (np.outer(ls, ls) % (2 * d)) / d)
    return half * (np.sqrt(d) * dft_matrix(d) @ windowed)


@pytest.mark.parametrize("d", SIZES)
class TestSeveralBlocks:
    def test_sizes_give_a_partial_last_block(self, d):
        blocks = row_blocks(d, d)
        assert len(blocks) > 1
        assert blocks[-1].stop - blocks[-1].start < blocks[0].stop - blocks[0].start
        assert blocks[-1].stop == d

    def test_gabor_transform_and_round_trip(self, rng, d):
        phi = random_state(rng, d, unit=True)
        window = random_state(rng, d, unit=True)
        coeffs = gabor_transform(phi, window)
        assert np.abs(coeffs - gabor_dense(phi, window)).max() < 1e-12
        assert np.abs(gabor_inverse(coeffs, window) - phi).max() < 1e-12

    def test_husimi(self, rng, d):
        psi = random_state(rng, d, unit=True)
        window = realize_fiducial(FiducialSpec("von_mises", 2.0), d)
        expected = np.abs(gabor_dense(psi, window)) ** 2 / d
        assert np.abs(husimi(psi, window) - expected).max() < 1e-12

    def test_wigner(self, rng, d):
        psi = random_state(rng, d, unit=True)
        assert np.abs(wigner(psi) - wigner_half_argument(psi)).max() < 1e-12


def traced_peak(function, *args):
    """Result of ``function(*args)`` and the peak of the memory it held, in bytes.

    The second of two calls is measured, so caches filled on first use
    are not counted.
    """
    function(*args)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


#: what the CSV writer may hold at once: a few blocks of values and their text
WRITER_BYTES = 4_000_000


class TestMemory:
    """At d=511 each map costs about its own size, not a multiple of d^2 temporaries."""

    d = 511

    @pytest.fixture
    def state(self, rng):
        return random_state(rng, self.d, unit=True)

    @pytest.fixture
    def window(self):
        return realize_fiducial(FiducialSpec("von_mises", 2.0), self.d)

    def test_gabor_transform(self, state, window):
        coeffs, peak = traced_peak(gabor_transform, state, window)
        assert peak <= 1.25 * coeffs.nbytes

    def test_husimi(self, state, window):
        h_map, peak = traced_peak(husimi, state, window)
        assert peak <= 1.25 * h_map.nbytes

    def test_wigner(self, state):
        w_map, peak = traced_peak(wigner, state)
        assert peak <= 1.25 * w_map.nbytes

    def test_real_map_csv(self, state, window):
        sizes = []
        _, peak = traced_peak(format_real_map_csv, husimi(state, window),
                              lambda chunk: sizes.append(len(chunk)))
        assert sum(sizes) > 2 * 20 * self.d ** 2  # two calls
        assert peak <= WRITER_BYTES

    def test_real_map_csv_workspace_does_not_grow_with_d(self, rng):
        d = 1023
        h_map = husimi(random_state(rng, d, unit=True),
                       realize_fiducial(FiducialSpec("von_mises", 2.0), d))
        _, peak = traced_peak(format_real_map_csv, h_map, lambda chunk: None)
        assert peak <= WRITER_BYTES

    @pytest.mark.parametrize("argv, maps, writer", [
        (["husimi", "--fiducial", "von_mises:2"], 1.25, WRITER_BYTES),
        (["wigner"], 1.25, WRITER_BYTES),
        # the magnitude map only, built without the complex Phi
        (["gabor", "--format", "pgm"], 1.25, 0),
    ], ids=["husimi", "wigner", "gabor-pgm"])
    def test_command(self, tmp_path, state, argv, maps, writer):
        signal = tmp_path / "signal.csv"
        signal.write_text("".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in state))
        code, peak = traced_peak(cli.main, [*argv, "--in", str(signal),
                                            "--out", str(tmp_path / "out")])
        assert code == 0
        assert peak <= maps * 8 * self.d ** 2 + writer


class TestOperatorMemory:
    """At d=511 the operator routes hold a few d x d complex arrays, not a table of each phase."""

    d = 511
    unit = 16 * d ** 2  # bytes of one d x d complex array

    @pytest.fixture
    def weight(self):
        return coherent_state_weight(realize_fiducial(FiducialSpec("von_mises", 2.0), self.d))

    @pytest.fixture
    def symbol(self, rng):
        return random_map(rng, self.d)

    def test_weight_from_operator(self, weight):
        _, peak = traced_peak(weight_from_operator, quantization_operator(weight))
        assert peak <= 1.5 * self.unit

    def test_quantization_operator(self, weight):
        _, peak = traced_peak(quantization_operator, weight)
        assert peak <= 2.5 * self.unit

    def test_quantize(self, symbol, weight):
        _, peak = traced_peak(quantize, symbol, weight)
        assert peak <= 2.5 * self.unit

    def test_quantize_check_route(self, symbol, weight):
        _, peak = traced_peak(cli._coefficient_residual, quantize(symbol, weight), symbol, weight)
        assert peak <= 2.25 * self.unit

    def test_quantize_momentum(self, rng, weight):
        _, peak = traced_peak(quantize_momentum, random_state(rng, self.d), weight)
        assert peak <= 1.5 * self.unit

    def test_gabor_inverse(self, rng, symbol):
        _, peak = traced_peak(gabor_inverse, symbol, random_state(rng, self.d, unit=True))
        assert peak <= 3.25 * self.unit

    def test_portrait(self, symbol, weight):
        # the operator's coefficients, then two inverse FFTs in place
        _, peak = traced_peak(portrait, quantize(symbol, weight), weight)
        assert peak <= 1.25 * self.unit

    def test_portrait_of_symbol(self, symbol, weight):
        _, peak = traced_peak(portrait_of_symbol, symbol, weight)
        assert peak <= 2.25 * self.unit

    def test_overlap_distribution(self, weight):
        _, peak = traced_peak(overlap_distribution, weight)
        assert peak <= 2.25 * self.unit

    def test_symplectic_dft(self, symbol):
        _, peak = traced_peak(symplectic_dft, symbol)
        assert peak <= 1.25 * self.unit

    def test_symmetry_defect(self, weight):
        _, peak = traced_peak(weight.symmetry_defect)
        assert peak <= 2.25 * self.unit

    @pytest.mark.parametrize("command", ["quantize", "portrait"])
    def test_command(self, tmp_path, command):
        # weight, symbol, operator and check route, and the CSV writer's blocks
        code, peak = traced_peak(cli.main, [command, "--d", str(self.d), "--weight",
                                            "cs:von_mises:3", "--symbol", "momentum:index",
                                            "--out", str(tmp_path / "out.csv")])
        assert code == 0
        assert peak <= 5.25 * self.unit


class TestTransformPasses:
    """Each subcommand at d=31 runs a fixed number of 1-D FFT passes (calls x transformed rows).

    Wraps ``np.fft.fft``, ``ifft``, ``fft2`` and ``ifft2``, which the
    package looks up at each call.  A changed count is a transform added
    or removed on some route.
    """

    d = 31
    PASSES = {"quantize": 217, "portrait": 341, "gabor": 32, "husimi": 31, "wigner": 32,
              "fiducials": 0}

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]

        def counted(transform, default_axes):
            def wrapper(a, *args, **kwargs):
                shape = np.shape(a)
                axes = kwargs.get("axes", kwargs.get("axis", default_axes))
                count[0] += sum(int(np.prod(shape)) // shape[axis] for axis in np.atleast_1d(axes))
                return transform(a, *args, **kwargs)
            return wrapper

        for name, axes in (("fft", -1), ("ifft", -1), ("fft2", (-2, -1)), ("ifft2", (-2, -1))):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), axes))
        return count

    @pytest.mark.parametrize("command", sorted(PASSES))
    def test_passes(self, rng, tmp_path, passes, command):
        signal = tmp_path / "signal.csv"
        signal.write_text("".join(f"{x:.17g}\n" for x in rng.normal(size=self.d)))
        argv = {
            "quantize": ["--d", "31", "--weight", "cs:von_mises:3", "--symbol", "ones"],
            "portrait": ["--d", "31", "--weight", "cs:von_mises:3", "--symbol", "ones"],
            "gabor": ["--in", str(signal)],
            "husimi": ["--in", str(signal), "--fiducial", "von_mises:3"],
            "wigner": ["--in", str(signal)],
            "fiducials": ["--d", "31", "--fiducial", "von_mises:3"],
        }[command]
        assert cli.main([command, *argv, "--out", str(tmp_path / "out")]) == 0
        assert passes[0] == self.PASSES[command]


def test_row_blocks_take_one_row_at_least():
    assert [s.stop - s.start for s in row_blocks(3, BLOCK_VALUES + 1)] == [1, 1, 1]
    assert row_blocks(0, 5) == []
