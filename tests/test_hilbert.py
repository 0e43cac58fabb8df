import numpy as np
import pytest

import re

from torus_quant import (
    Weight,
    dft,
    displacement_apply,
    gabor_inverse,
    idft,
    parity_weight,
    portrait,
    portrait_of_symbol,
    quantize,
    symplectic_dft,
    weight_from_operator,
)

from torus_quant.hilbert import cyclic_diagonals, scaled_sums

from conftest import kronecker, plane_wave, random_map, random_state
from oracles import cyclic_diagonals_entrywise, dft_matrix, inner


class TestInner:
    def test_orthonormal_delta(self):
        d0 = kronecker(4, 0)
        assert inner(d0, d0) == pytest.approx(1.0)

    def test_fourier_exponentials_orthogonal(self):
        assert inner(plane_wave(5, 1), plane_wave(5, 3)) == pytest.approx(0.0, abs=1e-14)

    def test_hand_expanded_sums(self):
        # conj(1)*i + conj(i)*1 = i - i = 0: conjugation of the first
        # argument flips the sign of the second term
        assert inner(np.array([1, 1j, 0]), np.array([1j, 1, 0])) == pytest.approx(0.0)
        # conj(1)*i + conj(i)*2 = i - 2i = -i
        assert inner(np.array([1, 1j, 0]), np.array([1j, 2, 0])) == pytest.approx(-1j)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner(np.ones(3), np.ones(4))


#: each public entry point that takes a d x d map, with d fixed by another argument or None
MAP_ENTRY_POINTS = {
    "Weight": (Weight, None),
    "symplectic_dft": (symplectic_dft, None),
    "weight_from_operator": (weight_from_operator, None),
    "gabor_inverse": (lambda values: gabor_inverse(values, np.ones(3) / np.sqrt(3)), None),
    "quantize": (lambda values: quantize(values, parity_weight(3)), 3),
    "portrait": (lambda values: portrait(values, parity_weight(3)), 3),
    "portrait_of_symbol": (lambda values: portrait_of_symbol(values, parity_weight(3)), 3),
}


class TestMapGate:
    """Every entry point that takes a d x d map rejects any other shape with one message."""

    @pytest.mark.parametrize("name", MAP_ENTRY_POINTS)
    @pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2, 2)])
    def test_wrong_shape(self, name, shape):
        call, d = MAP_ENTRY_POINTS[name]
        d = shape[0] if d is None else d
        with pytest.raises(ValueError, match=re.escape(
                f"must be {d} x {d} to match d={d}, got shape {shape}")):
            call(np.ones(shape))

    @pytest.mark.parametrize("name", [name for name, (_, d) in MAP_ENTRY_POINTS.items() if d])
    def test_d_mismatch(self, name):
        call, d = MAP_ENTRY_POINTS[name]
        with pytest.raises(ValueError, match=re.escape(
                f"must be {d} x {d} to match d={d}, got shape (4, 4)")):
            call(np.ones((4, 4)))


class TestBases:
    def test_single_point_space(self):
        assert plane_wave(1, 0) == pytest.approx([1.0])

    def test_flat_row(self):
        assert plane_wave(4, 0) == pytest.approx(np.full(4, 0.5))

    def test_quarter_turns(self):
        assert plane_wave(4, 1) == pytest.approx([0.5, 0.5j, -0.5, -0.5j])

    @pytest.mark.parametrize("k", [-1, 4, 7])
    def test_labels_rejected_not_reduced(self, k):
        with pytest.raises(ValueError):
            plane_wave(4, k)
        with pytest.raises(ValueError):
            kronecker(4, k)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_fourier_completeness(self, d):
        acc = sum(np.outer(plane_wave(d, k), plane_wave(d, k).conj()) for k in range(d))
        assert np.abs(acc - np.eye(d)).max() < 1e-12


class TestDft:
    def test_flat_to_delta(self):
        flat = np.full(5, 1 / np.sqrt(5), dtype=complex)
        assert dft(flat) == pytest.approx(kronecker(5, 0))

    def test_delta_to_flat(self):
        assert dft(kronecker(5, 0)) == pytest.approx(np.full(5, 1 / np.sqrt(5)))

    @pytest.mark.parametrize("d,k", [(5, 2), (8, 7), (3, 0)])
    def test_fourier_exponential_to_delta(self, d, k):
        assert dft(plane_wave(d, k)) == pytest.approx(kronecker(d, k), abs=1e-13)

    def test_idft_inverts(self, rng):
        phi = random_state(rng, 7)
        assert np.abs(idft(dft(phi)) - phi).max() < 1e-12

    def test_idft_of_delta_is_exponential(self):
        assert idft(kronecker(5, 2)) == pytest.approx(plane_wave(5, 2))

    def test_idft_flat_output(self):
        assert idft(np.array([1.0, 0, 0, 0])) == pytest.approx(np.full(4, 0.5))

    @pytest.mark.parametrize("d", list(range(1, 33)))
    def test_parseval(self, rng, d):
        a, b = random_state(rng, d), random_state(rng, d)
        assert abs(inner(dft(a), dft(b)) - inner(a, b)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 12, 16])
    def test_matches_dense_kernel(self, d):
        # column l of each transform is its image of the delta at l
        basis = np.eye(d, dtype=complex)
        assert np.abs(np.column_stack([dft(e) for e in basis]) - dft_matrix(d)).max() < 1e-13
        assert np.abs(np.column_stack([idft(e) for e in basis])
                      - dft_matrix(d).conj()).max() < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
    def test_fourth_power_is_identity(self, d):
        w = dft_matrix(d)
        assert np.abs(np.linalg.matrix_power(w, 4) - np.eye(d)).max() < 1e-12


class TestShifts:
    def test_delta_shift(self):
        assert displacement_apply(kronecker(3, 0), 0, 1) == pytest.approx(kronecker(3, 1))

    def test_full_period_is_identity(self, rng):
        phi = random_state(rng, 6)
        assert displacement_apply(phi, 0, 6) == pytest.approx(phi)

    def test_index_chase(self):
        assert displacement_apply(np.array([1.0, 2.0, 3.0]), 0, 2) == pytest.approx([2.0, 3.0, 1.0])

    def test_translation_additivity_exact(self, rng):
        phi = random_state(rng, 7)
        assert np.array_equal(displacement_apply(displacement_apply(phi, 0, 3), 0, 5),
                              displacement_apply(phi, 0, 8))

    def test_zero_modulation_is_identity(self, rng):
        phi = random_state(rng, 5)
        assert displacement_apply(phi, 0, 0) == pytest.approx(phi)

    def test_modulated_delta_is_pointwise_phase(self):
        d, l0, k0 = 6, 2, 5
        expected = np.zeros(d, complex)
        expected[l0] = np.exp(2j * np.pi * k0 * l0 / d)
        assert displacement_apply(kronecker(d, l0), k0, 0) == pytest.approx(expected)

    def test_shift_modulation_commutation(self, rng):
        # T_l0 E_k0 = exp(-2 i pi k0 l0 / d) E_k0 T_l0
        d, k0, l0 = 5, 3, 2
        phi = random_state(rng, d)
        lhs = displacement_apply(displacement_apply(phi, k0, 0), 0, l0)
        rhs = displacement_apply(displacement_apply(phi, 0, l0), k0, 0)
        assert np.abs(lhs - np.exp(-2j * np.pi * k0 * l0 / d) * rhs).max() < 1e-12

    def test_modulation_is_translation_after_dft(self, rng):
        phi = random_state(rng, 6)
        modulated, translated = displacement_apply(phi, 2, 0), displacement_apply(dft(phi), 0, 2)
        assert np.abs(dft(modulated) - translated).max() < 1e-12


class TestCyclicDiagonals:
    """The one gather behind every operator layout; 129 and 257 give several row blocks."""

    @pytest.mark.parametrize("d", [*range(1, 10), 129, 257])
    def test_matches_entrywise_oracle_bitwise(self, rng, d):
        M = random_map(rng, d)
        assert np.array_equal(cyclic_diagonals(M), cyclic_diagonals_entrywise(M))

    @pytest.mark.parametrize("d", [1, 2, 7, 129, 257])
    def test_is_an_involution(self, rng, d):
        M = random_map(rng, d)
        assert np.array_equal(cyclic_diagonals(cyclic_diagonals(M)), M)

    @pytest.mark.parametrize("d", [5, 257])
    def test_reads_a_transposed_view(self, rng, d):
        op = random_map(rng, d)
        assert np.array_equal(cyclic_diagonals(op.T), cyclic_diagonals_entrywise(op.T))


def peak_three_quarters(rng, d, kind):
    """A real or complex d x d map of peak modulus 0.75, whose frexp exponent is 0."""
    m = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if kind == "complex" else 0)
    return 0.75 * m / np.abs(m).max()


class TestScaledSums:
    """Every check sum on a phase-space map; 257 gives several row blocks."""

    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_at_exponent_zero_are_the_plain_sums(self, rng, kind, squared):
        m = peak_three_quarters(rng, 37, kind)
        plain = np.abs(m) ** 2 if squared else m
        for axis, sums in enumerate(scaled_sums(m, np.abs(m).max(), squared=squared)):
            expected = plain.sum(axis=axis)
            assert np.abs(sums - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("d", [37, 257])
    @pytest.mark.parametrize("j", [-900, 900])
    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_scaling_map_and_peak_leaves_the_sums_bitwise(self, rng, kind, squared, j, d):
        m = peak_three_quarters(rng, d, kind)
        peak = np.abs(m).max()
        with np.errstate(over="raise", under="raise"):
            scaled = scaled_sums(m * 2.0 ** j, peak * 2.0 ** j, squared=squared)
        for got, expected in zip(scaled, scaled_sums(m, peak, squared=squared)):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("j", [-450, 450])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_a_quadratic_map_is_scaled_twice(self, rng, kind, j):
        m = peak_three_quarters(rng, 37, kind)
        peak = np.abs(m).max()
        with np.errstate(over="raise", under="raise"):
            scaled = scaled_sums(m * 2.0 ** (2 * j), peak * 2.0 ** j, power=2)
        for got, expected in zip(scaled, scaled_sums(m, peak, power=2)):
            assert np.array_equal(got, expected)

    def test_quadratic_scale_does_not_overflow_below_two_to_the_minus_511(self):
        # the peak's frexp exponent is -520: unit_scale ** 2 = 2**1040 would overflow, two
        # products by 2**520 do not
        with np.errstate(over="raise"):
            columns, rows = scaled_sums(np.full((3, 3), 2.0 ** -1040), 0.75 * 2.0 ** -520, power=2)
        assert np.array_equal(columns, [3.0] * 3) and np.array_equal(rows, [3.0] * 3)
