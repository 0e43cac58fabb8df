import numpy as np
import pytest

from torus_quant import displacement_apply, displacement_matrix, kronecker_basis

from torus_quant.hilbert import phase_table
from torus_quant.weyl import adjoint_reflection, multiply_phase, sum_phase_roots

from conftest import random_state
from oracles import (
    GroupElement,
    adjoint_sign_table,
    compose_displacements,
    conjugate_sign,
    conjugation_phase,
    displacement_matrix_fourier,
    fourier_conjugated,
    group_inv,
    group_mul,
    rep_V,
    sum_displacement,
    trace_displacement,
)


def rep_matrix(g):
    return np.column_stack([rep_V(g, np.eye(g.d)[:, k]) for k in range(g.d)])


class TestGroupLaw:
    def test_neutral_element(self):
        e = GroupElement(5, 0.0, 0, 0)
        b = GroupElement(5, 1.25, 3, 4)
        out = group_mul(e, b)
        assert (out.s, out.m, out.n) == (1.25, 3, 4)

    def test_inverse_cancels_to_identity(self):
        a = GroupElement(5, 1.5, 2, 3)
        out = group_mul(a, group_inv(a))
        assert (out.s, out.m, out.n) == (0.0, 0, 0)

    def test_inverse_components(self):
        inv = group_inv(GroupElement(5, 2.0, 1, 4))
        assert (inv.s, inv.m, inv.n) == (-2.0, 4, 1)

    def test_inverse_is_involution(self, rng):
        for _ in range(20):
            a = GroupElement(7, rng.normal(), int(rng.integers(0, 7)), int(rng.integers(0, 7)))
            assert group_inv(group_inv(a)) == a

    def test_half_integer_central_term(self):
        out = group_mul(GroupElement(3, 0.0, 1, 0), GroupElement(3, 0.0, 0, 1))
        assert (out.s, out.m, out.n) == (0.5, 1, 1)

    def test_associativity_up_to_center_period(self, rng):
        # the represented operators are associative, so the central
        # parameters of (ab)c and a(bc) agree modulo d
        d = 5
        for _ in range(50):
            a, b, c = (GroupElement(d, rng.normal(), int(rng.integers(0, d)), int(rng.integers(0, d)))
                       for _ in range(3))
            left = group_mul(group_mul(a, b), c)
            right = group_mul(a, group_mul(b, c))
            assert (left.m, left.n) == (right.m, right.n)
            residue = (left.s - right.s) % d
            assert min(residue, d - residue) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            group_mul(GroupElement(3, 0, 0, 0), GroupElement(4, 0, 0, 0))


class TestRepresentation:
    def test_identity_element_acts_trivially(self, rng):
        psi = random_state(rng, 4)
        assert rep_V(GroupElement(4, 0.0, 0, 0), psi) == pytest.approx(psi)

    def test_adjoint_is_inverse_with_tracked_sign(self):
        g = GroupElement(4, 0.7, 1, 2)
        sign = conjugate_sign(g.d, g.m, g.n)
        assert np.abs(rep_matrix(g).conj().T - sign * rep_matrix(group_inv(g))).max() < 1e-12

    def test_homomorphism_on_random_elements(self, rng):
        d = 5
        for _ in range(50):
            g1 = GroupElement(d, rng.normal(), int(rng.integers(0, d)), int(rng.integers(0, d)))
            g2 = GroupElement(d, rng.normal(), int(rng.integers(0, d)), int(rng.integers(0, d)))
            psi = random_state(rng, d)
            lhs = rep_V(g1, rep_V(g2, psi))
            rhs = rep_V(group_mul(g1, g2), psi)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestDisplacement:
    def test_zero_displacement_is_identity(self, rng):
        psi = random_state(rng, 5)
        assert displacement_apply(psi, 0, 0) == pytest.approx(psi)

    def test_pure_translation_of_delta(self):
        assert displacement_apply(kronecker_basis(3, 0), 0, 1) == pytest.approx(kronecker_basis(3, 1))

    def test_half_phase_on_shifted_delta(self):
        # d=2: phase exp(-i pi/2) * exp(i pi l) at l = 1 gives (0, i)
        out = displacement_apply(kronecker_basis(2, 0), 1, 1)
        assert out == pytest.approx([0.0, 1j])

    def test_apply_is_linear(self, rng):
        # the matrix holds the images of the basis vectors, so this is apply's linearity
        d = 6
        psi = random_state(rng, d)
        for m in range(d):
            for n in range(d):
                assert np.abs(displacement_matrix(d, m, n) @ psi
                              - displacement_apply(psi, m, n)).max() < 1e-12

    @pytest.mark.parametrize("d", list(range(2, 13)))
    def test_unitarity(self, d):
        for m in range(d):
            for n in range(d):
                u = displacement_matrix(d, m, n)
                assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12

    def test_fourier_basis_matrix_by_conjugation(self):
        for d in (2, 3, 4, 5, 6):
            for m in range(d):
                for n in range(d):
                    assert np.abs(fourier_conjugated(d, displacement_matrix(d, m, n))
                                  - displacement_matrix_fourier(d, m, n)).max() < 1e-12

    @staticmethod
    def sum_phase(d):
        """chi[m, n], the gather of the 2d roots applied to a d x d array of ones."""
        return multiply_phase(np.ones((d, d), dtype=complex), sum_phase_roots(d))

    def test_sum_phase_is_modular_half_phase(self):
        # odd d: exp(-2 i pi m ((d+1)/2 n mod d) / d); even d: the half phase
        for d in range(1, 12):
            m = np.arange(d)[:, None]
            n = np.arange(d)[None, :]
            if d % 2:
                expected = np.exp(-2j * np.pi * ((m * (((d + 1) // 2 * n) % d)) % d) / d)
            else:
                expected = np.exp(-1j * np.pi * ((m * n) % (2 * d)) / d)
            assert np.abs(self.sum_phase(d) - expected).max() < 1e-13, d

    def test_sum_phase_gather_is_bitwise_the_table_expression(self):
        # the gather from 2d roots reads the values the d x d expression computes
        for d in [*range(1, 41), 1023]:
            mn = np.outer(np.arange(d), np.arange(d))
            expected = (-1) ** (d % 2 * mn % 2) * phase_table(2 * d, -mn)
            assert np.array_equal(self.sum_phase(d), expected), d

    @pytest.mark.parametrize("d", list(range(1, 9)))
    def test_sum_family_adjoint_sign_table(self, d):
        table = adjoint_sign_table(d)
        for m in range(d):
            for n in range(d):
                lhs = sum_displacement(d, m, n).conj().T
                rhs = table[m, n] * sum_displacement(d, -m, -n)
                assert np.abs(lhs - rhs).max() < 1e-12
                if d % 2 == 0:
                    assert table[m, n] == conjugate_sign(d, m, n)

    @pytest.mark.parametrize("d", [*range(1, 10), 128, 129])
    def test_adjoint_reflection_is_the_signed_negation(self, rng, d):
        v = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m, n = np.ogrid[:d, :d]
        for values in (v, v.T, v[:, ::-1].T):  # contiguous, transposed, negative strides
            expected = adjoint_sign_table(d) * values[(-m) % d, (-n) % d]
            reflected = adjoint_reflection(values)
            assert np.array_equal(reflected, expected), d
            assert not np.shares_memory(reflected, values)

    @pytest.mark.parametrize("d", list(range(2, 9)))
    def test_adjoint_negation_sign_law(self, d):
        for m in range(d):
            for n in range(d):
                lhs = displacement_matrix(d, m, n).conj().T
                rhs = conjugate_sign(d, m, n) * displacement_matrix(d, (-m) % d, (-n) % d)
                assert np.abs(lhs - rhs).max() < 1e-12


class TestPauliRecovery:
    """d = 2 displacement matrices against the standard Pauli table."""

    def test_fourier_convention_matches_table(self):
        assert displacement_matrix_fourier(2, 0, 0) == pytest.approx(np.eye(2))
        assert displacement_matrix_fourier(2, 0, 1) == pytest.approx(np.diag([1.0, -1.0]))
        assert displacement_matrix_fourier(2, 1, 0) == pytest.approx(np.array([[0, 1], [1, 0]]))
        assert displacement_matrix_fourier(2, 1, 1) == pytest.approx(np.array([[0, 1j], [-1j, 0]]))

    def test_position_convention(self):
        assert displacement_matrix(2, 0, 1) == pytest.approx(np.array([[0, 1], [1, 0]]))
        assert displacement_matrix(2, 1, 0) == pytest.approx(np.diag([1.0, -1.0]))
        # the true operator matrix is the textbook sigma_2 ...
        assert displacement_matrix(2, 1, 1) == pytest.approx(np.array([[0, -1j], [1j, 0]]))

    def test_literal_index_formula_differs_by_wrap_sign(self):
        # ... while evaluating exp(i pi m (k+k')/d) delta_{k,k'+n} on canonical
        # indices gives [[0, i], [i, 0]]: the wrapped entry (k'=1 -> k=0)
        # misses a (-1)**m relative to the operator matrix.
        d = 2
        literal = np.zeros((d, d), complex)
        for k in range(d):
            for kp in range(d):
                if k == (kp + 1) % d:
                    literal[k, kp] = np.exp(1j * np.pi * 1 * (k + kp) / d)
        assert literal == pytest.approx(np.array([[0, 1j], [1j, 0]]))


class TestTraceAndComposition:
    def test_trace_at_origin(self):
        assert trace_displacement(5, 0, 0) == pytest.approx(5.0)

    def test_trace_vanishes_off_origin(self):
        assert abs(trace_displacement(5, 1, 2)) < 1e-12
        assert abs(trace_displacement(2, 1, 1)) < 1e-12

    def test_compose_with_identity(self):
        phase, point = compose_displacements(4, 0, 0, 3, 2)
        assert phase == pytest.approx(1.0)
        assert point == (3, 2)

    def test_compose_symplectic_phase(self):
        phase, point = compose_displacements(3, 1, 0, 0, 1)
        assert phase == pytest.approx(np.exp(1j * np.pi / 3))
        assert point == (1, 1)

    def test_compose_antisymmetry(self):
        phase, point = compose_displacements(3, 0, 1, 1, 0)
        assert phase == pytest.approx(np.exp(-1j * np.pi / 3))
        assert point == (1, 1)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_compose_exact_on_all_pairs(self, d):
        for m in range(d):
            for n in range(d):
                u1 = displacement_matrix(d, m, n)
                for mp in range(d):
                    for np_ in range(d):
                        phase, point = compose_displacements(d, m, n, mp, np_)
                        prod = u1 @ displacement_matrix(d, mp, np_)
                        assert np.abs(prod - phase * displacement_matrix(d, *point)).max() < 1e-12

    @pytest.mark.parametrize("d", [3, 4])
    def test_conjugation_identity(self, d):
        for m in range(d):
            for n in range(d):
                u = displacement_matrix(d, m, n)
                for mp in range(d):
                    for np_ in range(d):
                        v = displacement_matrix(d, mp, np_)
                        lhs = v @ u @ v.conj().T
                        rhs = conjugation_phase(d, m, n, mp, np_) * u
                        assert np.abs(lhs - rhs).max() < 1e-12

    def test_displacement_orthogonality(self):
        d = 5
        for m in range(d):
            for n in range(d):
                for mp in range(d):
                    for np_ in range(d):
                        tr = np.trace(displacement_matrix(d, m, n).conj().T
                                      @ displacement_matrix(d, mp, np_))
                        expected = d if (m, n) == (mp, np_) else 0.0
                        assert abs(tr - expected) < 1e-12
