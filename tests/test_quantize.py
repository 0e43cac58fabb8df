import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torus_quant import (
    FiducialSpec,
    Weight,
    coherent_state_weight,
    dft,
    idft,
    parity_weight,
    portrait_of_symbol,
    positivity_report,
    quantization_operator,
    quantize,
    quantize_momentum,
    quantize_position,
    realize_fiducial,
    symplectic_dft,
    weight_from_operator,
)
from torus_quant.errors import bound

from conftest import (
    hermitian_unit_trace,
    plane_wave,
    random_map,
    random_state,
    random_symmetric_weight,
)
from oracles import (
    covariance_defect,
    dft_matrix,
    parity_matrix,
    quantization_operator_sum,
    sum_displacement,
    transported,
)


class TestWeight:
    def test_rejects_non_unit_origin(self):
        values = np.ones((3, 3), complex)
        values[0, 0] = 0.5
        with pytest.raises(ValueError, match="origin"):
            Weight(values)

    @pytest.mark.parametrize("origin", [np.nan, complex(1.0, np.nan)])
    def test_rejects_nan_origin(self, origin):
        values = np.ones((3, 3), complex)
        values[0, 0] = origin
        with pytest.raises(ValueError, match="origin"):
            Weight(values)

    @pytest.mark.parametrize("entry, value", [((1, 2), np.nan), ((1, 1), np.inf)])
    def test_rejects_non_finite_entry(self, rng, entry, value):
        # a non-finite weight would quantize to a non-finite operator
        values = random_symmetric_weight(rng, 4).values
        values[entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            Weight(values)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_symmetric_weights_give_hermitian_operators(self, rng, d):
        w = random_symmetric_weight(rng, d)
        assert w.symmetry_defect() <= 1e-10
        m = quantization_operator(w)
        assert np.abs(m - m.conj().T).max() < 1e-12

    @pytest.mark.parametrize("d", [4, 5])
    def test_violating_the_condition_breaks_hermiticity(self, rng, d):
        w = random_symmetric_weight(rng, d)
        values = w.values.copy()
        values[1, 1] += 0.7
        bumped = Weight(values)
        assert bumped.symmetry_defect() > 0.1
        m = quantization_operator(bumped)
        assert np.abs(m - m.conj().T).max() > 1e-3

    def test_coherent_state_weight_is_symmetric(self):
        for d in (4, 5):
            phi = realize_fiducial(FiducialSpec.von_mises(1.0), d)
            assert coherent_state_weight(phi).symmetry_defect() <= 1e-10

    def test_coherent_state_weight_is_validated_once(self, monkeypatch):
        checks = []
        validate = Weight.__post_init__
        monkeypatch.setattr(Weight, "__post_init__", lambda w: checks.append(validate(w)))
        phi = realize_fiducial(FiducialSpec.von_mises(1.0), 8)
        w = coherent_state_weight(phi)
        assert len(checks) == 1 and w.is_density
        assert np.array_equal(w.values, weight_from_operator(np.outer(phi, phi.conj())).values)

    def test_parity_weight_symmetry_tracks_hermiticity(self):
        # the unit weight gives a hermitian operator at odd d (the parity
        # operator) and at d = 2, but not at larger even d; the predicate
        # agrees with the measured hermiticity in every case
        for d in (2, 3, 4, 5, 6):
            w = parity_weight(d)
            m = quantization_operator(w)
            hermitian = np.abs(m - m.conj().T).max() < 1e-12
            symmetric = w.symmetry_defect() <= 1e-10
            assert symmetric == hermitian
            assert symmetric == (d % 2 == 1 or d == 2)


class TestQuantizationOperator:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_unit_weight_gives_reversal(self, d):
        assert np.abs(quantization_operator(parity_weight(d)) - parity_matrix(d)).max() < 1e-12

    @pytest.mark.parametrize("d", [4, 5])
    def test_coherent_state_weight_gives_projector(self, d):
        phi = realize_fiducial(FiducialSpec.von_mises(1.0), d)
        m = quantization_operator(coherent_state_weight(phi))
        assert np.abs(m - np.outer(phi, phi.conj())).max() < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_unit_trace(self, rng, d):
        w = random_symmetric_weight(rng, d)
        assert np.trace(quantization_operator(w)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_kernel_and_direct_paths_agree(self, rng, d):
        w = random_symmetric_weight(rng, d)
        assert np.abs(quantization_operator(w) - quantization_operator_sum(w)).max() < 1e-12


class TestWeightRetrieval:
    def test_projector_weight_matches_coherent_state_weight(self, rng):
        for d in (4, 5):
            phi = random_state(rng, d, unit=True)
            got = weight_from_operator(np.outer(phi, phi.conj()))
            expected = coherent_state_weight(phi)
            assert np.abs(got.values - expected.values).max() < 1e-12

    def test_reversal_operator_has_unit_weight(self):
        got = weight_from_operator(parity_matrix(3))
        assert np.abs(got.values - 1.0).max() < 1e-12

    def test_round_trip_on_random_symmetric_weight(self, rng):
        w = random_symmetric_weight(rng, 5)
        back = weight_from_operator(quantization_operator(w))
        assert np.abs(back.values - w.values).max() < 1e-12

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            weight_from_operator(np.eye(3))

    def test_large_operator_round_trips(self, rng):
        # entries ~1e6: the trace rounds by more than 1e-10, within its own bound
        d = 31
        for _ in range(5):
            m = 1e6 * hermitian_unit_trace(rng, d)
            m += (1.0 - np.trace(m)) / d * np.eye(d)
            w = weight_from_operator(m)
            assert w.values[0, 0] == 1.0
            assert np.abs(quantization_operator(w) - m).max() <= 1e-12 * np.abs(m).max()

    def test_trace_just_past_its_bound_raises(self, rng):
        d = 31
        m = 1e6 * hermitian_unit_trace(rng, d)
        m += (1.0 - np.trace(m)) / d * np.eye(d)
        m[0, 0] += 2 * bound(np.abs(np.diagonal(m)).sum())
        with pytest.raises(ValueError, match="trace"):
            weight_from_operator(m)

    def test_rejects_nan_trace(self):
        with pytest.raises(ValueError, match="trace"):
            weight_from_operator(np.diag([1.0, 0.0, np.nan]))


class TestTransported:
    def test_zero_point_is_identity_map(self, rng):
        m = random_map(rng, 5)
        assert transported(m, 0, 0) == pytest.approx(m)

    def test_matches_matrix_conjugation(self, rng):
        d = 5
        m = random_map(rng, d)
        for mm in range(d):
            for nn in range(d):
                u = sum_displacement(d, mm, nn)
                assert np.abs(transported(m, mm, nn) - u @ m @ u.conj().T).max() < 1e-12

    def test_transported_family_resolves_identity(self, rng):
        d = 5
        w = random_symmetric_weight(rng, d)
        mw = quantization_operator(w)
        acc = sum(transported(mw, m, n) for m in range(d) for n in range(d)) / d
        assert np.abs(acc - np.eye(d)).max() < 1e-12

    def test_projector_transport_is_displaced_projector(self, rng):
        d = 3
        phi = random_state(rng, d, unit=True)
        proj = np.outer(phi, phi.conj())
        for m in range(d):
            for n in range(d):
                psi = sum_displacement(d, m, n) @ phi
                assert np.abs(transported(proj, m, n) - np.outer(psi, psi.conj())).max() < 1e-12


class TestSymplecticDft:
    def test_unit_map_concentrates_at_origin(self):
        d = 4
        out = symplectic_dft(np.ones((d, d)))
        expected = np.zeros((d, d))
        expected[0, 0] = d
        assert np.abs(out - expected).max() < 1e-12

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_self_inverse(self, rng, conjugate):
        f = random_map(rng, 4)
        out = symplectic_dft(symplectic_dft(f, conjugate), conjugate)
        assert np.abs(out - f).max() < 1e-12

    def test_mixed_application_is_point_reflection(self, rng):
        f = random_map(rng, 5)
        out = symplectic_dft(symplectic_dft(f), conjugate=True)
        reflected = np.roll(f[::-1, ::-1], 1, axis=(0, 1))
        assert np.abs(out - reflected).max() < 1e-12


class TestQuantize:
    def test_unit_symbol_gives_identity(self, rng):
        d = 5
        for w in (parity_weight(d), random_symmetric_weight(rng, d)):
            assert np.abs(quantize(np.ones((d, d)), w) - np.eye(d)).max() < 1e-12

    def test_parity_weight_position_symbol_is_diagonal(self):
        d = 5
        h = np.arange(d, dtype=complex)
        assert np.abs(quantize(np.tile(h, (d, 1)), parity_weight(d)) - np.diag(h)).max() < 1e-12

    def test_parity_weight_momentum_symbol_is_fourier_multiplier(self):
        # multiplication by g in the Fourier eigenbasis: A e_k = g(k) e_k,
        # i.e. the conjugation of diag(g) by the inverse DFT matrix
        d = 5
        g = np.arange(d, dtype=complex)
        a = quantize(np.tile(g[:, None], (1, d)), parity_weight(d))
        f = dft_matrix(d)
        assert np.abs(a - f.conj().T @ np.diag(g) @ f).max() < 1e-12
        for k in range(d):
            ek = plane_wave(d, k)
            assert np.abs(a @ ek - g[k] * ek).max() < 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="match"):
            quantize(np.ones((3, 3)), random_symmetric_weight(rng, 4))


class TestFastPaths:
    @pytest.mark.parametrize("d", [4, 5])
    def test_momentum_fast_path_matches_general(self, rng, d):
        w = random_symmetric_weight(rng, d)
        g = random_state(rng, d)
        f = np.tile(g[:, None], (1, d))
        assert np.abs(quantize_momentum(g, w) - quantize(f, w)).max() < 1e-12

    @pytest.mark.parametrize("d", [4, 5, 129])
    def test_momentum_fast_path_is_the_difference_gather_bitwise(self, rng, d):
        """Entry [l, k] is ghat(l - k) w(0, l - k) / sqrt(d), ghat = idft(g), as a d x d gather."""
        w = random_symmetric_weight(rng, d)
        g = random_state(rng, d)
        delta = (np.arange(d)[:, None] - np.arange(d)[None, :]) % d
        expected = idft(g)[delta] * w.values[0, delta] / np.sqrt(d)
        assert np.array_equal(quantize_momentum(g, w), expected)

    @pytest.mark.parametrize("d", [4, 5])
    def test_position_fast_path_matches_general(self, rng, d):
        w = random_symmetric_weight(rng, d)
        h = random_state(rng, d)
        assert np.abs(quantize_position(h, w) - quantize(np.tile(h, (d, 1)), w)).max() < 1e-12

    def test_unit_momentum_symbol_is_identity(self, rng):
        w = random_symmetric_weight(rng, 5)
        assert np.abs(quantize_momentum(np.ones(5), w) - np.eye(5)).max() < 1e-12

    def test_unit_position_symbol_is_identity(self, rng):
        w = random_symmetric_weight(rng, 5)
        assert np.abs(quantize_position(np.ones(5), w) - np.eye(5)).max() < 1e-12

    def test_momentum_squared_with_parity_weight(self):
        d = 5
        g = np.arange(d, dtype=complex) ** 2
        a = quantize_momentum(g, parity_weight(d))
        f = dft_matrix(d)
        assert np.abs(a - f.conj().T @ np.diag(g) @ f).max() < 1e-12

    def test_momentum_index_cs_weight_matches_convolution_sum(self, rng):
        # independent oracle: (A psi)(l) = (1/sqrt d) sum_k g(k) ((Omega e_k) * psi)(l)
        # with Omega(n) the zero-frequency row of the weight and
        # e_k(u) = exp(2 i pi k u / d)/sqrt(d)
        d = 5
        phi = realize_fiducial(FiducialSpec.von_mises(1.0), d)
        w = coherent_state_weight(phi)
        g = np.arange(d, dtype=complex)
        a = quantize_momentum(g, w)
        omega = w.values[0, :]
        psi = random_state(rng, d)
        expected = np.zeros(d, dtype=complex)
        for k in range(d):
            kernel = omega * np.exp(2j * np.pi * k * np.arange(d) / d) / np.sqrt(d)
            conv = np.array([sum(kernel[u] * psi[(l - u) % d] for u in range(d)) for l in range(d)])
            expected += g[k] * conv / np.sqrt(d)
        assert np.abs(a @ psi - expected).max() < 1e-12

    def test_position_fourier_cs_weight_is_contracting_diagonal(self, rng):
        d = 5
        phi = realize_fiducial(FiducialSpec.von_mises(1.0), d)
        w = coherent_state_weight(phi)
        h = np.exp(2j * np.pi * np.arange(d) / d)
        a = quantize_position(h, w)
        assert np.abs(a - np.diag(np.diag(a))).max() < 1e-14
        mods = np.abs(np.diag(a))
        assert np.all(mods < 1.0)
        # literal multiplier sum as an independent oracle
        hhat = dft(h)
        expected = np.array(
            [sum(hhat[m] * w.values[m, 0] * np.exp(2j * np.pi * m * l / d) for m in range(d))
             for l in range(d)]) / np.sqrt(d)
        assert np.abs(np.diag(a) - expected).max() < 1e-12


class TestCovariance:
    def test_zero_shift(self, rng):
        d = 4
        w = random_symmetric_weight(rng, d)
        assert covariance_defect(random_map(rng, d), w, (0, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_parity_weight_random_symbol(self, rng):
        assert covariance_defect(random_map(rng, 5), parity_weight(5), (2, 3)) < 1e-12

    def test_cs_weight_random_symbol(self, rng):
        phi = realize_fiducial(FiducialSpec.von_mises(1.0), 4)
        w = coherent_state_weight(phi)
        assert covariance_defect(random_map(rng, 4), w, (1, 2)) < 1e-12


class TestPositivity:
    def test_uniform_distribution_is_density(self):
        d = 4
        phi = realize_fiducial(FiducialSpec.von_mises(1.0), d)
        w = coherent_state_weight(phi)
        f = np.full((d, d), 1.0 / d)  # (1/d) sum f = 1
        report = positivity_report(f, w)
        assert report.is_density
        assert report.trace == pytest.approx(1.0, abs=1e-12)
        assert report.min_eigenvalue >= -1e-12

    @pytest.mark.parametrize("excess, expected", [(5e-11, True), (5e-10, False)])
    def test_trace_is_held_to_the_unit_bound(self, excess, expected):
        # eigenvalues are 1/d, yet the trace is compared with 1 at scale 1
        d = 5
        w = coherent_state_weight(realize_fiducial(FiducialSpec.von_mises(1.0), d))
        report = positivity_report(np.full((d, d), (1.0 + excess) / d), w)
        assert report.is_density == expected

    def test_unit_symbol_with_parity_weight_is_identity(self):
        d = 4
        report = positivity_report(np.ones((d, d)), parity_weight(d))
        assert report.min_eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert report.trace == pytest.approx(d, abs=1e-12)
        assert not report.is_density  # positive, but trace is d rather than 1

    def test_signed_symbol_reports_without_raising(self):
        d = 3
        phi = realize_fiducial(FiducialSpec.constant(), d)
        w = coherent_state_weight(phi)
        f = np.full((d, d), 1.0 / d)
        f[0, 0] += 5.0
        f[1, 1] -= 5.0  # keeps (1/d) sum f = 1 but dips strongly negative
        report = positivity_report(f, w)
        assert report.trace == pytest.approx(1.0, abs=1e-10)
        assert report.min_eigenvalue < -1e-10
        assert not report.is_density


class TestPaperIdentities:
    """The unit symbol is a fixed point and quantization is covariant, for any self-adjoint weight.

    The weights are general ``Weight`` values, as a ``file:`` weight is, of
    peak 1..1e6; each identity is held to ``bound`` at the scale of its inputs.
    """

    @staticmethod
    def weight(d, seed, peak_exponent):
        values = random_symmetric_weight(np.random.default_rng(seed), d).values
        values *= 10.0 ** peak_exponent / np.abs(values).max()  # a real factor keeps self-adjointness
        values[0, 0] = 1.0
        return Weight(values)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           peak_exponent=st.floats(0.0, 6.0))
    def test_unit_symbol_quantizes_to_identity(self, d, seed, peak_exponent):
        w = self.weight(d, seed, peak_exponent)
        residual = np.abs(quantize(np.ones((d, d)), w) - np.eye(d)).max()
        assert residual <= bound(np.abs(w.values).max())

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           peak_exponent=st.floats(0.0, 6.0))
    def test_portrait_of_unit_symbol_is_one(self, d, seed, peak_exponent):
        w = self.weight(d, seed, peak_exponent)
        residual = np.abs(portrait_of_symbol(np.ones((d, d)), w) - 1.0).max()
        assert residual <= bound(np.abs(w.values).max() ** 2)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           peak_exponent=st.floats(0.0, 6.0), shift=st.tuples(st.integers(), st.integers()))
    def test_quantization_is_covariant(self, d, seed, peak_exponent, shift):
        w = self.weight(d, seed, peak_exponent)
        f = random_map(np.random.default_rng(seed + 1), d)
        scale = np.abs(f).max() * np.abs(w.values).max()
        assert covariance_defect(f, w, shift) <= bound(scale)
