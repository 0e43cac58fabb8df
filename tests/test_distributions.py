import numpy as np
import pytest

from torus_quant import (
    FiducialSpec,
    ToleranceError,
    Weight,
    coherent_state_weight,
    dft,
    displacement_apply,
    husimi,
    overlap_distribution,
    parity_weight,
    portrait,
    portrait_of_symbol,
    quantization_operator,
    quantize,
    realize_fiducial,
    wigner,
)
from torus_quant import distributions
from torus_quant.distributions import realize_real
from torus_quant.errors import bound

from conftest import random_map, random_state, random_symmetric_weight
from oracles import (
    coherent_state,
    inner,
    parity_matrix,
    transported,
    wigner_half_argument,
    wigner_via_parity,
)


class TestHusimi:
    def test_peak_value_on_window_itself(self, rng):
        d = 6
        w = random_state(rng, d, unit=True)
        assert husimi(w, w)[0, 0] == pytest.approx(1.0 / d)

    def test_total_mass_is_state_norm(self, rng):
        d = 7
        psi = random_state(rng, d, unit=True)
        w = random_state(rng, d, unit=True)
        assert husimi(psi, w).sum() == pytest.approx(1.0, abs=1e-12)

    def test_displaced_window_peaks_at_its_phase_point(self, rng):
        d = 5
        w = random_state(rng, d, unit=True)
        m0, n0 = 2, 3
        h = husimi(coherent_state(w, m0, n0), w)
        assert h[m0, n0] == pytest.approx(1.0 / d)
        assert h.max() == pytest.approx(h[m0, n0])

    def test_nonnegative(self, rng):
        h = husimi(random_state(rng, 5), random_state(rng, 5, unit=True))
        assert h.min() >= 0.0


class TestWigner:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_marginals(self, rng, d):
        psi = random_state(rng, d, unit=True)
        w = wigner(psi)
        assert np.abs(w.sum(axis=0) - np.abs(psi) ** 2).max() < 1e-12
        assert np.abs(w.sum(axis=1) - np.abs(dft(psi)) ** 2).max() < 1e-12

    def test_delta_state_support(self):
        d, n0 = 3, 1
        psi = np.zeros(d, complex)
        psi[n0] = 1.0
        w = wigner(psi)
        assert w.sum(axis=0)[n0] == pytest.approx(1.0)
        mask = np.ones(d, bool)
        mask[n0] = False
        assert np.abs(w[:, mask]).max() < 1e-12

    def test_total_mass(self, rng):
        psi = random_state(rng, 5, unit=True)
        assert wigner(psi).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_all_three_forms_agree(self, rng, d):
        psi = random_state(rng, d, unit=True)
        w = wigner(psi)
        assert np.abs(w - wigner_via_parity(psi)).max() < 1e-12
        assert np.abs(w - wigner_half_argument(psi)).max() < 1e-12

    def test_even_dimension_rejected_with_reason(self, rng):
        with pytest.raises(ValueError, match="odd"):
            wigner(random_state(rng, 6))

    def test_covariance_under_displacement(self, rng):
        d = 5
        psi = random_state(rng, d, unit=True)
        w = wigner(psi)
        for p in ((1, 2), (4, 3)):
            shifted = wigner(displacement_apply(psi, *p))
            assert np.abs(shifted - np.roll(w, p, axis=(0, 1))).max() < 1e-12


class TestParityOperator:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_unit_weight_quantizes_to_reversal(self, d):
        assert np.abs(quantization_operator(parity_weight(d)) - parity_matrix(d)).max() < 1e-12

    def test_reversal_action(self, rng):
        psi = random_state(rng, 5)
        assert parity_matrix(5) @ psi == pytest.approx(psi[(-np.arange(5)) % 5])


class TestPortrait:
    def test_identity_operator_has_flat_portrait(self, rng):
        d = 4
        w = random_symmetric_weight(rng, d)
        assert np.abs(portrait(np.eye(d), w) - 1.0).max() < 1e-12

    def test_cs_weight_portrait_of_projector_is_scaled_husimi(self, rng):
        d = 4
        phi = realize_fiducial(FiducialSpec("von_mises", 1.0), d)
        w = coherent_state_weight(phi)
        psi = random_state(rng, d, unit=True)
        port = portrait(np.outer(psi, psi.conj()), w)
        assert np.abs(port - d * husimi(psi, phi)).max() < 1e-12

    def test_parity_weight_portrait_of_projector_is_scaled_wigner(self, rng):
        d = 5
        psi = random_state(rng, d, unit=True)
        port = portrait(np.outer(psi, psi.conj()), parity_weight(d))
        assert np.abs(port - d * wigner(psi)).max() < 1e-12

    def test_unit_symbol_is_fixed_point(self, rng):
        d = 4
        w = random_symmetric_weight(rng, d)
        assert np.abs(portrait_of_symbol(np.ones((d, d)), w) - 1.0).max() < 1e-12

    def test_delta_symbol_returns_smoothing_distribution(self, rng):
        d = 4
        w = random_symmetric_weight(rng, d)
        f = np.zeros((d, d), complex)
        f[0, 0] = d
        assert np.abs(portrait_of_symbol(f, w) - overlap_distribution(w)).max() < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_convolution_and_trace_paths_agree(self, rng, d):
        w = random_symmetric_weight(rng, d)
        f = random_map(rng, d)
        conv = portrait_of_symbol(f, w)
        trace = portrait(quantize(f, w), w)
        assert np.abs(conv - trace).max() < 1e-12


class TestOverlapDistribution:
    def test_unit_mass_under_weighted_measure(self, rng):
        d = 5
        dist = overlap_distribution(random_symmetric_weight(rng, d))
        assert dist.sum() / d == pytest.approx(1.0, abs=1e-12)

    def test_non_self_adjoint_weight_gives_complex_map_of_unit_mass(self, rng):
        d = 4
        values = random_map(rng, d)
        values[0, 0] = 1.0
        w = Weight(values)
        mw = quantization_operator(w)
        oracle = np.array([[np.trace(transported(mw, m, n) @ mw) for n in range(d)]
                           for m in range(d)])
        dist = overlap_distribution(w)
        assert np.abs(dist.imag).max() > 0.1
        assert np.abs(dist - oracle).max() < 1e-12
        assert abs(dist.sum() / d - 1.0) < 1e-12

    def test_self_adjoint_weight_keeps_the_reality_check(self, rng, monkeypatch):
        real_dft = distributions.symplectic_dft
        monkeypatch.setattr(distributions, "symplectic_dft", lambda g: real_dft(g) + 1e-6j)
        with pytest.raises(ToleranceError, match="imaginary"):
            overlap_distribution(random_symmetric_weight(rng, 5))

    def test_matches_trace_oracle(self, rng):
        d = 4
        w = random_symmetric_weight(rng, d)
        mw = quantization_operator(w)
        oracle = np.array([[np.trace(transported(mw, m, n) @ mw).real for n in range(d)]
                           for m in range(d)])
        assert np.abs(overlap_distribution(w) - oracle).max() < 1e-12

    def test_constant_window_brute_force(self):
        d = 3
        phi = realize_fiducial(FiducialSpec("constant"), d)
        w = coherent_state_weight(phi)
        oracle = np.array([[abs(inner(coherent_state(phi, m, n), phi)) ** 2 for n in range(d)]
                           for m in range(d)])
        assert np.abs(overlap_distribution(w) - oracle).max() < 1e-12

    def test_nonnegative_for_cs_weights(self, rng):
        for d in (3, 4, 5):
            phi = random_state(rng, d, unit=True)
            dist = overlap_distribution(coherent_state_weight(phi))
            assert dist.min() >= -1e-12

    def test_negative_dip_raises_only_for_density_weights(self, rng):
        # a hermitian M_w that is not positive has a signed distribution
        w = random_symmetric_weight(rng, 5)
        assert not w.is_density
        assert coherent_state_weight(random_state(rng, 5, unit=True)).is_density
        dip = -overlap_distribution(w).min()
        assert dip > 1e-3
        with pytest.raises(ToleranceError, match="dips") as info:
            overlap_distribution(Weight(w.values, is_density=True))
        peak = np.abs(w.values).max()
        assert (info.value.key, info.value.bound) == ("overlap_distribution_dips", bound(peak ** 2))
        assert info.value.residual == pytest.approx(dip, rel=1e-12)


class TestWignerRealityBound:
    """The imaginary part is held to 1e-10 relative to ||psi||^2."""

    @pytest.mark.parametrize("d", [31, 127])
    def test_large_amplitude_state_passes(self, rng, d):
        psi = 1e4 * random_state(rng, d)
        w = wigner(psi)
        scale = np.linalg.norm(psi) ** 2
        assert np.abs(w.sum(axis=0) - np.abs(psi) ** 2).max() < 1e-12 * scale

    def test_injected_imaginary_part_still_raises(self, rng, monkeypatch):
        psi = 1e4 * random_state(rng, 31)
        real_ifft = np.fft.ifft

        def corrupted(*args, **kwargs):
            out = real_ifft(*args, **kwargs)
            out[0, 0] += 1e-6j * np.linalg.norm(psi) ** 2
            return out
        monkeypatch.setattr(np.fft, "ifft", corrupted)
        with pytest.raises(ToleranceError, match="imaginary"):
            wigner(psi)


class TestRealize:
    def test_passes_small_imaginary_noise(self):
        out = realize_real(np.array([1.0 + 1e-14j, 2.0]))
        assert out.dtype.kind == "f"

    def test_raises_above_tolerance(self):
        with pytest.raises(ToleranceError, match="imaginary") as info:
            realize_real(np.array([1.0 + 1e-3j]))
        assert (info.value.key, info.value.residual, info.value.bound) == (
            "imaginary", 1e-3, bound())

    def test_raises_on_nan_imaginary_part(self):
        with pytest.raises(ToleranceError, match="imaginary"):
            realize_real(np.array([1.0 + 0j, complex(2.0, np.nan)]))
