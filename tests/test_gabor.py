import numpy as np
import pytest

from torus_quant import (
    FiducialSpec,
    displacement_apply,
    gabor_inverse,
    gabor_transform,
    fourier_basis,
    isometry_defect,
    kronecker_basis,
    norm,
    realize_fiducial,
)

from conftest import catalog_windows, random_state
from oracles import (
    coherent_state,
    frame_resolution_defect,
    inner,
    jacobi_theta3,
    reproducing_defect,
    reproducing_kernel,
    reproducing_kernel_factored,
)


def gabor_oracle(phi, window):
    """Brute-force coefficient map from individual coherent-state overlaps."""
    d = phi.shape[0]
    out = np.empty((d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            out[m, n] = inner(displacement_apply(window, m, n), phi)
    return out


class TestCoherentStates:
    def test_origin_returns_window(self, rng):
        w = random_state(rng, 5, unit=True)
        assert coherent_state(w, 0, 0) == pytest.approx(w)

    def test_translated_delta(self):
        assert coherent_state(kronecker_basis(4, 0), 0, 3) == pytest.approx(kronecker_basis(4, 3))

    def test_norm_preserved_on_whole_orbit(self, rng):
        w = random_state(rng, 6, unit=True)
        for m in range(6):
            for n in range(6):
                assert norm(coherent_state(w, m, n)) == pytest.approx(1.0)

    def test_warns_on_non_unit_window(self):
        with pytest.warns(UserWarning, match="unit"):
            coherent_state(np.array([2.0, 0.0]), 0, 1)


class TestTransform:
    def test_self_overlap_at_origin(self, rng):
        w = random_state(rng, 7, unit=True)
        assert gabor_transform(w, w)[0, 0] == pytest.approx(1.0)

    def test_isometry(self, rng):
        w = random_state(rng, 7, unit=True)
        phi = random_state(rng, 7)
        assert isometry_defect(phi, gabor_transform(phi, w)) < 1e-12

    def test_isometry_defect_rejects_a_window(self, rng):
        w = random_state(rng, 7, unit=True)
        with pytest.raises(ValueError, match="7 x 7"):
            isometry_defect(random_state(rng, 7), w)

    def test_matches_bruteforce_constant_window(self):
        d = 3
        w = realize_fiducial(FiducialSpec.constant(), d)
        phi = fourier_basis(d, 2)
        assert np.abs(gabor_transform(phi, w) - gabor_oracle(phi, w)).max() < 1e-12

    @pytest.mark.parametrize("d", [4, 5])
    def test_matches_bruteforce_random(self, rng, d):
        w = random_state(rng, d, unit=True)
        phi = random_state(rng, d)
        assert np.abs(gabor_transform(phi, w) - gabor_oracle(phi, w)).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            gabor_transform(random_state(rng, 4), random_state(rng, 5, unit=True))


class TestInversion:
    def test_round_trip_von_mises(self, rng):
        d = 8
        w = realize_fiducial(FiducialSpec.von_mises(2.0), d)
        phi = random_state(rng, d)
        assert np.abs(gabor_inverse(gabor_transform(phi, w), w) - phi).max() < 1e-12

    def test_round_trip_gaussian(self, rng):
        d = 5
        w = realize_fiducial(FiducialSpec.gaussian(1.0), d)
        phi = random_state(rng, d)
        assert np.abs(gabor_inverse(gabor_transform(phi, w), w) - phi).max() < 1e-10

    def test_zero_coefficients(self, rng):
        w = random_state(rng, 4, unit=True)
        assert gabor_inverse(np.zeros((4, 4)), w) == pytest.approx(np.zeros(4))


def constant_kernel(d, p, q):
    (m, n), (mp, npp) = p, q
    if m != mp:
        return 0.0
    return np.exp(1j * np.pi * m * (n - npp) / d)


def kronecker_kernel(d, k0, p, q):
    (m, n), (mp, npp) = p, q
    if n != npp:
        return 0.0
    return np.exp(-1j * np.pi * (2 * k0 + n) * (m - mp) / d)


def plane_wave_kernel(d, k0, p, q):
    (m, n), (mp, npp) = p, q
    if m != mp:
        return 0.0
    return np.exp(1j * np.pi * (m + 2 * k0) * (n - npp) / d)


def gaussian_kernel_oracle(d, kappa, p, q):
    """Theta-series closed form built from scratch (normalized at p = q)."""
    (m, n), (mp, npp) = p, q

    def corr(mu, nu):
        acc = 0.0
        for j in range(-6, 7):
            big = mu + j * d
            acc += np.exp(-np.pi * big * big / (kappa * d)) * jacobi_theta3(
                nu / d + 1j * big / (kappa * d), 2.0 / (kappa * d))
        return acc

    a = np.exp(1j * np.pi * (m * (n - npp) - (m - mp) * npp) / d)
    return a * corr(m - mp, n - npp) / corr(0, 0)


class TestReproducingKernel:
    def test_unit_on_diagonal(self, rng):
        w = random_state(rng, 5, unit=True)
        assert reproducing_kernel(w, (2, 3), (2, 3)) == pytest.approx(1.0)

    def test_hermitian(self, rng):
        w = random_state(rng, 5, unit=True)
        k1 = reproducing_kernel(w, (1, 4), (3, 2))
        k2 = reproducing_kernel(w, (3, 2), (1, 4))
        assert k1 == pytest.approx(np.conj(k2))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_factored_equals_direct(self, rng, d):
        w = random_state(rng, d, unit=True)
        for p in [(m, n) for m in range(d) for n in range(d)]:
            for q in [(0, 0), (1, d - 1), (d - 1, 2 % d)]:
                assert reproducing_kernel_factored(w, p, q) == pytest.approx(
                    reproducing_kernel(w, p, q), abs=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_constant_window_closed_form(self, d):
        w = realize_fiducial(FiducialSpec.constant(), d)
        for p in [(m, n) for m in range(d) for n in range(d)]:
            for q in [(0, 0), (1, 1), (d - 1, 2 % d)]:
                assert reproducing_kernel(w, p, q) == pytest.approx(
                    constant_kernel(d, p, q), abs=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_kronecker_window_closed_form(self, d):
        k0 = 1
        w = realize_fiducial(FiducialSpec.kronecker(k0), d)
        for p in [(m, n) for m in range(d) for n in range(d)]:
            for q in [(0, 0), (2 % d, 1), (d - 1, d - 1)]:
                assert reproducing_kernel(w, p, q) == pytest.approx(
                    kronecker_kernel(d, k0, p, q), abs=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_plane_wave_window_closed_form(self, d):
        k0 = 1
        w = realize_fiducial(FiducialSpec.plane_wave(k0), d)
        for p in [(m, n) for m in range(d) for n in range(d)]:
            for q in [(0, 0), (1, 2 % d), (d - 1, 1)]:
                assert reproducing_kernel(w, p, q) == pytest.approx(
                    plane_wave_kernel(d, k0, p, q), abs=1e-12)

    @pytest.mark.parametrize("d", [3, 5])
    def test_dirichlet_at_full_order_matches_position_form(self, d):
        # at 2j+1 = d the window collapses to the delta at 0, so the kernel
        # takes the position-localized closed form with k0 = 0
        j = (d - 1) // 2
        w = realize_fiducial(FiducialSpec.dirichlet(j), d)
        for p in [(m, n) for m in range(d) for n in range(d)]:
            for q in [(0, 0), (1, 1), (2 % d, d - 1)]:
                assert reproducing_kernel(w, p, q) == pytest.approx(
                    kronecker_kernel(d, 0, p, q), abs=1e-12)

    def test_gaussian_window_theta_form(self):
        d, kappa = 5, 1.0
        w = realize_fiducial(FiducialSpec.gaussian(kappa), d)
        for p in [(m, n) for m in range(d) for n in range(d)]:
            for q in [(0, 0), (1, 3), (4, 2)]:
                assert reproducing_kernel(w, p, q) == pytest.approx(
                    gaussian_kernel_oracle(d, kappa, p, q), abs=1e-8)


class TestReproducingProperty:
    def test_von_mises_window(self, rng):
        d = 5
        w = realize_fiducial(FiducialSpec.von_mises(1.0), d)
        assert reproducing_defect(w, random_state(rng, d)) < 1e-12

    def test_plane_wave_window(self, rng):
        d = 3
        w = realize_fiducial(FiducialSpec.plane_wave(1), d)
        assert reproducing_defect(w, random_state(rng, d)) < 1e-12

    def test_dirichlet_window(self, rng):
        d = 5
        w = realize_fiducial(FiducialSpec.dirichlet(1), d)
        assert reproducing_defect(w, random_state(rng, d)) < 1e-12


class TestFrame:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_resolution_of_identity_for_catalog(self, d):
        for label, w in catalog_windows(d):
            assert frame_resolution_defect(w) < 1e-12, label
