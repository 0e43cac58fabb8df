"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failed assertion is the corresponding FAIL.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import torus_quant
from torus_quant import (
    FiducialSpec,
    coherent_state_weight,
    displacement_apply,
    displacement_matrix,
    fourier_basis,
    gabor_inverse,
    gabor_transform,
    isometry_defect,
    overlap_distribution,
    parity_weight,
    portrait,
    portrait_of_symbol,
    quantization_operator,
    quantize,
    quantize_momentum,
    quantize_position,
    realize_fiducial,
    weight_from_operator,
    wigner,
)
from torus_quant.cli import main as cli_main

from conftest import catalog_windows, random_map, random_state, random_symmetric_weight
from oracles import (
    covariance_defect,
    dft_matrix,
    displacement_matrix_fourier,
    frame_resolution_defect,
    parity_matrix,
    quantization_operator_sum,
    quantize_sum,
    reproducing_defect,
    reproducing_kernel,
    trace_displacement,
    wigner_via_parity,
)
from test_gabor import constant_kernel, kronecker_kernel, plane_wave_kernel

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_resolution_of_identity():
    worst = 0.0
    for d in (2, 3, 5, 8):
        for label, window in catalog_windows(d):
            defect = frame_resolution_defect(window)
            assert defect < 1e-12, (d, label, defect)
            worst = max(worst, defect)
    _report(1, f"resolution of identity for every catalog fiducial, d in (2,3,5,8); "
               f"worst residual {worst:.2e} < 1e-12")


def test_criterion_02_pauli_recovery_at_d2():
    # Fourier-index convention reproduces the Pauli table
    assert np.abs(displacement_matrix_fourier(2, 0, 1) - np.diag([1, -1])).max() < 1e-15
    assert np.abs(displacement_matrix_fourier(2, 1, 0) - np.array([[0, 1], [1, 0]])).max() < 1e-15
    # Literal evaluation of the position-basis element formula
    # exp(i pi m (k + k') / d) delta_{k, k'+n} on canonical indices:
    literal = np.zeros((2, 2), complex)
    for k in range(2):
        for kp in range(2):
            if k == (kp + 1) % 2:
                literal[k, kp] = np.exp(1j * np.pi * (k + kp) / 2)
    assert np.abs(literal - np.array([[0, 1j], [1j, 0]])).max() < 1e-15
    # Documented sign discrepancy: the actual operator matrix in the
    # position basis is the textbook sigma_2 = [[0,-i],[i,0]]; the literal
    # canonical-index formula above differs by (-1)**m on the wrapped
    # entry, and the Fourier-basis matrix is [[0,i],[-i,0]].
    assert np.abs(displacement_matrix(2, 1, 1) - np.array([[0, -1j], [1j, 0]])).max() < 1e-15
    sigma_2_fourier = np.array([[0, 1j], [-1j, 0]])
    assert np.abs(displacement_matrix_fourier(2, 1, 1) - sigma_2_fourier).max() < 1e-15
    _report(2, "d=2 displacements reproduce the Pauli table (Fourier convention); "
               "index-wrap sign documented")


def test_criterion_03_trace_identities(rng):
    for d in (3, 5, 7):
        for m in range(d):
            for n in range(d):
                expected = d if (m, n) == (0, 0) else 0.0
                assert abs(trace_displacement(d, m, n) - expected) < 1e-12
        w = random_symmetric_weight(rng, d)
        back = weight_from_operator(quantization_operator(w))
        assert np.abs(back.values - w.values).max() < 1e-12
    _report(3, "trace of displacements is d*delta and weight retrieval by "
               "tracing inverts construction to 1e-12, d in (3,5,7)")


def test_criterion_04_parity_theorem(tmp_path):
    for d in (3, 5, 7):
        assert np.abs(quantization_operator(parity_weight(d)) - parity_matrix(d)).max() < 1e-12
    sig = tmp_path / "even_d_probe.csv"
    sig.write_text("".join(f"{x}\n" for x in range(4)))
    code = cli_main(["wigner", "--in", str(sig), "--out", str(tmp_path / "unused.csv")])
    assert code == 3
    _report(4, "unit weight quantizes to the reversal operator for d in (3,5,7); "
               "Wigner command refuses even d with exit code 3")


def test_criterion_05_wigner_reality_and_marginality(rng):
    from torus_quant import dft

    for d in (3, 5, 7):
        for _ in range(100):
            psi = random_state(rng, d, unit=True)
            ls = np.arange(d)
            raw = np.empty((d, d), dtype=complex)
            quad = np.exp(2j * np.pi * ((2 * np.outer(ls, ls)) % d) / d)
            for n in range(d):
                raw[:, n] = quad @ (np.conj(psi[(n + ls) % d]) * psi[(n - ls) % d]) / d
            assert np.abs(raw.imag).max() < 1e-12
            w = wigner(psi)
            assert np.abs(w.sum(axis=0) - np.abs(psi) ** 2).max() < 1e-12
            assert np.abs(w.sum(axis=1) - np.abs(dft(psi)) ** 2).max() < 1e-12
            assert np.abs(w - wigner_via_parity(psi)).max() < 1e-12
    _report(5, "100 random states per d in (3,5,7): Wigner real to 1e-12, both "
               "marginals exact, parity-transport form equals sum form")


def test_criterion_06_parity_weight_special_cases(rng):
    d = 5
    h = random_state(rng, d)
    assert np.abs(quantize_position(h, parity_weight(d)) - np.diag(h)).max() < 1e-12
    g = random_state(rng, d)
    a = quantize_momentum(g, parity_weight(d))
    f = dft_matrix(d)
    # conjugated multiplication operator: A acts as g(k) on the k-th
    # Fourier exponential, i.e. A = F^dag diag(g) F for the unitary DFT F
    assert np.abs(a - f.conj().T @ np.diag(g) @ f).max() < 1e-12
    for k in range(d):
        ek = fourier_basis(d, k)
        assert np.abs(a @ ek - g[k] * ek).max() < 1e-12
    _report(6, "unit weight at d=5: position symbols quantize to diag(h), "
               "momentum symbols to DFT-conjugated multiplication")


def test_criterion_07_two_path_agreement(rng):
    worst = 0.0
    for d in (3, 4, 5):
        w = random_symmetric_weight(rng, d)
        m_gap = np.abs(quantization_operator(w) - quantization_operator_sum(w)).max()
        f = random_map(rng, d)
        a_gap = np.abs(quantize(f, w) - quantize_sum(f, w)).max()
        assert m_gap < 1e-12 and a_gap < 1e-12
        worst = max(worst, m_gap, a_gap)
    _report(7, f"kernel routes vs literal sums agree entrywise; worst {worst:.2e} < 1e-12")


def test_criterion_08_covariance(rng):
    worst = 0.0
    for d in (3, 4, 5):
        shift = (int(rng.integers(0, d)), int(rng.integers(0, d)))
        phi = realize_fiducial(FiducialSpec.von_mises(1.0), d)
        for w in (parity_weight(d), coherent_state_weight(phi)):
            defect = covariance_defect(random_map(rng, d), w, shift)
            assert defect < 1e-10
            worst = max(worst, defect)
    _report(8, f"quantization covariance residual {worst:.2e} < 1e-10 for parity "
               "and coherent-state weights, d in (3,4,5)")


def test_criterion_09_gabor_round_trip(rng):
    for d in (3, 5, 8):
        for label, window in catalog_windows(d):
            phi = random_state(rng, d)
            coeffs = gabor_transform(phi, window)
            assert isometry_defect(phi, coeffs) < 1e-10, (d, label)
            recon = gabor_inverse(coeffs, window)
            assert np.abs(recon - phi).max() < 1e-10, (d, label)
            assert reproducing_defect(window, phi) < 1e-10, (d, label)
        # closed-form kernels for the exactly solvable windows
        points = [(m, n) for m in range(d) for n in range(d)]
        probes = [(0, 0), (1, d - 1), (d - 1, 2 % d)]
        wc = realize_fiducial(FiducialSpec.constant(), d)
        wk = realize_fiducial(FiducialSpec.kronecker(1), d)
        wp = realize_fiducial(FiducialSpec.plane_wave(1), d)
        for p in points:
            for q in probes:
                assert abs(reproducing_kernel(wc, p, q) - constant_kernel(d, p, q)) < 1e-10
                assert abs(reproducing_kernel(wk, p, q) - kronecker_kernel(d, 1, p, q)) < 1e-10
                assert abs(reproducing_kernel(wp, p, q) - plane_wave_kernel(d, 1, p, q)) < 1e-10
    for d in (3, 5):  # full-order Dirichlet window collapses to the delta at 0
        wd = realize_fiducial(FiducialSpec.dirichlet((d - 1) // 2), d)
        for p in [(m, n) for m in range(d) for n in range(d)]:
            for q in [(0, 0), (1, 1)]:
                assert abs(reproducing_kernel(wd, p, q) - kronecker_kernel(d, 0, p, q)) < 1e-10
    _report(9, "isometry, inversion and reproducing property < 1e-10 for the "
               "catalog at d in (3,5,8); closed-form kernels match")


def test_criterion_10_portrait_consistency(rng):
    for d in (3, 4, 5):
        w = random_symmetric_weight(rng, d)
        f = random_map(rng, d)
        conv = portrait_of_symbol(f, w)
        trace = portrait(quantize(f, w), w)
        assert np.abs(conv - trace).max() < 1e-12
        assert np.abs(portrait_of_symbol(np.ones((d, d)), w) - 1.0).max() < 1e-12
        dist = overlap_distribution(w)
        assert abs(dist.sum() / d - 1.0) < 1e-12
        phi = random_state(rng, d, unit=True)
        cs_dist = overlap_distribution(coherent_state_weight(phi))
        assert cs_dist.min() >= -1e-12
    _report(10, "portrait convolution and trace paths agree to 1e-12; unit symbol "
                "fixed; smoothing distribution normalized and nonnegative for CS weights")


def test_criterion_11_period_detection_demo(tmp_path):
    cases = [("signal3.csv", 6, 10), ("signal1.csv", 10, 6), ("signal2.csv", 4, 15)]
    src = Path(torus_quant.__file__).resolve().parent.parent
    for filename, base, period in cases:
        out = tmp_path / f"spec_{filename}"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "torus_quant", "gabor",
             "--in", str(DATA_DIR / filename),
             "--fiducial", "von_mises:400",
             "--out", str(out)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 5.0, f"{filename}: took {elapsed:.2f}s"
        rows = out.read_text().strip().split("\n")[1:]
        magnitude = np.array([[float(x) for x in r.split(",")[1:]] for r in rows])
        d = magnitude.shape[0]
        assert d == 60
        # independent reduction: per-column energy, then its spectrum via numpy fft
        energy = (magnitude ** 2).sum(axis=0)
        power = np.abs(np.fft.fft(energy)) ** 2
        idx = np.arange(d)
        off_dc = power[1:].sum()
        on_multiples = power[(idx % base == 0) & (idx != 0)].sum()
        fraction = on_multiples / off_dc
        assert fraction > 0.9, (filename, fraction)
        assert f"period_estimate {period}" in proc.stderr
    _report(11, "CLI spectrogram at d=60, von_mises(400): off-DC envelope energy "
                "concentrates on the harmonic rows (period 10 -> multiples of 6, "
                "period 6 -> 10, period 15 -> 4), each run < 5 s")
