import importlib
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from torus_quant import (
    FiducialSpec,
    Weight,
    coherent_state_weight,
    gabor_transform,
    husimi,
    overlap_distribution,
    parity_weight,
    portrait,
    portrait_of_symbol,
    quantize,
    quantize_momentum,
    realize_fiducial,
)
import torus_quant
from torus_quant import cli
from torus_quant.cli import main
from torus_quant.errors import ToleranceError
from torus_quant.io_formats import (
    format_complex_matrix_csv,
    format_vector_csv,
    read_complex_matrix_csv,
    read_signal,
)

from conftest import written_bytes, random_map, random_symmetric_weight


#: the shipped demo signal of period 10 (d = 60)
DEMO_SIGNAL = read_signal(Path(__file__).resolve().parent.parent / "data" / "signal3.csv")


def run(*argv):
    return main(list(argv))


def failed_check(*argv):
    """Key of the ToleranceError the subcommand on ``argv`` raises, run as ``main`` runs it."""
    args = cli._build_parser().parse_args(list(argv))
    with np.errstate(over="raise"), pytest.raises(ToleranceError) as info:
        args.func(args)
    return info.value.key


def write_signal(path, values):
    with open(path, "w") as fh:
        for x in np.asarray(values, dtype=complex):
            if x.imag == 0:
                fh.write(f"{x.real:.17g}\n")
            else:
                fh.write(f"{x.real:.17g},{x.imag:.17g}\n")


def load_real_map(path):
    lines = path.read_text().strip().split("\n")[1:]
    return np.array([[float(x) for x in line.split(",")[1:]] for line in lines])


def assert_runs_clean(*argv):
    """Run ``python -m torus_quant``; assert exit 0 and only ``key value`` lines on stderr.

    A Python warning would add lines with a source path to stderr.
    """
    src = Path(torus_quant.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-m", "torus_quant", *argv],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert result.returncode == 0, result.stderr
    lines = result.stderr.splitlines()
    assert lines
    for line in lines:
        assert re.fullmatch(r"[a-z][a-z0-9_]* \S+", line), line


class TestFiducialsCommand:
    def test_von_mises_zero_is_flat(self, tmp_path, capsys):
        out = tmp_path / "fid.csv"
        assert run("fiducials", "--d", "4", "--fiducial", "von_mises:0", "--out", str(out)) == 0
        rows = out.read_text().strip().split("\n")[1:]
        values = [complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows]
        assert values == pytest.approx([0.5] * 4)
        assert "norm 1.000000000000" in capsys.readouterr().err

    def test_dirichlet_collapse(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert run("fiducials", "--d", "5", "--fiducial", "dirichlet:2", "--out", str(out)) == 0
        rows = out.read_text().strip().split("\n")[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert values == pytest.approx([1, 0, 0, 0, 0], abs=1e-12)

    def test_gaussian_norm_printed(self, tmp_path, capsys):
        assert run("fiducials", "--d", "5", "--fiducial", "gaussian:1",
                   "--out", str(tmp_path / "f.csv")) == 0
        assert "norm 1.000000000000" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["dirichlet:2", "von_mises:-1", "gaussian:0",
                                      pytest.param("kronecker:" + "9" * 400, id="kronecker:9x400")])
    def test_invalid_parameters_precondition_exit(self, tmp_path, capsys, spec):
        code = run("fiducials", "--d", "4", "--fiducial", spec, "--out", str(tmp_path / "f.csv"))
        assert code == 3
        assert "precondition" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("samples", [(1e-13, 2e-13, 1e-13), (1e300, 1e300, 0.0)])
    def test_custom_window_of_any_scale_is_normalized(self, tmp_path, samples):
        write_signal(tmp_path / "w.csv", samples)
        out = tmp_path / "f.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("fiducials", "--d", "3", "--fiducial", f"custom:{tmp_path / 'w.csv'}",
                       "--out", str(out)) == 0
        rows = out.read_text().strip().split("\n")[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        direction = np.array(samples) / max(samples)
        assert values == pytest.approx(direction / np.linalg.norm(direction), abs=1e-15)

    @pytest.mark.parametrize("kind", ["von_mises:3", "dirichlet:2", "von_mises:400",
                                      "gaussian:1"])
    @pytest.mark.parametrize("d", [7, 64, 95, 1020])
    def test_written_window_reads_back_as_a_custom_window(self, tmp_path, d, kind):
        window, again = tmp_path / "w.csv", tmp_path / "again.csv"
        assert run("fiducials", "--d", str(d), "--fiducial", kind, "--out", str(window)) == 0
        assert run("fiducials", "--d", str(d), "--fiducial", f"custom:{window}",
                   "--out", str(again)) == 0
        assert again.read_bytes() == window.read_bytes()  # a unit window is not renormalized

    def test_zero_custom_window_is_input_error(self, tmp_path, capsys):
        write_signal(tmp_path / "w.csv", [0.0, 0.0, 0.0])
        assert run("fiducials", "--d", "3", "--fiducial", f"custom:{tmp_path / 'w.csv'}",
                   "--out", str(tmp_path / "f.csv")) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_non_unit_custom_window_writes_only_diagnostics(self, tmp_path):
        write_signal(tmp_path / "w.csv", [2.0, 0.0, 0.0])
        assert_runs_clean("fiducials", "--d", "3", "--fiducial", f"custom:{tmp_path / 'w.csv'}",
                          "--out", str(tmp_path / "f.csv"))


class TestMalformedFiducialSpec:
    @pytest.mark.parametrize("spec", ["bogus", "von_mises:abc", "kronecker:", "von_mises:nan",
                                      "gaussian:inf", "constant:400"])
    def test_input_error_exit(self, tmp_path, capsys, spec):
        assert run("fiducials", "--d", "5", "--fiducial", spec,
                   "--out", str(tmp_path / "f.csv")) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("command", ["gabor", "husimi", "fiducials"])
    def test_help_lists_every_window_kind(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = " ".join(capsys.readouterr().out.split())
        assert ("constant | kronecker:int | plane_wave:int | gaussian:float | dirichlet:int | "
                "von_mises:float | custom:PATH") in listed


class TestGaborCommand:
    def test_plane_wave_single_row(self, tmp_path):
        d, k = 12, 5
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.exp(2j * np.pi * k * np.arange(d) / d) / np.sqrt(d))
        out = tmp_path / "spec.csv"
        assert run("gabor", "--in", str(sig), "--fiducial", "constant",
                   "--out", str(out)) == 0
        mag = load_real_map(out)
        row_energy = (mag ** 2).sum(axis=1)
        assert row_energy[k] > 0
        mask = np.ones(d, bool)
        mask[k] = False
        assert row_energy[mask].max() < 1e-20

    def test_constant_signal_concentrates_at_zero_row(self, tmp_path):
        d = 8
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.ones(d))
        out = tmp_path / "spec.csv"
        assert run("gabor", "--in", str(sig), "--fiducial", "von_mises:1",
                   "--out", str(out)) == 0
        mag = load_real_map(out)
        assert np.argmax((mag ** 2).sum(axis=1)) == 0

    def test_isometry_residual_reported(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.arange(6, dtype=float))
        assert run("gabor", "--in", str(sig), "--fiducial", "von_mises:2",
                   "--out", str(tmp_path / "o.csv")) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("isometry_residual"))
        assert float(line.split()[1]) < 1e-10

    def test_isometry_residual_is_relative_to_the_signal_energy(self, tmp_path, capsys):
        # ||phi||^2 = 1.9e158: a correct map of a huge signal reads ~1e-16, not ~1e142
        sig = tmp_path / "sig.csv"
        write_signal(sig, 1e78 * np.array([1.0, 3.0, 10.0, 2.0, 5.0, 7.0]))
        assert run("gabor", "--in", str(sig), "--fiducial", "kronecker:0",
                   "--out", str(tmp_path / "o.csv")) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("isometry_residual"))
        assert float(line.split()[1]) < 1e-10

    def test_gaussian_width_whose_t_overflows_runs_clean(self, tmp_path):
        # kappa d overflows to inf; the window must stay finite and raise no warning
        write_signal(tmp_path / "sig.csv", [1.0, 2.0])
        assert_runs_clean("gabor", "--in", str(tmp_path / "sig.csv"),
                          "--fiducial", "gaussian:1e308", "--out", str(tmp_path / "o.csv"))

    @pytest.mark.parametrize("payload", [
        "[1, NaN, 2, 3, 4, 5]",
        "[1, Infinity, 2]",
        "[1, true, 2, 3, 4]",
        '{"values": [1, ["a", 2]]}',
        '{"d": "x", "values": [1, 2]}',
        '{"values": 5}',
        "5",
        '{"d": 3}',
        "[[1, 2, 3]]",
        "[]",
    ])
    def test_malformed_json_signal_is_input_error(self, tmp_path, capsys, payload):
        sig = tmp_path / "sig.json"
        sig.write_text(payload)
        assert run("gabor", "--in", str(sig), "--out", str(tmp_path / "o.csv")) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert run("gabor", "--in", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "o.csv")) == 2
        assert "input error" in capsys.readouterr().err

    def test_dimension_mismatch_needs_explicit_policy(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.ones(6))
        assert run("gabor", "--in", str(sig), "--d", "4",
                   "--out", str(tmp_path / "o.csv")) == 2
        assert "--truncate or --pad" in capsys.readouterr().err

    def test_truncation_when_requested(self, tmp_path):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.ones(6))
        assert run("gabor", "--in", str(sig), "--d", "4", "--truncate",
                   "--fiducial", "constant", "--out", str(tmp_path / "o.csv")) == 0
        assert load_real_map(tmp_path / "o.csv").shape == (4, 4)

    def test_padding_when_requested(self, tmp_path):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.ones(4))
        assert run("gabor", "--in", str(sig), "--d", "6", "--pad",
                   "--fiducial", "constant", "--out", str(tmp_path / "o.csv")) == 0
        padded = np.concatenate([np.ones(4), np.zeros(2)])
        window = realize_fiducial(FiducialSpec("constant"), 6)
        expected = np.abs(gabor_transform(padded, window))
        assert np.abs(load_real_map(tmp_path / "o.csv") - expected).max() < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        sig = tmp_path / "sig.csv"
        write_signal(sig, demo := np.arange(10, dtype=float) % 3)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("gabor", "--in", str(sig), "--fiducial", "von_mises:3", "--out", str(out1)) == 0
        assert run("gabor", "--in", str(sig), "--fiducial", "von_mises:3", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "pgm"])
    def test_one_transform_per_run(self, tmp_path, monkeypatch, fmt):
        # every route to Phi's columns runs through gabor._column_blocks
        calls = []
        gabor = importlib.import_module("torus_quant.gabor")
        real = gabor._column_blocks

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(gabor, "_column_blocks", counting)
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.arange(7, dtype=float))
        assert run("gabor", "--in", str(sig), "--format", fmt,
                   "--out", str(tmp_path / "o")) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [9, 31, 1020])
    def test_map_squared_over_d_is_the_husimi_map(self, tmp_path, monkeypatch, rng, d):
        maps = []
        monkeypatch.setattr(cli, "format_real_map_csv", lambda data, write: maps.append(data))
        sig = tmp_path / "sig.csv"
        write_signal(sig, rng.normal(size=d) + 1j * rng.normal(size=d))
        assert run("gabor", "--in", str(sig), "--fiducial", "gaussian:1", "--out", "-") == 0
        window = realize_fiducial(FiducialSpec("gaussian", 1.0), d)
        expected = husimi(read_signal(str(sig)), window)
        assert np.array_equal(maps[0] ** 2 / d, expected)  # bitwise

    def test_wrong_magnitude_exits_4_without_output(self, tmp_path, capsys, monkeypatch, rng):
        real = cli._magnitudes
        monkeypatch.setattr(cli, "_magnitudes", lambda *args: (1 + 1e-6) * real(*args))
        sig, out = tmp_path / "sig.csv", tmp_path / "o.csv"
        write_signal(sig, rng.normal(size=31))
        assert run("gabor", "--in", str(sig), "--out", str(out)) == 4
        assert capsys.readouterr().err.startswith("isometry_residual 2.000e-06\n")
        assert not out.exists()

    def test_pgm_output(self, tmp_path):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.arange(5, dtype=float))
        out = tmp_path / "spec.pgm"
        assert run("gabor", "--in", str(sig), "--fiducial", "constant",
                   "--format", "pgm", "--out", str(out)) == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P5\n5 5\n255\n")
        assert max(blob[len(b"P5\n5 5\n255\n"):]) == 255


class TestGaborAtAnyAmplitude:
    """The check and the period detection run on an exact power-of-two rescaling.

    At 2**k with k <= -520 squares of the map underflow, at k >= 505 they overflow.
    """

    EXPONENTS = [-900, -600, -530, -520, 505, 900]

    @staticmethod
    def gabor(tmp_path, capsys, monkeypatch, signal, *flags):
        """Exit code, written map and stderr of ``gabor`` on ``signal``."""
        maps = []
        monkeypatch.setattr(cli, "format_real_map_csv", lambda data, write: maps.append(data))
        sig = tmp_path / "sig.csv"
        write_signal(sig, signal)
        code = run("gabor", "--in", str(sig), *flags, "--out", "-")
        return code, maps[0] if maps else None, capsys.readouterr().err

    @pytest.mark.parametrize("k", EXPONENTS)
    def test_map_and_diagnostics_scale_exactly(self, tmp_path, capsys, monkeypatch, rng, k):
        signal = rng.normal(size=60) + 1j * rng.normal(size=60)
        flags = ("--fiducial", "von_mises:2")
        _, unscaled, diagnostics = self.gabor(tmp_path, capsys, monkeypatch, signal, *flags)
        code, scaled, err = self.gabor(tmp_path, capsys, monkeypatch, signal * 2.0 ** k, *flags)
        assert code == 0, err
        assert np.array_equal(scaled, np.ldexp(unscaled, k))
        assert err == diagnostics

    @pytest.mark.parametrize("k", EXPONENTS)
    def test_demo_period_is_found(self, tmp_path, capsys, monkeypatch, k):
        code, _, err = self.gabor(tmp_path, capsys, monkeypatch, DEMO_SIGNAL * 2.0 ** k)
        assert code == 0, err
        assert "period_estimate 10\n" in err

    @pytest.mark.parametrize("k", [-600, 505])
    def test_wrong_magnitude_exits_4(self, tmp_path, capsys, monkeypatch, k):
        real = cli._magnitudes
        monkeypatch.setattr(cli, "_magnitudes", lambda *args: (1 + 1e-6) * real(*args))
        code, written, err = self.gabor(tmp_path, capsys, monkeypatch, DEMO_SIGNAL * 2.0 ** k)
        assert (code, written) == (4, None)
        assert err.startswith("isometry_residual 2.000e-06\n")


class TestWignerCommand:
    def test_delta_signal_marginal(self, tmp_path, capsys):
        d = 5
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.eye(d)[0])
        out = tmp_path / "wig.csv"
        assert run("wigner", "--in", str(sig), "--out", str(out)) == 0
        w = load_real_map(out)
        assert w.sum(axis=0)[0] == pytest.approx(1.0, abs=1e-12)
        err = capsys.readouterr().err
        assert all(float(l.split()[1]) < 1e-12 for l in err.splitlines()
                   if l.startswith("marginal_residual"))

    def test_large_amplitude_signal_passes(self, tmp_path, rng):
        sig = tmp_path / "sig.csv"
        write_signal(sig, 1e4 * (rng.normal(size=31) + 1j * rng.normal(size=31)))
        assert run("wigner", "--in", str(sig), "--out", str(tmp_path / "w.csv")) == 0

    def test_even_dimension_refused_with_exit_3(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.arange(6, dtype=float))
        assert run("wigner", "--in", str(sig), "--out", str(tmp_path / "w.csv")) == 3
        assert "odd" in capsys.readouterr().err


def _map_run(tmp_path, capsys, signal, *argv):
    """Exit code, stderr residuals and the map written to map.csv (None if none) on ``signal``."""
    sig, out = tmp_path / "sig.csv", tmp_path / "map.csv"
    out.unlink(missing_ok=True)
    write_signal(sig, signal)
    code = run(*argv, "--in", str(sig), "--out", str(out))
    fields = [line.split() for line in capsys.readouterr().err.splitlines()]
    residuals = {key: float(value) for key, value, *_ in fields if "_residual" in key}
    return code, residuals, load_real_map(out) if out.exists() else None


def _huge_signal_residuals(tmp_path, capsys, rng, *argv):
    """Exit code and stderr residuals of a run on a random d=31 signal of amplitude 1e78."""
    signal = 1e78 * (rng.normal(size=31) + 1j * rng.normal(size=31))
    return _map_run(tmp_path, capsys, signal, *argv)[:2]


#: the two commands whose checks sum a quadratic map
MAP_COMMANDS = {"husimi": ["husimi", "--fiducial", "von_mises:3"], "wigner": ["wigner"]}


def _demo_run(tmp_path, capsys, k, command):
    """``_map_run`` of ``command`` on the demo signal cut to d = 59 (odd, for wigner) times 2**k."""
    return _map_run(tmp_path, capsys, DEMO_SIGNAL[:59] * 2.0 ** k, *MAP_COMMANDS[command])


NEGATED, DOUBLED = (lambda w_map: -w_map), (lambda h_map: 2 * h_map)


class TestMassChecks:
    """The Wigner marginals and the Husimi mass are relative to ||psi||^2 and held to a bound.

    Both sides run on the map and the signal times the power of two of max|psi|^2; the
    squares of the demo times 2**k turn subnormal below k = -511 and overflow near k = 512.
    """

    @pytest.mark.parametrize("argv, keys", [
        (["wigner"], ["marginal_residual_position", "marginal_residual_momentum"]),
        (["husimi", "--fiducial", "von_mises:2"], ["normalization_residual"]),
    ], ids=["wigner", "husimi"])
    def test_residuals_are_relative_to_the_signal_energy(self, tmp_path, capsys, rng, argv, keys):
        # ||psi||^2 ~ 1e158: a correct map reads ~1e-16, not ~1e142
        code, residuals = _huge_signal_residuals(tmp_path, capsys, rng, *argv)
        assert code == 0
        assert list(residuals) == keys
        assert all(value < 1e-10 for value in residuals.values()), residuals

    @pytest.mark.parametrize("k", [None, -500, 500])
    @pytest.mark.parametrize("route, wrong", [("wigner", NEGATED), ("husimi", DOUBLED)],
                             ids=["wigner-negated", "husimi-doubled"])
    def test_wrong_map_exits_4_without_output(self, tmp_path, capsys, monkeypatch, rng,
                                              route, wrong, k):
        """On the random signal of amplitude 1e78 (k None), and on the demo times 2**k."""
        real = getattr(cli, route)
        monkeypatch.setattr(cli, route, lambda *args: wrong(real(*args)))
        if k is None:
            code, _ = _huge_signal_residuals(tmp_path, capsys, rng, *MAP_COMMANDS[route])
        else:
            code, _, _ = _demo_run(tmp_path, capsys, k, route)
        assert code == 4
        assert not (tmp_path / "map.csv").exists()

    @pytest.mark.parametrize("k, expected", [(-600, 4), (-540, 4), (-520, 0), (-510, 0), (500, 0),
                                             (505, 0), (515, 3)])
    @pytest.mark.parametrize("command", list(MAP_COMMANDS))
    def test_demo_at_any_amplitude(self, tmp_path, capsys, command, k, expected):
        # below k = -520 the map's entries underflow, so its sums cannot match ||psi||^2
        code, residuals, written = _demo_run(tmp_path, capsys, k, command)
        assert code == expected
        if code:
            assert written is None
        else:
            assert residuals and all(value < 1e-12 for value in residuals.values()), residuals

    @pytest.mark.parametrize("k", [-510, 500, 505])
    @pytest.mark.parametrize("command", list(MAP_COMMANDS))
    def test_map_scales_by_two_to_the_2k(self, tmp_path, capsys, command, k):
        _, _, unscaled = _demo_run(tmp_path, capsys, 0, command)
        _, _, scaled = _demo_run(tmp_path, capsys, k, command)
        assert np.abs(np.ldexp(scaled, -2 * k) - unscaled).max() <= 1e-12 * np.abs(unscaled).max()

    @pytest.mark.parametrize("argv", [["wigner"], ["husimi", "--fiducial", "constant"]])
    def test_zero_signal_passes_with_absolute_residuals(self, tmp_path, capsys, argv):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.zeros(5))
        assert run(*argv, "--in", str(sig), "--out", str(tmp_path / "map.csv")) == 0
        err = capsys.readouterr().err
        assert all(float(line.split()[1]) == 0.0 for line in err.splitlines())


class TestHusimiCommand:
    def test_flat_signal_normalization(self, tmp_path, capsys):
        d = 4
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.full(d, 0.5))
        assert run("husimi", "--in", str(sig), "--fiducial", "constant",
                   "--out", str(tmp_path / "h.csv")) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("normalization_residual"))
        assert float(line.split()[1]) < 1e-12


class TestQuantizeCommand:
    def test_unit_symbol_parity_weight_gives_identity(self, tmp_path):
        out = tmp_path / "op.csv"
        assert run("quantize", "--d", "4", "--symbol", "ones", "--weight", "parity",
                   "--out", str(out)) == 0
        assert np.abs(read_complex_matrix_csv(out) - np.eye(4)).max() < 1e-12

    def test_position_index_parity_weight_is_diagonal_ramp(self, tmp_path):
        out = tmp_path / "op.csv"
        assert run("quantize", "--d", "5", "--symbol", "position:index",
                   "--weight", "parity", "--out", str(out)) == 0
        assert np.abs(read_complex_matrix_csv(out) - np.diag(np.arange(5.0))).max() < 1e-12

    def test_position_fourier_parity_weight_is_diagonal_phase(self, tmp_path):
        d = 5
        out = tmp_path / "op.csv"
        assert run("quantize", "--d", str(d), "--symbol", "position:fourier",
                   "--weight", "parity", "--out", str(out)) == 0
        expected = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        assert np.abs(read_complex_matrix_csv(out) - expected).max() < 1e-12

    def test_momentum_index_cs_weight_matches_library(self, tmp_path):
        d = 5
        out = tmp_path / "op.csv"
        assert run("quantize", "--d", str(d), "--symbol", "momentum:index",
                   "--weight", "cs:von_mises:1", "--out", str(out)) == 0
        phi = realize_fiducial(FiducialSpec("von_mises", 1.0), d)
        expected = quantize_momentum(np.arange(d, dtype=complex), coherent_state_weight(phi))
        assert np.abs(read_complex_matrix_csv(out) - expected).max() < 1e-12

    def test_diagnostics_reported(self, tmp_path, capsys):
        assert run("quantize", "--d", "3", "--symbol", "ones", "--weight", "parity",
                   "--out", str(tmp_path / "op.csv")) == 0
        err = capsys.readouterr().err
        assert any(l.startswith("two_path_residual") for l in err.splitlines())
        assert any(l.startswith("hermiticity_residual") for l in err.splitlines())
        assert any(l.startswith("trace") for l in err.splitlines())

    def test_malformed_symbol_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "sym.csv"
        bad.write_text("l,lp0_re,lp0_im\n0,1.0,nope\n")
        assert run("quantize", "--d", "1", "--symbol", f"file:{bad}",
                   "--weight", "parity", "--out", str(tmp_path / "op.csv")) == 2
        assert "row 2, column 3" in capsys.readouterr().err

    def test_ragged_symbol_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "sym.csv"
        bad.write_text("l,lp0_re,lp0_im,lp1_re,lp1_im\n0,1,0,2,0\n1,1,0\n")
        assert run("quantize", "--d", "2", "--symbol", f"file:{bad}",
                   "--weight", "parity", "--out", str(tmp_path / "op.csv")) == 2
        assert "row 3" in capsys.readouterr().err

    def test_weight_file_round_trip(self, tmp_path, rng):
        d = 3
        phi = realize_fiducial(FiducialSpec("von_mises", 1.0), d)
        w = coherent_state_weight(phi)
        wfile = tmp_path / "w.csv"
        wfile.write_bytes(written_bytes(format_complex_matrix_csv, w.values))
        out = tmp_path / "op.csv"
        assert run("quantize", "--d", str(d), "--symbol", "ones",
                   "--weight", f"file:{wfile}", "--out", str(out)) == 0
        assert np.abs(read_complex_matrix_csv(out) - np.eye(d)).max() < 1e-10

    def test_weight_file_with_bad_origin_is_precondition_error(self, tmp_path, capsys):
        d = 3
        values = np.ones((d, d), complex) * 0.5
        wfile = tmp_path / "w.csv"
        wfile.write_bytes(written_bytes(format_complex_matrix_csv, values))
        assert run("quantize", "--d", str(d), "--symbol", "ones",
                   "--weight", f"file:{wfile}", "--out", str(tmp_path / "op.csv")) == 3
        assert "precondition" in capsys.readouterr().err


class TestPortraitCommand:
    def test_unit_symbol_is_flat(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run("portrait", "--d", "4", "--symbol", "ones", "--weight",
                   "cs:von_mises:1", "--out", str(out)) == 0
        assert np.abs(read_complex_matrix_csv(out) - 1.0).max() < 1e-12

    def test_delta_symbol_gives_overlap_distribution(self, tmp_path):
        d = 4
        out = tmp_path / "p.csv"
        assert run("portrait", "--d", str(d), "--symbol", "delta", "--weight", "parity",
                   "--out", str(out)) == 0
        expected = overlap_distribution(parity_weight(d))
        assert np.abs(read_complex_matrix_csv(out) - expected).max() < 1e-12

    def test_random_symbol_matches_trace_path(self, tmp_path, rng):
        d = 4
        f = random_map(rng, d)
        sfile = tmp_path / "sym.csv"
        sfile.write_bytes(written_bytes(format_complex_matrix_csv, f))
        out = tmp_path / "p.csv"
        assert run("portrait", "--d", str(d), "--symbol", f"file:{sfile}",
                   "--weight", "cs:von_mises:1", "--out", str(out)) == 0
        phi = realize_fiducial(FiducialSpec("von_mises", 1.0), d)
        w = coherent_state_weight(phi)
        expected = portrait(quantize(f, w), w)
        assert np.abs(read_complex_matrix_csv(out) - expected).max() < 1e-12

    def test_non_self_adjoint_file_weight_runs(self, tmp_path, capsys, rng):
        # its overlap distribution is complex, yet of unit mass
        d = 5
        values = random_map(rng, d)
        values[0, 0] = 1.0
        f = random_map(rng, d)
        wfile, sfile, out = tmp_path / "w.csv", tmp_path / "sym.csv", tmp_path / "p.csv"
        wfile.write_bytes(written_bytes(format_complex_matrix_csv, values))
        sfile.write_bytes(written_bytes(format_complex_matrix_csv, f))
        assert run("portrait", "--d", str(d), "--symbol", f"file:{sfile}",
                   "--weight", f"file:{wfile}", "--out", str(out)) == 0
        w = Weight(read_complex_matrix_csv(wfile))
        assert w.symmetry_defect() > 0.1
        assert np.abs(read_complex_matrix_csv(out) - portrait(quantize(f, w), w)).max() < 1e-12
        line = next(l for l in capsys.readouterr().err.splitlines()
                    if l.startswith("smoothing_mass_residual"))
        assert float(line.split()[1]) < 1e-12

    def test_mass_check_reported(self, tmp_path, capsys):
        assert run("portrait", "--d", "3", "--symbol", "ones", "--weight", "parity",
                   "--out", str(tmp_path / "p.csv")) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("smoothing_mass_residual"))
        assert float(line.split()[1]) < 1e-12

    def test_doubled_routes_exit_4_without_output(self, tmp_path, capsys, monkeypatch):
        # both routes agree, so only the mass check sees the doubled portrait
        for route in ("portrait_of_symbol", "portrait"):
            real = getattr(cli, route)
            monkeypatch.setattr(cli, route, lambda *args, real=real: 2 * real(*args))
        out = tmp_path / "p.csv"
        assert run("portrait", "--d", "5", "--symbol", "momentum:index", "--weight",
                   "cs:von_mises:3", "--out", str(out)) == 4
        err = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in err[:2]] == ["two_path_residual",
                                                         "smoothing_mass_residual"]
        assert float(err[1].split()[1]) > 0.1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["quantize", "portrait"])
    @pytest.mark.parametrize("symbol,route", [("momentum:index", "quantize_momentum"),
                                              ("position:fourier", "quantize_position"),
                                              ("ones", "quantize_momentum")])
    def test_vector_symbol_takes_only_its_fast_path(self, tmp_path, monkeypatch, command,
                                                    symbol, route):
        # both commands quantize a momentum or position symbol, ``ones`` (the momentum
        # symbol 1) included, through its vector's route
        calls, real = [], getattr(cli, route)
        monkeypatch.setattr(cli, route, lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(cli, "quantize", lambda *args: pytest.fail("general route taken"))
        assert run(command, "--d", "6", "--symbol", symbol, "--weight", "cs:von_mises:3",
                   "--out", str(tmp_path / "out.csv")) == 0
        assert len(calls) == 1

    def test_mass_check_passes_a_weight_origin_within_its_bound(self, tmp_path, capsys, rng):
        # Weight accepts w(0, 0) within bound() of 1, and the mass is w(0, 0)^2 sum f
        d = 5
        values = random_map(rng, d)
        values[0, 0] = 1 + 9e-11
        wfile, sfile = tmp_path / "w.csv", tmp_path / "sym.csv"
        wfile.write_bytes(written_bytes(format_complex_matrix_csv, values))
        sfile.write_bytes(written_bytes(format_complex_matrix_csv, np.ones((d, d))))
        assert run("portrait", "--d", str(d), "--symbol", f"file:{sfile}",
                   "--weight", f"file:{wfile}", "--out", str(tmp_path / "p.csv")) == 0
        line = next(l for l in capsys.readouterr().err.splitlines()
                    if l.startswith("smoothing_mass_residual"))
        assert float(line.split()[1]) < 1e-14


class TestStdout:
    """``--out -`` writes to stdout the bytes ``--out FILE`` writes to the file."""

    @pytest.mark.parametrize("command, flags, d", [
        ("wigner", [], 7), ("gabor", ["--format", "pgm"], 7),
        # several blocks of rows, each written as it is formatted
        ("wigner", [], 257), ("husimi", ["--fiducial", "von_mises:2"], 256),
    ], ids=["wigner-flags0", "gabor-flags1", "wigner-d257", "husimi-d256"])
    def test_stdout_matches_file(self, tmp_path, capsysbinary, command, flags, d):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.cos(np.arange(d)) + 0.5)
        argv = [command, "--in", str(sig), *flags]
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 0
        assert capsysbinary.readouterr().out == b""
        assert run(*argv, "--out", "-") == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


class TestSelectorErrors:
    @pytest.mark.parametrize("symbol,message", [
        ("angle:index", "unknown symbol selector 'angle:index'"),
        ("momentum:bogus", "unknown momentum symbol 'bogus'"),
        ("position:bogus", "unknown position symbol 'bogus'"),
    ], ids=["angle:index", "momentum:bogus", "position:bogus"])
    def test_unknown_symbol(self, tmp_path, capsys, symbol, message):
        assert run("quantize", "--d", "3", "--symbol", symbol,
                   "--weight", "parity", "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_unknown_weight(self, tmp_path, capsys):
        assert run("quantize", "--d", "3", "--symbol", "ones",
                   "--weight", "thermal", "--out", str(tmp_path / "x.csv")) == 2
        assert "weight" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["quantize", "--d", "3", "--symbol", "file:", "--weight", "parity"], "file:"),
        (["quantize", "--d", "3", "--symbol", "ones", "--weight", "file:"], "file:"),
        (["quantize", "--d", "3", "--symbol", "momentum:file:", "--weight", "parity"], "file:"),
        (["fiducials", "--d", "3", "--fiducial", "custom:"], "custom:"),
        (["gabor", "--in", ""], "--in"),
    ], ids=["symbol-file", "weight-file", "momentum-file", "custom-window", "signal"])
    def test_empty_path_is_named(self, tmp_path, capsys, argv, named):
        # what file:$UNSET or --in "$UNSET" expands to; reading "" would open the directory "."
        assert run(*argv, "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == f"input error: {named} names no path\n"
        assert not (tmp_path / "x.csv").exists()


#: each reader path of the command line: its arguments, with {file} for the input file and
#: {d} for --d, and the kind of that file (a vector of d samples or a d x d matrix)
READER_PATHS = {
    "csv_signal": (["gabor", "--in", "{file}.csv"], "vector"),
    "json_signal": (["wigner", "--in", "{file}.json"], "json"),
    "custom_window": (["fiducials", "--d", "{d}", "--fiducial", "custom:{file}.csv"], "vector"),
    "weight_file": (["quantize", "--d", "{d}", "--symbol", "ones",
                     "--weight", "file:{file}.csv"], "matrix"),
    "symbol_file": (["portrait", "--d", "{d}", "--symbol", "file:{file}.csv",
                     "--weight", "parity"], "matrix"),
    "symbol_vector": (["quantize", "--d", "{d}", "--symbol", "position:file:{file}.csv",
                       "--weight", "parity"], "vector"),
}


def _run_reader_path(tmp_path, path, prefix, size, d):
    """Run ``path`` on an input file of ``size`` samples (or rows) after the bytes ``prefix``.

    Returns the exit code and whether an output file was written.
    """
    argv, kind = READER_PATHS[path]
    text = {"vector": b"1\n" * size, "json": b"[" + b", ".join([b"1"] * size) + b"]",
            "matrix": written_bytes(format_complex_matrix_csv, np.ones((size, size)))}[kind]
    (tmp_path / ("in.json" if kind == "json" else "in.csv")).write_bytes(prefix + text)
    out = tmp_path / "out.csv"
    code = run(*[a.format(file=tmp_path / "in", d=d) for a in argv], "--out", str(out))
    return code, out.exists()


class TestInputFiles:
    """An input file that is not UTF-8, or whose size is not d, is an input error: exit 2."""

    @pytest.mark.parametrize("path", READER_PATHS)
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, path):
        assert _run_reader_path(tmp_path, path, b"\xff", 3, 3) == (2, False)
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["custom_window", "weight_file", "symbol_file",
                                      "symbol_vector"])
    def test_wrong_size_file_exits_2(self, tmp_path, capsys, path):
        assert _run_reader_path(tmp_path, path, b"", 3, 5) == (2, False)
        assert "has size 3, expected d=5" in capsys.readouterr().err

    @pytest.mark.parametrize("path", READER_PATHS)
    def test_right_size_file_runs(self, tmp_path, path):
        assert _run_reader_path(tmp_path, path, b"", 3, 3) == (0, True)

    @pytest.mark.parametrize("path", READER_PATHS)
    def test_file_with_byte_order_mark_runs(self, tmp_path, path):
        assert _run_reader_path(tmp_path, path, b"\xef\xbb\xbf", 3, 3) == (0, True)


class TestDimensionFlag:
    """--d below 1, or not an integer, is an input error of every subcommand: exit 2, no output."""

    @pytest.mark.parametrize("argv", [
        ["wigner", "--in", "{signal}", "--d", "-1", "--truncate"],
        ["gabor", "--in", "{signal}", "--d", "-2", "--truncate"],
        ["husimi", "--in", "{signal}", "--d", "0", "--fiducial", "constant"],
        ["quantize", "--d", "0", "--symbol", "ones", "--weight", "parity"],
        ["portrait", "--d", "0", "--symbol", "ones", "--weight", "parity"],
        ["fiducials", "--d", "0", "--fiducial", "constant"],
        ["fiducials", "--d", "2.5", "--fiducial", "constant"],
    ], ids=lambda argv: f"{argv[0]}{argv[argv.index('--d') + 1]}")
    def test_exits_2_without_output(self, tmp_path, capsys, argv):
        sig = tmp_path / "sig.csv"
        write_signal(sig, np.arange(1.0, 7.0))  # six samples, so a slice [:-1] would run
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run(*[arg.format(signal=sig) for arg in argv], "--out", str(out))
        assert exc.value.code == 2
        assert "argument --d: dimension must be" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteInput:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("selector", ["weight", "symbol", "vector"])
    def test_non_finite_entry_is_input_error(self, tmp_path, capsys, selector, token):
        d = 3
        path = tmp_path / "in.csv"
        if selector == "vector":
            path.write_text(f"1\n{token}\n1\n")
            argv = ["--symbol", f"position:file:{path}", "--weight", "parity"]
        else:
            # all-ones matrix with the real part of entry (1, 0) replaced
            rows = [",".join([str(i), token if i == 1 else "1", "0"] + ["1", "0"] * (d - 1))
                    for i in range(d)]
            path.write_text("\n".join(["header", *rows]) + "\n")
            argv = (["--weight", f"file:{path}", "--symbol", "ones"] if selector == "weight"
                    else ["--symbol", f"file:{path}", "--weight", "parity"])
        assert run("quantize", "--d", str(d), *argv, "--out", str(tmp_path / "op.csv")) == 2
        assert "non-finite" in capsys.readouterr().err


def _corrupted(values, kind):
    """Copy of ``values`` with its largest entry negated or replaced by NaN."""
    out = np.array(values, dtype=complex)
    worst = np.unravel_index(np.abs(out).argmax(), out.shape)
    out[worst] = -out[worst] if kind == "flip" else np.nan
    return out


def _corrupt_route(monkeypatch, command, kind):
    """Make the production route of ``command`` return one corrupted entry."""
    if command == "quantize":
        real = cli.quantize
        monkeypatch.setattr(cli, "quantize", lambda f, w: _corrupted(real(f, w), kind))
    else:
        real = cli.portrait_of_symbol
        monkeypatch.setattr(cli, "portrait_of_symbol",
                            lambda f, w: _corrupted(real(f, w), kind))


def even_gaussian_weight(d, peak):
    """Real weight, even in (m, n), of the given peak, with w(0, 0) = 1.

    Even and real, it meets the self-adjointness condition at odd d.
    """
    k = np.minimum(np.arange(d), d - np.arange(d))
    w = peak * np.exp(-(k[:, None] ** 2 + k[None, :] ** 2) / 8.0) + 0j
    w[0, 0] = 1.0
    return w


class TestOverflow:
    """Finite inputs whose results overflow double precision are a precondition failure."""

    @pytest.mark.parametrize("command, amplitude", [("wigner", 1e200), ("quantize", 1.7e308),
                                                    ("portrait", 1.7e308)])
    def test_overflowing_input_exits_3(self, tmp_path, capsys, command, amplitude):
        d = 3
        path = tmp_path / "in.csv"
        if command == "wigner":
            write_signal(path, [amplitude, 1.0, 1.0])
            argv = ["--in", str(path)]
        else:
            path.write_bytes(written_bytes(format_complex_matrix_csv, np.full((d, d), amplitude)))
            argv = ["--d", str(d), "--symbol", f"file:{path}", "--weight", "parity"]
        assert run(command, *argv, "--out", str(tmp_path / "out.csv")) == 3
        assert "overflow" in capsys.readouterr().err

    def test_portrait_of_a_huge_constant_symbol_is_the_symbol(self, tmp_path):
        """fft2(f) stays finite at 1e307 (d = 3), and the route multiplies it by no d."""
        d, path, out = 3, tmp_path / "in.csv", tmp_path / "out.csv"
        symbol = np.full((d, d), 1e307, dtype=complex)
        path.write_bytes(written_bytes(format_complex_matrix_csv, symbol))
        assert run("portrait", "--d", str(d), "--symbol", f"file:{path}", "--weight", "parity",
                   "--out", str(out)) == 0
        smoothed = read_complex_matrix_csv(out)
        assert np.abs(smoothed - symbol).max() <= 1e-12 * 1e307

    def test_portrait_mass_check_of_a_huge_symbol_does_not_overflow(self, tmp_path, capsys, rng):
        # the sums of the mass check run on f and the map scaled by a power of two near 1 / max|f|
        d, path, out = 20, tmp_path / "in.csv", tmp_path / "out.csv"
        symbol = 1e306 * rng.choice([-1.0, 1.0], size=(d, d)) + 0j
        path.write_bytes(written_bytes(format_complex_matrix_csv, symbol))
        assert run("portrait", "--d", str(d), "--symbol", f"file:{path}",
                   "--weight", "cs:von_mises:3", "--out", str(out)) == 0
        keys = [line.split()[0] for line in capsys.readouterr().err.splitlines()]
        assert keys == ["two_path_residual", "smoothing_mass_residual"]
        expected = portrait_of_symbol(symbol, coherent_state_weight(
            realize_fiducial(FiducialSpec("von_mises", 3.0), d)))
        assert np.abs(read_complex_matrix_csv(out) - expected).max() <= \
            1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("fiducial", ["constant", "kronecker:0", "von_mises:3"])
    def test_period_diagnostics_of_a_huge_signal_do_not_overflow(self, tmp_path, capsys,
                                                                 fiducial):
        # nor depend on the amplitude: rows k and d - k of a real envelope
        # carry equal power up to rounding noise, which must not split them
        samples = np.array([1.0, 3.0, 10.0, 2.0, 5.0, 7.0])
        diagnostics = []
        for amplitude in (1e79, 0.1, 0.3, 1.0, 3.0, 1e5, 1e40):
            path = tmp_path / "in.csv"
            write_signal(path, amplitude * samples)
            assert run("gabor", "--in", str(path), "--fiducial", fiducial,
                       "--out", str(tmp_path / "out.csv")) == 0
            lines = capsys.readouterr().err.splitlines()
            diagnostics.append([line for line in lines
                                if line.startswith(("dominant_rows", "period_estimate"))])
        assert all(lines == diagnostics[0] for lines in diagnostics)
        assert len(diagnostics[0]) == 2
        rows = [int(k) for k in diagnostics[0][0].split()[1:] if k != "-"]
        assert rows == sorted({*rows, *(len(samples) - k for k in rows)})

    @pytest.mark.parametrize("spec", ["von_mises:1e308", "gaussian:1e-320"])
    def test_window_exponent_overflowing_to_zero_runs_clean(self, tmp_path, spec):
        assert_runs_clean("fiducials", "--d", "5", "--fiducial", spec,
                          "--out", str(tmp_path / "f.csv"))


#: address space of a child that must run out of memory: the package starts in about
#: 100 MB of it with one BLAS thread, and each run below fails on an array larger than
#: the rest, before it has touched much real memory
CHILD_ADDRESS_SPACE = 512 << 20


class TestOutOfMemory:
    """A run whose arrays do not fit is a precondition failure, and writes nothing."""

    @pytest.mark.parametrize("argv", [
        ["quantize", "--d", "1000000", "--weight", "parity", "--symbol", "ones"],
        ["quantize", "--d", "6000", "--weight", "parity", "--symbol", "ones"],
        ["fiducials", "--d", "100000000", "--fiducial", "von_mises:3"],
    ], ids=["quantize-1000000", "quantize-6000", "fiducials-100000000"])
    def test_exits_3_under_an_address_space_limit(self, tmp_path, argv):
        resource = pytest.importorskip("resource")
        out = tmp_path / "out.csv"
        src = Path(torus_quant.__file__).resolve().parent.parent
        # the limit acts on the child alone; never start such a child without one
        result = subprocess.run(
            [sys.executable, "-m", "torus_quant", *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE,) * 2),
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
        assert result.returncode == 3, result.stderr
        assert re.fullmatch(r"precondition violated: Unable to allocate [^\n]+\n", result.stderr)
        assert not out.exists()


class TestCheckCatchesInjectedErrors:
    """The two-path checks fail on one wrong entry of the production route, and the
    hermiticity check on a wrong phase that both routes share."""

    @pytest.mark.parametrize("kind", ["flip", "nan"])
    @pytest.mark.parametrize("command", ["quantize", "portrait"])
    def test_corrupted_route_exits_4(self, tmp_path, capsys, monkeypatch, rng, command, kind):
        _corrupt_route(monkeypatch, command, kind)
        d = 5
        sfile = tmp_path / "sym.csv"
        sfile.write_bytes(written_bytes(format_complex_matrix_csv, random_map(rng, d)))
        out = tmp_path / "out.csv"
        argv = (command, "--d", str(d), "--symbol", f"file:{sfile}",
                "--weight", "cs:von_mises:1", "--out", str(out))
        assert run(*argv) == 4
        assert "tolerance failure: two_path_residual " in capsys.readouterr().err
        assert failed_check(*argv) == "two_path_residual"
        assert not out.exists()

    def test_conjugated_chi_fails_the_hermiticity_check(self, tmp_path, capsys, monkeypatch):
        # both quantize routes read chi from the module, so they agree on the wrong operator;
        # at odd d the parity weight is self-adjoint and the delta symbol real
        module = sys.modules["torus_quant.quantize"]
        real = module.sum_phase_roots
        monkeypatch.setattr(module, "sum_phase_roots", lambda d: np.conj(real(d)))
        out = tmp_path / "op.csv"
        argv = ("quantize", "--d", "7", "--symbol", "delta", "--weight", "parity",
                "--out", str(out))
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert "hermiticity_residual 1.000e+00" in err
        assert "tolerance failure: hermiticity_residual " in err
        assert failed_check(*argv) == "hermiticity_residual"
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", [1e-12, 1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("weight", ["cs:von_mises:1", "file"])
    @pytest.mark.parametrize("kind", ["flip", "nan"])
    @pytest.mark.parametrize("command", ["quantize", "portrait"])
    def test_corrupted_route_exits_4_at_any_amplitude(self, tmp_path, capsys, monkeypatch, rng,
                                                      command, kind, weight, amplitude):
        # the bound is relative to the inputs: never loose enough to pass one
        # wrong entry, however large or small they are
        _corrupt_route(monkeypatch, command, kind)
        d = 5
        if weight == "file":
            wfile = tmp_path / "w.csv"
            values = even_gaussian_weight(d, 1e4)
            wfile.write_bytes(written_bytes(format_complex_matrix_csv, values))
            weight = f"file:{wfile}"
        sfile = tmp_path / "sym.csv"
        sfile.write_bytes(written_bytes(format_complex_matrix_csv, amplitude * random_map(rng, d)))
        out = tmp_path / "out.csv"
        assert run(command, "--d", str(d), "--symbol", f"file:{sfile}",
                   "--weight", weight, "--out", str(out)) == 4
        assert "tolerance failure: two_path_residual " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude, doubled, code", [
        (1e-320, True, 4), (2.0 ** -1000, True, 4), (2.0 ** -1000, False, 0),
        # a subnormal symbol's operator carries rounding far above the bound: exit 4, as for maps
        (1e-320, False, 4)])
    def test_doubled_operator_of_a_tiny_symbol_exits_4(self, tmp_path, capsys, monkeypatch, rng,
                                                      amplitude, doubled, code):
        # the residual and its scale are held times the power of two of 1 / max|f|, so a
        # residual below bound()'s floor of 1e-10 times the smallest normal double still fails
        if doubled:
            real = cli.quantize
            monkeypatch.setattr(cli, "quantize", lambda f, w: 2 * real(f, w))
        sfile, out = tmp_path / "sym.csv", tmp_path / "op.csv"
        sfile.write_bytes(written_bytes(format_complex_matrix_csv, amplitude * random_map(rng, 7)))
        assert run("quantize", "--d", "7", "--symbol", f"file:{sfile}",
                   "--weight", "cs:von_mises:2", "--out", str(out)) == code
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("two_path_residual ")
        assert out.exists() == (code == 0)


class TestLargeInputsPass:
    """Correct results whose rounding grows with large inputs pass the two-path checks."""

    @pytest.mark.parametrize("command, d, amplitude", [("portrait", 63, 1e6),
                                                       ("quantize", 63, 1e8)])
    def test_large_symbol(self, tmp_path, rng, command, d, amplitude):
        sfile = tmp_path / "sym.csv"
        sfile.write_bytes(written_bytes(format_complex_matrix_csv, amplitude * random_map(rng, d)))
        assert run(command, "--d", str(d), "--symbol", f"file:{sfile}",
                   "--weight", "cs:von_mises:3", "--out", str(tmp_path / "out.csv")) == 0

    @pytest.mark.parametrize("peak", [1e4, 1e6])
    def test_large_weight(self, tmp_path, peak):
        # a portrait's rounding grows with the square of the weight
        d = 31
        wfile = tmp_path / "w.csv"
        wfile.write_bytes(written_bytes(format_complex_matrix_csv, even_gaussian_weight(d, peak)))
        assert run("portrait", "--d", str(d), "--symbol", "momentum:index",
                   "--weight", f"file:{wfile}", "--out", str(tmp_path / "out.csv")) == 0


#: helpers that build one operator per phase-space point
PER_POINT_HELPERS = ("transported", "sum_displacement", "displacement_matrix",
                     "displacement_apply")


def _package_modules():
    return [importlib.import_module(f"torus_quant.{info.name}")
            for info in pkgutil.iter_modules(torus_quant.__path__)]


class TestNoPerPointLoops:
    """quantize and portrait never build a displacement per phase-space point."""

    @pytest.mark.parametrize("symbol", ["file", "momentum:index", "position:index"])
    @pytest.mark.parametrize("weight", ["parity", "cs:von_mises:1", "file"])
    @pytest.mark.parametrize("command", ["quantize", "portrait"])
    def test_runs_without_per_point_helpers(self, tmp_path, monkeypatch, rng,
                                            command, weight, symbol):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-point helper called on a CLI path")

        # every module that defines or imports a helper gets the raising
        # stand-in; weyl, which defines displacement_apply, is the only module binding any
        patched = set()
        for module in _package_modules():
            for name in PER_POINT_HELPERS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
                    patched.add((module.__name__, name))
        assert patched == {("torus_quant.weyl", "displacement_apply")}
        d = 6
        if weight == "file":
            wfile = tmp_path / "w.csv"
            values = random_symmetric_weight(rng, d).values
            wfile.write_bytes(written_bytes(format_complex_matrix_csv, values))
            weight = f"file:{wfile}"
        if symbol == "file":
            sfile = tmp_path / "sym.csv"
            sfile.write_bytes(written_bytes(format_complex_matrix_csv, random_map(rng, d)))
            symbol = f"file:{sfile}"
        assert run(command, "--d", str(d), "--symbol", symbol, "--weight", weight,
                   "--out", str(tmp_path / "out.csv")) == 0
