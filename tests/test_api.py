"""The public surface of the package and the names the benchmark relies on."""

import ast
import collections
import functools
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torus_quant
from torus_quant import cli

import oracles

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"

#: reference routes that live in ``tests/oracles.py`` and not in the package
ORACLE_NAMES = (
    "dft_matrix",
    "GroupElement",
    "group_mul",
    "group_inv",
    "wrap_sign_exponent",
    "rep_V",
    "compose_displacements",
    "conjugation_phase",
    "fourier_conjugated",
    "wigner_via_parity",
    "wigner_half_argument",
    "reproducing_defect",
    "frame_resolution_defect",
    "jacobi_theta3",
    "inner",
    "conjugate_sign",
    "adjoint_sign_table",
    "trace_displacement",
    "displacement_matrix_fourier",
    "sum_displacement",
    "transported",
    "covariance_defect",
    "coherent_state",
    "reproducing_kernel",
    "parity_matrix",
)


#: the package's public names, by module in the order ``__init__`` concatenates them
PUBLIC_NAMES = [
    "ToleranceError", "InputFormatError",
    "as_state", "norm", "kronecker_basis", "fourier_basis", "dft", "idft", "translate", "modulate",
    "displacement_apply", "displacement_matrix",
    "FiducialSpec", "realize_fiducial",
    "gabor_transform", "gabor_inverse", "isometry_defect",
    "Weight", "parity_weight", "coherent_state_weight", "quantization_operator",
    "weight_from_operator", "symplectic_dft", "momentum_symbol", "position_symbol", "quantize",
    "quantize_momentum", "quantize_position", "PositivityReport", "positivity_report",
    "husimi", "wigner", "portrait", "portrait_of_symbol", "overlap_distribution",
    "column_energy", "envelope_spectrum", "dominant_rows", "period_estimate",
]


class TestPublicNames:
    def test_surface_is_pinned(self):
        # the re-export is built from each module's __all__, so this list is what pins the set
        assert torus_quant.__all__ == PUBLIC_NAMES

    def test_every_entry_resolves_to_a_non_module(self):
        assert len(set(torus_quant.__all__)) == len(torus_quant.__all__)
        for name in torus_quant.__all__:
            assert not inspect.ismodule(getattr(torus_quant, name)), name

    def test_oracles_are_not_exported(self):
        for name in ORACLE_NAMES:
            assert hasattr(oracles, name), name
            assert name not in torus_quant.__all__, name

    def test_each_module_exports_exactly_its_share(self):
        # a name in a module's __all__ is public only if the package exports it
        shares = {}
        for name in torus_quant.__all__:
            shares.setdefault(getattr(torus_quant, name).__module__, set()).add(name)
        modules = [importlib.import_module(f"torus_quant.{info.name}")
                   for info in pkgutil.iter_modules(torus_quant.__path__)]
        for module in modules:
            assert set(getattr(module, "__all__", ())) == shares.pop(module.__name__, set()), \
                module.__name__
        assert not shares


#: constants in (0, 1e-6] of the package that are not check tolerances; every
#: residual check takes its bound from ``errors.bound``
NON_TOLERANCE_CONSTANTS = collections.Counter({
    ("signals", 1e-12): 1,  # off-DC power negligible against the total
    ("fiducials", 1e-16): 1,  # _GAUSSIAN_CUTOFF, smallest retained gaussian term
    ("io_formats", 1e-9): 1,  # _TIE_MARGIN, distance to a rounding tie
})


class TestToleranceRule:
    def test_small_constants_live_in_errors(self):
        found = collections.Counter()
        for path in Path(torus_quant.__file__).resolve().parent.glob("*.py"):
            if path.name == "errors.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                        and 0 < node.value <= 1e-6):
                    found[path.stem, node.value] += 1
        assert found == NON_TOLERANCE_CONSTANTS


@functools.cache
def _modules_after_cli_import() -> frozenset:
    """The modules a fresh ``import torus_quant.cli`` has loaded."""
    src = Path(torus_quant.__file__).resolve().parent.parent
    code = "import sys, torus_quant.cli; print(' '.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert result.returncode == 0, result.stderr
    return frozenset(result.stdout.split())


class TestDependencies:
    def test_cli_import_does_not_load_scipy(self):
        assert "scipy" not in _modules_after_cli_import()

    def test_cli_import_does_not_load_fractions_or_decimal(self):
        # the CSV writer's exact scales use Python ints, built on first use;
        # json is imported by the one reader of JSON signals
        assert not {"fractions", "decimal", "json"} & _modules_after_cli_import()


def _load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    """``perfbench/traced_cli.py`` wraps these attributes of ``torus_quant.cli``."""

    def test_wrapped_names_exist(self):
        traced = _load_traced_cli()
        for name in traced.LAYER_OF:
            assert callable(getattr(cli, name)), name
        assert callable(cli.FiducialSpec.parse)
        assert callable(cli.FiducialSpec.custom)
        assert callable(cli._emit)
        assert callable(cli.main)

    @pytest.mark.parametrize("argv", [["husimi", "--fiducial", "von_mises:2"], ["wigner"]],
                             ids=["husimi", "wigner"])
    def test_traced_run_writes_the_plain_bytes(self, tmp_path, monkeypatch, argv):
        # d=257 writes the map in several blocks, each through one traced _emit
        z = np.cos(np.arange(257)) + 1j * np.sin(np.arange(257) ** 2 / 7)
        signal, plain, traced_out = tmp_path / "in.csv", tmp_path / "plain", tmp_path / "traced"
        signal.write_text("".join(f"{x.real:.17g},{x.imag:.17g}\n" for x in z))
        assert cli.main([*argv, "--in", str(signal), "--out", str(plain)]) == 0
        traced = _load_traced_cli()
        for name in [*traced.LAYER_OF, "FiducialSpec", "_emit"]:
            monkeypatch.setattr(cli, name, getattr(cli, name))  # restored after the test
        tracer = traced.Tracer("contract")
        traced.instrument(tracer, cli)
        assert cli.main([*argv, "--in", str(signal), "--out", str(traced_out)]) == 0
        assert traced_out.read_bytes() == plain.read_bytes()
        written = [span.get("bytes", 0) for span in tracer.spans
                   if span["name"] == "io_formats.format"]
        assert sum(written) == plain.stat().st_size
        assert sum(1 for size in written if size) > 2
        assert all(span["end"] is not None for span in tracer.spans)
