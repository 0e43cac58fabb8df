"""Fault injection: a wrong operator or portrait is stopped before it is written.

Each fault replaces one name for the length of a run.  An output mutant
replaces the routes ``cli`` binds for ``quantize`` (``quantize``,
``quantize_momentum``, ``quantize_position``) with the route followed by a
corruption of its result.  An internal fault is built from the kernel the
module that defines it holds, and replaces it in every package module that
binds it; modules are reached through ``sys.modules`` because the package
attribute ``torus_quant.quantize`` is the function, not the module.

A (fault, case) pair passes when the run exits 4 and writes nothing, or
writes output within 1e-10 of the correct output's peak.  An internal
fault may also exit 3 and write nothing, where it breaks a precondition
that the package holds.  Every other pair is an escape, and must be listed
in ``EXEMPT`` with its reason.
"""

import contextlib
import io
import sys
from itertools import product

import numpy as np
import pytest

from torus_quant import cli
from torus_quant.io_formats import format_complex_matrix_csv

from conftest import written_bytes

COMMANDS = ("quantize", "portrait")
DIMENSIONS = (5, 7, 8, 9)
WEIGHTS = ("parity", "cs:von_mises:3", "cs:dirichlet:2", "file")
SYMBOLS = ("ones", "delta", "momentum:index", "position:index2", "file")
CASES = list(product(COMMANDS, DIMENSIONS, WEIGHTS, SYMBOLS))


def _corrupt_entry(op, value):
    """Copy of ``op`` with its largest entry x replaced by value(x)."""
    out = np.array(op)
    worst = np.unravel_index(np.abs(out).argmax(), out.shape)
    out[worst] = value(out[worst])
    return out


#: corruptions of a route's result
OUTPUT_MUTANTS = {
    "transposed": lambda op: op.T,
    "conjugated": np.conj,
    "rows_reversed": lambda op: op[::-1],
    "rolled": lambda op: np.roll(op, 1, axis=0),
    "scaled": lambda op: op * (1 + 1e-6),
    "entry_flipped": lambda op: _corrupt_entry(op, lambda x: -x),
    "entry_nan": lambda op: _corrupt_entry(op, lambda x: np.nan),
}


def _kernel_by_fft(c):
    """``_kernel_diagonals`` with the forward FFT in place of the inverse."""
    module = sys.modules["torus_quant.quantize"]
    kernel = module.multiply_phase(np.array(c, dtype=complex), module.sum_phase_roots(c.shape[0]))
    return np.fft.fft(kernel, axis=0, out=kernel)


#: (kernel name, the faulty version built from the real one)
INTERNAL_FAULTS = {
    "sum_phase_roots_conjugated": ("sum_phase_roots", lambda real: lambda d: np.conj(real(d))),
    "multiply_phase_conjugated": ("multiply_phase",
                                  lambda real: lambda arr, roots: real(arr, np.conj(roots))),
    "cyclic_diagonals_transposed": ("cyclic_diagonals",
                                    lambda real: lambda M: np.ascontiguousarray(real(M).T)),
    "cyclic_diagonals_rolled": ("cyclic_diagonals",
                                lambda real: lambda M: np.roll(real(M), 1, axis=0)),
    "kernel_diagonals_fft": ("_kernel_diagonals", lambda real: _kernel_by_fft),
    "kernel_diagonals_conjugated": ("_kernel_diagonals", lambda real: lambda c: np.conj(real(c))),
    "symplectic_dft_flipped": ("symplectic_dft", lambda real: lambda f, conjugate=False:
                               real(f, not conjugate)),
    "symplectic_dft_transposed": ("symplectic_dft", lambda real: lambda f, conjugate=False:
                                  real(f, conjugate).T),
    "adjoint_reflection_unsigned": ("adjoint_reflection", lambda real: lambda values:
                                    np.roll(values[::-1, ::-1], 1, axis=(0, 1))),
    "adjoint_reflection_conjugated": ("adjoint_reflection",
                                      lambda real: lambda values: np.conj(real(values))),
    "paired_conjugated": ("_paired", lambda real: lambda w: np.conj(real(w))),
    "paired_transposed": ("_paired", lambda real: lambda w: np.ascontiguousarray(real(w).T)),
}

#: a conjugated chi cancels between the kernel assembly and the coefficients the
#: check reads back, so the operator passes the trace-formula check; it is wrong
#: but passes the hermiticity check only where that check is not held: at even d
#: (``parity`` is not self-adjoint there), for a complex symbol, or for the
#: ``file`` weight, whose M_w is not self-adjoint
_SHARED_CHI = ("chi cancels between the route and the check; hermiticity is not held for a "
               "complex symbol, at even d or for a weight whose M_w is not self-adjoint",
               {("quantize", 8, "parity", "delta")} |
               {("quantize", d, "parity", "file") for d in DIMENSIONS} |
               {("quantize", d, "file", symbol) for d in DIMENSIONS for symbol in ("delta", "file")})

#: fault -> (reason, the cases it lets through)
EXEMPT = {"sum_phase_roots_conjugated": _SHARED_CHI, "multiply_phase_conjugated": _SHARED_CHI}


def _faulty_kernel(name, make):
    """(module, name, faulty version) for every package module that binds the kernel ``name``."""
    package = [module for key, module in list(sys.modules.items()) if key.startswith("torus_quant.")]
    real = next(getattr(module, name) for module in package
                if getattr(getattr(module, name, None), "__module__", None) == module.__name__)
    fault = make(real)
    return [(module, name, fault) for module in package if getattr(module, name, None) is real]


def _output_mutant(mutate):
    return [(cli, name, (lambda route: lambda *args: mutate(route(*args)))(getattr(cli, name)))
            for name in ("quantize", "quantize_momentum", "quantize_position")]


def _run(argv, patches=()):
    """Exit code of ``cli.main`` on ``argv`` and the map it writes (None if it writes nothing)."""
    written = []
    with pytest.MonkeyPatch.context() as mp:
        for module, name, value in patches:
            mp.setattr(module, name, value)
        mp.setattr(cli, "_write", lambda out, format_data, data, **labels:
                   written.append(np.array(data)))
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    return code, (written[0] if written else None)


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """argv and the correct output of each case."""
    directory = tmp_path_factory.mktemp("symbols")
    rng, weight_rng = np.random.default_rng(24), np.random.default_rng(30)
    runs = {}
    for case in CASES:
        command, d, weight, symbol = case
        if symbol == "file":
            path = directory / f"f{d}.csv"
            if not path.exists():
                values = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                path.write_bytes(written_bytes(format_complex_matrix_csv, values))
            symbol = f"file:{path}"
        if weight == "file":  # complex, with no symmetry: M_w is not self-adjoint
            path = directory / f"w{d}.csv"
            if not path.exists():
                values = weight_rng.normal(size=(d, d)) + 1j * weight_rng.normal(size=(d, d))
                values[0, 0] = 1.0
                path.write_bytes(written_bytes(format_complex_matrix_csv, values))
            weight = f"file:{path}"
        argv = [command, "--d", str(d), "--weight", weight, "--symbol", symbol, "--out", "-"]
        code, out = _run(argv)
        assert code == 0, case
        runs[case] = argv, out
    return runs


def escapes(cases, patches, commands=COMMANDS, stops=(4,)):
    """Cases of ``commands`` that write output off by more than 1e-10 of its peak.

    A run that exits with a code in ``stops`` and writes nothing is no escape.
    """
    found = set()
    for case, (argv, correct) in cases.items():
        if case[0] not in commands:
            continue
        code, out = _run(argv, patches)
        if code in stops and out is None:
            continue
        if code == 0 and np.abs(out - correct).max() <= 1e-10 * np.abs(correct).max():
            continue
        found.add(case)
    return found


@pytest.mark.parametrize("mutant", sorted(OUTPUT_MUTANTS))
def test_output_mutant_of_quantize_exits_4(cases, mutant):
    assert escapes(cases, _output_mutant(OUTPUT_MUTANTS[mutant]), ("quantize",)) == set()


@pytest.mark.parametrize("fault", sorted(INTERNAL_FAULTS))
def test_internal_fault_is_stopped_or_exempt(cases, fault):
    # exit 3 is a stop too: a transposed layout breaks the unit trace of a retrieved weight
    patches = _faulty_kernel(*INTERNAL_FAULTS[fault])
    assert patches, f"no module binds {INTERNAL_FAULTS[fault][0]}"
    assert escapes(cases, patches, stops=(3, 4)) <= EXEMPT.get(fault, ("", set()))[1]
