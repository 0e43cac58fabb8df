"""Independent checks of one CLI invocation's result.

Every invocation must exit 0 and print each of its stderr diagnostic
lines with a finite value.  Its output must then satisfy one identity
per subcommand, computed here with numpy alone (``np.fft``, never the
package):

- quantize: trace(A_f) = (1/d) sum f, and the unit symbol gives the identity;
- portrait: mass is conserved, and the unit symbol is a fixed point;
- gabor: period_estimate equals the generated period, the PGM header
  matches d, and a CSV map is nonnegative with (1/d) sum |Phi|^2 = ||x||^2;
- husimi: the map is nonnegative and sums to ||psi||^2;
- wigner: the marginals equal |psi|^2 and |FFT psi|^2;
- fiducials: the window has unit norm.

The ``quantize`` output is also checked against its own stderr: the
reported trace and hermiticity residual must be those of the written
matrix, so a corrupted entry off the diagonal is caught too.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Invocation

#: identities hold to rounding; this leaves room for d ~ 1e3 summations
REL_TOL = 1e-9

#: stderr keys each subcommand prints, and how many numbers follow each
DIAGNOSTICS = {
    "gabor": {"isometry_residual": 1, "dominant_rows": None, "period_estimate": 1},
    "wigner": {"marginal_residual_position": 1, "marginal_residual_momentum": 1},
    "husimi": {"normalization_residual": 1},
    "quantize": {"two_path_residual": 1, "hermiticity_residual": 1, "trace": 2},
    "portrait": {"two_path_residual": 1, "smoothing_mass_residual": 1},
    "fiducials": {"norm": 1},
}


class Failed(Exception):
    """The invocation's result is wrong; the message says how."""


def _close(actual: complex, expected: complex, scale: float) -> bool:
    return bool(abs(actual - expected) <= REL_TOL * max(1.0, scale))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


def _parse_stderr(command: str, stderr: str) -> dict[str, list[float]]:
    lines = {}
    for line in stderr.splitlines():
        key, _, rest = line.partition(" ")
        lines[key] = rest
    values = {}
    for key, count in DIAGNOSTICS[command].items():
        _require(key in lines, f"stderr lacks {key!r}")
        if count is None:  # a list of row indices, or '-'
            continue
        try:
            numbers = [float(tok.rstrip("j")) for tok in lines[key].split()]
        except ValueError:
            raise Failed(f"stderr {key!r} is not numeric: {lines[key]!r}") from None
        _require(len(numbers) == count and all(map(math.isfinite, numbers)),
                 f"stderr {key!r} is not {count} finite number(s): {lines[key]!r}")
        values[key] = numbers
    return values


def _read_table(inv: Invocation) -> np.ndarray:
    """Numeric CSV body without the header row and the index column."""
    table = np.loadtxt(inv.out, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    _require(bool(np.isfinite(table).all()), "output has a non-finite entry")
    return table


def _read_complex(inv: Invocation) -> np.ndarray:
    table = _read_table(inv)
    return table[:, 0::2] + 1j * table[:, 1::2]


def _check_quantize(inv: Invocation, diag: dict) -> None:
    f = inv.expect["f"]
    d = f.shape[0]
    op = _read_complex(inv)
    _require(op.shape == (d, d), f"operator shape {op.shape}, expected {(d, d)}")
    scale = float(np.abs(f).sum()) / d
    _require(_close(np.trace(op), f.sum() / d, scale), "trace(A_f) != (1/d) sum f")
    if inv.expect["flat"]:
        _require(bool(np.abs(op - np.eye(d)).max() <= REL_TOL), "unit symbol is not the identity")
    re, im = diag["trace"]
    _require(_close(np.trace(op), complex(re, im), scale), "output trace differs from stderr")
    hermiticity = float(np.abs(op - op.conj().T).max())
    reported = diag["hermiticity_residual"][0]
    # stderr carries 4 significant digits; the file, 16
    _require(abs(hermiticity - reported) <= 1e-3 * reported + 1e-13 * np.abs(op).max(),
             f"output hermiticity residual {hermiticity:.3e} differs from stderr {reported:.3e}")


def _check_portrait(inv: Invocation) -> None:
    f = inv.expect["f"]
    d = f.shape[0]
    smoothed = _read_complex(inv)
    _require(smoothed.shape == (d, d), f"portrait shape {smoothed.shape}, expected {(d, d)}")
    _require(_close(smoothed.sum(), f.sum(), float(np.abs(f).sum())), "portrait mass not conserved")
    if inv.expect["flat"]:
        _require(bool(np.abs(smoothed - 1).max() <= REL_TOL), "unit symbol is not a fixed point")


def _check_gabor(inv: Invocation, diag: dict) -> None:
    signal = inv.expect["signal"]
    d = signal.shape[0]
    _require(diag["period_estimate"] == [inv.expect["period"]],
             f"period_estimate {diag['period_estimate']}, generated period {inv.expect['period']}")
    if inv.kind == "gabor-pgm":
        data = inv.out.read_bytes()
        header = f"P5\n{d} {d}\n255\n".encode("ascii")
        _require(data.startswith(header), f"PGM header {data[:16]!r} does not match d={d}")
        _require(len(data) == len(header) + d * d, f"PGM has {len(data)} bytes")
        return
    magnitude = _read_table(inv)
    _require(magnitude.shape == (d, d), f"map shape {magnitude.shape}, expected {(d, d)}")
    _require(bool(magnitude.min() >= 0), "magnitude map has a negative entry")
    energy = float(np.sum(signal ** 2))
    _require(_close((magnitude ** 2).sum() / d, energy, energy), "(1/d) sum |Phi|^2 != ||x||^2")


def _check_husimi(inv: Invocation) -> None:
    psi = inv.expect["psi"]
    h_map = _read_table(inv)
    _require(h_map.shape == (psi.size, psi.size), f"map shape {h_map.shape}")
    _require(bool(h_map.min() >= 0), "Husimi map has a negative entry")
    _require(_close(h_map.sum(), np.vdot(psi, psi).real, 1.0), "Husimi map does not sum to ||psi||^2")


def _check_wigner(inv: Invocation) -> None:
    psi = inv.expect["psi"]
    w_map = _read_table(inv)
    _require(w_map.shape == (psi.size, psi.size), f"map shape {w_map.shape}")
    position = np.abs(psi) ** 2
    momentum = np.abs(np.fft.fft(psi, norm="ortho")) ** 2
    _require(bool(np.abs(w_map.sum(axis=0) - position).max() <= REL_TOL), "position marginal")
    _require(bool(np.abs(w_map.sum(axis=1) - momentum).max() <= REL_TOL), "momentum marginal")


def _check_fiducials(inv: Invocation) -> None:
    window = _read_complex(inv)
    _require(window.shape[1] == 1, f"window has {window.shape[1]} columns")
    _require(_close(np.linalg.norm(window), 1.0, 1.0), "window is not unit-norm")


def check(inv: Invocation, returncode: int, stderr: str) -> None:
    """Raise :class:`Failed` unless the invocation's result is correct."""
    _require(returncode == 0, f"exit code {returncode}: {stderr.strip()[-200:]!r}")
    command = inv.argv[0]
    diag = _parse_stderr(command, stderr)
    _require(inv.out.is_file(), f"no output at {inv.out}")
    try:
        if command == "quantize":
            _check_quantize(inv, diag)
        elif command == "portrait":
            _check_portrait(inv)
        elif command == "gabor":
            _check_gabor(inv, diag)
        elif command == "husimi":
            _check_husimi(inv)
        elif command == "wigner":
            _check_wigner(inv)
        else:
            _check_fiducials(inv)
    except ValueError as exc:  # unparseable output
        raise Failed(f"output unreadable: {exc}") from None


def problem(inv: Invocation, returncode: int, stderr: str) -> str | None:
    """The reason the invocation failed verification, or None when it passed."""
    try:
        check(inv, returncode, stderr)
    except Failed as exc:
        return f"{inv.kind} {' '.join(inv.argv)}: {exc}"
    return None
