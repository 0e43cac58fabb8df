"""Command-line front end.

Subcommands: gabor, wigner, husimi, quantize, portrait, fiducials.  Data
goes to --out (or stdout with "-"); residual diagnostics go to stderr.

Exit codes: 0 success, 2 input error, 3 precondition violation (finite
inputs whose results overflow included), 4 internal tolerance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import __version__
# gabor_transform and overlap_distribution are unused here: perfbench/traced_cli.py wraps them
from .distributions import husimi, overlap_distribution, portrait, portrait_of_symbol, wigner
from .errors import InputFormatError, ToleranceError, bound, hold
from .fiducials import FiducialSpec, realize_fiducial
from .gabor import _magnitudes, gabor_transform, isometry_defect
from .hilbert import dft, norm, phase_table, scaled_sums, unit_scale
from .io_formats import (
    format_complex_matrix_csv,
    format_real_map_csv,
    format_vector_csv,
    pgm_bytes,
    read_complex_matrix_csv,
    read_signal,
    read_vector_csv,
)
from .quantize import (
    Weight,
    _coefficients,
    coherent_state_weight,
    momentum_symbol,
    parity_weight,
    position_symbol,
    quantize,
    quantize_momentum,
    quantize_position,
)
from .signals import column_energy, dominant_rows, envelope_spectrum, period_estimate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_TOLERANCE = 4


def _emit(out, payload) -> None:
    out.write(payload)


def _write(out: str, format_data, data, **labels) -> None:
    """Pass each chunk ``format_data`` makes of ``data`` to ``_emit``, for stdout ("-") or ``out``.

    The file is created here, so a run that fails before its output writes none.
    """
    if out == "-":
        sys.stdout.flush()
    with contextlib.nullcontext(sys.stdout.buffer) if out == "-" else open(out, "wb") as fh:
        format_data(data, lambda chunk: _emit(fh, chunk), **labels)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _load_signal(args) -> np.ndarray:
    signal = read_signal(args.infile)
    if args.d is not None and args.d != signal.shape[0]:
        if args.truncate and args.d < signal.shape[0]:
            signal = signal[: args.d]
        elif args.pad and args.d > signal.shape[0]:
            signal = np.concatenate([signal, np.zeros(args.d - signal.shape[0], complex)])
        else:
            raise InputFormatError(
                f"signal has {signal.shape[0]} samples but --d {args.d} was requested; "
                "pass --truncate or --pad to adjust explicitly")
    return signal


def _read_sized(reader, text: str, d: int) -> np.ndarray:
    """Read the path after ``text``'s ":" with ``reader``, a global traced runs wrap; size d."""
    values = reader(text.partition(":")[2])
    if values.shape[0] != d:
        raise InputFormatError(f"{text} has size {values.shape[0]}, expected d={d}")
    return values


def _resolve_fiducial(text: str, d: int) -> np.ndarray:
    if text.startswith("custom:"):
        spec = FiducialSpec.custom(_read_sized(read_vector_csv, text, d))
    else:
        spec = FiducialSpec.parse(text)
    return realize_fiducial(spec, d)


def _resolve_weight(text: str, d: int) -> Weight:
    if text == "parity":
        return parity_weight(d)
    if text.startswith("cs:"):
        return coherent_state_weight(_resolve_fiducial(text[len("cs:"):], d))
    if text.startswith("file:"):
        return Weight(_read_sized(read_complex_matrix_csv, text, d))
    raise InputFormatError(f"unknown weight selector {text!r}")


def _resolve_symbol(text: str, d: int):
    """Return (f, kind, vec) with the d x d symbol f.

    kind is general / momentum / position; for the last two, vec is the
    vector f is built from (the fast-path input), otherwise None.
    """
    if text == "ones":
        return np.ones((d, d), dtype=complex), "general", None
    if text == "delta":
        f = np.zeros((d, d), dtype=complex)
        f[0, 0] = d  # unit mass under the 1/d-weighted counting measure
        return f, "general", None
    if text.startswith("file:"):
        return _read_sized(read_complex_matrix_csv, text, d), "general", None
    for prefix, symbol in (("momentum", momentum_symbol), ("position", position_symbol)):
        if text.startswith(prefix + ":"):
            arg = text[len(prefix) + 1:]
            if arg == "index":
                vec = np.arange(d, dtype=complex)
            elif arg == "index2":
                vec = np.arange(d, dtype=complex) ** 2
            elif arg == "fourier":
                vec = phase_table(d, np.arange(d))
            elif arg.startswith("file:"):
                vec = _read_sized(read_vector_csv, arg, d)
            else:
                raise InputFormatError(f"unknown {prefix} symbol {arg!r}")
            return symbol(vec), prefix, vec
    raise InputFormatError(f"unknown symbol selector {text!r}")


def _check(key: str, residual: float, scale: float, relative=True, held=True) -> None:
    """Print ``key``'s residual (over ``scale`` > 0 if ``relative``), then hold it if ``held``."""
    _diag(f"{key} {residual / (scale if relative and scale > 0 else 1.0):.3e}")
    if held:
        hold(key, residual, scale)


def cmd_gabor(args) -> int:
    signal = _load_signal(args)
    d = signal.shape[0]
    window = _resolve_fiducial(args.fiducial, d)
    magnitude = _magnitudes(signal, window)
    _check("isometry_residual", isometry_defect(signal, magnitude), 1.0)  # already relative
    _write(args.out, pgm_bytes if args.format == "pgm" else format_real_map_csv, magnitude)
    power = envelope_spectrum(column_energy(magnitude))
    rows = dominant_rows(power)
    _diag(f"dominant_rows {' '.join(map(str, rows)) if rows else '-'}")
    period = period_estimate(d, rows)
    _diag(f"period_estimate {period if period is not None else '-'}")
    return EXIT_OK


def cmd_wigner(args) -> int:
    signal = _load_signal(args)
    w_map = wigner(signal)
    peak = np.abs(signal).max()
    scaled = signal * unit_scale(peak)  # W, quadratic, is scaled twice
    pos = np.abs(scaled) ** 2
    energy = float(pos.sum())
    over_m, over_n = scaled_sums(w_map, peak, 2)
    _check("marginal_residual_position", np.abs(over_m - pos).max(), energy)
    _check("marginal_residual_momentum", np.abs(over_n - np.abs(dft(scaled)) ** 2).max(), energy)
    _write(args.out, format_real_map_csv, w_map)
    return EXIT_OK


def cmd_husimi(args) -> int:
    signal = _load_signal(args)
    window = _resolve_fiducial(args.fiducial, signal.shape[0])
    h_map = husimi(signal, window)
    peak = np.abs(signal).max()
    energy = np.linalg.norm(signal * unit_scale(peak)) ** 2  # H, quadratic, is scaled twice
    _check("normalization_residual", abs(scaled_sums(h_map, peak, 2)[0].sum() - energy), energy)
    _write(args.out, format_real_map_csv, h_map)
    return EXIT_OK


def _coefficient_residual(op: np.ndarray, f: np.ndarray, weight: Weight) -> float:
    """max_q |Tr[D(q)^dag op] - w(q) F(q)|, F the conjugate symplectic transform of f.

    F is formed here from two FFTs, not by ``symplectic_dft``, so a fault there shows.
    """
    F = np.fft.ifft(f, axis=0)
    F = np.fft.fft(F, axis=1, out=F).T
    F *= weight.values
    c = _coefficients(op)
    c -= F
    del F  # before |c| is allocated
    return np.abs(c).max()


def cmd_quantize(args) -> int:
    d = args.d
    weight = _resolve_weight(args.weight, d)
    f, kind, vec = _resolve_symbol(args.symbol, d)
    if kind == "momentum":
        op = quantize_momentum(vec, weight)
    elif kind == "position":
        op = quantize_position(vec, weight)
    else:
        op = quantize(f, weight)
    peak, w_peak = np.abs(f).max(), np.abs(weight.values).max()
    scale, unit, residual = peak * w_peak, unit_scale(peak), _coefficient_residual(op, f, weight)
    _diag(f"two_path_residual {residual:.3e}")  # held times unit (exact), clear of bound()'s floor
    hold("two_path_residual", residual * unit, scale * unit)
    # A_f is self-adjoint for a real f and a self-adjoint M_w (as overlap_distribution tests it)
    _check("hermiticity_residual", np.abs(op - op.conj().T).max(), scale, relative=False,
           held=not np.any(f.imag) and weight.symmetry_defect() <= bound(w_peak))
    _write(args.out, format_complex_matrix_csv, op)
    _diag(f"trace {np.trace(op).real:.15e} {np.trace(op).imag:+.15e}j")
    return EXIT_OK


def cmd_portrait(args) -> int:
    d = args.d
    weight = _resolve_weight(args.weight, d)
    f, _, _ = _resolve_symbol(args.symbol, d)
    smoothed = portrait_of_symbol(f, weight)
    scale = np.abs(weight.values).max() ** 2  # a portrait is quadratic in the weight
    peak = np.abs(f).max()
    _check("two_path_residual", np.abs(smoothed - portrait(quantize(f, weight), weight)).max(),
           peak * scale, relative=False)
    f *= unit_scale(peak)  # by a power of two near 1 / max|f|, as scaled_sums scales S: exact
    mass = weight.values[0, 0] ** 2 * f.sum()  # sum smoothed = (tr M_w)^2 sum f, tr M_w = w(0, 0)
    _check("smoothing_mass_residual", abs(scaled_sums(smoothed, peak)[0].sum() - mass),
           np.abs(f).sum() * scale)
    _write(args.out, format_complex_matrix_csv, smoothed, row_label="m", col_label="n")
    return EXIT_OK


def cmd_fiducials(args) -> int:
    vec = _resolve_fiducial(args.fiducial, args.d)
    _write(args.out, format_vector_csv, vec)
    _diag(f"norm {norm(vec):.12f}")
    return EXIT_OK


def _dimension(text: str) -> int:
    """Parse --d as an integer of at least 1; anything else is an argparse error (exit 2)."""
    d = int(text) if text.strip().lstrip("+-").isdigit() else 0
    if d < 1:
        raise argparse.ArgumentTypeError(f"dimension must be an integer >= 1, got {text!r}")
    return d


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-quant",
        description="Gabor analysis, phase-space distributions and covariant "
                    "quantization on the discrete torus Z_d x Z_d.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_signal_flags(p):
        p.add_argument("--in", dest="infile", required=True, help="signal file (CSV or JSON)")
        p.add_argument("--d", type=_dimension, help="target dimension (defaults to signal length)")
        p.add_argument("--truncate", action="store_true", help="truncate a longer signal to --d")
        p.add_argument("--pad", action="store_true", help="zero-pad a shorter signal to --d")

    def add_out_flag(p):
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p = sub.add_parser("gabor", help="magnitude spectrogram of a signal")
    add_signal_flags(p)
    p.add_argument("--fiducial", default="von_mises:400",
                   help="analysis window spec (default von_mises:400)")
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")
    add_out_flag(p)
    p.set_defaults(func=cmd_gabor)

    p = sub.add_parser("wigner", help="Wigner distribution of a signal (odd d)")
    add_signal_flags(p)
    add_out_flag(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("husimi", help="Husimi distribution of a signal")
    add_signal_flags(p)
    p.add_argument("--fiducial", required=True, help="window spec, e.g. constant")
    add_out_flag(p)
    p.set_defaults(func=cmd_husimi)

    p = sub.add_parser("quantize", help="operator assigned to a phase-space symbol")
    p.add_argument("--d", type=_dimension, required=True)
    p.add_argument("--symbol", required=True,
                   help="ones | delta | file:PATH | momentum:index|index2|fourier|file:PATH "
                        "| position:index|index2|fourier|file:PATH")
    p.add_argument("--weight", required=True, help="parity | cs:<fiducial> | file:PATH")
    add_out_flag(p)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("portrait", help="smoothed phase-space portrait of a symbol")
    p.add_argument("--d", type=_dimension, required=True)
    p.add_argument("--symbol", required=True, help="as for quantize")
    p.add_argument("--weight", required=True, help="parity | cs:<fiducial> | file:PATH")
    add_out_flag(p)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("fiducials", help="realize a fiducial window vector")
    p.add_argument("--d", type=_dimension, required=True)
    p.add_argument("--fiducial", required=True, help="spec, e.g. dirichlet:2 or custom:PATH")
    add_out_flag(p)
    p.set_defaults(func=cmd_fiducials)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise"):
            return args.func(args)
    except (InputFormatError, OSError) as exc:
        _diag(f"input error: {exc}")
        return EXIT_INPUT
    except ToleranceError as exc:
        _diag(f"tolerance failure: {exc}")
        return EXIT_TOLERANCE
    except (ValueError, FloatingPointError) as exc:
        _diag(f"precondition violated: {exc}")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
