"""Command-line front end.

Subcommands: gabor, wigner, husimi, quantize, portrait, fiducials.  Data
goes to --out (or stdout with "-"); residual diagnostics go to stderr.

Exit codes: 0 success, 2 input error, 3 precondition violation (finite
inputs whose results overflow, and runs that do not fit in memory,
included), 4 internal tolerance failure.
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
from .fiducials import _KINDS, FiducialSpec, realize_fiducial
from .gabor import _magnitudes, gabor_transform, isometry_defect
from .hilbert import dft, phase_table, scaled_sums, unit_scale
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
    parity_weight,
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
    if not args.infile:
        raise InputFormatError("--in names no path")
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
    if not (path := text.partition(":")[2]):
        raise InputFormatError(f"{text} names no path")
    values = reader(path)
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


#: the vector each momentum:NAME or position:NAME symbol is built from, at dimension d
_VECTORS = {
    "index": lambda d: np.arange(d, dtype=complex),
    "index2": lambda d: np.arange(d, dtype=complex) ** 2,
    "fourier": lambda d: phase_table(d, np.arange(d)),
}


def _resolve_symbol(text: str, d: int):
    """Return (f, route) with the d x d symbol f, which no command writes, and route(weight).

    A momentum or position f is a read-only broadcast view of a vector with a fast path.  A
    route looks its function up when called, so a traced run times the wrapper.
    """
    if text == "ones":
        f = np.ones((d, d), dtype=complex)
    elif text == "delta":
        f = np.zeros((d, d), dtype=complex)
        f[0, 0] = d  # unit mass under the 1/d-weighted counting measure
    elif text.startswith("file:"):
        f = _read_sized(read_complex_matrix_csv, text, d)
    elif text.startswith(("momentum:", "position:")):
        prefix, _, arg = text.partition(":")
        if arg in _VECTORS:
            vec = _VECTORS[arg](d)
        elif arg.startswith("file:"):
            vec = _read_sized(read_vector_csv, arg, d)
        else:
            raise InputFormatError(f"unknown {prefix} symbol {arg!r}")
        if prefix == "momentum":
            return np.broadcast_to(vec[:, None], (d, d)), lambda w: quantize_momentum(vec, w)
        return np.broadcast_to(vec, (d, d)), lambda w: quantize_position(vec, w)
    else:
        raise InputFormatError(f"unknown symbol selector {text!r}")
    return f, lambda w: quantize(f, w)


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
    weight = _resolve_weight(args.weight, args.d)
    f, route = _resolve_symbol(args.symbol, args.d)
    op = route(weight)
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
    weight = _resolve_weight(args.weight, args.d)
    f, route = _resolve_symbol(args.symbol, args.d)
    smoothed = portrait_of_symbol(f, weight)
    peak, scale = np.abs(f).max(), np.abs(weight.values).max() ** 2  # quadratic in the weight
    _check("two_path_residual", np.abs(smoothed - portrait(route(weight), weight)).max(),
           peak * scale, relative=False)
    # sum smoothed = (tr M_w)^2 sum f, tr M_w = w(0, 0); both sums times one exact unit_scale(peak)
    mass = weight.values[0, 0] ** 2 * scaled_sums(f, peak)[0].sum()
    _check("smoothing_mass_residual", abs(scaled_sums(smoothed, peak)[0].sum() - mass),
           scaled_sums(np.abs(f), peak)[0].sum() * scale)
    _write(args.out, format_complex_matrix_csv, smoothed, row_label="m", col_label="n")
    return EXIT_OK


def cmd_fiducials(args) -> int:
    vec = _resolve_fiducial(args.fiducial, args.d)
    _write(args.out, format_vector_csv, vec)
    _diag(f"norm {np.linalg.norm(vec):.12f}")
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
    windows = " | ".join([*(kind if row[0] is None else f"{kind}:{row[0].__name__}"
                            for kind, row in _KINDS.items()), "custom:PATH"])

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
                   help=f"analysis window: {windows} (default von_mises:400)")
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")
    add_out_flag(p)
    p.set_defaults(func=cmd_gabor)

    p = sub.add_parser("wigner", help="Wigner distribution of a signal (odd d)")
    add_signal_flags(p)
    add_out_flag(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("husimi", help="Husimi distribution of a signal")
    add_signal_flags(p)
    p.add_argument("--fiducial", required=True, help=f"window: {windows}")
    add_out_flag(p)
    p.set_defaults(func=cmd_husimi)

    vectors = "|".join([*_VECTORS, "file:PATH"])
    for name, cmd, doc in [("quantize", cmd_quantize, "operator assigned to a phase-space symbol"),
                           ("portrait", cmd_portrait, "smoothed phase-space portrait of a symbol")]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--d", type=_dimension, required=True)
        p.add_argument("--symbol", required=True,
                       help=f"ones | delta | file:PATH | momentum:{vectors} | position:{vectors}")
        p.add_argument("--weight", required=True, help="parity | cs:<fiducial> | file:PATH")
        add_out_flag(p)
        p.set_defaults(func=cmd)

    p = sub.add_parser("fiducials", help="realize a fiducial window vector")
    p.add_argument("--d", type=_dimension, required=True)
    p.add_argument("--fiducial", required=True, help=f"window: {windows}")
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
    except (ValueError, FloatingPointError, MemoryError) as exc:
        _diag(f"precondition violated: {exc}")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
