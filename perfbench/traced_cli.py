"""Traced run of ``python -m torus_quant``.

Usage: python traced_cli.py SPANS_JSON INVOCATION_ID CLI_ARG...

Imports the package inside ``cli.import`` spans, replaces each public
name that ``torus_quant.cli`` imports with a wrapper that records a span
around the call (layer name, start, end, parent span, invocation id),
then calls ``cli.main`` with the CLI arguments.  The CLI's own code runs
unchanged, so output bytes, stderr lines and exit code are those of
``python -m torus_quant``; ``selftest.py`` checks that.  Spans stay in
memory and are written to SPANS_JSON as the process exits.

Only calls made by ``cli.py`` are timed; calls inside the package are
part of their caller's span.  ``quantize(..., method="direct")`` is the
``quantize.check`` layer, every other ``quantize`` call ``quantize.route``.
Nothing is imported before the first ``cli.import`` span, so the import
spans include numpy and scipy, as a CLI user's start-up does.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

#: layer of each name ``torus_quant.cli`` imports and calls
LAYER_OF = {
    "read_signal": "io_formats.read",
    "read_vector_csv": "io_formats.read",
    "read_complex_matrix_csv": "io_formats.read",
    "realize_fiducial": "fiducials",
    "coherent_state_weight": "quantize.weight",
    "parity_weight": "quantize.weight",
    "Weight": "quantize.weight",
    "quantize": "quantize.route",
    "quantize_momentum": "quantize.route",
    "quantize_position": "quantize.route",
    "portrait_of_symbol": "distributions.route",
    "husimi": "distributions.route",
    "wigner": "distributions.route",
    "portrait": "distributions.check",
    "overlap_distribution": "distributions.check",
    "dft": "distributions.check",
    "gabor_transform": "gabor.route",
    "isometry_defect": "gabor.check",
    "column_energy": "signals",
    "envelope_spectrum": "signals",
    "dominant_rows": "signals",
    "period_estimate": "signals",
    "format_complex_matrix_csv": "io_formats.format",
    "format_real_map_csv": "io_formats.format",
    "format_vector_csv": "io_formats.format",
    "pgm_bytes": "io_formats.format",
}


class Tracer:
    """In-memory span recorder; a span opened inside another is its child."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "invocation": self.invocation}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, layer: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            name = "quantize.check" if kwargs.get("method") == "direct" else layer
            with self.span(name):
                return function(*args, **kwargs)
        return traced


def instrument(tracer: Tracer, cli) -> None:
    """Swap the names ``cli`` calls for traced wrappers of them."""
    for name, layer in LAYER_OF.items():
        setattr(cli, name, tracer.wrap(layer, getattr(cli, name)))
    spec = cli.FiducialSpec
    cli.FiducialSpec = SimpleNamespace(parse=tracer.wrap("fiducials", spec.parse),
                                       custom=tracer.wrap("fiducials", spec.custom))
    emit = cli._emit

    def traced_emit(out, payload):
        with tracer.span("io_formats.format") as record:
            record["bytes"] = len(payload)
            emit(out, payload)
    cli._emit = traced_emit


def main(argv: list[str]) -> int:
    spans_path, invocation, *cli_args = argv
    tracer = Tracer(invocation)
    try:
        with tracer.span("cli.import"):
            import torus_quant  # noqa: F401
        with tracer.span("cli.import"):
            from torus_quant import cli
        instrument(tracer, cli)
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
