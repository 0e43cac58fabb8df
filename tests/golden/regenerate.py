"""Write the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case is one CLI invocation.  Its stdout payload goes to
``tests/golden/<name>.<ext>``; its argv, exit code and stderr keys (the
first word of each stderr line) go to ``tests/golden/cases.json``.  In
argv, ``{root}`` stands for the repository root.  Regenerate only when an
output is meant to change, and say why in the commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from torus_quant.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent

WEIGHTS = ("parity", "cs:von_mises:3", "cs:gaussian:2", "cs:dirichlet:2")
SYMBOLS = {"quantize": ("position:index2", "delta"), "portrait": ("momentum:index",)}
FIDUCIALS = {
    9: ("constant", "kronecker:2", "plane_wave:3", "gaussian:0.05", "gaussian:2",
        "gaussian:1e6", "dirichlet:0", "dirichlet:4", "von_mises:0", "von_mises:3",
        "von_mises:400", "custom:{root}/tests/golden/custom_window.csv",
        "dirichlet:5", "gaussian:-1"),
    16: ("gaussian:0.05", "gaussian:1", "dirichlet:7", "von_mises:30"),
}
SIGNAL = "{root}/data/signal3.csv"


def cases() -> list[tuple[str, list[str], str]]:
    """(name, argv without --out, file extension) for every golden case."""
    out = []
    for command, symbols in SYMBOLS.items():
        for d in (5, 8, 9):
            for weight in WEIGHTS:
                for symbol in symbols:
                    name = f"{command}_d{d}_{weight}_{symbol}".replace(":", "-")
                    out.append((name, [command, "--d", str(d), "--symbol", symbol,
                                       "--weight", weight], "csv"))
    for d, specs in FIDUCIALS.items():
        for spec in specs:
            label = "custom" if spec.startswith("custom:") else spec.replace(":", "-")
            out.append((f"fiducials_d{d}_{label}",
                        ["fiducials", "--d", str(d), "--fiducial", spec], "csv"))
    out.append(("gabor_signal3_csv", ["gabor", "--in", SIGNAL], "csv"))
    out.append(("gabor_signal3_pgm", ["gabor", "--in", SIGNAL, "--format", "pgm"], "pgm"))
    for d in (9, 15):
        out.append((f"wigner_d{d}", ["wigner", "--in", SIGNAL, "--d", str(d), "--truncate"],
                    "csv"))
        for spec in ("von_mises:3", "gaussian:1"):
            out.append((f"husimi_d{d}_{spec.replace(':', '-')}",
                        ["husimi", "--in", SIGNAL, "--d", str(d), "--truncate",
                         "--fiducial", spec], "csv"))
    out.append(("wigner_d8", ["wigner", "--in", SIGNAL, "--d", "8", "--truncate"], "csv"))
    return out


def run_case(argv: list[str], out_path: Path) -> tuple[int, list[str]]:
    """Run the CLI in-process; return its exit code and stderr keys."""
    resolved = [a.replace("{root}", str(ROOT)) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(resolved + ["--out", str(out_path)])
    keys = [line.split()[0] for line in err.getvalue().splitlines() if line.strip()]
    return code, keys


def main() -> None:
    manifest = []
    for name, argv, ext in cases():
        path = GOLDEN / f"{name}.{ext}"
        path.unlink(missing_ok=True)
        code, keys = run_case(argv, path)
        manifest.append({"name": name, "argv": argv, "exit": code, "stderr_keys": keys,
                         "output": path.name if path.exists() else None})
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
