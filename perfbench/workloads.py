"""Seeded invocation lists for the benchmark's three workloads.

Each generator writes its input files into a work directory and returns
a few cycles of invocations.  A cycle has a fixed order of invocation
classes (subcommand, weight kind, output format), and the seed draws
everything inside a class: fiducial parameters, symbols, signal periods,
states and file contents.  The cost of an invocation depends on its
class, not on the drawn values, and a run measures whole cycles, so
every seed gives a run the same mix of costs while the inputs differ.

The benchmark writes every input with ``%.17g``, which round-trips a
float64 exactly, so the verifier's expectations are the very values the
program reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OPERATOR_D = 95
GABOR_D = 1020
STATE_D = 1023
DEMO_D = 60

#: divisors of GABOR_D whose envelope harmonic survives the default
#: von_mises:400 window (shorter periods are smoothed below detection)
GABOR_PERIODS = (12, 15, 17, 20, 30, 34, 51, 60, 68, 85, 102)

#: von_mises concentrations of the husimi windows at STATE_D.  Above
#: about 350 the window's smallest entries are subnormal floats, which
#: makes the transform ~10x slower (5 s, not 0.3 s), so a range across
#: that edge would give each seed a different cost.  The subnormal cost
#: is still measured in every cycle: gabor's default von_mises:400 has it.
HUSIMI_CONCENTRATIONS = (10, 340)
DEMO_PERIODS = (6, 10, 12, 15, 20, 30)

#: position/momentum symbol variants.  ``index2`` is left out: its
#: entries reach d^2 and trip the CLI's absolute two-path bound at d=95
#: (ROADMAP item 4), so those invocations would fail rather than measure.
VECTOR_VARIANTS = ("index", "fourier", "file")


@dataclass
class Invocation:
    """One CLI run: ``python -m torus_quant *argv`` writing to ``out``."""

    kind: str
    argv: list[str]
    out: Path
    expect: dict = field(default_factory=dict)


class _Files:
    """Writes numbered input files into one work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def _path(self, stem: str, suffix: str = "csv") -> Path:
        self.count += 1
        return self.workdir / f"{stem}{self.count}.{suffix}"

    def vector(self, values: np.ndarray) -> Path:
        """One sample per line: ``x`` for real values, ``re,im`` otherwise."""
        path = self._path("vec")
        if np.iscomplexobj(values):
            lines = [f"{z.real:.17g},{z.imag:.17g}" for z in values]
        else:
            lines = [f"{x:.17g}" for x in values]
        path.write_text("\n".join(lines) + "\n")
        return path

    def matrix(self, values: np.ndarray) -> Path:
        """Square complex matrix in the layout ``read_complex_matrix_csv`` reads."""
        path = self._path("mat")
        d = values.shape[0]
        header = ["l"] + [f"lp{j}_{part}" for j in range(d) for part in ("re", "im")]
        lines = [",".join(header)]
        for i, row in enumerate(values):
            cells = [str(i)] + [f"{x:.17g}" for z in row for x in (z.real, z.imag)]
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")
        return path

    def out(self, kind: str) -> Path:
        return self._path(f"out-{kind}-", "pgm" if kind.endswith("pgm") else "csv")


def _unit_state(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def _even_weight(rng: np.random.Generator, d: int) -> np.ndarray:
    """Real weight with w(0,0)=1 and w(-q)=w(q): self-adjoint at odd d."""
    dist = np.minimum(np.arange(d), d - np.arange(d)).astype(float)
    a, b = rng.uniform(d / 8, d / 2, size=2)
    return np.exp(-(dist[:, None] ** 2 / a + dist[None, :] ** 2 / b)).astype(complex)


def _periodic_signal(rng: np.random.Generator, d: int, period: int) -> np.ndarray:
    """Offset cosine plus a weak second harmonic; its envelope has period ``period``."""
    ls = np.arange(d)
    a = rng.uniform(0.3, 0.6)
    b = rng.uniform(0.0, 0.1) * a
    phase1, phase2 = rng.uniform(0, 2 * np.pi, size=2)
    return (2.0 + a * np.cos(2 * np.pi * ls / period + phase1)
            + b * np.cos(4 * np.pi * ls / period + phase2))


def _weight(rng, files: _Files, kind: str, d: int) -> str:
    if kind == "vm":
        return f"cs:von_mises:{rng.uniform(1, 6):.3f}"
    if kind == "gauss":
        return f"cs:gaussian:{rng.uniform(0.5, 2):.3f}"
    if kind == "parity":
        return "parity"
    return f"file:{files.matrix(_even_weight(rng, d))}"


def _symbol(rng, files: _Files, kind: str, d: int) -> tuple[str, np.ndarray]:
    """Selector text and the full d x d symbol f[m, n] it denotes."""
    if kind == "ones":
        return "ones", np.ones((d, d), dtype=complex)
    if kind == "delta":
        f = np.zeros((d, d), dtype=complex)
        f[0, 0] = d
        return "delta", f
    if kind == "file":
        f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return f"file:{files.matrix(f)}", f
    variant = VECTOR_VARIANTS[rng.integers(len(VECTOR_VARIANTS))]
    if variant == "index":
        vec = np.arange(d, dtype=complex)
    elif variant == "fourier":
        vec = np.exp(2j * np.pi * np.arange(d) / d)
    else:
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        variant = f"file:{files.vector(vec)}"
    if kind == "momentum":
        return f"momentum:{variant}", np.tile(vec[:, None], (1, d))
    return f"position:{variant}", np.tile(vec[None, :], (d, 1))


def _symbol_invocation(rng, files, command, d, weight_kind, symbol_kind):
    selector, f = _symbol(rng, files, symbol_kind, d)
    out = files.out(command)
    argv = [command, "--d", str(d), "--symbol", selector,
            "--weight", _weight(rng, files, weight_kind, d), "--out", str(out)]
    return Invocation(command, argv, out, {"f": f, "flat": symbol_kind == "ones"})


def _signal_invocation(rng, files, kind, d, period):
    signal = _periodic_signal(rng, d, period)
    out = files.out(kind)
    argv = ["gabor", "--in", str(files.vector(signal)), "--format", kind.split("-")[1],
            "--out", str(out)]
    return Invocation(kind, argv, out, {"signal": signal, "period": period})


def _state_invocation(rng, files, kind, d, fiducial=None):
    psi = _unit_state(rng, d)
    out = files.out(kind)
    argv = [kind, "--in", str(files.vector(psi))]
    if fiducial:
        argv += ["--fiducial", fiducial]
    argv += ["--out", str(out)]
    return Invocation(kind, argv, out, {"psi": psi})


def _small_fiducial(rng, files: _Files, d: int) -> str:
    kind = ("constant", "kronecker", "plane_wave", "gaussian", "dirichlet",
            "von_mises", "custom")[rng.integers(7)]
    if kind == "constant":
        return kind
    if kind in ("kronecker", "plane_wave"):
        return f"{kind}:{rng.integers(d)}"
    if kind == "gaussian":
        return f"gaussian:{rng.uniform(0.5, 2):.3f}"
    if kind == "dirichlet":
        return f"dirichlet:{rng.integers((d - 1) // 2 + 1)}"
    if kind == "von_mises":
        return f"von_mises:{rng.uniform(0.5, 20):.3f}"
    return f"custom:{files.vector(_unit_state(rng, d))}"


def operator_cycle(rng: np.random.Generator, files: _Files) -> list[Invocation]:
    """``quantize`` and ``portrait`` at d=95, each with a coherent-state and a plain weight.

    A coherent-state weight costs its O(d^4) construction and a plain one
    does not; which of each kind (cs:von_mises or cs:gaussian, parity or
    file:) and which symbol (ones, delta, file:, position:*, momentum:*)
    each invocation gets is seeded.
    """
    cycle = []
    for weight_kind in (rng.choice(["vm", "gauss"]), rng.choice(["parity", "file"])):
        for command in ("quantize", "portrait"):
            symbol_kind = rng.choice(["ones", "delta", "file", "position", "momentum"])
            cycle.append(_symbol_invocation(rng, files, command, OPERATOR_D, weight_kind,
                                            symbol_kind))
    return cycle


def signal_maps_cycle(rng: np.random.Generator, files: _Files) -> list[Invocation]:
    """``gabor`` (csv and pgm) at d=1020, ``husimi`` and ``wigner`` at d=1023."""
    concentration = rng.uniform(*HUSIMI_CONCENTRATIONS)
    return [
        _signal_invocation(rng, files, "gabor-csv", GABOR_D, int(rng.choice(GABOR_PERIODS))),
        _state_invocation(rng, files, "husimi", STATE_D, f"von_mises:{concentration:.3f}"),
        _signal_invocation(rng, files, "gabor-pgm", GABOR_D, int(rng.choice(GABOR_PERIODS))),
        _state_invocation(rng, files, "wigner", STATE_D),
    ]


def cli_small_cycle(rng: np.random.Generator, files: _Files) -> list[Invocation]:
    """All six subcommands at d <= 64, where start-up and import dominate."""
    cycle = [
        _signal_invocation(rng, files, "gabor-csv", DEMO_D, int(rng.choice(DEMO_PERIODS))),
        _state_invocation(rng, files, "wigner", int(rng.choice(np.arange(15, 64, 2)))),
    ]
    d = int(rng.integers(16, 65))
    cycle.append(_state_invocation(rng, files, "husimi", d, _small_fiducial(rng, files, d)))
    for command in ("quantize", "portrait"):
        weight_kind = ("vm", "gauss", "parity", "file")[rng.integers(4)]
        symbol_kind = ("ones", "delta", "file", "position", "momentum")[rng.integers(5)]
        cycle.append(_symbol_invocation(rng, files, command, int(rng.choice(np.arange(7, 32, 2))),
                                        weight_kind, symbol_kind))
    cycle.append(_signal_invocation(rng, files, "gabor-pgm", DEMO_D, int(rng.choice(DEMO_PERIODS))))
    d = int(rng.integers(8, 65))
    out = files.out("fiducials")
    cycle.append(Invocation("fiducials", ["fiducials", "--d", str(d), "--fiducial",
                                          _small_fiducial(rng, files, d), "--out", str(out)], out))
    return cycle


#: cycle generator and number of distinct cycles generated per workload
WORKLOADS = {
    "operator": (operator_cycle, 6),
    "signal_maps": (signal_maps_cycle, 3),
    "cli_small": (cli_small_cycle, 8),
}


def generate(workload: str, seed: int, workdir: Path) -> list[list[Invocation]]:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``; return its cycles."""
    workdir.mkdir(parents=True, exist_ok=True)
    make_cycle, count = WORKLOADS[workload]
    rng, files = np.random.default_rng(seed), _Files(workdir)
    return [make_cycle(rng, files) for _ in range(count)]
