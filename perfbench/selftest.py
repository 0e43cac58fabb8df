"""Tests of the benchmark itself: the verifier, ``traced_cli.py`` and ``compare.py``.

Run from the checkout root:  python3 -m pytest -q perfbench/selftest.py

- The verifier must pass real results and count as failed a result with
  one flipped sign, a wrong ``period_estimate`` line, a NaN entry or a
  nonzero exit code.
- For one invocation of each kind in the three workloads, for every
  weight and symbol kind of ``quantize`` and ``portrait``, and for an
  input error, ``traced_cli.py`` must write byte-identical output and
  stderr, and return the same exit code, as ``python -m torus_quant``;
  the per-layer numbers then describe the program the untraced run
  measures.
- ``compare.py`` refuses records from different environments.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _passing(inv: workloads.Invocation) -> run.Sample:
    sample = run.spawn(run.cli_argv(inv))
    assert verify.problem(inv, sample.returncode, sample.stderr) is None
    return sample


def _rewrite_largest(path: Path, edit) -> None:
    """Apply ``edit`` to the data cell of largest magnitude in a CSV output."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    cells = [(abs(float(cell)), i, j) for i, row in enumerate(rows[1:], start=1)
             for j, cell in enumerate(row[1:], start=1)]
    _, i, j = max(cells)
    rows[i][j] = edit(rows[i][j])
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")


def _flip_sign(cell: str) -> str:
    return cell[1:] if cell.startswith("-") else "-" + cell


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One passing result per subcommand, with CSV output where there is one."""
    rng = np.random.default_rng(7)
    files = workloads._Files(tmp_path_factory.mktemp("verifier"))
    invocations = [
        workloads._symbol_invocation(rng, files, "quantize", 7, "parity", "ones"),
        workloads._symbol_invocation(rng, files, "portrait", 9, "vm", "ones"),
        workloads._signal_invocation(rng, files, "gabor-csv", 60, 10),
        workloads._state_invocation(rng, files, "husimi", 16, "constant"),
        workloads._state_invocation(rng, files, "wigner", 15),
    ]
    return [(inv, _passing(inv)) for inv in invocations]


def test_verifier_counts_a_flipped_sign(results):
    for inv, sample in results:
        original = inv.out.read_text()
        _rewrite_largest(inv.out, _flip_sign)
        assert verify.problem(inv, sample.returncode, sample.stderr), inv.kind
        inv.out.write_text(original)


def test_verifier_counts_a_nan_entry(results):
    for inv, sample in results:
        original = inv.out.read_text()
        _rewrite_largest(inv.out, lambda cell: "nan")
        assert verify.problem(inv, sample.returncode, sample.stderr), inv.kind
        inv.out.write_text(original)


def test_verifier_counts_a_wrong_period(results):
    inv, sample = next(r for r in results if r[0].kind == "gabor-csv")
    period = inv.expect["period"]
    wrong = sample.stderr.replace(f"period_estimate {period}", f"period_estimate {2 * period}")
    assert wrong != sample.stderr
    assert verify.problem(inv, sample.returncode, wrong)


def test_verifier_counts_a_nonzero_exit(results):
    for inv, sample in results:
        assert verify.problem(inv, 4, sample.stderr), inv.kind


def _one_of_each_kind(tmp_path: Path) -> list[workloads.Invocation]:
    chosen = {}
    for name in workloads.WORKLOADS:
        for inv in workloads.generate(name, 0, tmp_path / name)[0]:
            chosen.setdefault((name, inv.kind), inv)
    return list(chosen.values())


def _outcome(argv: list[str], inv: workloads.Invocation):
    inv.out.unlink(missing_ok=True)
    sample = run.spawn(argv)
    return sample.returncode, sample.stderr, inv.out.read_bytes() if inv.out.exists() else None


def _every_weight_and_symbol(tmp_path: Path) -> list[workloads.Invocation]:
    """Small ``quantize``/``portrait`` runs covering each weight and symbol kind."""
    rng = np.random.default_rng(3)
    files = workloads._Files(tmp_path / "kinds")
    files.workdir.mkdir()
    weights = ("vm", "gauss", "parity", "file")
    symbols = ("ones", "delta", "file", "position", "momentum")
    return [workloads._symbol_invocation(rng, files, command, 9, weights[i % 4], symbol)
            for command in ("quantize", "portrait") for i, symbol in enumerate(symbols)]


def test_traced_cli_mirrors_the_cli(tmp_path):
    invocations = _one_of_each_kind(tmp_path) + _every_weight_and_symbol(tmp_path)
    missing = tmp_path / "missing.csv"
    invocations.append(workloads.Invocation(
        "quantize", ["quantize", "--d", "7", "--symbol", "ones", "--weight", f"file:{missing}",
                     "--out", str(tmp_path / "never.csv")], tmp_path / "never.csv"))
    for index, inv in enumerate(invocations):
        plain = _outcome(run.cli_argv(inv), inv)
        spans = tmp_path / f"spans{index}.json"
        traced = _outcome(run.traced_argv(inv, spans, str(index)), inv)
        assert traced == plain, inv.argv
        assert spans.is_file()
    assert plain[0] == 2  # the missing weight file is an input error


def test_compare_refuses_other_environments(tmp_path):
    import compare

    def record(name, **env):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"env": env, "results": {}}))
        return str(path)

    base = record("base", numpy="2.4.6", seed=1, commit="a", seconds=30)
    same = record("same", numpy="2.4.6", seed=2, commit="b", seconds=30)
    other = record("other", numpy="2.3.0", seed=1, commit="a")
    longer = record("longer", numpy="2.4.6", seed=1, commit="a", seconds=60)
    assert compare.main(["--base", base, "--change", same]) == 0
    assert compare.main(["--base", base, "--change", other]) == 2
    assert compare.main(["--base", base, "--change", longer]) == 2
