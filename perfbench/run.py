"""Benchmark of the torus-quant command-line program.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload operator|signal_maps|cli_small|all \
        --seed N [--seconds S] [--trace 0|1] [--record PATH]

Each workload is run by one closed-loop client: one
``python -m torus_quant ...`` process at a time, with ``src`` on
``PYTHONPATH``, the next one spawned when the previous one has exited.
The inputs are generated from ``--seed`` before timing starts (see
``workloads.py``); every invocation is verified outside the timed region
(see ``verify.py``).  The run measures whole cycles of the workload's
invocation classes (see ``workloads.py``), so every run has the same mix,
and ends after the first cycle that brings the summed wall time of its
invocations to ``--seconds``, by default ``run_seconds`` of
``BENCHMARK.json``.  The run length is part of the recorded environment.

Untraced (``--trace 0``) it reports, per workload:

- ``setup_s``: median over five set-ups of generating the inputs and
  running the warm-up invocation (``--version``, which imports every
  module a subcommand needs and leaves their bytecode compiled);
- ``invocations_per_s``: verified invocations per second of invocation
  wall time;
- ``latency_p50_s`` and ``latency_tail_s``: median and nearest-rank 80th
  percentile of per-invocation wall time, spawn to exit, so interpreter
  start and import are included as a CLI user pays them;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any invocation.

The failed ratio (invocations that exited nonzero or failed verification,
over those attempted) is printed, and carried as ``failed``/``attempted``
in the result line.

Traced (``--trace 1``) it runs every invocation twice, plainly and
through ``traced_cli.py``, which times the calls into each layer from
outside the package, and reports per layer ``<layer>.calls``,
``<layer>.self_s`` (span time minus child spans) and ``<layer>.share``
(self time over traced wall time), plus ``io_formats.format.bytes``,
``check_to_route_ratio`` and ``trace.overhead_ratio`` (traced over plain
wall time of the same invocations).

Which layer should move which metric:

- quantize.check, quantize.weight, distributions.route and
  distributions.check move latency_p50_s, latency_tail_s and
  invocations_per_s on operator; no change predicted on signal_maps.
- gabor.route, gabor.check, io_formats.format and the Wigner part of
  distributions.route move the same three, and peak_rss_mb, on
  signal_maps; no change predicted on operator.
- cli.import moves latency_p50_s on cli_small (~85% of an invocation);
  elsewhere it is a fixed cost of each invocation.
- io_formats.read moves operator (its file: inputs) and cli_small.

Every result carries the environment it was measured in; ``compare.py``
refuses to compare results whose environments differ.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any invocation
failed verification and 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: the run length the benchmark is defined with
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_REPEATS = 5
TAIL_PERCENTILE = 80
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

LAYERS = (
    "cli.import", "io_formats.read", "fiducials", "quantize.weight", "quantize.route",
    "quantize.check", "distributions.route", "distributions.check", "gabor.route",
    "gabor.check", "signals", "io_formats.format",
)


@dataclass
class Sample:
    """One finished process: wall time spawn to exit, peak RSS, exit code, stderr."""

    wall: float
    rss_mb: float
    returncode: int
    stderr: str


def spawn(argv: list[str]) -> Sample:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Sample(wall, usage.ru_maxrss / 1024, proc.returncode, stderr.decode(errors="replace"))


def cli_argv(inv: workloads.Invocation) -> list[str]:
    return [sys.executable, "-m", "torus_quant", *inv.argv]


def traced_argv(inv: workloads.Invocation, spans: Path, invocation_id: str) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans), invocation_id, *inv.argv]


def set_up(name: str, seed: int, workdir: Path) -> tuple[list[list[workloads.Invocation]], float]:
    """Generate the inputs and warm up, SETUP_REPEATS times; return the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        cycles = workloads.generate(name, seed, workdir)
        warm = spawn([sys.executable, "-m", "torus_quant", "--version"])
        times.append(time.perf_counter() - start)
        if warm.returncode:
            raise RuntimeError(f"warm-up invocation failed: {warm.stderr.strip()}")
    return cycles, statistics.median(times)


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1]


def run_once(inv: workloads.Invocation, argv: list[str], problems: list[str]) -> Sample:
    """Spawn one invocation, then verify it; a failure is appended to ``problems``."""
    inv.out.unlink(missing_ok=True)
    sample = spawn(argv)
    problem = verify.problem(inv, sample.returncode, sample.stderr)
    if problem:
        problems.append(problem)
    return sample


def untraced(cycles, seconds: float, setup_s: float, problems: list[str]) -> dict:
    samples: list[Sample] = []
    clock = 0.0
    for cycle in itertools.cycle(cycles):
        for inv in cycle:
            samples.append(run_once(inv, cli_argv(inv), problems))
            clock += samples[-1].wall
        if clock >= seconds:
            break
    walls = [s.wall for s in samples]
    return {
        "attempted": len(samples),
        "metrics": {
            "setup_s": (setup_s, "s"),
            "invocations_per_s": ((len(samples) - len(problems)) / clock, "1/s"),
            "latency_p50_s": (statistics.median(walls), "s"),
            "latency_tail_s": (nearest_rank(walls, TAIL_PERCENTILE), "s"),
            "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
        },
    }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - child[i] for i, span in enumerate(spans)]


def traced(cycles, seconds: float, workdir: Path, problems: list[str]) -> dict:
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    written = 0
    plain_wall = traced_wall = 0.0
    attempted = 0
    for cycle in itertools.cycle(cycles):
        for inv in cycle:
            plain_wall += run_once(inv, cli_argv(inv), problems).wall
            spans_path = workdir / f"spans{attempted}.json"
            traced_wall += run_once(inv, traced_argv(inv, spans_path, str(attempted)), problems).wall
            attempted += 2
            spans = json.loads(spans_path.read_text())
            for span, own in zip(spans, self_times(spans)):
                calls[span["name"]] += 1
                busy[span["name"]] += own
                written += span.get("bytes", 0)
        if plain_wall + traced_wall >= seconds:
            break
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (busy[layer], "s")
        metrics[f"{layer}.share"] = (busy[layer] / traced_wall, "ratio")
    check = sum(v for k, v in busy.items() if k.endswith(".check"))
    route = sum(v for k, v in busy.items() if k.endswith(".route"))
    metrics["io_formats.format.bytes"] = (written, "bytes")
    metrics["check_to_route_ratio"] = (check / route, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return {"attempted": attempted, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-{os.getpid()}"
    problems: list[str] = []
    try:
        cycles, setup_s = set_up(name, seed, workdir)
        if trace:
            outcome = traced(cycles, seconds, workdir, problems)
        else:
            outcome = untraced(cycles, seconds, setup_s, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
        "problems": problems,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment(seed: int, seconds: float, trace: bool) -> dict:
    """What a result depends on besides the code: machine, software, settings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
    }


def report(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.4f}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"[{name}] {metric} {shown} {entry['unit']}")
    for problem in result["problems"]:
        print(f"[{name}] FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the full result, with "
                        "its environment, as JSON to this path (for compare.py)")
    args = parser.parse_args(argv)
    if not (SRC / "torus_quant" / "__init__.py").is_file():
        print(f"perfbench: no torus_quant sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    env = environment(args.seed, args.seconds, trace)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, trace)
        report(name, results[name])
    print("env " + json.dumps(env, sort_keys=True))
    if args.record:
        args.record.write_text(json.dumps({"env": env, "results": results}, indent=1) + "\n")
    if len(names) == 1:
        summary = {key: results[names[0]][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
