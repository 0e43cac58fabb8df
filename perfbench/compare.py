"""Compare benchmark records of a base and a changed commit.

Usage (from the checkout root):

    python3 perfbench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...

Each file is a record written by ``run.py --record``.  The comparison is
refused (exit 2) unless every record was measured in the same
environment: CPU, CPU count, Python, numpy, scipy, BLAS, thread
settings, run length and tracing must all agree; only the seed and the
commit may differ.  For each workload and metric it prints the median and quartiles
of both sides and the change's relative difference; for an end-to-end
metric it marks a change worse than the bound in ``BENCHMARK.json`` as a
regression (exit 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

VARYING = ("seed", "commit")


def comparable_env(env: dict) -> dict:
    return {key: value for key, value in env.items() if key not in VARYING}


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text()) for path in paths]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    envs = {json.dumps(comparable_env(r["env"]), sort_keys=True) for r in base + change}
    if len(envs) > 1:
        print("refused: the records come from different environments:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    regressed = False
    workload_names = sorted({w for r in base + change for w in r["results"]})
    for workload in workload_names:
        for name, metric in {**end_to_end, **per_layer}.items():
            sides = [[r["results"][workload]["metrics"][name]["value"] for r in side
                      if workload in r["results"] and name in r["results"][workload]["metrics"]]
                     for side in (base, change)]
            if not all(sides):
                continue
            (b1, b2, b3), (c1, c2, c3) = quartiles(sides[0]), quartiles(sides[1])
            delta = (c2 - b2) / b2 if b2 else float("inf")
            verdict = ""
            if name in end_to_end:
                worse = delta if metric["better"] == "lower" else -delta
                if worse > metric["bound"]:
                    verdict, regressed = "REGRESSED", True
            print(f"{workload:12s} {name:32s} base {b2:.5g} [{b1:.5g}, {b3:.5g}]  "
                  f"change {c2:.5g} [{c1:.5g}, {c3:.5g}]  {delta:+.2%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
