"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed, one run after another, from the root of a
checkout::

    python3 perfbench/spread.py --workload sparse-negative --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/results/spread.json

and prints, for each workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound is marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {done.returncode}: {done.stderr[-300:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        sys.exit(f"{workload} seed {seed}: {line['failed']} of {line['attempted']} failed")
    return {name: m["value"] for name, m in line["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in names if args.workload == "all" else [args.workload]:
        runs = [one_run(workload, seed, args.seconds) for seed in seeds_from(args.seeds)]
        report[workload] = {name: summary([r[name] for r in runs]) for name in bounds}
        for name, s in report[workload].items():
            mark = "  > bound/3" if s["spread"] > bounds[name] / 3 else ""
            print(f"{workload:16s} {name:24s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.3f} "
                  f"bound {bounds[name]}{mark}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
