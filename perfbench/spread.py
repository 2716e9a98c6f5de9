"""Run the benchmark once per seed and report how much each metric spreads.

    python3 perfbench/spread.py --workload desk-sweep --seeds 1-10
    python3 perfbench/spread.py --workload digits-classifier --out perfbench/baseline.json

Runs are made one after another, each in its own process.  For every
end-to-end metric the report gives the median over the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, the figure that BENCHMARK.json's bounds are set
against.  With ``--out`` the summary is merged into a JSON file under the
workload's name, together with the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None, help="JSON file to merge the summary into")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    environment = None
    failures = 0
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failures += result["failed"]
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        if environment is None:
            line = next(line for line in done.stdout.splitlines()
                        if line.startswith("environment "))
            environment = json.loads(line.split(" ", 1)[1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "values": series}
        print(f"  {name:<20} median={median:<12.6g} spread={(q3 - q1) / median:.3f}")
    print(f"  failed operations over all runs: {failures}")
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged[args.workload] = {"seconds": seconds, "seeds": parse_seeds(args.seeds),
                                 "environment": environment, "metrics": summary}
        path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
