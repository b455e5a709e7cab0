"""Measure a trajectory point: ten runs per workload, quartiles per metric.

    python3 perfbench/trajectory.py [--runs 10] [--first-seed 1] [--append]

Runs ``run.py`` once per seed and workload with the settings of
BENCHMARK.json, one run at a time, and prints for each workload and
end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (quartile distance over the median).  With
``--append`` the point is added to ``trajectory.json`` next to this file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"claim": None, "runs": args.runs,
             "seeds": [args.first_seed, args.first_seed + args.runs - 1],
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in spec["workloads"]:
        results, env = [], None
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [*spec["command"], "--workload", wl["name"], "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout
            lines = out.splitlines()
            env = env or json.loads(lines[1].split(": ", 1)[1])
            results.append(json.loads(lines[-1]))
            print(f"{wl['name']} seed {seed}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}),
                file=sys.stderr, flush=True)
        row = {"failed_ops": sum(r["failed"] for r in results),
               "attempted_ops": sum(r["attempted"] for r in results)}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            row[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"]}
        point["workloads"][wl["name"]] = row
        point.setdefault("env", {k: env[k] for k in (
            "commit", "source_digest", "python", "numpy", "networkx", "mpmath",
            "mpmath_backend", "nproc")})
    print(json.dumps(point, indent=2))
    if args.append:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(points + [point], indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
