"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root, for example:

    python3 perfbench/steadiness.py --runs 10

Runs ``run.py`` once per seed and workload, one run at a time. Prints,
as JSON on stdout, each end-to-end metric's median, its quartiles
(``statistics.quantiles(values, n=4)``) and its spread, the quartile
distance as a share of the median, next to the bound fixed in
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", default=[],
                   help="repeatable; default: every workload in BENCHMARK.json")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    summary = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {name: {**summarize(v), "bound": bounds.get(name)} for name, v in values.items()}
        summary["workloads"][workload] = {"failed": failed, "metrics": rows}
        for name, row in rows.items():
            print(f"{workload:12s} {name:18s} median {row['median']:.6g} "
                  f"spread {row['spread']:.4f} bound {row['bound']}", file=sys.stderr)
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
