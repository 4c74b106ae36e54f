"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 benchmark/steady.py --seconds S [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--out FILE]

Runs `run.py` once per (seed, workload), alternating workloads between runs
so a slow period of the machine does not land on one workload.  For every
end-to-end metric it prints the median over the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median.  Compare each spread with the metric's bound in
BENCHMARK.json.  Raw results go to FILE (default
.bench_work/steady.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    ap.add_argument("--out", default=".bench_work/steady.json")
    args = ap.parse_args()

    names = args.workload or list(workloads.WORKLOADS)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict[str, list[dict]] = {n: [] for n in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = names[i % len(names):] + names[:i % len(names)]
        for name in order:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=200)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            res = json.loads(last) if proc.returncode == 0 else {"correct": False}
            res["seed"] = seed
            results[name].append(res)
            vals = {k: round(v["value"], 4) for k, v in res.get("metrics", {}).items()}
            print(f"run {i + 1} {name} seed={seed} correct={res.get('correct')} {vals}",
                  flush=True)

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    ok = True
    for name in names:
        runs = [r for r in results[name] if r.get("correct")]
        if len(runs) < len(results[name]):
            ok = False
            print(f"{name}: {len(results[name]) - len(runs)} runs not correct")
        if len(runs) < 2:
            continue
        for metric, bound in bounds.items():
            med, rel = spread([r["metrics"][metric]["value"] for r in runs])
            flag = "ok" if rel <= bound else "TOO WIDE"
            print(f"{name:20s} {metric:14s} median {med:10.4f}  spread {rel:6.3f}"
                  f"  bound {bound}  {flag}  (third of bound: {rel <= bound / 3})")
            ok &= metric == "setup_s" or rel <= bound
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
