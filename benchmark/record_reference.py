"""Record benchmark/reference.json from the current checkout.

    python3 benchmark/record_reference.py

Runs one untraced pass of every workload (seed 0) and stores a fingerprint
of each seed-independent report.  The reference pins the reports of the
commit it was recorded at; re-record it only when a report is meant to
change, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import oracle
import run
import workloads


def main() -> int:
    root = Path.cwd()
    reference = {}
    for name in workloads.WORKLOADS:
        work = root / ".bench_work" / f"{name}-reference"
        cases = workloads.build(name, 0, work)
        plan = run.write_plan(work, name, cases, traced=False)
        res = run.run_pass(root, plan, run.worker_env(root), time.perf_counter() + run.DEADLINE_S)
        for case, out in zip(cases, res["results"]):
            if out["rc"] != 0 or out["error"]:
                print(f"{case.id}: failed ({out['error'] or out['stderr']})", file=sys.stderr)
                return 1
            if case.ref is not None:
                cols = oracle.canonical(oracle.parse(out["report"]))
                reference[case.ref] = oracle.fingerprint(cols)
            problems = oracle.check(list(case.argv), case.check, out["report"], None)
            if problems:
                print(f"{case.id}: invariant fails: {problems[:3]}", file=sys.stderr)
                return 1
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} case references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
