"""Check that the oracle accepts real reports and rejects corrupted ones.

    python3 benchmark/selftest.py [--seed N]

Runs one untraced pass of every workload, checks that each report passes,
then alters single fields (a boundary, a ratio, a verdict, a rank, a matrix
entry, ...) and checks that every altered report is counted as a failure.
Exits 1 if a clean report fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import run
import workloads


def _csv(row: int, column: str, change):
    def corrupt(text: str) -> str:
        lines = text.split("\n")
        head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        col = lines[head].split(",").index(column)
        cells = lines[head + 1 + row].split(",")
        cells[col] = change(cells[col])
        lines[head + 1 + row] = ",".join(cells)
        return "\n".join(lines)
    return corrupt


def _json(change):
    def corrupt(text: str) -> str:
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return corrupt


def _scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


def _bump_fraction(cell: str) -> str:
    num, den = cell.split("/")
    return f"{int(num) + 1}/{den}"


def _matrix_entry(text: str) -> str:
    lines = text.split("\n")
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    row = lines[first + 100].split()
    row[100] = "1234.5+0.0i"
    lines[first + 100] = " ".join(row)
    return "\n".join(lines)


CORRUPTIONS = {
    "halmos-1024": [("one wrong boundary", _json(
                        lambda d: d["boundaries"].__setitem__(2, d["boundaries"][2] + 1))),
                    ("k_norm altered", _json(
                        lambda d: d.__setitem__("k_norm", d["k_norm"] * 1.001)))],
    "weyl-growth": [("one altered ratio", _csv(1, "ratio", _bump_fraction)),
                    ("witness level altered", _csv(0, "n", lambda c: str(int(c) + 1)))],
    "weyl-growth-1/20": [("one altered ratio", _csv(2, "ratio", _bump_fraction))],
    "norms-composite-3000": [("ratio1 altered in one row", _csv(1500, "ratio1", _scale(1 + 1e-6))),
                             ("u altered in one row", _csv(2000, "u", _scale(1.01)))],
    "norms-shift-sqrt-20000": [("s2 altered in one row", _csv(12345, "s2", _scale(1 + 1e-6)))],
    "sparse-gaps": [("u altered in one row", _csv(150, "u", _scale(1.5)))],
    "sparse-squares": [("rank altered in one row", _csv(3, "rank", lambda c: str(int(c) + 1)))],
    "classify-hermite": [("verdict kind altered", _json(
        lambda d: d["verdicts"]["ratio1"].__setitem__("kind", "inconclusive")))],
    "szego-seeded": [("reference altered", _csv(5, "reference", _scale(1.01)))],
    "szego-cos-big": [("empirical altered", _csv(3, "empirical", _scale(1 + 1e-6)))],
    "berg-256": [("final rank altered", _json(lambda d: d.__setitem__("final_rank", 255)))],
    "berg-64": [("commutator norm altered", _json(
        lambda d: d["commutator_norms"].__setitem__(0, d["commutator_norms"][0] * 1.01)))],
    "weyl-represent-256": [("one matrix entry altered", _matrix_entry)],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    root = Path.cwd()
    reference = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    ok = True
    for name in workloads.WORKLOADS:
        work = root / ".bench_work" / f"{name}-selftest"
        cases = workloads.build(name, args.seed, work)
        plan = run.write_plan(work, name, cases, traced=False)
        res = run.run_pass(root, plan, run.worker_env(root), time.perf_counter() + run.DEADLINE_S)
        for case, out in zip(cases, res["results"]):
            # the same check a benchmark run applies to each case it counts
            clean = run.case_problems(case, out, {}, reference)
            print(f"{case.id:24s} clean report: {'pass' if not clean else clean[:2]}")
            ok &= not clean
            for label, corrupt in CORRUPTIONS.get(case.id, ()):
                bad = dict(out, report=corrupt(out["report"]))
                found = bad["report"] != out["report"] and run.case_problems(
                    case, bad, {}, reference)
                print(f"{case.id:24s} {label}: {'caught: ' + found[0] if found else 'MISSED'}")
                ok &= bool(found)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
