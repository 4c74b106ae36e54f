"""foelner benchmark: time to a checked report, end to end and per layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding `src/foelner` and
`specs/`).  NAME is one of dense-windows, sparse-commutators, weyl-exact, or
`all`, which runs the three in turn and prints every metric of each.

A pass runs the workload's fixed, ordered case list once, back to back:
a closed loop with one client.  Each pass runs in its own fresh worker
process, one worker at a time, so per-process memos start cold as they do
for a CLI user.  Passes repeat until the next one would end after S seconds
(at least one runs).  Every report is checked by `oracle.py`; a case fails
on an exception, a nonzero exit or a report that fails its oracle, and a
failed case does not stop the pass.

--trace 0 prints the end-to-end metrics: solve_s (median pass time, set-up
excluded), solve_s_tail (highest pass-time percentile with at least ten
passes beyond it, or the maximum when a run has ten passes or fewer),
setup_s (spawn until `foelner.cli` is imported and the schema loaded,
median over the passes) and peak_rss_mb (worker ru_maxrss, median).  The
three times are wall times scaled by the machine's speed, measured with a
fixed calibration block next to each case and each spawn (`calibrate.py`),
so a host that drifts between runs does not move them; the unscaled
medians are printed beside them.
failed_share is printed beside them and is `failed / attempted` in the
result line.  --trace 1 alternates untraced and traced passes and prints
the per-layer metrics, read from spans recorded by `tracing.py`.

Workers run with BLAS and OpenMP pinned to one thread.  The last line of
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import oracle
import workloads

HERE = Path(__file__).resolve().parent
THREADS = "1"
DEADLINE_S = 170.0      # whole run, so the benchmark always exits within 180 s


class PassFailed(Exception):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # byte-compile once, as an install does
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    return env


def write_plan(work: Path, workload: str, cases: list[workloads.Case], traced: bool) -> Path:
    """The pass file a worker reads: its cases, calibration kinds, and where traced spans go."""
    plan = work / f"pass-{'traced' if traced else 'untraced'}.json"
    plan.write_text(json.dumps({
        "cases": [[c.id, list(c.argv)] for c in cases], "trace": traced,
        "calibration": workloads.CALIBRATION[workload],
        "spans_out": str(work / "spans.jsonl") if traced else None}))
    return plan


def _read_until(fd: int, chunks: list[bytes], deadline: float, line_only: bool) -> None:
    """Read from fd into chunks until a newline (line_only) or end of file."""
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            raise PassFailed("worker ran past the run deadline")
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        chunks.append(chunk)
        if line_only and b"\n" in chunk:
            return


def run_pass(root: Path, plan_file: Path, env: dict, deadline: float) -> dict:
    """Spawn one worker, time its set-up, and return its pass result.

    Set-up is scaled by the mean of an `interp` calibration block run here
    just before the spawn and one the worker runs just after it is ready.
    """
    pre_cal = calibrate.interp_s()
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_file)],
                            cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    try:
        fd = proc.stdout.fileno()
        chunks: list[bytes] = []
        _read_until(fd, chunks, deadline, line_only=True)
        setup_s = time.perf_counter() - t_spawn
        if not b"".join(chunks).startswith(b"ready\n"):
            raise PassFailed("worker did not become ready")
        _read_until(fd, chunks, deadline, line_only=False)
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise PassFailed(f"worker exited with {proc.returncode}")
        result = json.loads(b"".join(chunks).decode().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        raise PassFailed(f"worker failed: {exc}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    result["setup_s"] = setup_s
    result["setup_scaled_s"] = (setup_s * calibrate.REFERENCE["interp"]
                                / ((pre_cal + result["setup_cal"]) / 2))
    result["wall_s"] = time.perf_counter() - t_spawn
    return result


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (percentile, value).

    With ten samples or fewer no percentile qualifies; the maximum is given.
    """
    xs = sorted(values)
    if len(xs) <= 10:
        return 100.0, xs[-1]
    k = len(xs) - 11          # ten samples lie above xs[k]
    return 100.0 * (k + 1) / len(xs), xs[k]


def _env_record() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"blas_threads": int(THREADS), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": model,
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes
# ---------------------------------------------------------------------------

# (metric, unit, span name or names, field): field is "s", "self_s", "calls" or
# "counters.<key>", summed over the pass
LAYER_SUMS = (
    ("cli.load_spec_file.s", "s", "cli.load_spec_file", "s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("ops.compress.s", "s", "ops.compress", "s"),
    ("ops.compress.cells", "count", "ops.compress", "counters.cells"),
    ("ops.commutator_triplets.s", "s", "ops.commutator_triplets", "s"),
    ("ops.commutator_triplets.calls", "count", "ops.commutator_triplets", "calls"),
    ("ops.commutator_triplets.nnz", "count", "ops.commutator_triplets", "counters.nnz"),
    ("norms.report.self_s", "s", "norms.report", "self_s"),
    ("norms.report.calls", "count", "norms.report", "calls"),
    ("norms.u_norm.s", "s", "norms.u_norm", "s"),
    ("norms.u_norm.calls", "count", "norms.u_norm", "calls"),
    ("norms.seminorm.s", "s", "norms.seminorm", "s"),
    ("decomp.select_subsequence.self_s", "s", "decomp.select_subsequence", "self_s"),
    ("decomp.halmos_decompose.self_s", "s", "decomp.halmos_decompose", "self_s"),
    # the per-window step is its own span (for the exponent) but is szego work
    ("szego.szego_compare.self_s", "s", ("szego.szego_compare", "szego._trace_moments"),
     "self_s"),
    ("berg.berg_sequence.s", "s", "berg.berg_sequence", "s"),
    ("berg.berg_sequence.steps", "count", "berg.berg_sequence", "counters.steps"),
    ("weyl.multiply.s", "s", "weyl.multiply", "s"),
    ("weyl.multiply.calls", "count", "weyl.multiply", "calls"),
    ("weyl.MonomialSubspace.dimension.s", "s", "weyl.MonomialSubspace.dimension", "s"),
    ("weyl.MonomialSubspace.dimension.rows", "count", "weyl.MonomialSubspace.dimension",
     "counters.rows"),
    ("weyl.foelner_ratio.self_s", "s", "weyl.foelner_ratio", "self_s"),
    ("weyl.foelner_ratio.calls", "count", "weyl.foelner_ratio", "calls"),
    ("weyl.represent.s", "s", "weyl.represent", "s"),
)
LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_SUMS}
LAYER_UNITS.update({
    "cli.report_bytes": "bytes", "norms.seminorm.max_dim": "count",
    "decomp.select_subsequence.useful_ratio": "ratio", "decomp.halmos_decompose.fill": "ratio",
    "ops.compress.exponent": "1", "ops.commutator_triplets.exponent": "1",
    "decomp.halmos_decompose.exponent": "1", "szego.szego_compare.exponent": "1",
    "berg.berg_sequence.exponent": "1", "weyl.amenability_witness.exponent": "1",
    "trace.overhead": "ratio",
})


def _field(agg: dict, field: str) -> float:
    if field.startswith("counters."):
        return agg["counters"].get(field.split(".", 1)[1], 0)
    return agg[field]


def layer_metrics(workload: str, summary: dict, report_bytes: int) -> dict:
    """Per-layer numbers of one traced pass; a bypassed layer reads zero."""
    by_name: dict[str, list[dict]] = {}
    for key, agg in summary["spans"].items():
        by_name.setdefault(key.split("\t", 1)[1], []).append(agg)

    def total(spans: str | tuple[str, ...], field: str) -> float:
        spans = (spans,) if isinstance(spans, str) else spans
        return sum(_field(a, field) for span in spans for a in by_name.get(span, []))

    out = {name: total(span, field) for name, _, span, field in LAYER_SUMS}
    out["cli.report_bytes"] = report_bytes
    out["norms.seminorm.max_dim"] = max(
        (_field(a, "counters.dim") for a in by_name.get("norms.seminorm", [])), default=0)
    u_calls = total("norms.u_norm", "calls")
    out["decomp.select_subsequence.useful_ratio"] = (
        total("decomp.select_subsequence", "counters.found") / u_calls if u_calls else 0.0)
    cells = total("decomp.halmos_decompose", "counters.cells")
    out["decomp.halmos_decompose.fill"] = (
        total("decomp.halmos_decompose", "counters.nnz") / cells if cells else 0.0)

    for name in LAYER_UNITS:
        if name.endswith(".exponent"):
            out[name] = 0.0
    for exp in workloads.EXPONENTS.get(workload, ()):
        times = []
        for case, size in (exp.small, exp.big):
            if exp.per_size:
                times.append(summary["sized"].get(f"{case}\t{exp.span}\t{size}", 0.0))
            else:
                agg = summary["spans"].get(f"{case}\t{exp.span}")
                times.append(agg["s"] if agg else 0.0)
        if min(times) > 0:
            out[exp.metric] = math.log(times[1] / times[0]) / math.log(exp.big[1] / exp.small[1])
    return out


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    work = root / ".bench_work" / f"{workload}-seed{seed}"
    cases = workloads.build(workload, seed, work)
    reference = json.loads((HERE / "reference.json").read_text())
    env = worker_env(root)
    plans = {traced: write_plan(work, workload, cases, traced)
             for traced in ((False, True) if trace else (False,))}

    passes: list[dict] = []
    attempted = failed = 0
    accepted: dict[str, str] = {}        # case id -> first report that passed
    problems: list[str] = []
    t_begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        try:
            res = run_pass(root, plans[traced], env, deadline)
        except PassFailed as exc:
            attempted += len(cases)
            failed += len(cases)
            problems.append(f"pass {len(passes) + 1}: {exc}")
            break
        res["traced"] = traced
        res["solve_scaled_s"] = calibrate.scaled(
            res["case_s"], res["cal"], calibrate.reference(workloads.CALIBRATION[workload]))
        passes.append(res)
        for case, out in zip(cases, res["results"]):
            attempted += 1
            why = case_problems(case, out, accepted, reference)
            if why:
                failed += 1
                problems.append(f"pass {len(passes)} {case.id}: {why[0]}"
                                + (f" (+{len(why) - 1} more)" if len(why) > 1 else ""))
        elapsed = time.perf_counter() - t_begin
        next_wall = statistics.mean(p["wall_s"] for p in passes)
        have_all = any(not p["traced"] for p in passes) and (
            not trace or any(p["traced"] for p in passes))
        if have_all and (elapsed + next_wall > seconds
                         or time.perf_counter() + 2 * next_wall > deadline):
            break

    (work / "passes.json").write_text(json.dumps(
        [{k: v for k, v in p.items() if k not in ("results", "trace")} for p in passes]))
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if plain and not trace:
        solve = [p["solve_scaled_s"] for p in plain]
        pct, tail_s = tail(solve)
        metrics["solve_s"] = (statistics.median(solve), "s")
        metrics["solve_s_tail"] = (tail_s, "s")
        metrics["setup_s"] = (statistics.median(p["setup_scaled_s"] for p in plain), "s")
        metrics["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in plain), "MB")
        raw_solve = statistics.median(p["solve_s"] for p in plain)
        raw_setup = statistics.median(p["setup_s"] for p in plain)
        notes["solve_s"] = f"median of {len(solve)} passes, scaled; unscaled {raw_solve:.4g} s"
        notes["solve_s_tail"] = f"p{pct:.0f} of {len(solve)} passes, scaled"
        notes["setup_s"] = (f"median of {len(plain)} worker spawns, scaled;"
                            f" unscaled {raw_setup:.4g} s")
        notes["peak_rss_mb"] = f"median of {len(plain)} workers"
    if trace and plain and traced_passes:
        report_bytes = sum(len(c.get("report", "").encode()) for c in traced_passes[0]["results"])
        per_pass = [layer_metrics(workload, p["trace"], report_bytes) for p in traced_passes]
        for name, unit in LAYER_UNITS.items():
            if name == "trace.overhead":
                continue
            vals = [m[name] for m in per_pass]
            if unit in ("count", "bytes"):
                if len(set(vals)) != 1:
                    problems.append(f"{name}: count differs between traced passes: {vals}")
                metrics[name] = (vals[0], unit)
            else:
                metrics[name] = (statistics.median(vals), unit)
        overhead = (statistics.median(p["solve_scaled_s"] for p in traced_passes)
                    / statistics.median(p["solve_scaled_s"] for p in plain) - 1)
        metrics["trace.overhead"] = (overhead, "ratio")
        notes["trace.overhead"] = (f"{len(traced_passes)} traced vs {len(plain)} untraced passes")
    failed_share = failed / attempted if attempted else 1.0
    return {"workload": workload, "seed": seed, "passes": passes, "metrics": metrics,
            "case_ids": [c.id for c in cases],
            "notes": notes, "attempted": attempted, "failed": failed,
            "failed_share": failed_share, "problems": problems,
            "correct": attempted > 0 and failed == 0 and not problems and bool(metrics)}


def case_problems(case: workloads.Case, out: dict, accepted: dict,
                  reference: dict) -> list[str]:
    """Why one case of a pass failed (empty if it passed).

    `accepted` maps case ids to the first report of the run that passed its
    oracle; later passes must reproduce those bytes exactly.
    """
    if out["error"] is not None:
        return [out["error"]]
    if out["rc"] != 0:
        return [f"exit code {out['rc']}: {out['stderr'].strip()[:200]}"]
    report = out["report"]
    if case.id in accepted:
        # every pass, traced or not, must give the same bytes
        return [] if report == accepted[case.id] else ["report differs from the first pass"]
    if case.ref is not None and case.ref not in reference:
        return [f"no reference recorded for {case.ref}"]
    why = oracle.check(list(case.argv), case.check, report,
                       reference.get(case.ref) if case.ref else None)
    if not why:
        accepted[case.id] = report
    return why


def _print_run(run: dict) -> None:
    env = dict(_env_record(), **run["passes"][0]["env"]) if run["passes"] else _env_record()
    print(f"# {run['workload']} seed={run['seed']} env {json.dumps(env, sort_keys=True)}")
    for i, p in enumerate(run["passes"], 1):
        print(f"# pass {i} {'traced' if p['traced'] else 'untraced'}: solve {p['solve_s']:.3f} s"
              f" (scaled {p['solve_scaled_s']:.3f} s), setup {p['setup_s']:.3f} s"
              f" (scaled {p['setup_scaled_s']:.3f} s), rss {p['peak_rss_mb']:.1f} MB")
    plain = [p for p in run["passes"] if not p["traced"]]
    for i, cid in enumerate(run["case_ids"]):
        if plain:
            print(f"# case {cid}: median {statistics.median(p['case_s'][i] for p in plain):.4f} s")
    for line in run["problems"][:20]:
        print(f"# FAIL {line}")
    for name, (value, unit) in run["metrics"].items():
        note = run["notes"].get(name, "")
        print(f"{run['workload']} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"{run['workload']} failed_share = {run['failed_share']:.6g} "
          f"({run['failed']} of {run['attempted']} cases)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "foelner" / "cli.py").is_file() or not (root / "specs").is_dir():
        print(f"error: {root} is not a foelner checkout (no src/foelner or specs/)",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for i, name in enumerate(names):
        # `all` shares the one deadline between its workloads
        share = deadline - (len(names) - i - 1) * DEADLINE_S / len(names)
        seconds = args.seconds if len(names) == 1 else args.seconds / len(names)
        run = measure(root, name, args.seed, seconds, bool(args.trace), share)
        _print_run(run)
        runs.append(run)

    prefix = len(runs) > 1
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": u}
                    for r in runs for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
