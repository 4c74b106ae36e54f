"""One pass of a workload in a fresh process: `python3 worker.py PASS_FILE`.

The worker imports `foelner.cli` and loads the spec schema, which is what a
CLI user pays before the first result, then prints `ready` so the parent can
time that set-up.  It then reads the pass file (JSON: `cases` as
[[id, argv], ...], `trace`, `spans_out`) and runs every case back to back
through `foelner.cli.main`, capturing each report.  A case that raises or
exits nonzero is recorded and the pass goes on.  Right after `ready`, and
before and after every case, it times a calibration block of the plan's
`calibration` kinds (`calibrate.py`), so the parent can scale set-up and
case times by the machine's speed at that moment.  The last line it prints
is the pass result as JSON.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _run_case(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:   # a failed case is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=err)
    return {"rc": rc, "error": error, "report": out.getvalue(), "stderr": err.getvalue()}


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}"}


def main() -> None:
    import foelner
    from foelner import cli
    cli.spec_schema()
    print("ready", flush=True)
    import calibrate
    setup_cal = calibrate.interp_s()

    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(foelner)

    kinds = plan["calibration"]
    calibrate.sample(kinds)                  # warm-up: lazy BLAS set-up, caches
    cal = [calibrate.sample(kinds)]
    results, case_s = [], []
    for cid, argv in plan["cases"]:
        t0 = time.perf_counter()
        if tracer is None:
            res = _run_case(cli.main, argv)
        else:
            tracer.case = cid
            res = _run_case(lambda a: tracer.call("cli.main", cli.main, a), argv)
        case_s.append(time.perf_counter() - t0)
        results.append(res)
        cal.append(calibrate.sample(kinds))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"solve_s": sum(case_s), "case_s": case_s, "cal": cal, "setup_cal": setup_cal,
           "peak_rss_mb": rss_mb, "results": results, "env": _environment()}
    if tracer is not None:
        tracer.dump(plan["spans_out"])
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
