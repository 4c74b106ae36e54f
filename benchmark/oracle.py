"""Correctness oracle for the reports of the benchmark's cases.

A report is parsed into columns: each field path (`meta.witness-n`,
`rows[].u`, `boundaries[]`, `matrix[].re`, ...) maps to the list of its
values in report order.  Two kinds of check apply:

* Reference: cases that do not depend on the seed must match
  `reference.json`, recorded at the commit that introduced the benchmark.
  Exact fields (ints, flags, verdict kinds, fractions, strings) must be
  equal.  Floats must agree within the relative tolerance stored with each
  field.  Columns longer than `FULL_LIMIT` are stored as a digest: a hash of
  the exact values and of where the floats sit, plus float moments.
* Invariants that hold for any seed (halmos split, berg rank, norm ratios,
  weighted-shift rows, symbol moments, Foelner ratios, ...), computed here
  without calling the package.

`check` returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

RTOL = 1e-9            # float fields against the reference
INVARIANT_RTOL = 1e-12  # identities the report must satisfy exactly up to rounding
FULL_LIMIT = 64

_INT = re.compile(r"-?\d+$")
_FRACTION = re.compile(r"-?\d+/\d+$")


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    if _INT.match(text):
        return int(text)
    if _FRACTION.match(text):
        return text
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(obj, path: str, cols: dict) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{path}.{key}" if path else key, cols)
    elif isinstance(obj, list):
        if not obj:
            cols.setdefault(path + "[]", [])
        for val in obj:
            _flatten(val, path + "[]", cols)
    else:
        cols.setdefault(path, []).append(obj)


def parse(text: str) -> dict[str, list]:
    """Columns of a JSON, CSV or matrix report."""
    if text.startswith("{"):
        cols: dict[str, list] = {}
        _flatten(json.loads(text), "", cols)
        return cols
    lines = text.splitlines()
    cols = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition(" ")
            cols[f"meta.{key}"] = [_cell(val)]
        else:
            body.append(line)
    if cols.get("meta.command") == ["weyl-represent"]:
        cols["matrix.dim"] = [int(body[0])]
        entries = [complex(tok.replace("i", "j")) for row in body[1:] for tok in row.split()]
        cols["matrix[].re"] = [z.real for z in entries]
        cols["matrix[].im"] = [z.imag for z in entries]
        return cols
    header = body[0].split(",")
    for name in header:
        cols[f"rows[].{name}"] = []
    for line in body[1:]:
        for name, cell in zip(header, line.split(","), strict=True):
            cols[f"rows[].{name}"].append(_cell(cell))
    return cols


def canonical(cols: dict[str, list]) -> dict[str, list]:
    """Put rows whose order is an input choice into a fixed order."""
    if cols.get("meta.command") == ["weyl-amenability"]:
        order = sorted(range(len(cols["rows[].element"])),
                       key=lambda i: cols["rows[].element"][i])
        cols = {k: ([v[i] for i in order] if k.startswith("rows[].") else v)
                for k, v in cols.items()}
    return cols


# ---------------------------------------------------------------------------
# reference fingerprints
# ---------------------------------------------------------------------------

def _is_float(v) -> bool:
    return isinstance(v, float)


def _moments(vals: list) -> dict:
    xs = [(i + 1, v) for i, v in enumerate(vals) if _is_float(v)]
    return {
        "sum": math.fsum(v for _, v in xs), "abs": math.fsum(abs(v) for _, v in xs),
        "sq": math.fsum(v * v for _, v in xs),
        "wsum": math.fsum(i * v for i, v in xs), "wabs": math.fsum(i * abs(v) for i, v in xs),
    }


def _shape_hash(vals: list) -> str:
    exact = [None if _is_float(v) else v for v in vals]
    return hashlib.sha256(json.dumps(exact).encode()).hexdigest()


def fingerprint(cols: dict[str, list], rtol: float = RTOL) -> dict:
    out = {}
    for path, vals in cols.items():
        if len(vals) <= FULL_LIMIT:
            out[path] = {"values": vals, "rtol": rtol}
        else:
            out[path] = {"n": len(vals), "shape": _shape_hash(vals),
                         "moments": _moments(vals), "rtol": rtol}
    return out


def _close(a: float, b: float, rtol: float, scale: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def compare(ref: dict, cols: dict[str, list]) -> list[str]:
    problems = []
    for path in sorted(set(ref) | set(cols)):
        if path not in cols or path not in ref:
            problems.append(f"{path}: field {'missing' if path in ref else 'unexpected'}")
            continue
        fp, vals = ref[path], cols[path]
        rtol = fp["rtol"]
        if "values" in fp:
            want = fp["values"]
            if len(want) != len(vals):
                problems.append(f"{path}: {len(vals)} values, reference has {len(want)}")
                continue
            scale = max((abs(v) for v in want if _is_float(v)), default=0.0)
            for i, (w, v) in enumerate(zip(want, vals)):
                if _is_float(w):
                    ok = isinstance(v, (int, float)) and not isinstance(v, bool) \
                        and _close(float(v), w, rtol, scale)
                else:
                    ok = type(v) is type(w) and v == w
                if not ok:
                    problems.append(f"{path}[{i}]: {v!r} != reference {w!r}")
            continue
        if fp["n"] != len(vals) or fp["shape"] != _shape_hash(vals):
            problems.append(f"{path}: exact values or layout differ from the reference")
            continue
        got, want = _moments(vals), fp["moments"]
        for key, bound in (("sum", "abs"), ("sq", "sq"), ("wsum", "wabs")):
            if not abs(got[key] - want[key]) <= rtol * want[bound] or math.isnan(got[key]):
                problems.append(f"{path}: float {key} {got[key]!r} != reference {want[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _near(a: float, b: float, rtol: float = INVARIANT_RTOL, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale) + 1e-300


def _norm_rows(cols: dict, check: dict) -> list[str]:
    problems = []
    rows = zip(*(cols[f"rows[].{k}"] for k in ("n", "rank", "u", "s1", "s2", "ratio1", "ratio2")))
    prev = 0
    for n, rank, u, s1, s2, r1, r2 in rows:
        if n <= prev:
            problems.append(f"row n={n}: n not increasing")
        prev = n
        if not (_near(r1, s1 / rank) and _near(r2, s2 / math.sqrt(rank))):
            problems.append(f"row n={n}: ratios do not match s1/rank, s2/sqrt(rank)")
        slack = 1 + 1e-9
        if not (u <= s2 * slack and s2 <= s1 * slack):
            problems.append(f"row n={n}: u <= s2 <= s1 fails")
        if "shift" in check:
            w = abs(math.sqrt(n) if check["shift"] == "sqrt" else math.log(n))
            if rank != n or not all(_near(x, w) for x in (u, s1, s2)):
                problems.append(f"row n={n}: weighted-shift row is not u = s1 = s2 = |w_n|")
        if "inverse_shift_indices" in check:
            problems += _inverse_shift_row(check["inverse_shift_indices"], n, rank, u, s1, s2)
    return problems


def _inverse_shift_row(indices: list[int], n: int, rank, u, s1, s2) -> list[str]:
    """[S, R_n] for S e_j = e_{j+1}/j has one entry per j with exactly one of
    j, j+1 in the index set; its singular values are those entries' moduli."""
    K = set(indices[:n])
    crossing = [j for j in range(1, max(K) + 1) if (j in K) != (j + 1 in K)]
    w = [1 / j for j in crossing]
    want = (max(w), math.fsum(w), math.sqrt(math.fsum(x * x for x in w)))
    if rank != n or not all(_near(a, b, RTOL) for a, b in zip((u, s1, s2), want)):
        return [f"row n={n}: seminorms differ from the index-set oracle {want}"]
    return []


def _symbol_moment(bands: dict[int, complex], p: int) -> float:
    """Constant term of (sum_d c_d z^d)^p."""
    poly = {0: 1 + 0j}
    for _ in range(p):
        nxt: dict[int, complex] = {}
        for e, c in poly.items():
            for d, b in bands.items():
                nxt[e + d] = nxt.get(e + d, 0) + c * b
        poly = nxt
    return poly.get(0, 0).real


def _bands(spec_path: str) -> dict[int, complex]:
    raw = json.loads(Path(spec_path).read_text())["operator"]["bands"]
    return {int(k): complex(v) if not isinstance(v, list) else complex(v[0], v[1])
            for k, v in raw.items()}


def _szego(cols: dict, argv: list[str], check: dict) -> list[str]:
    problems = []
    bands = _bands(argv[1])
    ns, ps = cols["rows[].n"], cols["rows[].p"]
    emp, ref, gap = cols["rows[].empirical"], cols["rows[].reference"], cols["rows[].gap"]
    scale = max(abs(_symbol_moment(bands, p)) for p in set(ps))
    for n, p, e, r, g in zip(ns, ps, emp, ref, gap):
        if not _near(r, _symbol_moment(bands, p), RTOL, scale):
            problems.append(f"n={n} p={p}: reference {r!r} is not the symbol moment")
        if not _near(g, abs(e - r)):
            problems.append(f"n={n} p={p}: gap is not |empirical - reference|")
    if "ns" in check:
        if sorted(zip(ns, ps)) != sorted((n, p) for n in check["ns"] for p in check["ps"]):
            problems.append("rows do not cover the requested ns x ps")
        for n in check["ns"]:
            T = np.zeros((n, n), dtype=complex)
            for d, c in bands.items():
                T += np.diag(np.full(n - abs(d), c), -d)   # offset d = row - column
            power = np.eye(n, dtype=complex)
            for p in range(1, max(check["ps"]) + 1):
                power = power @ T
                want = float(np.trace(power).real) / n
                got = [e for nn, pp, e in zip(ns, ps, emp) if (nn, pp) == (n, p)]
                if p in check["ps"] and not (got and _near(got[0], want, RTOL, scale)):
                    problems.append(f"n={n} p={p}: empirical moment {got} != trace {want!r}")
    for p in set(ps):
        gaps = [(n, g) for n, pp, g in zip(ns, ps, gap) if pp == p]
        mono = all(b <= a * 1.10 + 1e-15 for (_, a), (_, b) in zip(gaps, gaps[1:]))
        if cols.get(f"meta.monotone-p{p}") != [mono]:
            problems.append(f"p={p}: monotone flag disagrees with the gaps")
        fitted = cols.get(f"meta.fitted-C-p{p}", [None])[0]
        if not isinstance(fitted, float) or not _near(fitted, max(g * n for n, g in gaps)):
            problems.append(f"p={p}: fitted-C is not max(gap * n)")
    return problems


def _halmos(cols: dict) -> list[str]:
    problems = []
    if cols["reconstruction_error"] != [0.0] or cols["offblock_residual"] != [0.0]:
        problems.append("halmos split is not exact")
    if not cols["k_norm"][0] < cols["epsilon"][0] or cols["ok"] != [True]:
        problems.append("halmos k_norm is not below epsilon")
    bs = cols["boundaries[]"]
    if not bs or any(b <= a for a, b in zip(bs, bs[1:])) or bs[-1] >= cols["window"][0]:
        problems.append("halmos boundaries are not increasing ranks inside the window")
    return problems


def _berg(cols: dict, check: dict) -> list[str]:
    dim, ranks = cols["dim"][0], cols["block_ranks[]"]
    problems = []
    if cols["final_rank"] != [dim] or sum(ranks) != dim or dim != check.get("dim", dim):
        problems.append(f"berg final rank {cols['final_rank']} != dim {dim}")
    if cols["steps"] != [len(ranks)] or len(cols["commutator_norms[]"]) != len(ranks):
        problems.append("berg steps, ranks and commutator norms disagree")
    if not all(math.isfinite(x) for x in cols["commutator_norms[]"] + cols["perturbation_norm"]):
        problems.append("berg norms are not finite")
    return problems


def _weyl(cols: dict, check: dict) -> list[str]:
    problems = []
    eps = Fraction(cols["meta.epsilon"][0])
    n = cols["meta.witness-n"][0]
    dim_vn = (n + 1) * (n + 2) // 2
    if "witness_n" in check and n != check["witness_n"]:
        problems.append(f"witness-n {n} != {check['witness_n']}")
    for row in zip(*(cols[f"rows[].{k}"] for k in ("element", "n", "dim_vn", "dim_sum", "ratio"))):
        elem, rn, dv, ds, ratio = row
        r = Fraction(str(ratio))
        if rn != n or dv != dim_vn or r != Fraction(ds, dv) or r > 1 + eps or r < 1:
            problems.append(f"{elem}: row {row} breaks 1 <= dim_sum/dim_vn = ratio <= 1 + eps")
    return problems


def check(case_argv: list[str], check_info: dict, report: str, ref: dict | None) -> list[str]:
    """Problems found in one report; `ref` is its reference fingerprint or None."""
    try:
        cols = canonical(parse(report))
        problems = [] if ref is None else compare(ref, cols)
        command = case_argv[0]
        if command in ("norms", "sparse", "classify"):
            problems += _norm_rows(cols, check_info)
        elif command == "halmos":
            problems += _halmos(cols)
        elif command == "berg":
            problems += _berg(cols, check_info)
        elif command == "szego":
            problems += _szego(cols, case_argv, check_info)
        elif command == "weyl-amenability":
            problems += _weyl(cols, check_info)
    except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
        problems = [f"report does not parse as expected: {type(exc).__name__}: {exc}"]
    return problems
