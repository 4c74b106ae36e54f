"""Command-line front end: spec files in, deterministic CSV/JSON reports out.

A spec file is a JSON document {"operator": ..., "projection": ..., and
"experiment": ...} validated strictly against the bundled schema before any
computation runs.  Flags override experiment values.  Exit codes: 0 success,
2 validation problem (including an -o path that cannot be written), 3
computation failure (error class name on stderr).
Reports are buffered and written only after the computation finishes, then
renamed into place, so a failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import uuid
from datetime import datetime, timezone
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, berg, decomp, norms, ops, szego, weyl
from .errors import FoelnerError, InvalidSpec

_SCHEMA: dict | None = None
_VALIDATOR = None


def spec_schema() -> dict:
    global _SCHEMA
    if _SCHEMA is None:
        raw = resources.files("foelner").joinpath("schema.json").read_text()
        _SCHEMA = json.loads(raw)
    return _SCHEMA


def validate_document(doc) -> None:
    """Raise InvalidSpec with the error jsonschema.validate would raise for doc.

    The validator is built on the first call and kept; unlike
    jsonschema.validate it does not check the schema against its meta-schema
    each time (the tests check the shipped schema once).
    """
    global _VALIDATOR
    if _VALIDATOR is None:
        schema = spec_schema()
        _VALIDATOR = jsonschema.validators.validator_for(schema)(schema)
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise InvalidSpec(f"spec rejected at {path}: {exc.message}")


def load_spec_file(path: str) -> tuple[dict, str]:
    """Parse + validate a spec file; returns (document, sha256 of the bytes)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidSpec(f"cannot read spec file: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"spec file is not valid JSON: {exc}") from None
    validate_document(doc)
    return doc, hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# JSON <-> library objects
# ---------------------------------------------------------------------------

def _parse_cnum(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def _cnum_to_json(c: complex):
    return c.real if c.imag == 0 else [c.real, c.imag]


def parse_operator(doc: dict) -> ops.OperatorSpec:
    """Spec from its JSON object; the keys follow the OperatorSpec fields."""
    children = [doc["child"]] if "child" in doc else doc.get("children", [])
    bands = {int(off): _parse_cnum(v) for off, v in doc.get("bands", {}).items()}
    return ops.OperatorSpec(kind=doc["kind"], weight=doc.get("weight"),
                            bands=tuple(bands.items()),
                            factor=_parse_cnum(doc.get("factor", 1.0)),
                            children=tuple(parse_operator(c) for c in children))


def operator_to_json(spec: ops.OperatorSpec) -> dict:
    out: dict = {"kind": spec.kind}
    if spec.weight is not None:
        out["weight"] = spec.weight
    if spec.kind == "toeplitz":
        # the schema wants at least one band; the zero operator keeps a zero one
        out["bands"] = {str(off): _cnum_to_json(val) for off, val in spec.bands or ((0, 0j),)}
    if spec.kind == "scale":
        out["factor"] = _cnum_to_json(spec.factor)
        out["child"] = operator_to_json(spec.children[0])
    elif spec.children:
        out["children"] = [operator_to_json(c) for c in spec.children]
    return out


_SPARSE_RULES = {"pow2": lambda n: 2 ** n, "squares": lambda n: n * n}


def parse_projection(doc: dict | None) -> ops.ProjectionFamily:
    if doc is None:
        return ops.ProjectionFamily.canonical()
    kind = doc["kind"]
    if kind == "canonical":
        return ops.ProjectionFamily.canonical()
    if kind == "sparse":
        if "rule" in doc:
            return ops.ProjectionFamily.sparse(_SPARSE_RULES[doc["rule"]])
        return ops.ProjectionFamily.sparse(doc["indices"])
    if kind == "blocks":
        return ops.ProjectionFamily.from_boundaries(doc["boundaries"])
    raise InvalidSpec(f"unknown projection kind {kind!r}")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _num(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _meta_lines(args, spec_hash: str | None, extra: dict | None = None) -> list[str]:
    lines = [f"# foelner {__version__}"]
    if spec_hash:
        lines.append(f"# spec-sha256 {spec_hash}")
    for k, v in sorted((extra or {}).items()):
        lines.append(f"# {k} {v}")
    if not args.no_timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# generated {stamp}")
    return lines


def _meta_obj(args, spec_hash: str | None) -> dict:
    meta = {"tool": "foelner", "version": __version__}
    if spec_hash:
        meta["spec_sha256"] = spec_hash
    if not args.no_timestamp:
        meta["generated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return meta


def _norm_csv(rows) -> list[str]:
    # the fields are Python ints and floats, so this is _num of each
    return ["n,rank,u,s1,s2,ratio1,ratio2"] + [
        f"{r.n},{r.rank},{r.u!r},{r.s1!r},{r.s2!r},{r.ratio1!r},{r.ratio2!r}" for r in rows]


def _row_obj(r) -> dict:
    return {"n": r.n, "rank": r.rank, "u": r.u, "s1": r.s1, "s2": r.s2,
            "ratio1": r.ratio1, "ratio2": r.ratio2}


def _verdict_obj(v: norms.Verdict) -> dict:
    return {"kind": v.kind, "limit": v.limit, "evidence": v.evidence}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _pick(flag_value, experiment: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    return experiment.get(key, default)


def n_grid(start: int, end: int, step: int | None, geometric: float | None) -> list[int]:
    if step is not None and geometric is not None:
        raise InvalidSpec("give either n_step or n_geometric, not both")
    if start < 1 or end < start:
        raise InvalidSpec("need 1 <= n_start <= n_end")
    if step is not None:
        return list(range(start, end + 1, step))
    base = 2.0 if geometric is None else float(geometric)
    if base <= 1.0:
        raise InvalidSpec("n_geometric must be > 1")
    out = []
    n = start
    while n <= end:
        out.append(n)
        n = max(n + 1, int(round(n * base)))
    return out


def _grid_from(args, exp: dict, start: int, end: int,
               step: int | None = None, geometric: float | None = None) -> list[int]:
    st = _pick(args.n_start, exp, "n_start", start)
    en = _pick(args.n_end, exp, "n_end", end)
    # the spacing comes whole from the flags, else from the spec, else from the default
    levels = [(args.n_step, args.n_geometric), (exp.get("n_step"), exp.get("n_geometric"))]
    sp, ge = next((lv for lv in levels if lv != (None, None)), (step, geometric))
    return n_grid(int(st), int(en), sp, ge)


def _need_operator(doc: dict) -> ops.OperatorSpec:
    if "operator" not in doc:
        raise InvalidSpec("this subcommand needs an \"operator\" in the spec file")
    return parse_operator(doc["operator"])


# ---------------------------------------------------------------------------
# matrix text format (shared by berg input and weyl-represent output)
# ---------------------------------------------------------------------------

def format_matrix(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=complex)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(_fmt_entry(z) for z in row))
    return "\n".join(lines) + "\n"


def _fmt_entry(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def read_matrix(path: str) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidSpec(f"cannot read matrix file: {exc}") from None
    body = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    tokens = "\n".join(body).split()
    if not tokens:
        raise InvalidSpec("matrix file is empty")
    try:
        n = int(tokens[0])
    except ValueError:
        raise InvalidSpec("matrix file must start with its dimension") from None
    vals = tokens[1:]
    if n < 1 or len(vals) != n * n:
        raise InvalidSpec(f"matrix file promises {n}x{n} entries, found {len(vals)}")
    try:
        flat = [complex(tok.replace("i", "j")) for tok in vals]
    except ValueError as exc:
        raise InvalidSpec(f"bad matrix entry: {exc}") from None
    return np.array(flat, dtype=complex).reshape(n, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_norms(args, doc: dict, spec_hash: str | None) -> str:
    spec = _need_operator(doc)
    fam = parse_projection(doc.get("projection"))
    exp = doc.get("experiment", {})
    ns = _grid_from(args, exp, start=10, end=1000, geometric=10.0)
    rows = norms.report_sequence(spec, fam, ns)
    lines = _meta_lines(args, spec_hash, {"command": "norms"}) + _norm_csv(rows)
    return "\n".join(lines) + "\n"


def cmd_classify(args, doc: dict, spec_hash: str | None) -> str:
    spec = _need_operator(doc)
    fam = parse_projection(doc.get("projection"))
    exp = doc.get("experiment", {})
    ns = _grid_from(args, exp, start=16, end=10_000, geometric=2.0)
    rows = norms.report_sequence(spec, fam, ns)
    report = {
        "meta": _meta_obj(args, spec_hash),
        "command": "classify",
        "rows": [_row_obj(r) for r in rows],
        "verdicts": {
            "ratio1": _verdict_obj(norms.classify([r.ratio1 for r in rows])),
            "ratio2": _verdict_obj(norms.classify([r.ratio2 for r in rows])),
        },
    }
    return _json_text(report)


def cmd_halmos(args, doc: dict, spec_hash: str | None) -> str:
    spec = _need_operator(doc)
    fam = parse_projection(doc.get("projection"))
    exp = doc.get("experiment", {})
    eps = _epsilon(_pick(args.epsilon, exp, "epsilon", 0.1))
    N = int(_pick(args.window, exp, "window", 2048))
    limit = int(_pick(args.search_limit, exp, "search_limit", 10_000))
    boundaries = decomp.select_subsequence(spec, fam, eps, search_limit=limit)
    d = decomp.halmos_decompose(spec, boundaries, N, eps)
    diff = d.sparse_block_diagonal + d.sparse_perturbation - d.sparse_window
    recon = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    report = {
        "meta": _meta_obj(args, spec_hash),
        "command": "halmos",
        "epsilon": eps,
        "window": N,
        "boundaries": list(d.boundaries),
        "k_norm": d.k_norm,
        "offblock_residual": d.offblock_residual,
        "reconstruction_error": recon,
        "ok": d.ok,
    }
    return _json_text(report)


def cmd_sparse(args, doc: dict, spec_hash: str | None) -> str:
    spec = _need_operator(doc)
    proj_doc = doc.get("projection")
    exp = doc.get("experiment", {})
    if proj_doc is None or proj_doc["kind"] == "canonical":
        raise InvalidSpec("sparse needs a sparse or blocks projection in the spec file")
    if proj_doc["kind"] == "blocks" and "selector" in exp:
        fam = decomp.sparse_family(proj_doc["boundaries"], exp["selector"])
    else:
        fam = parse_projection(proj_doc)
    ns = _grid_from(args, exp, start=1, end=10, step=1)
    rows = norms.report_sequence(spec, fam, ns)
    lines = _meta_lines(args, spec_hash, {"command": "sparse"}) + _norm_csv(rows)
    return "\n".join(lines) + "\n"


def cmd_berg(args, doc: dict, spec_hash: str | None) -> str:
    exp = doc.get("experiment", {})
    eps = _epsilon(_pick(args.epsilon, exp, "epsilon", 0.05))
    matrix = _pick(args.matrix, exp, "matrix", None)
    if matrix is not None:
        A = read_matrix(matrix)
        source = {"matrix": str(matrix)}
    else:
        dim = int(_pick(args.dim, exp, "dim", 128))
        seed = int(_pick(args.seed, exp, "seed", 0))
        A = berg.random_hermitian(dim, seed)
        source = {"dim": dim, "seed": seed}
    res = berg.berg_sequence(A, range(1, A.shape[0] + 1), eps)
    report = {
        "meta": _meta_obj(args, spec_hash),
        "command": "berg",
        "source": source,
        "dim": res.dim,
        "epsilon": eps,
        "steps": len(res.block_ranks),
        "block_ranks": list(res.block_ranks),
        "final_rank": int(sum(res.block_ranks)),
        "commutator_norms": list(res.commutator_norms),
        "perturbation_norm": res.perturbation_norm,
    }
    return _json_text(report)


def cmd_szego(args, doc: dict, spec_hash: str | None) -> str:
    spec = _need_operator(doc)
    exp = doc.get("experiment", {})
    ns = _pick(_csv_ints(args.ns), exp, "ns", [50, 100, 200, 400, 800, 1600])
    ps = _pick(_csv_ints(args.ps), exp, "ps", [1, 2, 3, 4])
    comp = szego.szego_compare(spec, [int(n) for n in ns], [int(p) for p in ps])
    extra = {"command": "szego"}
    for p in sorted(comp.monotone):
        extra[f"monotone-p{p}"] = str(comp.monotone[p]).lower()
        extra[f"fitted-C-p{p}"] = _num(szego.fitted_gap_constant(comp, p))
    lines = _meta_lines(args, spec_hash, extra)
    lines.append("n,p,empirical,reference,gap")
    for r in comp.rows:
        lines.append(",".join([_num(r.n), _num(r.p), _num(r.empirical),
                               _num(r.reference), _num(r.gap)]))
    return "\n".join(lines) + "\n"


def _csv_ints(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidSpec(f"expected comma-separated integers, got {text!r}") from None


def _as_fraction(v) -> Fraction:
    try:
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, int):
            return Fraction(v)
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        raise InvalidSpec(f"cannot read {v!r} as an exact rational") from None


def _epsilon(v) -> float:
    """A positive float from a number or a rational string such as "1/10"."""
    eps = _as_fraction(v)
    if not 0 < eps <= sys.float_info.max or float(eps) == 0:
        raise InvalidSpec(f"epsilon must be a positive float, got {v}")
    return float(eps)


def cmd_weyl_amenability(args, doc: dict, spec_hash: str | None) -> str:
    exp = doc.get("experiment", {})
    texts = _pick(
        args.elements.split(",") if args.elements else None,
        exp, "elements", None)
    if not texts:
        raise InvalidSpec("weyl-amenability needs --elements or experiment.elements")
    eps = _as_fraction(_pick(args.epsilon, exp, "epsilon", "1"))
    if eps <= 0:
        raise InvalidSpec(f"epsilon must be positive, got {eps}")
    F = [weyl.parse_element(t) for t in texts]
    wit = weyl.amenability_witness(F, eps)
    extra = {
        "command": "weyl-amenability",
        "epsilon": f"{eps.numerator}/{eps.denominator}",
        "witness-n": wit.n,
        "cap": wit.cap,
    }
    lines = _meta_lines(args, spec_hash, extra)
    lines.append("element,n,dim_vn,dim_sum,ratio")
    dim_vn = weyl.MonomialSubspace.total_degree(wit.n).dimension()
    for text, ratio in zip(texts, wit.ratios):
        dim_sum = ratio * dim_vn
        assert dim_sum.denominator == 1
        lines.append(",".join([
            text.strip(), str(wit.n), str(dim_vn), str(dim_sum.numerator),
            f"{ratio.numerator}/{ratio.denominator}"]))
    return "\n".join(lines) + "\n"


def cmd_weyl_represent(args, doc: dict, spec_hash: str | None) -> str:
    exp = doc.get("experiment", {})
    text = _pick(args.element, exp, "element", None)
    if not text:
        raise InvalidSpec("weyl-represent needs --element or experiment.element")
    N = int(_pick(args.window, exp, "window", 16))
    x = weyl.parse_element(text)
    w = weyl.represent(x, N)
    head = _meta_lines(args, spec_hash, {"command": "weyl-represent",
                                         "element": text.strip()})
    return "\n".join(head) + "\n" + format_matrix(w.entries)


_COMMANDS = {
    "norms": cmd_norms,
    "classify": cmd_classify,
    "halmos": cmd_halmos,
    "sparse": cmd_sparse,
    "berg": cmd_berg,
    "szego": cmd_szego,
    "weyl-amenability": cmd_weyl_amenability,
    "weyl-represent": cmd_weyl_represent,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="foelner",
        description="Commutator seminorms, block decompositions, and exact "
                    "growth certificates for band-structured operators.")
    p.add_argument("--version", action="version", version=f"foelner {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def common(sp):
        sp.add_argument("spec", nargs="?", help="JSON spec file")
        sp.add_argument("-o", "--output", help="write the report here instead of stdout")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp header for byte-stable output")

    def grid(sp):
        sp.add_argument("--n-start", type=int)
        sp.add_argument("--n-end", type=int)
        sp.add_argument("--n-step", type=int)
        sp.add_argument("--n-geometric", type=float, metavar="BASE")

    sp = sub.add_parser("norms", help="seminorm and ratio table over an n grid")
    common(sp); grid(sp)

    sp = sub.add_parser("classify", help="norms plus a trend verdict per ratio")
    common(sp); grid(sp)

    sp = sub.add_parser("halmos", help="block diagonal + small perturbation split")
    common(sp)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--window", type=int, metavar="N")
    sp.add_argument("--search-limit", type=int)

    sp = sub.add_parser("sparse", help="ratio table along a sparse projection family")
    common(sp); grid(sp)

    sp = sub.add_parser("berg", help="nested projections for a Hermitian matrix")
    common(sp)
    sp.add_argument("--matrix", help="matrix file: dimension line, then a+bi rows")
    sp.add_argument("--dim", type=int, help="size of the seeded random Hermitian input")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--epsilon", type=float)

    sp = sub.add_parser("szego", help="eigenvalue moments of compressions vs symbol")
    common(sp)
    sp.add_argument("--ns", help="comma-separated window sizes")
    sp.add_argument("--ps", help="comma-separated moment orders")

    sp = sub.add_parser("weyl-amenability", help="exact growth witness for p/q words")
    common(sp)
    sp.add_argument("--elements", help="comma-separated elements, e.g. 'p,q,p*q'")
    sp.add_argument("--epsilon", help="rational like 1/10")

    sp = sub.add_parser("weyl-represent", help="matrix window of a p/q element")
    common(sp)
    sp.add_argument("--element", help="element text, e.g. 'p^2*q - i*q^3'")
    sp.add_argument("--window", type=int, metavar="N")

    return p


def _write_atomic(target: Path, text: str) -> None:
    """Write text to target in one step: a temp file beside it, then a rename."""
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.spec is not None:
            doc, spec_hash = load_spec_file(args.spec)
        else:
            doc, spec_hash = {}, None
        text = _COMMANDS[args.command](args, doc, spec_hash)
    except InvalidSpec as exc:
        print(f"InvalidSpec: {exc}", file=sys.stderr)
        return 2
    except FoelnerError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.output:
        try:
            _write_atomic(Path(args.output), text)
        except OSError as exc:
            print(f"cannot write the report to {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
