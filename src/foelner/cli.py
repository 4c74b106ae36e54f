"""Command-line front end: spec files in, deterministic CSV/JSON reports out.

A spec file is a JSON document {"operator": ..., "projection": ..., and
"experiment": ...} validated strictly against the bundled schema before any
computation runs.  A flag sets the experiment key of its name, and the
merged experiment is validated against the same schema.  Exit codes: 0 success,
2 validation problem (including an -o path that cannot be written), 3
computation failure (error class name on stderr).
Reports are buffered and written only after the computation finishes, then
renamed into place, so a failing run never leaves a partial file behind.
Each subcommand imports the numeric modules it computes with, so loading
this module (and running weyl-amenability) loads no numpy; a well-formed
call loads no argparse, and a valid document no jsonschema.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import sys
import time
import types
from fractions import Fraction

from . import __version__, weyl
from .errors import FoelnerError, InvalidSpec, NotQuasidiagonalAlongFamily, ResourceLimit

_VALIDATOR = None


@functools.cache
def spec_schema() -> dict:
    """The spec schema, read once from the schema.json beside this module."""
    with open(os.path.join(os.path.dirname(__file__), "schema.json"), "rb") as fh:
        return json.load(fh)


# draft 2020-12 types: 1.0 is an integer, a bool is neither a number nor an integer
_TYPES = {"object": lambda x: isinstance(x, dict), "array": lambda x: isinstance(x, list),
          "string": lambda x: isinstance(x, str),
          "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
          "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                                or isinstance(x, float) and x.is_integer())}

# the keywords schema.json may use: those _conforms checks, the `$defs` a `$ref` names,
# and two annotations
SCHEMA_KEYWORDS = frozenset({
    "$schema", "title", "$defs", "$ref", "type", "enum", "const", "oneOf", "required",
    "properties", "additionalProperties", "patternProperties", "items", "minItems",
    "maxItems", "minLength", "minProperties", "minimum", "exclusiveMinimum", "pattern"})


def _same(a, b) -> bool:
    """JSON equality of two scalars: 1 == 1.0, but True is not 1."""
    return (isinstance(a, bool), a) == (isinstance(b, bool), b)


def _conforms(x, node: dict) -> bool:
    """Whether x meets the schema node, for the keywords of SCHEMA_KEYWORDS.

    Each keyword checks only the JSON type it is about, as in draft 2020-12;
    `additionalProperties` may only be false, and a `$ref` names a `#/$defs/` entry.
    """
    if "$ref" in node and not _conforms(x, spec_schema()["$defs"][node["$ref"][len("#/$defs/"):]]):
        return False
    if ("type" in node and not _TYPES[node["type"]](x)
            or "enum" in node and not any(_same(x, v) for v in node["enum"])
            or "const" in node and not _same(x, node["const"])
            or "oneOf" in node and sum(_conforms(x, s) for s in node["oneOf"]) != 1):
        return False
    if isinstance(x, dict):
        if len(x) < node.get("minProperties", 0) or not all(k in x for k in node.get("required", ())):
            return False
        props, patterns = node.get("properties", {}), node.get("patternProperties", {})
        for key, value in x.items():
            subs = [props[key]] if key in props else []
            subs += [s for pattern, s in patterns.items() if re.search(pattern, key)]
            if not subs and node.get("additionalProperties", True) is False:
                return False
            if not all(_conforms(value, s) for s in subs):
                return False
    elif isinstance(x, list):
        if not node.get("minItems", 0) <= len(x) <= node.get("maxItems", len(x)):
            return False
        return "items" not in node or all(_conforms(v, node["items"]) for v in x)
    elif isinstance(x, str):
        return len(x) >= node.get("minLength", 0) and (
            "pattern" not in node or re.search(node["pattern"], x) is not None)
    elif _TYPES["number"](x):
        # written as the refusals are, so NaN passes both bounds as it does in jsonschema
        return not ("minimum" in node and x < node["minimum"]
                    or "exclusiveMinimum" in node and x <= node["exclusiveMinimum"])
    return True


def validate_document(doc) -> None:
    """Raise InvalidSpec with the error jsonschema.validate would raise for doc.

    `_conforms` decides; jsonschema is imported only for a document it refuses,
    to word the refusal, and has the last word: a document jsonschema finds
    no error in is accepted.  The validator is built on the first refusal and
    kept; unlike jsonschema.validate it does not check the schema against its
    meta-schema each time (the tests check the shipped schema once).
    """
    global _VALIDATOR
    schema = spec_schema()
    if _conforms(doc, schema):
        return
    import jsonschema
    if _VALIDATOR is None:
        _VALIDATOR = jsonschema.validators.validator_for(schema)(schema)
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise InvalidSpec(f"spec rejected at {path}: {exc.message}")


def load_spec_file(path: str) -> tuple[dict, str]:
    """Parse + validate a spec file; returns (document, sha256 of the bytes)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
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
    from . import ops
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


def parse_projection(doc: dict | None, selector: list[int] | None = None) -> ops.ProjectionFamily:
    """The family a projection document names; a selector picks blocks of a blocks family."""
    from . import ops
    kind = "canonical" if doc is None else doc["kind"]
    if selector is not None and kind != "blocks":
        raise InvalidSpec("experiment.selector picks blocks of a blocks projection, "
                          f"and this projection is {kind}")
    if kind == "canonical":
        return ops.ProjectionFamily.canonical()
    if kind == "sparse":
        if "rule" in doc:
            return ops.ProjectionFamily.sparse(_SPARSE_RULES[doc["rule"]])
        return ops.ProjectionFamily.sparse(doc["indices"])
    if kind == "blocks":
        from . import decomp
        return decomp.sparse_family(doc["boundaries"], selector)
    raise InvalidSpec(f"unknown projection kind {kind!r}")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _num(x) -> str:
    return str(x) if isinstance(x, int) else repr(float(x))


def _stamp() -> str:
    """The UTC time to the second, as datetime.now(timezone.utc).isoformat(timespec="seconds")."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _meta_lines(args, spec_hash: str | None, extra: dict | None = None) -> list[str]:
    lines = [f"# foelner {__version__}"]
    if spec_hash:
        lines.append(f"# spec-sha256 {spec_hash}")
    for k, v in sorted((extra or {}).items()):
        lines.append(f"# {k} {v}")
    if not args.no_timestamp:
        lines.append(f"# generated {_stamp()}")
    return lines


def _meta_obj(args, spec_hash: str | None) -> dict:
    meta = {"tool": "foelner", "version": __version__}
    if spec_hash:
        meta["spec_sha256"] = spec_hash
    if not args.no_timestamp:
        meta["generated"] = _stamp()
    return meta


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def n_grid(start: int, end: int, step: int | None, geometric: float | None) -> list[int]:
    if step is not None and geometric is not None:
        raise InvalidSpec("give either n_step or n_geometric, not both")
    if start < 1 or end < start:
        raise InvalidSpec("need 1 <= n_start <= n_end")
    if step is not None:
        from . import ops
        if len(grid := range(start, end + 1, step)) > ops.DENSE_CELLS:
            raise ResourceLimit(f"an n grid of {len(grid)} points is over the budget of "
                                f"{ops.DENSE_CELLS}")
        return list(grid)
    base = 2.0 if geometric is None else float(geometric)
    if not 1.0 < base < float("inf"):
        raise InvalidSpec("n_geometric must be finite and > 1")
    out = []
    n = start
    while n <= end:
        out.append(n)
        try:
            n = max(n + 1, int(round(n * base)))
        except OverflowError:       # n * base is past the float range: the grid ends
            break
    return out


def _experiment(args, doc: dict) -> dict:
    """The spec's experiment with the set flags laid over it, validated like a spec file's.

    A flag's dest is its key; a flag's n_step or n_geometric replaces the spacing whole.
    """
    exp = doc.get("experiment", {})
    flags = {key: getattr(args, key) for key in spec_schema()["$defs"]["experiment"]["properties"]
             if getattr(args, key, None) is not None}
    if flags.keys() & {"n_step", "n_geometric"}:
        exp = {k: v for k, v in exp.items() if k not in ("n_step", "n_geometric")}
    exp = {**exp, **flags}
    validate_document({"experiment": exp})
    return exp


def _need_operator(doc: dict) -> ops.OperatorSpec:
    if "operator" not in doc:
        raise InvalidSpec("this subcommand needs an \"operator\" in the spec file")
    return parse_operator(doc["operator"])


# ---------------------------------------------------------------------------
# matrix text format (shared by berg input and weyl-represent output)
# ---------------------------------------------------------------------------

def format_matrix(a: np.ndarray, head: list[str]) -> str:
    """The lines head, the dimension, then one line of entries per row, joined once."""
    import numpy as np
    a = np.ascontiguousarray(a, dtype=complex)
    bits = a.view(np.uint64)
    nonzero = (bits[:, ::2] | bits[:, 1::2]) != 0     # False only where both parts are +0.0
    tokens = np.empty(a.shape, dtype=object)
    tokens.fill("0.0+0.0i")             # one shared str; np.full would make one per entry
    tokens[nonzero] = [_fmt_entry(z) for z in a[nonzero].tolist()]
    return "\n".join([*head, str(len(a)), *(" ".join(row) for row in tokens.tolist()), ""])


def _fmt_entry(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def read_matrix(path: str) -> np.ndarray:
    import numpy as np
    try:
        with open(path) as fh:
            text = fh.read()
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
        flat = [complex(tok[:-1] + "j" if tok.endswith("i") else tok) for tok in vals]
    except ValueError as exc:
        raise InvalidSpec(f"bad matrix entry: {exc}") from None
    return np.array(flat, dtype=complex).reshape(n, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# the grid defaults (start, end, step, geometric) of the three table subcommands
_TABLE_GRIDS = {"norms": (10, 1000, None, 10.0), "sparse": (1, 10, 1, None),
                "classify": (16, 10_000, None, 2.0)}
_NORM_FIELDS = ("n", "rank", "u", "s1", "s2", "ratio1", "ratio2")


def cmd_table(args, doc: dict, spec_hash: str | None) -> str:
    """norms, sparse and classify: the ratio table over an n grid, as JSON with a trend
    verdict per ratio for classify; sparse refuses a canonical projection."""
    from . import norms
    spec = _need_operator(doc)
    exp = _experiment(args, doc)
    if args.command == "sparse" and doc.get("projection", {}).get("kind", "canonical") == "canonical":
        raise InvalidSpec("sparse needs a sparse or blocks projection in the spec file")
    fam = parse_projection(doc.get("projection"), exp.get("selector"))
    start, end, step, geometric = _TABLE_GRIDS[args.command]
    if exp.keys() & {"n_step", "n_geometric"}:      # the spec's spacing replaces the default
        step, geometric = exp.get("n_step"), exp.get("n_geometric")
    ns = n_grid(int(exp.get("n_start", start)), int(exp.get("n_end", end)), step, geometric)
    groups = norms._columns(spec, fam, ns)
    if args.command == "classify":
        cols = [[x for c in col for x in c] for col in zip(*groups)]
        verdicts = {k: vars(norms.classify(c)) for k, c in zip(_NORM_FIELDS[5:], cols[5:])}
        return _json_text({"meta": _meta_obj(args, spec_hash), "command": "classify",
                           "rows": [dict(zip(_NORM_FIELDS, row)) for row in zip(*cols)],
                           "verdicts": verdicts})
    lines = _meta_lines(args, spec_hash, {"command": args.command}) + [",".join(_NORM_FIELDS)]
    # repr of a Python int is its str, so this is _num of each field; a group is joined once
    lines += ("\n".join(map(",".join, zip(*(map(repr, c) for c in cols)))) for cols in groups)
    return "\n".join(lines) + "\n"


def cmd_halmos(args, doc: dict, spec_hash: str | None) -> str:
    import numpy as np
    from . import decomp
    spec = _need_operator(doc)
    exp = _experiment(args, doc)
    fam = parse_projection(doc.get("projection"), exp.get("selector"))
    if fam.kind == "sparse":
        raise InvalidSpec("halmos splits at initial segments: "
                          "use a canonical or blocks projection")
    if "selector" in exp:
        raise InvalidSpec("halmos splits at initial segments, and the unions of the blocks "
                          "a selector keeps are not: drop experiment.selector")
    eps = _epsilon(exp.get("epsilon", 0.1))
    N = int(exp.get("window", 2048))
    limit = int(exp.get("search_limit", 10_000))
    # the split drops boundaries at or past the window: scan the members ranked below N (with
    # no selector a block's rank is its end), and on to the limit only to word a refusal
    below = N - 1 if fam.size is None else sum(hi < N for _, hi in fam.blocks)
    picks = None
    if 0 < below < limit:
        with contextlib.suppress(NotQuasidiagonalAlongFamily):
            picks = decomp.select_subsequence(spec, fam, eps, search_limit=below)
    picks = picks or decomp.select_subsequence(spec, fam, eps, search_limit=limit)
    d = decomp.halmos_decompose(spec, [fam.rank(n) for n in picks], N, eps)
    # B + K - W per (i, j), in that order (np.add.at adds in index order)
    B, K, W = d.sparse_block_diagonal, d.sparse_perturbation, d.sparse_window
    key = np.concatenate([e["i"] * (N + 1) + e["j"] for e in (B, K, W)])
    order = np.argsort(key, kind="stable")      # three sorted runs: one merge
    key = key[order]
    diff = np.zeros(len(key), complex)          # one slot per distinct key, from slot 0
    np.add.at(diff, np.cumsum(np.diff(key, prepend=key[:1]) != 0),
              np.concatenate((B["v"], K["v"], -W["v"]))[order])
    recon = float(np.max(np.abs(diff), initial=0.0))
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


def cmd_berg(args, doc: dict, spec_hash: str | None) -> str:
    from . import berg
    exp = _experiment(args, doc)
    eps = _epsilon(exp.get("epsilon", 0.05))
    matrix = exp.get("matrix")
    if matrix is not None:
        A = read_matrix(matrix)
        source = {"matrix": str(matrix)}
    else:
        dim = int(exp.get("dim", 128))
        seed = int(exp.get("seed", 0))
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
    from . import szego
    spec = _need_operator(doc)
    exp = _experiment(args, doc)
    comp = szego.szego_compare(spec, exp.get("ns", [50, 100, 200, 400, 800, 1600]),
                               exp.get("ps", [1, 2, 3, 4]))
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


def _as_fraction(v) -> Fraction:
    try:
        return Fraction(v if isinstance(v, (str, int)) else str(v))
    except (ValueError, ZeroDivisionError):
        raise InvalidSpec(f"cannot read {v!r} as an exact rational") from None


def _epsilon(v) -> float:
    """A positive float from a number or a rational string such as "1/10"."""
    eps = _as_fraction(v)
    if not 0 < eps <= sys.float_info.max or float(eps) == 0:
        raise InvalidSpec(f"epsilon must be a positive float, got {v}")
    return float(eps)


def cmd_weyl_amenability(args, doc: dict, spec_hash: str | None) -> str:
    exp = _experiment(args, doc)
    texts = exp.get("elements")
    if not texts:
        raise InvalidSpec("weyl-amenability needs --elements or experiment.elements")
    eps = _as_fraction(exp.get("epsilon", "1"))
    if eps <= 0:
        raise InvalidSpec(f"epsilon must be positive, got {eps}")
    F = [weyl.parse_element(t) for t in texts]
    wit = weyl.amenability_witness(F, eps)
    dim_vn = (wit.n + 1) * (wit.n + 2) // 2
    dim_sums = [ratio * dim_vn for ratio in wit.ratios]
    # no integer of the report exceeds max(cap, dim_sum); str() refuses one past the
    # digit limit (absent before Python 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(wit.cap, *dim_sums) >= 10 ** limit:
        raise ResourceLimit(f"report integers past {limit} digits; try a larger epsilon")
    extra = {
        "command": "weyl-amenability",
        "epsilon": f"{eps.numerator}/{eps.denominator}",
        "witness-n": wit.n,
        "cap": wit.cap,
    }
    lines = _meta_lines(args, spec_hash, extra)
    lines.append("element,n,dim_vn,dim_sum,ratio")
    for text, ratio, dim_sum in zip(texts, wit.ratios, dim_sums):
        assert dim_sum.denominator == 1
        lines.append(",".join([
            text.strip(), str(wit.n), str(dim_vn), str(dim_sum.numerator),
            f"{ratio.numerator}/{ratio.denominator}"]))
    return "\n".join(lines) + "\n"


def cmd_weyl_represent(args, doc: dict, spec_hash: str | None) -> str:
    exp = _experiment(args, doc)
    text = exp.get("element")
    if not text:
        raise InvalidSpec("weyl-represent needs --element or experiment.element")
    w = weyl.represent(weyl.parse_element(text), int(exp.get("window", 16)))
    head = _meta_lines(args, spec_hash, {"command": "weyl-represent",
                                         "element": text.strip()})
    return format_matrix(w.entries, head)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def integer_list(text: str) -> list[int]:
    """Comma-separated integers (argparse names this function in its error)."""
    return [int(tok) for tok in text.split(",") if tok.strip()]


def float_or_text(text: str) -> float | str:
    """A float where text reads as one ("1e-3"), else the text ("1/10") for the schema to judge."""
    try:
        return float(text)
    except ValueError:
        return text


_GRID_FLAGS = (("--n-start", {"type": int}), ("--n-end", {"type": int}),
               ("--n-step", {"type": int}), ("--n-geometric", {"type": float, "metavar": "BASE"}))

# the flags every subcommand takes; a flag table entry is its names, then its add_argument keywords
_COMMON_FLAGS = (("spec", {"nargs": "?", "help": "JSON spec file"}),
                 ("-o", "--output", {"help": "write the report here instead of stdout"}),
                 ("--no-timestamp", {"action": "store_true",
                                     "help": "omit the timestamp header for byte-stable output"}))

# subcommand -> (its function, help line, its flags past _COMMON_FLAGS)
_SUBCOMMANDS = {
    "norms": (cmd_table, "seminorm and ratio table over an n grid", _GRID_FLAGS),
    "classify": (cmd_table, "norms plus a trend verdict per ratio", _GRID_FLAGS),
    "halmos": (cmd_halmos, "block diagonal + small perturbation split", (
        ("--epsilon", {"type": float_or_text}),
        ("--window", {"type": int, "metavar": "N"}),
        ("--search-limit", {"type": int}))),
    "sparse": (cmd_table, "ratio table along a sparse projection family", _GRID_FLAGS),
    "berg": (cmd_berg, "nested projections for a Hermitian matrix", (
        ("--matrix", {"help": "matrix file: dimension line, then a+bi rows"}),
        ("--dim", {"type": int, "help": "size of the seeded random Hermitian input"}),
        ("--seed", {"type": int}),
        ("--epsilon", {"type": float_or_text}))),
    "szego": (cmd_szego, "eigenvalue moments of compressions vs symbol", (
        ("--ns", {"type": integer_list, "help": "comma-separated window sizes"}),
        ("--ps", {"type": integer_list, "help": "comma-separated moment orders"}))),
    "weyl-amenability": (cmd_weyl_amenability, "exact growth witness for p/q words", (
        ("--elements", {"type": lambda text: text.split(","),
                        "help": "comma-separated elements, e.g. 'p,q,p*q'"}),
        ("--epsilon", {"help": "rational like 1/10"}))),
    "weyl-represent": (cmd_weyl_represent, "matrix window of a p/q element", (
        ("--element", {"help": "element text, e.g. 'p^2*q - i*q^3'"}),
        ("--window", {"type": int, "metavar": "N"}))),
}


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser: the top level and every subcommand with its flags."""
    import argparse
    p = argparse.ArgumentParser(
        prog="foelner",
        description="Commutator seminorms, block decompositions, and exact "
                    "growth certificates for band-structured operators.")
    p.add_argument("--version", action="version", version=f"foelner {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, (_, help_line, flags) in _SUBCOMMANDS.items():
        parser = sub.add_parser(name, help=help_line)
        for *names, kwargs in _COMMON_FLAGS + flags:
            parser.add_argument(*names, **kwargs)
    return p


def parse_args(argv) -> argparse.Namespace | types.SimpleNamespace:
    """argv as build_parser() parses it.  A subcommand call that spells each flag in full, its
    value the next word, and names at most one spec is read off the flag table; argparse
    reads every other call, so it words every help text and usage error."""
    if argv and argv[0] in _SUBCOMMANDS and (args := _read_call(argv)) is not None:
        return args
    return build_parser().parse_args(argv)


def _read_call(argv) -> types.SimpleNamespace | None:
    """The attributes argparse would set for a well-formed subcommand call, else None."""
    args, flags = {"command": argv[0]}, {}
    for *names, kwargs in _COMMON_FLAGS + _SUBCOMMANDS[argv[0]][2]:
        dest = names[-1].lstrip("-").replace("-", "_")
        args[dest] = False if "action" in kwargs else None
        flags.update((name, (dest, kwargs)) for name in names if name.startswith("-"))
    words = iter(argv[1:])
    for word in words:
        dest, kwargs = flags.get(word, ("spec", {}))
        if "action" in kwargs:
            args[dest] = True
            continue
        value = next(words, "-") if word in flags else word
        if value.startswith("-") or dest == "spec" and args["spec"] is not None:
            return None
        try:
            args[dest] = kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
    return types.SimpleNamespace(**args)


def _write_atomic(target: str, text: str) -> None:
    """Write text to target in one step: a temp file beside it, then a rename."""
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(16).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        doc, spec_hash = load_spec_file(args.spec) if args.spec is not None else ({}, None)
        text = _SUBCOMMANDS[args.command][0](args, doc, spec_hash)
    except InvalidSpec as exc:
        print(f"InvalidSpec: {exc}", file=sys.stderr)
        return 2
    except FoelnerError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.output:
        try:
            _write_atomic(args.output, text)
        except OSError as exc:
            print(f"cannot write the report to {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
