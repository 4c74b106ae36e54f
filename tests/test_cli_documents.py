"""The CLI's exit-code contract over schema-valid spec documents.

Hypothesis draws whole spec documents for `norms`, `classify`, `sparse` and
`halmos` from hand-written strategies that follow src/foelner/schema.json:
every operator kind nested in sums, scales and products, weight rules that
are well formed or not, huge and tiny coefficients, canonical, sparse and
blocks projections whose index lists may be out of order, and small
experiments (n <= 64, window <= 256, search_limit <= 64).  Each document is
checked against the schema first.  A run must exit 0, 2 or 3 without a
traceback, and a report that exits 0 must hold only finite numbers.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foelner import cli

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_NUM = st.one_of(
    st.sampled_from([0, 1, -1, 2, 0.5, -2.5, 1e308, -1e308, 1e-308, 5e-324]),
    st.floats(-1e3, 1e3, allow_nan=False))
_CNUM = st.one_of(_NUM, st.lists(_NUM, min_size=2, max_size=2))
_WEIGHT = st.one_of(
    st.sampled_from(["log", "sqrt", "linear", "inverse", "nope", "const:x", "pow:inf",
                     "const:1e400"]),
    st.builds("const:{}".format, _NUM),
    st.builds("pow:{}".format, st.sampled_from([-3, -0.5, 0, 0.5, 2, 40, 400])))

_LEAF = st.one_of(
    st.builds(lambda k, w: {"kind": k, "weight": w},
              st.sampled_from(["weighted_shift", "adjoint_weighted_shift", "diagonal"]),
              _WEIGHT),
    st.one_of(st.just({}), _WEIGHT.map(lambda w: {"weight": w})).map(
        lambda w: {"kind": "dilation_shift", **w}),
    st.sampled_from(["example_A", "hermite_q", "hermite_p", "creation",
                     "annihilation"]).map(lambda k: {"kind": k}),
    st.dictionaries(st.integers(-3, 3).map(str), _CNUM, min_size=1, max_size=4).map(
        lambda b: {"kind": "toeplitz", "bands": b}))

_OPERATOR = st.recursive(_LEAF, lambda kids: st.one_of(
    st.builds(lambda k, c: {"kind": k, "children": c}, st.sampled_from(["sum", "product"]),
              st.lists(kids, min_size=1, max_size=3)),
    st.builds(lambda f, c: {"kind": "scale", "factor": f, "child": c}, _CNUM, kids)),
    max_leaves=4)

_INDICES = st.one_of(st.lists(st.integers(1, 200), min_size=1, max_size=20),
                     st.sets(st.integers(1, 200), min_size=1, max_size=20).map(sorted))
_BOUNDARIES = st.one_of(
    st.lists(st.integers(0, 100), min_size=2, max_size=10),
    st.sets(st.integers(1, 100), min_size=1, max_size=10).map(lambda s: [0, *sorted(s)]))
_PROJECTION = st.one_of(
    st.none(),
    st.just({"kind": "canonical"}),
    st.sampled_from(["pow2", "squares"]).map(lambda r: {"kind": "sparse", "rule": r}),
    _INDICES.map(lambda ks: {"kind": "sparse", "indices": ks}),
    _BOUNDARIES.map(lambda bs: {"kind": "blocks", "boundaries": bs}))


@st.composite
def _grid(draw):
    exp = {"n_start": draw(st.integers(1, 64)), "n_end": draw(st.integers(1, 64))}
    spacing = draw(st.sampled_from([None, "n_step", "n_geometric"]))
    if spacing == "n_step":
        exp["n_step"] = draw(st.integers(1, 8))
    elif spacing == "n_geometric":
        exp["n_geometric"] = draw(st.floats(1.01, 4.0))
    return exp


_EPSILON = st.one_of(st.floats(1e-3, 2.0),
                     st.sampled_from(["1/10", "0.5", "3", "0", "1/0"]))


@st.composite
def _documents(draw):
    """(subcommand, spec document)."""
    command = draw(st.sampled_from(["norms", "classify", "sparse", "halmos"]))
    doc = {}
    if draw(st.integers(0, 9)):
        doc["operator"] = draw(_OPERATOR)
    projection = draw(_PROJECTION)
    if projection is not None:
        doc["projection"] = projection
    if command == "halmos":
        exp = {"window": draw(st.integers(1, 256)), "search_limit": draw(st.integers(1, 64))}
        if draw(st.booleans()):
            exp["epsilon"] = draw(_EPSILON)
    else:
        exp = draw(_grid())
        if command == "sparse" and draw(st.booleans()):
            exp["selector"] = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    doc["experiment"] = exp
    return command, doc


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise AssertionError(f"report holds {name}")


def _numbers(x):
    if isinstance(x, bool):
        return
    if isinstance(x, (int, float)):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _numbers(v)
    elif isinstance(x, list):
        for v in x:
            yield from _numbers(v)


def _report_numbers(command, text):
    if command in ("classify", "halmos"):
        return list(_numbers(json.loads(text, parse_constant=_reject_constant)))
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert rows[0] == "n,rank,u,s1,s2,ratio1,ratio2"
    return [float(x) for row in rows[1:] for x in row.split(",")]


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_documents())
def test_schema_valid_documents_keep_the_exit_contract(spec_dir, command_doc):
    command, doc = command_doc
    cli.validate_document(doc)
    path = spec_dir / "spec.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path), "--no-timestamp"])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert out.getvalue() == "" and err.getvalue()
        return
    for x in _report_numbers(command, out.getvalue()):
        assert math.isfinite(x), out.getvalue()
