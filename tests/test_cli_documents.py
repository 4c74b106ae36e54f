"""The CLI's exit-code contract over schema-valid spec documents.

Hypothesis draws whole spec documents for every subcommand from hand-written
strategies that follow src/foelner/schema.json: every operator kind nested in
sums, scales and products, weight rules that are well formed or not, huge and
tiny coefficients, canonical, sparse and blocks projections whose index lists
may be out of order, Hermitian and other Toeplitz symbols, matrix files,
p, q elements well formed or not, small experiments (n <= 64, window <= 256,
search_limit <= 64, dim <= 12, degree <= 8 per factor) and amenability
epsilons down to 1/10^30.  Each document is checked
against the schema first.  A run must exit 0, 2 or 3 without a traceback,
and a report that exits 0 must hold only finite numbers.  The same documents,
mutated at random places (ints as floats, bools, empty arrays, both `rule`
and `indices`, ...), must get the same valid/invalid verdict from the CLI's
built-in schema check as from jsonschema.
"""

import contextlib
import copy
import io
import json
import math
from fractions import Fraction

import jsonschema
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

def _hermitian_toeplitz(upper):
    """The toeplitz with bands c_d for d >= 0 and c_-d = conj(c_d): szego's operators."""
    bands = {}
    for d, c in upper.items():
        re, im = c if isinstance(c, list) else (c, 0)
        bands[str(d)] = re if d == 0 else [re, im]
        if d:
            bands[str(-d)] = [re, -im]
    return {"kind": "toeplitz", "bands": bands}


_HERMITIAN_TOEPLITZ = st.dictionaries(st.integers(0, 3), _CNUM, min_size=1,
                                      max_size=3).map(_hermitian_toeplitz)

# matrix files for berg --matrix, written into the spec directory
_MATRICES = {
    "hermitian.txt": "2\n1+0i 0.5-0.5i\n0.5+0.5i -1+0i\n",
    "not_hermitian.txt": "2\n1+0i 2+0i\n0+0i 1+0i\n",
    "huge.txt": "2\n1e308+0i 1e308+0i\n1e308+0i 1e308+0i\n",
    "large.txt": "2\n1e150+0i 3e149-1e149i\n3e149+1e149i -2e150+0i\n",
    "nan.txt": "1\nnan+0i\n",
    "zero.txt": "1\n0+0i\n",
    "short.txt": "3\n1+0i\n",
    "garbage.txt": "2\na b c d\n",
}

_COEFFICIENT = st.one_of(
    st.sampled_from(["2", "1/2", "i", "3/7", "0", "1" + "0" * 400, "1" + "0" * 300,
                     "1/" + "1" + "0" * 400]),
    st.integers(1, 50).map(str))
_FACTOR = st.builds(str.__add__, st.sampled_from("pq"),
                    st.sampled_from(["", "^0", "^1", "^2", "^3", "^8"]))


@st.composite
def _element(draw, max_terms=3):
    """Element text: signed terms of a coefficient and p, q factors; sometimes malformed."""
    if not draw(st.integers(0, 9)):
        return draw(st.sampled_from(["p^", "*q", "1/0", "p q", "p^-1", "x", "+", "0"]))
    text = ""
    for t in range(draw(st.integers(1, max_terms))):
        factors = draw(st.lists(st.one_of(_COEFFICIENT, _FACTOR), min_size=1, max_size=3))
        sign = draw(st.sampled_from(["+", "-"])) if t else draw(st.sampled_from(["", "-"]))
        text += f" {sign} " + "*".join(factors)
    return text.strip()


# amenability witnesses are closed forms, so any degree and any rational epsilon is cheap
_SMALL_ELEMENT = st.builds(
    lambda c, k, l, rest: "*".join([c, *(["p^%d" % k] if k else []),
                                     *(["q^%d" % l] if l else [])]) + rest,
    st.sampled_from(["1", "2", "i", "1/3", "1" + "0" * 400]),
    st.integers(0, 2), st.integers(0, 1),
    st.sampled_from(["", " + q", " - p*q", " + i", " + 0"]))
_WITNESS_EPSILON = st.one_of(
    st.sampled_from(["1", "1/2", "1/4", "3", "0", "7/9", "1/2000", "1/" + "1" + "0" * 30]),
    st.builds("{}/{}".format, st.integers(1, 10**6), st.integers(1, 10**30)),
    st.builds(str, st.integers(1, 10**6)),
    st.floats(1e-30, 4.0))


_SELECTOR = st.lists(st.integers(1, 12), min_size=1, max_size=5)


def _experiment(draw, command):
    """The experiment block for one subcommand."""
    if command == "halmos":
        exp = {"window": draw(st.integers(1, 256)), "search_limit": draw(st.integers(1, 64))}
        if draw(st.booleans()):
            exp["epsilon"] = draw(_EPSILON)
        if draw(st.integers(0, 3)) == 0:
            exp["selector"] = draw(_SELECTOR)
        return exp
    if command == "berg":
        exp = {"dim": draw(st.integers(1, 12)),
               "seed": draw(st.one_of(st.integers(0, 2**32), st.just(2**70)))}
        if draw(st.integers(0, 3)) == 0:
            exp["matrix"] = draw(st.sampled_from(sorted(_MATRICES) + ["absent.txt"]))
        if draw(st.booleans()):
            exp["epsilon"] = draw(_EPSILON)
        return exp
    if command == "szego":
        return {"ns": draw(st.lists(st.integers(1, 64), min_size=1, max_size=4)),
                "ps": draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))}
    if command == "weyl-amenability":
        exp = {"elements": draw(st.lists(st.one_of(_SMALL_ELEMENT, _element(1)),
                                         min_size=1, max_size=3))}
        if draw(st.booleans()):
            exp["epsilon"] = draw(_WITNESS_EPSILON)
        return exp
    if command == "weyl-represent":
        return {"element": draw(_element()), "window": draw(st.integers(1, 64))}
    exp = draw(_grid())
    if draw(st.booleans()):
        exp["selector"] = draw(_SELECTOR)
    return exp


_COMMANDS = ["norms", "classify", "sparse", "halmos", "berg", "szego", "weyl-amenability",
             "weyl-represent"]


@st.composite
def _documents(draw):
    """(subcommand, spec document)."""
    command = draw(st.sampled_from(_COMMANDS))
    doc = {}
    if draw(st.integers(0, 9)):
        doc["operator"] = draw(_HERMITIAN_TOEPLITZ if command == "szego" and draw(st.booleans())
                               else _OPERATOR)
    projection = draw(_PROJECTION)
    if projection is not None:
        doc["projection"] = projection
    doc["experiment"] = _experiment(draw, command)
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


_HEADERS = {"norms": "n,rank,u,s1,s2,ratio1,ratio2", "sparse": "n,rank,u,s1,s2,ratio1,ratio2",
            "szego": "n,p,empirical,reference,gap",
            "weyl-amenability": "element,n,dim_vn,dim_sum,ratio"}


def _report_numbers(command, text):
    if command in ("classify", "halmos", "berg"):
        return list(_numbers(json.loads(text, parse_constant=_reject_constant)))
    meta = [ln[2:].split(" ", 1) for ln in text.splitlines() if ln.startswith("# ")]
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if command == "weyl-represent":
        assert int(rows[0]) == len(rows) - 1
        return [float(x) for row in rows[1:] for tok in row.split()
                for x in (complex(tok.replace("i", "j")).real, complex(tok.replace("i", "j")).imag)]
    assert rows[0] == _HEADERS[command]
    cells = [row.split(",") for row in rows[1:]]
    if command == "weyl-amenability":
        # every column but the element text is an exact integer or rational
        return [float(Fraction(x)) for row in cells for x in row[1:]]
    fitted = [float(v) for k, v in meta if k.startswith("fitted-C-")]
    return fitted + [float(x) for row in cells for x in row]


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    for name, text in _MATRICES.items():
        (path / name).write_text(text)
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_documents())
def test_schema_valid_documents_keep_the_exit_contract(spec_dir, command_doc):
    command, doc = command_doc
    if "matrix" in doc["experiment"]:
        doc["experiment"]["matrix"] = str(spec_dir / doc["experiment"]["matrix"])
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


# ---------------------------------------------------------------------------
# the built-in schema check against jsonschema
# ---------------------------------------------------------------------------

_VALUES = [True, False, None, 0, 1, -1, 2.5, math.nan, "", "x", "pow2", "creation", [], {}]
_TEXT_EDGES = ["", "x", "1/10", "0.5", "01", "-1", "1.5"]
_NUMBER_EDGES = [0, 1, -1, 0.0, 1.0, True, False, math.nan, math.inf]
# keys to add, each with values that may make its dict valid or not
_EXTRA_KEYS = {"rule": ["pow2", "x"], "indices": [[1, 2], [0]], "selector": [[1], []],
               "weight": ["log", ""], "kind": ["sparse", "x"], "x": [1],
               "0": [1, [1, 2, 3]], "01": [1], "-1": [[1, 2]], "epsilon": ["1/10", 0]}
# mutation -> the values it applies to
_TARGETS = {"edge": lambda v: isinstance(v, (int, float, str)), "resize": lambda v: isinstance(v, list),
            "add key": lambda v: isinstance(v, dict), "delete": lambda v: True,
            "replace": lambda v: True}


def _nodes(x, path=()):
    """(path, value) of x and of every value inside it."""
    yield path, x
    inside = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in inside:
        yield from _nodes(v, (*path, k))


@st.composite
def _mutated_documents(draw):
    """A drawn document with one to three values moved to an edge, resized, added or deleted."""
    doc = copy.deepcopy(draw(_documents())[1])   # st.just values are shared
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(sorted(_TARGETS)))
        targets = [(p, v) for p, v in _nodes(doc) if _TARGETS[how](v) and (p or how != "delete")]
        if not targets:
            continue
        path, old = draw(st.sampled_from(targets))
        if how == "edge":
            new = draw(st.sampled_from(_TEXT_EDGES if isinstance(old, str)
                                       else [float(old), old + 0.5, *_NUMBER_EDGES]))
        elif how == "resize":
            new = draw(st.sampled_from([[], old[:1], old + old[:1], [*old, True]]))
        elif how == "add key":
            key = draw(st.sampled_from(sorted(_EXTRA_KEYS)))
            new = {**old, key: draw(st.sampled_from(_EXTRA_KEYS[key]))}
        else:
            new = None if how == "delete" else draw(st.sampled_from(_VALUES))
        new = copy.deepcopy(new)                 # later mutations write into it
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if not path:
            doc = new
        elif how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return doc


@pytest.fixture(scope="module")
def jsonschema_validator():
    schema = cli.spec_schema()
    return jsonschema.validators.validator_for(schema)(schema)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(_documents().map(lambda pair: pair[1]), _mutated_documents()))
def test_built_in_check_agrees_with_jsonschema(jsonschema_validator, doc):
    assert cli._conforms(doc, cli.spec_schema()) == jsonschema_validator.is_valid(doc)


def _scale(factor):
    return {"operator": {"kind": "scale", "factor": factor, "child": {"kind": "creation"}}}


# each keyword at the edge where a looser reading would change the verdict
@pytest.mark.parametrize("doc", [
    {}, [], None, {"projection": {"kind": "sparse", "rule": "pow2"}},
    {"projection": {"kind": "sparse", "rule": "pow2", "indices": [1]}},
    {"projection": {"kind": "sparse"}}, {"projection": {"kind": "blocks", "boundaries": [0]}},
    {"experiment": {"window": 1.0}}, {"experiment": {"window": 1e308}},
    {"experiment": {"window": True}}, {"experiment": {"window": 1.5}},
    {"experiment": {"window": 0}}, {"experiment": {"n_start": math.nan}},
    {"experiment": {"n_geometric": 1}}, {"experiment": {"n_geometric": 1.0000001}},
    {"experiment": {"n_geometric": math.nan}}, {"experiment": {"epsilon": 0}},
    {"experiment": {"epsilon": False}}, {"experiment": {"epsilon": "x"}},
    {"experiment": {"epsilon": "1/10"}}, {"experiment": {"epsilon": "1/10\n"}},
    {"experiment": {"epsilon": ""}}, {"experiment": {"elements": ["p", ""]}},
    {"experiment": {"selector": []}}, {"experiment": {"ns": [1, True]}},
    _scale([1, 2]), _scale([1, 2, 3]), _scale([1]), _scale([1, True]), _scale(True),
    {"operator": {"kind": "toeplitz", "bands": {"-1": 1}}},
    {"operator": {"kind": "toeplitz", "bands": {"01": 1}}},
    {"operator": {"kind": "toeplitz", "bands": {"x": 1}}},
    {"operator": {"kind": "toeplitz", "bands": {}}},
    {"operator": {"kind": "creation", "weight": "log"}}, {"operator": {"kind": "diagonal"}},
    {"operator": {"kind": "diagonal", "weight": ""}}, {"operator": {"kind": True}},
    {"operator": {"kind": "sum", "children": []}},
])
def test_built_in_check_agrees_with_jsonschema_at_the_edges(jsonschema_validator, doc):
    assert cli._conforms(doc, cli.spec_schema()) == jsonschema_validator.is_valid(doc)


# enum and const compare as JSON values: 1 == 1.0, but a bool equals only itself
@pytest.mark.parametrize("node, x", [
    ({"enum": [1]}, True), ({"enum": [1]}, 1.0), ({"enum": [True]}, 1), ({"const": 0}, False),
    ({"const": False}, 0), ({"const": False}, False), ({"const": "a"}, "a"),
    ({"enum": ["a"]}, ["a"])])
def test_enum_and_const_tell_bools_from_numbers(node, x):
    assert cli._conforms(x, node) == jsonschema.Draft202012Validator(node).is_valid(x)
