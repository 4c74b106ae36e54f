import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foelner import cli, decomp, norms, ops
from foelner.errors import FoelnerError, InvalidSpec

REPO = Path(__file__).resolve().parents[1]
SPECS = sorted((REPO / "specs").glob("*.json"))


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_spec_corpus_is_nonempty():
    assert len(SPECS) >= 10


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_spec_corpus_validates(path):
    doc = json.loads(path.read_text())
    cli.validate_document(doc)


_OPERATOR_FILES = [p for p in SPECS if "operator" in json.loads(p.read_text())]
_ONE_PER_KIND = [
    {"kind": "weighted_shift", "weight": "log"},
    {"kind": "adjoint_weighted_shift", "weight": "pow:-0.5"},
    {"kind": "diagonal", "weight": "const:2"},
    {"kind": "dilation_shift", "weight": "linear"},
    {"kind": "example_A"},
    {"kind": "toeplitz", "bands": {"3": 0.25, "-1": [0.5, 1], "0": 2}},
    {"kind": "hermite_q"},
    {"kind": "hermite_p"},
    {"kind": "creation"},
    {"kind": "annihilation"},
    {"kind": "sum", "children": [{"kind": "creation"}, {"kind": "annihilation"}]},
    {"kind": "scale", "factor": [0, -1], "child": {"kind": "hermite_p"}},
    {"kind": "product", "children": [{"kind": "diagonal", "weight": "sqrt"},
                                     {"kind": "dilation_shift"}]},
]


# a toeplitz whose bands are all zero is the zero operator; its JSON keeps a zero band
_ZERO_TOEPLITZ = {"kind": "toeplitz", "bands": {"0": 0}}


@pytest.mark.parametrize(
    "doc", [json.loads(p.read_text())["operator"] for p in _OPERATOR_FILES] + _ONE_PER_KIND
    + [_ZERO_TOEPLITZ],
    ids=[p.stem for p in _OPERATOR_FILES] + [d["kind"] for d in _ONE_PER_KIND]
    + ["toeplitz_zero"])
def test_operator_json_round_trip(doc):
    spec = cli.parse_operator(doc)
    again = cli.parse_operator(cli.operator_to_json(spec))
    assert again == spec
    cli.validate_document({"operator": cli.operator_to_json(spec)})


def test_schema_operator_kinds_match_term_table():
    kinds = set()
    for alt in cli.spec_schema()["$defs"]["operator"]["oneOf"]:
        k = alt["properties"]["kind"]
        kinds |= set(k.get("enum", [k.get("const")]))
    assert kinds == set(ops._PRIMITIVES) | {"sum", "scale", "product"}
    assert {d["kind"] for d in _ONE_PER_KIND} == kinds


def test_unknown_field_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"operator": {"kind": "hermite_q"}, "oops": 1}))
    code, _, err = run(["norms", bad], capsys)
    assert code == 2
    assert "oops" in err


def test_malformed_json_exits_2_without_output(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "report.csv"
    code, _, err = run(["norms", bad, "-o", out], capsys)
    assert code == 2
    assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(["norms", tmp_path / "absent.json"], capsys)
    assert code == 2


def test_computation_error_exits_3_with_class_name(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, err = run(["classify", REPO / "specs" / "shift_log_classify.json",
                        "--n-end", "64", "-o", out], capsys)
    assert code == 3
    assert "TooFewSamples" in err
    assert not out.exists()


def test_norms_sqrt_table(tmp_path, capsys):
    code, out, _ = run(["norms", REPO / "specs" / "shift_sqrt_norms.json",
                        "--no-timestamp"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "n,rank,u,s1,s2,ratio1,ratio2"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["10", "100", "1000"]
    assert all(r[6] == "1.0" for r in rows)
    meta = [l for l in out.splitlines() if l.startswith("#")]
    assert any("spec-sha256" in l for l in meta)


def test_norms_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for dest in (a, b):
        code, _, _ = run(["norms", REPO / "specs" / "composite_norms.json",
                          "--no-timestamp", "-o", dest], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_classify_json_deterministic_and_sane(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        code, _, _ = run(["classify", REPO / "specs" / "shift_log_classify.json",
                          "--no-timestamp", "-o", dest], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["verdicts"]["ratio1"]["kind"] == "tends_to_zero"
    assert doc["verdicts"]["ratio2"]["kind"] == "tends_to_zero"
    assert len(doc["rows"]) >= 8


def test_halmos_json_report(tmp_path, capsys):
    code, out, _ = run(["halmos", REPO / "specs" / "halmos_inverse.json",
                        "--window", "256", "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["boundaries"] == [41, 81, 161]
    assert doc["k_norm"] == pytest.approx(1 / 41, abs=1e-15)
    assert doc["offblock_residual"] == 0.0
    assert doc["reconstruction_error"] <= 1e-14
    assert doc["ok"] is True


def test_halmos_splits_a_blocks_family_at_its_ranks(tmp_path, capsys):
    # the search picks family indices 2, 3, 4; the split is at their ranks
    doc = {"operator": {"kind": "weighted_shift", "weight": "inverse"},
           "projection": {"kind": "blocks", "boundaries": [0, 5, 10, 20, 40, 60]},
           "experiment": {"epsilon": 0.5, "window": 64, "search_limit": 5}}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, out, _ = run(["halmos", spec, "--no-timestamp"], capsys)
    assert code == 0
    got = json.loads(out)
    assert (got["boundaries"], got["k_norm"], got["ok"]) == ([10, 20, 40], 0.1, True)
    # the default search limit stops at the family's fifth and last member
    del doc["experiment"]["search_limit"]
    spec.write_text(json.dumps(doc))
    limited = run(["halmos", spec, "--search-limit", "5", "--no-timestamp"], capsys)
    assert run(["halmos", spec, "--no-timestamp"], capsys) == limited
    assert json.loads(limited[1])["boundaries"] == [10, 20, 40]
    # sparse projections are not initial segments: refused before the search
    doc["projection"] = {"kind": "sparse", "indices": [2, 4, 8, 16, 32]}
    spec.write_text(json.dumps(doc))
    code, out, err = run(["halmos", spec, "--no-timestamp"], capsys)
    assert (code, out) == (2, "") and err.startswith("InvalidSpec: halmos splits")


def test_halmos_searches_below_the_window_as_the_full_search(tmp_path, capsys, monkeypatch):
    # the split drops boundaries at or past the window, so the search scans the members
    # ranked below it; report, refusal and exit code are those of the search to the limit
    blocks = tmp_path / "blocks.json"
    blocks.write_text(json.dumps({
        "operator": {"kind": "weighted_shift", "weight": "inverse"},
        "projection": {"kind": "blocks", "boundaries": [0, 5, 10, 20, 40, 60]},
        "experiment": {"epsilon": 0.5}}))
    scan, limits = decomp.select_subsequence, []

    def counted(*args, search_limit):
        limits.append(search_limit)
        return scan(*args, search_limit=search_limit)

    seen = set()
    for spec in (REPO / "specs" / "halmos_inverse.json", blocks):
        for window in (1, 30, 64, 1024, 2048, 20_000):
            for limit in (5, 10_000):
                argv = ["halmos", spec, "--window", window, "--search-limit", limit,
                        "--no-timestamp"]
                limits.clear()
                with monkeypatch.context() as m:
                    m.setattr(decomp, "select_subsequence", counted)
                    got = run(argv, capsys)
                    m.setattr(decomp, "select_subsequence",
                              lambda *args, search_limit: scan(*args, search_limit=limit))
                    assert got == run(argv, capsys)
                seen.add(got[0] if got[0] == 0 else got[2].split(":")[0])
                if spec != blocks:
                    # the first scan stops below the window; a refusal scans on to the limit
                    assert limits[0] == (min(window - 1, limit) or limit)
    assert seen == {0, "WindowTooSmall", "NotQuasidiagonalAlongFamily"}
    window_too_small = run(["halmos", REPO / "specs" / "halmos_inverse.json", "--window", 30],
                           capsys)
    assert window_too_small[2].startswith("WindowTooSmall:")
    refused = run(["halmos", REPO / "specs" / "halmos_inverse.json", "--window", 30,
                   "--search-limit", 20], capsys)
    assert refused[0] == 3 and refused[2].startswith("NotQuasidiagonalAlongFamily:")


def test_sparse_table(tmp_path, capsys):
    code, out, _ = run(["sparse", REPO / "specs" / "sparse_pow2.json",
                        "--n-start", "1", "--n-end", "8", "--no-timestamp"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert [r[0] for r in rows] == [str(t) for t in range(1, 9)]
    ratio2 = [float(r[6]) for r in rows]
    assert ratio2[-1] < ratio2[0]


def test_sparse_rejects_canonical_projection(tmp_path, capsys):
    doc = {"operator": {"kind": "weighted_shift", "weight": "inverse"},
           "projection": {"kind": "canonical"}}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(["sparse", f], capsys)
    assert code == 2


def test_sparse_refuses_a_selector_on_a_sparse_projection(tmp_path, capsys):
    doc = json.loads((REPO / "specs" / "sparse_pow2.json").read_text())
    doc["experiment"]["selector"] = [1, 3]
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(["sparse", f], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("InvalidSpec: experiment.selector ")


def _table(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def _ratios(r):
    """A report row (dict or NormReport) with its ratios by Python's per-row division."""
    r = r if isinstance(r, dict) else vars(r)
    return {**r, "ratio1": r["s1"] / r["rank"], "ratio2": r["s2"] / math.sqrt(r["rank"])}


def _norm_csv(rows):
    """The header and rows of a norms table, formatted one row at a time."""
    keys = ("n", "rank", "u", "s1", "s2", "ratio1", "ratio2")
    return [",".join(keys)] + [",".join(repr(r[k]) for k in keys) for r in map(_ratios, rows)]


@pytest.mark.parametrize("command", ["norms", "classify"])
def test_norms_and_classify_tabulate_the_selected_family(command, tmp_path, capsys):
    # ten of twenty unit blocks, so classify has its eight samples
    doc = {"operator": {"kind": "example_A"},
           "projection": {"kind": "blocks", "boundaries": list(range(1, 21))},
           "experiment": {"selector": list(range(2, 21, 2)), "n_start": 1, "n_end": 10, "n_step": 1}}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    code, want, _ = run(["sparse", f, "--no-timestamp"], capsys)
    assert code == 0
    code, out, err = run([command, f, "--no-timestamp"], capsys)
    assert code == 0, err
    got = _table(out) if command == "norms" else _norm_csv(json.loads(out)["rows"])
    assert got == _table(want)
    del doc["experiment"]["selector"]
    f.write_text(json.dumps(doc))
    assert _table(run(["sparse", f, "--no-timestamp"], capsys)[1]) != got


def _spec_doc(name, **experiment):
    doc = json.loads((REPO / "specs" / f"{name}.json").read_text())
    doc["experiment"] = experiment
    return doc


def _grid_of(doc):
    exp = doc["experiment"]
    return (cli.parse_operator(doc["operator"]),
            cli.parse_projection(doc.get("projection"), exp.get("selector")),
            cli.n_grid(exp["n_start"], exp["n_end"], exp.get("n_step"), exp.get("n_geometric")))


_COLUMN_CASES = {
    "canonical": _spec_doc("shift_sqrt_norms", n_start=1, n_end=3000, n_step=1),
    "geometric": _spec_doc("hermite_classify", n_start=3, n_end=40000, n_geometric=1.7),
    "pow2": _spec_doc("sparse_pow2", n_start=1, n_end=12, n_step=1),
    "blocks": {"operator": {"kind": "example_A"},
               "projection": {"kind": "blocks", "boundaries": list(range(0, 91, 3))},
               "experiment": {"selector": list(range(1, 31, 3)), "n_start": 1, "n_end": 10,
                              "n_step": 1}},
    "composite": _spec_doc("composite_norms", n_start=1, n_end=700, n_step=3),
}


@pytest.mark.parametrize("gather", [None, 64])
@pytest.mark.parametrize("case", _COLUMN_CASES)
def test_tables_are_the_formatted_reports(case, gather, monkeypatch, tmp_path, capsys):
    # oracle: the tables carried as columns equal report_sequence's rows, formatted here;
    # a small _GATHER cuts a canonical grid into many groups
    if gather:
        monkeypatch.setattr(norms, "_GATHER", gather)
    doc = _COLUMN_CASES[case]
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    rows = norms.report_sequence(*_grid_of(doc))
    for command in ["norms", "sparse"] if case in ("pow2", "blocks") else ["norms"]:
        code, out, err = run([command, f, "--no-timestamp"], capsys)
        assert (code, err) == (0, "")
        assert _table(out) == _norm_csv(rows)
    code, out, err = run(["classify", f, "--no-timestamp"], capsys)
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert got["rows"] == [_ratios(r) for r in rows] == [vars(r) for r in rows]
    assert got["verdicts"] == {k: json.loads(json.dumps(vars(norms.classify(
        [getattr(r, k) for r in rows])))) for k in ("ratio1", "ratio2")}


_LATE_DOC = {"operator": {"kind": "product", "children": [
    {"kind": "weighted_shift", "weight": "pow:84"}, {"kind": "diagonal", "weight": "pow:-83.9"}]},
    "experiment": {"n_start": 1, "n_end": 20000, "n_step": 1}}


@pytest.mark.parametrize("doc", [
    _LATE_DOC,
    {**_LATE_DOC, "experiment": {"n_start": 4600, "n_end": 4700, "n_step": 1}},
    {"operator": {"kind": "dilation_shift", "weight": "const:1e154"},
     "experiment": {"n_start": 1, "n_end": 7, "n_step": 1}},
    {"operator": {"kind": "creation"}, "projection": {"kind": "sparse", "rule": "pow2"},
     "experiment": {"n_start": 1000, "n_end": 1100, "n_step": 7}},
], ids=["late", "late_short", "dilation_1e154", "creation_pow2"])
@pytest.mark.parametrize("command", ["norms", "sparse", "classify"])
def test_failing_tables_print_what_report_sequence_raises(command, doc, tmp_path, capsys):
    if command == "sparse" and "projection" not in doc:
        doc = {**doc, "projection": {"kind": "blocks", "boundaries": list(range(0, 5001, 1))}}
    with pytest.raises(FoelnerError) as want:
        norms.report_sequence(*_grid_of(doc))
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    assert run([command, f, "--no-timestamp"], capsys) == (
        3, "", f"{type(want.value).__name__}: {want.value}\n")


@pytest.mark.parametrize("command, name", [
    ("norms", "shift_sqrt_norms"), ("norms", "composite_norms"), ("sparse", "sparse_pow2"),
    ("sparse", "blocks_selector"), ("classify", "hermite_classify")])
def test_tables_build_no_norm_report(command, name, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a table built a NormReport")

    monkeypatch.setattr(norms, "NormReport", refuse)
    code, out, err = run([command, REPO / "specs" / f"{name}.json", "--no-timestamp"], capsys)
    assert (code, err) == (0, "") and _table(out)


def test_tables_at_n_past_int64_keep_their_bytes(tmp_path, capsys):
    doc = {"operator": {"kind": "weighted_shift", "weight": "const:1"},
           "experiment": {"n_start": 9223372036854775000, "n_end": 9223372036854777000,
                          "n_step": 500}}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(["norms", f, "--no-timestamp"], capsys)
    assert (code, err) == (0, "")
    assert _table(out) == ["n,rank,u,s1,s2,ratio1,ratio2"] + [
        f"{n},{n},1.0,1.0,1.0,{r1},{r2}" for n, r1, r2 in (
            (9223372036854775000, "1.0842021724855047e-19", "3.2927225399135965e-10"),
            (9223372036854775500, "1.0842021724855044e-19", "3.292722539913596e-10"),
            (9223372036854776000, "1.0842021724855044e-19", "3.292722539913596e-10"),
            (9223372036854776500, "1.0842021724855044e-19", "3.292722539913596e-10"),
            (9223372036854777000, "1.0842021724855042e-19", "3.292722539913596e-10"))]


def test_a_geometric_step_past_the_float_range_ends_the_grid(tmp_path, capsys):
    assert cli.n_grid(1, 2 ** 1100, None, 1e300) == [1, int(1e300)]
    assert cli.n_grid(2 ** 1030, 2 ** 1100, None, 2.0) == [2 ** 1030]
    doc = {"operator": {"kind": "weighted_shift", "weight": "const:1"},
           "experiment": {"n_start": 1, "n_end": 2 ** 1100, "n_geometric": 1e300}}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(["norms", f, "--no-timestamp"], capsys)
    assert (code, err) == (0, "")
    assert _table(out)[1:] == ["1,1,1.0,1.0,1.0,1.0,1.0",
                               f"{int(1e300)},{int(1e300)},1.0,1.0,1.0,1e-300,1e-150"]


@pytest.mark.parametrize("command", ["norms", "classify"])
def test_ranks_past_the_float_range_are_refused(command, tmp_path, capsys):
    # the seminorms at n = 2^1030 are finite, but s1 / n is not a float division
    doc = {"operator": {"kind": "weighted_shift", "weight": "const:1"},
           "experiment": {"n_start": 2 ** 1030, "n_end": 2 ** 1030 + 2, "n_step": 1}}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    assert run([command, f, "--no-timestamp"], capsys) == (
        2, "", "InvalidSpec: the grid reaches ranks past the float range, "
               "where the ratios are not defined\n")


@pytest.mark.parametrize("command", ["norms", "classify", "halmos", "sparse"])
@pytest.mark.parametrize("projection", [None, {"kind": "canonical"},
                                        {"kind": "sparse", "rule": "pow2"}],
                         ids=["absent", "canonical", "sparse"])
def test_a_selector_needs_a_blocks_projection(command, projection, tmp_path, capsys):
    doc = {"operator": {"kind": "weighted_shift", "weight": "inverse"},
           "experiment": {"selector": [1, 3]}}
    if projection is not None:
        doc["projection"] = projection
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    code, out, err = run([command, f], capsys)
    assert (code, out) == (2, "")
    kind = (projection or {"kind": "canonical"})["kind"]
    if command == "sparse" and kind == "canonical":
        assert err.startswith("InvalidSpec: sparse needs a sparse or blocks projection")
    else:
        assert err == ("InvalidSpec: experiment.selector picks blocks of a blocks projection, "
                       f"and this projection is {kind}\n")


def test_halmos_refuses_a_selector(tmp_path, capsys):
    # the unions of the selected blocks are not initial segments, so there is no split
    doc = json.loads((REPO / "specs" / "blocks_selector.json").read_text())
    doc["experiment"] = {"selector": doc["experiment"]["selector"], "window": 64}
    f = tmp_path / "s.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(["halmos", f], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("InvalidSpec: halmos splits at initial segments, and ")
    del doc["experiment"]["selector"]
    f.write_text(json.dumps(doc))
    assert run(["halmos", f], capsys)[0] != 2


def test_berg_seed_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        code, _, _ = run(["berg", REPO / "specs" / "berg_seeded.json",
                          "--no-timestamp", "-o", dest], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["dim"] == 64
    assert doc["final_rank"] == 64
    assert doc["perturbation_norm"] < doc["epsilon"]
    assert len(doc["block_ranks"]) == len(doc["commutator_norms"])


def test_szego_table_columns(tmp_path, capsys):
    code, out, _ = run(["szego", REPO / "specs" / "szego_cos.json",
                        "--ns", "50,100", "--ps", "2", "--no-timestamp"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "n,p,empirical,reference,gap"
    rows = [l.split(",") for l in lines[1:]]
    assert float(rows[0][4]) == pytest.approx(2 / 50, abs=1e-12)
    assert float(rows[1][4]) == pytest.approx(2 / 100, abs=1e-12)


def test_weyl_amenability_table(tmp_path, capsys):
    code, out, _ = run(["weyl-amenability", REPO / "specs" / "weyl_growth.json",
                        "--no-timestamp"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "element,n,dim_vn,dim_sum,ratio"
    for row in lines[1:]:
        el, n, dim_vn, dim_sum, ratio = row.split(",")
        n = int(n)
        assert int(dim_vn) == (n + 1) * (n + 2) // 2
        assert Fraction(ratio) == Fraction(int(dim_sum), int(dim_vn))
    meta = {l.split()[1]: l.split()[2] for l in out.splitlines()
            if l.startswith("#") and len(l.split()) == 3}
    assert meta.get("witness-n") == "38"


@pytest.mark.parametrize("source", ["flag", "spec"])
def test_weyl_amenability_rejects_nonpositive_epsilon(tmp_path, capsys, source):
    if source == "flag":
        argv = ["weyl-amenability", "--elements", "p", "--epsilon", "0"]
    else:
        spec = tmp_path / "eps.json"
        spec.write_text(json.dumps({"experiment": {"elements": ["p"], "epsilon": "0"}}))
        argv = ["weyl-amenability", spec]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "epsilon must be positive" in err


def test_weyl_amenability_small_epsilon_finds_the_witness(tmp_path, capsys):
    # p at eps = 1/2000: 2/(n + 2) <= 1/2000 first at n = 3998
    code, out, err = run(["weyl-amenability", "--elements", "p", "--epsilon", "1/2000",
                          "--no-timestamp"], capsys)
    assert code == 0, err
    meta = {l.split()[1]: l.split()[2] for l in out.splitlines()
            if l.startswith("#") and len(l.split()) == 3}
    assert meta["witness-n"] == "3998"
    assert meta["cap"] == "12002"
    assert out.splitlines()[-1] == "p,3998,7998000,8001999,2001/2000"


def test_weyl_amenability_epsilon_below_float_resolution_exits_0(tmp_path, capsys):
    # 1 + 1e-20 rounds to 1.0 as a float; the witness and the cap are exact integers
    code, out, err = run(["weyl-amenability", "--elements", "p", "--epsilon",
                          "1/" + "1" + "0" * 20, "--no-timestamp"], capsys)
    assert code == 0, err
    meta = {l.split()[1]: l.split()[2] for l in out.splitlines()
            if l.startswith("#") and len(l.split()) == 3}
    assert meta["witness-n"] == str(2 * 10**20 - 2)
    assert meta["cap"] == str(6 * 10**20 + 2)


def test_weyl_amenability_past_the_digit_limit_exits_3(tmp_path, capsys):
    # dim V_n near 2 * 10^5998 would need more digits than str() of an int allows
    out_file = tmp_path / "w.csv"
    code, out, err = run(["weyl-amenability", "--elements", "p", "--epsilon",
                          "1/" + "1" + "0" * 2999, "-o", out_file], capsys)
    assert code == 3
    assert out == ""
    assert "ResourceLimit" in err
    assert not out_file.exists()


_LOAD_SCRIPT = """
import contextlib, io, sys
import foelner.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert foelner.cli.main(sys.argv[1:]) == 0
print(" ".join(sorted(sys.modules)))
"""

# what the CLI and the exact Weyl core need not load: numpy, and the standard modules
# dataclasses (with inspect), uuid (with platform), datetime, importlib.resources, pathlib
_STARTUP_FREE = {"numpy", "dataclasses", "inspect", "uuid", "datetime", "platform",
                 "importlib.resources", "pathlib"}


@pytest.mark.parametrize("argv", [
    (), ("weyl-amenability", "specs/weyl_growth.json"),
    ("norms", "specs/shift_sqrt_norms.json"), ("classify", "specs/hermite_classify.json"),
    ("sparse", "specs/sparse_pow2.json"), ("halmos", "specs/halmos_inverse.json"),
    pytest.param(("sparse", "specs/hermite_squares.json"), id="sparse-components"),
    ("berg", "specs/berg_seeded.json"), ("szego", "specs/szego_cos.json"),
    ("weyl-represent", "specs/weyl_window.json"),
], ids=lambda argv: argv[0] if argv else "import")
def test_subcommand_loads_only_what_it_needs(argv):
    # the package needs no scipy.linalg (slow to import): numpy.linalg serves every kernel
    sources = sorted((REPO / "src" / "foelner").glob("*.py"))
    assert sources
    assert not [p.name for p in sources if "scipy.linalg" in p.read_text()]
    # no window path loads scipy; the CLI itself and the exact Weyl core load none of
    # _STARTUP_FREE, run under -S so that no site hook loads them first; a valid document
    # loads no jsonschema
    bare = argv[:1] in ((), ("weyl-amenability",))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    res = subprocess.run([sys.executable, *(["-S"] if bare else []), "-c", _LOAD_SCRIPT, *argv],
                         cwd=REPO, env=env, capture_output=True, text=True, check=True)
    loaded = {name for m in res.stdout.split() for name in (m, m.split(".")[0])}
    assert loaded & ({"scipy", "jsonschema"} | (_STARTUP_FREE if bare else set())) == set()


_NAMESPACE_SCRIPT = """
import importlib
namespace = {}
exec("from foelner import *", namespace)
import foelner
for name in foelner.__all__:
    assert getattr(foelner, name) is not None, name
for m in ("errors", "ops", "norms", "decomp", "berg", "szego", "weyl", "cli"):
    assert getattr(foelner, m) is importlib.import_module("foelner." + m), m
assert not hasattr(foelner, "no_such_name")
print(" ".join(sorted(set(namespace) - {"__builtins__"})))
"""

# what `from foelner import *` binds, as when the package imported every module eagerly
_STAR_NAMES = """
AmenabilityWitness BergResult Decomposition
FoelnerError GaussianRational InvalidSpec MonomialSubspace NonHermitianCompression NormReport
NotHermitian NotQuasidiagonalAlongFamily NumericalFailure OperatorSpec ProjectionFamily
RankStall ResourceLimit SelectorOutOfRange SymbolPolynomial SzegoComparison SzegoRow
TooFewSamples Verdict WeightUndefined WeylElement Window WindowTooSmall amenability_witness
berg berg_sequence classify col_support compress decomp degree_monomials
entry errors fitted_gap_constant foelner_ratio halmos_decompose multiply norms ops
parse_element propagation random_hermitian report report_sequence represent row_support
select_subsequence seminorm sparse_family symbol_moment szego szego_compare to_text u_norm
u_sequence weyl
""".split()


def test_lazy_namespace_resolves_every_public_name():
    # a fresh process: every public name and submodule loads on first access
    # (benchmark/tracing.py reaches the modules as attributes of the package)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", _NAMESPACE_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == _STAR_NAMES


@pytest.mark.parametrize("weight", ["const:nan", "const:inf", "pow:nan", "pow:-inf",
                                    "const:abc", "pow:"])
def test_bad_weight_rule_exits_2(tmp_path, capsys, weight):
    doc = json.loads((REPO / "specs" / "shift_sqrt_norms.json").read_text())
    doc["operator"]["weight"] = weight
    spec = tmp_path / "weight.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run(["norms", spec], capsys)
    assert code == 2
    assert out == ""
    assert "weight rule" in err


def test_weyl_represent_feeds_berg(tmp_path, capsys):
    spec = tmp_path / "rep.json"
    spec.write_text(json.dumps({"experiment": {"element": "q^2", "window": 16}}))
    mat = tmp_path / "mat.txt"
    code, _, _ = run(["weyl-represent", spec, "-o", mat, "--no-timestamp"], capsys)
    assert code == 0
    loaded = cli.read_matrix(mat)
    assert loaded.shape == (16, 16)
    assert np.max(np.abs(loaded - loaded.conj().T)) == 0.0

    bspec = tmp_path / "berg.json"
    bspec.write_text(json.dumps({"experiment": {"epsilon": 0.5}}))
    code, out, _ = run(["berg", bspec, "--matrix", mat, "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 16
    assert doc["final_rank"] == 16


def test_berg_sweeps_a_diagonal_window_one_step_per_column(tmp_path, capsys):
    # p^2 + q^2 is diagonal on the Hermite basis, with the distinct values 2n - 1, so the
    # sweep takes the many-step path: one piece and one step per column, with nothing
    # left between the pieces
    code, out, _ = run(["weyl-represent", "--element", "p^2+q^2", "--window", "128",
                        "--no-timestamp"], capsys)
    assert code == 0
    mat = tmp_path / "mat.txt"
    mat.write_text(out)
    code, out, _ = run(["berg", "--matrix", mat, "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 128 and doc["final_rank"] == 128
    assert doc["block_ranks"] == [1] * 128
    assert doc["perturbation_norm"] == 0.0
    assert doc["commutator_norms"] == [0.0] * 128


def test_berg_rejects_non_hermitian_matrix(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("2\n0 1\n0 0\n")
    bspec = tmp_path / "berg.json"
    bspec.write_text(json.dumps({"experiment": {"epsilon": 0.5}}))
    code, _, err = run(["berg", bspec, "--matrix", mat], capsys)
    assert code == 3
    assert "NotHermitian" in err


def test_matrix_format_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    f = tmp_path / "m.txt"
    f.write_text(cli.format_matrix(A, []))
    assert np.array_equal(cli.read_matrix(f), A)


def entry(z):                           # formats numpy scalars one at a time
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"


def _per_entry_text(A):
    return f"{len(A)}\n" + "\n".join(" ".join(entry(z) for z in row) for row in A) + "\n"


def test_matrix_format_matches_per_entry_formatter(tmp_path):
    A = np.array([[-0.0 + 0.0j, complex(0.0, -0.0), complex(np.nan, 1.5)],
                  [complex(np.inf, -np.inf), complex(-1e-300, np.nan), 2.0 - 3.25j],
                  [complex(-np.inf, 0.0), 1e308 + 1e-308j, complex(-0.0, -0.0)]])
    old = _per_entry_text(A)
    assert cli.format_matrix(A, []) == old
    f = tmp_path / "m.txt"
    f.write_text(old)
    np.testing.assert_array_equal(cli.read_matrix(f), A)


# signed zeros, nan, infinities, subnormals and ordinary floats in either part
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310]),
                   st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(_PARTS, _PARTS).map(lambda p: complex(*p)), min_size=n * n, max_size=n * n)
    .map(lambda zs: np.array(zs, dtype=complex).reshape(n, n))))
def test_matrix_format_is_the_per_entry_formatter(A):
    assert cli.format_matrix(A, []) == _per_entry_text(A)
    assert cli.format_matrix(A.T, []) == _per_entry_text(A.T)


def test_version_subprocess():
    res = subprocess.run([sys.executable, "-m", "foelner", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.strip().endswith(cli.__version__ if hasattr(cli, "__version__")
                                       else __import__("foelner").__version__)


def _load_workloads():
    # registered under its own name: its dataclasses look their module up
    name = "benchmark_workloads"
    spec = importlib.util.spec_from_file_location(name, REPO / "benchmark" / "workloads.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_argvs(tmp_path):
    workloads = _load_workloads()
    argvs = [list(case.argv) for w in workloads.WORKLOADS
             for case in workloads.build(w, 1, tmp_path / w)]
    assert {a[0] for a in argvs} == set(cli._SUBCOMMANDS)
    return argvs


def test_a_subparser_alone_parses_as_the_full_parser(tmp_path):
    argvs = _benchmark_argvs(tmp_path)
    argvs += [["halmos", "--epsilon", "1/10"], ["weyl-amenability", "--elements", "p,q"]]
    for argv in argvs:
        assert cli.parse_args(argv) == cli.build_parser().parse_args(argv)


def _printed(parse, argv, capsys):
    """The exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


def test_a_subparser_alone_keeps_every_help_and_usage_error(capsys):
    full = cli.build_parser()
    for argv in [["--help"], ["nope"], []]:
        expected = _printed(full.parse_args, argv, capsys)
        assert expected[0] in (0, 2) and "".join(expected[1])
        assert _printed(cli.parse_args, argv, capsys) == expected
        assert _printed(cli.main, argv, capsys) == expected
    for name in cli._SUBCOMMANDS:
        for argv in [[name, "--help"], [name, "-h"]]:
            expected = _printed(full.parse_args, argv, capsys)
            assert expected[0] == 0 and expected[1].out.startswith(f"usage: foelner {name} ")
            assert _printed(cli.parse_args, argv, capsys) == expected
            assert _printed(cli.main, argv, capsys) == expected


# per subcommand, a flag whose value its type refuses (weyl-amenability's flags take
# any text, so there the flag lacks its value)
_MALFORMED = {"norms": ["--n-start", "x"], "classify": ["--n-geometric", "q"],
              "halmos": ["--window", "x"], "sparse": ["--n-end", "1.5"], "berg": ["--dim", "x"],
              "szego": ["--ns", "1,a"], "weyl-amenability": ["--elements"],
              "weyl-represent": ["--window", "x"]}


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_a_refused_subcommand_call_errs_as_the_full_parser(name, capsys):
    assert _MALFORMED.keys() == cli._SUBCOMMANDS.keys()
    for argv in [[name, "--bogus"], [name, "a.json", "b.json"], [name, "--version"],
                 [name, *_MALFORMED[name]], [name, "--bogus", *_MALFORMED[name]]]:
        expected = _printed(cli.build_parser().parse_args, argv, capsys)
        assert expected[0] == 2 and expected[1].out == "" and "error: " in expected[1].err
        assert _printed(cli.main, argv, capsys) == expected


def test_a_well_formed_call_builds_one_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw))
    cli.build_parser()
    assert len(built) == 1 + len(cli._SUBCOMMANDS)
    for argv in _benchmark_argvs(tmp_path):
        built.clear()
        cli.parse_args(argv)
        assert built == [f"foelner {argv[0]}"]
    built.clear()
    assert cli.main(["weyl-amenability", "--elements", "p", "--no-timestamp"]) == 0
    assert built == ["foelner weyl-amenability"] and capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["halmos", REPO / "specs" / "halmos_inverse.json", "--window", "256"],
    ["berg", REPO / "specs" / "berg_seeded.json"],
], ids=["halmos", "berg"])
def test_epsilon_flag_reads_a_rational(capsys, argv):
    reports = [run([*argv, "--epsilon", eps, "--no-timestamp"], capsys)
               for eps in ("1/10", "0.1", "1e-1")]
    assert reports[0][0] == 0 and json.loads(reports[0][1])["epsilon"] == 0.1
    assert reports[0] == reports[1] == reports[2]


def test_flag_overrides_spec_experiment(tmp_path, capsys):
    # CLI flags win over the experiment block
    code, out, _ = run(["norms", REPO / "specs" / "shift_sqrt_norms.json",
                        "--n-start", "10", "--n-end", "10", "--n-step", "1",
                        "--no-timestamp"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 1
    assert rows[0].split(",")[0] == "10"


@pytest.mark.parametrize("argv", [
    ["weyl-represent", REPO / "specs" / "weyl_window.json", "--window", "100000"],
    ["berg", "--dim", "100000"],
    ["szego", REPO / "specs" / "szego_cos.json", "--ns", "1000000000"],
], ids=["weyl-represent", "berg", "szego"])
def test_dense_window_over_budget_exits_3_without_allocating(tmp_path, capsys, argv):
    out_file = tmp_path / "r.txt"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(argv + ["-o", out_file], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "ResourceLimit" in err
    assert peak < 20 * 2 ** 20
    assert not out_file.exists()


def test_output_is_written_whole_and_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    argv = ["szego", REPO / "specs" / "szego_cos.json", "--no-timestamp"]
    code, expected, _ = run(argv, capsys)
    assert code == 0
    target = tmp_path / "report.csv"
    target.write_text("old report\n")
    code, out, _ = run(argv + ["-o", target], capsys)
    assert code == 0 and out == ""
    assert target.read_text() == expected
    assert list(tmp_path.iterdir()) == [target]
    # a bare name lands in the working directory, its temp file beside it
    target.unlink()
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["-o", "report.csv"], capsys) == (0, "", "")
    assert target.read_text() == expected
    assert list(tmp_path.iterdir()) == [target]


def test_reports_are_stamped_with_the_utc_time(capsys):
    spec = REPO / "specs" / "weyl_growth.json"
    code, csv, _ = run(["weyl-amenability", spec], capsys)
    assert code == 0
    code, report, _ = run(["halmos", REPO / "specs" / "halmos_inverse.json", "--window", 64],
                          capsys)
    assert code == 0
    stamps = [line.removeprefix("# generated ") for line in csv.splitlines()
              if line.startswith("# generated ")] + [json.loads(report)["meta"]["generated"]]
    assert len(stamps) == 2
    for stamp in stamps:
        when = datetime.fromisoformat(stamp)
        assert when.utcoffset() == timedelta(0)
        assert abs(datetime.now(timezone.utc) - when) < timedelta(seconds=5)
    # the stamp is the string datetime writes for the time
    before, stamp = datetime.now(timezone.utc), cli._stamp()
    after = datetime.now(timezone.utc)
    assert stamp in {t.isoformat(timespec="seconds") for t in (before, after)}


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "absent" / "report.csv"
    code, out, err = run(["szego", REPO / "specs" / "szego_cos.json", "-o", target], capsys)
    assert code == 2 and out == ""
    assert "cannot write the report" in err and "absent" in err
    assert list(tmp_path.iterdir()) == []


def test_overflowing_seminorms_exit_3(tmp_path, capsys):
    # the entries are finite, but s1 and s2 overflow
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"operator": {
        "kind": "toeplitz", "bands": {"0": 1e308, "1": 1e308, "-1": 1e308}}}))
    out = tmp_path / "r.csv"
    code, _, err = run(["norms", spec, "--n-start", "2", "--n-end", "4", "--n-step", "1",
                        "-o", out], capsys)
    assert code == 3
    assert "NumericalFailure" in err
    assert not out.exists()


def test_overflowing_s2_of_small_segments_exits_3(tmp_path, capsys):
    # the grid's table of small segments gives s2 = inf, as the one-point report does
    spec = tmp_path / "dilation.json"
    spec.write_text(json.dumps({"operator": {"kind": "dilation_shift", "weight": "const:1e154"}}))
    code, out, err = run(["norms", spec, "--n-start", "6", "--n-end", "7", "--n-step", "1"],
                         capsys)
    assert code == 3 and out == ""
    assert err.startswith("NumericalFailure: seminorms of [T, R_6] are not finite")
    assert "Traceback" not in err


def test_szego_past_the_trace_budget_exits_3_at_once(tmp_path, capsys):
    # reach 1000 at n = 10^4 bounds the row loop at about 2 10^11 products, hours of work
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"operator": {"kind": "toeplitz", "bands": {
        str(d): 1 for d in range(-1000, 1001)}}, "experiment": {"ns": [10, 10000]}}))
    start = time.perf_counter()
    code, out, err = run(["szego", spec, "--ps", "1,2,3,4"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("ResourceLimit: the traces at n=10000 up to power 4 ")


def test_failed_rename_keeps_old_output_and_no_temp_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.csv"
    target.write_text("old report\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(["szego", REPO / "specs" / "szego_cos.json", "-o", target], capsys)
    assert code == 2 and out == ""
    assert "cannot write the report" in err and "rename refused" in err
    assert target.read_text() == "old report\n"
    assert list(tmp_path.iterdir()) == [target]


def test_output_onto_a_directory_exits_2_and_leaves_it_alone(tmp_path, capsys):
    target = tmp_path / "reports"
    target.mkdir()
    (target / "kept.csv").write_text("kept\n")
    code, out, err = run(["norms", REPO / "specs" / "shift_sqrt_norms.json", "-o", target],
                         capsys)
    assert code == 2 and out == ""
    assert "cannot write the report" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == [target / "kept.csv"]
    assert (target / "kept.csv").read_text() == "kept\n"


def test_shipped_schema_passes_its_meta_schema():
    # validate_document builds its validator without checking the schema
    schema = cli.spec_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("doc", [
    [], {"oops": 1}, {"operator": {"kind": "nope"}},
    {"operator": {"kind": "toeplitz", "bands": {}}},
    {"operator": {"kind": "sum", "children": [{"kind": "x"}]}},
    {"projection": {"kind": "sparse"}}, {"experiment": {"n_start": -1}}])
def test_rejection_message_is_that_of_jsonschema_validate(doc):
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(doc, cli.spec_schema())
    path = "/".join(str(p) for p in exc.value.absolute_path) or "<root>"
    with pytest.raises(InvalidSpec) as got:
        cli.validate_document(doc)
    assert str(got.value) == f"spec rejected at {path}: {exc.value.message}"


def _keywords(node):
    """The keywords of a schema node and of every schema below it."""
    if isinstance(node, list):
        return set().union(*map(_keywords, node))
    if not isinstance(node, dict):
        return set()
    subs = [v for k, v in node.items() if k not in ("properties", "patternProperties", "$defs")]
    maps = [node.get(k, {}) for k in ("properties", "patternProperties", "$defs")]
    return set(node) | _keywords(subs) | _keywords([v for m in maps for v in m.values()])


def test_schema_uses_only_the_checked_keywords():
    schema = cli.spec_schema()
    assert _keywords(schema) <= cli.SCHEMA_KEYWORDS
    text = json.dumps(schema)
    # the shapes _conforms assumes of two of them
    assert text.count('"additionalProperties"') == text.count('"additionalProperties": false')
    assert text.count('"$ref"') == text.count('"$ref": "#/$defs/')


def test_jsonschema_has_the_last_word(monkeypatch):
    # a document the built-in check refuses but jsonschema accepts is accepted
    monkeypatch.setattr(cli, "_conforms", lambda doc, node: False)
    cli.validate_document({"experiment": {"window": 3}})
    with pytest.raises(InvalidSpec, match="spec rejected at experiment/window"):
        cli.validate_document({"experiment": {"window": 0}})


_BIG = {"kind": "toeplitz", "bands": {"0": 1e308, "1": 1e308}}
# commutes with every coordinate projection, so halmos reaches the window
_HUGE_DIAGONAL = {"kind": "diagonal", "weight": "const:1e200"}


@pytest.mark.parametrize("command, doc, code, err", [
    ("norms", {"operator": {"kind": "creation"},
               "projection": {"kind": "sparse", "indices": [1, 4]},
               "experiment": {"n_start": 1, "n_end": 3, "n_step": 1}}, 3, "SelectorOutOfRange"),
    ("norms", {"operator": {"kind": "product", "children": [_BIG, _BIG]}}, 3, "WeightUndefined"),
    ("halmos", {"operator": {"kind": "product", "children": [_HUGE_DIAGONAL, _HUGE_DIAGONAL]},
                "experiment": {"window": 16, "search_limit": 8}}, 3, "WeightUndefined"),
    ("halmos", {"operator": {"kind": "weighted_shift", "weight": "inverse"},
                "experiment": {"epsilon": "1/10", "window": 64}}, 0, ""),
    ("halmos", {"operator": {"kind": "weighted_shift", "weight": "inverse"},
                "experiment": {"epsilon": "0", "window": 64}}, 2, "epsilon must be"),
    ("sparse", {"operator": {"kind": "creation"}, "projection": {"kind": "sparse", "rule": "pow2"},
                "experiment": {"n_start": 1, "n_end": 8, "n_geometric": 2}}, 0, ""),
    ("szego", {"operator": {"kind": "toeplitz", "bands": {"0": 1e308}},
               "experiment": {"ns": [1], "ps": [2]}}, 3, "NumericalFailure"),
    ("szego", {"operator": {"kind": "toeplitz", "bands": {"0": 1e307}},
               "experiment": {"ns": [64], "ps": [1]}}, 0, ""),
    ("szego", {"operator": {"kind": "toeplitz", "bands": {"0": 1e300}},
               "experiment": {"ns": [64], "ps": [1]}}, 0, ""),
], ids=["indices_past_their_end", "product_overflow", "halmos_product_overflow",
        "rational_epsilon", "zero_epsilon", "spec_spacing_beats_the_default",
        "szego_moment_overflow", "szego_trace_overflow", "szego_large_but_finite"])
def test_schema_valid_edge_documents_exit_cleanly(tmp_path, capsys, command, doc, code, err):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    got, out, stderr = run([command, spec, "--no-timestamp"], capsys)
    assert got == code and err in stderr and "Traceback" not in stderr
    if command == "halmos" and code == 0:
        assert json.loads(out)["epsilon"] == 0.1


def test_szego_on_a_sparse_wide_symbol(tmp_path, capsys):
    # bands at +-100000: every row is an edge row at p = 2, but each holds at most two entries
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"operator": {"kind": "toeplitz",
                                             "bands": {"-100000": 1, "100000": 1}},
                                "experiment": {"ns": [300000], "ps": [1, 2]}}))
    code, out, err = run(["szego", spec, "--no-timestamp"], capsys)
    assert code == 0 and err == ""
    rows = [l.split(",")[:3] for l in out.splitlines() if l and not l.startswith("#")][1:]
    # tr(T_n^2) counts the 2 (n - 10^5) entries of the two bands
    assert rows == [["300000", "1", "0.0"], ["300000", "2", "1.3333333333333333"]]


@pytest.mark.parametrize("kind", ["creation", "hermite_q", "example_A"])
def test_weight_past_float_range_exits_3(tmp_path, capsys, kind):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"operator": {"kind": kind},
                                "projection": {"kind": "sparse", "rule": "pow2"}}))
    code, out, err = run(["sparse", spec, "--n-start", "1100", "--n-end", "1100"], capsys)
    assert code == 3
    assert "WeightUndefined" in err and "Traceback" not in err
    assert out == ""


# a flag sets the experiment key of its name, so it meets the bounds a spec file meets
@pytest.mark.parametrize("argv", [
    ["halmos", "--window", "0"],
    ["halmos", "--search-limit", "0"],
    ["berg", "--dim", "0"],
    ["berg", "--seed", "-1"],
    ["szego", "--ns", "0"],
    ["szego", "--ps", "-1"],
    ["szego", "--ps", "0"],
    ["norms", "--n-step", "0"],
    ["norms", "--n-step", "-1"],
    ["norms", "--n-geometric", "nan"],
    ["norms", "--n-geometric", "inf"],
], ids=lambda a: " ".join(a))
def test_flags_obey_the_schema_bounds(capsys, argv):
    spec = {"halmos": "halmos_inverse", "berg": "berg_seeded", "szego": "szego_cos",
            "norms": "shift_sqrt_norms"}[argv[0]]
    code, out, err = run([argv[0], REPO / "specs" / f"{spec}.json", *argv[1:]], capsys)
    assert code == 2 and out == ""
    assert err.startswith("InvalidSpec: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["szego", "--ns", "50,x"], ["halmos", "--window", "x"]],
                         ids=["ns", "window"])
def test_malformed_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_flag_spacing_replaces_the_spec_spacing_whole(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"operator": {"kind": "creation"},
                                "experiment": {"n_start": 1, "n_end": 8, "n_step": 3}}))
    code, out, _ = run(["norms", spec, "--n-geometric", "2", "--no-timestamp"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert [int(r.split(",")[0]) for r in rows] == [1, 2, 4, 8]


@pytest.mark.parametrize("doc", [{"n_geometric": float("nan")}, {"n_geometric": float("inf")}],
                         ids=["nan", "inf"])
def test_spec_file_with_a_nonfinite_base_exits_2(tmp_path, capsys, doc):
    # Python's json reads NaN and Infinity, and the schema's bound lets both through
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"operator": {"kind": "creation"}, "experiment": doc}))
    code, out, err = run(["norms", spec], capsys)
    assert code == 2 and out == "" and "n_geometric must be finite" in err


@pytest.mark.parametrize("argv", [
    ["--element", "1" + "0" * 400 + "*p"],
    ["--element", "1" + "0" * 300 + "*p^60*q^60", "--window", "130"],
], ids=["coefficient", "entries"])
def test_weyl_represent_past_the_float_range_exits_3(tmp_path, capsys, argv):
    out_file = tmp_path / "w.txt"
    code, out, err = run(["weyl-represent", *argv, "-o", out_file], capsys)
    assert code == 3 and out == ""
    assert err.startswith("WeightUndefined: ") and "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("entries", ["1e308+0i 1e308+0i 1e308+0i 1e308+0i",
                                     "nan+0i 0+0i 0+0i 1+0i",
                                     "inf+0i 0+0i 0+0i 1+0i",
                                     "1+infi 0+0i 0+0i 1+0i"],
                         ids=["huge", "nan", "inf", "imaginary-inf"])
def test_berg_matrix_past_the_cell_arithmetic_exits_3(tmp_path, capsys, entries):
    matrix = tmp_path / "m.txt"
    matrix.write_text(f"2\n{entries}\n")
    code, out, err = run(["berg", "--matrix", matrix], capsys)
    assert code == 3 and out == ""
    assert err.startswith("NumericalFailure: ") and "Traceback" not in err
