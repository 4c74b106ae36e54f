import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from foelner import cli, ops
from foelner.errors import InvalidSpec

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


def test_weyl_amenability_over_budget_exits_3(tmp_path, capsys):
    # the witness for p at eps = 1/2000 sits near level 4000, far past the budget
    out_file = tmp_path / "w.csv"
    start = time.perf_counter()
    code, out, err = run(["weyl-amenability", "--elements", "p", "--epsilon", "1/2000",
                          "-o", out_file], capsys)
    assert time.perf_counter() - start < 30
    assert code == 3
    assert "ResourceLimit" in err
    assert not out_file.exists()


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
    f.write_text(cli.format_matrix(A))
    assert np.array_equal(cli.read_matrix(f), A)


def test_version_subprocess():
    res = subprocess.run([sys.executable, "-m", "foelner", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.strip().endswith(cli.__version__ if hasattr(cli, "__version__")
                                       else __import__("foelner").__version__)


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
], ids=["weyl-represent", "berg"])
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


def test_output_is_written_whole_and_leaves_no_temp_file(tmp_path, capsys):
    argv = ["szego", REPO / "specs" / "szego_cos.json", "--no-timestamp"]
    code, expected, _ = run(argv, capsys)
    assert code == 0
    target = tmp_path / "report.csv"
    target.write_text("old report\n")
    code, out, _ = run(argv + ["-o", target], capsys)
    assert code == 0 and out == ""
    assert target.read_text() == expected
    assert list(tmp_path.iterdir()) == [target]


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
], ids=["indices_past_their_end", "product_overflow", "halmos_product_overflow",
        "rational_epsilon", "zero_epsilon",
        "spec_spacing_beats_the_default"])
def test_schema_valid_edge_documents_exit_cleanly(tmp_path, capsys, command, doc, code, err):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    got, out, stderr = run([command, spec, "--no-timestamp"], capsys)
    assert got == code and err in stderr and "Traceback" not in stderr
    if command == "halmos" and code == 0:
        assert json.loads(out)["epsilon"] == 0.1


@pytest.mark.parametrize("kind", ["creation", "hermite_q", "example_A"])
def test_weight_past_float_range_exits_3(tmp_path, capsys, kind):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"operator": {"kind": kind},
                                "projection": {"kind": "sparse", "rule": "pow2"}}))
    code, out, err = run(["sparse", spec, "--n-start", "1100", "--n-end", "1100"], capsys)
    assert code == 3
    assert "WeightUndefined" in err and "Traceback" not in err
    assert out == ""
