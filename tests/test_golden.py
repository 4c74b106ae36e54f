"""Every shipped spec's report, byte for byte against tests/golden/.

Each spec in specs/ runs through its subcommand with --no-timestamp, so the
report is a pure function of the spec and the code.  The one exception is
berg: its numbers come from LAPACK eigensolvers, whose last digits depend on
the BLAS build (one of its commutator norms is rounding noise near 1e-15),
so its report is compared field by field, floats within 1e-9 relative or
1e-12 absolute.  After a change that is meant to move a report, rewrite the
goldens and review their diff:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from foelner import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "berg_seeded": "berg",
    "blocks_selector": "sparse",
    "composite_norms": "norms",
    "dilation_norms": "norms",
    "halmos_inverse": "halmos",
    "hermite_classify": "classify",
    "shift_log_classify": "classify",
    "shift_sqrt_norms": "norms",
    "sparse_pow2": "sparse",
    "sparse_squares": "sparse",
    "szego_cos": "szego",
    "szego_mixed": "szego",
    "weyl_growth": "weyl-amenability",
    "weyl_window": "weyl-represent",
}


def _write_report(stem: str, out: Path) -> None:
    code = cli.main([COMMANDS[stem], str(ROOT / "specs" / f"{stem}.json"),
                     "--no-timestamp", "-o", str(out)])
    assert code == 0, f"{stem} exited {code}"


def test_every_spec_has_a_golden():
    specs = {p.stem for p in (ROOT / "specs").glob("*.json")}
    assert specs == set(COMMANDS)
    assert {p.stem for p in GOLDEN.glob("*.txt")} == specs


# reports whose floats depend on the BLAS/LAPACK build
LAPACK = {"berg_seeded"}


def _close(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _close(g, w) for g, w in zip(got, want))
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return got == want


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_report_matches_golden(stem, tmp_path):
    out = tmp_path / f"{stem}.txt"
    _write_report(stem, out)
    golden = (GOLDEN / f"{stem}.txt").read_bytes()
    if stem in LAPACK:
        assert _close(json.loads(out.read_bytes()), json.loads(golden))
    else:
        assert out.read_bytes() == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in sorted(COMMANDS):
        _write_report(stem, GOLDEN / f"{stem}.txt")
