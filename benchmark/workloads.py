"""The benchmark's workloads: fixed, ordered lists of `foelner` CLI cases.

A case is one command line, run as `foelner.cli.main(argv)`.  Shipped specs
run as they are.  Inputs that have a natural random family (the berg matrix
seed, an extra Hermitian Toeplitz symbol for `szego`, the gaps of an extra
sparse index set, the order of the Weyl elements) are drawn from the
benchmark seed, so one seed always gives the same cases.

Every argv ends with `--no-timestamp`, so a report is a pure function of its
inputs and traced and untraced passes can be compared byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("dense-windows", "sparse-commutators", "weyl-exact")


@dataclass(frozen=True)
class Case:
    """One CLI invocation.

    `ref` names the entry of reference.json the report must match; None
    marks a seeded case, checked by seed-independent invariants only.
    `check` carries what the oracle needs to know about a seeded input.
    """

    id: str
    argv: tuple[str, ...]
    ref: str | None
    check: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Exponent:
    """A scaling exponent log(t_big/t_small) / log(size_big/size_small).

    `small` and `big` are (case id, size).  `t` is the summed time of span
    `span` within the case; with `per_size`, only of the spans whose size
    counter equals the size (both sizes then run inside one case).
    """

    metric: str
    span: str
    small: tuple[str, int]
    big: tuple[str, int]
    per_size: bool = False


# Which span pairs give each workload's scaling exponents.
EXPONENTS = {
    "dense-windows": (
        Exponent("ops.compress.exponent", "ops.compress",
                 ("szego-cos-big", 3200), ("szego-cos-big", 6400), per_size=True),
        Exponent("decomp.halmos_decompose.exponent", "decomp.halmos_decompose",
                 ("halmos-1024", 1024), ("halmos-2048", 2048)),
        Exponent("szego.szego_compare.exponent", "szego._trace_moments",
                 ("szego-cos-big", 3200), ("szego-cos-big", 6400), per_size=True),
        Exponent("berg.berg_sequence.exponent", "berg.berg_sequence",
                 ("berg-256", 256), ("berg-384", 384)),
    ),
    "sparse-commutators": (
        Exponent("ops.commutator_triplets.exponent", "ops.commutator_triplets",
                 ("sparse-squares-300", 300), ("sparse-squares-1000", 1000)),
    ),
    "weyl-exact": (
        Exponent("weyl.amenability_witness.exponent", "weyl.amenability_witness",
                 ("weyl-growth", 38), ("weyl-growth-1/20", 78)),
    ),
}


# Which calibration blocks (calibrate.py) match each workload's work: the
# dense windows spend their time in BLAS, the Weyl core in the interpreter,
# and the sparse cases in both.
CALIBRATION = {
    "dense-windows": ["blas"],
    "sparse-commutators": ["interp", "blas"],
    "weyl-exact": ["interp"],
}


def _case(cid: str, *argv: str, ref: bool = True, **check) -> Case:
    return Case(cid, tuple(argv) + ("--no-timestamp",), cid if ref else None, check)


def _write_spec(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return str(path)


def _dense_windows(rng: random.Random, work: Path) -> list[Case]:
    bands = {"0": round(rng.uniform(-1, 1), 3)}
    for d in (1, 2):
        re, im = round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3)
        bands[str(d)] = [re, im]
        bands[str(-d)] = [re, -im]       # Hermitian symbol: c_{-d} = conj(c_d)
    toeplitz = _write_spec(work / "szego_seeded.json", {
        "operator": {"kind": "toeplitz", "bands": bands},
        "experiment": {"ns": [200, 400, 800], "ps": [1, 2, 3, 4]},
    })
    return [
        _case("halmos-2048", "halmos", "specs/halmos_inverse.json"),
        _case("halmos-1024", "halmos", "specs/halmos_inverse.json", "--window", "1024"),
        _case("szego-cos", "szego", "specs/szego_cos.json"),
        _case("szego-cos-big", "szego", "specs/szego_cos.json", "--ns", "3200,6400"),
        _case("szego-mixed", "szego", "specs/szego_mixed.json"),
        _case("szego-seeded", "szego", toeplitz, ref=False,
              bands=bands, ns=[200, 400, 800], ps=[1, 2, 3, 4]),
        _case("berg-64", "berg", "specs/berg_seeded.json"),
        _case("berg-256", "berg", "specs/berg_seeded.json", "--dim", "256",
              "--seed", str(rng.randrange(2**31)), ref=False, dim=256),
        _case("berg-384", "berg", "specs/berg_seeded.json", "--dim", "384",
              "--seed", str(rng.randrange(2**31)), ref=False, dim=384),
        _case("weyl-represent-12", "weyl-represent", "specs/weyl_window.json"),
        _case("weyl-represent-256", "weyl-represent", "specs/weyl_window.json",
              "--window", "256"),
    ]


def _sparse_commutators(rng: random.Random, work: Path) -> list[Case]:
    indices, k = [], 0
    for _ in range(300):
        k += rng.randint(1, 6)
        indices.append(k)
    gaps = _write_spec(work / "sparse_gaps.json", {
        "operator": {"kind": "weighted_shift", "weight": "inverse"},
        "projection": {"kind": "sparse", "indices": indices},
        "experiment": {"n_start": 1, "n_end": len(indices), "n_step": 1},
    })
    return [
        _case("norms-shift-sqrt", "norms", "specs/shift_sqrt_norms.json", shift="sqrt"),
        _case("norms-dilation", "norms", "specs/dilation_norms.json"),
        _case("norms-composite", "norms", "specs/composite_norms.json"),
        _case("classify-hermite", "classify", "specs/hermite_classify.json"),
        _case("classify-shift-log", "classify", "specs/shift_log_classify.json", shift="log"),
        _case("sparse-pow2", "sparse", "specs/sparse_pow2.json"),
        _case("sparse-squares", "sparse", "specs/sparse_squares.json"),
        _case("sparse-blocks", "sparse", "specs/blocks_selector.json"),
        _case("norms-dilation-131072", "norms", "specs/dilation_norms.json",
              "--n-end", "131072"),
        _case("norms-dilation-524288", "norms", "specs/dilation_norms.json",
              "--n-end", "524288"),
        _case("sparse-squares-300", "sparse", "specs/sparse_squares.json", "--n-end", "300"),
        _case("sparse-squares-1000", "sparse", "specs/sparse_squares.json", "--n-end", "1000"),
        _case("sparse-gaps", "sparse", gaps, ref=False, inverse_shift_indices=indices),
        _case("norms-shift-sqrt-20000", "norms", "specs/shift_sqrt_norms.json",
              "--n-start", "1", "--n-end", "20000", "--n-step", "1", shift="sqrt"),
        _case("norms-composite-3000", "norms", "specs/composite_norms.json",
              "--n-start", "1", "--n-end", "3000", "--n-step", "1"),
    ]


def _weyl_exact(rng: random.Random, work: Path) -> list[Case]:
    elements = ["p", "q", "p*q"]
    rng.shuffle(elements)
    return [
        _case("weyl-growth", "weyl-amenability", "specs/weyl_growth.json", witness_n=38),
        # the element order is seeded; the oracle compares rows by element
        _case("weyl-growth-1/20", "weyl-amenability", "specs/weyl_growth.json",
              "--epsilon", "1/20", "--elements", ",".join(elements)),
        _case("weyl-p2q2-1/4", "weyl-amenability", "--elements", "p^2*q^2", "--epsilon", "1/4"),
        _case("weyl-p2q2-1/6", "weyl-amenability", "--elements", "p^2*q^2", "--epsilon", "1/6"),
        _case("weyl-q3p3-1/2", "weyl-amenability", "--elements", "q^3*p^3", "--epsilon", "1/2"),
    ]


_GENERATORS = {
    "dense-windows": _dense_windows,
    "sparse-commutators": _sparse_commutators,
    "weyl-exact": _weyl_exact,
}


def build(workload: str, seed: int, work: Path) -> list[Case]:
    """The cases of one workload for one seed; seeded spec files go to `work`."""
    work.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), work)
