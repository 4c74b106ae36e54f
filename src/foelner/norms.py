"""Commutator seminorms and Foelner-ratio diagnostics.

Three seminorms are computed on captured commutator windows:

  u  -- operator norm (largest singular value)
  s1 -- trace norm (sum of singular values)
  s2 -- Hilbert-Schmidt norm (Frobenius)

Ratios normalise against the projection: ratio1 = s1/rank, ratio2 = s2/sqrt(rank),
matching the 1- and 2-Foelner conditions exactly (rank = trace norm of a
projection, sqrt(rank) = its Hilbert-Schmidt norm).

Padding a window with zero rows/columns changes none of the three seminorms,
so they are evaluated on a compacted copy of the nonzero support, one
connected component of the row/column graph at a time.  Commutators whose
nonzero entries occupy pairwise distinct rows and columns (every shift
against every coordinate projection) have singular values equal to the entry
moduli; that exact path avoids the SVD entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import ops
from .errors import NumericalFailure, TooFewSamples

_MODES = ("u", "s1", "s2")


def _svdvals(a: np.ndarray) -> np.ndarray:
    if a.size and np.all(a.imag == 0):
        a = a.real  # real path is ~2x faster and exact here
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def _compact(entries: Sequence[tuple[int, int, complex]]) -> np.ndarray:
    """Dense matrix of the triplets with empty rows/columns removed."""
    rows = sorted({i for i, _, _ in entries})
    cols = sorted({j for _, j, _ in entries})
    ri = {r: t for t, r in enumerate(rows)}
    ci = {c: t for t, c in enumerate(cols)}
    a = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, j, v in entries:
        a[ri[i], ci[j]] = v
    return a


def _components(entries: list[tuple[int, int, complex]]) -> list[list[tuple[int, int, complex]]]:
    """Triplets grouped by connected component of their row/column graph.

    Rows and columns are the two sides of a bipartite graph with one edge
    per entry; union-find keys rows as i and columns as -j (indices >= 1).
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i, j, _ in entries:
        parent[find(i)] = find(-j)
    groups: dict[int, list[tuple[int, int, complex]]] = {}
    for e in entries:
        groups.setdefault(find(e[0]), []).append(e)
    return list(groups.values())


def _triplet_svals(entries: list[tuple[int, int, complex]]) -> np.ndarray:
    """Singular values of the sparse matrix given by merged triplets, descending.

    A direct sum has the union of its summands' singular values, so each
    connected component of the row/column graph gets its own small SVD.
    When every component is a single entry (a scaled partial permutation)
    the singular values are the entry moduli, found without the graph.
    """
    if not entries:
        return np.zeros(0)
    rows = [i for i, _, _ in entries]
    cols = [j for _, j, _ in entries]
    if len(set(rows)) == len(rows) and len(set(cols)) == len(cols):
        return np.sort(np.abs(np.asarray([v for _, _, v in entries])))[::-1]
    parts = [_svdvals(_compact(c)) for c in _components(entries)]
    return np.sort(np.concatenate(parts))[::-1]


def seminorm(w: ops.Window | np.ndarray, mode: str) -> float:
    """Seminorm of a finite window; mode is one of "u", "s1", "s2"."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    a = w.entries if isinstance(w, ops.Window) else np.asarray(w, dtype=complex)
    if mode == "s2":
        return float(np.linalg.norm(a))
    sv = _svdvals(a)
    if sv.size == 0:
        return 0.0
    return float(sv[0]) if mode == "u" else float(np.sum(sv))


@dataclass(frozen=True)
class NormReport:
    """Seminorm snapshot of one commutator [T, R_n]."""

    n: int
    rank: int
    u: float
    s1: float
    s2: float
    ratio1: float = field(init=False)
    ratio2: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ratio1", self.s1 / self.rank)
        object.__setattr__(self, "ratio2", self.s2 / math.sqrt(self.rank))


def report(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, n: int) -> NormReport:
    """Exact seminorms of [T, R_n] against the given family."""
    if fam.kind == "explicit":
        w = ops.commutator_window(spec, fam, n)
        sv = _svdvals(w.entries)
        s2 = float(np.linalg.norm(w.entries))
    else:
        trips = ops.commutator_triplets(spec, fam, n)
        sv = _triplet_svals(trips)
        s2 = math.sqrt(sum(abs(v) ** 2 for _, _, v in trips))
    u = float(sv[0]) if sv.size else 0.0
    return NormReport(n=n, rank=fam.rank(n), u=u, s1=float(np.sum(sv)), s2=s2)


def report_sequence(spec: ops.OperatorSpec, fam: ops.ProjectionFamily,
                    ns: Sequence[int]) -> list[NormReport]:
    """Norm reports along increasing family indices."""
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly increasing")
    return [report(spec, fam, n) for n in ns]


def u_norm(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, n: int) -> float:
    """Operator norm of [T, R_n] alone (cheaper than a full report)."""
    trips = ops.commutator_triplets(spec, fam, n)
    sv = _triplet_svals(trips)
    return float(sv[0]) if sv.size else 0.0


# ---------------------------------------------------------------------------
# trend classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifyPolicy:
    """Fixed thresholds for the limit-trend heuristic.

    The classifier inspects the last-quarter tail of the sequence against the
    earlier head.  Values are means for a geometrically growing index grid;
    the verdict is a diagnostic, not a proof.

      zero_tol   -- tail entirely below this is "zero" outright
      decay_tol  -- tail_max / head_max at or below this (with a
                    non-increasing tail) is also "zero"
      rel_tol    -- tail spread for "positive" plateau detection
      slack      -- monotonicity slack (relative) for tail trends
      growth     -- tail_max / head_max at or above this (with a
                    non-decreasing tail) is "diverges"
      min_samples -- fewer samples than this raises TooFewSamples
    """

    zero_tol: float = 1e-2
    decay_tol: float = 0.25
    rel_tol: float = 0.05
    slack: float = 0.10
    growth: float = 2.0
    tail_fraction: float = 0.25
    min_samples: int = 8


@dataclass(frozen=True)
class Verdict:
    kind: str                    # tends_to_zero | tends_to_positive | diverges | inconclusive
    limit: float | None = None   # plateau estimate for tends_to_positive
    evidence: dict = field(default_factory=dict)


def _non_increasing(vals: Sequence[float], slack: float) -> bool:
    return all(b <= a * (1 + slack) + 1e-300 for a, b in zip(vals, vals[1:]))


def _non_decreasing(vals: Sequence[float], slack: float) -> bool:
    return all(b >= a * (1 - slack) for a, b in zip(vals, vals[1:]))


def classify(ratios: Sequence[float], policy: ClassifyPolicy | None = None) -> Verdict:
    """Classify the limiting trend of a nonnegative ratio sequence.

    Rules are applied in order: zero (absolute smallness, or sustained decay
    far below the head), positive plateau, divergence, else inconclusive.
    """
    policy = policy or ClassifyPolicy()
    vals = [float(v) for v in ratios]
    if len(vals) < policy.min_samples:
        raise TooFewSamples(f"need at least {policy.min_samples} samples, got {len(vals)}")
    if any(v < 0 or not math.isfinite(v) for v in vals):
        raise ValueError("ratios must be finite and nonnegative")

    tail_len = max(2, math.ceil(len(vals) * policy.tail_fraction))
    tail = vals[-tail_len:]
    head = vals[:-tail_len]
    head_max = max(head)
    tail_max, tail_min = max(tail), min(tail)
    tail_mean = sum(tail) / len(tail)
    ev = {
        "head_max": head_max,
        "tail_max": tail_max,
        "tail_min": tail_min,
        "tail_mean": tail_mean,
        "tail_len": tail_len,
        "samples": len(vals),
    }

    if tail_max < policy.zero_tol:
        return Verdict("tends_to_zero", evidence=ev)
    if head_max > 0 and _non_increasing(tail, policy.slack) \
            and tail_max <= policy.decay_tol * head_max:
        return Verdict("tends_to_zero", evidence=ev)
    if tail_mean >= policy.zero_tol and (tail_max - tail_min) <= policy.rel_tol * tail_mean:
        return Verdict("tends_to_positive", limit=tail_mean, evidence=ev)
    if head_max > 0 and _non_decreasing(tail, policy.slack) \
            and tail_max >= policy.growth * head_max:
        return Verdict("diverges", evidence=ev)
    return Verdict("inconclusive", evidence=ev)
