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
moduli; that exact path avoids the SVD entirely.  From triplets, s2 is the
square root of the correctly rounded sum (math.fsum) of the squared real and
imaginary parts of the entries, so it does not depend on their order.
A grid of n takes one pass for all its commutators (_grid) over the entries
that ops._commutator_entries assigns to each n; a single n is a one-point
grid, with the same bits as any grid that holds it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse

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


def _dense_ids(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each value of x among its distinct values, and their count."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new = np.ones(len(xs), bool)
    new[1:] = xs[1:] != xs[:-1]
    ids = np.empty(len(xs), np.intp)
    ids[order] = np.cumsum(new) - 1
    return ids, int(new.sum())


def _distinct(x: np.ndarray) -> bool:
    """No value repeats in x (by sorting; np.unique is far slower here)."""
    if len(x) < 2:
        return True
    xs = np.sort(x)
    return not np.count_nonzero(xs[1:] == xs[:-1])


def _compact(e: np.ndarray) -> np.ndarray:
    """Dense matrix of the entries with empty rows/columns removed."""
    ri, nr = _dense_ids(e["i"])
    ci, nc = _dense_ids(e["j"])
    a = np.zeros((nr, nc), dtype=complex)
    a[ri, ci] = e["v"]
    return a


def _components(e: np.ndarray) -> list[np.ndarray]:
    """The entries grouped by connected component of their row/column graph.

    Rows and columns are the two sides of a bipartite graph with one edge
    per entry.
    """
    from scipy.sparse.csgraph import connected_components

    ri, nr = _dense_ids(e["i"])
    ci, nc = _dense_ids(e["j"])
    graph = scipy.sparse.coo_matrix((np.ones(len(e)), (ri, nr + ci)), shape=(nr + nc,) * 2)
    _, label = connected_components(graph, directed=False)
    label = label[ri]
    order = np.argsort(label, kind="stable")
    return np.split(e[order], np.flatnonzero(np.diff(label[order])) + 1)


def _triplet_svals(entries) -> np.ndarray:
    """Singular values of the sparse matrix given by merged entries, descending.

    entries is an _ENTRY array (or a list of (i, j, v) tuples).  A direct sum
    has the union of its summands' singular values, so each connected
    component of the row/column graph gets its own small SVD.  When every
    component is a single entry (a scaled partial permutation) the singular
    values are the entry moduli, found without the graph.
    """
    e = entries if isinstance(entries, np.ndarray) else np.asarray(entries, dtype=ops._ENTRY)
    if not len(e):
        return np.zeros(0)
    if _distinct(e["i"]) and _distinct(e["j"]):
        return np.sort(np.abs(e["v"]))[::-1]
    parts = [_svdvals(_compact(c)) for c in _components(e)]
    return np.sort(np.concatenate(parts))[::-1]


def _frobenius(v: np.ndarray) -> float:
    """sqrt of the correctly rounded sum of the squared parts of v; inf on overflow."""
    squares = v.real * v.real
    if v.dtype.kind == "c" and v.imag.any():
        squares = np.concatenate((squares, v.imag * v.imag))
    try:
        return math.sqrt(_exact_sum(squares))
    except OverflowError:
        return math.inf


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of the finite nonnegative floats x, as math.fsum gives it.

    Long arrays are summed exactly in integers: x = m 2^(e-53) with a 53-bit
    integer m (np.frexp), whose top 27 and low 26 bits are added per exponent
    by np.bincount, exactly while fewer than 2^26 of them are.
    """
    if not 2048 <= len(x) < 1 << 26 or not np.isfinite(x).all():
        return math.fsum(x.tolist())
    frac, exp = np.frexp(x)
    frac *= 2.0 ** 27
    high = np.floor(frac)
    frac -= high                      # the low 26 bits, as a fraction
    frac *= 2.0 ** 26
    base = int(exp.min())
    k = exp - base
    total = sum((int(h) << 26) + int(r) << s for s, (h, r) in enumerate(zip(
        np.bincount(k, weights=high).tolist(), np.bincount(k, weights=frac).tolist())))
    shift = 53 - base
    return total / (1 << shift) if shift >= 0 else float(total << -shift)


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
    """Exact seminorms of [T, R_n] against the given family (a one-point grid)."""
    return _reports(spec, fam, [n])[0]


def report_sequence(spec: ops.OperatorSpec, fam: ops.ProjectionFamily,
                    ns: Sequence[int]) -> list[NormReport]:
    """Norm reports along increasing family indices.

    s2 is the square root of the correctly rounded sum of the squared real
    and imaginary parts of the commutator's entries (a dense Frobenius norm
    for explicit families).  A coordinate family takes one grid pass for all
    of ns (see _grid).  Raises NumericalFailure when u, s1 or s2 is not
    finite.
    """
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly increasing")
    return _reports(spec, fam, ns)


def _reports(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, ns: list[int]) -> list[NormReport]:
    if fam.kind == "explicit":
        norms = (_explicit_norms(spec, fam, n) for n in ns)
    else:
        norms = _per_grid(spec, fam, ns, full=True)
    out = []
    for n, (u, s1, s2) in zip(ns, norms):
        if not (math.isfinite(u) and math.isfinite(s1) and math.isfinite(s2)):
            raise NumericalFailure(f"seminorms of [T, R_{n}] are not finite: "
                                   f"u={u}, s1={s1}, s2={s2}")
        out.append(NormReport(n=n, rank=fam.rank(n), u=u, s1=s1, s2=s2))
    return out


def _explicit_norms(spec: ops.OperatorSpec, fam: ops.ProjectionFamily,
                    n: int) -> tuple[float, float, float]:
    """u, s1, s2 of the dense commutator window of an explicit family."""
    w = ops.commutator_window(spec, fam, n)
    sv = _svdvals(w.entries)
    return float(sv[0]) if sv.size else 0.0, float(sv.sum()), float(np.linalg.norm(w.entries))


def u_sequence(spec: ops.OperatorSpec, fam: ops.ProjectionFamily,
               ns: Sequence[int]) -> list[float]:
    """Operator norms of [T, R_n] along increasing n of a coordinate family."""
    return [u for u, _, _ in _per_grid(spec, fam, list(ns), full=False)]


def u_norm(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, n: int) -> float:
    """Operator norm of [T, R_n] alone (cheaper than a full report)."""
    return u_sequence(spec, fam, [n])[0]


# ---------------------------------------------------------------------------
# the grid pass: seminorms of [T, R_n] for a whole grid of n at once
# ---------------------------------------------------------------------------

# Most (entry, grid point) pairs one chunk of a grid pass expands to; a grid
# point with more entries than this is a chunk of its own.
_CHUNK = 1 << 18
# Most columns (rows) one gather of a canonical grid pass reads; a longer
# grid is cut into groups of consecutive points.
_GATHER = 1 << 17


def _per_grid(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, ns: list[int],
              full: bool) -> Iterator[tuple[float, float, float]]:
    """(u, s1, s2) for each n of ns: _grid, or one point at a time if the pass raises.

    The one-point passes run as they are consumed, so the first n that fails
    raises what a report of that n alone raises.
    """
    try:
        return zip(*_grid(spec, fam, ns, full))
    except Exception:
        if len(ns) < 2:
            raise
        return (next(zip(*_grid(spec, fam, [n], full))) for n in ns)


@np.errstate(over="ignore")
def _grid(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, ns: list[int],
          full: bool) -> tuple[list[float], list[float], list[float]]:
    """u, s1, s2 of [T, R_n] for every n of the ascending grid ns (s1, s2 only if full).

    Each entry of ops._commutator_entries is expanded into one (entry, grid
    point) pair per grid point of its range, chunk by chunk of grid points
    (_chunks), and the pairs of one grid point form its segment; _segments
    evaluates them.  Seminorms past the float range come out as inf, without
    a warning; report raises NumericalFailure for them.
    """
    u, s1, s2 = np.zeros(len(ns)), np.zeros(len(ns)), np.zeros(len(ns))
    for group in _groups(spec, fam, ns):
        u[group], s1[group], s2[group] = _group(spec, fam, ns[group], full)
    return u.tolist(), s1.tolist(), s2.tolist()


def _group(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, ns: list[int], full: bool):
    """u, s1, s2 arrays of one group of _grid; its entries are freed on return."""
    G = len(ns)
    u, s1, s2 = np.zeros(G), np.zeros(G), np.zeros(G)
    i, j, v, lo, hi = ops._commutator_entries(spec, fam, ns)
    for ga, gb, cand in _chunks(lo, hi, G):
        i_, j_, v_ = i[cand], j[cand], v[cand]
        if gb - ga == 1:
            u[ga], s1[ga], s2[ga] = _segment_norms(i_, j_, v_, full)
        elif len(v_):
            a, b = np.maximum(lo[cand], ga), np.minimum(hi[cand], gb)
            count = b - a
            if count.max() == 1:
                src, seg = None, a - ga
            else:
                src = np.repeat(np.arange(len(v_)), count)
                seg = np.arange(len(src)) - np.repeat(np.cumsum(count) - count - (a - ga), count)
            u[ga:gb], s1[ga:gb], s2[ga:gb] = _segments(i_, j_, v_, src, seg, gb - ga, full)
    return u, s1, s2


def _groups(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, ns: list[int]) -> list[slice]:
    """Groups of consecutive grid points whose boundary ranges fit in _GATHER indices.

    Every range [_first_past(n), n] of a group starts at or after the first
    point's, so a group ends before t + _GATHER, t the first point's least
    start.  Sparse and blocks families are one group.
    """
    if fam.kind != "canonical":
        return [slice(0, len(ns))]
    groups, g = [], 0
    while g < len(ns):
        starts = [t for t in (ops._first_past(spec, ns[g], col) for col in (True, False))
                  if t is not None]
        h = bisect.bisect_right(ns, min(starts, default=ns[g]) + _GATHER - 1, g + 1)
        groups.append(slice(g, h))
        g = h
    return groups


def _chunks(lo: np.ndarray, hi: np.ndarray, G: int):
    """Chunks (ga, gb, entries) of grid points ga..gb-1 and the entries whose range meets them.

    A chunk expands to at most _CHUNK (entry, grid point) pairs unless it is
    a single grid point.  Entries are taken in order of lo, and those that
    reach past a chunk are carried into the next.
    """
    if int(np.sum(hi - lo)) <= _CHUNK:
        yield 0, G, slice(None)
        return
    active = np.cumsum(np.bincount(lo, minlength=G + 1) - np.bincount(hi, minlength=G + 1))[:G]
    total = np.cumsum(active)
    order = np.argsort(lo, kind="stable")
    starts = lo[order]
    carry = order[:0]
    ga = taken = 0
    while ga < G:
        done = total[ga - 1] if ga else 0
        gb = max(ga + 1, int(np.searchsorted(total, done + _CHUNK, side="right")))
        upto = int(np.searchsorted(starts, gb))
        cand = np.concatenate((carry, order[taken:upto]))
        taken = upto
        yield ga, gb, cand
        carry = cand[hi[cand] > gb]
        ga = gb


def _segment_norms(i: np.ndarray, j: np.ndarray, v: np.ndarray,
                   full: bool) -> tuple[float, float, float]:
    """u, s1, s2 of the sparse matrix with merged entries (i, j, v) (s1, s2 only if full)."""
    if _distinct(i) and _distinct(j):
        if not full:
            return (float(np.abs(v).max()) if len(v) else 0.0), 0.0, 0.0
        sv = np.sort(np.abs(v))[::-1]
    else:
        sv = _triplet_svals(ops._entries(i, j, v))
    u = float(sv[0]) if sv.size else 0.0
    if not full:
        return u, 0.0, 0.0
    s1, sv = float(sv.sum()), None      # sv freed before _frobenius's temporaries
    return u, s1, _frobenius(v)


def _segments(i, j, v, src, seg, S, full):
    """u, s1, s2 arrays of S segments; pair k is entry src[k] (k if src is None) in segment seg[k].

    Segments of 8 or more entries go through _segment_norms one by one.  The
    smaller ones become rows of 7 zero-padded columns, all tested and summed
    at once: sorting a row of row (column) indices shows whether they are
    distinct, and np.sum adds fewer than 8 terms one by one from 0.0, which
    the column-by-column sum of the sorted moduli repeats.
    """
    if np.any(seg[1:] < seg[:-1]):
        # a stable sort of 16-bit keys is a radix sort
        order = np.argsort(seg.astype(np.uint16) if S <= 1 << 16 else seg, kind="stable")
        src, seg = (order if src is None else src[order]), seg[order]
    count = np.bincount(seg, minlength=S)
    end = np.cumsum(count)
    start = end - count
    u, s1, s2 = np.zeros(S), np.zeros(S), np.zeros(S)
    small = count < 8
    rows = np.flatnonzero(small)
    if rows.size:
        at = small[seg]
        e, g = (np.flatnonzero(at) if src is None else src[at]), seg[at]
        cell = ((np.cumsum(small) - 1)[g], np.flatnonzero(at) - start[g])

        def table(x, pad):
            t = np.tile(pad, (len(rows), 1))
            t[cell] = x
            return t

        solo = np.ones(len(rows), bool)
        for x in (i, j):
            ids = _dense_ids(x[e])[0] if x.dtype == object else x[e]
            t = np.sort(table(ids, -1 - np.arange(7)), axis=1)
            solo &= ~(t[:, 1:] == t[:, :-1]).any(axis=1)
        mods = np.sort(table(np.abs(v[e]), np.zeros(7)), axis=1)[:, ::-1]
        u[rows] = mods[:, 0]
        if full:
            acc = mods[:, 0].copy()
            for c in range(1, 7):
                acc += mods[:, c]
            s1[rows] = acc
            squares = np.hstack([table(x[e] * x[e], np.zeros(7)) for x in (v.real, v.imag)])
            # a sum with at most two nonzero terms rounds once, as math.fsum does
            total = squares.sum(axis=1)
            many = np.count_nonzero(squares, axis=1) > 2
            total[many] = [math.fsum(r) for r in squares[many].tolist()]
            s2[rows] = np.sqrt(total)
        rows = rows[~solo]
    for k in np.concatenate((np.flatnonzero(~small), rows)).tolist():
        at = slice(start[k], end[k]) if src is None else src[start[k]:end[k]]
        u[k], s1[k], s2[k] = _segment_norms(i[at], j[at], v[at], full)
    return u, s1, s2


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
