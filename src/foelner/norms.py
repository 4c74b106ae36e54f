"""Commutator seminorms and Foelner-ratio diagnostics.

Three seminorms are computed on the commutators [T, R_n] along a family R_n:

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
imaginary parts of the entries, so it does not depend on their order (inf
where that sum leaves the float range).  Along a nested sequence of
projections each entry lies in the commutators of a range of its members, so
one routine (_segments) takes the seminorms of them all from the entries and
their ranges: a grid of n (_per_grid, group by group over ops._commutator_entries;
a single n is a one-point grid, with the same bits as any grid that holds it)
and the step corners of berg's perturbation.  A grid is carried as columns
(_columns) up to the report tables; NormReport is for library callers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import ops
from .errors import InvalidSpec, NumericalFailure, TooFewSamples

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


def _components(i: np.ndarray,
                j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Components of the bipartite row/column graph with an edge (i_t, j_t) per entry: the
    dense ids of i and j, the component of each distinct row and column, and their count.

    Each row takes the least label of the rows it shares a column with, each label the
    least of its rows', then every row the label of its label, until no label moves.
    """
    ri, nr = _dense_ids(i)
    ci, nc = _dense_ids(j)
    label, old = np.arange(nr), None
    while old is None or not np.array_equal(label, old):
        low = np.full(nc, nr)
        np.minimum.at(low, ci, label[ri])
        old, label = label, label.copy()
        np.minimum.at(label, ri, low[ci])
        np.minimum.at(label, old, label)    # else a long chain takes a round per row
        label = label[label]
    comp, k = _dense_ids(label)
    return ri, ci, comp, comp[low], k       # a label is a row of its component, low holds labels


def _stacks(i: np.ndarray, j: np.ndarray, v: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The components of the entries (_components) stacked by shape, in index order: per
    shape, the dense ids of their rows (m, r) and columns (m, c), and their blocks (m, r, c)."""
    ri, ci, comp, ccomp, k = _components(i, j)
    rows, cols = np.bincount(comp, minlength=k), np.bincount(ccomp, minlength=k)
    shape, _ = _dense_ids(rows * (int(cols.max()) + 1) + cols)     # in (rows, cols) order
    ro, co, es = np.argsort(comp, kind="stable"), np.argsort(ccomp, kind="stable"), shape[comp[ri]]
    rpos, cpos = np.empty(len(comp), np.intp), np.empty(len(ccomp), np.intp)
    for g, at in enumerate(np.split(np.argsort(es, kind="stable"), np.cumsum(np.bincount(es))[:-1])):
        t = np.flatnonzero(shape == g)
        R = ro[(np.cumsum(rows) - rows)[t][:, None] + np.arange(rows[t[0]])]
        C = co[(np.cumsum(cols) - cols)[t][:, None] + np.arange(cols[t[0]])]
        rpos[R], cpos[C] = np.arange(R.size).reshape(R.shape), np.arange(C.shape[1])
        a = np.zeros(R.shape + C.shape[1:], dtype=complex)
        a.reshape(R.size, -1)[rpos[ri[at]], cpos[ci[at]]] = v[at]      # rpos counts stacked rows
        yield R, C, a


def _triplet_svals(i: np.ndarray, j: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Singular values of the sparse matrix with merged entries (i, j, v), descending.

    A direct sum has the union of its summands' singular values, so each connected
    component of the row/column graph gets its own small SVD (one stacked call per shape
    and real/complex choice, with the bits of a call per block).  When every component is
    a single entry (a scaled partial permutation) the singular values are the entry
    moduli, found without the graph.
    """
    if not len(v):
        return np.zeros(0)
    if _distinct(i) and _distinct(j):
        return np.sort(np.abs(v))[::-1]
    parts = []
    for _, _, a in _stacks(i, j, v):
        real = np.all(a.imag == 0, axis=(1, 2))
        parts += [_svdvals(b).ravel() for b in (a[real].real, a[~real]) if len(b)]
    return np.sort(np.concatenate(parts))[::-1]


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of the nonnegative floats x (math.fsum's), inf on overflow.

    Long arrays are summed exactly in integers: x = m 2^(e-53) with a 53-bit
    integer m (np.frexp), whose top 27 and low 26 bits are added per exponent
    by np.bincount, exactly while fewer than 2^26 of them are.
    """
    try:
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
    except OverflowError:
        return math.inf


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
    """Seminorms and ratios of one commutator [T, R_n], for library callers."""

    n: int
    rank: int
    u: float
    s1: float
    s2: float
    ratio1: float
    ratio2: float


def report(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, n: int) -> NormReport:
    """Exact seminorms of [T, R_n] against the given family (a one-point grid)."""
    return report_sequence(spec, fam, [n])[0]


def report_sequence(spec: ops.OperatorSpec, fam: ops.ProjectionFamily,
                    ns: Sequence[int]) -> list[NormReport]:
    """Norm reports along increasing family indices, one row of _columns each: s2 is the
    square root of the correctly rounded sum of the squared real and imaginary parts of
    the commutator's entries.  Raises NumericalFailure when u, s1 or s2 is not finite."""
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be strictly increasing")
    return [NormReport(*row) for cols in _columns(spec, fam, ns) for row in zip(*cols)]


def _columns(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, ns: list[int]):
    """The columns n, rank, u, s1, s2, ratio1, ratio2 of each group of the ascending grid
    ns in turn, as lists of Python ints and floats (the ratios divided as arrays, with the
    bits of Python's float division).  A group is checked before the next is measured:
    NumericalFailure names the first n whose u, s1 or s2 is not finite, as its own report
    does.  InvalidSpec for ranks past the float range, where the ratios are not defined."""
    g = 0
    for u, s1, s2 in _per_grid(spec, fam, ns, full=True):
        part, g = ns[g:g + len(u)], g + len(u)
        bad = ~np.isfinite([u, s1, s2]).all(axis=0)
        if bad.any():
            k = int(bad.argmax())
            raise NumericalFailure(f"seminorms of [T, R_{part[k]}] are not finite: "
                                   f"u={u[k].item()}, s1={s1[k].item()}, s2={s2[k].item()}")
        ranks = [fam._ranks[n] for n in part] if fam.kind == "blocks" else part
        try:
            r = np.array(ranks, float)
        except OverflowError:
            raise InvalidSpec("the grid reaches ranks past the float range, "
                              "where the ratios are not defined") from None
        yield [part, ranks, *(x.tolist() for x in (u, s1, s2, s1 / r, s2 / np.sqrt(r)))]


def u_sequence(spec: ops.OperatorSpec, fam: ops.ProjectionFamily,
               ns: Sequence[int]) -> list[float]:
    """Operator norms of [T, R_n] along increasing n of a coordinate family."""
    return [x for u, _, _ in _per_grid(spec, fam, list(ns), full=False) for x in u.tolist()]


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
              full: bool) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """u, s1, s2 arrays of each group of consecutive points of ns in turn (_group).

    A canonical group's boundary ranges [_first_past(n), n] start at or after
    its first point's, so it ends before t + _GATHER, t that point's least
    start; sparse and blocks families are one group.  A group whose pass
    raises gives the arrays of its two halves, each halved again if it raises,
    down to a single point that re-raises.  A grid's bits do not depend on
    the other points it holds, so the first n that fails raises what a report
    of that n alone raises, after the groups before it.  The halves run outside
    the except block, which would keep the failed pass's traceback alive.
    """
    g = 0
    while g < len(ns):
        h = len(ns)
        if fam.kind == "canonical":
            starts = [t for t in (ops._first_past(spec, ns[g], col) for col in (True, False))
                      if t is not None]
            h = bisect.bisect_right(ns, min(starts, default=ns[g]) + _GATHER - 1, g + 1)
        try:
            groups = [_group(spec, fam, ns[g:h], full)]
        except Exception:
            if h - g < 2:
                raise
            k = (g + h) // 2
            groups = (x for half in (ns[g:k], ns[k:h]) for x in _per_grid(spec, fam, half, full))
        yield from groups
        g = h


@np.errstate(over="ignore")
def _group(spec: ops.OperatorSpec, fam: ops.ProjectionFamily, ns: list[int], full: bool):
    """u, s1, s2 arrays of [T, R_n] for every n of the ascending group ns (s1, s2 only if
    full); its entries are freed on return.

    Each entry of ops._commutator_entries lies in the segments of the grid
    points of its range; _segments measures them, chunk by chunk of grid
    points (_chunks).  Seminorms past the float range come out as inf, without
    a warning; report raises NumericalFailure for them.
    """
    G = len(ns)
    u, s1, s2 = np.zeros(G), np.zeros(G), np.zeros(G)
    i, j, v, lo, hi = ops._commutator_entries(spec, fam, ns)
    for ga, gb, cand in _chunks(lo, hi, G):
        u[ga:gb], s1[ga:gb], s2[ga:gb] = _segments(i[cand], j[cand], v[cand], lo[cand],
                                                   hi[cand], ga, gb, full)
    return u, s1, s2


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


def _segments(i, j, v, lo, hi, ga, gb, full):
    """u, s1, s2 arrays of segments ga .. gb - 1 (s1, s2 only if full); entry k lies in
    segments lo[k] .. hi[k] - 1 (in none if hi[k] <= lo[k]).

    A lone segment and those of 8 or more entries are measured one by one (_triplet_svals;
    s1 sums the singular values in descending order, s2 is the root of the correctly
    rounded sum of the squared parts).  The smaller ones become rows of 7 zero-padded
    columns, all tested and summed at once: sorting a row of row (column) indices shows
    whether they are distinct (else the row is measured on its own), and np.sum adds
    fewer than 8 terms one by one from 0.0, which the column-by-column sum of the sorted
    moduli repeats.
    """
    S = gb - ga
    u, s1, s2 = np.zeros(S), np.zeros(S), np.zeros(S)
    if S == 1 or not len(v):    # no ranges to expand, sort or count
        inside = (lo <= ga) & (hi > ga)
        src = None if inside.all() else np.flatnonzero(inside)
        start, end, alone = [0], [np.count_nonzero(inside)], [0]
    else:
        lo, hi = np.maximum(lo - ga, 0), np.minimum(hi - ga, S)
        count = np.maximum(hi - lo, 0)
        if np.all(count == 1):
            src, seg = None, lo
        else:       # pair k is entry src[k] in segment seg[k]
            seg, src = ops._ranges(lo, hi - 1)
        count = np.bincount(seg, minlength=S)
        if np.any(seg[1:] < seg[:-1]):
            # a stable sort of 16-bit keys is a radix sort; seg is freed, then rebuilt from count
            order = np.argsort(seg.astype(np.uint16) if S <= 1 << 16 else seg, kind="stable")
            src, seg = (order if src is None else src[order]), None
            seg = np.repeat(np.arange(S), count)
        end = np.cumsum(count)
        start = end - count
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
                s1[rows] = sum(mods.T[1:], mods[:, 0])      # column by column
                squares = np.hstack([table(x[e] * x[e], np.zeros(7)) for x in (v.real, v.imag)])
                # a sum with at most two nonzero terms rounds once, as math.fsum does
                total = squares.sum(axis=1)
                many = np.count_nonzero(squares, axis=1) > 2
                total[many] = [_exact_sum(r) for r in squares[many]]
                s2[rows] = np.sqrt(total)
            rows = rows[~solo]
        alone = np.concatenate((np.flatnonzero(~small), rows)).tolist()
    for k in alone:
        at = slice(start[k], end[k]) if src is None else src[start[k]:end[k]]
        w = v[at]
        sv = _triplet_svals(i[at], j[at], w)
        u[k] = sv[0] if len(sv) else 0.0
        if full:
            s1[k], sv = sv.sum(), None      # sv freed before the squares are formed
            squares = w.real * w.real
            if w.dtype.kind == "c" and w.imag.any():
                squares = np.concatenate((squares, w.imag * w.imag))
            s2[k] = math.sqrt(_exact_sum(squares))
    return u, s1, s2


# ---------------------------------------------------------------------------
# trend classification
# ---------------------------------------------------------------------------

# Thresholds of the limit-trend heuristic, which reads the last quarter of the
# sequence (its tail, at least two values) against the earlier head.  Values
# are means over a geometrically growing index grid; the verdict is a
# diagnostic, not a proof.
_ZERO_TOL = 1e-2        # a tail entirely below this is "zero" outright
_DECAY_TOL = 0.25       # tail_max / head_max at or below this, tail non-increasing: also "zero"
_REL_TOL = 0.05         # tail spread, relative to its mean, of a "positive" plateau
_SLACK = 0.10           # relative monotonicity slack of tail trends
_GROWTH = 2.0           # tail_max / head_max at or above this, tail non-decreasing: "diverges"
_TAIL_FRACTION = 0.25
_MIN_SAMPLES = 8        # fewer samples raise TooFewSamples


@dataclass(frozen=True)
class Verdict:
    kind: str                    # tends_to_zero | tends_to_positive | diverges | inconclusive
    limit: float | None = None   # plateau estimate for tends_to_positive
    evidence: dict = field(default_factory=dict)


def _non_increasing(vals: Sequence[float]) -> bool:
    return all(b <= a * (1 + _SLACK) + 1e-300 for a, b in zip(vals, vals[1:]))


def _non_decreasing(vals: Sequence[float]) -> bool:
    return all(b >= a * (1 - _SLACK) for a, b in zip(vals, vals[1:]))


def classify(ratios: Sequence[float]) -> Verdict:
    """Classify the limiting trend of a nonnegative ratio sequence.

    Rules are applied in order: zero (absolute smallness, or sustained decay
    far below the head), positive plateau, divergence, else inconclusive.
    """
    vals = [float(v) for v in ratios]
    if len(vals) < _MIN_SAMPLES:
        raise TooFewSamples(f"need at least {_MIN_SAMPLES} samples, got {len(vals)}")
    if any(v < 0 or not math.isfinite(v) for v in vals):
        raise ValueError("ratios must be finite and nonnegative")

    tail_len = max(2, math.ceil(len(vals) * _TAIL_FRACTION))
    tail = vals[-tail_len:]
    head = vals[:-tail_len]
    head_max = max(head)
    tail_max, tail_min = max(tail), min(tail)
    tail_mean = sum(tail) / len(tail)
    ev = {"head_max": head_max, "tail_max": tail_max, "tail_min": tail_min,
          "tail_mean": tail_mean, "tail_len": tail_len, "samples": len(vals)}

    if tail_max < _ZERO_TOL:
        return Verdict("tends_to_zero", evidence=ev)
    if head_max > 0 and _non_increasing(tail) and tail_max <= _DECAY_TOL * head_max:
        return Verdict("tends_to_zero", evidence=ev)
    if tail_mean >= _ZERO_TOL and (tail_max - tail_min) <= _REL_TOL * tail_mean:
        return Verdict("tends_to_positive", limit=tail_mean, evidence=ev)
    if head_max > 0 and _non_decreasing(tail) and tail_max >= _GROWTH * head_max:
        return Verdict("diverges", evidence=ev)
    return Verdict("inconclusive", evidence=ev)
