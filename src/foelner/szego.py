"""Spectral distribution of Toeplitz compressions against exact symbol moments.

The empirical eigenvalue measure of the n-th compression of a banded
Hermitian Toeplitz operator converges weakly to the distribution of its
symbol f(theta) = sum_d c_d e^{i d theta}.  Moments of the symbol measure are
constant Fourier coefficients of powers of f, computed here by exact
coefficient convolution, so the comparison table needs no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops
from .errors import InvalidSpec, NonHermitianCompression, NumericalFailure

_HERM_TOL = 1e-10


@dataclass(frozen=True)
class EmpiricalSpectralMeasure:
    """Uniform measure on the eigenvalues of one Hermitian compression."""

    n: int
    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float))
        if ev.shape != (self.n,):
            raise ValueError("need exactly n real eigenvalues")
        object.__setattr__(self, "eigenvalues", ev)


def empirical_spectrum(spec: ops.OperatorSpec, n: int) -> EmpiricalSpectralMeasure:
    """Eigenvalues of the n-th canonical compression (must be Hermitian)."""
    h = ops.hermitian_part(ops.compress(spec, n).entries, _HERM_TOL,
                           NonHermitianCompression, f"compression at n={n} is not Hermitian")
    if np.all(h.imag == 0):
        h = h.real
    return EmpiricalSpectralMeasure(n=n, eigenvalues=np.linalg.eigvalsh(h))


def moment(measure: EmpiricalSpectralMeasure, p: int) -> float:
    """p-th moment: average of eigenvalue p-th powers."""
    if p < 0:
        raise ValueError("p must be >= 0")
    return float(np.mean(measure.eigenvalues ** p))


@dataclass(frozen=True)
class SymbolPolynomial:
    """Trigonometric polynomial sum_d c_d e^{i d theta} as an offset -> c_d map."""

    coeffs: tuple[tuple[int, complex], ...]

    @classmethod
    def from_spec(cls, spec: ops.OperatorSpec) -> "SymbolPolynomial":
        if spec.kind != "toeplitz":
            raise InvalidSpec("symbols are defined for toeplitz specs only")
        return cls(coeffs=tuple(spec.bands))

    def as_dict(self) -> dict[int, complex]:
        return dict(self.coeffs)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        c = self.as_dict()
        return all(abs(c.get(-d, 0) - v.conjugate()) <= tol for d, v in c.items())


def symbol_moment(symbol: SymbolPolynomial, p: int) -> float:
    """p-th moment of the symbol distribution: constant coefficient of f^p."""
    if p < 0:
        raise ValueError("p must be >= 0")
    base = symbol.as_dict()
    acc: dict[int, complex] = {0: 1.0}
    for _ in range(p):
        nxt: dict[int, complex] = {}
        for d1, v1 in acc.items():
            for d2, v2 in base.items():
                d = d1 + d2
                nxt[d] = nxt.get(d, 0) + v1 * v2
        acc = nxt
    return float(acc.get(0, 0.0).real)


@dataclass(frozen=True)
class SzegoRow:
    n: int
    p: int
    empirical: float
    reference: float
    gap: float


@dataclass(frozen=True)
class SzegoComparison:
    rows: tuple[SzegoRow, ...]
    monotone: dict[int, bool]     # per power: gaps non-increasing in n (10% slack)


@np.errstate(over="ignore", invalid="ignore")   # szego_compare checks the moments
def _trace_moments(spec: ops.OperatorSpec, n: int, ps: Sequence[int]) -> dict[int, float]:
    """Empirical moments via traces of banded powers: (1/n) tr(T_n^p), T Toeplitz.

    Equal to the eigenvalue average but free of eigensolver noise, so
    moments that vanish by symmetry come out exactly zero.  The powers are
    those of the CSR matrix of the window, bit for bit (_times).  A row of
    a power depends only on the same row of the one before, and the rows at
    least h = max(ps) * (band reach) from both edges read only full rows of
    T, so they are alike: the powers run on the edge rows and one inner row.
    """
    top = max(ps, default=0)
    # no band inside the window is the zero band: every product drops it
    coeffs = SymbolPolynomial.from_spec(spec).coeffs
    bands = sorted((-off, c) for off, c in coeffs if abs(off) < n) or [(0, 0j)]
    d = np.array([b for b, _ in bands])                  # column - row, ascending
    t = np.array([c for _, c in bands])
    t = t if t.imag.any() else t.real
    h = top * int(np.abs(d).max())
    rows = np.arange(n) if n <= 2 * h + 1 else np.r_[0:h + 1, n - h:n]
    # band form: offset d[0] + r in row r of the values, over `rows`; a key
    # orders the entries of a row as stored (T: ascending), inf where none
    vals = np.zeros((d[-1] - d[0] + 1, len(rows)), t.dtype)
    keys = np.full(vals.shape, np.inf)
    for q, dq in enumerate(d):
        inside = (rows + dq >= 0) & (rows + dq < n)
        vals[dq - d[0], inside], keys[dq - d[0], inside] = t[q], q
    power, out = (int(d[0]), vals, keys), {}
    for e in range(1, top + 1):
        power = _times(power, d, t, rows, n) if e > 1 else power
        if e in ps:
            lo, vals, _ = power
            diagonal = vals[-lo] if 0 <= -lo < len(vals) else np.zeros(len(rows), t.dtype)
            if len(rows) < n:      # the inner row stands for the n - 2h middle rows
                diagonal = np.concatenate((diagonal[:h], np.full(n - 2 * h, diagonal[h]),
                                           diagonal[h + 1:]))
            tr = float(diagonal.sum().real)
            if math.isfinite(tr):
                out[e] = tr / n
            else:
                # the trace overflows though the mean may not: sum the diagonal
                # scaled by 2^-k (exact), then scale the mean back
                k = n.bit_length()
                out[e] = float(np.ldexp(diagonal.real, -k).sum() / n * 2.0 ** k)
    if 0 in ps:
        out[0] = 1.0
    return out


def _times(power, d: np.ndarray, t: np.ndarray, rows: np.ndarray, n: int):
    """power @ T in band form, rounded, summed and ordered as CSR SpGEMM does it.

    As in the classic csr_matmat loop, entry (i, k) of the power meets row k
    of T (column offsets d, values t) column by column, in the order row i
    stores them; an entry of the product sums its terms in that arrival
    order from 0, exact zeros are dropped, and a row stores its entries in
    reverse order of first arrival.  The key of a term, (key of its power
    entry) * m + (position in T's row), is its arrival order in the row.
    """
    lo, V, K = power
    m, na = len(d), len(V)
    width = na + d[-1] - d[0]
    keys = np.full((m, width, len(rows)), np.inf)
    vals = np.zeros((m, width, len(rows)), V.dtype)
    for q in range(m):
        keys[q, d[q] - d[0]:d[q] - d[0] + na] = K * m + q
        vals[q, d[q] - d[0]:d[q] - d[0] + na] = ops._cmul(t[q], V)
    c = lo + d[0] + np.arange(width)
    keys[:, (rows + c[:, None] < 0) | (rows + c[:, None] >= n)] = np.inf
    vals[keys == np.inf] = 0       # a term that does not exist adds exactly 0, never 0 * inf
    acc = np.zeros((width, len(rows)), V.dtype)
    for v in np.take_along_axis(vals, np.argsort(keys, axis=0), axis=0):
        acc += v
    first = keys.min(axis=0)
    stored = (first < np.inf) & (acc != 0)
    rank = np.argsort(np.argsort(np.where(stored, -first, np.inf), axis=0), axis=0)
    keep = np.abs(c) < n           # offsets past the window hold nothing
    return int(c[keep][0]) if keep.any() else 0, acc[keep], np.where(stored, rank, np.inf)[keep]


def szego_compare(spec: ops.OperatorSpec, ns: Sequence[int],
                  ps: Sequence[int]) -> SzegoComparison:
    """Moment table: empirical vs exact symbol moments with per-power trends.

    Raises NumericalFailure when a moment, gap or n * gap (the fitted C) is not finite.
    """
    symbol = SymbolPolynomial.from_spec(spec)
    if not symbol.is_hermitian():
        raise NonHermitianCompression("symbol is not Hermitian (c_{-d} != conj(c_d))")
    ns = sorted({int(n) for n in ns})
    ps = sorted({int(p) for p in ps})
    refs = {p: symbol_moment(symbol, p) for p in ps}
    rows: list[SzegoRow] = []
    gaps: dict[int, list[float]] = {p: [] for p in ps}
    for n in ns:
        emps = _trace_moments(spec, n, ps)
        for p in ps:
            emp = emps[p]
            gap = abs(emp - refs[p])
            if not math.isfinite(n * gap):
                raise NumericalFailure(f"the moment gap for p={p} at n={n} leaves the "
                                       f"float range (empirical {emp}, reference {refs[p]})")
            rows.append(SzegoRow(n=n, p=p, empirical=emp, reference=refs[p], gap=gap))
            gaps[p].append(gap)
    monotone = {
        p: all(b <= a * 1.10 + 1e-15 for a, b in zip(gs, gs[1:]))
        for p, gs in gaps.items()
    }
    return SzegoComparison(rows=tuple(rows), monotone=monotone)


def fitted_gap_constant(comparison: SzegoComparison, p: int) -> float:
    """Least upper bound C with gap(n) <= C / n over the comparison's rows."""
    cs = [row.gap * row.n for row in comparison.rows if row.p == p]
    if not cs:
        raise ValueError(f"no rows for power {p}")
    return max(cs)
