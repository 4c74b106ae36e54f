"""Spectral distribution of Toeplitz compressions against exact symbol moments.

The empirical eigenvalue measure of the n-th compression of a banded
Hermitian Toeplitz operator converges weakly to the distribution of its
symbol f(theta) = sum_d c_d e^{i d theta}.  The measure's moments are the
traces (1/n) tr(T_n^p), taken from the rows of the powers of the window, so
no eigenvalue is computed.  Moments of the symbol measure are constant Fourier
coefficients of powers of f, computed here by exact coefficient convolution,
so the comparison table needs no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops
from .errors import InvalidSpec, NonHermitianCompression, NumericalFailure, ResourceLimit

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


def _products(bands: int, span: int, top: int, width_cap: float = math.inf) -> int:
    """Most products that form the coefficient row of f^top from f^0 = 1 (or a row of T^top),
    one power at a time: the row of the e-th power holds at most min(width_cap, bands^e,
    e * span + 1) entries, each meeting every band.  Counting stops past ops.TRACE_TERMS."""
    terms, width = min(top, 1) * bands, 1
    for e in range(1, top):     # once the bound stops growing it holds for every later power
        width, last = min(width_cap, width * bands, e * span + 1), width
        terms += bands * width * (top - e if width == last else 1)
        if width == last or terms > ops.TRACE_TERMS:
            break
    return terms


@np.errstate(over="ignore", invalid="ignore")   # szego_compare checks the moments
def _trace_moments(spec: ops.OperatorSpec, n: int, ps: Sequence[int]) -> dict[int, float]:
    """Empirical moments via traces of banded powers: (1/n) tr(T_n^p), T Toeplitz.

    Free of eigensolver noise, so moments that vanish by symmetry come out
    exactly zero.  Row r of T^e is row r of T^(e-1) times T, formed as the
    classic CSR SpGEMM loop forms it, so every trace has the bits of the
    CSR powers: each stored entry meets T's row in ascending column order,
    an entry sums its terms from 0 in arrival order (complex products by
    parts, as ops._cmul takes them), exact zeros are dropped, and a row is
    stored in reverse order of first arrival.  The rows at least
    h = max(ps) * (band reach) from both edges read only full rows of T, so
    they are alike: the powers run on the edge rows and one inner row.
    """
    top = max(ps, default=0)
    bands = [(-off, c) for off, c in reversed(SymbolPolynomial.from_spec(spec).coeffs)
             if abs(off) < n]                       # column - row, ascending
    real = not any(c.imag for _, c in bands)
    t = [(d, c.real if real else c) for d, c in bands]
    zero = 0.0 if real else 0j
    h = top * max((abs(d) for d, _ in t), default=0)
    rows = range(n) if n <= 2 * h + 1 else [*range(h + 1), *range(n - h, n)]
    if len(rows) * _products(len(t), t[-1][0] - t[0][0] if t else 0, top, n) > ops.TRACE_TERMS:
        raise ResourceLimit(f"the traces at n={n} up to power {top} may take more than "
                            f"the budget of {ops.TRACE_TERMS} products")
    diagonals: dict[int, list] = {e: [] for e in sorted(ps) if e > 0}
    for r in rows:
        row = {r + d: c for d, c in t if 0 <= r + d < n}
        for e in range(1, top + 1):
            if e > 1:
                acc: dict[int, complex] = {}
                for j, v in row.items():
                    for d, c in t:
                        if 0 <= j + d < n:
                            term = v * c if real else complex(v.real * c.real - v.imag * c.imag,
                                                              v.real * c.imag + v.imag * c.real)
                            acc[j + d] = acc.get(j + d, zero) + term
                row = {k: s for k, s in reversed(acc.items()) if s != 0}
            if e in diagonals:
                diagonals[e].append(row.get(r, zero))
    out = {}
    for e, values in diagonals.items():
        diagonal = np.array(values, float if real else complex)
        if len(rows) < n:          # the inner row stands for the n - 2h middle rows
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


def szego_compare(spec: ops.OperatorSpec, ns: Sequence[int],
                  ps: Sequence[int]) -> SzegoComparison:
    """Moment table: empirical vs exact symbol moments with per-power trends.

    Raises ResourceLimit before any work when the diagonal of the largest n
    is over ops.DENSE_CELLS, or when the symbol moments or the traces of the
    largest n (its moments are taken first) may take more than ops.TRACE_TERMS
    products, and NumericalFailure when a moment, gap or n * gap (the fitted
    C) is not finite.
    """
    symbol = SymbolPolynomial.from_spec(spec)
    if not symbol.is_hermitian():
        raise NonHermitianCompression("symbol is not Hermitian (c_{-d} != conj(c_d))")
    ns = sorted({int(n) for n in ns})
    ps = sorted({int(p) for p in ps})
    ops.check_dense(max(ns, default=0), "the trace diagonal")
    offs = [d for d, _ in symbol.coeffs] or [0]
    if sum(_products(len(symbol.coeffs), max(offs) - min(offs), p) for p in ps) > ops.TRACE_TERMS:
        raise ResourceLimit(f"the symbol moments up to power {max(ps)} may take more than "
                            f"the budget of {ops.TRACE_TERMS} products")
    moments = {n: _trace_moments(spec, n, ps) for n in reversed(ns)}     # the largest n binds
    refs = {p: symbol_moment(symbol, p) for p in ps}
    rows: list[SzegoRow] = []
    gaps: dict[int, list[float]] = {p: [] for p in ps}
    for n in ns:
        for p in ps:
            emp = moments[n][p]
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
