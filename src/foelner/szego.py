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

    def sup_bound(self) -> float:
        return float(sum(abs(v) for _, v in self.coeffs))


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
    """Empirical moments via traces of banded powers: (1/n) tr(T_n^p).

    Equal to the eigenvalue average but free of eigensolver noise, so
    moments that vanish by symmetry come out exactly zero.  The powers are
    sparse products of the sparse window: O(n) work for a banded T.
    """
    T = ops.sparse_window(spec, n)
    if not T.data.imag.any():
        T = T.real
    out: dict[int, float] = {}
    power = None
    for e in range(1, max(ps) + 1 if ps else 0):
        power = T if power is None else power @ T
        if e in ps:
            tr = float(power.diagonal().sum().real)
            if math.isfinite(tr):
                out[e] = tr / n
            else:
                # the trace overflows though the mean may not: sum the diagonal
                # scaled by 2^-k (exact), then scale the mean back
                k = n.bit_length()
                out[e] = float(np.ldexp(power.diagonal().real, -k).sum() / n * 2.0 ** k)
    if 0 in ps:
        out[0] = 1.0
    return out


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
