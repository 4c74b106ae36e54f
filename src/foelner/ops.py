"""Banded operators on l2(N), coordinate projections, and exact commutator windows.

Everything here is 1-based: the basis is e_1, e_2, ... and matrix entries are
addressed as (row, column) with row, column >= 1.  Dense windows (numpy arrays)
are the only 0-based objects and appear only at the API boundary.

An operator is described symbolically by :class:`OperatorSpec`; entries are
evaluated on demand from per-column / per-row supports, so specs act on
arbitrarily large (Python int) indices.  Commutators against coordinate
projections are assembled exactly from those supports: for a coordinate
projection R with index set K,

    [T, R]_(i,j) = T_(i,j) * (1_K(j) - 1_K(i)),

so the commutator is supported on the finitely many entries of T that cross
the boundary of K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    InvalidSpec,
    SelectorOutOfRange,
    UnboundedSupport,
    WeightUndefined,
    WindowTooSmall,
)

_WEIGHT_NAMES = ("log", "sqrt", "linear", "inverse")

_KINDS = (
    "weighted_shift",
    "adjoint_weighted_shift",
    "diagonal",
    "dilation_shift",
    "example_A",
    "toeplitz",
    "hermite_q",
    "hermite_p",
    "creation",
    "annihilation",
    "sum",
    "scale",
    "product",
)


def _parse_weight(rule: str) -> Callable[[int], float]:
    """Turn a weight-rule string into an index -> float evaluator.

    Vocabulary: "log", "sqrt", "linear", "inverse", "const:<c>", "pow:<a>",
    where c and a are finite floats.
    Indices are Python ints and may exceed float range; evaluators fall back
    to exact integer arithmetic where that keeps the value finite and raise
    WeightUndefined otherwise.
    """
    if rule == "log":
        # math.log accepts arbitrary-precision ints directly
        return lambda n: math.log(n)
    if rule == "sqrt":
        def _sqrt(n: int) -> float:
            try:
                return math.sqrt(n)
            except OverflowError:
                raise WeightUndefined(f"sqrt weight overflows at index {n}") from None
        return _sqrt
    if rule == "linear":
        def _lin(n: int) -> float:
            try:
                return float(n)
            except OverflowError:
                raise WeightUndefined(f"linear weight overflows at index {n}") from None
        return _lin
    if rule == "inverse":
        # int/int division is correctly rounded even for huge denominators
        return lambda n: 1 / n
    if rule.startswith(("const:", "pow:")):
        kind, arg = rule.split(":", 1)
        try:
            a = float(arg)
        except ValueError:
            raise InvalidSpec(f"weight rule {rule!r} needs a number after {kind}:") from None
        if not math.isfinite(a):
            raise InvalidSpec(f"weight rule {rule!r} needs a finite number after {kind}:")
        if kind == "const":
            return lambda n: a
        def _pow(n: int) -> float:
            try:
                return float(n) ** a
            except OverflowError:
                if a < 0:
                    return math.exp(a * math.log(n))
                raise WeightUndefined(f"pow:{a} weight overflows at index {n}") from None
        return _pow
    raise InvalidSpec(f"unknown weight rule {rule!r}")


@dataclass(frozen=True)
class OperatorSpec:
    """Symbolic description of a band-structured operator.

    Use the classmethod constructors; they validate parameters once so that
    entry evaluation can stay unchecked and fast.
    """

    kind: str
    weight: str | None = None
    bands: tuple[tuple[int, complex], ...] = ()
    factor: complex = 1.0
    children: tuple["OperatorSpec", ...] = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def weighted_shift(cls, weight: str) -> "OperatorSpec":
        """S e_n = w_n e_{n+1}."""
        _parse_weight(weight)
        return cls(kind="weighted_shift", weight=weight)

    @classmethod
    def adjoint_weighted_shift(cls, weight: str) -> "OperatorSpec":
        """Adjoint of the weighted shift: e_n -> conj(w_{n-1}) e_{n-1}."""
        _parse_weight(weight)
        return cls(kind="adjoint_weighted_shift", weight=weight)

    @classmethod
    def diagonal(cls, weight: str) -> "OperatorSpec":
        """D e_n = w_n e_n."""
        _parse_weight(weight)
        return cls(kind="diagonal", weight=weight)

    @classmethod
    def dilation_shift(cls, weight: str = "sqrt") -> "OperatorSpec":
        """S e_n = w_n e_{2n} (weight defaults to sqrt)."""
        _parse_weight(weight)
        return cls(kind="dilation_shift", weight=weight)

    @classmethod
    def example_a(cls) -> "OperatorSpec":
        """Block upper-triangular test operator with one-sided commutators.

        A e_{2j-1} = (2j-1)^2 e_{2j-1} + (2j-1)^{-1} e_{2j},
        A e_{2j}   = (2j)^2 e_{2j}.
        """
        return cls(kind="example_A")

    @classmethod
    def toeplitz(cls, bands: dict[int, complex]) -> "OperatorSpec":
        """Banded Toeplitz matrix; keys are offsets d = row - column."""
        items = []
        for off, val in bands.items():
            if not isinstance(off, int):
                raise InvalidSpec(f"toeplitz offset {off!r} is not an int")
            v = complex(val)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise InvalidSpec(f"toeplitz coefficient at offset {off} is not finite")
            if v != 0:
                items.append((off, v))
        return cls(kind="toeplitz", bands=tuple(sorted(items)))

    @classmethod
    def hermite_q(cls) -> "OperatorSpec":
        """Position operator in the Hermite basis: (a* + a)/sqrt(2)."""
        return cls(kind="hermite_q")

    @classmethod
    def hermite_p(cls) -> "OperatorSpec":
        """Momentum operator in the Hermite basis: i(a* - a)/sqrt(2)."""
        return cls(kind="hermite_p")

    @classmethod
    def creation(cls) -> "OperatorSpec":
        """a* e_n = sqrt(n) e_{n+1}."""
        return cls(kind="creation")

    @classmethod
    def annihilation(cls) -> "OperatorSpec":
        """a e_n = sqrt(n-1) e_{n-1}, a e_1 = 0."""
        return cls(kind="annihilation")

    @classmethod
    def sum(cls, *children: "OperatorSpec") -> "OperatorSpec":
        if not children:
            raise InvalidSpec("sum needs at least one child")
        return cls(kind="sum", children=tuple(children))

    @classmethod
    def scale(cls, factor: complex, child: "OperatorSpec") -> "OperatorSpec":
        c = complex(factor)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidSpec("scale factor is not finite")
        return cls(kind="scale", factor=c, children=(child,))

    @classmethod
    def product(cls, *children: "OperatorSpec") -> "OperatorSpec":
        if not children:
            raise InvalidSpec("product needs at least one child")
        return cls(kind="product", children=tuple(children))

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown operator kind {self.kind!r}")

    # -- weight cache ------------------------------------------------------

    @property
    def _w(self) -> Callable[[int], float]:
        fn = _WEIGHT_CACHE.get(self.weight)
        if fn is None:
            fn = _parse_weight(self.weight)
            _WEIGHT_CACHE[self.weight] = fn
        return fn


_WEIGHT_CACHE: dict[str, Callable[[int], float]] = {}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# column / row supports
# ---------------------------------------------------------------------------

def col_support(spec: OperatorSpec, j: int) -> dict[int, complex]:
    """Nonzero entries of column j as {row: value}.  Exact, merged, zero-free."""
    if j < 1:
        raise ValueError("indices are 1-based")
    k = spec.kind
    if k == "weighted_shift":
        v = spec._w(j)
        return {j + 1: v} if v != 0 else {}
    if k == "adjoint_weighted_shift":
        if j < 2:
            return {}
        v = spec._w(j - 1)
        return {j - 1: v.conjugate() if isinstance(v, complex) else v} if v != 0 else {}
    if k == "diagonal":
        v = spec._w(j)
        return {j: v} if v != 0 else {}
    if k == "dilation_shift":
        v = spec._w(j)
        return {2 * j: v} if v != 0 else {}
    if k == "example_A":
        if j % 2 == 1:
            return {j: float(j) ** 2, j + 1: 1 / j}
        return {j: float(j) ** 2}
    if k == "toeplitz":
        return {j + off: val for off, val in spec.bands if j + off >= 1}
    if k == "hermite_q":
        out: dict[int, complex] = {j + 1: math.sqrt(j) * _INV_SQRT2}
        if j >= 2:
            out[j - 1] = math.sqrt(j - 1) * _INV_SQRT2
        return out
    if k == "hermite_p":
        out = {j + 1: 1j * math.sqrt(j) * _INV_SQRT2}
        if j >= 2:
            out[j - 1] = -1j * math.sqrt(j - 1) * _INV_SQRT2
        return out
    if k == "creation":
        return {j + 1: math.sqrt(j)}
    if k == "annihilation":
        return {j - 1: math.sqrt(j - 1)} if j >= 2 else {}
    if k == "sum":
        acc: dict[int, complex] = {}
        for ch in spec.children:
            for i, v in col_support(ch, j).items():
                acc[i] = acc.get(i, 0) + v
        return {i: v for i, v in acc.items() if v != 0}
    if k == "scale":
        if spec.factor == 0:
            return {}
        return {i: spec.factor * v for i, v in col_support(spec.children[0], j).items()}
    if k == "product":
        vec: dict[int, complex] = {j: 1.0}
        for ch in reversed(spec.children):
            nxt: dict[int, complex] = {}
            for idx, coef in vec.items():
                for i, v in col_support(ch, idx).items():
                    nxt[i] = nxt.get(i, 0) + coef * v
            vec = {i: v for i, v in nxt.items() if v != 0}
            if not vec:
                return {}
        return vec
    raise InvalidSpec(f"unknown operator kind {k!r}")


def row_support(spec: OperatorSpec, i: int) -> dict[int, complex]:
    """Nonzero entries of row i as {column: value}."""
    if i < 1:
        raise ValueError("indices are 1-based")
    k = spec.kind
    if k == "weighted_shift":
        if i < 2:
            return {}
        v = spec._w(i - 1)
        return {i - 1: v} if v != 0 else {}
    if k == "adjoint_weighted_shift":
        v = spec._w(i)
        v = v.conjugate() if isinstance(v, complex) else v
        return {i + 1: v} if v != 0 else {}
    if k == "diagonal":
        v = spec._w(i)
        return {i: v} if v != 0 else {}
    if k == "dilation_shift":
        if i % 2 == 0:
            v = spec._w(i // 2)
            if v != 0:
                return {i // 2: v}
        return {}
    if k == "example_A":
        if i % 2 == 1:
            return {i: float(i) ** 2}
        return {i - 1: 1 / (i - 1), i: float(i) ** 2}
    if k == "toeplitz":
        return {i - off: val for off, val in spec.bands if i - off >= 1}
    if k == "hermite_q":
        out: dict[int, complex] = {i + 1: math.sqrt(i) * _INV_SQRT2}
        if i >= 2:
            out[i - 1] = math.sqrt(i - 1) * _INV_SQRT2
        return out
    if k == "hermite_p":
        out = {i + 1: -1j * math.sqrt(i) * _INV_SQRT2}
        if i >= 2:
            out[i - 1] = 1j * math.sqrt(i - 1) * _INV_SQRT2
        return out
    if k == "creation":
        return {i - 1: math.sqrt(i - 1)} if i >= 2 else {}
    if k == "annihilation":
        return {i + 1: math.sqrt(i)}
    if k == "sum":
        acc: dict[int, complex] = {}
        for ch in spec.children:
            for j, v in row_support(ch, i).items():
                acc[j] = acc.get(j, 0) + v
        return {j: v for j, v in acc.items() if v != 0}
    if k == "scale":
        if spec.factor == 0:
            return {}
        return {j: spec.factor * v for j, v in row_support(spec.children[0], i).items()}
    if k == "product":
        vec: dict[int, complex] = {i: 1.0}
        for ch in spec.children:
            nxt: dict[int, complex] = {}
            for idx, coef in vec.items():
                for j, v in row_support(ch, idx).items():
                    nxt[j] = nxt.get(j, 0) + coef * v
            vec = {j: v for j, v in nxt.items() if v != 0}
            if not vec:
                return {}
        return vec
    raise InvalidSpec(f"unknown operator kind {k!r}")


def _col_hi(spec: OperatorSpec, j: int) -> int:
    """Monotone upper bound for max(row index) over columns 1..j.  0 = empty."""
    k = spec.kind
    if k in ("weighted_shift", "creation"):
        return j + 1
    if k == "adjoint_weighted_shift":
        return j - 1 if j >= 2 else 0
    if k == "diagonal":
        return j
    if k == "dilation_shift":
        return 2 * j
    if k == "example_A":
        return j + 1
    if k == "toeplitz":
        if not spec.bands:
            return 0
        hi = j + max(off for off, _ in spec.bands)
        return hi if hi >= 1 else 0
    if k in ("hermite_q", "hermite_p"):
        return j + 1
    if k == "annihilation":
        return j - 1 if j >= 2 else 0
    if k == "sum":
        return max(_col_hi(ch, j) for ch in spec.children)
    if k == "scale":
        return _col_hi(spec.children[0], j)
    if k == "product":
        h = j
        for ch in reversed(spec.children):
            h = _col_hi(ch, h)
            if h == 0:
                return 0
        return h
    raise InvalidSpec(f"unknown operator kind {k!r}")


def _row_hi(spec: OperatorSpec, i: int) -> int:
    """Monotone upper bound for max(column index) over rows 1..i.  0 = empty."""
    k = spec.kind
    if k == "weighted_shift":
        return i - 1 if i >= 2 else 0
    if k in ("adjoint_weighted_shift", "annihilation"):
        return i + 1
    if k == "diagonal":
        return i
    if k == "dilation_shift":
        return i // 2
    if k == "example_A":
        return i
    if k == "toeplitz":
        if not spec.bands:
            return 0
        hi = i - min(off for off, _ in spec.bands)
        return hi if hi >= 1 else 0
    if k in ("hermite_q", "hermite_p"):
        return i + 1
    if k == "creation":
        return i - 1 if i >= 2 else 0
    if k == "sum":
        return max(_row_hi(ch, i) for ch in spec.children)
    if k == "scale":
        return _row_hi(spec.children[0], i)
    if k == "product":
        h = i
        for ch in spec.children:
            h = _row_hi(ch, h)
            if h == 0:
                return 0
        return h
    raise InvalidSpec(f"unknown operator kind {k!r}")


def propagation(spec: OperatorSpec) -> int | None:
    """Max |row - column| over nonzero entries; None when unbounded."""
    k = spec.kind
    if k in ("weighted_shift", "adjoint_weighted_shift", "creation", "annihilation",
             "hermite_q", "hermite_p", "example_A"):
        return 1
    if k == "diagonal":
        return 0
    if k == "dilation_shift":
        return None
    if k == "toeplitz":
        return max((abs(off) for off, _ in spec.bands), default=0)
    if k in ("sum",):
        parts = [propagation(ch) for ch in spec.children]
        return None if any(p is None for p in parts) else max(parts)
    if k == "scale":
        return propagation(spec.children[0])
    if k == "product":
        parts = [propagation(ch) for ch in spec.children]
        return None if any(p is None for p in parts) else sum(parts)
    raise InvalidSpec(f"unknown operator kind {k!r}")


# ---------------------------------------------------------------------------
# public operator calculus
# ---------------------------------------------------------------------------

def entry(spec: OperatorSpec, i: int, j: int) -> complex:
    """Matrix entry (i, j), 1-based."""
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    return complex(col_support(spec, j).get(i, 0.0))


def capture_bound(spec: OperatorSpec, n: int) -> int:
    """Smallest window dimension m with [T, P_n] = P_m [T, P_n] P_m exactly.

    P_n is the canonical rank-n coordinate projection.  The bound is computed
    from exact column supports of columns 1..n and row supports of rows 1..n,
    so for banded kinds it equals n + propagation while structurally sparse
    kinds (dilation) get their true reach.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n
    for _, below in _boundary_cols(spec, n):
        m = max(m, max(below))
    for _, beyond in _boundary_rows(spec, n):
        m = max(m, max(beyond))
    return m


def _suffix_start(hi: Callable[[int], int], n: int) -> int | None:
    """Smallest t in 1..n with hi(t) > n, using monotonicity; None if no t."""
    if hi(n) <= n:
        return None
    lo, hi_i = 1, n
    while lo < hi_i:
        mid = (lo + hi_i) // 2
        if hi(mid) > n:
            hi_i = mid
        else:
            lo = mid + 1
    return lo


def _boundary_cols(spec: OperatorSpec, n: int) -> Iterable[tuple[int, dict[int, complex]]]:
    """Yield (row, {col: +T_ij}) pieces of T P_n with row index beyond n.

    Concretely: for columns j <= n whose support reaches past n, yields
    (i, j, value) triples grouped as per-column dicts {i: value, ...} with
    i > n.
    """
    j0 = _suffix_start(lambda t: _col_hi(spec, t), n)
    if j0 is None:
        return
    for j in range(j0, n + 1):
        below = {i: v for i, v in col_support(spec, j).items() if i > n}
        if below:
            yield j, below


def _boundary_rows(spec: OperatorSpec, n: int) -> Iterable[tuple[int, dict[int, complex]]]:
    """Yield (row, {col: value}) pieces of P_n T with column index beyond n."""
    i0 = _suffix_start(lambda t: _row_hi(spec, t), n)
    if i0 is None:
        return
    for i in range(i0, n + 1):
        beyond = {j: v for j, v in row_support(spec, i).items() if j > n}
        if beyond:
            yield i, beyond


@dataclass(frozen=True)
class Window:
    """A finite dense corner of an operator: dim plus a dim x dim matrix."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"entries shape {a.shape} != ({self.dim}, {self.dim})")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ValueError("window entries must be finite")
        object.__setattr__(self, "entries", a)


def compress(spec: OperatorSpec, N: int) -> Window:
    """P_N T P_N as a dense N x N window."""
    if N < 1:
        raise ValueError("N must be >= 1")
    a = np.zeros((N, N), dtype=complex)
    for j in range(1, N + 1):
        for i, v in col_support(spec, j).items():
            if i <= N:
                a[i - 1, j - 1] = v
    return Window(N, a)


# ---------------------------------------------------------------------------
# projection families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionFamily:
    """An increasing sequence of finite-rank orthogonal projections.

    kinds:
      canonical -- P_n = projection onto span{e_1..e_n}
      sparse    -- R_n = projection onto {e_{k_1}..e_{k_n}}, k strictly increasing
      blocks    -- R_n = projection onto the union of the first n index blocks
      explicit  -- R_n = V_n V_n* for stored orthonormal bases V_n
    """

    kind: str
    rule: Callable[[int], int] | None = None
    blocks: tuple[tuple[int, int], ...] = ()   # half-open 1-based (lo, hi] intervals
    bases: tuple[np.ndarray, ...] = ()

    @classmethod
    def canonical(cls) -> "ProjectionFamily":
        return cls(kind="canonical")

    @classmethod
    def sparse(cls, rule: Callable[[int], int] | Sequence[int]) -> "ProjectionFamily":
        if not callable(rule):
            seq = [int(k) for k in rule]
            if any(b <= a for a, b in zip(seq, seq[1:])) or (seq and seq[0] < 1):
                raise InvalidSpec("sparse indices must be strictly increasing and >= 1")
            rule_fn = lambda n, _s=tuple(seq): _s[n - 1]
            return cls(kind="sparse", rule=rule_fn)
        return cls(kind="sparse", rule=rule)

    @classmethod
    def from_boundaries(cls, boundaries: Sequence[int]) -> "ProjectionFamily":
        """Blocks family from 0 = b_0 < b_1 < ... ; block i is (b_{i-1}, b_i]."""
        bs = [int(b) for b in boundaries]
        if not bs or bs[0] != 0 or any(b <= a for a, b in zip(bs, bs[1:])):
            raise InvalidSpec("boundaries must start at 0 and strictly increase")
        ivals = tuple((bs[i], bs[i + 1]) for i in range(len(bs) - 1))
        return cls(kind="blocks", blocks=ivals)

    @classmethod
    def explicit(cls, bases: Sequence[np.ndarray], tol: float = 1e-12) -> "ProjectionFamily":
        mats = []
        for V in bases:
            V = np.asarray(V, dtype=complex)
            if V.ndim != 2:
                raise InvalidSpec("each explicit basis must be a 2-d array of columns")
            g = V.conj().T @ V
            if np.max(np.abs(g - np.eye(V.shape[1]))) > tol:
                raise InvalidSpec("explicit basis columns are not orthonormal")
            mats.append(V)
        return cls(kind="explicit", bases=tuple(mats))

    # -- queries -----------------------------------------------------------

    def indices(self, n: int) -> list[int]:
        """Coordinate index set of the n-th projection (not for explicit kind)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "canonical":
            return list(range(1, n + 1))
        if self.kind == "sparse":
            ks = [self.rule(t) for t in range(1, n + 1)]
            if any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] < 1:
                raise InvalidSpec("sparse rule is not strictly increasing")
            return ks
        if self.kind == "blocks":
            if n > len(self.blocks):
                raise SelectorOutOfRange(f"family has {len(self.blocks)} blocks, asked for {n}")
            out: list[int] = []
            for lo, hi in self.blocks[:n]:
                out.extend(range(lo + 1, hi + 1))
            return out
        raise InvalidSpec("explicit families have no coordinate index set")

    def rank(self, n: int) -> int:
        if self.kind == "explicit":
            if n > len(self.bases):
                raise SelectorOutOfRange(f"family has {len(self.bases)} members, asked for {n}")
            return self.bases[n - 1].shape[1]
        if self.kind == "blocks":
            if n > len(self.blocks):
                raise SelectorOutOfRange(f"family has {len(self.blocks)} blocks, asked for {n}")
            return sum(hi - lo for lo, hi in self.blocks[:n])
        return n


def projection_window(fam: ProjectionFamily, n: int, N: int) -> Window:
    """The n-th projection of the family as a dense N x N window."""
    if fam.kind == "explicit":
        if n > len(fam.bases):
            raise SelectorOutOfRange(f"family has {len(fam.bases)} members, asked for {n}")
        V = fam.bases[n - 1]
        if V.shape[0] > N:
            raise WindowTooSmall(f"explicit basis lives in dimension {V.shape[0]} > {N}")
        m = V @ V.conj().T
        a = np.zeros((N, N), dtype=complex)
        # entrywise-exact Hermitian symmetrization of the BLAS product
        a[: V.shape[0], : V.shape[0]] = (m + m.conj().T) / 2
        return Window(N, a)
    idx = fam.indices(n)
    if idx and idx[-1] > N:
        raise WindowTooSmall(f"projection touches index {idx[-1]} > window {N}")
    a = np.zeros((N, N), dtype=complex)
    for k in idx:
        a[k - 1, k - 1] = 1.0
    return Window(N, a)


# ---------------------------------------------------------------------------
# exact commutators
# ---------------------------------------------------------------------------

def commutator_triplets(spec: OperatorSpec, fam: ProjectionFamily, n: int) -> list[tuple[int, int, complex]]:
    """All nonzero entries of [T, R_n] as (row, col, value) with exact support.

    For coordinate families this uses [T,R]_(i,j) = T_(i,j)(1_K(j) - 1_K(i));
    entries are merged by position and exact zeros dropped.
    """
    if fam.kind == "explicit":
        raise InvalidSpec("triplet assembly needs a coordinate family")
    acc: dict[tuple[int, int], complex] = {}
    if fam.kind == "canonical":
        m = n
        for j, below in _boundary_cols(spec, m):
            for i, v in below.items():
                acc[(i, j)] = acc.get((i, j), 0) + v
        for i, beyond in _boundary_rows(spec, m):
            for j, v in beyond.items():
                acc[(i, j)] = acc.get((i, j), 0) - v
    else:
        K = set(fam.indices(n))
        for j in K:
            for i, v in col_support(spec, j).items():
                if i not in K:
                    acc[(i, j)] = acc.get((i, j), 0) + v
        for i in K:
            for j, v in row_support(spec, i).items():
                if j not in K:
                    acc[(i, j)] = acc.get((i, j), 0) - v
    return [(i, j, v) for (i, j), v in acc.items() if v != 0]


def commutator_window(spec: OperatorSpec, fam: ProjectionFamily, n: int) -> Window:
    """[T, R_n] as a dense window that captures every nonzero entry.

    For the canonical family the window dimension is capture_bound(spec, n);
    for other coordinate families it is the largest index the commutator or
    the projection touches.
    """
    if fam.kind == "explicit":
        if n > len(fam.bases):
            raise SelectorOutOfRange(f"family has {len(fam.bases)} members, asked for {n}")
        V = fam.bases[n - 1]
        N = V.shape[0]
        m = max(N, _col_hi(spec, N), _row_hi(spec, N))
        T = compress(spec, m).entries
        R = projection_window(fam, n, m).entries
        return Window(m, T @ R - R @ T)
    trips = commutator_triplets(spec, fam, n)
    if fam.kind == "canonical":
        m = capture_bound(spec, n)
    else:
        idx = fam.indices(n)
        m = max([idx[-1]] + [max(i, j) for i, j, _ in trips]) if idx else 1
    a = np.zeros((m, m), dtype=complex)
    for i, j, v in trips:
        a[i - 1, j - 1] = v
    return Window(m, a)
