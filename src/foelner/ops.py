"""Banded operators on l2(N), coordinate projections, and exact commutator windows.

Everything here is 1-based: the basis is e_1, e_2, ... and matrix entries are
addressed as (row, column) with row, column >= 1.  Dense windows (numpy arrays)
are the only 0-based objects and appear only at the API boundary.

An operator is described symbolically by :class:`OperatorSpec`; entries are
evaluated on demand from per-column / per-row supports, so specs act on
arbitrarily large (Python int) indices.  Finite sections P_N T P_N are built
sparse (``sparse_window``); a dense window is refused before allocation when
it would exceed ``DENSE_CELLS`` cells.  The operator vocabulary is written
once, in the term table ``_PRIMITIVES``: each primitive kind is a short tuple
of elementary terms (a, b, w) meaning e_j -> w(j) e_{a*j + b}, a in {1, 2}.
Column and row supports, the monotone reach bounds behind capture windows
and the propagation all follow from the terms; only sums, scalings and
products are recursive.  Commutators against coordinate projections are
assembled exactly from those supports: for a coordinate projection R with
index set K,

    [T, R]_(i,j) = T_(i,j) * (1_K(j) - 1_K(i)),

so the commutator is supported on the finitely many entries of T that cross
the boundary of K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse

from .errors import (InvalidSpec, ResourceLimit, SelectorOutOfRange, WeightUndefined,
                     WindowTooSmall)


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
    if isinstance(rule, str) and rule.startswith(("const:", "pow:")):
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


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Every primitive kind as elementary terms (a, b, w): column j holds w(j) in
# row a*j + b.  Rows below 1 and zero values are dropped, so a term may switch
# itself off (example_A's off-diagonal term is 0 on even columns).  The terms
# of one kind share a and have distinct b.  Column supports visit the terms in
# order and row supports in reverse.  These orders (toeplitz: top offset first)
# fix the order of commutator triplets, and with it the float sum behind s2.
_PRIMITIVES: dict[str, Callable[["OperatorSpec"], tuple[tuple[int, int, Callable], ...]]] = {
    "weighted_shift": lambda s: ((1, 1, _parse_weight(s.weight)),),
    "adjoint_weighted_shift":
        lambda s: ((1, -1, lambda j, w=_parse_weight(s.weight): w(j - 1)),),
    "diagonal": lambda s: ((1, 0, _parse_weight(s.weight)),),
    "dilation_shift": lambda s: ((2, 0, _parse_weight(s.weight or "sqrt")),),
    "example_A": lambda s: ((1, 0, lambda j: float(j) ** 2),
                            (1, 1, lambda j: 1 / j if j % 2 else 0)),
    "toeplitz": lambda s: tuple((1, off, lambda j, v=v: v) for off, v in reversed(s.bands)),
    "hermite_q": lambda s: ((1, 1, lambda j: math.sqrt(j) * _INV_SQRT2),
                            (1, -1, lambda j: math.sqrt(j - 1) * _INV_SQRT2)),
    "hermite_p": lambda s: ((1, 1, lambda j: 1j * math.sqrt(j) * _INV_SQRT2),
                            (1, -1, lambda j: -1j * math.sqrt(j - 1) * _INV_SQRT2)),
    "creation": lambda s: ((1, 1, math.sqrt),),
    "annihilation": lambda s: ((1, -1, lambda j: math.sqrt(j - 1)),),
}


@dataclass(frozen=True)
class OperatorSpec:
    """Symbolic description of a band-structured operator.

    Construction validates the kind, weight rule, bands, factor and children
    once and builds the primitive terms with their reach (a, min b, max b),
    so entry evaluation can stay unchecked and fast.  Terms and reach are
    kept on the instance outside the dataclass fields, so equality and
    hashing see only the fields.
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
        return cls(kind="weighted_shift", weight=weight)

    @classmethod
    def adjoint_weighted_shift(cls, weight: str) -> "OperatorSpec":
        """Adjoint of the weighted shift: e_n -> w_{n-1} e_{n-1}."""
        return cls(kind="adjoint_weighted_shift", weight=weight)

    @classmethod
    def diagonal(cls, weight: str) -> "OperatorSpec":
        """D e_n = w_n e_n."""
        return cls(kind="diagonal", weight=weight)

    @classmethod
    def dilation_shift(cls, weight: str = "sqrt") -> "OperatorSpec":
        """S e_n = w_n e_{2n} (weight defaults to sqrt)."""
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
        return cls(kind="toeplitz", bands=tuple(bands.items()))

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
        return cls(kind="sum", children=children)

    @classmethod
    def scale(cls, factor: complex, child: "OperatorSpec") -> "OperatorSpec":
        return cls(kind="scale", factor=factor, children=(child,))

    @classmethod
    def product(cls, *children: "OperatorSpec") -> "OperatorSpec":
        return cls(kind="product", children=children)

    def __post_init__(self):
        build = _PRIMITIVES.get(self.kind)
        if build is None and self.kind not in ("sum", "scale", "product"):
            raise InvalidSpec(f"unknown operator kind {self.kind!r}")
        if build is None and not self.children:
            raise InvalidSpec(f"{self.kind} needs at least one child")
        bands = []
        for off, val in dict(self.bands).items():
            if not isinstance(off, int):
                raise InvalidSpec(f"band offset {off!r} is not an int")
            v = complex(val)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise InvalidSpec(f"band coefficient at offset {off} is not finite")
            if v != 0:
                bands.append((off, v))
        c = complex(self.factor)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise InvalidSpec("scale factor is not finite")
        object.__setattr__(self, "bands", tuple(sorted(bands)))
        object.__setattr__(self, "factor", c)
        terms = build(self) if build else None
        offsets = [b for _, b, _ in terms or ()]
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_reach",
                           (terms[0][0], min(offsets), max(offsets)) if offsets else None)

    def __reduce__(self):
        # the terms hold closures; pickle the fields and rebuild them
        return type(self), (self.kind, self.weight, self.bands, self.factor, self.children)


# ---------------------------------------------------------------------------
# column / row supports
# ---------------------------------------------------------------------------

def col_support(spec: OperatorSpec, j: int) -> dict[int, complex]:
    """Nonzero entries of column j as {row: value}.  Exact, merged, zero-free."""
    if j < 1:
        raise ValueError("indices are 1-based")
    terms = spec._terms
    if terms is None:
        return _composite_support(spec, j, col_support, reversed(spec.children))
    out: dict[int, complex] = {}
    for a, b, w in terms:
        i = a * j + b
        if i >= 1:
            v = w(j)
            if v != 0:
                out[i] = v
    return out


def row_support(spec: OperatorSpec, i: int) -> dict[int, complex]:
    """Nonzero entries of row i as {column: value}."""
    if i < 1:
        raise ValueError("indices are 1-based")
    terms = spec._terms
    if terms is None:
        return _composite_support(spec, i, row_support, spec.children)
    out: dict[int, complex] = {}
    for a, b, w in reversed(terms):
        j = (i - b) // a
        if j >= 1 and a * j + b == i:
            v = w(j)
            if v != 0:
                out[j] = v
    return out


def _composite_support(spec: OperatorSpec, t: int, support: Callable,
                       chain: Iterable[OperatorSpec]) -> dict[int, complex]:
    """Support of a sum, scale or product at index t from its children's.

    support is col_support or row_support, and chain the order in which a
    product applies its children (right to left for a column).
    """
    k = spec.kind
    if k == "sum":
        acc: dict[int, complex] = {}
        for ch in spec.children:
            for s, v in support(ch, t).items():
                acc[s] = acc.get(s, 0) + v
        return {s: v for s, v in acc.items() if v != 0}
    if k == "scale":
        if spec.factor == 0:
            return {}
        return {s: spec.factor * v for s, v in support(spec.children[0], t).items()}
    vec: dict[int, complex] = {t: 1.0}
    for ch in chain:
        nxt: dict[int, complex] = {}
        for idx, coef in vec.items():
            for s, v in support(ch, idx).items():
                nxt[s] = nxt.get(s, 0) + coef * v
        vec = {s: v for s, v in nxt.items() if v != 0}
        if not vec:
            return {}
    return vec


def _col_hi(spec: OperatorSpec, j: int) -> int:
    """Monotone upper bound for max(row index) over columns 1..j.  0 = empty."""
    reach = spec._reach
    if reach is None:
        return _composite_hi(spec, j, _col_hi, reversed(spec.children))
    a, _, b = reach
    h = a * j + b
    return h if h >= 1 else 0


def _row_hi(spec: OperatorSpec, i: int) -> int:
    """Monotone upper bound for max(column index) over rows 1..i.  0 = empty."""
    reach = spec._reach
    if reach is None:
        return _composite_hi(spec, i, _row_hi, spec.children)
    a, b, _ = reach
    h = (i - b) // a
    return h if h >= 1 else 0


def _composite_hi(spec: OperatorSpec, t: int, hi: Callable,
                  chain: Iterable[OperatorSpec]) -> int:
    """Reach bound of a sum, scale or product; 0 for a primitive without terms."""
    k = spec.kind
    if k == "sum":
        return max(hi(ch, t) for ch in spec.children)
    if k == "scale":
        return hi(spec.children[0], t)
    if k != "product":
        return 0
    for ch in chain:
        t = hi(ch, t)
        if t == 0:
            return 0
    return t


def propagation(spec: OperatorSpec) -> int | None:
    """Max |row - column| over nonzero entries; None when unbounded."""
    reach = spec._reach
    if reach is not None:
        a, lo, hi = reach
        return max(abs(lo), abs(hi)) if a == 1 else None
    k = spec.kind
    if k == "scale":
        return propagation(spec.children[0])
    if k not in ("sum", "product"):
        return 0
    parts = [propagation(ch) for ch in spec.children]
    if any(p is None for p in parts):
        return None
    return max(parts) if k == "sum" else sum(parts)


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
    for hi, support in ((_col_hi, col_support), (_row_hi, row_support)):
        for _, part in _boundary(spec, n, hi, support):
            m = max(m, max(part))
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


def _boundary(spec: OperatorSpec, n: int, hi: Callable,
              support: Callable) -> Iterable[tuple[int, dict[int, complex]]]:
    """Yield (t, {s: value}) for each t <= n whose support reaches past n.

    With _col_hi/col_support, t is a column of T P_n and s > n its rows;
    with _row_hi/row_support, t is a row of P_n T and s > n its columns.
    """
    t0 = _suffix_start(lambda t: hi(spec, t), n)
    if t0 is None:
        return
    for t in range(t0, n + 1):
        part = {s: v for s, v in support(spec, t).items() if s > n}
        if part:
            yield t, part


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


def hermitian_part(a: np.ndarray, tol: float, error: type[Exception],
                   message: str) -> np.ndarray:
    """(a + a*)/2; raises error(message) if max|a - a*| > tol * max(1, max|a_ij|)."""
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.conj().T))) > tol * scale:
        raise error(message)
    return (a + a.conj().T) / 2


# Budget for every dense array of windows: 2^24 complex cells (256 MiB), a
# 4096 x 4096 window.  Dense paths check it before they allocate and raise
# ResourceLimit past it; sparse paths (halmos, szego, triplet norms) never
# allocate a dense window and are not bound by it.
DENSE_CELLS = 1 << 24

_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", complex)])


def check_dense(cells: int, what: str) -> None:
    """Raise ResourceLimit if a dense allocation of `cells` entries is over DENSE_CELLS."""
    if cells > DENSE_CELLS:
        raise ResourceLimit(f"{what} needs {cells} dense cells, "
                            f"over the budget of {DENSE_CELLS}")


def sparse_window(spec: OperatorSpec, N: int) -> scipy.sparse.csr_matrix:
    """P_N T P_N as an N x N complex CSR matrix (0-based, canonical format).

    Holds the col_support entries of columns 1..N with row <= N; memory is
    O(nnz), gathered straight into numpy arrays.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    e = np.fromiter(((i - 1, j - 1, v) for j in range(1, N + 1)
                     for i, v in col_support(spec, j).items() if i <= N), dtype=_ENTRY)
    return scipy.sparse.csr_matrix((e["v"], (e["i"], e["j"])), shape=(N, N))


def to_window(m: scipy.sparse.spmatrix) -> Window:
    """Dense view of a square sparse matrix, refused past the dense budget."""
    N = m.shape[0]
    check_dense(N * N, f"a dense {N} x {N} window")
    return Window(N, m.toarray())


def compress(spec: OperatorSpec, N: int) -> Window:
    """P_N T P_N as a dense N x N window."""
    return to_window(sparse_window(spec, N))


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
        check_dense(N * N, f"a dense {N} x {N} projection window")
        m = V @ V.conj().T
        a = np.zeros((N, N), dtype=complex)
        # entrywise-exact Hermitian symmetrization of the BLAS product
        a[: V.shape[0], : V.shape[0]] = (m + m.conj().T) / 2
        return Window(N, a)
    idx = fam.indices(n)
    if idx and idx[-1] > N:
        raise WindowTooSmall(f"projection touches index {idx[-1]} > window {N}")
    check_dense(N * N, f"a dense {N} x {N} projection window")
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
        for j, below in _boundary(spec, n, _col_hi, col_support):
            for i, v in below.items():
                acc[(i, j)] = acc.get((i, j), 0) + v
        for i, beyond in _boundary(spec, n, _row_hi, row_support):
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
    check_dense(m * m, f"a dense {m} x {m} commutator window")
    a = np.zeros((m, m), dtype=complex)
    for i, j, v in trips:
        a[i - 1, j - 1] = v
    return Window(m, a)
