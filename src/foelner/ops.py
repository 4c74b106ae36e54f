"""Banded operators on l2(N), coordinate projections, and exact commutator windows.

Everything here is 1-based: the basis is e_1, e_2, ... and matrix entries are
addressed as (row, column) with row, column >= 1.  Dense windows (numpy arrays)
are the only 0-based objects and appear only at the API boundary.

An operator is described symbolically by :class:`OperatorSpec`; entries are
evaluated on demand, so specs act on arbitrarily large (Python int) indices.
The operator vocabulary is written once, in the term table ``_PRIMITIVES``:
each primitive kind is a short tuple of elementary terms (a, b, w) meaning
e_j -> w(j) e_{a*j + b}, a in {1, 2}.  One array kernel (``_gather``)
evaluates the table over a whole array of column or row indices at once;
sums, scalings and products merge their children's arrays, a product by a
sparse join over the intermediate index.  Every spec also carries one
affine enclosure of its support, built once per node from its terms or its
children: the rows of column j lie in [al*j + lo, ah*j + hi].  The
commutator boundary ranges and the propagation are closed forms on it.
A dense window over ``DENSE_CELLS`` cells is refused before allocation;
``compress`` (and so ``weyl.represent``) refuses it before the kernel runs.
Commutators against coordinate projections are assembled exactly from the
kernel: for a coordinate projection R with index set K,

    [T, R]_(i,j) = T_(i,j) * (1_K(j) - 1_K(i)),

so the commutator is supported on the finitely many entries of T that cross
the boundary of K.  One routine (``_commutator_entries``) finds them for a
whole ascending grid of n at once; commutator triplets are its one-point grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidSpec, ResourceLimit, SelectorOutOfRange, WeightUndefined


class _Weight(NamedTuple):
    """A weight rule: `at(j)` for one index, `over(js)` for an index array.

    `over` takes an int64 array (every index below _NATIVE) and agrees with
    `at` bit for bit there; None means `at` runs per index.  Calling the
    weight calls `at`.
    """

    at: Callable[[int], complex]
    over: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, j: int) -> complex:
        return self.at(j)


def _shifted(w: _Weight) -> _Weight:
    """The weight j -> w(j - 1)."""
    return _Weight(lambda j: w.at(j - 1), w.over and (lambda js: w.over(js - 1)))


def _constant(c: complex) -> _Weight:
    return _Weight(lambda j: c, lambda js: np.full(len(js), c if c.imag else c.real))


def _checked(f: Callable[[int], complex], what: str) -> Callable[[int], complex]:
    """f per index, raising WeightUndefined where it overflows the float range."""
    def at(n: int) -> complex:
        try:
            return f(n)
        except OverflowError:
            raise WeightUndefined(f"{what} weight overflows at index {n}") from None
    return at


def _parse_weight(rule: str) -> _Weight:
    """Turn a weight-rule string into a _Weight (index -> float evaluator).

    Vocabulary: "log", "sqrt", "linear", "inverse", "const:<c>", "pow:<a>",
    where c and a are finite floats.
    Indices are Python ints and may exceed float range; evaluators fall back
    to exact integer arithmetic where that keeps the value finite and raise
    WeightUndefined otherwise.  "log" and "pow:" keep libm per index: numpy's
    log and power round differently on some indices.
    """
    if rule == "log":
        # math.log accepts arbitrary-precision ints directly
        return _Weight(lambda n: math.log(n))
    if rule == "sqrt":
        return _Weight(_checked(math.sqrt, "sqrt"), np.sqrt)
    if rule == "linear":
        return _Weight(_checked(float, "linear"), lambda js: js.astype(float))
    if rule == "inverse":
        # int/int division is correctly rounded even for huge denominators
        return _Weight(lambda n: 1 / n, lambda js: 1 / js)
    if isinstance(rule, str) and rule.startswith(("const:", "pow:")):
        kind, arg = rule.split(":", 1)
        try:
            a = float(arg)
        except ValueError:
            raise InvalidSpec(f"weight rule {rule!r} needs a number after {kind}:") from None
        if not math.isfinite(a):
            raise InvalidSpec(f"weight rule {rule!r} needs a finite number after {kind}:")
        if kind == "const":
            return _constant(a)
        def _pow(n: int) -> float:
            try:
                return float(n) ** a
            except OverflowError:
                if a < 0:
                    return math.exp(a * math.log(n))
                raise WeightUndefined(f"pow:{a} weight overflows at index {n}") from None
        return _Weight(_pow)
    raise InvalidSpec(f"unknown weight rule {rule!r}")


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_CREATION = _parse_weight("sqrt")
_HERMITE_Q = _Weight(_checked(lambda j: math.sqrt(j) * _INV_SQRT2, "hermite_q"),
                     lambda js: np.sqrt(js) * _INV_SQRT2)

# Every primitive kind as elementary terms (a, b, w): column j holds w(j) in
# row a*j + b.  Rows below 1 and zero values are dropped, so a term may switch
# itself off (example_A's off-diagonal term is 0 on even columns).  The terms
# of one kind share a and have distinct b.  Column supports visit the terms in
# order and row supports in reverse (toeplitz: top offset first).
_PRIMITIVES: dict[str, Callable[["OperatorSpec"], tuple[tuple[int, int, _Weight], ...]]] = {
    "weighted_shift": lambda s: ((1, 1, _parse_weight(s.weight)),),
    "adjoint_weighted_shift": lambda s: ((1, -1, _shifted(_parse_weight(s.weight))),),
    "diagonal": lambda s: ((1, 0, _parse_weight(s.weight)),),
    "dilation_shift": lambda s: ((2, 0, _parse_weight(s.weight or "sqrt")),),
    "example_A": lambda s: (
        (1, 0, _Weight(_checked(lambda j: float(j) ** 2, "example_A"),
                       lambda js: np.square(js.astype(float)))),
        (1, 1, _Weight(lambda j: 1 / j if j % 2 else 0,
                       lambda js: np.where(js % 2 == 1, 1 / js, 0.0)))),
    "toeplitz": lambda s: tuple((1, off, _constant(v)) for off, v in reversed(s.bands)),
    "hermite_q": lambda s: ((1, 1, _HERMITE_Q), (1, -1, _shifted(_HERMITE_Q))),
    "hermite_p": lambda s: (
        (1, 1, _Weight(_checked(lambda j: 1j * math.sqrt(j) * _INV_SQRT2, "hermite_p"),
                       lambda js: 1j * (np.sqrt(js) * _INV_SQRT2))),
        (1, -1, _Weight(_checked(lambda j: -1j * math.sqrt(j - 1) * _INV_SQRT2, "hermite_p"),
                        lambda js: -1j * (np.sqrt(js - 1) * _INV_SQRT2)))),
    "creation": lambda s: ((1, 1, _CREATION),),
    "annihilation": lambda s: ((1, -1, _shifted(_CREATION)),),
}


@dataclass(frozen=True)
class OperatorSpec:
    """Symbolic description of a band-structured operator.

    Construction validates the kind, weight rule, bands, factor and children
    once and builds the primitive terms and the support enclosure (see
    _enclosure), so entry evaluation can stay unchecked and fast.  Both are
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
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_reach", _enclosure(self))

    def __reduce__(self):
        # the terms hold closures; pickle the fields and rebuild them
        return type(self), (self.kind, self.weight, self.bands, self.factor, self.children)


def _enclosure(spec: OperatorSpec) -> tuple[int, int, int, int] | None:
    """(al, ah, lo, hi): the rows of column j lie in [al*j + lo, ah*j + hi].

    None for the zero operator.  A primitive reads its terms, a scale its
    child; a sum takes the hull of its children, and a product composes its
    factors right to left.
    """
    terms = spec._terms
    if terms is not None:
        offsets = [b for _, b, _ in terms]
        return (terms[0][0], terms[0][0], min(offsets), max(offsets)) if terms else None
    reaches = [ch._reach for ch in spec.children]
    if spec.kind == "scale":
        return reaches[0]
    if spec.kind == "sum":
        reaches = [r for r in reaches if r is not None]
        if not reaches:
            return None
        als, ahs, los, his = zip(*reaches)
        return min(als), max(ahs), min(los), max(his)
    if None in reaches:
        return None
    al, ah, lo, hi = reaches[-1]
    for fl, fh, flo, fhi in reversed(reaches[:-1]):
        al, ah, lo, hi = fl * al, fh * ah, fl * lo + flo, fh * hi + fhi
    return al, ah, lo, hi


# ---------------------------------------------------------------------------
# the array kernel and the column / row supports
# ---------------------------------------------------------------------------

# Index arrays are int64 while every index stays below _NATIVE = 2^26.  There
# int64 arithmetic cannot overflow and the numpy weights agree bit for bit
# with the per-index rules (float(j) and float(j)**2 are exact).  Past it they
# hold Python ints (dtype object), and weights run per index.
_NATIVE = 1 << 26
_INT64, _OBJECT = np.dtype(np.int64), np.dtype(object)
_NO_ENTRIES = (np.zeros(0, np.intp), np.zeros(0, np.int64), np.zeros(0))
# pos of a _gather result with exactly one entry per index, in order
_EACH = slice(None)


def _as_index(values: Sequence[int]) -> np.ndarray:
    """An index array for ascending Python ints (int64 or object, see _NATIVE)."""
    return np.array(values, dtype=_INT64 if values[-1] < _NATIVE else _OBJECT)


def _fit(ts: np.ndarray, bound: int) -> np.ndarray:
    """ts as int64 if bound (on every index computed from ts) is below _NATIVE, else as Python ints."""
    want = _INT64 if bound < _NATIVE else _OBJECT
    return ts if ts.dtype == want else ts.astype(want)


def _weigh(w: _Weight, js: np.ndarray) -> np.ndarray:
    """w over js: real values, or complex where the rule is complex."""
    if w.over is not None and js.dtype != _OBJECT:
        return w.over(js)
    vals = np.array(list(map(w.at, js.tolist())))
    return vals.astype(np.result_type(vals, float), copy=False)


def _cmul(x, y: np.ndarray) -> np.ndarray:
    """x * y rounded as Python rounds it.

    With a real operand numpy's product is the exact one; two complex
    operands multiply by parts, since numpy's complex product may fuse the
    multiply-add and round differently.
    """
    if np.asarray(x).dtype.kind != "c" or y.dtype.kind != "c":
        return x * y
    out = np.empty(np.broadcast(x, y).shape, complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _nonzero(pos: np.ndarray, idx: np.ndarray,
             vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries with a nonzero value."""
    if np.count_nonzero(vals) == len(vals):
        return pos, idx, vals
    keep = vals != 0
    return np.flatnonzero(keep) if pos is _EACH else pos[keep], idx[keep], vals[keep]


def _gather(spec: OperatorSpec, ts: np.ndarray, top: int,
            col: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of the columns (col) or rows ts of T, as arrays (pos, idx, vals).

    ts holds indices >= 1, at most top.  Entry k lies in column (row)
    ts[pos][k], at row (column) idx[k], with value vals[k]; pos is an index
    array, or _EACH.  Entries come grouped by pos in increasing order, each
    group in the order of the terms (col_support) or their reverse
    (row_support).  Values are float, or complex where a rule is complex.
    The terms' values are finite; an entry of a sum or product that leaves
    the float range raises WeightUndefined.
    """
    if spec._terms is not None:
        return _raw_gather(spec, ts, top, col)
    with np.errstate(over="ignore", invalid="ignore"):
        pos, idx, vals = _composite(spec, ts, top, col)
    if not np.isfinite(vals).all():
        raise WeightUndefined(f"an entry of the {spec.kind} in {'column' if col else 'row'} "
                              f"{ts[pos][~np.isfinite(vals)][0]} overflows the float range")
    return pos, idx, vals


def _raw_gather(spec: OperatorSpec, ts: np.ndarray, top: int,
                col: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gather without the float-range check of a sum's or product's entries."""
    terms = spec._terms
    if terms is None:
        return _composite(spec, ts, top, col)
    m = len(ts)
    if not terms or not m:
        return _NO_ENTRIES
    _, a, lo, hi = spec._reach
    ts = _fit(ts, a * top + max(hi, -lo))
    outs = []
    for a, b, w in terms if col else terms[::-1]:
        # ok marks the indices with an entry in this term; None: all of them
        if col:
            idx, at = (ts + b if a == 1 else a * ts + b), ts
            ok = None if a + b >= 1 else idx >= 1
        elif a == 1:
            idx = at = ts - b
            ok = None if b <= 0 else idx >= 1
        else:
            d = ts - b
            idx = at = d // a
            ok = (idx >= 1) & (d % a == 0)
        if ok is None or np.count_nonzero(ok) == m:
            vals = _weigh(w, at)
        else:
            part = _weigh(w, at[ok])
            vals = np.zeros(m, part.dtype)
            vals[ok] = part
        outs.append((idx, vals))
    k = len(outs)
    if k == 1:
        return _nonzero(_EACH, *outs[0])
    # one column per term; read row by row this is the support order
    idx, vals = (np.array(x).T.ravel() for x in zip(*outs))
    return _nonzero(np.arange(m * k) // k, idx, vals)


def _composite(spec: OperatorSpec, ts: np.ndarray, top: int,
               col: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_gather for a sum, scale or product, from its children's arrays."""
    if spec.kind == "scale":
        if spec.factor == 0:
            return _NO_ENTRIES
        c = spec.factor
        pos, idx, vals = _raw_gather(spec.children[0], ts, top, col)
        return _nonzero(pos, idx, _cmul(c if c.imag else c.real, vals))
    if spec.kind == "sum":
        every = np.arange(len(ts))
        parts = (_raw_gather(ch, ts, top, col) for ch in spec.children)
        pos, idx, vals = (np.concatenate(x) for x in zip(*((every[p], i, v) for p, i, v in parts)))
        order = np.argsort(pos, kind="stable")
        return _merge(pos[order], idx[order], vals[order])
    # a product applies its children right to left to a column, left to right
    # to a row; each step is a sparse join over the intermediate index, whose
    # bound comes from the child's reach
    reach = _col_hi if col else _row_hi
    chain = spec.children[::-1] if col else spec.children
    pos, idx, vals = _raw_gather(chain[0], ts, top, col)
    pos = np.arange(len(ts))[pos]
    for prev, ch in zip(chain, chain[1:]):
        top = reach(prev, top)
        p, idx, v = _raw_gather(ch, idx, top, col)
        pos, idx, vals = _merge(pos[p], idx, _cmul(vals[p], v))
    return pos, idx, vals


def _merge(pos: np.ndarray, idx: np.ndarray,
           vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the entries of equal (pos, idx) and drop zeros.

    Each sum runs in the order the entries come and takes the place of its
    first entry, so the result matches accumulating them one by one in a dict.
    """
    # pos never decreases, so a key can repeat only where pos does
    if np.count_nonzero(pos[1:] == pos[:-1]):
        order = np.lexsort((idx, pos))            # stable: arrival order within a key
        ps, xs = pos[order], idx[order]
        first = np.ones(len(ps), bool)
        first[1:] = (ps[1:] != ps[:-1]) | (xs[1:] != xs[:-1])
        if np.count_nonzero(first) < len(first):
            starts = np.flatnonzero(first)
            acc = np.zeros(len(starts), vals.dtype)
            np.add.at(acc, np.cumsum(first) - 1, vals[order])     # in index order, from 0
            back = np.argsort(order[starts])
            pos, idx, vals = ps[starts][back], xs[starts][back], acc[back]
    return _nonzero(pos, idx, vals)


def col_support(spec: OperatorSpec, j: int) -> dict[int, complex]:
    """Nonzero entries of column j as {row: value}.  Exact, merged, zero-free."""
    if j < 1:
        raise ValueError("indices are 1-based")
    _, rows, vals = _gather(spec, _as_index([j]), j, True)
    return dict(zip(rows.tolist(), vals.tolist()))


def row_support(spec: OperatorSpec, i: int) -> dict[int, complex]:
    """Nonzero entries of row i as {column: value}."""
    if i < 1:
        raise ValueError("indices are 1-based")
    _, cols, vals = _gather(spec, _as_index([i]), i, False)
    return dict(zip(cols.tolist(), vals.tolist()))


def _col_hi(spec: OperatorSpec, j: int) -> int:
    """Monotone upper bound for max(row index) over columns 1..j.  0 = empty."""
    if spec._reach is None:
        return 0
    _, ah, _, hi = spec._reach
    return max(ah * j + hi, 0)


def _row_hi(spec: OperatorSpec, i: int) -> int:
    """Monotone upper bound for max(column index) over rows 1..i.  0 = empty."""
    if spec._reach is None:
        return 0
    al, _, lo, _ = spec._reach
    return max((i - lo) // al, 0)


def propagation(spec: OperatorSpec) -> int | None:
    """Bound on |row - column| over nonzero entries; None when unbounded."""
    if spec._reach is None:
        return 0
    al, ah, lo, hi = spec._reach
    return max(abs(lo), abs(hi)) if al == ah == 1 else None


# ---------------------------------------------------------------------------
# public operator calculus
# ---------------------------------------------------------------------------

def entry(spec: OperatorSpec, i: int, j: int) -> complex:
    """Matrix entry (i, j), 1-based."""
    if i < 1 or j < 1:
        raise ValueError("indices are 1-based")
    return complex(col_support(spec, j).get(i, 0.0))


def _first_past(spec: OperatorSpec, n, col: bool):
    """Smallest t >= 1 whose reach bound (_col_hi, or _row_hi) passes n; None if none.

    n is an int, or an index array of them (then t is an array too; None
    does not depend on n).
    """
    if spec._reach is None:
        return None
    al, ah, lo, hi = spec._reach
    # an int64 n stays below _NATIVE, so t stays in int64 while the enclosure does
    big = isinstance(n, np.ndarray) and max(ah, al, abs(lo), abs(hi)) >= _NATIVE
    m = n.astype(object) if big else n
    t = (m - hi) // ah + 1 if col else al * (m + 1) + lo
    if big:
        t = np.minimum(t, n + 1).astype(n.dtype)    # past n + 1, [t, n] is as empty
    return np.maximum(t, 1) if isinstance(t, np.ndarray) else max(1, t)


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
    """(a + a*)/2, or a itself if a - a* is exactly 0 (they then differ only in signs of
    zero); raises error(message) if max|a - a*| > tol * max(1, max|a_ij|)."""
    if not (d := a - a.conj().T).any():
        return a
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    if float(np.max(np.abs(d), initial=0.0)) > tol * scale:
        raise error(message)
    return (a + a.conj().T) / 2


# Budget for every dense array of windows: 2^24 complex cells (256 MiB), a
# 4096 x 4096 window.  Dense paths check it before they allocate and raise
# ResourceLimit past it; sparse paths (halmos, triplet norms) never allocate a
# dense window and are not bound by it; szego checks its O(n) trace diagonal.
DENSE_CELLS = 1 << 24
# Budget for the products of szego's trace row loop: 10^9, a couple of minutes of it.
TRACE_TERMS = 10 ** 9

# Matrix entries (row i, column j, value v) as one record array; indices past
# int64 are held as Python ints.
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", complex)])
_BIG_ENTRY = np.dtype([("i", object), ("j", object), ("v", complex)])


def _entries(i: np.ndarray, j: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pack index and value arrays into an _ENTRY (or _BIG_ENTRY) array."""
    big = i.dtype == object or j.dtype == object
    e = np.empty(len(v), _BIG_ENTRY if big else _ENTRY)
    e["i"], e["j"], e["v"] = i, j, v
    return e


def check_dense(cells: int, what: str) -> None:
    """Raise ResourceLimit if a dense allocation of `cells` entries is over DENSE_CELLS."""
    if cells > DENSE_CELLS:
        raise ResourceLimit(f"{what} needs {cells} dense cells, "
                            f"over the budget of {DENSE_CELLS}")


def sparse_window(spec: OperatorSpec, N: int) -> np.ndarray:
    """P_N T P_N as an _ENTRY array: 1-based, sorted by row then column, each (i, j) once.

    The kernel over columns 1..N, keeping rows <= N; memory is O(nnz).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    cols = np.arange(1, N + 1)
    pos, rows, vals = _gather(spec, cols, N, True)
    keep = rows <= N
    rows, cols, vals = rows[keep].astype(np.int64), cols[pos][keep], vals[keep]
    # column by column, each row once: a stable sort by row gives row-major order
    order = np.argsort(rows, kind="stable")
    return _entries(rows[order], cols[order], vals[order])


def to_window(e: np.ndarray, N: int) -> Window:
    """The entries e (each (i, j) once) as a dense N x N window, refused past the dense budget."""
    check_dense(N * N, f"a dense {N} x {N} window")
    a = np.zeros((N, N), complex)
    a[e["i"] - 1, e["j"] - 1] = e["v"]
    return Window(N, a)


def compress(spec: OperatorSpec, N: int) -> Window:
    """P_N T P_N as a dense N x N window, refused past the dense budget before any work."""
    check_dense(N * N, f"a dense {N} x {N} window")
    return to_window(sparse_window(spec, N), N)


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
    """

    kind: str
    rule: Callable[[int], int] | None = None
    blocks: tuple[tuple[int, int], ...] = ()   # half-open 1-based (lo, hi] intervals
    size: int | None = None   # the member count of a finite family; None if endless

    def __post_init__(self):
        # the rule's values so far: a run over n = 1..N calls the rule N times
        object.__setattr__(self, "_prefix", [])
        if self.kind == "blocks":
            object.__setattr__(self, "size", len(self.blocks))

    @classmethod
    def canonical(cls) -> "ProjectionFamily":
        return cls(kind="canonical")

    @classmethod
    def sparse(cls, rule: Callable[[int], int] | Sequence[int]) -> "ProjectionFamily":
        if not callable(rule):
            seq = [int(k) for k in rule]
            if not seq or seq[0] < 1 or any(b <= a for a, b in zip(seq, seq[1:])):
                raise InvalidSpec("sparse indices must be non-empty, strictly increasing and >= 1")
            def rule(n: int, _s=tuple(seq)) -> int:
                if n > len(_s):
                    raise SelectorOutOfRange(f"family has {len(_s)} indices, asked for {n}")
                return _s[n - 1]
            return cls(kind="sparse", rule=rule, size=len(seq))
        return cls(kind="sparse", rule=rule)

    # -- queries -----------------------------------------------------------

    def indices(self, n: int) -> list[int]:
        """Coordinate index set of the n-th projection; InvalidSpec for an unknown kind."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "canonical":
            return list(range(1, n + 1))
        if self.kind == "sparse":
            ks = self._prefix
            while len(ks) < n:
                k = self.rule(len(ks) + 1)
                if k <= (ks[-1] if ks else 0):
                    raise InvalidSpec("sparse rule is not strictly increasing")
                ks.append(k)
            return ks[:n]
        if self.kind == "blocks":
            if n > len(self.blocks):
                raise SelectorOutOfRange(f"family has {len(self.blocks)} blocks, asked for {n}")
            out: list[int] = []
            for lo, hi in self.blocks[:n]:
                out.extend(range(lo + 1, hi + 1))
            return out
        raise InvalidSpec(f"unknown projection family kind {self.kind!r}")

    def rank(self, n: int) -> int:
        if self.kind == "blocks":
            if n > len(self.blocks):
                raise SelectorOutOfRange(f"family has {len(self.blocks)} blocks, asked for {n}")
            return sum(hi - lo for lo, hi in self.blocks[:n])
        return n


# ---------------------------------------------------------------------------
# exact commutators
# ---------------------------------------------------------------------------

def _commutator_entries(spec: OperatorSpec, fam: ProjectionFamily, ns: Sequence[int]):
    """The entries of T that lie in [T, R_n] for some n of the ascending grid ns.

    Returns arrays (i, j, v, lo, hi): entry (i, j) with value v lies in
    [T, R_n] exactly for n = ns[lo] .. ns[hi - 1].  [T, R]_(i,j) =
    T_(i,j)(1_K(j) - 1_K(i)) for the index set K of R, so with r(k) the
    least n whose index set holds k (k itself for canonical families, its
    position for sparse ones, its block for blocks, and past the grid if no
    set holds it), column entries T_(i,j) count with sign + for
    r(j) <= n < r(i) and row entries with sign - for r(i) <= n < r(j).
    Canonical families read the columns (rows) of the union of the per-n
    boundary ranges [_first_past(n), n]; sparse and blocks families read
    their largest index set (InvalidSpec for an unknown kind).
    """
    top = ns[-1]
    grid = _as_index(ns)
    if fam.kind == "canonical":
        K, r_of = None, (lambda x: x)
    else:
        K = _as_index(fam.indices(top))
        if fam.kind == "sparse":
            rk = np.arange(1, top + 1)
        else:
            rk = np.repeat(np.arange(1, top + 1), [b - a for a, b in fam.blocks[:top]])

        def r_of(x):
            Kx, x = (K, x) if K.dtype == x.dtype else (K.astype(object), x.astype(object))
            at = np.minimum(np.searchsorted(Kx, x), len(K) - 1)
            return np.where(Kx[at] == x, rk[at], top + 1)

    def place(r):
        at = np.searchsorted(grid.astype(object) if r.dtype != grid.dtype else grid, r)
        return at.astype(np.int32)

    parts = []
    for col in (True, False):
        if K is None:
            t0 = _first_past(spec, grid, col)
            if t0 is None:
                continue
            # each n reads [t0(n), n] less what an earlier n of the grid read,
            # so the indices read for ns[g] lie in (ns[g - 1], ns[g]]
            ts, at = _ranges(np.maximum(t0, np.concatenate(([0], grid[:-1])) + 1), grid)
        else:
            ts, at = K, place(rk)
        pos, x, vals = _gather(spec, ts, top if K is None else int(K[-1]), col)
        lo, hi = at[pos], place(r_of(x))
        part = (x, ts[pos]) if col else (ts[pos], x)
        part += (vals if col else -vals, lo, hi)
        keep = hi > lo
        if not keep.all():
            part = tuple(y[keep] for y in part)
        if len(part[2]):
            parts.append(part)
    if len(parts) != 1:
        return tuple(np.concatenate(x) for x in zip(*parts)) if parts else _NO_PAIRS
    return parts[0]


_NO_PAIRS = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0),
             np.zeros(0, np.int32), np.zeros(0, np.int32))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers lo[g] .. hi[g] for every g, concatenated, and the g (int32) of each.

    Ranges with lo[g] > hi[g] are empty.
    """
    count = np.maximum(hi - lo + 1, 0).astype(np.intp)
    owner = np.repeat(np.arange(len(hi), dtype=np.int32), count)
    return np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum()), owner


def commutator_triplets(spec: OperatorSpec, fam: ProjectionFamily, n: int) -> np.ndarray:
    """All nonzero entries of [T, R_n] as an _ENTRY array: the one-point grid [n]."""
    i, j, v, _, _ = _commutator_entries(spec, fam, [n])
    return _entries(i, j, v)
