"""Exact calculus in the complex algebra generated by p, q with qp - pq = i.

Elements are kept in normal form (every p to the left of every q) with
Gaussian-rational coefficients, so all identities here are certificates, not
floating-point estimates.  Products run on one Gaussian-integer kernel
(operands scaled by the lcm of their denominators) with the closed-form
normal ordering q^l p^k = sum_j j! C(l,j) C(k,j) i^j p^(k-j) q^(l-j) of
Blasiak, Penson & Solomon, Phys. Lett. A 309 (2003).

The growth diagnostics compare dim(a V_n + V_n) against dim V_n for the
total-degree filtration V_n = span{p^k q^l : k + l <= n}; dimensions are
exact ranks by fraction-free elimination over the Gaussian integers.  The
Schrodinger representation (``represent``) bridges to the numerical side: it
is ops.compress of the element written as a spec in hermite_p and hermite_q.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import ops
from .errors import (DegreeExceedsWindow, FoelnerError, InvalidSpec, ResourceLimit,
                     WeightUndefined)

Monomial = tuple[int, int]   # (k, l) <-> p^k q^l


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number a + b i with rational a, b."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(Fraction(value), Fraction(0))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * other.re + self.im * other.im) / d,
                                (self.im * other.re - self.re * other.im) / d)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{istr})"


_ZERO = GaussianRational()
_ONE = GaussianRational(Fraction(1))
_I = GaussianRational(Fraction(0), Fraction(1))

GaussInt = tuple[int, int]           # (re, im) <-> re + im i
IntTerms = dict[Monomial, GaussInt]

_I_POWERS: tuple[GaussInt, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


@functools.cache
def _reorder(l: int, k: int) -> tuple[tuple[Monomial, GaussInt], ...]:
    """Normal form of q^l p^k as ((k', l'), coefficient) pairs, closed form."""
    out = []
    for j in range(min(l, k) + 1):
        c = math.factorial(j) * math.comb(l, j) * math.comb(k, j)
        re, im = _I_POWERS[j % 4]
        out.append(((k - j, l - j), (c * re, c * im)))
    return tuple(out)


def _integral(terms: Mapping[Monomial, GaussianRational]) -> tuple[IntTerms, int]:
    """(integer terms, d) with terms / d equal to the given terms."""
    d = math.lcm(*(f.denominator for c in terms.values() for f in (c.re, c.im)))
    return {m: (c.re.numerator * (d // c.re.denominator),
                c.im.numerator * (d // c.im.denominator))
            for m, c in terms.items()}, d


def _product(xs: IntTerms, ys: IntTerms) -> IntTerms:
    """Normal-ordered product of Gaussian-integer terms."""
    acc: IntTerms = {}
    for (k1, l1), (a, b) in xs.items():
        for (k2, l2), (c, d) in ys.items():
            re, im = a * c - b * d, a * d + b * c
            for (dk, dl), (g, h) in _reorder(l1, k2):
                m = (k1 + dk, dl + l2)
                r, s = acc.get(m, (0, 0))
                acc[m] = (r + re * g - im * h, s + re * h + im * g)
    return {m: c for m, c in acc.items() if c != (0, 0)}


class WeylElement:
    """Normal-form element sum c_{kl} p^k q^l with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        clean: dict[Monomial, GaussianRational] = {}
        for (k, l), c in (terms or {}).items():
            if k < 0 or l < 0:
                raise ValueError("monomial exponents must be >= 0")
            c = GaussianRational.of(c)
            if c:
                clean[(int(k), int(l))] = c
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "WeylElement":
        return cls()

    @classmethod
    def one(cls) -> "WeylElement":
        return cls({(0, 0): _ONE})

    @classmethod
    def p(cls) -> "WeylElement":
        return cls({(1, 0): _ONE})

    @classmethod
    def q(cls) -> "WeylElement":
        return cls({(0, 1): _ONE})

    @classmethod
    def imaginary_unit(cls) -> "WeylElement":
        return cls({(0, 0): _I})

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Total degree; None for the zero element."""
        if not self.terms:
            return None
        return max(k + l for k, l in self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "WeylElement") -> "WeylElement":
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, _ZERO) + c
        return WeylElement(acc)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + -other

    def __neg__(self) -> "WeylElement":
        return WeylElement({m: -c for m, c in self.terms.items()})

    def scaled(self, factor) -> "WeylElement":
        f = GaussianRational.of(factor)
        return WeylElement({m: c * f for m, c in self.terms.items()})

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"WeylElement({to_text(self)!r})"


def multiply(x: WeylElement, y: WeylElement) -> WeylElement:
    """Product in normal form, computed on Gaussian integers."""
    xs, dx = _integral(x.terms)
    ys, dy = _integral(y.terms)
    d = dx * dy
    return WeylElement({m: GaussianRational(Fraction(re, d), Fraction(im, d))
                        for m, (re, im) in _product(xs, ys).items()})


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[pqi*^+-])")


def parse_element(text: str) -> WeylElement:
    """Parse "2*p^2*q - i*q^3" style expressions into normal form.

    Grammar: signed terms joined by +/-; a term is '*'-separated factors;
    a factor is an integer, a rational a/b, the imaginary unit i, or p/q
    with an optional ^power.  Factors multiply left to right, so "q*p"
    normal-orders to p*q + i.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InvalidSpec(f"bad element syntax near {text[pos:pos + 10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise InvalidSpec("empty element expression")

    t = 0

    def peek() -> str | None:
        return tokens[t] if t < len(tokens) else None

    def take() -> str:
        nonlocal t
        tok = tokens[t]
        t += 1
        return tok

    def parse_factor() -> WeylElement:
        tok = peek()
        if tok is None:
            raise InvalidSpec("dangling operator in element expression")
        take()
        if tok == "i":
            return WeylElement.imaginary_unit()
        if tok in ("p", "q"):
            power = 1
            if peek() == "^":
                take()
                exp = peek()
                if exp is None or not exp.isdigit():
                    raise InvalidSpec("^ must be followed by a nonnegative integer")
                take()
                power = int(exp)
            return WeylElement({(power, 0) if tok == "p" else (0, power): _ONE})
        if not tok[0].isdigit():
            raise InvalidSpec(f"unexpected token {tok!r} in element expression")
        try:
            return WeylElement({(0, 0): GaussianRational(Fraction(tok))})
        except ZeroDivisionError:
            raise InvalidSpec(f"zero denominator in coefficient {tok!r}") from None

    def parse_term() -> WeylElement:
        out = parse_factor()
        while peek() == "*":
            take()
            out = multiply(out, parse_factor())
        return out

    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    result = parse_term().scaled(sign)
    while peek() in ("+", "-"):
        sgn = -1 if take() == "-" else 1
        result = result + parse_term().scaled(sgn)
    if t != len(tokens):
        raise InvalidSpec(f"trailing tokens {tokens[t:]!r} in element expression")
    return result


def to_text(x: WeylElement) -> str:
    """Canonical text form, highest total degree first."""
    if x.is_zero():
        return "0"
    parts = []
    for (k, l) in sorted(x.terms, key=lambda m: (-(m[0] + m[1]), -m[0])):
        c = x.terms[(k, l)]
        mono = "*".join(
            ([f"p^{k}" if k > 1 else "p"] if k else [])
            + ([f"q^{l}" if l > 1 else "q"] if l else []))
        cs = str(c)
        parts.append({"1": mono, "-1": f"-{mono}"}.get(cs, f"{cs}*{mono}") if mono else cs)
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


# ---------------------------------------------------------------------------
# filtration growth
# ---------------------------------------------------------------------------

def degree_monomials(n: int) -> list[Monomial]:
    """All (k, l) with k + l <= n, in a fixed order."""
    return [(k, l) for d in range(n + 1) for k in range(d, -1, -1) for l in (d - k,)]


@dataclass(frozen=True)
class MonomialSubspace:
    """Span of a monomial set, optionally extended by arbitrary elements.

    The dimension is |monomials| plus the exact rank of the extension
    elements after projecting away the monomial coordinates.
    """

    monomials: frozenset[Monomial]
    extras: tuple[WeylElement, ...] = ()

    @classmethod
    def total_degree(cls, n: int) -> "MonomialSubspace":
        if n < 0:
            raise ValueError("n must be >= 0")
        return cls(monomials=frozenset(degree_monomials(n)))

    def extended(self, elements: Iterable[WeylElement]) -> "MonomialSubspace":
        return MonomialSubspace(self.monomials, self.extras + tuple(elements))

    def dimension(self) -> int:
        rows = (_integral({m: c for m, c in x.terms.items() if m not in self.monomials})[0]
                for x in self.extras)
        return len(self.monomials) + _exact_rank(rows)


def _exact_rank(rows: Iterable[IntTerms]) -> int:
    """Rank over the Gaussian rationals of sparse Gaussian-integer rows."""
    return _eliminate(rows)[0]


def _eliminate(rows: Iterable[IntTerms]) -> tuple[int, int]:
    """(rank, work) of sparse Gaussian-integer rows over the Gaussian rationals.

    Fraction-free elimination: a row whose leading monomial already has a
    pivot becomes lead(piv)*row - lead(row)*piv, then is divided by the gcd
    of its integer parts, which keeps the coefficients small.  work counts
    the coefficients of the input rows and of every reduced row, a
    deterministic measure that tracks the running time.
    """
    pivots: dict[Monomial, IntTerms] = {}
    work = 0
    for row in rows:
        work += len(row)
        while row:
            lead = min(row, key=lambda m: (m[0] + m[1], m[0], m[1]))
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            (a, b), (c, d) = piv[lead], row[lead]
            acc = {m: (a * r - b * s, a * s + b * r) for m, (r, s) in row.items()}
            for m, (r, s) in piv.items():
                u, v = acc.get(m, (0, 0))
                acc[m] = (u - c * r + d * s, v - c * s - d * r)
            work += len(acc)
            g = math.gcd(*(x for v in acc.values() for x in v))
            row = {m: (r // g, s // g) for m, (r, s) in acc.items() if r or s}
    return len(pivots), work


class _Growth:
    """dim(a V_n + V_n) level by level, with a scaled to integers.

    Level n needs a*m only for m in the top deg(a) degrees (the rest map
    into V_n); those products are kept for reuse at level n + 1 and no
    older ones, so memory stays flat.
    """

    def __init__(self, a: WeylElement):
        self.terms = _integral(a.terms)[0]
        self.deg = a.degree() or 0
        self.products: dict[Monomial, IntTerms] = {}
        self.work = 0    # elimination work over every level so far

    def ratio(self, n: int) -> Fraction:
        if self.deg == 0:
            return Fraction(1)
        dim_vn = (n + 1) * (n + 2) // 2
        kept: dict[Monomial, IntTerms] = {}
        rows = []
        for d in range(n - self.deg + 1, n + 1):
            for k in range(d, -1, -1):
                m = (k, d - k)
                kept[m] = prod = self.products.get(m) or _product(self.terms, {m: (1, 0)})
                rows.append({t: c for t, c in prod.items() if t[0] + t[1] > n})
        self.products = kept
        rank, work = _eliminate(rows)
        self.work += work
        return Fraction(dim_vn + rank, dim_vn)


def foelner_ratio(a: WeylElement, n: int) -> Fraction:
    """dim(a V_n + V_n) / dim V_n as an exact rational."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _Growth(a).ratio(n)


# Elimination work (see _eliminate) amenability_witness may spend; one unit
# took 1.5-6 microseconds on one core of a 2-core x86 VM.
WITNESS_BUDGET = 500_000


@dataclass(frozen=True)
class AmenabilityWitness:
    """Certificate that every listed element has small growth at level n."""

    n: int
    cap: int                      # a-priori level from the degree bound
    epsilon: Fraction
    ratios: tuple[Fraction, ...]  # foelner_ratio of each element at level n


def amenability_witness(F: Sequence[WeylElement], epsilon) -> AmenabilityWitness:
    """Smallest n (searched upward from 0) with all ratios <= 1 + epsilon.

    The search is capped at ceil((delta + 2) / (sqrt(1 + eps) - 1)), where
    delta is the largest total degree in F; that level always works because
    dim V_{n+delta} / dim V_n falls below 1 + eps there.  Before each level
    the elimination work spent so far (see _eliminate) is checked against
    WITNESS_BUDGET; past it, ResourceLimit is raised.  For F = [p] that
    happens at n = 1000, i.e. for eps below about 1/500.
    """
    if not F:
        raise ValueError("need at least one element")
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    delta = max((a.degree() or 0) for a in F)
    cap = math.ceil((delta + 2) / (math.sqrt(1 + float(eps)) - 1))
    target = 1 + eps
    growth = [_Growth(a) for a in F]
    for n in range(cap + 1):
        if sum(g.work for g in growth) > WITNESS_BUDGET:
            raise ResourceLimit(f"no witness below level {n} within the work budget "
                                f"({WITNESS_BUDGET} units); try a larger epsilon")
        rats = tuple(g.ratio(n) for g in growth)
        if all(r <= target for r in rats):
            return AmenabilityWitness(n=n, cap=cap, epsilon=eps, ratios=rats)
    raise FoelnerError("no witness level up to the degree-bound cap; "
                       "this contradicts the growth estimate")


# ---------------------------------------------------------------------------
# Hermite-basis representation
# ---------------------------------------------------------------------------

def represent(x: WeylElement, N: int) -> ops.Window:
    """Image of x under p, q -> the Hermite-basis momentum/position operators, N x N.

    Each normal-form term c p^k q^l becomes scale(c, product(hermite_p x k,
    hermite_q x l)) and x their sum, compressed by ops.compress.  The kernel
    reads whole columns of each product, so every entry of the window is
    that of the operator, with no enlarged window.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    d = x.degree() or 0
    if d >= N:
        raise DegreeExceedsWindow(f"degree {d} needs a window larger than {N}")
    S = ops.OperatorSpec
    p, q = S.hermite_p(), S.hermite_q()
    terms = []
    for (k, l), c in sorted(x.terms.items()):
        try:
            factor = c.to_complex()
        except OverflowError:
            raise WeightUndefined(f"coefficient of p^{k} q^{l} overflows a float") from None
        word = (p,) * k + (q,) * l
        terms.append(S.scale(factor, S.product(*word) if word else S.diagonal("const:1")))
    return ops.compress(S.sum(*terms) if terms else S.toeplitz({}), N)
