"""Exact calculus in the complex algebra generated by p, q with qp - pq = i.

Elements are kept in normal form (every p to the left of every q) with
Gaussian-rational coefficients, so all identities here are certificates, not
floating-point estimates.  Products run on one Gaussian-integer kernel
(operands scaled by the lcm of their denominators) with the closed-form
normal ordering q^l p^k = sum_j j! C(l,j) C(k,j) i^j p^(k-j) q^(l-j) of
Blasiak, Penson & Solomon, Phys. Lett. A 309 (2003).

The growth diagnostics compare dim(a V_n + V_n) against dim V_n for the
total-degree filtration V_n = span{p^k q^l : k + l <= n}.  That ratio has a
closed form, because the associated graded ring C[p, q] has no zero divisors
(see foelner_ratio); MonomialSubspace gives exact dimensions of other spans
by fraction-free elimination over the Gaussian integers.  The
Schrodinger representation (``represent``) bridges to the numerical side: it
is ops.compress of the element written as a spec in hermite_p and hermite_q,
and the only function here that loads numpy (through ops).
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import FoelnerError, InvalidSpec, WeightUndefined

Monomial = tuple[int, int]   # (k, l) <-> p^k q^l


class GaussianRational:
    """Exact complex number a + b i with rational a, b; immutable, equal by value."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, GaussianRational) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

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

_FACTOR = re.compile(r"\s*(?:(\d+(?:/\d+)?)|(i)|([pq])(?:\s*\^\s*(\d+))?)\s*")


def _factor(text: str) -> WeylElement:
    """One factor of element text as an element; InvalidSpec if it is none."""
    m = _FACTOR.fullmatch(text)
    if not m:
        raise InvalidSpec(f"bad factor {text.strip()[:20]!r} in element expression")
    num, unit, var, power = m.groups()
    if var:
        k = int(power or 1)
        return WeylElement({(k, 0) if var == "p" else (0, k): _ONE})
    if unit:
        return WeylElement.imaginary_unit()
    try:
        return WeylElement({(0, 0): GaussianRational(Fraction(num))})
    except ZeroDivisionError:
        raise InvalidSpec(f"zero denominator in coefficient {num!r}") from None


def parse_element(text: str) -> WeylElement:
    """Parse "2*p^2*q - i*q^3" style expressions into normal form.

    Grammar: signed terms joined by +/-; a term is '*'-separated factors;
    a factor is an integer, a rational a/b, the imaginary unit i, or p/q
    with an optional ^power.  Factors multiply left to right, so "q*p"
    normal-orders to p*q + i.
    """
    if not text.strip():
        raise InvalidSpec("empty element expression")
    # numbers and powers are unsigned, so every + and - separates two terms;
    # blank text before the first sign makes that sign a leading one
    parts = re.split(r"([+-])", text)
    parts = parts[1:] if len(parts) > 1 and not parts[0].strip() else ["+"] + parts
    # every factor is read before any product, so junk costs no arithmetic
    terms = [(sign, [_factor(f) for f in term.split("*")])
             for sign, term in zip(parts[::2], parts[1::2])]
    result = WeylElement.zero()
    for sign, factors in terms:
        product = functools.reduce(multiply, factors)
        result = result + (product if sign == "+" else -product)
    return result


def to_text(x: WeylElement) -> str:
    """Text in the grammar of parse_element, highest total degree first.

    A coefficient a + bi of a monomial m is written as the terms a*m and
    b*i*m, real part first, with a coefficient of +-1 before a factor left
    out, so parse_element(to_text(x)) == x.
    """
    if x.is_zero():
        return "0"
    terms = []
    for (k, l) in sorted(x.terms, key=lambda m: (-(m[0] + m[1]), -m[0])):
        c = x.terms[(k, l)]
        mono = (([f"p^{k}" if k > 1 else "p"] if k else [])
                + ([f"q^{l}" if l > 1 else "q"] if l else []))
        for coef, factors in ((c.re, mono), (c.im, ["i"] + mono)):
            if coef:
                shown = [] if abs(coef) == 1 and factors else [str(abs(coef))]
                terms.append(("-" if coef < 0 else "+", "*".join(shown + factors)))
    (sign, first), *rest = terms
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)


# ---------------------------------------------------------------------------
# filtration growth
# ---------------------------------------------------------------------------

def degree_monomials(n: int) -> list[Monomial]:
    """All (k, l) with k + l <= n, in a fixed order."""
    return [(k, l) for d in range(n + 1) for k in range(d, -1, -1) for l in (d - k,)]


class MonomialSubspace(NamedTuple):
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
    """Rank over the Gaussian rationals of sparse Gaussian-integer rows.

    Fraction-free elimination: a row whose leading monomial already has a
    pivot becomes lead(piv)*row - lead(row)*piv, then is divided by the gcd
    of its integer parts, which keeps the coefficients small.
    """
    pivots: dict[Monomial, IntTerms] = {}
    for row in rows:
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
            g = math.gcd(*(x for v in acc.values() for x in v))
            row = {m: (r // g, s // g) for m, (r, s) in acc.items() if r or s}
    return len(pivots)


def _excess(deg: int, n: int) -> int:
    """dim(a V_n + V_n) - dim V_n for deg a = deg: the monomials m with
    max(0, n - deg + 1) <= deg m <= n (see foelner_ratio)."""
    lo = max(0, n - deg + 1)
    return ((n + 1) * (n + 2) - lo * (lo + 1)) // 2


def foelner_ratio(a: WeylElement, n: int) -> Fraction:
    """dim(a V_n + V_n) / dim V_n as an exact rational, in closed form.

    Let delta = deg a.  A product a*m with deg m <= n - delta lies in V_n, so
    a V_n + V_n is V_n plus the parts of a*m beyond degree n for the monomials
    m with n - delta < deg m <= n.  Normal ordering only lowers the degree, so
    the top-degree component of a*m is sigma(a) m, sigma(a) the top homogeneous
    part of a and the product taken in C[p, q].  These parts are linearly
    independent: in a combination sum c_m a*m lying in V_n, let D be the
    largest deg m with c_m != 0; its degree-(delta + D) component is
    sigma(a) * sum_{deg m = D} c_m m, which must vanish, and C[p, q] has no
    zero divisors.  Hence dim(a V_n + V_n) = dim V_n + #{m : max(0, n - delta
    + 1) <= deg m <= n}, and the ratio is 1 for a scalar (delta = 0).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    dim_vn = (n + 1) * (n + 2) // 2
    return Fraction(dim_vn + _excess(a.degree() or 0, n), dim_vn)


class AmenabilityWitness(NamedTuple):
    """Certificate that every listed element has small growth at level n."""

    n: int
    cap: int                      # a-priori level from the degree bound
    epsilon: Fraction
    ratios: tuple[Fraction, ...]  # foelner_ratio of each element at level n


def amenability_witness(F: Sequence[WeylElement], epsilon) -> AmenabilityWitness:
    """Smallest n with foelner_ratio(a, n) <= 1 + epsilon for every a in F.

    By the closed form of foelner_ratio, the ratio is 2 for n <= delta - 1
    and 1 + delta (2n + 3 - delta) / ((n + 1)(n + 2)) from n = delta - 1 on,
    which strictly decreases in n and grows with delta.  So the element of
    largest degree delta decides, and the level is found in integers: the
    larger root of num (n + 1)(n + 2) = den delta (2n + 3 - delta), for
    eps = num/den, rounded down, then steps up to the exact boundary.  cap
    is the smallest n with ((n + K) / n)^2 <= 1 + eps, K = delta + 2,
    computed exactly; the witness never exceeds it, since dim(a V_n + V_n)
    <= dim V_{n + delta} and dim V_{n + delta} / dim V_n <= ((n + K) / n)^2.
    """
    if not F:
        raise ValueError("need at least one element")
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    delta = max((a.degree() or 0) for a in F)
    num, den = eps.numerator, eps.denominator
    K = delta + 2
    t = K * K * den * (num + den)     # cap is the least n >= (K den + sqrt(t)) / num
    s = math.isqrt(t)
    cap = -(-(K * den + s + (s * s != t)) // num)

    def fits(n: int) -> bool:         # ratio at level n <= 1 + num/den
        return 2 * den * _excess(delta, n) <= num * (n + 1) * (n + 2)

    n = 0
    if not fits(0):                   # then eps < 1 <= delta and the root lies past delta
        disc = (num - 2 * den * delta) ** 2 - 4 * num * den * delta * (delta - 1)
        # at most the least fitting level, and within 3 of it
        n = max(1, (2 * den * delta - num + math.isqrt(disc)) // (2 * num) - 1)
        while not fits(n):
            n += 1
    if n > cap:
        raise FoelnerError("witness level past the degree-bound cap; "
                           "this contradicts the growth estimate")
    return AmenabilityWitness(n=n, cap=cap, epsilon=eps,
                              ratios=tuple(foelner_ratio(x, n) for x in F))


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
    from . import ops
    if N < 1:
        raise ValueError("N must be >= 1")
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
