import functools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foelner import ops, weyl
from foelner.errors import InvalidSpec
from foelner.weyl import _ONE, GaussianRational, WeylElement, multiply

P = WeylElement.p()
Q = WeylElement.q()
ONE = WeylElement.one()
I = WeylElement.imaginary_unit()


def mono(k, l, c=1):
    return WeylElement({(k, l): GaussianRational.of(c)})


# ---------------------------------------------------------------- scalars

def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1), Fraction(2))
    b = GaussianRational(Fraction(3), Fraction(-4))
    assert a + b == GaussianRational(Fraction(4), Fraction(-2))
    assert a - b == GaussianRational(Fraction(-2), Fraction(6))
    assert a * b == GaussianRational(Fraction(11), Fraction(2))
    assert -a == GaussianRational(Fraction(-1), Fraction(-2))
    assert not GaussianRational.of(0)
    assert a


def test_gaussian_rational_str():
    assert str(GaussianRational.of(1)) == "1"
    assert str(GaussianRational(Fraction(0), Fraction(1))) == "i"
    assert str(GaussianRational(Fraction(0), Fraction(-1))) == "-i"
    assert str(GaussianRational(Fraction(0), Fraction(2))) == "2i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4i)"
    assert str(GaussianRational.of(Fraction(-5, 3))) == "-5/3"


def test_records_are_immutable_values():
    g = GaussianRational(Fraction(1), Fraction(2))
    assert repr(g) == "GaussianRational(re=Fraction(1, 1), im=Fraction(2, 1))"
    assert repr(GaussianRational()) == "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))"
    space = weyl.MonomialSubspace.total_degree(2).extended([P * Q])
    witness = weyl.amenability_witness([P, Q], Fraction(1, 10))
    twins = [(g, GaussianRational(Fraction(2, 2), Fraction(4, 2)), "re"),
             (space, weyl.MonomialSubspace.total_degree(2).extended([P * Q]), "monomials"),
             (witness, weyl.amenability_witness([Q, P], Fraction(1, 10)), "n")]
    for a, b, field in twins:
        assert a == b and hash(a) == hash(b) and a is not b
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            a.other = 1
    assert g != GaussianRational(Fraction(1), Fraction(3)) and g != (Fraction(1), Fraction(2))
    assert space != weyl.MonomialSubspace.total_degree(2)
    assert witness != weyl.amenability_witness([P * Q], Fraction(1, 10))
    with pytest.raises(AttributeError):
        del g.re
    for bad in (lambda: 2 * g, lambda: (1, 0) + g):
        with pytest.raises(TypeError):
            bad()


# ---------------------------------------------------------------- algebra

def test_canonical_commutation():
    assert Q * P - P * Q == I
    assert weyl.to_text(Q * P) == "p*q + i"
    assert weyl.to_text(P * Q) == "p*q"


def test_normal_ordering_q2p2():
    got = (Q * Q) * (P * P)
    want = mono(2, 2) + WeylElement({(1, 1): GaussianRational(Fraction(0), Fraction(4))}) - mono(0, 0, 2)
    assert got == want
    assert weyl.to_text(got) == "p^2*q^2 + 4*i*p*q - 2"


def test_degree_and_zero():
    assert WeylElement.zero().degree() is None
    assert ONE.degree() == 0
    assert (P * P * Q).degree() == 3
    assert (P - P).is_zero()


def _random_element(rng, max_deg=3, terms=3):
    x = WeylElement.zero()
    for _ in range(rng.integers(1, terms + 1)):
        k = int(rng.integers(0, max_deg + 1))
        l = int(rng.integers(0, max_deg + 1 - k))
        c = GaussianRational(Fraction(int(rng.integers(-3, 4))),
                             Fraction(int(rng.integers(-3, 4))))
        x = x + WeylElement({(k, l): c})
    return x


def test_multiplication_associative_and_distributive():
    rng = np.random.default_rng(21)
    for _ in range(15):
        x, y, z = (_random_element(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_scalars_are_central():
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = _random_element(rng)
        assert x * I == I * x
        assert x * ONE == x


# ---------------------------------------------------------------- parsing

def test_parse_round_trip():
    for text in ("p", "q^3", "2*p^2*q - i*q^3", "1/2*p + 3*q", "i", "-p*q + 5"):
        e = weyl.parse_element(text)
        assert weyl.parse_element(weyl.to_text(e)) == e


def test_parse_errors():
    for bad in ("", "p^", "z", "2*", "p q", "i*", "3/0", "p^-1", "+", "--p", "p-", "1 / 2",
                "p2", "p^2^3", "i^2", "(1+2i)*p"):
        with pytest.raises(InvalidSpec):
            weyl.parse_element(bad)


def test_parse_power_zero_is_scalar():
    assert weyl.parse_element("p^0") == ONE


# The recursive-descent parser that the split-and-match reader replaced,
# verbatim but for its name: the reference for what the grammar accepts.
_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[pqi*^+-])")


def _ref_parse_element(text: str) -> WeylElement:
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


_FACTORS = st.sampled_from(["p", "q", "i", "2", "0", "1/2", "7/3", "3/0", "p^2", "q ^ 3", "p^0"])
# single characters for random edits and random strings: the grammar's own,
# whitespace, junk, a non-ASCII decimal digit and a no-break space
_CHARS = st.sampled_from(list("pqi*^+-/0127 \tx(") + ["\u0663", "\u00a0"])


@st.composite
def _near_grammar(draw):
    """Signed terms of factors, then up to two one-character edits."""
    text = draw(st.sampled_from(["", "-", "+", " - "]))
    text += " + ".join("*".join(draw(st.lists(_FACTORS, min_size=1, max_size=3)))
                       for _ in range(draw(st.integers(1, 3))))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_CHARS) + text[at + draw(st.integers(0, 1)):]
    return text


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.one_of(_near_grammar(), st.lists(_CHARS, max_size=12).map("".join)))
def test_reader_matches_the_recursive_descent_parser(text):
    try:
        want = _ref_parse_element(text)
    except InvalidSpec:
        with pytest.raises(InvalidSpec):
            weyl.parse_element(text)
    else:
        assert weyl.parse_element(text) == want


_COEFFICIENTS = st.one_of(st.sampled_from([0, 1, -1]), st.fractions(-5, 5, max_denominator=6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.tuples(_COEFFICIENTS, _COEFFICIENTS), max_size=5))
def test_to_text_reads_back(terms):
    x = WeylElement({m: GaussianRational(Fraction(re), Fraction(im))
                     for m, (re, im) in terms.items()})
    assert weyl.parse_element(weyl.to_text(x)) == x


def test_to_text_writes_each_part_of_a_coefficient_as_a_term():
    x = WeylElement({(1, 0): GaussianRational(Fraction(1), Fraction(2)),
                     (0, 0): GaussianRational(Fraction(-1, 2), Fraction(-3, 4))})
    assert weyl.to_text(x) == "p + 2*i*p - 1/2 - 3/4*i"
    assert weyl.to_text(weyl.parse_element("-i*q^3 + q*p")) == "-i*q^3 + p*q + i"


@pytest.mark.parametrize("text", ["p*" * 20000 + "x", "q*p*q - p^", "q*p + 3/0", "q*p -- p"],
                         ids=["long-junk", "dangling-power", "zero-denominator", "double-sign"])
def test_invalid_text_does_no_arithmetic(monkeypatch, text):
    calls = []
    monkeypatch.setattr(weyl, "multiply", lambda x, y: calls.append(1) or multiply(x, y))
    with pytest.raises(InvalidSpec):
        weyl.parse_element(text)
    assert not calls
    weyl.parse_element("q*p*q")
    assert len(calls) == 2


# ---------------------------------------------------------------- growth

def test_subspace_dimensions():
    for n in range(31):
        assert weyl.MonomialSubspace.total_degree(n).dimension() == (n + 1) * (n + 2) // 2


def test_ratio_for_generators():
    for n in (0, 1, 5, 10, 40):
        # pV_n adds the n+1 monomials p^{k+1}q^l with k+l = n and nothing else
        want = 1 + Fraction(2, n + 2)
        assert weyl.foelner_ratio(P, n) == want
        assert weyl.foelner_ratio(Q, n) == want
    assert weyl.foelner_ratio(P, 5) == Fraction(9, 7)


def test_ratio_of_scalars_is_one():
    assert weyl.foelner_ratio(ONE, 7) == Fraction(1)
    assert weyl.foelner_ratio(I.scaled(GaussianRational.of(Fraction(2, 3))), 4) == Fraction(1)


def _ratio_all_monomials(a, n):
    prods = [weyl.multiply(a, mono(k, l)) for k, l in weyl.degree_monomials(n)]
    dim = weyl.MonomialSubspace.total_degree(n).extended(prods).dimension()
    return Fraction(dim, (n + 1) * (n + 2) // 2)


def test_ratio_matches_bruteforce():
    rng = np.random.default_rng(23)
    cases = [P, Q, P * Q, P + Q, Q * Q] + [_random_element(rng, max_deg=2) for _ in range(4)]
    for a in cases:
        if a.is_zero():
            continue
        for n in range(7):
            assert weyl.foelner_ratio(a, n) == _ratio_all_monomials(a, n), (weyl.to_text(a), n)


def test_witness_generators_eps_one():
    w = weyl.amenability_witness([P, Q], Fraction(1))
    assert w.n == 0
    assert w.ratios == (Fraction(2), Fraction(2))
    assert w.cap >= w.n


def test_witness_generators_tight():
    w = weyl.amenability_witness([P, Q], Fraction(1, 10))
    assert w.n == 18
    assert all(r <= Fraction(11, 10) for r in w.ratios)


def test_witness_with_product():
    w = weyl.amenability_witness([P, Q, P * Q], Fraction(1, 10))
    assert w.n == 38
    assert w.cap == 82
    assert w.ratios == (Fraction(21, 20), Fraction(21, 20), Fraction(857, 780))


def test_witness_with_product_tight():
    w = weyl.amenability_witness([P, Q, P * Q], Fraction(1, 20))
    assert w.n == 78
    assert w.cap == 162
    assert w.ratios == (Fraction(41, 40), Fraction(41, 40), Fraction(3317, 3160))


def test_witness_validation():
    with pytest.raises(ValueError):
        weyl.amenability_witness([], Fraction(1, 2))
    with pytest.raises(ValueError):
        weyl.amenability_witness([P], Fraction(0))


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 6),
                                 Fraction(1, 10), Fraction(1, 20), Fraction(1, 2000),
                                 Fraction(7, 9), Fraction(5, 4), Fraction(3), Fraction(8),
                                 Fraction(1, 10**20), Fraction(10**20 + 1, 10**20)])
def test_cap_is_the_least_level_of_the_degree_bound(eps):
    # cap = least n with ((n + K) / n)^2 <= 1 + eps, K = delta + 2, decided by squaring
    a, b = eps.numerator, eps.denominator
    for delta in range(9):
        K = delta + 2
        cap = weyl.amenability_witness([mono(delta, 0)], eps).cap

        def holds(n):
            return n > 0 and b * (n + K) ** 2 <= (a + b) * n * n
        assert holds(cap) and not holds(cap - 1), (eps, delta, cap)


_ELEMENTS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda m: sum(m) <= 4),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5).map(
    lambda terms: WeylElement({m: GaussianRational(Fraction(re), Fraction(im))
                               for m, (re, im) in terms.items()}))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_ELEMENTS, st.integers(0, 12))
def test_closed_form_ratio_matches_elimination(a, n):
    assert weyl.foelner_ratio(a, n) == _ratio_all_monomials(a, n), (weyl.to_text(a), n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_ELEMENTS, min_size=1, max_size=3),
       st.sampled_from([Fraction(1, d) for d in (1, 2, 3, 5, 8, 13, 40, 100)]
                       + [Fraction(7, 9), Fraction(3, 2), Fraction(5)]))
def test_witness_matches_a_linear_scan(F, eps):
    n = 0
    while any(weyl.foelner_ratio(a, n) > 1 + eps for a in F):
        n += 1
    w = weyl.amenability_witness(F, eps)
    assert w.n == n
    assert w.ratios == tuple(weyl.foelner_ratio(a, n) for a in F)
    assert w.n <= w.cap


# ---------------------------------------------------------------- oracles
# The exact core computes on Gaussian integers with a closed-form normal
# ordering and fraction-free rank; these references do the same work the
# slow way, by word rewriting and elimination over Fraction pairs.

ZERO_C = GaussianRational()
I_C = GaussianRational(Fraction(0), Fraction(1))


def _inversions(word):
    """Number of (q, p) pairs with the q to the left of the p."""
    qs = count = 0
    for x in word:
        if x == "q":
            qs += 1
        else:
            count += qs
    return count


@functools.cache
def _rewrite_word(word):
    """Normal form of a word over {p, q} via exhaustive qp -> pq + i rewriting.

    Both rewrites lower the inversion count, so taking words in decreasing
    order of it visits each word once, after all its contributions arrived.
    """
    buckets = [{} for _ in range(_inversions(word) + 1)]
    buckets[-1][word] = GaussianRational.of(1)
    done = {}
    for bucket in reversed(buckets):
        for w, c in bucket.items():
            if not c:
                continue
            pos = next((t for t in range(len(w) - 1) if w[t] == "q" and w[t + 1] == "p"), None)
            if pos is None:
                key = (w.count("p"), w.count("q"))
                done[key] = done.get(key, ZERO_C) + c
                continue
            for child, f in ((w[:pos] + ("p", "q") + w[pos + 2:], c),
                             (w[:pos] + w[pos + 2:], c * I_C)):
                below = buckets[_inversions(child)]
                below[child] = below.get(child, ZERO_C) + f
    return {m: c for m, c in done.items() if c}


def _quotient(a, b):
    """a / b over the Gaussian rationals: a times the conjugate of b, over |b|^2."""
    d = b.re * b.re + b.im * b.im
    return GaussianRational((a.re * b.re + a.im * b.im) / d, (a.im * b.re - a.re * b.im) / d)


def _fraction_rank(rows):
    """Rank over the Gaussian rationals by elimination on sparse Fraction rows."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row, key=lambda m: (m[0] + m[1], m[0], m[1]))
            piv = pivots.get(lead)
            if piv is None:
                inv = row[lead]
                pivots[lead] = {m: _quotient(c, inv) for m, c in row.items()}
                break
            f = row[lead]
            for m, c in piv.items():
                cur = row.get(m, ZERO_C) - f * c
                if cur:
                    row[m] = cur
                else:
                    row.pop(m, None)
    return len(pivots)


def _ref_multiply(x, y):
    acc = {}
    for (k1, l1), c1 in x.terms.items():
        for (k2, l2), c2 in y.terms.items():
            for (a, b), g in _rewrite_word(("q",) * l1 + ("p",) * k2).items():
                m = (k1 + a, b + l2)
                acc[m] = acc.get(m, ZERO_C) + c1 * c2 * g
    return WeylElement(acc)


def _ref_ratio(a, n):
    deg = a.degree()
    rows = []
    for m in weyl.degree_monomials(n):
        if m[0] + m[1] > n - deg:
            prod = _ref_multiply(a, mono(*m))
            rows.append({t: c for t, c in prod.terms.items() if t[0] + t[1] > n})
    dim_vn = (n + 1) * (n + 2) // 2
    return Fraction(dim_vn + _fraction_rank(rows), dim_vn)


def test_closed_form_reorder_matches_rewriter():
    for l in range(8):
        for k in range(8):
            got = {m: GaussianRational(Fraction(re), Fraction(im))
                   for m, (re, im) in weyl._reorder(l, k)}
            assert got == _rewrite_word(("q",) * l + ("p",) * k), (l, k)


def _random_rational(rng):
    return GaussianRational(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7))),
                            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7))))


def test_rank_matches_fraction_oracle():
    rng = np.random.default_rng(25)
    monos = weyl.degree_monomials(3)
    deficient = 0
    for _ in range(60):
        rows = []
        for _ in range(int(rng.integers(1, 7))):
            picks = rng.choice(len(monos), size=int(rng.integers(1, 5)), replace=False)
            rows.append(WeylElement({monos[i]: _random_rational(rng) for i in picks}).terms)
        for _ in range(int(rng.integers(0, 3))):
            # a combination of two rows makes the set dependent
            i, j = rng.integers(0, len(rows), size=2)
            ci, cj = _random_rational(rng), _random_rational(rng)
            combo = (WeylElement(rows[i]).scaled(ci) + WeylElement(rows[j]).scaled(cj)).terms
            rows.append(combo)
        want = _fraction_rank(rows)
        deficient += want < len(rows)
        assert weyl._exact_rank([weyl._integral(r)[0] for r in rows]) == want
        extras = tuple(WeylElement(r) for r in rows)
        assert weyl.MonomialSubspace(frozenset(), extras).dimension() == want
        kept = frozenset(monos[:4])
        projected = [{m: c for m, c in r.items() if m not in kept} for r in rows]
        assert weyl.MonomialSubspace(kept, extras).dimension() == 4 + _fraction_rank(projected)
    assert deficient >= 10


def test_ratio_matches_fraction_reference():
    cases = {
        "p": P,
        "p*q": _ref_multiply(P, Q),
        "q^3*p^3": _ref_multiply(mono(0, 3), mono(3, 0)),
        "1/2*p^2*q + i*q^3": mono(2, 1, Fraction(1, 2)) + mono(0, 3, 1j),
    }
    for text, a in cases.items():
        assert weyl.parse_element(text) == a
        for n in range(13):
            want = _ref_ratio(a, n)
            assert weyl.foelner_ratio(a, n) == want, (text, n)


# ---------------------------------------------------------------- windows

def _dense_represent(x, N):
    """x in the Hermite basis by dense matrix powers of p and q, cut to N x N.

    The powers live in a window of N + deg(x): a degree-d monomial couples
    basis vectors at distance <= d only, so the N x N corner is exact.
    """
    d = x.degree() or 0
    big = N + d
    P = ops.compress(ops.OperatorSpec.hermite_p(), big).entries
    Q = ops.compress(ops.OperatorSpec.hermite_q(), big).entries
    p_pows, q_pows = [np.eye(big, dtype=complex)], [np.eye(big, dtype=complex)]
    for _ in range(d):
        p_pows.append(p_pows[-1] @ P)
        q_pows.append(q_pows[-1] @ Q)
    acc = np.zeros((big, big), dtype=complex)
    for (k, l) in sorted(x.terms):
        acc += x.terms[(k, l)].to_complex() * (p_pows[k] @ q_pows[l])
    return acc[:N, :N]


def _oracle_cases():
    rng = np.random.default_rng(25)
    cases = [(WeylElement.zero(), 1), (ONE, 7), (I, 64)]
    for _ in range(30):
        x = _random_element(rng, max_deg=int(rng.integers(1, 7)), terms=4)
        d = x.degree() or 0
        cases.append((x, int(rng.integers(d + 1, 65))))
    return cases


def _case_id(v):
    """Case id with one Gaussian coefficient per monomial, e.g. '(2-i)*p*q + 3'.

    The ids are written here rather than by to_text, so they stay short and
    do not change when the text form of elements does.
    """
    if not isinstance(v, WeylElement):
        return str(v)
    if v.is_zero():
        return "WeylElement('0')"
    parts = []
    for (k, l) in sorted(v.terms, key=lambda m: (-(m[0] + m[1]), -m[0])):
        mono = "*".join(([f"p^{k}" if k > 1 else "p"] if k else [])
                        + ([f"q^{l}" if l > 1 else "q"] if l else []))
        cs = str(v.terms[(k, l)])
        parts.append({"1": mono, "-1": f"-{mono}"}.get(cs, f"{cs}*{mono}") if mono else cs)
    text = parts[0] + "".join(f" - {s[1:]}" if s.startswith("-") else f" + {s}"
                              for s in parts[1:])
    return f"WeylElement({text!r})"


@pytest.mark.parametrize("x, N", _oracle_cases(), ids=_case_id)
def test_represent_matches_dense_powers(x, N):
    got = weyl.represent(x, N).entries
    want = _dense_represent(x, N)
    assert np.array_equal(got != 0, want != 0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_represent_matches_operator_windows():
    for N in (4, 9, 16):
        assert np.array_equal(weyl.represent(Q, N).entries,
                              ops.compress(ops.OperatorSpec.hermite_q(), N).entries)
    assert np.array_equal(weyl.represent(P, 9).entries,
                          ops.compress(ops.OperatorSpec.hermite_p(), 9).entries)


def test_represent_identity_and_commutator():
    assert np.array_equal(weyl.represent(ONE, 5).entries, np.eye(5))
    W = weyl.represent(weyl.parse_element("q*p - p*q"), 6).entries
    assert np.array_equal(W, 1j * np.eye(6))


def test_represent_small_windows_are_corners_of_a_large_one():
    # the kernel reads whole columns, so a window below the degree is exact too
    x = weyl.parse_element("2*p^2*q - i*q^3 + p^5")
    big = weyl.represent(x, 12).entries
    for N in range(1, 7):
        assert np.array_equal(weyl.represent(x, N).entries, big[:N, :N])


def test_represent_is_a_homomorphism_on_interior():
    # products agree on the block the enlarged windows protect
    rng = np.random.default_rng(24)
    N = 24
    for _ in range(6):
        x, y = _random_element(rng, max_deg=2), _random_element(rng, max_deg=2)
        d = (x.degree() or 0) + (y.degree() or 0)
        if d >= N:
            continue
        lhs = weyl.represent(x * y, N).entries
        rhs = weyl.represent(x, N).entries @ weyl.represent(y, N).entries
        m = N - d
        scale = max(1.0, np.max(np.abs(lhs[:m, :m])))
        assert np.max(np.abs(lhs[:m, :m] - rhs[:m, :m])) / scale < 1e-12
