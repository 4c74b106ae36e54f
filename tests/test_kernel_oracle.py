"""The array kernel of ops against the per-index dict supports it replaced.

The reference below evaluates supports one column or row at a time with
dicts, straight from the term table's per-index weights (``w.at``); it is
independent of the kernel's numpy weights, merges and joins.  Hypothesis
draws specs of every kind, nested in sums, scales and products to depth 2,
and canonical, sparse and blocks families, including sparse indices past
int64.  Capture bounds and commutator windows are checked against the
reference triplets, the grid pass of norms against reports built per n from
commutator_triplets, and select_subsequence against a per-n scan.  scipy's
CSR matrices, which the package no longer uses on any window path, stay the
oracle for its sparse windows: the halmos split and the trace moments of
szego equal their CSR counterparts bit for bit.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foelner import cli, decomp, norms, ops, szego
from foelner.errors import NotQuasidiagonalAlongFamily, ResourceLimit
from foelner.ops import OperatorSpec, ProjectionFamily

try:
    import resource
except ImportError:            # not on Windows
    resource = None

# ---------------------------------------------------------------------------
# reference: dict supports and dict commutator assembly
# ---------------------------------------------------------------------------


def ref_col_support(spec, j):
    terms = spec._terms
    if terms is None:
        return _ref_composite(spec, j, ref_col_support, reversed(spec.children))
    out = {}
    for a, b, w in terms:
        i = a * j + b
        if i >= 1:
            v = w.at(j)
            if v != 0:
                out[i] = v
    return out


def ref_row_support(spec, i):
    terms = spec._terms
    if terms is None:
        return _ref_composite(spec, i, ref_row_support, spec.children)
    out = {}
    for a, b, w in reversed(terms):
        j = (i - b) // a
        if j >= 1 and a * j + b == i:
            v = w.at(j)
            if v != 0:
                out[j] = v
    return out


def _ref_composite(spec, t, support, chain):
    if spec.kind == "sum":
        acc = {}
        for ch in spec.children:
            for s, v in support(ch, t).items():
                acc[s] = acc.get(s, 0) + v
        return {s: v for s, v in acc.items() if v != 0}
    if spec.kind == "scale":
        if spec.factor == 0:
            return {}
        return {s: spec.factor * v for s, v in support(spec.children[0], t).items()}
    vec = {t: 1.0}
    for ch in chain:
        nxt = {}
        for idx, coef in vec.items():
            for s, v in support(ch, idx).items():
                nxt[s] = nxt.get(s, 0) + coef * v
        vec = {s: v for s, v in nxt.items() if v != 0}
        if not vec:
            return {}
    return vec


def ref_window(spec, N):
    """P_N T P_N as a dense array, column by column."""
    want = np.zeros((N, N), dtype=complex)
    for j in range(1, N + 1):
        for i, v in ref_col_support(spec, j).items():
            if i <= N:
                want[i - 1, j - 1] = v
    return want


def ref_commutator(spec, fam, n):
    """{(i, j): value} of [T, R_n], column by column and row by row."""
    acc = {}
    K = range(1, n + 1) if fam.kind == "canonical" else sorted(set(fam.indices(n)))
    inside = set(K).__contains__
    for j in K:
        for i, v in ref_col_support(spec, j).items():
            if not inside(i):
                acc[(i, j)] = acc.get((i, j), 0) + v
    for i in K:
        for j, v in ref_row_support(spec, i).items():
            if not inside(j):
                acc[(i, j)] = acc.get((i, j), 0) - v
    return {k: v for k, v in acc.items() if v != 0}


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_SMALL = st.sampled_from([-2.5, -1.0, -0.5, 0.25, 1.0, 3.0])
_COEF = st.one_of(_SMALL, st.builds(complex, _SMALL, _SMALL))
_RULES = st.one_of(
    st.sampled_from(["log", "sqrt", "linear", "inverse", "const:0"]),
    st.builds("const:{}".format, _SMALL),
    st.builds("pow:{}".format, st.sampled_from([-1.5, -0.5, 0.5, 2.0])))
# rules that stay finite at any Python int
_BIG_RULES = st.one_of(
    st.sampled_from(["log", "inverse"]),
    st.builds("const:{}".format, _SMALL),
    st.builds("pow:{}".format, st.sampled_from([-1.5, -0.5])))
_BANDS = st.dictionaries(st.integers(-3, 3), _COEF, min_size=1, max_size=4)


def _primitives(rules, big):
    kinds = [
        st.builds(OperatorSpec.weighted_shift, rules),
        st.builds(OperatorSpec.adjoint_weighted_shift, rules),
        st.builds(OperatorSpec.diagonal, rules),
        st.builds(OperatorSpec.dilation_shift, rules),
        st.builds(OperatorSpec.toeplitz, _BANDS),
    ]
    if not big:
        kinds += [st.just(OperatorSpec.example_a()), st.just(OperatorSpec.hermite_q()),
                  st.just(OperatorSpec.hermite_p()), st.just(OperatorSpec.creation()),
                  st.just(OperatorSpec.annihilation())]
    return st.one_of(kinds)


def _specs(depth, rules, big=False):
    if depth == 0:
        return _primitives(rules, big)
    sub = _specs(depth - 1, rules, big)
    kids = st.lists(sub, min_size=1, max_size=3)
    return st.one_of(
        sub,
        kids.map(lambda c: OperatorSpec.sum(*c)),
        kids.map(lambda c: OperatorSpec.product(*c)),
        st.builds(OperatorSpec.scale, st.one_of(_COEF, st.just(0.0)), sub))


SPECS = _specs(2, _RULES)
BIG_SPECS = _specs(2, _BIG_RULES, big=True)


@st.composite
def _families(draw):
    kind = draw(st.sampled_from(["canonical", "sparse", "pow2", "squares", "blocks"]))
    if kind == "canonical":
        return ProjectionFamily.canonical(), draw(st.integers(1, 40))
    if kind == "sparse":
        ks = sorted(draw(st.sets(st.integers(1, 120), min_size=1, max_size=30)))
        return ProjectionFamily.sparse(ks), draw(st.integers(1, len(ks)))
    if kind == "pow2":
        return ProjectionFamily.sparse(lambda t: 2 ** t), draw(st.integers(1, 40))
    if kind == "squares":
        return ProjectionFamily.sparse(lambda t: t * t), draw(st.integers(1, 40))
    cuts = sorted(draw(st.sets(st.integers(1, 80), min_size=1, max_size=12)))
    fam = decomp.sparse_family([0] + cuts)
    return fam, draw(st.integers(1, len(cuts)))


def _as_dict(e):
    return {(int(i), int(j)): complex(v) for i, j, v in e.tolist()}


def _check_commutator(spec, fam, n):
    want = ref_commutator(spec, fam, n)
    e = ops.commutator_triplets(spec, fam, n)
    assert len(e) == len(want)
    assert _as_dict(e) == want
    s2 = math.sqrt(math.fsum(x * x for v in want.values() for x in (v.real, v.imag)))
    assert norms.report(spec, fam, n).s2 == s2
    # the dense window over every index the commutator or R_n touches
    m = max([max(fam.indices(n)), *(k for ij in want for k in ij)])
    if m * m > ops.DENSE_CELLS:
        with pytest.raises(ResourceLimit):
            ops.to_window(e, m)
    elif m <= 300:
        dense = np.zeros((m, m), dtype=complex)
        for (i, j), v in want.items():
            dense[i - 1, j - 1] = v
        w = ops.to_window(e, m)
        assert w.dim == m
        assert np.array_equal(w.entries, dense)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def test_array_weights_agree_with_per_index_rules():
    # numpy's log and power round differently from libm on some indices of
    # this range, so those rules have to stay per index
    js = np.arange(2, 200_001)
    rules = ["log", "sqrt", "linear", "inverse", "const:2.5", "pow:0.5", "pow:-1.5"]
    specs = [OperatorSpec.weighted_shift(r) for r in rules] + [
        OperatorSpec.adjoint_weighted_shift("log"), OperatorSpec.example_a(),
        OperatorSpec.toeplitz({-1: 2 - 1j, 2: 0.5}), OperatorSpec.hermite_q(),
        OperatorSpec.hermite_p(), OperatorSpec.creation(), OperatorSpec.annihilation()]
    for spec in specs:
        for _, _, w in spec._terms:
            got = ops._weigh(w, js)
            want = np.array([w.at(j) for j in js.tolist()], dtype=complex)
            assert np.array_equal(got, want), spec


_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(SPECS, st.lists(st.one_of(st.integers(1, 60), st.integers(1, 2 ** 40)),
                       min_size=1, max_size=4))
def test_supports_match_reference_in_order(spec, ts):
    for t in ts:
        assert list(ops.col_support(spec, t).items()) == list(ref_col_support(spec, t).items())
        assert list(ops.row_support(spec, t).items()) == list(ref_row_support(spec, t).items())


@_SETTINGS
@given(BIG_SPECS, st.integers(1, 1100))
def test_supports_past_int64_match_reference(spec, k):
    for t in (2 ** k, 2 ** k + 1, 3 ** (k // 2 + 1)):
        assert list(ops.col_support(spec, t).items()) == list(ref_col_support(spec, t).items())
        assert list(ops.row_support(spec, t).items()) == list(ref_row_support(spec, t).items())


def test_supports_around_the_int64_switch():
    # past 2^26 indices run per index: there j*j needs more than 53 bits and
    # libm's pow(j, 2) may round an exact tie differently from j*j
    ts = [2 ** 26 - 1, 2 ** 26, 2 ** 26 + 1, *range(2 ** 27 - 41, 2 ** 27, 2),
          2 ** 53 + 1, 2 ** 63 + 1]
    for spec in (OperatorSpec.example_a(), OperatorSpec.weighted_shift("inverse"),
                 OperatorSpec.dilation_shift(), OperatorSpec.hermite_p()):
        for t in ts:
            assert ops.col_support(spec, t) == ref_col_support(spec, t)
            assert ops.row_support(spec, t) == ref_row_support(spec, t)


@_SETTINGS
@given(SPECS, _families())
def test_commutator_triplets_match_reference(spec, fam_n):
    _check_commutator(spec, *fam_n)


@_SETTINGS
@given(SPECS, _families())
def test_reports_satisfy_the_norm_inequalities(spec, fam_n):
    # s2^2 = sum sigma^2 <= u * s1 for any matrix, and rank [T, R_n] <= 2 rank R_n
    # bounds s1 by 2 rank u and s2 by sqrt(2 rank) u
    fam, n = fam_n
    r = norms.report(spec, fam, n)
    rank, slack = fam.rank(n), 1 + 1e-12
    assert r.u <= r.s2 * slack and r.s2 <= r.s1 * slack
    assert r.s2 ** 2 <= r.s1 * r.u * slack
    assert r.s1 <= 2 * rank * r.u * slack
    assert r.s2 <= math.sqrt(2 * rank) * r.u * slack


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(BIG_SPECS, st.integers(1, 1100))
def test_commutator_triplets_past_int64_match_reference(spec, n):
    _check_commutator(spec, ProjectionFamily.sparse(lambda t: 2 ** t), n)


@_SETTINGS
@given(SPECS, st.integers(1, 200), st.booleans())
def test_first_past_is_where_the_reach_bound_passes_n(spec, n, col):
    hi = (lambda t: ops._col_hi(spec, t)) if col else (lambda t: ops._row_hi(spec, t))
    t = ops._first_past(spec, n, col)
    if t is None:
        assert all(hi(s) <= n for s in range(1, 4 * n + 8))
    else:
        assert hi(t) > n and (t == 1 or hi(t - 1) <= n)


@_SETTINGS
@given(SPECS)
def test_support_lies_in_the_enclosure(spec):
    # the rows of column j lie in [al*j + lo, ah*j + hi]; no enclosure: no entries
    for j in range(1, 61):
        rows = ref_col_support(spec, j)
        if spec._reach is None:
            assert not rows
        else:
            al, ah, lo, hi = spec._reach
            assert all(al * j + lo <= i <= ah * j + hi for i in rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(SPECS, st.integers(1, 30))
def test_sparse_window_matches_reference(spec, N):
    want = ref_window(spec, N)
    m = ops.sparse_window(spec, N)
    assert np.all(np.diff(m["i"] * (N + 1) + m["j"]) > 0)
    assert len(m) == np.count_nonzero(want)
    assert np.array_equal(ops.to_window(m, N).entries, want)


def _csr_entries(m):
    """The stored entries of a CSR matrix in storage order, 1-based, as an _ENTRY array."""
    c = m.tocoo()
    return ops._entries(c.row.astype(np.int64) + 1, c.col.astype(np.int64) + 1, c.data)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(SPECS, st.integers(2, 30), st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_halmos_split_matches_csr(spec, N, bs):
    assume(min(bs) < N)
    W = scipy.sparse.csr_matrix(ref_window(spec, N))
    c = W.tocoo()
    edges = np.array(sorted(set(bs)))
    cross = (np.searchsorted(edges, c.row, side="right")
             != np.searchsorted(edges, c.col, side="right"))
    B, K = (scipy.sparse.csr_matrix((c.data[m], (c.row[m], c.col[m])), shape=(N, N))
            for m in (~cross, cross))
    d = decomp.halmos_decompose(spec, bs, N, 0.5)
    assert d.dim == N
    for got, want in ((d.sparse_window, W), (d.sparse_block_diagonal, B),
                      (d.sparse_perturbation, K)):
        want = _csr_entries(want)
        assert np.array_equal(got["i"], want["i"]) and np.array_equal(got["j"], want["j"])
        assert np.array_equal(got["v"], want["v"])


def csr_trace_moments(spec, n, ps):
    """szego._trace_moments as scipy's CSR powers give it: power.diagonal().sum()."""
    T = scipy.sparse.csr_matrix(ref_window(spec, n))
    if not T.data.imag.any():
        T = T.real
    out, power = {}, None
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(1, max(ps) + 1):
            power = T if power is None else power @ T
            if e in ps:
                tr = float(power.diagonal().sum().real)
                if math.isfinite(tr):
                    out[e] = tr / n
                else:
                    k = n.bit_length()
                    out[e] = float(np.ldexp(power.diagonal().real, -k).sum() / n * 2.0 ** k)
    if 0 in ps:
        out[0] = 1.0
    return out


# simple values cancel exactly (CSR drops the zeros); wide ones round and overflow
_BAND_VALUE = st.one_of(_SMALL, st.floats(-1e3, 1e3),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _hermitian_toeplitz(draw):
    complex_bands = draw(st.booleans())
    bands = {0: draw(_BAND_VALUE)} if draw(st.booleans()) else {}
    for d in draw(st.sets(st.integers(1, 3), min_size=1)):
        c = complex(draw(_BAND_VALUE), draw(_BAND_VALUE) if complex_bands else 0.0)
        bands[d], bands[-d] = c, c.conjugate()
    return OperatorSpec.toeplitz(bands)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_hermitian_toeplitz(), st.integers(1, 60), st.sets(st.integers(0, 5), min_size=1))
# T^2 is exactly 0 at offsets +-2 inside (2*2 - 2*1*2): CSR drops those
# entries, which reorders the rows of T^3 and moves the bits of tr(T^5)
@example(OperatorSpec.toeplitz({1: 2, -1: 2, 2: 0.5824992988419392, -2: 0.5824992988419392,
                                3: -1, -3: -1}), 19, {5})
# h = 5 * 3 = 15: at n = 31 every row is an edge row, at n = 32 row 15 stands for 15 and 16
@example(OperatorSpec.toeplitz({0: 0.25, 1: 1.5, -1: 1.5, 3: -0.5, -3: -0.5}), 31, {5})
@example(OperatorSpec.toeplitz({0: 0.25, 1: 1.5, -1: 1.5, 3: -0.5, -3: -0.5}), 32, {5})
def test_trace_moments_match_csr_powers(spec, n, ps):
    ps = sorted(ps)
    got, want = szego._trace_moments(spec, n, ps), csr_trace_moments(spec, n, ps)
    assert list(got) == list(want)
    # == throughout: the products round and sum as CSR SpGEMM does
    assert all(got[p] == want[p] or (math.isnan(got[p]) and math.isnan(want[p])) for p in ps)


# ---------------------------------------------------------------------------
# the grid pass of norms against per-n reports
# ---------------------------------------------------------------------------


def ref_norms(spec, fam, n):
    """(rank, u, s1, s2) of [T, R_n] from its triplets alone, as report built them per n."""
    e = ops.commutator_triplets(spec, fam, n)
    sv = norms._triplet_svals(e["i"], e["j"], e["v"])
    v = e["v"]
    s2 = math.sqrt(math.fsum((v.real * v.real).tolist() + (v.imag * v.imag).tolist()))
    return fam.rank(n), float(sv[0]) if sv.size else 0.0, float(sv.sum()), s2


@st.composite
def _family_grids(draw):
    """A coordinate family and an increasing grid of its ranks: step-1, geometric or one point."""
    kind = draw(st.sampled_from(["canonical", "sparse", "pow2", "blocks"]))
    if kind == "canonical":
        fam, top = ProjectionFamily.canonical(), 60
    elif kind == "sparse":
        ks = sorted(draw(st.sets(st.integers(1, 150), min_size=1, max_size=40)))
        fam, top = ProjectionFamily.sparse(ks), len(ks)
    elif kind == "pow2":
        # indices reach 2^40, past the int64 index arrays of the kernel
        fam, top = ProjectionFamily.sparse(lambda t: 2 ** t), 40
    else:
        cuts = sorted(draw(st.sets(st.integers(1, 100), min_size=1, max_size=15)))
        fam, top = decomp.sparse_family([0] + cuts), len(cuts)
    start = draw(st.integers(1, top))
    end = draw(st.integers(start, top))
    shape = draw(st.sampled_from(["step", "geometric", "single"]))
    if shape == "step":
        ns = list(range(start, end + 1))
    elif shape == "geometric":
        ns = cli.n_grid(start, end, None, draw(st.sampled_from([1.3, 2.0, 3.0])))
    else:
        ns = [end]
    return fam, ns


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(SPECS, _family_grids(), st.sampled_from([None, (1, 4), (5, 2)]))
def test_grid_pass_matches_per_n_reports_bit_for_bit(spec, fam_ns, sizes):
    fam, ns = fam_ns
    want = [ref_norms(spec, fam, n) for n in ns]
    # small sizes make the pass cut the grid into many groups and chunks
    chunk, gather = sizes or (norms._CHUNK, norms._GATHER)
    with mock.patch.object(norms, "_CHUNK", chunk), mock.patch.object(norms, "_GATHER", gather):
        u, s1, s2 = norms._grid(spec, fam, ns, True)
        assert norms._grid(spec, fam, ns, False)[0] == u
        rows = norms.report_sequence(spec, fam, ns)
    # repr tells -0.0 from 0.0, as the reports do
    assert repr([(fam.rank(n), *x) for n, x in zip(ns, zip(u, s1, s2))]) == repr(want)
    assert repr([(r.n, r.rank, r.u, r.s1, r.s2) for r in rows]) == \
        repr([(n, *w) for n, w in zip(ns, want)])


def ref_select(spec, fam, epsilon, search_limit):
    """The per-n scan of select_subsequence: first n with u < eps/2^(i+1), for i = 1, 2, ..."""
    picked, n, i = [], 1, 1
    while n <= search_limit:
        found = next((m for m in range(n, search_limit + 1)
                      if ref_norms(spec, fam, m)[1] < epsilon / 2 ** (i + 1)), None)
        if found is None:
            break
        picked.append(found)
        i, n = i + 1, found + 1
    return picked


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(SPECS, st.sampled_from([
           OperatorSpec.weighted_shift("inverse"), OperatorSpec.weighted_shift("pow:-1.5"),
           OperatorSpec.adjoint_weighted_shift("inverse"), OperatorSpec.example_a()])),
       st.sampled_from([0.05, 0.3, 1.0, 4.0]), st.integers(1, 130))
def test_select_subsequence_picks_the_per_n_ranks(spec, epsilon, limit):
    fam = ProjectionFamily.canonical()
    want = ref_select(spec, fam, epsilon, limit)
    if not want:
        with pytest.raises(NotQuasidiagonalAlongFamily):
            decomp.select_subsequence(spec, fam, epsilon, search_limit=limit)
    else:
        assert decomp.select_subsequence(spec, fam, epsilon, search_limit=limit) == want


def test_select_subsequence_on_sparse_and_blocks_families():
    shift, diagonal = OperatorSpec.weighted_shift("inverse"), OperatorSpec.diagonal("log")
    for spec, fam, limit in (
            (shift, ProjectionFamily.sparse(range(1, 300)), 150),
            (shift, decomp.sparse_family(range(0, 400, 3)), 120),
            # every u is 0, so every n is picked
            (diagonal, ProjectionFamily.sparse(lambda t: 2 ** t), 60)):
        want = ref_select(spec, fam, 0.5, limit)
        assert want
        assert decomp.select_subsequence(spec, fam, 0.5, search_limit=limit) == want


_RSS_SCRIPT = """
import resource
from foelner import norms, ops
spec, fam = ops.OperatorSpec.dilation_shift(), ops.ProjectionFamily.canonical()
norms.report_sequence(spec, fam, range(1, 40))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rows = norms.report_sequence(spec, fam, range(1, 6001))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert [r.n for r in rows] == list(range(1, 6001))
print((after - before) // 1024)
"""


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_step_grid_of_dilation_shift_is_chunked():
    # [S, P_n] has about n/2 entries, so the grid expands to about 9e6
    # (entry, n) pairs; held whole, their index and sort arrays add about
    # 350 MB to the peak RSS, and chunked to 2^20 pairs about 50 MB
    env = dict(os.environ, PYTHONPATH=str(Path(norms.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _RSS_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 150
