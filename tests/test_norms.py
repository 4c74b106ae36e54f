import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from foelner import norms, ops
from foelner.berg import berg_sequence, random_hermitian
from foelner.errors import FoelnerError, TooFewSamples, WeightUndefined
from foelner.norms import classify, report, report_sequence, seminorm
from foelner.ops import OperatorSpec, ProjectionFamily

CANON = ProjectionFamily.canonical()


def _window(entries):
    a = np.asarray(entries, dtype=complex)
    return ops.Window(a.shape[0], a)


def test_rank_one_window_all_modes_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = complex(rng.standard_normal(), rng.standard_normal())
        a = np.zeros((6, 6), dtype=complex)
        a[rng.integers(6), rng.integers(6)] = c
        w = _window(a)
        for mode in ("u", "s1", "s2"):
            assert seminorm(w, mode) == pytest.approx(abs(c), rel=1e-12)


def test_hermite_commutator_norms():
    w = ops.to_window(ops.commutator_triplets(OperatorSpec.hermite_q(), CANON, 3), 4)
    assert seminorm(w, "u") == pytest.approx(math.sqrt(3 / 2), abs=1e-12)
    assert seminorm(w, "s1") == pytest.approx(2 * math.sqrt(3 / 2), abs=1e-12)
    assert seminorm(w, "s2") == pytest.approx(math.sqrt(3), abs=1e-12)


def test_zero_window():
    w = _window(np.zeros((4, 4)))
    assert seminorm(w, "u") == 0.0
    assert seminorm(w, "s1") == 0.0
    assert seminorm(w, "s2") == 0.0


def test_unknown_mode():
    with pytest.raises(ValueError):
        seminorm(_window(np.eye(2)), "s3")


def test_scale_equivariance():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    for _ in range(10):
        c = complex(rng.standard_normal(), rng.standard_normal())
        for mode in ("u", "s1", "s2"):
            assert seminorm(_window(c * a), mode) == pytest.approx(
                abs(c) * seminorm(_window(a), mode), rel=1e-11)


def test_permutation_invariance():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for _ in range(5):
        pr = rng.permutation(8)
        pc = rng.permutation(8)
        b = a[np.ix_(pr, pc)]
        for mode in ("u", "s1", "s2"):
            assert seminorm(_window(b), mode) == pytest.approx(
                seminorm(_window(a), mode), rel=1e-11)


def test_schatten_ordering():
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        w = _window(a)
        u, s1, s2 = (seminorm(w, m) for m in ("u", "s1", "s2"))
        assert u <= s2 + 1e-12
        assert s2 <= s1 + 1e-12


def test_report_closed_forms():
    n = 100
    r = report(OperatorSpec.weighted_shift("log"), CANON, n)
    assert r.u == pytest.approx(math.log(n), abs=1e-12)
    assert r.ratio1 == pytest.approx(math.log(n) / n, abs=1e-12)
    assert r.ratio2 == pytest.approx(math.log(n) / math.sqrt(n), abs=1e-12)

    r = report(OperatorSpec.weighted_shift("sqrt"), CANON, n)
    assert abs(r.ratio2 - 1.0) < 1e-12
    assert r.ratio1 == pytest.approx(n ** -0.5, abs=1e-12)

    r = report(OperatorSpec.weighted_shift("linear"), CANON, n)
    assert r.ratio1 == pytest.approx(1.0, abs=1e-12)
    assert r.ratio2 == pytest.approx(math.sqrt(n), abs=1e-12)


def test_rank_one_commutators_collapse():
    for weight in ("log", "sqrt", "linear", "inverse", "const:3"):
        spec = OperatorSpec.weighted_shift(weight)
        for n in (1, 5, 40):
            r = report(spec, CANON, n)
            wn = ops._parse_weight(weight)(n)
            assert r.u == pytest.approx(abs(wn), abs=1e-12)
            assert r.s1 == pytest.approx(abs(wn), abs=1e-12)
            assert r.s2 == pytest.approx(abs(wn), abs=1e-12)


def test_hermite_p_q_reports_agree():
    for n in (2, 7, 33, 128):
        rq = report(OperatorSpec.hermite_q(), CANON, n)
        rp = report(OperatorSpec.hermite_p(), CANON, n)
        for f in ("rank", "u", "s1", "s2", "ratio1", "ratio2"):
            assert getattr(rq, f) == pytest.approx(getattr(rp, f), abs=1e-12)
        assert rq.u == pytest.approx(math.sqrt(n / 2), abs=1e-12)


def test_report_sequence_requires_increasing():
    with pytest.raises(ValueError):
        report_sequence(OperatorSpec.hermite_q(), CANON, [4, 4, 8])


def test_empty_grid_gives_no_reports():
    spec = OperatorSpec.weighted_shift("inverse")
    for fam in (CANON, ProjectionFamily.sparse(lambda t: 2 ** t), ProjectionFamily.sparse([2, 4]),
                ProjectionFamily(kind="blocks", blocks=((0, 2), (2, 5)))):
        assert report_sequence(spec, fam, []) == []
        assert norms.u_sequence(spec, fam, []) == []


def test_u_norm_matches_report():
    spec = OperatorSpec.dilation_shift()
    assert norms.u_norm(spec, CANON, 9) == pytest.approx(report(spec, CANON, 9).u)


def test_sparse_family_report_uses_family_rank():
    fam = ProjectionFamily.sparse(lambda n: n * n)
    r = report(OperatorSpec.weighted_shift("inverse"), fam, 4)
    assert r.rank == 4


def test_classify_too_few():
    with pytest.raises(TooFewSamples):
        classify([1.0] * 7)


def test_classify_zero_constant():
    v = classify([0.0] * 10)
    assert v.kind == "tends_to_zero"


def test_classify_decaying():
    ns = [2 ** k for k in range(4, 14)]
    v = classify([math.log(n) / math.sqrt(n) for n in ns])
    assert v.kind == "tends_to_zero"
    v = classify([math.log(n) / n for n in ns])
    assert v.kind == "tends_to_zero"


def test_classify_plateau():
    v = classify([1.0] * 12)
    assert v.kind == "tends_to_positive"
    assert v.limit == pytest.approx(1.0)
    v = classify([2.0 + 0.001 * (-1) ** k for k in range(16)])
    assert v.kind == "tends_to_positive"
    assert v.limit == pytest.approx(2.0, rel=1e-2)


def test_classify_diverging():
    ns = [2 ** k for k in range(4, 14)]
    v = classify([math.sqrt(n) for n in ns])
    assert v.kind == "diverges"


def test_classify_inconclusive():
    v = classify([1.0, 0.1] * 6)
    assert v.kind == "inconclusive"


def test_classify_rejects_bad_values():
    with pytest.raises(ValueError):
        classify([1.0] * 9 + [-0.5])
    with pytest.raises(ValueError):
        classify([1.0] * 9 + [math.inf])


def test_classify_evidence_fields():
    v = classify([1 / n for n in range(1, 13)])
    assert v.kind == "tends_to_zero"
    for key in ("head_max", "tail_max", "tail_min", "tail_mean", "samples"):
        assert key in v.evidence


def test_verdict_profiles_match_limit_table():
    ns = [2 ** k for k in range(4, 14)] + [10_000]
    cases = {
        "log": ("tends_to_zero", "tends_to_zero"),
        "sqrt": ("tends_to_zero", "tends_to_positive"),
        "linear": ("tends_to_positive", "diverges"),
        "const:1": ("tends_to_zero", "tends_to_zero"),
    }
    for weight, (want1, want2) in cases.items():
        rows = report_sequence(OperatorSpec.weighted_shift(weight), CANON, ns)
        assert classify([r.ratio1 for r in rows]).kind == want1, weight
        assert classify([r.ratio2 for r in rows]).kind == want2, weight


def _block_triplets(rng, shapes, complex_values):
    """Triplets of a direct sum of dense random blocks on scattered indices."""
    rows = rng.permutation(np.arange(1, 1 + sum(h for h, _ in shapes))) * 3
    cols = rng.permutation(np.arange(1, 1 + sum(w for _, w in shapes))) * 5
    trips, r0, c0 = [], 0, 0
    for h, w in shapes:
        block = rng.standard_normal((h, w))
        if complex_values:
            block = block + 1j * rng.standard_normal((h, w))
        trips += [(int(rows[r0 + a]), int(cols[c0 + b]), complex(block[a, b]))
                  for a in range(h) for b in range(w)]
        r0, c0 = r0 + h, c0 + w
    order = rng.permutation(len(trips))
    return [trips[k] for k in order]


@pytest.mark.parametrize("shapes", [
    [(1, 1)] * 12,                                   # partial permutation
    [(3, 3), (1, 1), (2, 5), (8, 8), (1, 4)],
    [(8, 1), (1, 8), (4, 4), (2, 2), (7, 6), (1, 1)],
    [(5, 5)],
])
@pytest.mark.parametrize("complex_values", [True, False])
def test_triplet_svals_match_dense_svd(shapes, complex_values):
    # oracle: one dense SVD of the whole compacted matrix; the component
    # split must give the same nonzero singular values
    rng = np.random.default_rng(len(shapes) * 7 + complex_values)
    for _ in range(5):
        trips = _block_triplets(rng, shapes, complex_values)
        e = np.asarray(trips, dtype=ops._ENTRY)
        assert sum(len(a) for _, _, a in norms._stacks(e["i"], e["j"], e["v"])) == len(shapes)
        got = norms._triplet_svals(e["i"], e["j"], e["v"])
        # the whole matrix with its empty rows and columns removed
        (rows, ri), (cols, ci) = (np.unique(x, return_inverse=True) for x in (e["i"], e["j"]))
        compact = np.zeros((len(rows), len(cols)), complex)
        compact[ri, ci] = e["v"]
        want = np.linalg.svd(compact, compute_uv=False)
        assert np.all(got[:-1] >= got[1:])
        assert got.size == sum(min(h, w) for h, w in shapes)
        padded = np.concatenate([got, np.zeros(want.size - got.size)])
        np.testing.assert_allclose(padded, want, rtol=1e-12, atol=1e-12 * want[0])


def _scipy_blocks(e):
    """The dense block of each component of e's row/column graph, by scipy's connected_components."""
    (rows, ri), (cols, ci) = (np.unique(x, return_inverse=True) for x in (e["i"], e["j"]))
    graph = scipy.sparse.coo_matrix((np.ones(len(e)), (ri, len(rows) + ci)),
                                    shape=(len(rows) + len(cols),) * 2)
    k, label = connected_components(graph, directed=False)
    blocks = []
    for t in range(k):
        at = label[ri] == t
        (_, bi), (_, bj) = (np.unique(x[at], return_inverse=True) for x in (ri, ci))
        a = np.zeros((bi.max() + 1, bj.max() + 1), complex)
        a[bi, bj] = e["v"][at]
        blocks.append(a)
    return blocks


@st.composite
def _graph_entries(draw):
    """Entries of up to three pieces on disjoint indices: random graphs, long chains and stars.

    Each entry's value is its number, so equal blocks mean an equal partition.
    """
    pairs = []
    for piece in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["random", "chain", "star"]))
        if shape == "random":
            got = draw(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)),
                                min_size=1, max_size=80, unique=True))
        else:
            n = draw(st.integers(1, 400))
            rows = draw(st.permutations(range(1, n + 2)))
            if shape == "chain":        # rows[k] and rows[k + 1] share column k + 1
                got = [(rows[k + d], k + 1) for k in range(n) for d in (0, 1)]
            else:                       # one column holds every row
                got = [(r, 1) for r in rows]
        if draw(st.booleans()):
            got = [(j, i) for i, j in got]
        pairs += [(i + 1000 * piece, j + 1000 * piece) for i, j in got]
    pairs = draw(st.permutations(pairs))
    stride = draw(st.sampled_from([1, 7, 2 ** 70]))     # 2^70 takes the object-index path
    i, j = (np.array([p[a] * stride for p in pairs], dtype=object if stride > 2 ** 62 else np.int64)
            for a in (0, 1))
    return ops._entries(i, j, np.arange(1.0, len(pairs) + 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_graph_entries())
def test_blocks_partition_matches_scipy_components(e):
    # scipy's labels are the oracle; every block must also hold its entries in index order
    def key(blocks):
        return sorted((a.shape, a.tobytes()) for a in blocks)

    stacks = norms._stacks(e["i"], e["j"], e["v"])
    assert key(a for _, _, s in stacks for a in s) == key(_scipy_blocks(e))


def _mixed_corpus():
    """Real and complex components of the same shapes on disjoint indices, seeded."""
    rng = np.random.default_rng(53)
    menu = [(1, 1), (2, 2), (3, 2), (2, 3), (4, 4), (1, 3), (6, 5)]
    corpus = []
    for _ in range(12):
        shapes = [menu[k] for k in rng.integers(len(menu), size=rng.integers(2, 9))]
        real, cplx = (_block_triplets(rng, shapes, c) for c in (False, True))
        corpus.append(real + [(i + 10 ** 6, j + 10 ** 6, v) for i, j, v in cplx])
    return corpus


def _berg_perturbations():
    """The entries that berg_sequence hands to _triplet_svals on a few seeded windows: the whole
    of K, and each corner K[e_n:, :e_n] that _segments measures on its own."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_triplet_svals",
                   lambda *e, f=norms._triplet_svals: seen.append(ops._entries(*e)) or f(*e))
        for dim, eps in ((33, 0.5), (64, 0.05), (64, 0.3), (128, 0.2)):
            berg_sequence(random_hermitian(dim, dim + 1), range(1, dim + 1), eps)
    return [e for e in seen if not (norms._distinct(e["i"]) and norms._distinct(e["j"]))]


def test_stacked_triplet_svals_are_the_per_component_svds():
    # oracle 1: one np.linalg.svd per component, each on its real part when the block is
    # real, must give the same bits; oracle 2: scipy's dense svdvals of the whole matrix
    corpus = [np.asarray(t, dtype=ops._ENTRY) for t in _mixed_corpus()]
    captured = _berg_perturbations()
    assert len(captured) >= 8
    for e in corpus + captured:
        got = norms._triplet_svals(e["i"], e["j"], e["v"])
        blocks = _scipy_blocks(e)
        want = np.concatenate([np.linalg.svd(b.real if np.all(b.imag == 0) else b,
                                             compute_uv=False) for b in blocks])
        assert np.array_equal(got, np.sort(want)[::-1])
        (rows, ri), (cols, ci) = (np.unique(x, return_inverse=True) for x in (e["i"], e["j"]))
        compact = np.zeros((len(rows), len(cols)), complex)
        compact[ri, ci] = e["v"]
        dense = scipy.linalg.svdvals(compact)
        padded = np.concatenate([got, np.zeros(dense.size - got.size)])
        np.testing.assert_allclose(padded, dense, rtol=1e-12, atol=1e-12 * dense[0])


def test_triplet_svals_partial_permutation_is_moduli():
    i, j, v = np.array([4, 1, 9, 2]), np.array([9, 2, 4, 1]), np.array([3 - 4j, -0.5, 2j, 1e-3])
    assert norms._triplet_svals(i, j, v).tolist() == [5.0, 2.0, 0.5, 1e-3]
    assert norms._triplet_svals(i[:0], j[:0], v[:0]).size == 0


_POW2 = ProjectionFamily.sparse(lambda t: 2 ** t)


@pytest.mark.parametrize("spec", [
    OperatorSpec.creation(), OperatorSpec.annihilation(), OperatorSpec.hermite_q(),
    OperatorSpec.hermite_p(), OperatorSpec.example_a()], ids=lambda s: s.kind)
def test_weights_past_float_range_raise_weight_undefined(spec):
    # 2^1100 is past the float range: sqrt(j) and j^2 cannot be taken there
    with pytest.raises(WeightUndefined, match="overflows at index"):
        report(spec, _POW2, 1100)
    with pytest.raises(WeightUndefined):
        norms.u_norm(spec, _POW2, 1100)


_LATE = OperatorSpec.product(OperatorSpec.weighted_shift("pow:84"),
                             OperatorSpec.diagonal("pow:-83.9"))


def _first_failure(spec, fam, ns):
    for n in ns:
        try:
            report(spec, fam, n)
        except FoelnerError as exc:
            return n, exc
    return None, None


@pytest.mark.parametrize("spec, fam, ns", [
    # s2 overflows at n = 1023, the weights from n = 1024 on
    (OperatorSpec.creation(), _POW2, range(1000, 1100, 7)),
    (OperatorSpec.creation(), _POW2, range(1020, 1030)),
    (OperatorSpec.example_a(), _POW2, range(500, 520)),
    (OperatorSpec.toeplitz({0: 1e308, 1: 1e308, -1: 1e308}), CANON, [2, 3, 4]),
    # the weight overflows from n = 4675 on, while u stays near n^0.1
    (_LATE, CANON, range(1, 20001)),
], ids=["creation", "creation_s2_first", "example_A", "toeplitz", "late_product"])
def test_failing_grid_raises_what_its_first_failing_point_raises(spec, fam, ns):
    n, first = _first_failure(spec, fam, ns)
    assert n is not None
    with pytest.raises(FoelnerError) as grid:
        report_sequence(spec, fam, ns)
    assert type(grid.value) is type(first) and str(grid.value) == str(first)


@pytest.mark.parametrize("ns", [range(1, 4676), range(1, 20001), range(4600, 4676),
                                range(4675, 4676), range(1, 100_001, 3)])
def test_failing_grid_takes_logarithmically_many_passes(monkeypatch, ns):
    # a failing pass is measured by halves: at most two passes a level, down to the
    # first failing point (n = 4675), not one pass per point
    calls = []
    monkeypatch.setattr(norms, "_grid", lambda *a, f=norms._grid: calls.append(a) or f(*a))
    with pytest.raises(WeightUndefined, match="at index 4675$"):
        report_sequence(_LATE, CANON, ns)
    assert len(calls) <= 2 * math.ceil(math.log2(len(ns))) + 1
    assert calls[-1][2] == [4675]


@pytest.mark.parametrize("seed", range(40))
def test_segments_are_the_per_segment_formula(seed):
    # oracle: each segment's entries (lo <= g < hi) measured on their own, bit for bit; a
    # quarter of the cases are one segment, with entries outside it
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 60))
    cells = rng.choice(400, size=m, replace=False)
    i, j = cells // 20 + 1, cells % 20 + 1
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m) * (seed % 2)
    lo = rng.integers(-3, 12, m)
    hi = lo + rng.integers(-2, 10, m)
    ga = int(rng.integers(-2, 6))
    gb = ga + (1 if seed % 4 == 0 else int(rng.integers(2, 10)))
    u, s1, s2 = norms._segments(i, j, v, lo, hi, ga, gb, True)
    assert np.array_equal(norms._segments(i, j, v, lo, hi, ga, gb, False)[0], u)
    for g in range(ga, gb):
        at = (lo <= g) & (g < hi)
        sv, w = norms._triplet_svals(i[at], j[at], v[at]), v[at]
        assert u[g - ga] == (sv[0] if len(sv) else 0.0)
        assert s1[g - ga] == sv.sum()
        assert s2[g - ga] == math.sqrt(math.fsum((w.real * w.real).tolist()
                                                 + (w.imag * w.imag).tolist()))


def test_small_segments_past_the_float_range_give_inf():
    # three or four finite squares of 1e308 per segment: their exact sum overflows, which
    # the table of small segments must give as inf, as a segment measured alone does
    spec = OperatorSpec.dilation_shift("const:1e154")
    u, s1, s2 = norms._grid(spec, CANON, [6, 7], True)
    assert u == [1e154, 1e154] and s1 == [3e154, 4e154]
    assert s2 == [math.inf, math.inf]
    with pytest.raises(FoelnerError, match=r"seminorms of \[T, R_6\] are not finite"):
        report_sequence(spec, CANON, [6, 7])


@pytest.mark.parametrize("seed", range(6))
def test_exact_sum_is_fsum(seed):
    rng = np.random.default_rng(seed)
    n = 2048 + int(rng.integers(0, 6000))
    x = [rng.random(n),
         rng.random(n) * 10.0 ** rng.integers(-300, 300, n),
         np.ldexp(rng.random(n), rng.integers(-1074, -1000, n)),     # subnormal sums
         np.ldexp(1 + 2.0 ** -52 * rng.integers(0, 3, n), rng.integers(-60, 60, n)),
         np.full(n, 1.0 + 2.0 ** -52), np.zeros(n)][seed]
    x[rng.random(n) < 0.1] = 0.0
    assert norms._exact_sum(x) == math.fsum(x.tolist())
    assert norms._exact_sum(np.full(n, 1.7e308)) == math.inf      # where math.fsum raises
