import math
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from foelner import ops
from foelner.errors import (
    InvalidSpec,
    ResourceLimit,
    SelectorOutOfRange,
    WeightUndefined,
    WindowTooSmall,
)
from foelner.norms import seminorm, u_sequence
from foelner.ops import OperatorSpec, ProjectionFamily


def test_weight_vocabulary():
    w = ops._parse_weight("log")
    assert w(1) == 0.0
    assert w(100) == pytest.approx(math.log(100), abs=1e-15)
    assert ops._parse_weight("sqrt")(4) == 2.0
    assert ops._parse_weight("linear")(7) == 7.0
    assert ops._parse_weight("inverse")(4) == 0.25
    assert ops._parse_weight("const:2.5")(99) == 2.5
    assert ops._parse_weight("pow:0.5")(9) == pytest.approx(3.0)
    assert ops._parse_weight("pow:-1")(8) == pytest.approx(0.125)


def test_weight_unknown_rule():
    with pytest.raises(InvalidSpec):
        OperatorSpec.weighted_shift("cubic")


def test_weight_huge_indices():
    # indices can be arbitrary Python ints; decaying rules stay finite
    big = 2 ** 1024
    assert ops._parse_weight("inverse")(big) > 0.0
    assert ops._parse_weight("log")(big) == pytest.approx(1024 * math.log(2))
    with pytest.raises(WeightUndefined):
        ops._parse_weight("sqrt")(big)
    with pytest.raises(WeightUndefined):
        ops._parse_weight("pow:2")(big)
    assert ops._parse_weight("pow:-0.5")(big) >= 0.0


def test_entry_examples():
    assert ops.entry(OperatorSpec.weighted_shift("sqrt"), 5, 4) == pytest.approx(2.0)
    a = OperatorSpec.example_a()
    assert ops.entry(a, 2, 1) == pytest.approx(1.0)
    assert ops.entry(a, 4, 3) == pytest.approx(1 / 3)
    assert ops.entry(a, 3, 3) == pytest.approx(9.0)
    z = OperatorSpec.diagonal("const:0")
    assert ops.entry(z, 7, 7) == 0.0


def test_entry_rejects_nonpositive_indices():
    s = OperatorSpec.weighted_shift("linear")
    with pytest.raises(ValueError):
        ops.entry(s, 0, 1)
    with pytest.raises(ValueError):
        ops.entry(s, 1, -2)


def test_adjoint_is_conjugate_transpose():
    s = OperatorSpec.scale(1j, OperatorSpec.weighted_shift("sqrt"))
    a = OperatorSpec.scale(-1j, OperatorSpec.adjoint_weighted_shift("sqrt"))
    for i in range(1, 101):
        for j in range(1, 101):
            assert ops.entry(a, i, j) == pytest.approx(
                np.conj(ops.entry(s, j, i)), abs=1e-15)


_ONE_PER_KIND = [
    OperatorSpec.weighted_shift("log"),
    OperatorSpec.adjoint_weighted_shift("sqrt"),
    OperatorSpec.diagonal("pow:-0.5"),
    OperatorSpec.dilation_shift(),
    OperatorSpec.example_a(),
    OperatorSpec.toeplitz({-2: 0.5, 0: 1.0, 3: 2j}),
    OperatorSpec.hermite_q(),
    OperatorSpec.hermite_p(),
    OperatorSpec.creation(),
    OperatorSpec.annihilation(),
    OperatorSpec.sum(OperatorSpec.hermite_q(), OperatorSpec.weighted_shift("inverse")),
    OperatorSpec.scale(2 - 1j, OperatorSpec.dilation_shift("linear")),
    OperatorSpec.product(OperatorSpec.weighted_shift("sqrt"),
                         OperatorSpec.adjoint_weighted_shift("sqrt")),
]


def test_one_spec_per_kind():
    assert sorted(s.kind for s in _ONE_PER_KIND) == sorted(
        list(ops._PRIMITIVES) + ["sum", "scale", "product"])


@pytest.mark.parametrize("spec", _ONE_PER_KIND, ids=lambda s: s.kind)
def test_row_support_matches_col_support(spec):
    seen = {}
    for j in range(1, 40):
        for i, v in ops.col_support(spec, j).items():
            seen[(i, j)] = v
    again = {}
    for i in range(1, 90):
        for j, v in ops.row_support(spec, i).items():
            if j < 40:
                again[(i, j)] = v
    assert seen == again
    # the reach bounds are monotone and bound every observed entry
    col_hi = [ops._col_hi(spec, j) for j in range(1, 90)]
    row_hi = [ops._row_hi(spec, i) for i in range(1, 90)]
    assert col_hi == sorted(col_hi) and row_hi == sorted(row_hi)
    for i, j in seen:
        assert i <= col_hi[j - 1] and j <= row_hi[i - 1]
    reach = max(abs(i - j) for i, j in seen)
    prop = ops.propagation(spec)
    if spec.kind in ("dilation_shift", "scale"):
        assert prop is None and reach >= 39
    elif spec.kind in ("sum", "product"):
        assert reach <= prop
    else:
        assert reach == prop


def test_spec_validation():
    for bad in (dict(kind="nope"), dict(kind="sum"), dict(kind="weighted_shift"),
                dict(kind="toeplitz", bands=((1.5, 1),)),
                dict(kind="toeplitz", bands=((1, math.inf),)),
                dict(kind="scale", factor=math.nan, children=(OperatorSpec.creation(),))):
        with pytest.raises(InvalidSpec):
            OperatorSpec(**bad)
    spec = OperatorSpec.toeplitz({2: 0, 1: 1j, -1: 2})
    assert spec.bands == ((-1, 2), (1, 1j))
    assert spec == OperatorSpec(kind="toeplitz", bands=((1, 1j), (-1, 2.0)))
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert ops.col_support(pickle.loads(pickle.dumps(spec)), 3) == {2: 2, 4: 1j}


def test_compress_toeplitz_tridiagonal():
    t = OperatorSpec.toeplitz({-1: 1, 1: 1})
    w = ops.compress(t, 3)
    assert np.allclose(w.entries, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))


def test_compress_hermite_q():
    w = ops.compress(OperatorSpec.hermite_q(), 3)
    r = 1 / math.sqrt(2)
    want = r * np.array([[0, 1, 0], [1, 0, math.sqrt(2)], [0, math.sqrt(2), 0]])
    assert np.max(np.abs(w.entries - want)) < 1e-15


@pytest.mark.parametrize("spec", [OperatorSpec.hermite_p(), OperatorSpec.example_a(),
                                  OperatorSpec.dilation_shift(),
                                  OperatorSpec.toeplitz({-3: 1j, 0: 2, 2: -1}),
                                  OperatorSpec.product(OperatorSpec.creation(),
                                                       OperatorSpec.diagonal("log"))],
                         ids=["hermite_p", "example_A", "dilation", "toeplitz", "product"])
def test_sparse_window_matches_entrywise_reference(spec):
    N = 30
    want = np.array([[ops.entry(spec, i, j) for j in range(1, N + 1)]
                     for i in range(1, N + 1)])
    m = ops.sparse_window(spec, N)
    assert m.shape == (N, N) and m.has_canonical_format
    assert m.nnz == np.count_nonzero(want)
    assert np.array_equal(m.toarray(), want)
    assert np.array_equal(ops.compress(spec, N).entries, want)


def test_compress_sum_cancellation():
    d = OperatorSpec.diagonal("linear")
    zero = OperatorSpec.sum(d, OperatorSpec.scale(-1.0, d))
    assert np.all(ops.compress(zero, 5).entries == 0)


def test_capture_bounds():
    assert ops.capture_bound(OperatorSpec.weighted_shift("linear"), 10) == 11
    sq = OperatorSpec.product(OperatorSpec.weighted_shift("sqrt"),
                              OperatorSpec.weighted_shift("sqrt"))
    assert ops.capture_bound(sq, 10) == 12
    assert ops.capture_bound(OperatorSpec.dilation_shift(), 10) == 20
    assert ops.capture_bound(OperatorSpec.toeplitz({-2: 1, 2: 1}), 9) == 11
    # diagonal commutes, nothing escapes the block
    assert ops.capture_bound(OperatorSpec.diagonal("sqrt"), 10) == 10


def test_propagation():
    assert ops.propagation(OperatorSpec.weighted_shift("log")) == 1
    assert ops.propagation(OperatorSpec.toeplitz({-3: 1, 2: 1})) == 3
    assert ops.propagation(OperatorSpec.dilation_shift()) is None


_BUILTINS = [
    OperatorSpec.weighted_shift("log"),
    OperatorSpec.weighted_shift("sqrt"),
    OperatorSpec.weighted_shift("linear"),
    OperatorSpec.weighted_shift("inverse"),
    OperatorSpec.weighted_shift("const:1"),
    OperatorSpec.adjoint_weighted_shift("sqrt"),
    OperatorSpec.diagonal("linear"),
    OperatorSpec.dilation_shift(),
    OperatorSpec.example_a(),
    OperatorSpec.toeplitz({-1: 1, 1: 1}),
    OperatorSpec.toeplitz({-2: 0.5, -1: 1, 1: 1, 2: 0.5}),
    OperatorSpec.hermite_q(),
    OperatorSpec.hermite_p(),
    OperatorSpec.creation(),
    OperatorSpec.annihilation(),
    OperatorSpec.sum(OperatorSpec.hermite_q(), OperatorSpec.weighted_shift("inverse")),
    OperatorSpec.scale(2 - 1j, OperatorSpec.hermite_p()),
    OperatorSpec.product(OperatorSpec.weighted_shift("sqrt"),
                         OperatorSpec.weighted_shift("sqrt")),
]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 21, 55, 144, 200])
def test_capture_completeness_padding_invariance(n):
    # norms of the captured commutator window must not change under padding
    fam = ProjectionFamily.canonical()
    for spec in _BUILTINS:
        w = ops.commutator_window(spec, fam, n)
        padded = np.zeros((w.dim + 7, w.dim + 7), dtype=complex)
        padded[:w.dim, :w.dim] = w.entries
        for mode in ("u", "s1", "s2"):
            assert seminorm(w, mode) == pytest.approx(
                seminorm(ops.Window(w.dim + 7, padded), mode), abs=1e-12)


@pytest.mark.parametrize("n", [1, 3, 17, 64])
def test_commutator_matches_dense_formula(n):
    # [T, P_n] assembled from supports == T R - R T computed densely
    fam = ProjectionFamily.canonical()
    for spec in _BUILTINS:
        w = ops.commutator_window(spec, fam, n)
        m = w.dim
        t = ops.compress(spec, m).entries
        r = ops.projection_window(fam, n, m).entries
        assert np.max(np.abs(w.entries - (t @ r - r @ t))) < 1e-12


def test_triplets_need_a_coordinate_family():
    fam = ProjectionFamily.explicit([np.eye(3)[:, :1]])
    with pytest.raises(InvalidSpec):
        ops.commutator_triplets(OperatorSpec.hermite_q(), fam, 1)
    with pytest.raises(InvalidSpec):
        u_sequence(OperatorSpec.hermite_q(), fam, [1])


def test_commutator_window_examples():
    fam = ProjectionFamily.canonical()
    w = ops.commutator_window(OperatorSpec.weighted_shift("linear"), fam, 4)
    assert w.dim == 5
    want = np.zeros((5, 5))
    want[4, 3] = 4.0
    assert np.max(np.abs(w.entries - want)) == 0.0

    z = ops.commutator_window(OperatorSpec.diagonal("sqrt"), fam, 12)
    assert np.all(z.entries == 0)

    h = ops.commutator_window(OperatorSpec.hermite_q(), fam, 3)
    v = math.sqrt(3 / 2)
    assert h.entries[3, 2] == pytest.approx(v)
    assert h.entries[2, 3] == pytest.approx(-v)
    assert np.count_nonzero(h.entries) == 2


def test_projection_window_examples():
    assert np.allclose(
        ops.projection_window(ProjectionFamily.canonical(), 2, 3).entries,
        np.diag([1, 1, 0]))
    sp = ProjectionFamily.sparse(lambda n: 2 ** n)
    assert np.allclose(ops.projection_window(sp, 2, 5).entries,
                       np.diag([0, 1, 0, 1, 0]))
    bl = ProjectionFamily.from_boundaries([0, 3, 5])
    assert np.allclose(ops.projection_window(bl, 2, 6).entries,
                       np.diag([1, 1, 1, 1, 1, 0]))


def test_projection_window_too_small():
    sp = ProjectionFamily.sparse(lambda n: 2 ** n)
    with pytest.raises(WindowTooSmall):
        ops.projection_window(sp, 3, 7)


def test_projection_window_idempotent_hermitian():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    v, _ = np.linalg.qr(g)
    fams = [
        (ProjectionFamily.canonical(), 4, 9),
        (ProjectionFamily.sparse([3, 5, 11]), 2, 11),
        (ProjectionFamily.from_boundaries([0, 2, 7]), 2, 8),
        (ProjectionFamily.explicit([v]), 1, 6),
    ]
    for fam, n, N in fams:
        w = ops.projection_window(fam, n, N).entries
        assert np.max(np.abs(w @ w - w)) < 1e-14
        assert np.max(np.abs(w - w.conj().T)) == 0.0


def test_sparse_family_must_increase():
    with pytest.raises(InvalidSpec):
        ProjectionFamily.sparse([2, 2, 3])
    bad = ProjectionFamily.sparse(lambda n: 5)   # constant rule
    with pytest.raises(InvalidSpec):
        bad.indices(2)


def test_blocks_validation():
    with pytest.raises(InvalidSpec):
        ProjectionFamily.from_boundaries([1, 2])     # must start at 0
    with pytest.raises(InvalidSpec):
        ProjectionFamily.from_boundaries([0, 4, 4])
    fam = ProjectionFamily.from_boundaries([0, 2, 6])
    assert fam.indices(2) == [1, 2, 3, 4, 5, 6]
    assert fam.rank(1) == 2
    with pytest.raises(SelectorOutOfRange):
        fam.indices(3)


def test_explicit_family_rejects_skew_basis():
    v = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidSpec):
        ProjectionFamily.explicit([v])


def test_window_validation():
    with pytest.raises(ValueError):
        ops.Window(2, np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ops.Window(2, bad)


def test_product_truncation_identity():
    # away from the last d columns, compressing commutes with multiplying
    a = OperatorSpec.weighted_shift("sqrt")
    b = OperatorSpec.adjoint_weighted_shift("log")
    prod = OperatorSpec.product(a, b)
    d = ops.propagation(a) + ops.propagation(b)
    N = 24
    full = ops.compress(prod, N).entries
    parts = ops.compress(a, N).entries @ ops.compress(b, N).entries
    assert np.max(np.abs(full[:, :N - d] - parts[:, :N - d])) < 1e-12


def test_single_child_product_and_sum():
    s = OperatorSpec.weighted_shift("sqrt")
    assert np.allclose(ops.compress(OperatorSpec.product(s), 6).entries,
                       ops.compress(s, 6).entries)
    assert np.allclose(ops.compress(OperatorSpec.sum(s), 6).entries,
                       ops.compress(s, 6).entries)
    with pytest.raises(InvalidSpec):
        OperatorSpec.sum()


def test_dilation_commutator_structure():
    # [S_+, P_n] keeps exactly the columns n/2 < j <= n, at rows 2j
    n = 10
    w = ops.commutator_window(OperatorSpec.dilation_shift(), ProjectionFamily.canonical(), n)
    nz = {(i + 1, j + 1): v for (i, j), v in np.ndenumerate(w.entries) if v != 0}
    want = {(2 * j, j): math.sqrt(j) for j in range(6, 11)}
    assert set(nz) == set(want)
    for k, v in want.items():
        assert nz[k] == pytest.approx(v)


_OVER = math.isqrt(ops.DENSE_CELLS) + 1      # smallest square window over the budget


@pytest.mark.parametrize("build", [
    lambda n: ops.compress(OperatorSpec.hermite_q(), n),
    lambda n: ops.to_window(scipy.sparse.identity(n, dtype=complex, format="csr")),
    lambda n: ops.projection_window(ProjectionFamily.canonical(), 1, n),
    lambda n: ops.commutator_window(OperatorSpec.weighted_shift("inverse"),
                                    ProjectionFamily.sparse([n - 1]), 1),
], ids=["compress", "to_window", "projection_window", "commutator_window"])
def test_dense_budget_refuses_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            build(_OVER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense window at this size would take 16 * _OVER^2 bytes (256 MiB)
    assert peak < 16 * _OVER ** 2 / 100
