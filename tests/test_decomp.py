import numpy as np
import pytest

from foelner import decomp, norms, ops
from foelner.errors import (
    InvalidSpec,
    NotQuasidiagonalAlongFamily,
    SelectorOutOfRange,
    WindowTooSmall,
)

CANON = ops.ProjectionFamily.canonical()
INV = ops.OperatorSpec.weighted_shift("inverse")


def test_select_inverse_prefix():
    # thresholds eps/4, eps/8, ...: first n with 1/n < 0.025 is 41, then 81, ...
    got = decomp.select_subsequence(INV, CANON, 0.1)
    assert got == [41, 81, 161, 321, 641, 1281, 2561, 5121]


def test_select_diagonal_takes_everything():
    spec = ops.OperatorSpec.diagonal("sqrt")
    assert decomp.select_subsequence(spec, CANON, 0.3, search_limit=7) == [1, 2, 3, 4, 5, 6, 7]
    # the thresholds 0.3/2^(i+1) round to 0.0 from i = 1073 on, and u = 0 stops there
    assert decomp.select_subsequence(spec, CANON, 0.3, search_limit=1100) == \
        list(range(1, 1073))


def test_select_constant_shift_fails():
    with pytest.raises(NotQuasidiagonalAlongFamily):
        decomp.select_subsequence(ops.OperatorSpec.weighted_shift("const:1"),
                                  CANON, 0.5, search_limit=300)


def test_select_log_stalls_after_first_rank():
    # w_1 = log 1 = 0 admits n_1 = 1; log n then grows, so the greedy scan
    # returns the maximal list it could certify
    got = decomp.select_subsequence(ops.OperatorSpec.weighted_shift("log"),
                                    CANON, 0.1, search_limit=200)
    assert got == [1]


def test_select_validation():
    with pytest.raises(ValueError):
        decomp.select_subsequence(INV, CANON, 0.0)
    with pytest.raises(ValueError):
        decomp.select_subsequence(INV, CANON, 0.1, search_limit=0)


def test_halmos_inverse_decomposition():
    bs = decomp.select_subsequence(INV, CANON, 0.1)
    d = decomp.halmos_decompose(INV, bs, 2048, 0.1)
    assert d.boundaries == (41, 81, 161, 321, 641, 1281)
    assert d.k_norm == pytest.approx(1 / 41, abs=1e-15)
    assert d.k_norm < 0.1
    assert d.offblock_residual == 0.0
    assert d.ok
    # reconstruction is exact, not merely close
    W = ops.compress(INV, 2048).entries
    assert np.array_equal(d.block_diagonal.entries + d.perturbation.entries, W)


def test_halmos_geometric_budget():
    # ||K||_u <= sum_i 2 ||[T, P_{b_i}]||_u < eps
    bs = decomp.select_subsequence(INV, CANON, 0.1)
    kept = [b for b in bs if b < 2048]
    budget = sum(2 * norms.u_norm(INV, CANON, b) for b in kept)
    d = decomp.halmos_decompose(INV, bs, 2048, 0.1)
    assert d.k_norm <= budget + 1e-15
    assert budget < 0.1


def test_halmos_diagonal_gives_zero_k():
    spec = ops.OperatorSpec.diagonal("linear")
    d = decomp.halmos_decompose(spec, [3, 7, 11], 20, 0.5)
    assert np.all(d.perturbation.entries == 0)
    assert np.array_equal(d.block_diagonal.entries, ops.compress(spec, 20).entries)
    assert d.ok


def test_halmos_every_rank_is_not_admissible_for_hermite():
    # cutting q at every index strips the whole off-diagonal part into K,
    # whose norm grows with the window; the ok flag must report that
    N = 64
    d = decomp.halmos_decompose(ops.OperatorSpec.hermite_q(), range(1, N), N, 0.1)
    W = ops.compress(ops.OperatorSpec.hermite_q(), N).entries
    assert np.array_equal(d.block_diagonal.entries, np.diag(np.diag(W)))
    assert np.array_equal(d.perturbation.entries, W - np.diag(np.diag(W)))
    assert d.k_norm > 1.0
    assert not d.ok


def test_halmos_boundary_handling():
    d = decomp.halmos_decompose(INV, [5, 100], 10, 0.5)
    assert d.boundaries == (5,)
    with pytest.raises(WindowTooSmall):
        decomp.halmos_decompose(INV, [100], 10, 0.5)
    with pytest.raises(InvalidSpec):
        decomp.halmos_decompose(INV, [0, 5], 10, 0.5)
    with pytest.raises(ValueError):
        decomp.halmos_decompose(INV, [5], 0, 0.5)


def test_sparse_family_unit_blocks():
    fam = decomp.sparse_family(range(1, 20), selector=[2, 4, 8])
    assert fam.indices(1) == [2]
    assert fam.indices(2) == [2, 4]
    assert fam.indices(3) == [2, 4, 8]
    assert fam.rank(3) == 3


def test_sparse_family_merged_blocks():
    fam = decomp.sparse_family([0, 3, 5, 9], selector=[1, 3])
    assert fam.indices(2) == [1, 2, 3, 6, 7, 8, 9]


def test_sparse_family_keeps_all_blocks_by_default():
    fam = decomp.sparse_family([2, 5, 9])
    assert fam.indices(3) == list(range(1, 10))


def test_sparse_family_selector_errors():
    with pytest.raises(SelectorOutOfRange):
        decomp.sparse_family([1, 2, 3], selector=[2, 1])
    with pytest.raises(SelectorOutOfRange):
        decomp.sparse_family([1, 2, 3], selector=[0, 2])
    with pytest.raises(SelectorOutOfRange):
        decomp.sparse_family([1, 2, 3], selector=[1, 5])
    with pytest.raises(InvalidSpec):
        decomp.sparse_family([3, 2], selector=[1])


def test_sparse_ratios_decay_for_compact_shift():
    for rule in (lambda n: 2 ** n, lambda n: n * n):
        fam = ops.ProjectionFamily.sparse(rule)
        r = [norms.report(INV, fam, n).ratio2 for n in (4, 16, 64)]
        assert r[0] > r[1] > r[2]
        assert r[2] < 0.2


def test_example_a_asymmetry():
    A = ops.OperatorSpec.example_a()
    for j in range(1, 9):
        assert norms.u_norm(A, CANON, 2 * j - 1) == pytest.approx(1 / (2 * j - 1), abs=1e-15)
        assert norms.u_norm(A, CANON, 2 * j) == 0.0
    A2 = ops.OperatorSpec.product(A, A)
    odd = [norms.u_norm(A2, CANON, 2 * j - 1) for j in range(1, 17)]
    for j, v in enumerate(odd, start=1):
        n = 2 * j - 1
        assert v == pytest.approx(n + (n + 1) ** 2 / n, rel=1e-12)
    assert all(b > a for a, b in zip(odd, odd[1:]))
    assert all(norms.u_norm(A2, CANON, 2 * j) == 0.0 for j in range(1, 9))


def test_halmos_blocks_for_example_a_have_zero_commutator():
    # even cut points are adapted to the 2x2 coupling pattern
    fam = decomp.sparse_family([2 * j for j in range(1, 12)], selector=[1, 3, 5, 7])
    A = ops.OperatorSpec.example_a()
    for n in (1, 2, 3, 4):
        assert norms.u_norm(A, fam, n) == 0.0


_SPLIT_SPECS = {
    "hermite_q": ops.OperatorSpec.hermite_q(),
    "toeplitz5": ops.OperatorSpec.toeplitz({-2: 0.5, -1: 1 - 1j, 0: 2.0, 1: 3j, 2: -0.25}),
    "example_A": ops.OperatorSpec.example_a(),
    "product": ops.OperatorSpec.product(ops.OperatorSpec.example_a(),
                                        ops.OperatorSpec.hermite_p(),
                                        ops.OperatorSpec.weighted_shift("sqrt")),
}


@pytest.mark.parametrize("name", sorted(_SPLIT_SPECS))
@pytest.mark.parametrize("bs", [[1], [3, 7], [2, 4, 6, 8, 10, 12], list(range(1, 40)),
                                [5, 17, 100]], ids=["1", "3-7", "even", "every", "past"])
def test_sparse_split_matches_dense_reference(name, bs):
    spec, N = _SPLIT_SPECS[name], 40
    # reference built entry by entry, blocks labelled by a plain loop
    W = np.array([[ops.entry(spec, i, j) for j in range(1, N + 1)] for i in range(1, N + 1)])
    label = np.zeros(N, dtype=int)
    for b in bs:
        label[b:] += 1
    K = np.where(label[:, None] != label[None, :], W, 0)
    d = decomp.halmos_decompose(spec, bs, N, 0.5)
    assert np.array_equal(d.window.entries, W)
    assert np.array_equal(d.perturbation.entries, K)
    assert np.array_equal(d.block_diagonal.entries, W - K)
    assert np.array_equal(d.block_diagonal.entries + d.perturbation.entries, W)
    assert d.sparse_perturbation.nnz == np.count_nonzero(K)
    assert d.offblock_residual == 0.0
    want = np.linalg.svd(K, compute_uv=False)[0]
    assert d.k_norm == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert d.ok == (d.k_norm < 0.5)
