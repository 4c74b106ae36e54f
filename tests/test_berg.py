import math

import numpy as np
import pytest

from foelner import berg, norms, ops, weyl
from foelner.errors import NotHermitian


def test_sweep_diagonal_is_free():
    A = np.diag(np.linspace(-1, 1, 16)).astype(complex)
    r = berg.berg_sequence(A, range(1, 17), 0.25)
    assert r.perturbation_norm == 0.0
    assert max(r.commutator_norms) == 0.0
    assert sum(r.block_ranks) == 16
    assert r.block_ranks == (1,) * 16


def test_sweep_accepts_window_input():
    w = ops.compress(ops.OperatorSpec.diagonal("inverse"), 8)
    r = berg.berg_sequence(w, range(1, 9), 0.5)
    assert r.dim == 8
    assert r.perturbation_norm == 0.0


def test_sweep_seeded_random():
    A = berg.random_hermitian(32, 5)
    eps = 0.2
    r = berg.berg_sequence(A, range(1, 33), eps)
    assert sum(r.block_ranks) == 32
    assert r.perturbation_norm < eps
    assert max(r.commutator_norms) < eps
    # W*W = I: the P_n = sum of Z Z* over the first n step bases are nested
    # orthogonal projections, and W is square, so the last one is the identity
    W = np.hstack(r.step_bases)
    assert W.shape == (32, 32)
    assert np.max(np.abs(W.conj().T @ W - np.eye(32))) < 1e-10


def test_sweep_projections_reconstruct_a_block_version():
    # B = sum Q_n A Q_n differs from A by exactly the reported perturbation
    A = berg.random_hermitian(20, 3)
    r = berg.berg_sequence(A, range(1, 21), 0.3)
    B = np.zeros((20, 20), dtype=complex)
    for Z in r.step_bases:
        Q = Z @ Z.conj().T
        B += Q @ A @ Q
    gap = float(np.linalg.svd(A - B, compute_uv=False)[0])
    assert gap <= r.perturbation_norm + 1e-10


def test_sweeps_of_one_window_compare_equal_and_hash_alike():
    a = berg.random_hermitian(16, 4)
    r, s = (berg.berg_sequence(a, range(1, 17), 0.2) for _ in range(2))
    assert r == s and hash(r) == hash(s)
    assert r != berg.berg_sequence(a, range(16, 0, -1), 0.2)


def test_sweep_rejects_bad_input():
    with pytest.raises(NotHermitian):
        berg.berg_sequence(np.array([[0.0, 1.0], [0.0, 0.0]]), [1, 2], 0.1)
    A = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        berg.berg_sequence(A, [1, 2], 0.1)        # not a permutation of 1..3
    with pytest.raises(ValueError):
        berg.berg_sequence(A, [1, 2, 2], 0.1)
    with pytest.raises(ValueError):
        berg.berg_sequence(A, [1, 2, 3], 0.0)


def test_sweep_refuses_an_empty_window():
    with pytest.raises(ValueError, match="^expected a non-empty square window$"):
        berg.berg_sequence(np.zeros((0, 0)), [], 0.1)
    assert berg._hermitian_part(np.zeros((0, 0))).shape == (0, 0)


def test_random_hermitian_contract():
    A = berg.random_hermitian(40, 9)
    assert np.array_equal(A, A.conj().T)
    assert np.max(np.abs(np.linalg.eigvalsh(A))) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(A, berg.random_hermitian(40, 9))
    assert not np.array_equal(A, berg.random_hermitian(40, 10))
    B = berg.random_hermitian(12, 0, spectrum_radius=2.5)
    assert np.max(np.abs(np.linalg.eigvalsh(B))) == pytest.approx(2.5, abs=1e-12)


def _division_cells(epsilon, M, step):
    """The cell width and count as the sweep took them before steps past 1023 ran."""
    width = max(epsilon / 2 ** step, berg._MIN_CELL)
    count = max(1, math.ceil(2 * M / width))
    return 2 * M / count, count


@pytest.mark.parametrize("eps", [0.05, 0.1, 1 / 3, 0.5, 1e-300, 5e-324, 1.7e308])
def test_cells_match_the_division_below_step_1024(eps):
    for M in (1.0, 0.37, 3e5):
        for step in range(1, 1024):
            (w, c), (w0, c0) = berg._cells(eps, M, step), _division_cells(eps, M, step)
            assert (w.hex(), c) == (w0.hex(), c0), step


@pytest.mark.parametrize("eps", [0.05, 0.5])
def test_cells_past_step_1023_floor_at_the_least_width(eps):
    # 2 ** 1024 does not convert to a float, so the division raised at step 1024
    with pytest.raises(OverflowError):
        _division_cells(eps, 1.0, 1024)
    for M in (1.0, 0.37):
        count = math.ceil(2 * M / berg._MIN_CELL)
        want = (2 * M / count, count)
        assert _division_cells(eps, M, 1023) == want
        for step in (1023, 1024, 5000):
            assert berg._cells(eps, M, step) == want


# ---------------------------------------------------------------------------
# reference: the dense sweep with per-step N x N projections and commutators
# ---------------------------------------------------------------------------

def _dense_sweep(a, epsilon):
    """The sweep in natural order, every reported number from N x N products."""
    N = a.shape[0]
    M = float(np.max(np.abs(np.linalg.eigvalsh(a)))) or 1.0
    U_perp = np.eye(N, dtype=complex)
    P = np.zeros((N, N), dtype=complex)
    K = np.zeros((N, N), dtype=complex)
    projections, ranks, comm, bases, cell_steps = [], [], [], [], []
    rank = stall = step = 0
    while rank < N:
        step += 1
        assert stall < N
        w = U_perp.conj().T[:, (step - 1) % N].copy()
        if np.linalg.norm(w) <= berg._DROP_TOL:
            stall += 1
            continue
        a_red = U_perp.conj().T @ a @ U_perp
        lam, V = np.linalg.eigh((a_red + a_red.conj().T) / 2)
        width = max(epsilon / 2 ** step, berg._MIN_CELL)
        count = max(1, math.ceil(2 * M / width))
        width = 2 * M / count
        cells = {}
        for t, k in enumerate(berg._cell_index(lam, M, width, count)):
            cells.setdefault(k, []).append(t)
        pieces, sizes = [], []              # sizes: (columns, gives a piece) of every cell
        for c in sorted(cells):
            Vc = V[:, cells[c]]
            y = Vc @ (Vc.conj().T @ w)
            sizes.append((len(cells[c]), bool(np.linalg.norm(y) > berg._DROP_TOL)))
            if sizes[-1][1]:
                pieces.append(y / np.linalg.norm(y))
        cell_steps.append(sizes)
        if not pieces:
            stall += 1
            continue
        stall = 0
        Y = np.column_stack(pieces)
        q = Y.shape[1]
        Z = U_perp @ Y
        P = P + Z @ Z.conj().T
        P = (P + P.conj().T) / 2
        rank += q
        Pperp = np.eye(N) - P
        Qn = Z @ Z.conj().T
        K += Qn @ a @ Pperp + Pperp @ a @ Qn
        projections.append(P.copy())
        ranks.append(q)
        comm.append(float(np.linalg.svd(a @ P - P @ a, compute_uv=False)[0]))
        bases.append(Z)
        full_u, _, _ = np.linalg.svd(Y, full_matrices=True)
        U_perp = U_perp @ full_u[:, q:]
    k_norm = float(np.linalg.svd(K, compute_uv=False)[0])
    return projections, ranks, comm, k_norm, bases, cell_steps


def _close(x, y):
    return abs(x - y) <= max(1e-9 * max(abs(x), abs(y)), 1e-12)


# the last value of a case says it must reach every branch of the stacked cell update
_ORACLE_CASES = [pytest.param(berg.random_hermitian(dim, dim), eps, False,
                              id=f"random-{dim}-eps{eps}")
                 for dim in (8, 33, 64, 128) for eps in (0.05, 0.2)]
# at eps 0.3, 2M 2^n / eps = 20 2^n / 3 is no integer, so the cells of one step do not nest in
# those of the step before, and one cell can mix columns of different earlier cells
_ORACLE_CASES += [pytest.param(berg.random_hermitian(dim, dim), 0.3, False,
                               id=f"random-{dim}-eps0.3") for dim in (64, 128)]
_ORACLE_CASES.append(pytest.param(np.diag(np.linspace(-1, 1, 24)).astype(complex), 0.2, False,
                                  id="diagonal-24"))


def _degenerate():
    """A seeded unitary conjugate of +-1 and six eigenvalues repeated 3 or 4 times.

    With eps = 6/61 the cell count 2M 2^n / eps = 61 2^n / 3 stays a third off an
    integer, and the repeated eigenvalues +-(6a - 61)/61 for a in {14, 16, 17, 19}
    sit at least a fifth of a cell from every edge over the first 35 steps, so
    each eigenspace lies in one cell and only the sweep picks a basis in it.
    """
    vals = np.repeat(np.array([-53, -41, -23, 23, 35, 41]) / 61, [4, 3, 4, 3, 4, 4])
    d = np.concatenate([[-1.0], vals, [1.0]])
    rng = np.random.default_rng(24)
    q, _ = np.linalg.qr(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
    a = (q * d) @ q.conj().T
    return (a + a.conj().T) / 2


_ORACLE_CASES.append(pytest.param(_degenerate(), 6 / 61, False, id="degenerate-24"))


def _blocks():
    """Seeded random Hermitian blocks of 120 and 80 (the second of radius 1/2), side by side.

    A random matrix visited in natural order has a part in every cell; here e_1 ... e_120
    miss every cell that holds only eigenvalues of the second block.
    """
    a = np.zeros((200, 200), dtype=complex)
    a[:120, :120] = berg.random_hermitian(120, 200)
    a[120:, 120:] = berg.random_hermitian(80, 201, spectrum_radius=0.5)
    return a


_ORACLE_CASES.append(pytest.param(_blocks(), 0.05, True, id="blocks-200"))


def _reaches_every_stacked_branch(sizes):
    """Two same-size cells of two or more columns, a one-column cell (all giving pieces)
    and a cell giving none, at one step."""
    shared = [n for n, gives in sizes if gives and n >= 2]
    return (len(shared) > len(set(shared)) and (1, True) in sizes
            and any(not gives for _, gives in sizes))


@pytest.mark.parametrize("a, eps, stacked", _ORACLE_CASES)
def test_sweep_matches_dense_reference(a, eps, stacked):
    N = a.shape[0]
    projections, ranks, comm, k_norm, bases, cell_steps = _dense_sweep(a, eps)
    assert not stacked or any(_reaches_every_stacked_branch(s) for s in cell_steps)
    r = berg.berg_sequence(a, range(1, N + 1), eps)
    assert r.block_ranks == tuple(ranks)
    assert len(r.step_bases) == len(bases)
    assert all(z.shape == zr.shape and np.max(np.abs(z - zr)) <= 1e-12
               for z, zr in zip(r.step_bases, bases))
    assert len(r.commutator_norms) == len(comm)
    assert all(_close(x, y) for x, y in zip(r.commutator_norms, comm))
    assert _close(r.perturbation_norm, k_norm)
    # the block identity: ||[A, P_n]|| is the top singular value of B[e_n:, :e_n]
    W = np.hstack(r.step_bases)
    B = W.conj().T @ a @ W
    for e, P, c in zip(np.cumsum(ranks), projections, comm):
        block = B[e:, :e]
        top = float(np.linalg.svd(block, compute_uv=False)[0]) if block.size else 0.0
        assert _close(top, c)
        # P_n is the sum of Z Z* over the first n step bases
        assert np.max(np.abs(W[:, :e] @ W[:, :e].conj().T - P)) <= 1e-12


def test_sweep_order_is_a_relabelling():
    # visiting e_p(1), e_p(2), ... in A is the natural sweep of A with rows and columns
    # permuted by p; eps 0.3 keeps 2M 2^n / eps = 20 2^n / 3 off an integer, so the
    # last-ulp change of M under the permutation moves no cell count
    a = berg.random_hermitian(40, 7)
    p = np.random.default_rng(7).permutation(40)
    r = berg.berg_sequence(a, p + 1, 0.3)
    rp = berg.berg_sequence(a[np.ix_(p, p)], range(1, 41), 0.3)
    assert r.block_ranks == rp.block_ranks
    assert all(_close(x, y) for x, y in zip(r.commutator_norms, rp.commutator_norms))
    assert _close(r.perturbation_norm, rp.perturbation_norm)
    assert all(np.max(np.abs(z[p] - zp)) <= 1e-12 for z, zp in zip(r.step_bases, rp.step_bases))


def _corner_formula(i, j, v, ranks):
    """||K|| and every ||[A, P_n]|| by the per-corner formula: _triplet_svals of K and of each
    corner K[e_n:, :e_n], e_n the rank after step n, taken on its own."""
    masks = [np.ones(len(v), bool)] + [(i >= e) & (j < e) for e in np.cumsum(ranks)]
    return [float(np.max(norms._triplet_svals(i[m], j[m], v[m]), initial=0.0)) for m in masks]


_PQ4 = weyl.represent(weyl.parse_element("p^2+q^4"), 256).entries
_CORNER_CASES = [pytest.param(berg.random_hermitian(dim, dim + 1), eps, id=f"random-{dim}-eps{eps}")
                 for dim, eps in ((8, 0.5), (16, 0.2), (20, 0.5), (33, 0.3), (48, 0.2), (128, 0.2),
                                  (384, 0.05))]
# 126 steps each; at eps 0.05 K is 0, at eps 1000 seven corners hold 8 or more entries
_CORNER_CASES += [pytest.param(_PQ4, eps, id=f"p2+q4-256-eps{eps}") for eps in (0.05, 1000.0)]


def _sweep_with_k(a, eps):
    """A natural-order sweep of a, and the entries (i, j, v) of K that it hands to _segments."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_segments", lambda i, j, v, *rest, f=norms._segments:
                   seen.append((i, j, v)) or f(i, j, v, *rest))
        r = berg.berg_sequence(a, range(1, a.shape[0] + 1), eps)
    (k,) = seen
    return (r, *k)


@pytest.mark.parametrize("a, eps", _CORNER_CASES)
def test_corner_norms_are_the_per_corner_formula(a, eps):
    # all corners come from one _segments call over K; the formula it replaced is the
    # oracle, bit for bit, on the K that the sweep built
    r, i, j, v = _sweep_with_k(a, eps)
    want = _corner_formula(i, j, v, r.block_ranks)
    assert r.perturbation_norm == want[0]
    assert r.commutator_norms == tuple(want[1:])


def test_corner_cases_reach_every_segment_branch():
    # corners of 8 or more entries, of fewer that are or are not a scaled partial
    # permutation, and empty ones
    kinds = set()
    for case in _CORNER_CASES:
        r, i, j, v = _sweep_with_k(*case.values)
        for e in np.cumsum(r.block_ranks):
            m = (i >= e) & (j < e)
            kinds.add("empty" if not m.any() else "large" if m.sum() >= 8 else
                      "permutation" if norms._distinct(i[m]) and norms._distinct(j[m]) else "small")
    assert kinds == {"empty", "large", "permutation", "small"}
