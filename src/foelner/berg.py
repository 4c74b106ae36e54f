"""Finite-window spectral sweeps producing block diagonalizing projections.

The sweep refines a uniform partition of the spectral interval: at step n it
projects the next cyclic basis vector onto the unexplored complement, splits
that vector along spectral cells of width eps/2^n, and adjoins one normalized
piece per occupied cell.  It works in coordinates over one eigh, A = E0
diag(lam0) E0*: the complement is E0 X[:, live], with eigenvalues lam.  A piece
lies in its own cell's eigenspace, so the compression stays block-diagonal
over cells: a cell with a piece re-diagonalizes A on the piece's complement in
the cell (a small eigh), the others keep their columns.  The cells that give a
piece are grouped by size, one stacked QR, eigh and product per size.  lam0 is
ascending and X mixes only columns of one cell, so X[:, j] is 0 outside one row
range lo[j]:hi[j] (at first {j}, then the hull over its cell): E0* e_omega and
each cell update are computed on those rows alone, which changes an entry only
by the order in which BLAS sums the same terms.  A piece is E0 v, v = X_c u, V
holds the v side by side, and the step bases E0 V are built only when read.
The boundary terms between the swept part and its complement form a
perturbation K, of norm below eps: B = V* diag(lam0) V is 0 between pieces that
share no coordinate, and K is B off its same-step blocks, built per connected
component.  ||[A, P_n]|| (e_n the rank after step n) is the top singular value
of the corner K[e_n:, :e_n], which holds the entries (i, j) with step(j) <= n <
step(i) (norms._segments takes every corner at once), ||K|| that of K.  B differs
from W*AW (W = E0 V) by W*RW, R = A - E0 diag(lam0) E0* being eigh's backward
error: the order of the rounding of W*AW itself."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import norms, ops
from .errors import NotHermitian, NumericalFailure, RankStall

_HERMITIAN_TOL = 1e-12
_DROP_TOL = 1e-10
_MIN_CELL = 1e-12
_EDGE_TOL = 1e-12


def _cell_index(lam: np.ndarray, M: float, width: float, count: int) -> np.ndarray:
    """Cells of eigenvalues, as whole floats (a count can pass 2^63); edges snap upward
    within 1e-12, last cell closed."""
    c = np.floor((np.clip(lam, -M, M) + M + _EDGE_TOL) / width)
    return np.clip(c, 0, count - 1)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*)/2, or a itself if a - a* is exactly 0 (they then differ only in signs of
    zero); raises NotHermitian if max|a - a*| > _HERMITIAN_TOL * max(1, max|a_ij|)."""
    if not (d := a - a.conj().T).any():
        return a
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    if float(np.max(np.abs(d), initial=0.0)) > _HERMITIAN_TOL * scale:
        raise NotHermitian("window is not Hermitian within 1e-12")
    return (a + a.conj().T) / 2


def _rows(lo: np.ndarray, hi: np.ndarray, N: int) -> np.ndarray:
    """Row windows holding the ranges lo:hi, all as wide as the widest and kept in [0, N)."""
    w = int(np.max(hi - lo, initial=0))
    return np.minimum(lo, N - w)[:, None] + np.arange(w)


def _cells(epsilon: float, M: float, step: int) -> tuple[float, int]:
    """Width and count of the uniform cells of [-M, M] at a step: eps/2^step wide, at least
    _MIN_CELL, then widened so that count cells span 2M exactly.  ldexp underflows toward 0
    past step 1023, where 2 ** step no longer converts to a float."""
    width = max(math.ldexp(epsilon, -step), _MIN_CELL)
    count = max(1, math.ceil(2 * M / width))
    return 2 * M / count, count


@dataclass(frozen=True)
class BergResult:
    """Outcome of a sweep: nested projections, by their increments, plus the perturbation
    they cost (P_n is the sum of Z Z* over the first n step bases Z)."""

    dim: int
    block_ranks: tuple[int, ...]               # rank added per step
    commutator_norms: tuple[float, ...]        # ||[A, P_n]||_u per step
    perturbation_norm: float                   # ||sum_n Q_n A P_n^perp + h.c.||_u
    basis: np.ndarray = field(compare=False, repr=False)    # E0: A = E0 diag(lam0) E0*
    coords: np.ndarray = field(compare=False, repr=False)   # V: the pieces over E0, in order

    @property
    def step_bases(self) -> tuple[np.ndarray, ...]:
        """Orthonormal basis of each increment: E0 V, split by block_ranks."""
        return tuple(np.split(self.basis @ self.coords, np.cumsum(self.block_ranks)[:-1], axis=1))


def random_hermitian(dim: int, seed: int, spectrum_radius: float = 1.0) -> np.ndarray:
    """Seeded complex Hermitian matrix rescaled so max |eigenvalue| = radius."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    ops.check_dense(dim * dim, f"a dense {dim} x {dim} random Hermitian matrix")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    top = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    if top > 0:
        h = h * (spectrum_radius / top)
    return h


def berg_sequence(A: ops.Window | np.ndarray, basis_order: Sequence[int],
                  epsilon: float) -> BergResult:
    """Sweep a Hermitian window into nested spectral-cell projections.

    basis_order is a permutation of 1..N; vectors are visited cyclically until
    the projections exhaust the window.  Raises NotHermitian for asymmetric
    input, RankStall if a full cycle adds no rank before exhaustion and
    NumericalFailure for entries too large for the spectral cells.
    """
    a = A.entries if isinstance(A, ops.Window) else np.asarray(A, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("expected a non-empty square window")
    N = a.shape[0]
    # 2M <= 2 N max|a_ij| and cells are at least _MIN_CELL wide: the cell count stays finite
    if not math.isfinite(2 * N * float(np.max(np.abs(a), initial=0.0)) / _MIN_CELL):
        raise NumericalFailure("window entries too large (or not finite) for the spectral cells")
    a = _hermitian_part(a)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    order = [int(t) for t in basis_order]
    if sorted(order) != list(range(1, N + 1)):
        raise ValueError("basis_order must be a permutation of 1..N")

    M = float(np.max(np.abs(np.linalg.eigvalsh(a)))) or 1.0

    lam0, E0 = np.linalg.eigh(a)        # A = E0 diag(lam0) E0*; the sweep works over E0
    del a                               # the norms read only lam0 and coordinates over E0
    X, V = np.eye(N, dtype=complex), np.zeros((N, N), dtype=complex)    # V: the pieces' v
    lo, hi = np.arange(N), np.arange(1, N + 1)      # X[:, j] is 0 outside rows lo[j]:hi[j]
    lam, live = lam0.copy(), np.arange(N)           # the complement is E0 X[:, live]
    ranks, stall, step = [], 0, 0
    while len(live):                    # each piece takes one column of the complement
        step += 1
        if stall >= N:
            raise RankStall(f"no rank progress over a full cycle at rank {N - len(live)} < {N}")
        omega = order[(step - 1) % N]
        R = _rows(lo[live], hi[live], N)            # rows that hold the live columns
        c = np.einsum("ij,ij->i", E0[omega - 1, R], X[R, live[:, None]]).conj()    # E* e_omega
        if np.linalg.norm(c) <= _DROP_TOL:
            stall += 1
            continue

        width, count = _cells(epsilon, M, step)
        cell = _cell_index(lam, M, width, count)
        # columns by cell, each cell in its old order: a view, written in place, if already so
        perm = slice(None) if np.all(cell[1:] >= cell[:-1]) else np.argsort(cell, kind="stable")
        cell, c = cell[perm], c[perm]
        first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        size = np.diff(np.r_[first, len(lam)])
        nrm = np.empty(len(first))
        for s in sorted(set(size.tolist())):        # np.linalg.norm's sums: one dot per part
            x = c[first[size == s][:, None] + np.arange(s)]
            nrm[size == s] = np.sqrt(x.real[:, None] @ x.real[..., None]
                                     + x.imag[:, None] @ x.imag[..., None])[:, 0, 0]
        gives = nrm > _DROP_TOL
        if not gives.any():
            stall += 1
            continue
        stall = 0
        lam, live = lam[perm], live[perm]
        slot = N - len(live) + np.cumsum(gives) - 1 # V column of each cell's piece
        keep = np.ones(len(lam), dtype=bool)
        for s in sorted(set(size[gives].tolist())): # the cells of one size, stacked
            pick = gives & (size == s)
            at = first[pick][:, None] + np.arange(s)
            cols = live[at]                         # X columns of each cell
            lo[cols], hi[cols] = lo[cols].min(1, keepdims=True), hi[cols].max(1, keepdims=True)
            R = _rows(lo[cols[:, 0]], hi[cols[:, 0]], N)[:, :, None]
            Xc = X[R, cols[:, None, :]]
            u = c[at] / nrm[pick][:, None]
            V[R[..., 0], slot[pick][:, None]] = (Xc @ u[..., None])[..., 0]
            keep[at[:, -1]] = False                 # a cell that gives a piece loses one column
            if s > 1:   # F spans u's complement in the cell, where A is F* diag(lam) F
                F = np.linalg.qr(u[:, :, None], mode="complete")[0][:, :, 1:]
                lam[at[:, :-1]], G = np.linalg.eigh(
                    F.conj().transpose(0, 2, 1) @ (lam[at][:, :, None] * F))
                X[R, cols[:, None, :-1]] = Xc @ (F @ G)
        ranks.append(int(gives.sum()))
        lam, live = lam[keep], live[keep]

    step_of, K = np.repeat(np.arange(len(ranks)), ranks), []
    # every row and column of the unitary V has a nonzero: the dense ids are its indices
    for R, P, Vc in norms._stacks(*np.nonzero(V), V[V != 0]):   # rows over E0, pieces, in order
        B = Vc.conj().transpose(0, 2, 1) @ (lam0[R][:, :, None] * Vc)
        B[step_of[P][:, :, None] == step_of[P][:, None, :]] = 0     # K: B off its step blocks
        t, i, j = np.nonzero(B)
        K.append((P[t, i], P[t, j], B[t, i, j]))
    i, j, v = (np.concatenate(x) for x in zip(*K))
    top = norms._segments(i, j, v, step_of[j], step_of[i], 0, len(ranks), False)[0]
    return BergResult(dim=N, block_ranks=tuple(ranks), commutator_norms=tuple(top.tolist()),
                      perturbation_norm=float(norms._triplet_svals(i, j, v).max(initial=0.0)),
                      basis=E0, coords=V)
