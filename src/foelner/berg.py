"""Finite-window spectral sweeps producing block diagonalizing projections.

The sweep refines a uniform partition of the spectral interval: at step n it
projects the next cyclic basis vector onto the unexplored complement, splits
that vector along spectral cells of width eps/2^n, and adjoins one normalized
piece per occupied cell.  The complement is carried as E, an orthonormal
eigenbasis (N-vectors) of A compressed to it, so a cell's part of e_omega is
E_c E_c* e_omega.  Each piece lies in its own cell's eigenspace, so removing
it leaves the compression block-diagonal over cells: a cell with a piece
re-diagonalizes A on the piece's complement within the cell (a small eigh),
and every other cell keeps its columns.  Sorted by cell, the cells that give
a piece are grouped by size, and each size takes one stacked QR, eigh and
product (a one-column cell gives its piece and drops out).  The boundary
terms between the swept part and its complement form a perturbation K whose
operator norm is summed by the cell widths, staying below eps.  Both norms are
read off coordinates over the first eigh's basis, A = E0 diag(lam0) E0*: E is
carried as E0 X, and X mixes only the columns of one cell, so it is exactly
block-sparse and each piece is E0 v with v sparse.  B = V* diag(lam0) V (the v
side by side) is 0 between pieces that share no coordinate, and K is B without
its same-step blocks, built per connected component.  With e_n the rank after
step n, ||[A, P_n]|| is the top singular value of K[e_n:, :e_n] and ||K|| that
of K, from one small SVD per component (norms._triplet_svals).  B differs from
W*AW (W = E0 V, the step bases side by side) by W*RW, with R = A - E0 diag(lam0)
E0* eigh's backward error: the order of the rounding of W*AW itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    step_bases: tuple[np.ndarray, ...]         # orthonormal basis of each increment


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
    a = ops.hermitian_part(a, _HERMITIAN_TOL, NotHermitian, "window is not Hermitian within 1e-12")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    order = [int(t) for t in basis_order]
    if sorted(order) != list(range(1, N + 1)):
        raise ValueError("basis_order must be a permutation of 1..N")

    M = float(np.max(np.abs(np.linalg.eigvalsh(a)))) or 1.0

    lam0, E = np.linalg.eigh(a)         # A compressed to the unexplored complement, diagonalized
    del a                               # the norms read only lam0 and coordinates over E0
    lam, X = lam0.copy(), np.eye(N, dtype=complex)      # E = E0 X, X mixing within cells
    step_bases, coords = [], []         # each step's pieces, and their v: pieces = E0 v
    rank = stall = step = 0
    while rank < N:
        step += 1
        if stall >= N:
            raise RankStall(f"no rank progress over a full cycle at rank {rank} < {N}")
        omega = order[(step - 1) % N]
        c = E[omega - 1].conj()         # E* e_omega: the complement's part of e_omega
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
        E, lam, X = E[:, perm], lam[perm], X[:, perm]
        pieces = np.empty((N, int(gives.sum())), dtype=complex)
        v = np.empty_like(pieces)
        slot = np.cumsum(gives) - 1                 # piece column of each cell that gives one
        keep = np.ones(len(lam), dtype=bool)
        for s in sorted(set(size[gives].tolist())): # the cells of one size, stacked
            pick = gives & (size == s)
            cols = first[pick][:, None] + np.arange(s)
            Ec, Xc = E[:, cols].transpose(1, 0, 2), X[:, cols].transpose(1, 0, 2)
            u = c[cols] / nrm[pick][:, None]
            pieces[:, slot[pick]], v[:, slot[pick]] = ((Y @ u[..., None])[..., 0].T
                                                       for Y in (Ec, Xc))
            keep[cols[:, -1]] = False               # a cell that gives a piece loses one column
            # F spans u's complement in the cell (none in one column), where A is F* diag(lam) F
            F = np.linalg.qr(u[:, :, None], mode="complete")[0][:, :, 1:]
            lam[cols[:, :-1]], G = np.linalg.eigh(
                F.conj().transpose(0, 2, 1) @ (lam[cols][:, :, None] * F))
            E[:, cols[:, :-1]], X[:, cols[:, :-1]] = ((Y @ (F @ G)).transpose(1, 0, 2)
                                                      for Y in (Ec, Xc))
        step_bases.append(pieces)
        coords.append(v)
        rank += pieces.shape[1]
        E, lam, X = E[:, keep], lam[keep], X[:, keep]

    ranks = tuple(Z.shape[1] for Z in step_bases)
    V, step_of = np.hstack(coords), np.repeat(np.arange(len(ranks)), ranks)
    # every row and column of the unitary V has a nonzero: the dense ids are its indices
    _, _, rc, pc, _ = norms._components(*np.nonzero(V))
    rn, pn, K = np.bincount(rc), np.bincount(pc), []       # rows and pieces per component
    ro, po = np.argsort(rc, kind="stable"), np.argsort(pc, kind="stable")
    for r, p in sorted(set(zip(rn.tolist(), pn.tolist()))):     # components of one shape, stacked
        at = np.flatnonzero((rn == r) & (pn == p))
        R = ro[(np.cumsum(rn) - rn)[at][:, None] + np.arange(r)]    # rows over E0, in order
        P = po[(np.cumsum(pn) - pn)[at][:, None] + np.arange(p)]    # pieces, in order
        Vc = V[R[:, :, None], P[:, None, :]]
        B = Vc.conj().transpose(0, 2, 1) @ (lam0[R][:, :, None] * Vc)
        B[step_of[P][:, :, None] == step_of[P][:, None, :]] = 0     # K: B off its step blocks
        t, i, j = np.nonzero(B)
        K.append(ops._entries(P[t, i], P[t, j], B[t, i, j]))
    K = np.concatenate(K)
    top = [float(np.max(norms._triplet_svals(k), initial=0.0))
           for k in [K] + [K[(K["i"] >= e) & (K["j"] < e)] for e in np.cumsum(ranks)]]
    return BergResult(dim=N, block_ranks=ranks, commutator_norms=tuple(top[1:]),
                      perturbation_norm=top[0], step_bases=tuple(step_bases))
