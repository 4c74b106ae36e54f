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
operator norm is summed by the cell widths, staying below eps.  Both are read
off the swept basis W (the step bases side by side, unitary once the sweep
exhausts the window): with B = W*AW and e_n the rank after step n,
||[A, P_n]|| is the largest singular value of the block B[e_n:, :e_n], and K
is the part of B off its diagonal blocks, Hermitian, so ||K|| is its largest
|eigenvalue|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops
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


def _as_array(A: ops.Window | np.ndarray) -> np.ndarray:
    a = A.entries if isinstance(A, ops.Window) else np.asarray(A, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError("expected a non-empty square window")
    return a


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
    a = _as_array(A)
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

    lam, E = np.linalg.eigh(a)          # A compressed to the unexplored complement, diagonalized
    step_bases: list[np.ndarray] = []
    rank = 0
    stall = 0
    step = 0
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
        perm = np.argsort(cell, kind="stable")      # columns by cell, each cell in its old order
        cell, c = cell[perm], c[perm]
        first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        size = np.diff(np.r_[first, len(lam)])
        nrm = np.empty(len(first))
        for s in np.unique(size):                   # np.linalg.norm's sums: one dot per part
            x = c[first[size == s][:, None] + np.arange(s)]
            nrm[size == s] = np.sqrt(x.real[:, None] @ x.real[..., None]
                                     + x.imag[:, None] @ x.imag[..., None])[:, 0, 0]
        gives = nrm > _DROP_TOL
        if not gives.any():
            stall += 1
            continue
        stall = 0
        E, lam = E[:, perm], lam[perm]
        pieces = np.empty((N, int(gives.sum())), dtype=complex)
        slot = np.cumsum(gives) - 1                 # piece column of each cell that gives one
        keep = np.ones(len(lam), dtype=bool)
        for s in np.unique(size[gives]):            # the cells of one size, stacked
            pick = gives & (size == s)
            cols = first[pick][:, None] + np.arange(s)
            Ec = E[:, cols].transpose(1, 0, 2)
            u = c[cols] / nrm[pick][:, None]
            pieces[:, slot[pick]] = (Ec @ u[:, :, None])[:, :, 0].T
            keep[cols[:, -1]] = False               # a cell that gives a piece loses one column
            # F spans u's complement in the cell (none in one column), where A is F* diag(lam) F
            F = np.linalg.qr(u[:, :, None], mode="complete")[0][:, :, 1:]
            lam[cols[:, :-1]], G = np.linalg.eigh(
                F.conj().transpose(0, 2, 1) @ (lam[cols][:, :, None] * F))
            E[:, cols[:, :-1]] = (Ec @ (F @ G)).transpose(1, 0, 2)
        step_bases.append(pieces)
        rank += pieces.shape[1]
        E, lam = E[:, keep], lam[keep]

    ranks = tuple(Z.shape[1] for Z in step_bases)
    ends = np.cumsum(ranks)
    W = np.hstack(step_bases)
    K = W.conj().T @ a @ W              # B = W*AW, then its diagonal blocks zeroed
    for s, e in zip(ends - ranks, ends):
        K[s:e, s:e] = 0
    # [A, P_n] is the off-diagonal block pair K[e_n:, :e_n] and its adjoint
    comm_norms = tuple(float(np.linalg.svd(K[e:, :e], compute_uv=False)[0]) if e < N else 0.0
                       for e in ends)
    return BergResult(
        dim=N,
        block_ranks=ranks,
        commutator_norms=comm_norms,
        perturbation_norm=float(np.max(np.abs(np.linalg.eigvalsh(K)))),
        step_bases=tuple(step_bases),
    )

