"""Block-diagonal + small decompositions along quasidiagonalizing subsequences.

Given an operator T whose commutators with a projection family shrink, pick
ranks n_1 < n_2 < ... with ||[T, P_{n_i}]||_u < eps / 2^{i+1}.  Cutting T at
those boundaries splits a window into B + K where B is exactly block diagonal
and K collects the boundary-crossing entries; the geometric budget makes
||K||_u < eps.  Keeping only some blocks of B yields coordinate projections
with small Foelner ratios on very sparse index sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import norms, ops
from .errors import InvalidSpec, NotQuasidiagonalAlongFamily, SelectorOutOfRange, WindowTooSmall

_OFFBLOCK_TOL = 1e-12


def select_subsequence(spec: ops.OperatorSpec, fam: ops.ProjectionFamily,
                       epsilon: float, search_limit: int = 10_000) -> list[int]:
    """Greedy admissible ranks: first n with ||[T, P_n]||_u < eps/2^(i+1).

    Position i counts from 1, so the thresholds eps/4, eps/8, ... sum to a
    ||K|| budget strictly below eps for the decomposition built on top.
    The search stops at the search limit or at a finite family's last
    member, whichever comes first.  Raises NotQuasidiagonalAlongFamily when
    no first rank is admissible there.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if search_limit < 1:
        raise ValueError("search_limit must be >= 1")
    if fam.size is not None:
        search_limit = min(search_limit, fam.size)
    picked: list[int] = []
    # one grid pass over n = 1..search_limit: n is picked when its norm is
    # below the threshold of the next position
    ns = range(1, search_limit + 1)
    for n, u in zip(ns, norms.u_sequence(spec, fam, ns)):
        if u < math.ldexp(epsilon, -(len(picked) + 2)):
            picked.append(n)
    if not picked:
        raise NotQuasidiagonalAlongFamily(
            f"no rank n <= {search_limit} has ||[T, P_n]||_u < {epsilon / 4}")
    return picked


@dataclass(frozen=True)
class Decomposition:
    """Result of a window split T|_N = B + K along boundary ranks.

    The split is held as ops._ENTRY arrays (1-based, sorted by row then
    column): B and K are the two masks of the window's entries.  `window`,
    `block_diagonal` and `perturbation` are their dense dim x dim views,
    built (within ops.DENSE_CELLS) on first read.
    """

    boundaries: tuple[int, ...]
    dim: int                                          # N
    sparse_window: np.ndarray = field(repr=False)          # T|_N
    sparse_block_diagonal: np.ndarray = field(repr=False)  # B
    sparse_perturbation: np.ndarray = field(repr=False)    # K
    epsilon: float
    k_norm: float                 # ||K||_u
    offblock_residual: float      # max |B_ij| over entries linking distinct blocks
    ok: bool                      # k_norm < epsilon and offblock_residual <= 1e-12

    @functools.cached_property
    def window(self) -> ops.Window:
        return ops.to_window(self.sparse_window, self.dim)

    @functools.cached_property
    def block_diagonal(self) -> ops.Window:
        return ops.to_window(self.sparse_block_diagonal, self.dim)

    @functools.cached_property
    def perturbation(self) -> ops.Window:
        return ops.to_window(self.sparse_perturbation, self.dim)


def halmos_decompose(spec: ops.OperatorSpec, boundaries: Sequence[int], N: int,
                     epsilon: float) -> Decomposition:
    """Split the N-window of T into block diagonal B plus boundary residue K.

    K = sum_i (Q_{i+1} T P_{b_i} + P_{b_i} T Q_{i+1}) where Q_{i+1} covers
    (b_i, b_{i+1}] and the final stretch (b_k, N] acts as the last block:
    K holds exactly the entries whose row and column lie in different
    blocks, and B the rest.  Boundaries at or beyond N are dropped (their
    blocks fall outside the window).  The split works on the sparse window,
    so its cost is linear in the nonzeros, and it always reconstructs
    exactly: B + K = T|_N.
    """
    bs = sorted({int(b) for b in boundaries})
    if not bs or bs[0] < 1:
        raise InvalidSpec("boundaries must be positive ranks")
    if N < 1:
        raise ValueError("N must be >= 1")
    bs = [b for b in bs if b < N]
    if not bs:
        raise WindowTooSmall(f"no boundary lies inside the window of dimension {N}")

    W = ops.sparse_window(spec, N)
    edges = np.asarray(bs)

    def crossing(e: np.ndarray) -> np.ndarray:
        """The mask of the entries of e that link distinct blocks."""
        # index k lies in block t when exactly t boundaries are < k
        return (np.searchsorted(edges, e["i"], side="left")
                != np.searchsorted(edges, e["j"], side="left"))

    cross = crossing(W)
    B, K = W[~cross], W[cross]
    # residual coupling between distinct blocks of B (vanishes by construction)
    linked = crossing(B)
    resid = float(np.max(np.abs(B["v"][linked]))) if linked.any() else 0.0

    sv = norms._triplet_svals(K)
    k_norm = float(sv[0]) if sv.size else 0.0
    return Decomposition(
        boundaries=tuple(bs),
        dim=N,
        sparse_window=W,
        sparse_block_diagonal=B,
        sparse_perturbation=K,
        epsilon=float(epsilon),
        k_norm=k_norm,
        offblock_residual=resid,
        ok=(k_norm < epsilon) and (resid <= _OFFBLOCK_TOL),
    )


def sparse_family(boundaries: Sequence[int], selector: Sequence[int] | None = None) -> ops.ProjectionFamily:
    """Blocks family R_n = union of the selected boundary blocks.

    Boundaries b_1 < b_2 < ... cut N into blocks (b_0, b_1], (b_1, b_2], ...
    with b_0 = 0 (a leading 0 may be included explicitly).  The selector picks
    a strictly increasing subsequence of block positions (1-based); omitted it
    keeps every block, which reproduces the contiguous family P_{b_n}.
    """
    bs = [int(b) for b in boundaries]
    if bs and bs[0] == 0:
        bs = bs[1:]
    if not bs or bs[0] < 1 or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
        raise InvalidSpec("boundaries must be strictly increasing positive ranks")
    edges = [0] + bs
    blocks = [(edges[t], edges[t + 1]) for t in range(len(bs))]
    if selector is None:
        chosen = blocks
    else:
        sel = [int(s) for s in selector]
        if not sel or any(s2 <= s1 for s1, s2 in zip(sel, sel[1:])):
            raise SelectorOutOfRange("selector must be strictly increasing")
        if sel[0] < 1 or sel[-1] > len(blocks):
            raise SelectorOutOfRange(
                f"selector touches block {max(sel)} but only {len(blocks)} exist")
        chosen = [blocks[s - 1] for s in sel]
    return ops.ProjectionFamily(kind="blocks", blocks=tuple(chosen))
