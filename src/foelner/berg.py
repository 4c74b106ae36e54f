"""Finite-window spectral sweeps producing block diagonalizing projections.

The sweep refines a uniform partition of the spectral interval: at step n it
projects the next cyclic basis vector onto the unexplored complement, splits
that vector along spectral cells of width eps/2^n, and adjoins one normalized
piece per occupied cell.  The boundary terms between the swept part and its
complement form a perturbation K whose operator norm is summed by the cell
widths, staying below eps.  Both are read off the swept basis W (the step
bases side by side, unitary once the sweep exhausts the window): with
B = W*AW and e_n the rank after step n, ||[A, P_n]|| is the largest singular
value of the block B[e_n:, :e_n], and K is the part of B off its diagonal
blocks, Hermitian, so ||K|| is its largest |eigenvalue|.

Also here: an exact encoding of a normal window into a single Hermitian
window whose spectral projections generate the same algebra, and the diagonal
recombination of per-interval sweeps into one increasing projection family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ops
from .errors import NonOrthogonalRanges, NotHermitian, NotNormal, NumericalFailure, RankStall

_HERMITIAN_TOL = 1e-12
_NORMAL_TOL = 1e-10
_DROP_TOL = 1e-10
_MIN_CELL = 1e-12
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralPartition:
    """Uniform half-open cells [a, b) covering [-M, M], the last cell closed."""

    bound: float
    level: int
    cells: tuple[tuple[float, float], ...]

    @property
    def width(self) -> float:
        return self.cells[0][1] - self.cells[0][0]


def dyadic_partition(M: float, n: int, epsilon: float) -> SpectralPartition:
    """Partition [-M, M] into ceil(2M * 2^n / eps) equal cells."""
    if M <= 0 or epsilon <= 0 or n < 0:
        raise ValueError("M and epsilon must be positive, n >= 0")
    count = math.ceil(2 * M * 2 ** n / epsilon)
    width = 2 * M / count
    cells = tuple((-M + t * width, -M + (t + 1) * width) for t in range(count))
    return SpectralPartition(bound=float(M), level=n, cells=cells)


def _cell_index(lam: float, M: float, width: float, count: int) -> int:
    """Cell of an eigenvalue; edges snap upward within 1e-12, last cell closed."""
    lam = min(max(lam, -M), M)
    c = int(math.floor((lam + M + _EDGE_TOL) / width))
    return min(max(c, 0), count - 1)


@dataclass(frozen=True)
class BergResult:
    """Outcome of a sweep: nested projections plus the perturbation they cost."""

    dim: int
    block_ranks: tuple[int, ...]               # rank added per step
    commutator_norms: tuple[float, ...]        # ||[A, P_n]||_u per step
    perturbation_norm: float                   # ||sum_n Q_n A P_n^perp + h.c.||_u
    step_bases: tuple[np.ndarray, ...]         # orthonormal basis of each increment

    @functools.cached_property
    def projections(self) -> tuple[ops.Window, ...]:
        """P_1 <= P_2 <= ... (last = identity), dense, built from step_bases."""
        out = []
        P = np.zeros((self.dim, self.dim), dtype=complex)
        for Z in self.step_bases:
            P = P + Z @ Z.conj().T
            P = (P + P.conj().T) / 2
            out.append(ops.Window(self.dim, P))
        return tuple(out)


def _as_array(A: ops.Window | np.ndarray) -> np.ndarray:
    a = A.entries if isinstance(A, ops.Window) else np.asarray(A, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square window")
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

    eigs = np.linalg.eigvalsh(a)
    M = float(np.max(np.abs(eigs))) if N else 0.0
    if M == 0.0:
        M = 1.0

    U_perp = None                       # the identity until the first increment
    step_bases: list[np.ndarray] = []
    rank = 0
    stall = 0
    step = 0
    while rank < N:
        step += 1
        if stall >= N:
            raise RankStall(f"no rank progress over a full cycle at rank {rank} < {N}")
        omega = order[(step - 1) % N]
        if U_perp is None:
            w = np.zeros(N, dtype=complex)
            w[omega - 1] = 1
            a_red = a
        else:
            w = U_perp[omega - 1].conj()
            if np.linalg.norm(w) <= _DROP_TOL:
                stall += 1
                continue
            a_red = U_perp.conj().T @ a @ U_perp
            a_red = (a_red + a_red.conj().T) / 2
        lam, V = np.linalg.eigh(a_red)
        r = len(lam)

        width = max(epsilon / 2 ** step, _MIN_CELL)
        count = max(1, math.ceil(2 * M / width))
        width = 2 * M / count
        cells: dict[int, list[int]] = {}
        for t in range(r):
            cells.setdefault(_cell_index(float(lam[t]), M, width, count), []).append(t)

        pieces = []
        for c in sorted(cells):
            Vc = V[:, cells[c]]
            y = Vc @ (Vc.conj().T @ w)
            nrm = np.linalg.norm(y)
            if nrm > _DROP_TOL:
                pieces.append(y / nrm)
        if not pieces:
            stall += 1
            continue
        stall = 0
        Y = np.column_stack(pieces)
        q = Y.shape[1]
        step_bases.append(Y if U_perp is None else U_perp @ Y)   # lifted to the window
        rank += q

        # shrink the unexplored complement by the new directions
        full_u, _, _ = np.linalg.svd(Y, full_matrices=True)
        U_perp = full_u[:, q:] if U_perp is None else U_perp @ full_u[:, q:]

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


# ---------------------------------------------------------------------------
# normal windows -> one Hermitian generator
# ---------------------------------------------------------------------------

def normal_to_selfadjoint(Nw: ops.Window | np.ndarray, epsilon: float,
                          max_levels: int = 60) -> tuple[ops.Window, list[ops.Window]]:
    """Encode a normal window into a Hermitian one with the same invariant cells.

    Square cells of diameter eps/2^n tile the plane per level n; each occupied
    cell contributes its spectral projection E_m, and levels stop once every
    cell isolates a single eigenvalue (1e-12 resolution).  The output is
    A = sum_m 3^{-m} (2 E_m - 1), whose spectral projections separate exactly
    the same cells, plus the enumerated E_m list.
    """
    a = _as_array(Nw)
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a @ a.conj().T - a.conj().T @ a))) > _NORMAL_TOL * scale:
        raise NotNormal("window does not commute with its adjoint within 1e-10")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    import scipy.linalg             # only this function needs it; it is slow to import

    T, Z = scipy.linalg.schur(a, output="complex")
    lam = np.diag(T)
    n_dim = a.shape[0]

    enumerated: list[np.ndarray] = []
    for level in range(1, max_levels + 1):
        side = (epsilon / 2 ** level) / math.sqrt(2)
        groups: dict[tuple[int, int], list[int]] = {}
        for t in range(n_dim):
            key = (int(math.floor((lam[t].real + _EDGE_TOL) / side)),
                   int(math.floor((lam[t].imag + _EDGE_TOL) / side)))
            groups.setdefault(key, []).append(t)
        separated = True
        for key in sorted(groups):
            idx = groups[key]
            Zc = Z[:, idx]
            enumerated.append(Zc @ Zc.conj().T)
            vals = lam[idx]
            if np.max(np.abs(vals - vals[0])) > 1e-12:
                separated = False
        if separated:
            break

    out = -np.eye(n_dim, dtype=complex) * sum(3.0 ** -(m + 1) for m in range(len(enumerated)))
    for m, E in enumerate(enumerated):
        out = out + 3.0 ** -(m + 1) * 2 * E
    out = (out + out.conj().T) / 2
    return ops.Window(n_dim, out), [ops.Window(n_dim, E) for E in enumerated]


# ---------------------------------------------------------------------------
# combining per-interval sweeps
# ---------------------------------------------------------------------------

def spectral_interval_bases(A: ops.Window | np.ndarray,
                            edges: Sequence[float]) -> list[np.ndarray]:
    """Orthonormal eigenbases for eigenvalues in [e_t, e_{t+1}) (last closed)."""
    lam, V = np.linalg.eigh(ops.hermitian_part(_as_array(A), _HERMITIAN_TOL, NotHermitian,
                                               "window is not Hermitian within 1e-12"))
    es = [float(e) for e in edges]
    if len(es) < 2 or any(b <= a_ for a_, b in zip(es, es[1:])):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    out = []
    for t in range(len(es) - 1):
        hi_closed = t == len(es) - 2
        mask = (lam >= es[t]) & ((lam <= es[t + 1]) if hi_closed else (lam < es[t + 1]))
        out.append(V[:, mask])
    return out


def lift_sweep(A: ops.Window | np.ndarray, V: np.ndarray, basis_order: Sequence[int],
               epsilon: float) -> BergResult:
    """Run a sweep on the compression V*AV and express it in window coordinates."""
    a = _as_array(A)
    N = a.shape[0]
    comp = V.conj().T @ a @ V
    res = berg_sequence(comp, basis_order, epsilon)
    return BergResult(
        dim=N,
        block_ranks=res.block_ranks,
        commutator_norms=res.commutator_norms,
        perturbation_norm=res.perturbation_norm,
        step_bases=tuple(V @ Z for Z in res.step_bases),
    )


def unbounded_combine(per_interval: Sequence[BergResult],
                      schedule: str = "diagonal") -> ops.ProjectionFamily:
    """Merge per-interval sweeps into one increasing family on the window.

    With the diagonal schedule, the k-th combined increment is
    E_k = sum over interval n and step m with n + m = k + 1 of the (n, m)
    increment, so every interval is eventually exhausted even when there are
    many.  Interval ranges must be mutually orthogonal.
    """
    if schedule != "diagonal":
        raise ValueError("only the diagonal schedule is implemented")
    if not per_interval:
        raise ValueError("need at least one interval result")
    dims = {res.dim for res in per_interval}
    if len(dims) != 1:
        raise ValueError("interval results live in different window dimensions")
    ranges = [W @ W.conj().T for W in (np.hstack(res.step_bases) for res in per_interval)]
    for s in range(len(ranges)):
        for t in range(s + 1, len(ranges)):
            if float(np.max(np.abs(ranges[s] @ ranges[t]))) > _NORMAL_TOL:
                raise NonOrthogonalRanges(f"interval ranges {s + 1} and {t + 1} overlap")

    deepest = max(n + len(res.step_bases) for n, res in enumerate(per_interval, start=1))
    bases: list[np.ndarray] = []
    acc: list[np.ndarray] = []
    for k in range(1, deepest):
        for n, res in enumerate(per_interval, start=1):
            m = k + 1 - n
            if 1 <= m <= len(res.step_bases):
                acc.append(res.step_bases[m - 1])
        if acc:
            bases.append(np.hstack(acc))
            acc = [bases[-1]]
    if not bases:
        raise ValueError("interval results contain no increments")
    return ops.ProjectionFamily.explicit(bases)
