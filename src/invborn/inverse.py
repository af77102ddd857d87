"""Inverse Born series: linearized operator, truncated-SVD inverse, recursion.

The linearized map takes a volume field to data through the order-1 series
term; its truncated-SVD pseudoinverse (computed in the quadrature-weighted
inner products, so singular values are discrete weighted-L2 operator norms,
and factored through the V x V Gram matrix, see ``linearized_operator``)
drives the order-by-order recursion

    eta_1 = pinv(phi),
    eta_j = -pinv( sum_{m=2..j} sum_{i_1+..+i_m=j} term(eta_{i_1}, .., eta_{i_m}) ),

which reproduces the tensor-composition coefficients of the inverse series
exactly whenever pinv K pinv = pinv (true for truncated SVD).  Every series
term carries the coefficient -alpha^m, so the 2^(j-1) - 1 compositions of
order j need not be enumerated: they sum through a linear recurrence over
(voxel x detector) chain matrices that costs one volume-kernel product per
order.  Where sources and detectors coincide, the orders past the middle are
split into chains already formed, so order N costs ceil((N - 1) / 2) of
those products (see ``inverse_series``), and the pseudoinverse keeps one row
of U_r per distinct pair (``_pair_rows``).  No tensor is ever formed and the
order is not capped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bounds
from .forward import BornSeries, _check_factor, _finite
from .forward import born_term  # noqa: F401  bench/run.py traces invborn.inverse.born_term
from .greens import _ROW_BLOCK, BoundaryKernels, OperatorSet
from .grid import _lp_norms, data_norm, field_norm

__all__ = [
    "LinearizedOperator",
    "RegularizedInverse",
    "linearized_operator",
    "regularize",
    "inverse_series",
    "diagnostics",
    "stability_probe",
]


@dataclass(frozen=True)
class LinearizedOperator:
    """Order-1 operator, held as its leading weighted right singular vectors.

    Rows are (source, detector) pairs in row-major order, columns are voxels;
    volume weights are folded in so that ``matrix @ eta`` equals the order-1
    series term.  ``svals`` and ``vh`` are the singular values (descending)
    and right singular vectors of the weight-scaled matrix
    A = row_scale * K / col_scale, so singular values are operator norms
    between the weighted L2 spaces.  They come from the V x V Gram matrix
    A^H A rather than from an SVD of the (S*D) x V matrix: the columns of K
    are Khatri-Rao products of source and detector kernel columns, so A^H A
    is the Hadamard product of the source and detector Gram matrices.
    ``_rows``, computed once per geometry, maps each pair to one of P rows
    of U_r (``_pair_rows``), so K's rank is at most min(P, V).  ``svals``
    holds the values the factorization resolved on the route
    ``_krylov_basis_limit`` picked; ``complete`` tells whether that is all
    min(P, V).  K is not stored: ``regularize`` applies it to the retained
    right singular vectors a detector block at a time, and ``matrix`` forms
    it on first access (for tests and the selftest).  Diffuse kernels are
    real, so in diffuse mode ``matrix``, ``svals`` and ``vh`` are real arrays.
    """

    ops: BoundaryKernels
    svals: np.ndarray
    vh: np.ndarray
    row_scale: float
    col_scale: np.ndarray
    _rows: np.ndarray = field(repr=False)

    @property
    def n_pairs(self) -> int:
        return self.ops.n_src * self.ops.n_det

    @property
    def n_nodes(self) -> int:
        return self.ops.n_nodes

    @property
    def complete(self) -> bool:
        """Whether ``svals`` holds the whole spectrum, min(P, V) values."""
        return self.svals.size == _rank_bound(self._rows, self.n_nodes)

    @functools.cached_property
    def energy(self) -> float:
        """||A||_F^2 = sum_i sigma_i^2, the trace of the Gram matrix.

        With c = alpha * row_scale it is c^2 * sum_j w_j ||g_sv[:, j]||^2 ||g_vd[j]||^2,
        so it needs no singular value.
        """
        ops = self.ops
        src = (np.abs(ops.g_sv) ** 2).sum(axis=0)
        det = (np.abs(ops.g_vd) ** 2).sum(axis=1)
        return float((ops.mode.alpha * self.row_scale) ** 2 * np.dot(self.col_scale**2 * src, det))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense (S*D) x V order-1 matrix K."""
        ops = self.ops
        return _k_rows(ops, ops.g_sv, ops.g_vd.T).reshape(self.n_pairs, self.n_nodes)


def _k_rows(ops: BoundaryKernels, g_sv: np.ndarray, g_dv: np.ndarray) -> np.ndarray:
    """K's rows for the sources of g_sv and the detectors of g_dv (rows of g_vd^T), as (s, d, V)."""
    # entry for pair (s, d) and voxel j: -alpha * g_sv[s, j] * g_vd[j, d] * w_j
    rows = g_sv[:, None, :] * g_dv[None, :, :]
    rows *= -ops.mode.alpha
    rows *= ops.grid.weights
    return rows


# Smallest sigma / sigma_max that the block Lanczos path resolves.  Its Ritz
# pairs are accepted at a residual of V * eps * sigma_max^2, which is coarse
# relative to sigma^2 far below sigma_max: against a dense SVD (V=912, 48 x 48
# pairs) pinv(phi) deviates by 1.2e-11 at tau = 1e-3 (dense eigh 3.4e-11).
# With the floor at 1e-4, the pinv matrix at tau = 1e-4 (48 x 48 pairs) deviated
# from a dense SVD's by 1.7e-9 (diffuse V = 912, past the 1e-9 the tests ask of
# block Lanczos in diffuse mode), 2.5e-9 (scalar V = 912) and 7.9e-10 (diffuse
# V = 3112), where dense eigh deviated by 3.0e-9, 9.1e-9 and 4.9e-9; with it at
# 1e-5, by 1.6e-7 to 2.6e-7 (eigh up to 8.3e-7).  A truncation reaching below
# the floor therefore takes eigh.
KRYLOV_FLOOR = 1e-3


class _KrylovBlock(NamedTuple):
    """Block Lanczos settings for one range of grid sizes (see _KRYLOV_BLOCKS)."""

    size: int  # vectors per block
    gate: float  # Ritz gate, in residual tolerances V * eps * theta_0


# Block Lanczos settings by grid size, smallest V first, from a sweep over both
# modes, 24 x 24 and 48 x 48 pairs and V = 280 to 912 (k = 1, a = 1).  The
# block: the wanted sets (91 to 110 values diffuse, 56 to 59 scalar) plus what
# a pass needs beyond them (up to 192 and 240 vectors in all) fit V / 2 from
# V = 384 (b = 8) and 480 (b = 16).  The gate: a Rayleigh-Ritz step is taken
# once the Frobenius norm of the block coupling r_2 r_1 of the Lanczos relation
# falls to this many residual tolerances.  At the block where a step accepted
# it measured 6.4e4 to 5.2e5 (b = 8) and 9.5e3 to 1e5 (b = 16), and one block
# earlier two to ten times that.  A step taken too early costs an eigh of the
# projected matrix; one taken a block late costs one block more.
_KRYLOV_BLOCKS = (
    (0, _KrylovBlock(8, 4e5)),
    (480, _KrylovBlock(16, 1e5)),
)
_KRYLOV_MAX_BASIS = 1008  # vectors: 58 MB at V = 7208
# Grids below this many nodes take eigh, for a real (diffuse) and a complex
# Gram matrix.  A pass accepted once its basis held the count of values above
# the floor plus 62 vectors or more (b = 8), so below V = 128, where V / 2
# holds at most seven blocks of 8, no pass can accept.  A real Gram matrix's
# eigh costs about a quarter of a complex one (V = 280: 6.1-6.7 ms against
# 22-24 ms), and its wanted sets are larger (93 to 106 values at 24 x 24 and
# 48 x 48 pairs against 58 and 59), so below V = 384 a pass runs to its limit
# and then takes eigh, or accepts no sooner than eigh ends: 11.4-14.2 ms at
# V = 280 and 24-27 ms at V = 360 against 7.6-8.5 and 15.3-16.2 ms for eigh
# (12.7-13.4 against 12.3-12.8 ms with 24 x 24 pairs, where it accepts).  At
# V = 432 it accepts in 15.0-15.2 ms against 18.6-19.3 ms.
_KRYLOV_MIN_NODES = (384, 128)
# A Ritz pair set is accepted once the Davis-Kahan bound ||R|| / delta on the
# sine of the angle between its subspace and the exact one is at most this,
# for a real and a complex Gram matrix, where R is the residual of the Ritz
# vectors above the floor and delta the Ritz gap at the floor.  Against a
# dense SVD, pinv deviated by at most 0.06 times a bound above 1e-9, and by
# 1.9e-9 (complex) and 8e-11 (real) at most (V = 280 to 912, both modes, 24 x
# 24 and 48 x 48 pairs, rotated detectors), so the targets hold pinv to about
# 1e-9 (real) and 1e-8 (complex), the accuracy the tests ask of block Lanczos.
# Residuals alone accepted detectors turned 0.15 rad (V = 912, 24 x 24 pairs,
# diffuse) at a bound of 6.3e-7, where pinv deviated 9.7e-9; one block more
# gave 9.7e-10 and 1.7e-11.
_KRYLOV_SUBSPACE_TOL = (1e-8, 1e-7)


def _krylov_block(n_nodes: int) -> _KrylovBlock:
    """The block Lanczos settings for a grid of ``n_nodes`` nodes."""
    return next(block for least, block in reversed(_KRYLOV_BLOCKS) if n_nodes >= least)


def _krylov_basis_limit(n_nodes: int, tau: float | None = None, real: bool = False) -> int:
    """The route rule: the largest Krylov basis the factorization builds, or 0 for dense eigh.

    The basis holds whole blocks of ``_krylov_block(V).size`` vectors, at most
    min(V / 2, _KRYLOV_MAX_BASIS).  A grid below _KRYLOV_MIN_NODES for the Gram
    matrix's arithmetic (384 nodes real, as in diffuse mode, and 128 complex)
    takes eigh, and so does a cutoff ``tau`` below KRYLOV_FLOOR, which reaches
    past what block Lanczos resolves.
    """
    if (tau is not None and tau < KRYLOV_FLOOR) or n_nodes < _KRYLOV_MIN_NODES[not real]:
        return 0
    b = _krylov_block(n_nodes).size
    return min(n_nodes // 2, _KRYLOV_MAX_BASIS) // b * b


def peak_entries(
    n_nodes: int,
    n_src: int,
    n_det: int,
    support: int,
    order: int,
    tau: float | None,
    real: bool = False,
) -> int:
    """Entries ``invborn invert`` holds at its peak: its memory estimate.

    The boundary kernels, (S + D) V, and the larger of two stages.  The
    factorization on the route of ``_krylov_basis_limit`` for a real
    (diffuse) or complex Gram matrix (a rank rule counts eigh, which
    ``regularize`` may take): block Lanczos with m basis vectors, m the
    rule's limit, holds the Gram matrix, the basis, the Ritz vectors, their
    images and residuals, and the projected matrix with eigh's copy,
    workspace and vectors; dense eigh the Gram matrix, eigh's copy, its 2 V^2 workspace and
    the eigenvectors.  The series: the volume kernel's V^2 / 8 parity blocks
    (a ball grid's ``mirror.MirrorVolume``), the kept rows of vh with the
    pseudoinverse factors (U_r at most r x S*D), the data solve on the
    ``support`` nodes (the support's kernel, the solved matrix and LAPACK's
    copy), and what ``inverse_series`` allocates (``_series_entries``).
    With no kernel yet to tell the distinct pairs, min(S*D, V) stands for
    K's rank bound.  Known gap: the block Lanczos
    route leaves out the dense eigh that ``_factor`` falls back to where the
    basis runs out or breaks down; at V = 12,160 (``invert --h 0.07``,
    m = 1008) it counts 1.51 GiB, where the dense route is counted at 5.52 GiB.
    """
    v, pairs = n_nodes, n_src * n_det
    if tau is not None and (m := _krylov_basis_limit(v, tau, real)):
        factor, rows = v * v + 4 * v * m + 5 * m * m, m
    else:
        factor, rows = 5 * v * v, min(pairs, v)
    series = v * v // 8 + rows * (3 * v + pairs) + 3 * support**2
    series += _series_entries(v, n_src, n_det, order)
    return (n_src + n_det) * v + max(factor, series)


def _series_entries(n_nodes: int, n_src: int, n_det: int, order: int) -> int:
    """A bound on the entries ``inverse_series`` allocates, beyond its inputs.

    Per order a V x D matrix, an S x D one and three fields, and five V x D
    temporaries.  With K the chains formed (N // 2 or N - 1), the series
    holds at most N - 1 V x D chains and, besides them, six V x D arrays:
    while the chains are formed the last Y and Z, the next Y with its
    scaled kernel and the volume product's two buffers (``workspace``),
    and after them the last Y and Z, Lam_j, a head and its scaled kernel;
    N - K - 1 S x D accumulators, a wide product of at most N - K - 2 S x D
    blocks and one order's data with its fold, 2 (N - K) - 1 <= N in all;
    and the terms with their stacked coefficients.
    """
    return order * (n_nodes * (n_det + 3) + n_src * n_det) + 5 * n_nodes * n_det


def _reciprocal(ops: BoundaryKernels) -> bool:
    """Whether g_vd equals g_sv^T entry for entry, so pairs (s, d) and (d, s) carry equal data.

    Sources and detectors at the same points give this bit for bit, since the
    Green's function is reciprocal: build_sphere_boundary with n_src == n_det.
    """
    return np.array_equal(ops.g_vd, ops.g_sv.T)


def _pair_rows(ops: BoundaryKernels) -> np.ndarray:
    """The pair map: the row of U_r for each (source, detector) pair, an S x D array.

    On reciprocal kernels (``_reciprocal``, tested here alone) (s, d) and (d, s)
    share row max * (max + 1) / 2 + min, P = S(S+1)/2 rows in all; elsewhere
    (s, d) has row d * S + s, P = S * D.  Rows are ordered by d, then s.
    """
    s, d = np.ogrid[: ops.n_src, : ops.n_det]
    if _reciprocal(ops):
        hi, lo = np.maximum(s, d), np.minimum(s, d)
        return hi * (hi + 1) // 2 + lo
    return d * ops.n_src + s


def _rank_bound(rows: np.ndarray, n_nodes: int) -> int:
    """K's rank bound min(P, V), P the rows of U_r in the pair map ``rows``."""
    return min(int(rows.max()) + 1, n_nodes)


def _folded(rows: np.ndarray) -> bool:
    """Whether the pair map shares rows of U_r: on reciprocal kernels of two or more pairs."""
    return int(rows.max()) + 1 < rows.size


def _weighted_gram(
    ops: BoundaryKernels, rows: np.ndarray, row_scale: float, col_scale: np.ndarray
) -> np.ndarray:
    """A^H A = c^2 * (G_sv^H G_sv) o (conj(G_vd) G_vd^T) o (col_scale col_scale^T).

    c = -alpha * row_scale and ``o`` is the entrywise product.  The detector
    Gram matrix and the weights are multiplied in by row blocks, so the
    result is the only V x V array formed.  Where the pair map ``rows``
    folds (``_folded``) the detector Gram matrix is the source one, which is
    then squared entrywise instead of formed again; the result is the same
    bit for bit.
    """
    mode = ops.mode
    try:
        scale = (mode.alpha * row_scale) ** 2
    except OverflowError:
        raise ValueError(
            f"the order-2 Gram coefficient (alpha*row_scale)^2 of the linearized operator"
            f" overflows at k={mode.k:g}"
        ) from None
    gram = ops.g_sv.conj().T @ ops.g_sv
    reciprocal = _folded(rows)
    for start in range(0, ops.n_nodes, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        gram[block] *= gram[block] if reciprocal else ops.g_vd[block].conj() @ ops.g_vd.T
        gram[block] *= scale * np.outer(col_scale[block], col_scale)
    return gram


def _cholesky_r(w: np.ndarray) -> np.ndarray:
    """Upper triangular R with w^H w = R^H R, so w R^-1 has orthonormal columns.

    Raises LinAlgError where w^H w is not numerically positive definite.
    """
    return np.linalg.cholesky(w.conj().T @ w).conj().T


def _orthonormal_r(w: np.ndarray) -> np.ndarray:
    """R of a QR factorization of w: Cholesky-QR, or Householder where that breaks down.

    The Cholesky factor of the b x b Gram matrix costs one V b^2 product;
    a block whose columns are numerically dependent (a Krylov space that
    exhausts the range of a low-rank Gram matrix) takes Householder R.
    """
    try:
        return _cholesky_r(w)
    except np.linalg.LinAlgError:
        return np.linalg.qr(w, mode="r")


def _leading_eigenpairs(gram: np.ndarray, n: int, limit: int):
    """Eigenpairs of the Gram matrix down to KRYLOV_FLOOR^2 * theta_0 and one past it.

    Block Lanczos with full reorthogonalization from a fixed-seed Gaussian
    start block, in blocks of ``_krylov_block(V)`` (the rule that sets
    ``limit``).  The start block and each new one are orthonormalized by a
    first pass whose R is Cholesky-QR (Householder where the block's Gram
    matrix is not positive definite); each new block is then orthogonalized
    against the basis once more, with a Cholesky pass.  The coefficients of
    the first pass are the new columns of the projected matrix T.  With the
    block coupling B = r_2 r_1, gram Q = Q T + block B e_last^T, so a Ritz
    pair's residual is ||B y_last||.  A Rayleigh-Ritz step is taken only once
    ||B||_F <= gate * V * eps * theta_hat (theta_hat the largest diagonal
    entry of T, gate the block's), and always at the basis limit.  The result
    is accepted once the Ritz vectors Y above the floor satisfy the
    Davis-Kahan test ||B Y_last||_F <= target * (theta_r - theta_r+1), with
    the gap at the floor and the _KRYLOV_SUBSPACE_TOL target for the Gram
    matrix's arithmetic, and every wanted Ritz pair (at most n) has a
    computed residual ||G x - theta x|| <= V * eps * theta_0.

    Returns (theta, vectors) descending, or None where the pass reaches
    ``limit`` vectors unaccepted or an orthogonalization breaks down; the
    caller then takes dense eigh.
    """
    v = gram.shape[0]
    b, gate = _krylov_block(v)
    basis = np.empty((v, limit), dtype=gram.dtype, order="F")  # block columns stay contiguous
    proj = np.zeros((limit, limit), dtype=gram.dtype)  # basis^H gram basis, upper triangle
    block = np.random.default_rng(0).standard_normal((v, b))
    block = block @ np.linalg.inv(_orthonormal_r(block))
    tol = v * np.finfo(float).eps
    subspace_tol = _KRYLOV_SUBSPACE_TOL[np.iscomplexobj(gram)]
    try:
        for m in range(b, limit + 1, b):
            new = slice(m - b, m)
            basis[:, new] = block
            q = basis[:, :m]
            image = gram @ block
            proj[:m, new] = q.conj().T @ image
            w = image - q @ proj[:m, new]
            r_1 = _orthonormal_r(w)
            w = w @ np.linalg.inv(r_1)
            w -= q @ (q.conj().T @ w)
            r_2 = _cholesky_r(w)
            block = w @ np.linalg.inv(r_2)
            coupling = r_2 @ r_1  # gram q = q proj + block coupling e_last^T
            if m == limit or np.linalg.norm(coupling) <= gate * tol * proj.diagonal().real.max():
                theta, y = np.linalg.eigh(proj[:m, :m], UPLO="U")
                theta, y = theta[::-1], y[:, ::-1]
                count = int(np.count_nonzero(theta >= KRYLOV_FLOOR**2 * theta[0]))
                keep = min(count + 1, n)
                gap = theta[count - 1] - (theta[count] if count < m else 0.0)
                resid_above = np.linalg.norm(coupling @ y[-b:, :count])  # ||R||, Davis-Kahan
                if keep <= m and resid_above <= subspace_tol * gap:
                    vecs = q @ y[:, :keep]
                    resid = np.linalg.norm(gram @ vecs - vecs * theta[:keep], axis=0)
                    if np.all(resid <= tol * theta[0]):
                        return theta[:keep], vecs
    except np.linalg.LinAlgError:  # a block lost rank
        pass
    return None


def _factor(ops: BoundaryKernels, limit: int, rows: np.ndarray) -> LinearizedOperator:
    """Block Lanczos within ``limit`` basis vectors, else (and at 0) eigh; ``rows``: pair map."""
    row_scale = math.sqrt(ops.boundary.pair_weight)
    col_scale = np.sqrt(ops.grid.weights)
    gram = _weighted_gram(ops, rows, row_scale, col_scale)
    n = _rank_bound(rows, ops.n_nodes)  # K has at most n nonzero singular values
    pairs = _leading_eigenpairs(gram, n, limit) if limit else None
    if pairs is None:
        lam, vecs = np.linalg.eigh(gram)
        # a copy of the n columns kept, so the V x V eigenvector matrix is freed
        pairs = lam[::-1][:n], vecs[:, lam.size - n :].copy()[:, ::-1]
    del gram
    theta, vecs = pairs
    return LinearizedOperator(
        ops=ops,
        svals=np.sqrt(np.clip(theta, 0.0, None)),
        vh=vecs.conj().T,
        row_scale=row_scale,
        col_scale=col_scale,
        _rows=rows,
    )


def linearized_operator(ops: BoundaryKernels, tau: float | None = None) -> LinearizedOperator:
    """Factor the order-1 operator through its weighted V x V Gram matrix.

    With c = -alpha * row_scale the weighted Gram matrix is

        A^H A = c^2 * (G_sv^H G_sv) o (conj(G_vd) G_vd^T) o (col_scale col_scale^T)

    (``o`` the entrywise product); its eigenpairs give sigma = sqrt(lambda)
    and the right singular vectors.  ``_krylov_basis_limit`` picks the route
    from the grid, its arithmetic (real in diffuse mode) and ``tau``, the
    cutoff ``regularize`` will truncate at: block Lanczos resolves the values
    down to KRYLOV_FLOOR * sigma_max (and one below), and falls back to eigh
    where its basis does not converge; eigh resolves them all.  Squaring the
    spectrum costs accuracy in singular values far below sigma_max, which
    ``regularize`` refuses to retain (``SVAL_FLOOR``).  Only the boundary
    kernels are read, so ``ops`` may be a BoundaryKernels without g_vv.
    Diffuse kernels are real arrays, so diffuse mode runs in real arithmetic;
    scalar mode is complex.
    """
    real = ops.mode.kind == "diffuse"
    return _factor(ops, _krylov_basis_limit(ops.n_nodes, tau, real), _pair_rows(ops))


# Detectors per pass of regularize's sweep over K: a block of K's rows, and
# the matching columns of the pseudoinverse, hold at most S * 8 * V entries
# each (2.8 MB at V=912) where K holds S * D * V.
_DET_BLOCK = 8


@dataclass(frozen=True)
class RegularizedInverse:
    """Truncated-SVD pseudoinverse of the linearized operator, held as two factors.

    pinv = left @ u_rh with left = V_r diag(row_scale / sigma) / col_scale
    (V x r) and u_rh = U_r^H, r x P, a column for each row of the pair map
    ``linop._rows`` (``_pair_rows``).  ``apply`` folds the data onto those
    rows, summing the pairs that share one (phi[s, d] + phi[d, s] on
    reciprocal kernels), which is exact for any data, symmetric or not, and
    costs (P + V) * r.  ``matrix`` forms the dense V x (S*D) pseudoinverse
    on first access (for tests and the selftest); it is real in diffuse
    mode.  norm2 = 1/sigma_min, read from ``linop.svals``, is the
    weighted-L2 operator norm; norm_inf is the max absolute row sum of the
    pseudoinverse (the exact discrete sup-norm), summed by ``regularize``
    over the detector blocks of its sweep over K.
    """

    linop: LinearizedOperator
    rank: int
    norm_inf: float
    _v_r: np.ndarray = field(repr=False)
    _left: np.ndarray = field(repr=False)
    _u_rh: np.ndarray = field(repr=False)

    @property
    def sigma_min(self) -> float:
        return float(self.linop.svals[self.rank - 1])

    @property
    def norm2(self) -> float:
        return float(1.0 / self.linop.svals[self.rank - 1])

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self._left @ self._u_rh[:, self.linop._rows.ravel()]

    def norm(self, p: float) -> float:
        if p == 2:
            return self.norm2
        if math.isinf(p):
            return self.norm_inf
        raise ValueError("pseudoinverse norms are computed for p in {2, inf}")

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Volume field from data of shape (S, D) or (S*D,); always complex."""
        return self._apply(phi).astype(complex, copy=False)

    def _apply(self, phi: np.ndarray) -> np.ndarray:
        """``apply`` in the arithmetic of the data and the factors: real for real diffuse data."""
        phi, rows = np.asarray(phi), self.linop._rows
        shapes = (rows.shape, (rows.size,))
        if phi.shape not in shapes:
            raise ValueError(
                f"data shape {phi.shape} is neither (S, D) = {shapes[0]} nor (S*D,) = {shapes[1]}"
            )
        fold = np.zeros(self._u_rh.shape[1], phi.dtype)
        np.add.at(fold, rows.ravel(), phi.ravel())  # each pair onto its row of U_r
        return self._left @ (self._u_rh @ fold)

    def project(self, eta: np.ndarray) -> np.ndarray:
        """Orthogonal projection (weighted inner product) onto the retained subspace.

        Equals pinv applied to the linearized forward map of eta.  A real V_r
        (diffuse mode) projects the real and imaginary parts as two real
        columns, so it is never upcast to a complex copy.
        """
        eta = np.asarray(eta, dtype=complex)
        shape = (self.linop.n_nodes,)
        if eta.shape != shape:
            raise ValueError(f"field shape {eta.shape} is not (V,) = {shape}")
        x, v_r = self.linop.col_scale * eta, self._v_r
        if np.isrealobj(v_r):  # columns: the real and the imaginary part
            x = (v_r @ (v_r.T @ x.view(float).reshape(-1, 2))).view(complex)[:, 0]
        else:
            x = v_r @ (v_r.conj().T @ x)
        return x / self.linop.col_scale

    def projector_matrix(self) -> np.ndarray:
        """Dense retained-subspace projector (for diagnostics and tests)."""
        m = self._v_r @ self._v_r.conj().T
        return m * (self.linop.col_scale[None, :] / self.linop.col_scale[:, None])

    def spectrum(self) -> dict:
        """Spectral health of the truncation (deterministic, for the invert report).

        sigma_max and the smallest retained sigma_min, their ratio, and the
        share of the squared spectrum (Frobenius energy) left out by the
        truncation, 1 - sum_{i<=r} sigma_i^2 / ||A||_F^2, with ||A||_F^2 from
        the trace of the Gram matrix (``LinearizedOperator.energy``), so the
        unresolved tail of a block Lanczos factorization is counted too.
        """
        s = self.linop.svals
        sigma_max = float(s[0])
        energy = self.linop.energy
        kept = float(np.dot(s[: self.rank], s[: self.rank]))
        return {
            "sigma_max": sigma_max,
            "sigma_min": self.sigma_min,
            "condition": sigma_max / self.sigma_min,
            "discarded_energy": max(energy - kept, 0.0) / energy,
        }


# Smallest retained singular value, relative to sigma_max, that regularize
# accepts.  The Gram factorization resolves sigma_i to about eps * (sigma_max /
# sigma_i)^2 relative error; against a dense SVD, pinv(phi) deviates by 2.6e-11,
# 2.7e-9, 1.2e-7 and 1.6e-5 at tau = 1e-3, 1e-4, 1e-5 and 1e-6 (diffuse, V=912).
SVAL_FLOOR = 1e-5


def _check_truncation(tau: float | None, rank: int | None = None, n: int = 0) -> None:
    """Refuse a tau outside (0, 1] or a rank outside [1, n], n a bound on K's rank."""
    if tau is not None and not 0 < tau <= 1:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if rank is not None and not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")


def regularize(
    linop: LinearizedOperator, rank: int | None = None, tau: float | None = None
) -> RegularizedInverse:
    """Truncate the factorization by rank or by relative singular-value cutoff.

    Exactly one rule must be given: keep the top ``rank`` triplets, or keep
    singular values >= tau * sigma_max with tau in (0, 1].  Where the cut
    reaches past the values ``linop`` resolved, the operator is factored
    again by dense eigh, and ``linop`` of the result is that factorization;
    ``_krylov_basis_limit`` sends a tau below KRYLOV_FLOOR to eigh at once.
    A truncation that retains a singular value below SVAL_FLOOR * sigma_max,
    or a spectrum that is empty, zero or not finite, is refused.  One sweep
    over K, a block of _DET_BLOCK detectors at a time, gives the retained
    left singular vectors
    U_r = row_scale * K (V_r / col_scale) diag(1 / sigma) and, from the
    matching columns of the pseudoinverse, its absolute row sums, whose max
    is norm_inf; K is never stored whole, and a block of its rows is freed
    before the pseudoinverse columns are formed.  U_r has the P rows of the
    pair map ``linop._rows``, which bounds the rank by min(P, V).  A row is
    computed by the first of its pairs in row-major order (s <= d on
    reciprocal kernels), so a block takes only the sources up to the last
    such pair, and counts in the row sums once per pair that shares it.
    """
    if (rank is None) == (tau is None):
        raise ValueError("give exactly one of rank= or tau=")
    s = linop.svals
    if not np.isfinite(s).all():
        raise ValueError("the singular values of the linearized operator are not finite")
    if s.size == 0 or s[0] == 0:  # no voxels, or no response
        raise ValueError("operator is identically zero; nothing to invert")
    _check_truncation(tau, rank, _rank_bound(linop._rows, linop.n_nodes))
    r = int(rank) if rank is not None else int(np.count_nonzero(s >= tau * s[0]))
    if r >= s.size and not linop.complete:  # the cut reaches past the resolved values
        return regularize(_factor(linop.ops, 0, linop._rows), rank=rank, tau=tau)
    rule = f"rank={r}" if rank is not None else f"tau={tau:g} (rank {r})"
    s_r = s[:r]
    if s_r[-1] < SVAL_FLOOR * s[0]:
        raise ValueError(
            f"{rule} retains sigma_min/sigma_max = {s_r[-1] / s[0]:.3g} below SVAL_FLOOR = "
            f"{SVAL_FLOOR:g}, where the Gram factorization is inaccurate; use a larger tau "
            "or a smaller rank"
        )
    ops, v, rows = linop.ops, linop.n_nodes, linop._rows
    v_r = linop.vh[:r].conj().T
    gain = (linop.row_scale / s_r)[None, :]
    scaled_v = v_r / linop.col_scale[:, None]
    left = scaled_v * gain
    g_dv = np.ascontiguousarray(ops.g_vd.T)  # contiguous detector rows build blocks faster
    # the pair that computes each row of U_r, and the pairs that share it
    src, det = np.divmod(np.unique(rows, return_index=True)[1], ops.n_det)
    count = np.bincount(rows.ravel()).astype(float)
    u_r = np.empty((count.size, r), dtype=np.result_type(ops.g_sv, ops.g_vd, v_r))
    row_sums = np.zeros(v)  # absolute row sums of the pseudoinverse
    for start in range(0, ops.n_det, _DET_BLOCK):
        stop = min(start + _DET_BLOCK, ops.n_det)
        at = np.flatnonzero((det >= start) & (det < stop))  # the rows this block computes
        n_s = src[at].max() + 1
        # K's rows are a temporary, freed before the pseudoinverse columns are formed
        block = (_k_rows(ops, ops.g_sv[:n_s], g_dv[start:stop]).reshape(-1, v) @ scaled_v) * gain
        block = block[src[at] * (stop - start) + det[at] - start]
        u_r[at] = block
        row_sums += np.abs(left @ block.conj().T) @ count[at]  # columns of the pseudoinverse
    return RegularizedInverse(
        linop=linop,
        rank=r,
        norm_inf=float(row_sums.max()),
        _v_r=v_r,
        _left=left,
        _u_rh=np.conjugate(u_r.T, order="C"),
    )


def inverse_series(
    kinv: RegularizedInverse, ops: OperatorSet, phi: np.ndarray, order: int
) -> BornSeries:
    """Evaluate the inverse series to any order by the chain recurrence.

    With alpha = -s k^2, let Y_j be the sum over all compositions of j of
    alpha^m * eta_{i_1} G_vv eta_{i_2} ... G_vv eta_{i_m} G_vd (a V x D
    matrix) and C_n = G_vv Y_n.  Splitting off the first part gives

        Z_j   = alpha * sum_{i<j} eta_i * C_{j-i}     (compositions with m >= 2),
        eta_j = pinv(G_sv W Z_j),
        Y_j   = alpha * eta_j * G_vd + Z_j,

    starting from Y_1 = alpha * eta_1 * G_vd; ``*`` scales rows by a volume
    field.  Run to order N, this costs N - 1 products with G_vv, each taken
    by ``ops.volume.matmul`` straight into the chain block: V^2 D / 8 on the
    parity blocks of a ball grid (``mirror.MirrorVolume``), V^2 D elsewhere.

    On reciprocal kernels (G_vd = G_sv^T, where the pair map folds) only
    C_1..C_K are formed, K = ceil((N - 1) / 2).  G_vv = G W with G symmetric
    and W the diagonal weights, so the left chains are transposes of right
    ones: summed over the compositions of p, G_sv W eta_{i_1} G_vv .. eta_{i_m}
    G_vv equals (W C_p)^T.  Orders j <= K take the recurrence above; for
    j > K each composition is split at its first boundary q > K, or, if it
    has none, at its last boundary, which is then <= K:

        G_sv W Z_j = sum_{q=K+1..j-1} H_q C_{j-q} + Lam_j G_vd,
        Lam_q^T    = sum_{p=1..K} (alpha W eta_{q-p}) * C_p,
        H_q^T      = Lam_q^T + (alpha W eta_q) * G_vd          (q > K),

    using G_sv^T = G_vd.  Every composition is counted once, and j - q <= K.
    Order N then costs K products with G_vv.  The chains are held in one
    V x K x D block, so each Z_j and Lam_q^T is one batched contraction over
    it.  Each head H_q, formed once eta_q is known, meets every chain it will
    need in one wide product H_q [C_1 | .. | C_{N-q}], whose S x D blocks are
    added to the data of orders q + 1..N; these N - K - 1 accumulators are
    all the split stores besides the chains.  Its new work is one S x V x D
    product with G_vd per order and N - K - 1 wide ones.  Elsewhere only the
    recurrence runs.

    Each eta_j passes through the forward module's dtype rule, and
    ``kinv`` returns it in its own arithmetic, so a diffuse run on real data
    keeps every product real.  Every sum is accumulated in a fixed order, so
    reruns are bit-identical.  A term that overflows raises ValueError naming
    its order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    alpha = ops.mode.alpha
    w = ops.grid.weights
    aw = (alpha * w)[:, None]
    reciprocal = _folded(kinv.linop._rows)
    k = order // 2 if reciprocal else order - 1  # the chains C_1..C_k formed

    def add_term(data, j):
        eta_j = _check_factor(ops, kinv._apply(data))
        terms.append(_finite(eta_j, "the inverse series", j))

    def contract(scale, j, n):  # sum_{p=1..n} (scale * eta_{j-p}) * C_p, batched over the voxels
        coef = scale * np.stack(terms[j - n - 1 : j - 1][::-1], axis=1)
        return np.matmul(coef[:, None], chains[:, :n])[:, 0]

    with np.errstate(over="ignore", invalid="ignore"):  # _finite names the order instead
        terms = []
        add_term(phi, 1)
        y = alpha * terms[0][:, None] * ops.g_vd
        chains = np.empty((ops.n_nodes, k, ops.n_det), np.result_type(ops.volume.dtype, y))
        work = ops.volume.workspace(ops.n_det, chains.dtype) if k else None
        for j in range(2, k + 2):
            ops.volume.matmul(y, chains[:, j - 2], work)  # C_{j-1}
            if reciprocal and j > k:  # orders k + 1.. are split
                break
            z = contract(alpha, j, j - 1)
            add_term(ops.g_sv @ (w[:, None] * z), j)
            if j <= k:
                y = alpha * terms[-1][:, None] * ops.g_vd + z
        del work
        # acc[:, i] sums the head products of order k + 2 + i
        acc = np.zeros((ops.n_src, max(order - k - 1, 0), ops.n_det), chains.dtype)
        for j in range(len(terms) + 1, order + 1):
            lam = contract(aw, j, k)
            data = lam.T @ ops.g_vd
            if j > k + 1:
                data += acc[:, j - k - 2]
            add_term(data, j)
            if j < order:
                head = lam + aw * terms[-1][:, None] * ops.g_vd  # H_j^T
                wide = head.T @ chains[:, : order - j].reshape(ops.n_nodes, -1)
                acc[:, j - k - 1 :] += wide.reshape(ops.n_src, order - j, ops.n_det)
                del head, wide  # before the next head is formed
    return BornSeries(terms)


def diagnostics(
    result: BornSeries,
    kinv: RegularizedInverse,
    constants: bounds.ConstantSet,
    ops: OperatorSet,
    phi: np.ndarray,
    eta_true: np.ndarray | None = None,
) -> dict:
    """Hypothesis values, certified bounds where computable, measured errors.

    Violated hypotheses are reported, never raised; bound entries are None
    whenever their inequality region is left.  The field norms of each p come
    from one reduction over the stacked fields: the terms, then, given
    eta_true, eta_true - S_n for each partial sum, eta_true, eta_true - P eta
    and P eta, with P the retained-subspace projection.
    """
    fields = list(result.terms)
    if eta_true is not None:
        eta_true = np.asarray(eta_true, dtype=complex)
        proj = kinv.project(eta_true)
        fields += [*(eta_true - np.array(result.partial_sums)), eta_true, eta_true - proj, proj]
    stack = np.array(fields)
    record = {"order": result.order, "rank": kinv.rank, "p": {}}
    for p, label in bounds.P_NORMS:
        norms = _lp_norms(stack, ops.grid.weights, p)
        record["p"][label] = _per_p(result, kinv, constants, ops, phi, p, norms)
    return record


def _per_p(result, kinv, constants, ops, phi, p, norms):
    """One diagnostics record from the field norms ``diagnostics`` stacked."""
    tb = bounds.CertifiedBounds.from_constants(constants, p, kinv.norm(p))
    phi_norm = data_norm(ops.boundary, phi, p)
    n = result.order
    term_norms = norms[:n]
    eta1_norm = term_norms[0]
    rec = {
        "mu_p": tb.mu_p,
        "nu_p": tb.nu_p,
        "inverse_radius": tb.inverse_radius,
        "pinv_norm": tb.pinv_norm,
        "hyp_operator_ok": tb.operator_violation() is None,
        "eta1_norm": eta1_norm,
        "hyp_data_ok": tb.first_term_ok(eta1_norm),
        "phi_norm": phi_norm,
        "q": tb.q,
        "r": tb.r(phi_norm),
        "term_norms": term_norms,
        # observed ||eta_j|| / ||eta_{j-1}||, None after a zero term
        "term_ratios": [b / a if a > 0 else None for a, b in zip(term_norms, term_norms[1:])],
        **tb.tail_report(n, phi_norm),
    }
    if len(norms) > n:  # eta_true was given
        eta_true_norm, linres, proj_norm = norms[2 * n :]
        state_bound = max(eta_true_norm, proj_norm)
        rec["eta_true_norm"] = eta_true_norm
        rec["linear_residual"] = linres
        rec["state_bound"] = state_bound
        rec["measured_error"] = norms[n : 2 * n]
        rec.update(tb.error_report(n, phi_norm, linres, state_bound))
    rec["hypothesis_violations"] = tb.violations(phi_norm)
    return rec


def stability_probe(
    kinv: RegularizedInverse,
    ops: OperatorSet,
    phi1: np.ndarray,
    phi2: np.ndarray,
    order: int,
    constants: bounds.ConstantSet,
) -> dict:
    """Measured sensitivity of order-N reconstructions to a data perturbation.

    Per p: lhs = ||S_N(phi1) - S_N(phi2)||_p against the stability bound
    C~ * ||phi1 - phi2||_p with M = max of the two data norms.  The bound is
    None outside the hypothesis region; the hyp_* flags name the failed part.
    """
    res1 = inverse_series(kinv, ops, phi1, order)
    res2 = inverse_series(kinv, ops, phi2, order)
    out = {"order": order, "p": {}}
    for p, label in bounds.P_NORMS:
        tb = bounds.CertifiedBounds.from_constants(constants, p, kinv.norm(p))
        lhs = field_norm(ops.grid, res1.partial_sums[-1] - res2.partial_sums[-1], p)
        dphi = data_norm(ops.boundary, np.asarray(phi1) - np.asarray(phi2), p)
        m_bound = max(data_norm(ops.boundary, phi1, p), data_norm(ops.boundary, phi2, p))
        out["p"][label] = {
            "lhs": lhs,
            "dphi_norm": dphi,
            "data_bound": m_bound,
            **tb.stability_report(m_bound, dphi),
            "ratio": lhs / dphi if dphi > 0 else 0.0,
        }
    return out
