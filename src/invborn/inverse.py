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
order (see ``inverse_series``).  No tensor is ever formed and the order is
not capped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .forward import BornSeries, _check_factor, _finite
from .forward import born_term  # noqa: F401  bench/run.py traces invborn.inverse.born_term
from .greens import _ROW_BLOCK, BoundaryKernels, OperatorSet
from .grid import data_norm, field_norm

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
    ``svals`` holds the values the factorization resolved on the route
    ``_krylov_basis_limit`` picked; ``complete`` tells whether that is all
    min(S*D, V).  K is not stored: ``regularize`` applies it to the retained
    right singular vectors a detector block at a time, and ``matrix`` forms
    it on first access (for tests and the selftest).
    Diffuse kernels are real, so in diffuse mode ``matrix``, ``svals`` and
    ``vh`` are real arrays.
    """

    ops: BoundaryKernels
    svals: np.ndarray
    vh: np.ndarray
    row_scale: float
    col_scale: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.ops.n_src * self.ops.n_det

    @property
    def n_nodes(self) -> int:
        return self.ops.n_nodes

    @property
    def complete(self) -> bool:
        """Whether ``svals`` holds the whole spectrum, min(S*D, V) values."""
        return self.svals.size == min(self.n_pairs, self.n_nodes)

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
# pairs) pinv(phi) deviates by 2.4e-11 at tau = 1e-3 (dense eigh 3.4e-11), but
# by 1.5e-7 at tau = 1e-4 (dense eigh 4.2e-9).  A truncation reaching below the
# floor therefore takes dense eigh.
KRYLOV_FLOOR = 1e-3
_KRYLOV_BLOCK = 48  # vectors per Lanczos block
_KRYLOV_MIN_BLOCKS = 4  # the smallest basis worth a Krylov pass
_KRYLOV_MAX_BASIS = 21 * _KRYLOV_BLOCK  # 1008 vectors: 58 MB at V = 7208
# A Rayleigh-Ritz step is taken once the Frobenius norm of the block coupling
# r_2 r_1 of the Lanczos relation falls to this many residual tolerances
# V * eps * theta_0.  At the first block where the step accepts it measured 400
# to 7450 tolerances, and one block earlier 1.5e4 to 8e4 (V = 912 to 3112,
# 24 x 24 and 48 x 48 pairs, both modes).  A step taken too early costs an
# eigh of the projected matrix; one taken a block late costs one block more.
_KRYLOV_RITZ_GATE = 1e4


def _krylov_basis_limit(n_nodes: int, tau: float | None = None) -> int:
    """The route rule: the largest Krylov basis the factorization builds, or 0 for dense eigh.

    The basis holds at most min(V / 2, 1008) vectors, and at least
    _KRYLOV_MIN_BLOCKS blocks; a smaller grid takes eigh.  So does a cutoff
    ``tau`` below KRYLOV_FLOOR, which reaches past what block Lanczos resolves.
    """
    if tau is not None and tau < KRYLOV_FLOOR:
        return 0
    limit = min(n_nodes // 2, _KRYLOV_MAX_BASIS) // _KRYLOV_BLOCK * _KRYLOV_BLOCK
    return limit if limit >= _KRYLOV_MIN_BLOCKS * _KRYLOV_BLOCK else 0


def peak_entries(
    n_nodes: int, n_src: int, n_det: int, support: int, order: int, tau: float | None
) -> int:
    """Entries ``invborn invert`` holds at its peak: its memory estimate.

    The boundary kernels, (S + D) V, and the larger of two stages.  The
    factorization on the route of ``_krylov_basis_limit`` (a rank rule counts
    eigh, which ``regularize`` may take): block Lanczos with m basis vectors
    holds the Gram matrix, the basis, the Ritz vectors, their images and
    residuals, and the projected matrix with eigh's copy, workspace and
    vectors; dense eigh the Gram matrix, eigh's copy, its 2 V^2 workspace and
    the eigenvectors.  The series: g_vv, the kept rows of vh with the
    pseudoinverse factors, the data solve on the ``support`` nodes, and per
    order a V x D chain matrix and three fields.  Known gap: the block
    Lanczos route leaves out the dense eigh that ``_factor`` falls back to
    where the basis runs out or breaks down; at V = 12,160 (``invert --h
    0.07``) it counts 1.51 GiB, where the dense route is counted at 5.52 GiB.
    """
    v, pairs = n_nodes, n_src * n_det
    if tau is not None and (m := _krylov_basis_limit(v, tau)):
        factor, rows = v * v + 4 * v * m + 5 * m * m, m
    else:
        factor, rows = 5 * v * v, min(pairs, v)
    series = v * v + rows * (3 * v + pairs) + 3 * support**2 + order * v * (n_det + 3)
    return (n_src + n_det) * v + max(factor, series)


def _reciprocal(ops: BoundaryKernels) -> bool:
    """Whether g_vd equals g_sv^T entry for entry, so pairs (s, d) and (d, s) carry equal data.

    Sources and detectors at the same points give this bit for bit, since the
    Green's function is reciprocal: build_sphere_boundary with n_src == n_det.
    K's rows for (s, d) and (d, s) are then equal.
    """
    return np.array_equal(ops.g_vd, ops.g_sv.T)


def _weighted_gram(ops: BoundaryKernels, row_scale: float, col_scale: np.ndarray) -> np.ndarray:
    """A^H A = c^2 * (G_sv^H G_sv) o (conj(G_vd) G_vd^T) o (col_scale col_scale^T).

    c = -alpha * row_scale and ``o`` is the entrywise product.  The detector
    Gram matrix and the weights are multiplied in by row blocks, so the
    result is the only V x V array formed.  On reciprocal kernels
    (``_reciprocal``) the detector Gram matrix is the source one, which is
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
    reciprocal = _reciprocal(ops)
    for start in range(0, ops.n_nodes, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        gram[rows] *= gram[rows] if reciprocal else ops.g_vd[rows].conj() @ ops.g_vd.T
        gram[rows] *= scale * np.outer(col_scale[rows], col_scale)
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
    start block.  The start block and each new one are orthonormalized by a
    first pass whose R is Cholesky-QR (Householder where the block's Gram
    matrix is not positive definite); each new block is then orthogonalized
    against the basis once more, with a Cholesky pass.  The coefficients of
    the first pass are the new columns of the projected matrix T.  With the
    block coupling B = r_2 r_1, gram Q = Q T + block B e_last^T, so a Ritz
    pair's residual is ||B y_last||.  A Rayleigh-Ritz step is taken only once
    ||B||_F <= _KRYLOV_RITZ_GATE * V * eps * theta_hat (theta_hat the largest
    diagonal entry of T), and always at the basis limit.  The result is
    accepted once every wanted Ritz pair (at most n) has a computed residual
    ||G x - theta x|| <= V * eps * theta_0.  Returns (theta, vectors)
    descending, or None where the basis would exceed ``limit`` vectors or an
    orthogonalization breaks down; the caller then takes dense eigh.
    """
    v, b = gram.shape[0], _KRYLOV_BLOCK
    basis = np.empty((v, limit), dtype=gram.dtype, order="F")  # block columns stay contiguous
    proj = np.zeros((limit, limit), dtype=gram.dtype)  # basis^H gram basis, upper triangle
    block = np.random.default_rng(0).standard_normal((v, b))
    block = block @ np.linalg.inv(_orthonormal_r(block))
    tol = v * np.finfo(float).eps
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
            gate = _KRYLOV_RITZ_GATE * tol * proj.diagonal().real.max()
            if m < limit and np.linalg.norm(coupling) > gate:
                continue
            theta, y = np.linalg.eigh(proj[:m, :m], UPLO="U")
            theta, y = theta[::-1], y[:, ::-1]
            keep = min(int(np.count_nonzero(theta >= KRYLOV_FLOOR**2 * theta[0])) + 1, n)
            vecs = q @ y[:, :keep]
            resid = np.linalg.norm(gram @ vecs - vecs * theta[:keep], axis=0)
            if np.all(resid <= tol * theta[0]):
                return theta[:keep], vecs
    except np.linalg.LinAlgError:  # a block lost rank
        pass
    return None


def _factor(ops: BoundaryKernels, limit: int) -> LinearizedOperator:
    """Block Lanczos within ``limit`` basis vectors, else (and at limit 0) dense eigh."""
    row_scale = math.sqrt(ops.boundary.pair_weight)
    col_scale = np.sqrt(ops.grid.weights)
    gram = _weighted_gram(ops, row_scale, col_scale)
    n = min(ops.n_src * ops.n_det, ops.n_nodes)  # the SVD of an (S*D) x V matrix has n triplets
    pairs = _leading_eigenpairs(gram, n, limit) if limit else None
    if pairs is None:
        lam, vecs = np.linalg.eigh(gram)
        pairs = lam[::-1][:n], vecs[:, ::-1][:, :n]
    del gram
    theta, vecs = pairs
    return LinearizedOperator(
        ops=ops,
        svals=np.sqrt(np.clip(theta, 0.0, None)),
        vh=vecs.conj().T,
        row_scale=row_scale,
        col_scale=col_scale,
    )


def linearized_operator(ops: BoundaryKernels, tau: float | None = None) -> LinearizedOperator:
    """Factor the order-1 operator through its weighted V x V Gram matrix.

    With c = -alpha * row_scale the weighted Gram matrix is

        A^H A = c^2 * (G_sv^H G_sv) o (conj(G_vd) G_vd^T) o (col_scale col_scale^T)

    (``o`` the entrywise product); its eigenpairs give sigma = sqrt(lambda)
    and the right singular vectors.  ``_krylov_basis_limit`` picks the route
    from the grid and ``tau``, the cutoff ``regularize`` will truncate at:
    block Lanczos resolves the values down to KRYLOV_FLOOR * sigma_max (and
    one below), and falls back to eigh where its basis does not converge;
    eigh resolves them all.  Squaring the spectrum costs accuracy in singular
    values far below sigma_max, which ``regularize`` refuses to retain
    (``SVAL_FLOOR``).  Only the boundary kernels are read, so ``ops`` may be
    a BoundaryKernels without g_vv.  Diffuse kernels are real arrays, so
    diffuse mode runs in real arithmetic; scalar mode is complex.
    """
    return _factor(ops, _krylov_basis_limit(ops.n_nodes, tau))


# Detectors per pass of regularize's sweep over K: a block of K's rows, and
# the matching columns of the pseudoinverse, hold at most S * 8 * V entries
# each (2.8 MB at V=912) where K holds S * D * V.
_DET_BLOCK = 8


@dataclass(frozen=True)
class RegularizedInverse:
    """Truncated-SVD pseudoinverse of the linearized operator, held as two factors.

    pinv = left @ u_rh with left = V_r diag(row_scale / sigma) / col_scale
    (V x r) and u_rh = U_r^H (r x S*D), so ``apply`` costs (S*D + V) * r.
    ``matrix`` forms the dense V x (S*D) pseudoinverse on first access (for
    tests and the selftest); it is real in diffuse mode.  norm2 =
    1/sigma_min of the retained triplets is the weighted-L2 operator norm;
    norm_inf is the max absolute row sum of the pseudoinverse (the exact
    discrete sup-norm), summed by ``regularize`` over the detector blocks of
    its sweep over K.  On reciprocal kernels (``_reciprocal``) that sweep
    covers the distinct pairs and u_rh holds each row of U_r for both (s, d)
    and (d, s), so its shape is r x S*D either way.
    """

    linop: LinearizedOperator
    rank: int
    sigma_min: float
    norm2: float
    norm_inf: float
    _v_r: np.ndarray = field(repr=False)
    _left: np.ndarray = field(repr=False)
    _u_rh: np.ndarray = field(repr=False)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return self._left @ self._u_rh

    def norm(self, p: float) -> float:
        if p == 2:
            return self.norm2
        if math.isinf(p):
            return self.norm_inf
        raise ValueError("pseudoinverse norms are computed for p in {2, inf}")

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Volume field from data of shape (S, D) or (S*D,); always complex."""
        phi = np.asarray(phi)
        shapes = ((self.linop.ops.n_src, self.linop.ops.n_det), (self.linop.n_pairs,))
        if phi.shape not in shapes:
            raise ValueError(
                f"data shape {phi.shape} is neither (S, D) = {shapes[0]} nor (S*D,) = {shapes[1]}"
            )
        return (self._left @ (self._u_rh @ phi.ravel())).astype(complex, copy=False)

    def project(self, eta: np.ndarray) -> np.ndarray:
        """Orthogonal projection (weighted inner product) onto the retained subspace.

        Equals pinv applied to the linearized forward map of eta.
        """
        eta = np.asarray(eta, dtype=complex)
        coeff = self._v_r.conj().T @ (self.linop.col_scale * eta)
        return (self._v_r @ coeff) / self.linop.col_scale

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
    """Refuse a tau outside (0, 1] or a rank outside [1, n], n = min(S*D, V)."""
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
    or a spectrum that is not finite, is refused.  One sweep over K, a block of _DET_BLOCK
    detectors at a time, gives the retained left singular vectors
    U_r = row_scale * K (V_r / col_scale) diag(1 / sigma) and, from the
    matching columns of the pseudoinverse, its absolute row sums, whose max
    is norm_inf; K is never stored whole, and a block of its rows is freed
    before the pseudoinverse columns are formed.  On reciprocal kernels
    (``_reciprocal``) K's rows for (s, d) and (d, s) are equal, so a block
    takes only the sources s below its last detector, about S(S+1)/2 pairs
    in all: the rows with s < start are mirrored into U_r and counted twice
    in the row sums, and the block's own square of pairs is formed whole.
    """
    if (rank is None) == (tau is None):
        raise ValueError("give exactly one of rank= or tau=")
    _check_truncation(tau, rank, min(linop.n_pairs, linop.n_nodes))
    s = linop.svals
    if not np.isfinite(s).all():
        raise ValueError("the singular values of the linearized operator are not finite")
    if s[0] == 0:
        raise ValueError("operator is identically zero; nothing to invert")
    r = int(rank) if rank is not None else int(np.count_nonzero(s >= tau * s[0]))
    if r >= s.size and not linop.complete:  # the cut reaches past the resolved values
        return regularize(_factor(linop.ops, 0), rank=rank, tau=tau)
    rule = f"rank={r}" if rank is not None else f"tau={tau:g} (rank {r})"
    s_r = s[:r]
    if s_r[-1] < SVAL_FLOOR * s[0]:
        raise ValueError(
            f"{rule} retains sigma_min/sigma_max = {s_r[-1] / s[0]:.3g} below SVAL_FLOOR = "
            f"{SVAL_FLOOR:g}, where the Gram factorization is inaccurate; use a larger tau "
            "or a smaller rank"
        )
    ops, v = linop.ops, linop.n_nodes
    v_r = linop.vh[:r].conj().T
    gain = (linop.row_scale / s_r)[None, :]
    scaled_v = v_r / linop.col_scale[:, None]
    left = scaled_v * gain
    g_dv = np.ascontiguousarray(ops.g_vd.T)  # contiguous detector rows build blocks faster
    reciprocal = _reciprocal(ops)
    u_r = np.empty((ops.n_src, ops.n_det, r), dtype=np.result_type(ops.g_sv, ops.g_vd, v_r))
    row_sums = np.zeros(v)  # absolute row sums of the pseudoinverse
    for start in range(0, ops.n_det, _DET_BLOCK):
        stop = min(start + _DET_BLOCK, ops.n_det)
        n_s = stop if reciprocal else ops.n_src  # reciprocal: the pairs with s < stop
        # K's rows are a temporary, freed before the pseudoinverse columns are formed
        block = (_k_rows(ops, ops.g_sv[:n_s], g_dv[start:stop]).reshape(-1, v) @ scaled_v) * gain
        pairs = block.reshape(n_s, -1, r)  # rows of U_r
        count = np.ones((n_s, stop - start))
        if reciprocal:  # a pair (s, d) with s < start <= d stands for (d, s) too
            u_r[start:stop, :start] = pairs[:start].transpose(1, 0, 2)
            count[:start] = 2.0
        u_r[:n_s, start:stop] = pairs
        row_sums += np.abs(left @ block.conj().T) @ count.ravel()  # columns of the pseudoinverse
    return RegularizedInverse(
        linop=linop,
        rank=r,
        sigma_min=float(s_r[-1]),
        norm2=float(1.0 / s_r[-1]),
        norm_inf=float(row_sums.max()),
        _v_r=v_r,
        _left=left,
        _u_rh=u_r.reshape(-1, r).conj().T,
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
    field.  Order N therefore costs N - 1 products with G_vv in total.  Each
    eta_j passes through the forward module's dtype rule, so a diffuse run
    on real data keeps every product real.  The sum defining Z_j is
    accumulated in ascending i, a fixed order, so reruns are bit-identical.
    A term that overflows raises ValueError naming its order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    alpha = ops.mode.alpha
    w = ops.grid.weights
    with np.errstate(over="ignore", invalid="ignore"):  # _finite names the order instead
        terms = [_finite(_check_factor(ops, kinv.apply(phi)), "the inverse series", 1)]
        y = alpha * terms[0][:, None] * ops.g_vd
        chains = []  # chains[n - 1] = C_n
        for j in range(2, order + 1):
            chains.append(ops.g_vv @ y)
            z = alpha * sum(terms[i][:, None] * chains[j - 2 - i] for i in range(j - 1))
            eta_j = _check_factor(ops, kinv.apply(ops.g_sv @ (w[:, None] * z)))
            terms.append(_finite(eta_j, "the inverse series", j))
            y = alpha * terms[-1][:, None] * ops.g_vd + z
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
    whenever their inequality region is left.
    """
    truth = None
    if eta_true is not None:
        eta_true = np.asarray(eta_true, dtype=complex)
        truth = (eta_true, kinv.project(eta_true))
    record = {"order": result.order, "rank": kinv.rank, "p": {}}
    for p, label in bounds.P_NORMS:
        record["p"][label] = _per_p(result, kinv, constants, ops, phi, p, truth)
    return record


def _per_p(result, kinv, constants, ops, phi, p, truth):
    """One diagnostics record; truth is None or (eta_true, its projection)."""
    grid = ops.grid
    tb = bounds.CertifiedBounds.from_constants(constants, p, kinv.norm(p))
    phi_norm = data_norm(ops.boundary, phi, p)
    term_norms = [field_norm(grid, t, p) for t in result.terms]
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
        **tb.tail_report(result.order, phi_norm),
    }
    if truth is not None:
        eta_true, proj = truth
        eta_true_norm = field_norm(grid, eta_true, p)
        linres = field_norm(grid, eta_true - proj, p)
        state_bound = max(eta_true_norm, field_norm(grid, proj, p))
        rec["eta_true_norm"] = eta_true_norm
        rec["linear_residual"] = linres
        rec["state_bound"] = state_bound
        rec["measured_error"] = [
            field_norm(grid, eta_true - s_n, p) for s_n in result.partial_sums
        ]
        rec.update(tb.error_report(result.order, phi_norm, linres, state_bound))
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
