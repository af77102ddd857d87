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

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .forward import _check_factor
from .forward import born_term  # noqa: F401  bench/run.py traces invborn.inverse.born_term
from .greens import OperatorSet
from .grid import data_norm, field_norm

__all__ = [
    "LinearizedOperator",
    "RegularizedInverse",
    "InverseSeriesResult",
    "linearized_operator",
    "regularize",
    "inverse_series",
    "diagnostics",
    "stability_probe",
]


@dataclass(frozen=True)
class LinearizedOperator:
    """Dense order-1 operator with its weighted right singular vectors.

    Rows are (source, detector) pairs in row-major order, columns are voxels;
    volume weights are folded in so that ``matrix @ eta`` equals the order-1
    series term.  ``svals`` and ``vh`` are the singular values (descending)
    and right singular vectors of the weight-scaled matrix
    A = row_scale * K / col_scale, so singular values are operator norms
    between the weighted L2 spaces.  They come from the V x V Gram matrix
    A^H A rather than from an SVD of the (S*D) x V matrix: the columns of K
    are Khatri-Rao products of source and detector kernel columns, so A^H A
    is the Hadamard product of the source and detector Gram matrices.  The
    left singular vectors are never formed in full; ``regularize`` computes
    the retained ones.  Diffuse kernels are real, so in diffuse mode
    ``matrix``, ``svals`` and ``vh`` are real arrays.
    """

    ops: OperatorSet
    matrix: np.ndarray
    svals: np.ndarray
    vh: np.ndarray
    row_scale: float
    col_scale: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[1]


def linearized_operator(ops: OperatorSet) -> LinearizedOperator:
    """Assemble the order-1 matrix and factor it through its weighted V x V Gram.

    With c = -alpha * row_scale the weighted Gram matrix is

        A^H A = c^2 * (G_sv^H G_sv) o (conj(G_vd) G_vd^T) o (col_scale col_scale^T)

    (``o`` the entrywise product); one Hermitian eigendecomposition gives
    sigma = sqrt(lambda) and the right singular vectors.  Squaring the spectrum
    costs accuracy in singular values far below sigma_max, which ``regularize``
    refuses to retain (``SVAL_FLOOR``).  Diffuse kernels are real arrays, so
    diffuse mode runs in real arithmetic; scalar mode is complex.
    """
    mode = ops.mode
    w = ops.grid.weights
    g_sv, g_vd = ops.g_sv, ops.g_vd
    # entry for pair (s, d) and voxel j: -alpha * g_sv[s, j] * g_vd[j, d] * w_j
    k1 = g_sv[:, None, :] * g_vd.T[None, :, :]  # (S, D, V)
    k1 = -mode.alpha * k1.reshape(-1, ops.n_nodes) * w[None, :]
    row_scale = math.sqrt(ops.boundary.pair_weight)
    col_scale = np.sqrt(w)
    gram = (g_sv.conj().T @ g_sv) * (g_vd.conj() @ g_vd.T)
    gram *= (mode.alpha * row_scale) ** 2 * np.outer(col_scale, col_scale)
    lam, vecs = np.linalg.eigh(gram)
    n = min(k1.shape)  # the SVD of an (S*D) x V matrix has min(S*D, V) triplets
    svals = np.sqrt(np.clip(lam[::-1][:n], 0.0, None))
    vh = vecs[:, ::-1][:, :n].conj().T
    return LinearizedOperator(
        ops=ops, matrix=k1, svals=svals, vh=vh, row_scale=row_scale, col_scale=col_scale
    )


@dataclass(frozen=True)
class RegularizedInverse:
    """Truncated-SVD pseudoinverse of the linearized operator.

    ``matrix`` maps flattened data to a volume field (real in diffuse mode).
    norm2 = 1/sigma_min of the retained triplets is the weighted-L2 operator
    norm; norm_inf is the max absolute row sum of the realized matrix (the
    exact discrete sup-norm).
    """

    linop: LinearizedOperator
    rank: int
    sigma_min: float
    matrix: np.ndarray
    norm2: float
    norm_inf: float
    _v_r: np.ndarray = field(repr=False)
    _u_r: np.ndarray = field(repr=False)

    def norm(self, p: float) -> float:
        if p == 2:
            return self.norm2
        if math.isinf(p):
            return self.norm_inf
        raise ValueError("pseudoinverse norms are computed for p in {2, inf}")

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Volume field from data (accepts (S, D) or flattened); always complex."""
        phi = np.asarray(phi).ravel()
        if phi.shape[0] != self.linop.n_pairs:
            raise ValueError("data size does not match the operator")
        if np.iscomplexobj(self.matrix):
            return self.matrix @ phi.astype(complex, copy=False)
        # a real pinv times complex data would upcast a full copy of the pinv
        eta = (self.matrix @ phi.real).astype(complex)
        if np.iscomplexobj(phi) and phi.imag.any():
            eta += 1j * (self.matrix @ phi.imag)
        return eta

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

    def truncated_forward(self) -> np.ndarray:
        """Rank-limited forward matrix sharing the retained triplets."""
        lin = self.linop
        s_r = lin.svals[: self.rank]
        vh_r = self._v_r.conj().T * lin.col_scale[None, :]
        return (self._u_r * s_r[None, :]) @ vh_r / lin.row_scale

    def spectrum(self) -> dict:
        """Spectral health of the truncation (deterministic, for the invert report).

        sigma_max and the smallest retained sigma_min, their ratio, and the
        share of the squared spectrum (Frobenius energy) left out by the
        truncation, 1 - sum_{i<=r} sigma_i^2 / sum_i sigma_i^2.
        """
        s = self.linop.svals
        sigma_max = float(s[0])
        return {
            "sigma_max": sigma_max,
            "sigma_min": self.sigma_min,
            "condition": sigma_max / self.sigma_min,
            "discarded_energy": float(np.dot(s[self.rank :], s[self.rank :]) / np.dot(s, s)),
        }


# Smallest retained singular value, relative to sigma_max, that regularize
# accepts.  The Gram factorization resolves sigma_i to about eps * (sigma_max /
# sigma_i)^2 relative error; against a dense SVD, pinv(phi) deviates by 2.6e-11,
# 2.7e-9, 1.2e-7 and 1.6e-5 at tau = 1e-3, 1e-4, 1e-5 and 1e-6 (diffuse, V=912).
SVAL_FLOOR = 1e-5


def regularize(
    linop: LinearizedOperator, rank: int | None = None, tau: float | None = None
) -> RegularizedInverse:
    """Truncate the factorization by rank or by relative singular-value cutoff.

    Exactly one rule must be given: keep the top ``rank`` triplets, or keep
    singular values >= tau * sigma_max with tau in (0, 1].  A truncation that
    retains a singular value below SVAL_FLOOR * sigma_max is refused.
    """
    if (rank is None) == (tau is None):
        raise ValueError("give exactly one of rank= or tau=")
    s = linop.svals
    if s.size == 0 or s[0] == 0:
        raise ValueError("operator is identically zero; nothing to invert")
    if tau is not None:
        if not 0 < tau <= 1:
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        r = int(np.count_nonzero(s >= tau * s[0]))
        rule = f"tau={tau:g} (rank {r})"
    else:
        if not 1 <= rank <= s.size:
            raise ValueError(f"rank must be in [1, {s.size}], got {rank}")
        r = int(rank)
        rule = f"rank={r}"
    s_r = s[:r]
    if s_r[-1] < SVAL_FLOOR * s[0]:
        raise ValueError(
            f"{rule} retains sigma_min/sigma_max = {s_r[-1] / s[0]:.3g} below SVAL_FLOOR = "
            f"{SVAL_FLOOR:g}, where the Gram factorization is inaccurate; use a larger tau "
            "or a smaller rank"
        )
    v_r = linop.vh[:r].conj().T
    scaled_v = v_r / linop.col_scale[:, None]
    u_r = (linop.matrix @ scaled_v) * (linop.row_scale / s_r)[None, :]
    pinv = ((scaled_v / s_r[None, :]) @ u_r.conj().T) * linop.row_scale
    return RegularizedInverse(
        linop=linop,
        rank=r,
        sigma_min=float(s_r[-1]),
        matrix=pinv,
        norm2=float(1.0 / s_r[-1]),
        norm_inf=float(np.abs(pinv).sum(axis=1).max()),
        _v_r=v_r,
        _u_r=u_r,
    )


@dataclass(frozen=True)
class InverseSeriesResult:
    """Series terms eta_j and their cumulative partial sums (volume fields)."""

    terms: list
    partial_sums: list

    @property
    def order(self) -> int:
        return len(self.terms)

    def term_norms(self, grid, p: float) -> list:
        return [field_norm(grid, t, p) for t in self.terms]


def inverse_series(
    kinv: RegularizedInverse, ops: OperatorSet, phi: np.ndarray, order: int
) -> InverseSeriesResult:
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
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    alpha = ops.mode.alpha
    w = ops.grid.weights
    terms = [_check_factor(ops, kinv.apply(phi))]
    y = alpha * terms[0][:, None] * ops.g_vd
    chains = []  # chains[n - 1] = C_n
    for j in range(2, order + 1):
        chains.append(ops.g_vv @ y)
        z = alpha * sum(terms[i][:, None] * chains[j - 2 - i] for i in range(j - 1))
        terms.append(_check_factor(ops, kinv.apply(ops.g_sv @ (w[:, None] * z))))
        y = alpha * terms[-1][:, None] * ops.g_vd + z
    partial = list(np.cumsum(np.array(terms), axis=0))
    return InverseSeriesResult(terms=terms, partial_sums=partial)


def diagnostics(
    result: InverseSeriesResult,
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
    record = {"order": result.order, "rank": kinv.rank, "p": {}}
    for p, label in bounds.P_NORMS:
        record["p"][label] = _per_p(result, kinv, constants, ops, phi, p, eta_true)
    return record


def _per_p(result, kinv, constants, ops, phi, p, eta_true):
    grid = ops.grid
    tb = bounds.CertifiedBounds.from_constants(constants, p, kinv.norm(p))
    phi_norm = data_norm(ops.boundary, phi, p)
    eta1_norm = field_norm(grid, result.terms[0], p)
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
        "term_norms": result.term_norms(grid, p),
        **tb.tail_report(result.order, phi_norm),
    }
    if eta_true is not None:
        eta_true = np.asarray(eta_true, dtype=complex)
        proj = kinv.project(eta_true)
        linres = field_norm(grid, eta_true - proj, p)
        state_bound = max(field_norm(grid, eta_true, p), field_norm(grid, proj, p))
        rec["eta_true_norm"] = field_norm(grid, eta_true, p)
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
