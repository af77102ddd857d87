"""Forward scattering: direct integral-equation solve and the Born series.

The total field solves (I + s k^2 G eta) u = u_i with s = +1 for diffuse waves
and s = -1 for scalar waves; the data is phi = u_i - u sampled at detectors.
Expanding the solve in powers of eta gives the Born series

    phi = sum_m -alpha^m G_sv (eta G)^(m-1) eta w G_vd,   alpha = -s k^2,

whose term of order m is multilinear in its m volume factors.  Terms are
evaluated as chains of kernel products; no tensor is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import bounds
from .greens import OperatorSet
from .grid import data_norm, field_norm

__all__ = [
    "BornSeries",
    "solve_direct",
    "born_term",
    "born_series",
    "residual_certificate",
]

COND_LIMIT = 1e12


def _check_factor(ops: OperatorSet, f) -> np.ndarray:
    """A volume field in the arithmetic it runs in against these kernels.

    Real (float64) when the kernels are real (diffuse waves) and f has no
    nonzero imaginary part, complex otherwise.  A complex field against real
    kernels would make every kernel product upcast a complex copy of the kernel.
    """
    f = np.asarray(f)
    if f.shape != (ops.n_nodes,):
        raise ValueError(f"factor shape {f.shape} does not match grid ({ops.n_nodes},)")
    real_kernels = not any(np.iscomplexobj(g) for g in (ops.g_vv, ops.g_sv, ops.g_vd))
    if real_kernels and not (np.iscomplexobj(f) and f.imag.any()):
        return np.ascontiguousarray(f.real, dtype=float)
    return f.astype(complex, copy=False)


def _on_support(ops: OperatorSet, eta) -> tuple[OperatorSet, np.ndarray]:
    """The operator set and eta restricted to the nodes where eta is nonzero.

    The data needs the total field only where eta is nonzero, and there it solves
    the closed system u_S = u_i,S + alpha G_SS diag(eta_S) u_S; every series term
    is a chain eta G eta G ... that restricts the same way.  So the restriction
    is exact.  ``ops`` comes back unchanged when eta vanishes nowhere.
    """
    eta = _check_factor(ops, eta)
    s = np.flatnonzero(eta)
    if s.size == ops.n_nodes:
        return ops, eta
    sub = replace(
        ops,
        grid=ops.grid.subset(s),
        g_vv=ops.g_vv[np.ix_(s, s)],
        g_sv=ops.g_sv[:, s],
        g_vd=ops.g_vd[s],
    )
    return sub, eta[s]


def _coefficient(mode, m: int) -> float:
    """-alpha**m, the coefficient of the order-m series term."""
    try:
        return -mode.alpha**m
    except OverflowError:
        raise ValueError(
            f"the order-{m} series coefficient alpha^{m} overflows at k={mode.k:g}"
        ) from None


def _finite(values: np.ndarray, series: str, m: int) -> np.ndarray:
    """``values``, the order-m entry of a series; ValueError naming the order if it overflowed."""
    if not np.isfinite(values).all():
        raise ValueError(f"{series} overflows at order {m}")
    return values


def peak_entries(support: int, n_src: int, n_det: int, order: int) -> int:
    """Entries ``invborn forward`` holds at its peak: its memory estimate.

    On the phantom's ``support`` nodes, the support kernel, the solved matrix
    and LAPACK's copy of it, the boundary kernels, the direct-solve data phi,
    which ``cmd_forward`` holds through the series, and per order the terms,
    their stacked copy and the partial sums (S x D each).
    """
    return 3 * support**2 + (n_src + n_det) * support + (3 * order + 1) * n_src * n_det


def solve_direct(ops: OperatorSet, eta: np.ndarray) -> np.ndarray:
    """Scattering data phi = u_i - u from the dense direct solve, all sources at once.

    The system A = I + M with M = -alpha G_SS diag(eta_S) is solved on the
    support of eta only, so the solve costs V_S^3 for V_S nonzeros.  Raises
    ValueError when the condition estimate of A exceeds COND_LIMIT.  With
    beta = ||M||_1 < 1 the estimate is the Neumann-series bound
    (1 + beta) / (1 - beta), a certified upper bound on cond_1(A); otherwise it
    is the exact cond_1(A), at the cost of one inverse.  The full system is
    block-triangular with an identity block, so it is singular exactly when
    this one is.
    """
    ops, eta = _on_support(ops, eta)
    if not ops.n_nodes:  # no scatterer, no data
        return np.zeros((ops.n_src, ops.n_det), dtype=np.result_type(ops.g_sv, eta))
    mode = ops.mode
    a_mat = np.multiply(ops.g_vv, -mode.alpha * eta, order="F")  # M, then A
    beta = np.abs(a_mat).sum(axis=0).max()
    a_mat.flat[:: ops.n_nodes + 1] += 1.0
    cond = (1.0 + beta) / (1.0 - beta) if beta < 1.0 else np.linalg.cond(a_mat, 1)
    if cond > COND_LIMIT:
        raise ValueError(
            f"forward system is ill-conditioned: condition estimate {cond:.3e} > {COND_LIMIT:.1e}"
        )
    u = np.linalg.solve(a_mat, ops.g_sv.T)  # (nodes, sources)
    scaled = u * (eta * ops.grid.weights)[:, None]
    return -mode.alpha * (scaled.T @ ops.g_vd)


def born_term(ops: OperatorSet, factors) -> np.ndarray:
    """Order-m multilinear series term applied to the given volume factors.

    Evaluated right to left: the column weights folded into g_vv supply the
    quadrature weight of each interior integral, and the source-side
    contraction applies the remaining volume weight explicitly.
    """
    if len(factors) < 1:
        raise ValueError("need at least one factor")
    fs = [_check_factor(ops, f) for f in factors]
    m = len(fs)
    t = fs[-1][:, None] * ops.g_vd
    for f in fs[-2::-1]:
        t = f[:, None] * (ops.g_vv @ t)
    phi = ops.g_sv @ (ops.grid.weights[:, None] * t)
    return _coefficient(ops.mode, m) * phi


@dataclass(frozen=True)
class BornSeries:
    """Series terms, one per order: data arrays (forward) or volume fields (inverse)."""

    terms: list

    @property
    def order(self) -> int:
        return len(self.terms)

    @cached_property
    def partial_sums(self) -> list:
        """S_1, ..., S_order, the cumulative sums of the terms; finite, or ValueError."""
        with np.errstate(over="ignore", invalid="ignore"):
            sums = np.cumsum(np.array(self.terms), axis=0)
        return [_finite(s_n, "the partial sum", n) for n, s_n in enumerate(sums, 1)]


def born_series(ops: OperatorSet, eta: np.ndarray, order: int) -> BornSeries:
    """First `order` Born terms with equal factors eta, and their partial sums.

    Summed on the support of eta, so each order costs V_S^2 * D for V_S nonzeros.
    A term that overflows raises ValueError naming its order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    ops, eta = _on_support(ops, eta)
    w = ops.grid.weights
    terms = []
    t = eta[:, None] * ops.g_vd
    with np.errstate(over="ignore", invalid="ignore"):  # _finite names the order instead
        for m in range(1, order + 1):
            phi_m = _coefficient(ops.mode, m) * (ops.g_sv @ (w[:, None] * t))
            terms.append(_finite(phi_m, "the Born series", m))
            if m < order:
                t = eta[:, None] * (ops.g_vv @ t)
    return BornSeries(terms)


def residual_certificate(ops: OperatorSet, eta: np.ndarray, order: int, phi=None) -> list:
    """Empirical series remainders against the direct solve, next to their bounds.

    Returns one record per p in {2, inf}: the measured ||phi_direct - S_n||_p
    for n = 1..order, ||eta||_p and its bounds from ``bounds`` (None outside the
    forward region), and an applicability flag.  Pass ``phi`` to reuse an
    existing direct solve of the same instance.
    """
    ops, eta = _on_support(ops, eta)  # once, for the solve, the series and the norms
    if phi is None:
        phi = solve_direct(ops, eta)
    series = born_series(ops, eta, order)
    constants = bounds.closed_form_constants(ops.mode, ops.grid.radius_a, ops.boundary.omega_radius)
    records = []
    for p, label in bounds.P_NORMS:
        empirical = [data_norm(ops.boundary, phi - s_n, p) for s_n in series.partial_sums]
        eta_norm = field_norm(ops.grid, eta, p)
        bound = bounds.forward_remainder_bounds(constants, p, eta_norm, order)
        records.append(
            {
                "p": label,
                "empirical": empirical,
                "bound": bound,
                "applicable": bound is not None,
                "eta_norm": eta_norm,
            }
        )
    return records
