"""Forward scattering: direct integral-equation solve and the Born series.

The total field solves (I + s k^2 G eta) u = u_i with s = +1 for diffuse waves
and s = -1 for scalar waves; the data is phi = u_i - u sampled at detectors.
Expanding the solve in powers of eta gives the Born series

    phi = sum_m -alpha^m G_sv (eta G)^(m-1) eta w G_vd,   alpha = -s k^2,

whose term of order m is multilinear in its m volume factors.  Terms are
evaluated as chains of kernel products; no tensor is ever materialized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

from . import bounds
from .greens import OperatorSet
from .grid import data_norm, field_norm

__all__ = [
    "BornSeries",
    "incident_field",
    "solve_direct",
    "born_term",
    "born_series",
    "residual_certificate",
]

COND_LIMIT = 1e12


def incident_field(ops: OperatorSet, source: int) -> np.ndarray:
    """Incident field on the grid for one point source (a row of g_sv)."""
    return ops.g_sv[source]


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


def solve_direct(ops: OperatorSet, eta: np.ndarray) -> np.ndarray:
    """Scattering data phi = u_i - u from the dense direct solve, all sources at once.

    Raises ValueError when the LAPACK condition estimate of the system matrix
    exceeds COND_LIMIT.
    """
    eta = _check_factor(ops, eta)
    mode = ops.mode
    # A = I - alpha G_vv diag(eta), in Fortran order so that the LU overwrites it
    a_mat = np.multiply(ops.g_vv, -mode.alpha * eta, order="F")
    a_mat.flat[:: ops.n_nodes + 1] += 1.0
    lange, gecon = lapack.get_lapack_funcs(("lange", "gecon"), (a_mat,))
    anorm = lange("1", a_mat)
    with warnings.catch_warnings():
        # exact singularity surfaces through the condition check below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a_mat, overwrite_a=True)
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        raise ValueError(f"condition estimation failed (info={info})")
    cond = np.inf if rcond == 0 else 1.0 / rcond
    if cond > COND_LIMIT:
        raise ValueError(
            f"forward system is ill-conditioned: condition estimate {cond:.3e} > {COND_LIMIT:.1e}"
        )
    u = lu_solve((lu, piv), ops.g_sv.T)  # (nodes, sources)
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
    return -ops.mode.alpha**m * phi


@dataclass(frozen=True)
class BornSeries:
    """Series terms and their partial sums (data arrays, one per order)."""

    terms: list
    partial_sums: list

    @property
    def order(self) -> int:
        return len(self.terms)


def born_series(ops: OperatorSet, eta: np.ndarray, order: int) -> BornSeries:
    """First `order` Born terms with equal factors eta, and their partial sums."""
    if order < 1:
        raise ValueError("order must be >= 1")
    eta = _check_factor(ops, eta)
    mode = ops.mode
    w = ops.grid.weights
    terms = []
    t = eta[:, None] * ops.g_vd
    for m in range(1, order + 1):
        phi_m = -mode.alpha**m * (ops.g_sv @ (w[:, None] * t))
        terms.append(phi_m)
        if m < order:
            t = eta[:, None] * (ops.g_vv @ t)
    partial_sums = list(np.cumsum(np.array(terms), axis=0))
    return BornSeries(terms=terms, partial_sums=partial_sums)


def residual_certificate(ops: OperatorSet, eta: np.ndarray, order: int, phi=None) -> list:
    """Empirical series remainders against the direct solve, next to their bounds.

    Returns one record per p in {2, inf}: the measured ||phi_direct - S_n||_p
    for n = 1..order, ||eta||_p and its bounds from ``bounds`` (None outside the
    forward region), and an applicability flag.  Pass ``phi`` to reuse an
    existing direct solve of the same instance.
    """
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
