"""Convergence, stability and error constants for the Born series and its inverse.

The forward term operators obey ||K_j||_p <= nu_p * mu_p^(j-1) for 2 <= p <= inf,
where

    mu_inf = sup_x k^2 ||G(x, .)||_L1(ball),    mu_2 = sup_x k^2 ||G(x, .)||_L2(ball),
    nu_inf = k^2 |B| sup |G(x, y)|^2,           nu_2 = k^2 |B|^(1/2) sup ||G(x, .)||^2_L2(sphere),

with closed forms for both wave models and Riesz-Thorin interpolation in between:
mu_p = mu_2^(2/p) mu_inf^(1-2/p), same for nu.  The nu values are upper bounds
(not equalities), so every radius derived from them is a certified lower bound.

The forward series converges when mu_p * ||eta||_p < 1 (radius 1/mu_p) and the
inverse series when (mu_p + nu_p) * ||pinv|| * ||data|| < 1 (radius
R_p = 1/(mu_p + nu_p) in the data/operator smallness sense).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greens import (
    _ROW_BLOCK,
    WaveMode,
    _diffuse_ball_factor,
    _pairwise_dist,
    kernel_modulus,
    self_cell_l1,
    self_cell_l2,
)
from .grid import Grid

__all__ = [
    "ConstantSet",
    "CertifiedBounds",
    "mu_closed_form",
    "nu_bound",
    "closed_form_constants",
    "numeric_constants",
    "mu_numeric_sweep",
    "interpolate_constants",
    "convergence_radii",
    "partition_count",
    "diagram_count",
    "compositions",
    "dilog",
    "series_constant",
    "k_from_optical",
]

INF = math.inf
P_NORMS = ((2, "2"), (INF, "inf"))  # (p, label) pairs reported by every diagnostic


def _ball_volume(a: float) -> float:
    return 4.0 * math.pi * a**3 / 3.0


def _check_p(p: float):
    if p < 2:
        raise ValueError(f"p must be in [2, inf], got {p}")


def mu_closed_form(mode: WaveMode, a: float, p: float) -> float:
    """Closed-form mu_p of the free-space kernel on the ball of radius a.

    diffuse: mu_inf = 1 - (1 + ka) e^{-ka},
             mu_2   = k^2 e^{-ka/2} (sinh(ka) / (4 pi k))^(1/2)
                    = k^2 ((1 - e^{-2ka}) / (8 pi k))^(1/2)
             (both evaluated without cancellation as ka -> 0)
    scalar:  mu_inf = (ka)^2 / 2,  mu_2 = k^2 (a / (4 pi))^(1/2)
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if p not in (2, INF):
        raise ValueError("closed forms are available for p in {2, inf}; interpolate otherwise")
    k = mode.k
    ka = k * a
    if mode.kind == "diffuse":
        if p == INF:
            return ka**2 * _diffuse_ball_factor(ka)
        return k**2 * math.sqrt(-math.expm1(-2.0 * ka) / (8.0 * math.pi * k))
    if p == INF:
        return 0.5 * ka**2
    return k**2 * math.sqrt(a / (4.0 * math.pi))


def nu_bound(mode: WaveMode, a: float, omega_radius: float, p: float) -> float:
    """Closed-form upper bound on nu_p for concentric ball/sphere geometry.

    With d = omega_radius - a the closest approach of the boundary to the
    support:

    diffuse: nu_inf <= k^2 |B| e^{-2kd} / (4 pi d)^2,
             nu_2   <= k^2 |S| |B|^(1/2) e^{-2kd} / (4 pi d)^2
    scalar:  the same expressions without the exponential factor.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if omega_radius <= a:
        raise ValueError(
            f"measurement sphere must enclose the support: omega_radius={omega_radius} <= a={a}"
        )
    if p not in (2, INF):
        raise ValueError("closed forms are available for p in {2, inf}; interpolate otherwise")
    k = mode.k
    dist = omega_radius - a
    vol = _ball_volume(a)
    decay = math.exp(-2.0 * k * dist) if mode.kind == "diffuse" else 1.0
    denom = (4.0 * math.pi * dist) ** 2
    if p == INF:
        return k**2 * vol * decay / denom
    area = 4.0 * math.pi * omega_radius**2
    return k**2 * area * math.sqrt(vol) * decay / denom


@dataclass(frozen=True)
class ConstantSet:
    """The four endpoint constants plus the geometry they were computed for."""

    mu_inf: float
    mu_2: float
    nu_inf: float
    nu_2: float
    mode: WaveMode
    a: float
    omega_radius: float
    provenance: str  # "closed_form" or "numeric"

    def __post_init__(self):
        for name in ("mu_inf", "mu_2", "nu_inf", "nu_2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
            if v == 0 and name.startswith("mu"):  # every radius divides by mu
                raise ValueError(f"{name} underflows to 0 at ka={self.mode.k * self.a:g}")

    @property
    def dist(self) -> float:
        return self.omega_radius - self.a

    def mu_nu(self, p: float):
        """(mu_p, nu_p) interpolated between the endpoint constants."""
        return interpolate_constants(self.mu_2, self.mu_inf, self.nu_2, self.nu_inf, p)

    def mu(self, p: float) -> float:
        return self.mu_nu(p)[0]

    def nu(self, p: float) -> float:
        return self.mu_nu(p)[1]


def closed_form_constants(mode: WaveMode, a: float, omega_radius: float) -> ConstantSet:
    return ConstantSet(
        mu_inf=mu_closed_form(mode, a, INF),
        mu_2=mu_closed_form(mode, a, 2),
        nu_inf=nu_bound(mode, a, omega_radius, INF),
        nu_2=nu_bound(mode, a, omega_radius, 2),
        mode=mode,
        a=a,
        omega_radius=omega_radius,
        provenance="closed_form",
    )


def _lex_rows(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    return points[order]


def _octahedral_symmetric(centers: np.ndarray) -> bool:
    """True when the node set is invariant under coordinate permutations and sign flips.

    Checking the three group generators suffices; lattice coordinates map to
    each other exactly, so exact comparison is safe.
    """
    ref = _lex_rows(centers)
    swap = centers[:, [1, 0, 2]]
    cycle = centers[:, [1, 2, 0]]
    flip = centers * np.array([-1.0, 1.0, 1.0])
    return all(np.array_equal(_lex_rows(t), ref) for t in (swap, cycle, flip))


def _row_representatives(centers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Indices realizing every symmetry orbit of nodes (one per orbit).

    Row sums of radial kernels over a symmetric node set are constant on
    orbits, so maxima over representatives equal maxima over all nodes.  Falls
    back to all indices when the set lacks the symmetry or weights vary.
    """
    if np.ptp(weights) != 0.0 or not _octahedral_symmetric(centers):
        return np.arange(centers.shape[0])
    canonical = np.sort(np.abs(centers), axis=1)
    _, first = np.unique(canonical.round(decimals=12), axis=0, return_index=True)
    return np.sort(first)


def mu_numeric_sweep(grid: Grid, modes, ps=(2, INF)) -> dict:
    """Quadrature values of mu_p: k^2 times the largest kernel row norm over the nodes.

    Returns a dict keyed by (kind, k, p).  Rows are formed in blocks of
    representative nodes (one per symmetry orbit whenever the grid admits that
    reduction), so no V x V array is stored.  Each block's distances are shared
    by all modes and norms.  The diagonal contribution is the analytic integral
    of |G| (p=inf) or |G|^2 (p=2) over the equal-volume cell.
    """
    modes = list(modes)
    ps = tuple(ps)
    for p in ps:
        if p not in (2, INF):
            raise ValueError("numeric mu is computed for p in {2, inf}")
    centers = grid.centers
    w = grid.weights
    rows_idx = _row_representatives(centers, w)
    best = {(m.kind, m.k, p): 0.0 for m in modes for p in ps}
    for start in range(0, rows_idx.size, _ROW_BLOCK):
        idx = rows_idx[start : start + _ROW_BLOCK]
        local = np.arange(idx.size)
        r = _pairwise_dist(centers[idx], centers)
        r[local, idx] = 1.0  # placeholder, diagonal handled analytically below
        for m in modes:
            absg = kernel_modulus(m, r)
            absg[local, idx] = 0.0
            for p in ps:
                if p == INF:
                    rows = absg @ w + np.array([self_cell_l1(m, w[i]) for i in idx])
                else:
                    rows = (absg * absg) @ w + np.array([self_cell_l2(m, w[i]) for i in idx])
                    rows = np.sqrt(rows)
                key = (m.kind, m.k, p)
                best[key] = max(best[key], float(m.k**2 * rows.max()))
    return best


def numeric_constants(ops) -> ConstantSet:
    """Numeric mu values on the operator set's grid; nu stays a closed-form bound.

    Sharp nu would require maximizing boundary integrals; the certified upper
    bound is used instead, so radii remain certified lower bounds.
    """
    mode = ops.mode
    a = ops.grid.radius_a
    omega = ops.boundary.omega_radius
    vals = mu_numeric_sweep(ops.grid, [mode])
    return ConstantSet(
        mu_inf=vals[(mode.kind, mode.k, INF)],
        mu_2=vals[(mode.kind, mode.k, 2)],
        nu_inf=nu_bound(mode, a, omega, INF),
        nu_2=nu_bound(mode, a, omega, 2),
        mode=mode,
        a=a,
        omega_radius=omega,
        provenance="numeric",
    )


def interpolate_constants(mu2, mu_inf, nu2, nu_inf, p: float):
    """Riesz-Thorin interpolation: x_p = x_2^(2/p) * x_inf^(1-2/p), log-linear in 2/p."""
    _check_p(p)
    t = 0.0 if math.isinf(p) else 2.0 / p
    mu_p = mu2**t * mu_inf ** (1.0 - t)
    nu_p = nu2**t * nu_inf ** (1.0 - t)
    return float(mu_p), float(nu_p)


def convergence_radii(constants: ConstantSet, p: float):
    """(forward_radius, inverse_radius) = (1/mu_p, 1/(mu_p + nu_p))."""
    mu_p, nu_p = constants.mu_nu(p)
    return 1.0 / mu_p, 1.0 / (mu_p + nu_p)


def partition_count(j: int, m: int) -> int:
    """Number of ordered ways to write j as a sum of m positive integers."""
    if not 1 <= m <= j:
        raise ValueError(f"need 1 <= m <= j, got m={m}, j={j}")
    return math.comb(j - 1, m - 1)


def diagram_count(j: int) -> int:
    """Total number of composition terms of order j: 2^(j-1) - 1."""
    if j < 1:
        raise ValueError("order must be >= 1")
    return 2 ** (j - 1) - 1


def compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`.

    Depth-first lexicographic order; the count equals partition_count.
    """
    if parts < 1 or parts > total:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def dilog(x: float) -> float:
    """Dilogarithm Li2(x) = sum_{n>=1} x^n / n^2 for |x| <= 1, as spence(1 - x)."""
    if abs(x) > 1:
        raise ValueError(f"dilog requires |x| <= 1, got {x}")
    if x == 1.0:
        return math.pi**2 / 6.0
    if x == -1.0:
        return -(math.pi**2) / 12.0
    # deferred: importing scipy.special costs ~0.1 s at CLI start-up
    from scipy.special import spence

    return float(spence(1.0 - x))


def series_constant(mu_p: float, nu_p: float, pinv_norm: float):
    """Bounds on the order-independent constant of the inverse-coefficient estimate.

    With q = (mu_p + nu_p) * pinv_norm < 1 the coefficient growth constant is
    bounded by

        c_simple  = exp(1 / (1 - q))
        c_refined = exp(Li2(-q) / ln q + (ln q) / 2)

    The refined value is the Euler-Maclaurin estimate and is the smaller of
    the two throughout (0, 1).
    """
    q = (mu_p + nu_p) * pinv_norm
    if q < 0:
        raise ValueError("inputs must be nonnegative")
    if q >= 1:
        raise ValueError(
            f"outside convergence region: (mu_p + nu_p) * pinv_norm = {q:.6g} >= 1"
        )
    c_simple = math.exp(1.0 / (1.0 - q))
    if q == 0.0:
        return c_simple, 0.0
    c_refined = math.exp(dilog(-q) / math.log(q) + 0.5 * math.log(q))
    return c_simple, c_refined


class CertifiedBounds:
    """Right-hand sides of the convergence, stability and error estimates.

    All three estimates share q = (mu_p + nu_p) * ||pinv||_p < 1 through the
    coefficient constant; each raises ValueError naming the violated
    inequality when evaluated outside its hypothesis region.
    """

    def __init__(self, mu_p: float, nu_p: float, pinv_norm: float):
        self.mu_p = float(mu_p)
        self.nu_p = float(nu_p)
        self.pinv_norm = float(pinv_norm)

    @classmethod
    def from_constants(cls, constants: ConstantSet, p: float, pinv_norm: float):
        return cls(*constants.mu_nu(p), pinv_norm)

    @property
    def msum(self) -> float:
        return self.mu_p + self.nu_p

    @property
    def inverse_radius(self) -> float:
        return 1.0 / self.msum

    @property
    def q(self) -> float:
        """Operator smallness value (mu_p + nu_p) * ||pinv||; must be < 1."""
        return self.msum * self.pinv_norm

    def constant(self) -> float:
        return series_constant(self.mu_p, self.nu_p, self.pinv_norm)[0]

    def remainder_bound(self, order: int, phi_norm: float) -> float:
        """Tail bound C r^(N+1) / (1 - r) with r = (mu+nu) ||pinv|| ||phi||."""
        c = self.constant()
        r = self.q * phi_norm
        if r >= 1:
            raise ValueError(
                f"(mu_p + nu_p) * pinv_norm * phi_norm = {r:.6g} >= 1: series tail not summable"
            )
        return c * r ** (order + 1) / (1.0 - r)

    def stability_constant(self, data_bound: float) -> float:
        """Lipschitz constant C ||pinv|| / (1 - (mu+nu) ||pinv|| M)^2 for data of norm <= M."""
        c = self.constant()
        x = self.q * data_bound
        if x >= 1:
            raise ValueError(
                f"(mu_p + nu_p) * pinv_norm * M = {x:.6g} >= 1: stability hypothesis violated"
            )
        return c * self.pinv_norm / (1.0 - x) ** 2

    def stability_bound(self, data_bound: float, dphi_norm: float) -> float:
        return self.stability_constant(data_bound) * dphi_norm

    def error_bound(
        self, order: int, phi_norm: float, linear_residual: float, state_bound: float
    ) -> float:
        """Reconstruction error bound: C ||(I - P) eta|| + C~ r^N / (1 - r).

        state_bound is max(||eta||, ||P eta||).  The leading constant evaluates
        the geometric sums of the derivation explicitly: with b = (mu+nu) * M
        and q as above,

            C_err = 1 + C (mu+nu)/(1-q) * [1/(1-b)^2 - 1 - q/(1-bq)^2 + q].
        """
        c = self.constant()
        b = self.msum * state_bound
        if b >= 1:
            raise ValueError(
                f"(mu_p + nu_p) * state_bound = {b:.6g} >= 1: error-bound hypothesis violated"
            )
        r = self.q * phi_norm
        if r >= 1:
            raise ValueError(
                f"(mu_p + nu_p) * pinv_norm * phi_norm = {r:.6g} >= 1: series tail not summable"
            )
        q = self.q
        tail_coeff = (
            1.0 / (1.0 - b) ** 2 - 1.0 - q / (1.0 - b * q) ** 2 + q
        )
        c_err = 1.0 + c * self.msum / (1.0 - q) * tail_coeff
        return c_err * linear_residual + c * r**order / (1.0 - r)


def k_from_optical(mu_a_bar: float, mu_s_prime: float) -> float:
    """Diffuse wave number from background absorption and reduced scattering."""
    if mu_a_bar <= 0 or mu_s_prime <= 0:
        raise ValueError("optical coefficients must be positive (k must be positive)")
    return math.sqrt(3.0 * mu_a_bar * mu_s_prime)
