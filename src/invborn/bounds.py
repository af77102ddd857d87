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
from functools import cached_property, partial

import numpy as np

from .greens import (
    WaveMode,
    _ball_factor,
    _ball_l2,
    kernel_modulus,
    lattice_row_sums,
    self_cell_l1,
    self_cell_l2,
)
from .grid import Grid, _check_p

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
    "forward_remainder_bounds",
    "compositions",
    "dilog",
    "k_from_optical",
]

INF = math.inf
P_NORMS = ((2, "2"), (INF, "inf"))  # (p, label) pairs reported by every diagnostic


def _ball_volume(a: float) -> float:
    return 4.0 * math.pi * a**3 / 3.0


def mu_closed_form(mode: WaveMode, a: float, p: float) -> float:
    """Closed-form mu_p: k^2 ||G||_L1 (p=inf) or ||G||_L2 (p=2) over the radius-a ball about 0.

    diffuse: mu_inf = 1 - (1 + ka) e^{-ka},  mu_2 = k^2 ((1 - e^{-2ka}) / (8 pi k))^(1/2)
             (both evaluated without cancellation as ka -> 0)
    scalar:  mu_inf = (ka)^2 / 2,            mu_2 = k^2 (a / (4 pi))^(1/2)
    """
    if not a > 0:
        raise ValueError("a must be positive")
    if p not in (2, INF):
        raise ValueError("closed forms are available for p in {2, inf}; interpolate otherwise")
    k = mode.k
    if p == INF:
        return (k * a) ** 2 * _ball_factor(mode.kappa.real * a).real
    return k**2 * math.sqrt(_ball_l2(mode, a))


def nu_bound(mode: WaveMode, a: float, omega_radius: float, p: float) -> float:
    """Closed-form upper bound on nu_p for concentric ball/sphere geometry.

    With d = omega_radius - a the closest approach of the boundary to the
    support:

    diffuse: nu_inf <= k^2 |B| e^{-2kd} / (4 pi d)^2,
             nu_2   <= k^2 |S| |B|^(1/2) e^{-2kd} / (4 pi d)^2
    scalar:  the same expressions without the exponential factor.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    if not math.isfinite(omega_radius):
        raise ValueError(f"omega_radius must be finite, got {omega_radius}")
    if omega_radius <= a:
        raise ValueError(
            f"measurement sphere must enclose the support: omega_radius={omega_radius} <= a={a}"
        )
    if p not in (2, INF):
        raise ValueError("closed forms are available for p in {2, inf}; interpolate otherwise")
    k = mode.k
    dist = omega_radius - a
    vol = _ball_volume(a)
    decay = math.exp(-2.0 * mode.kappa.real * dist)  # 1 for the scalar kernel
    denom = (4.0 * math.pi * dist) ** 2
    factors = (vol,) if p == INF else (4.0 * math.pi * omega_radius**2, math.sqrt(vol))
    value = k**2
    for f in factors:
        value *= f
    value = value * decay / denom
    if mode.kind == "diffuse" and not (decay > 0.0 and math.isfinite(value)):
        # at ka ~ 1e154 k^2 |B| overflows where e^{-2kd} underflows (inf * 0); in logs
        # the decay wins
        logs = 2.0 * math.log(k) + sum(map(math.log, factors)) - 2.0 * k * dist
        value = math.exp(logs - math.log(denom))
    return value


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
            ka = self.mode.k * self.a
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v} at ka={ka:g}")
            if v == 0 and name.startswith("mu"):  # every radius divides by mu
                raise ValueError(f"{name} underflows to 0 at ka={ka:g}")

    def mu_nu(self, p: float):
        """(mu_p, nu_p) interpolated between the endpoint constants."""
        return interpolate_constants(self.mu_2, self.mu_inf, self.nu_2, self.nu_inf, p)


def closed_form_constants(mode: WaveMode, a: float, omega_radius: float) -> ConstantSet:
    try:  # k**2 on a Python float raises rather than returning inf
        mu_inf, mu_2 = mu_closed_form(mode, a, INF), mu_closed_form(mode, a, 2)
        nu_inf, nu_2 = nu_bound(mode, a, omega_radius, INF), nu_bound(mode, a, omega_radius, 2)
    except OverflowError:
        raise ValueError(f"closed-form constants overflow at ka={mode.k * a:g}") from None
    return ConstantSet(mu_inf, mu_2, nu_inf, nu_2, mode, a, omega_radius, "closed_form")


def mu_numeric_sweep(grid: Grid, modes) -> dict:
    """Quadrature values of mu_p: k^2 times the largest kernel row norm over the nodes.

    Returns a dict keyed by (kind, k, p), p over both norms of P_NORMS.  The
    off-diagonal row sums of |G| (p=inf) and |G|^2 (p=2) come from
    greens.lattice_row_sums, one FFT convolution per mode and kernel power on
    the grid's lattice, so no V x V array is formed; a grid whose nodes are off
    that lattice raises ValueError.  The diagonal contribution is the analytic
    integral of |G| or |G|^2 over the equal-volume cell, evaluated once per
    distinct weight.
    """
    modes = list(modes)
    weights, which = np.unique(grid.weights, return_inverse=True)
    absg = [partial(kernel_modulus, m) for m in modes]
    sums = lattice_row_sums(grid, [f for a in absg for f in (a, lambda r, a=a: a(r) ** 2)])
    best = {}
    for m, l1, l2 in zip(modes, sums[0::2], sums[1::2]):
        l1 += np.array([self_cell_l1(m, w) for w in weights])[which]
        l2 += np.array([self_cell_l2(m, w) for w in weights])[which]
        best[(m.kind, m.k, INF)] = float(m.k**2 * l1.max())
        best[(m.kind, m.k, 2)] = float(m.k**2 * np.sqrt(l2).max())
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
    if not all(0 <= c < INF for c in (mu2, mu_inf, nu2, nu_inf)):
        raise ValueError(
            f"constants must be nonnegative and finite, got {(mu2, mu_inf, nu2, nu_inf)}"
        )
    t = 0.0 if math.isinf(p) else 2.0 / p
    mu_p = mu2**t * mu_inf ** (1.0 - t)
    nu_p = nu2**t * nu_inf ** (1.0 - t)
    return float(mu_p), float(nu_p)


def _radii(mu_p: float, nu_p: float):
    return 1.0 / mu_p, 1.0 / (mu_p + nu_p)


def convergence_radii(constants: ConstantSet, p: float):
    """(forward_radius, inverse_radius) = (1/mu_p, 1/(mu_p + nu_p))."""
    return _radii(*constants.mu_nu(p))


def compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`.

    Depth-first lexicographic order; there are math.comb(total - 1, parts - 1).
    """
    if parts < 1 or parts > total:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def _li2_series(x: float) -> float:
    """Li2(x) for 0 <= x <= 1/2: 63 terms of its power series reach below 2^-62 of the first."""
    return math.fsum(x**n / (n * n) for n in range(1, 64))


def dilog(x: float) -> float:
    """Dilogarithm Li2(x) = sum_{n>=1} x^n / n^2 for |x| <= 1, from its series on [0, 1/2].

    Landen's identity maps [-1, 0), and the reflection formula (1/2, 1), onto that interval.
    """
    if not abs(x) <= 1:
        raise ValueError(f"dilog requires |x| <= 1, got {x}")
    if x == 1.0:
        return math.pi**2 / 6.0
    if x < 0.0:
        return -_li2_series(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    if x <= 0.5:
        return _li2_series(x)
    return math.fsum((math.pi**2 / 6.0, -math.log(x) * math.log1p(-x), -_li2_series(1.0 - x)))


def _violation(expression: str, value: float) -> str | None:
    """The message for a failed smallness hypothesis ``expression < 1`` (NaN fails), else None."""
    return None if value < 1.0 else f"{expression} = {value:.6g} >= 1"


def forward_remainder_bounds(constants: ConstantSet, p: float, eta_norm: float, order: int):
    """Bounds (nu_p/mu_p) q^(n+1) / (1 - q) on ||phi - S_n||_p, n = 1..order, q = mu_p ||eta||_p.

    None outside the forward region q < 1 (||eta||_p below the forward radius 1/mu_p).
    """
    if eta_norm < 0:
        raise ValueError(f"eta_norm must be nonnegative, got {eta_norm}")
    mu_p, nu_p = constants.mu_nu(p)
    q = mu_p * eta_norm
    if _violation("mu_p * eta_norm", q):
        return None
    return [(nu_p / mu_p) * q ** (n + 1) / (1.0 - q) for n in range(1, order + 1)]


class CertifiedBounds:
    """Hypotheses and right-hand sides of the convergence, stability and error estimates.

    All three estimates share q = (mu_p + nu_p) * ||pinv||_p < 1 through the
    coefficient constant and add a data or state smallness hypothesis.  Each
    estimate raises ValueError naming the violated inequality outside its
    region; the ``*_report`` methods give None there instead.  A negative input
    raises ValueError at construction; a NaN one is kept and fails each hypothesis it enters.
    """

    def __init__(self, mu_p: float, nu_p: float, pinv_norm: float):
        self.mu_p = float(mu_p)
        self.nu_p = float(nu_p)
        self.pinv_norm = float(pinv_norm)
        if any(v < 0 for v in (self.mu_p, self.nu_p, self.pinv_norm)):
            raise ValueError("inputs must be nonnegative")

    @classmethod
    def from_constants(cls, constants: ConstantSet, p: float, pinv_norm: float):
        return cls(*constants.mu_nu(p), pinv_norm)

    @property
    def msum(self) -> float:
        return self.mu_p + self.nu_p

    @property
    def inverse_radius(self) -> float:
        return _radii(self.mu_p, self.nu_p)[1]

    @property
    def q(self) -> float:
        """Operator smallness value (mu_p + nu_p) * ||pinv||; must be < 1."""
        return self.msum * self.pinv_norm

    def r(self, data_norm: float) -> float:
        """Data smallness value (mu_p + nu_p) * ||pinv|| * ||phi||; must be < 1."""
        return self.q * data_norm

    def operator_violation(self) -> str | None:
        return _violation("(mu_p + nu_p) * pinv_norm", self.q)

    def data_violation(self, data_norm: float, name: str = "phi_norm") -> str | None:
        return _violation(f"(mu_p + nu_p) * pinv_norm * {name}", self.r(data_norm))

    def state_violation(self, state_bound: float) -> str | None:
        return _violation("(mu_p + nu_p) * state_bound", self.msum * state_bound)

    def first_term_ok(self, eta1_norm: float) -> bool:
        """First-term smallness ||eta_1||_p < 1 / (mu_p + nu_p)."""
        return eta1_norm < self.inverse_radius

    def violations(self, phi_norm: float) -> list:
        """The failed hypotheses of the tail and stability bounds for data of norm phi_norm."""
        return [v for v in (self.operator_violation(), self.data_violation(phi_norm)) if v]

    @cached_property
    def series_constants(self) -> tuple:
        """Bounds (c_simple, c_refined) on the order-independent series constant C.

        Evaluated once.  With q = (mu_p + nu_p) * pinv_norm < 1 the coefficient
        growth constant is bounded by

            c_simple  = exp(1 / (1 - q))
            c_refined = exp(Li2(-q) / ln q + (ln q) / 2)

        The refined value is the Euler-Maclaurin estimate and is the smaller of
        the two throughout (0, 1).  The estimates below use c_simple.
        """
        q = self.q
        if self.operator_violation():
            raise ValueError(f"outside convergence region: {self.operator_violation()}")
        try:  # the refined exponent is the smaller one, so only c_simple can overflow
            c_simple = math.exp(1.0 / (1.0 - q))
        except OverflowError:
            raise ValueError(f"the series constant exp(1 / (1 - q)) overflows at q={q!r}") from None
        if q == 0.0:
            return c_simple, 0.0
        return c_simple, math.exp(dilog(-q) / math.log(q) + 0.5 * math.log(q))

    @staticmethod
    def _require(violation: str | None, consequence: str):
        if violation:
            raise ValueError(f"{violation}: {consequence}")

    def remainder_bound(self, order: int, phi_norm: float) -> float:
        """Tail bound C r^(N+1) / (1 - r) with r = (mu+nu) ||pinv|| ||phi||."""
        c = self.series_constants[0]
        self._require(self.data_violation(phi_norm), "series tail not summable")
        r = self.r(phi_norm)
        return c * r ** (order + 1) / (1.0 - r)

    def stability_constant(self, data_bound: float) -> float:
        """Lipschitz constant C ||pinv|| / (1 - (mu+nu) ||pinv|| M)^2 for data of norm <= M."""
        c = self.series_constants[0]
        self._require(self.data_violation(data_bound, "M"), "stability hypothesis violated")
        return c * self.pinv_norm / (1.0 - self.r(data_bound)) ** 2

    def error_bound(
        self, order: int, phi_norm: float, linear_residual: float, state_bound: float
    ) -> float:
        """Reconstruction error bound: C ||(I - P) eta|| + C~ r^N / (1 - r).

        state_bound is max(||eta||, ||P eta||).  The leading constant evaluates
        the geometric sums of the derivation explicitly: with b = (mu+nu) * M
        and q as above,

            C_err = 1 + C (mu+nu)/(1-q) * [1/(1-b)^2 - 1 - q/(1-bq)^2 + q].
        """
        c = self.series_constants[0]
        self._require(self.state_violation(state_bound), "error-bound hypothesis violated")
        self._require(self.data_violation(phi_norm), "series tail not summable")
        b = self.msum * state_bound
        q, r = self.q, self.r(phi_norm)
        tail_coeff = 1.0 / (1.0 - b) ** 2 - 1.0 - q / (1.0 - b * q) ** 2 + q
        c_err = 1.0 + c * self.msum / (1.0 - q) * tail_coeff
        return c_err * linear_residual + c * r**order / (1.0 - r)

    def tail_report(self, order: int, phi_norm: float) -> dict:
        """Constants, tail bounds for orders 1..order and the stability constant at M = phi_norm."""
        if self.violations(phi_norm):
            return dict.fromkeys(("c_simple", "c_refined", "tail_bound", "stability_constant"))
        return {
            "c_simple": self.series_constants[0],
            "c_refined": self.series_constants[1],
            "tail_bound": [self.remainder_bound(n, phi_norm) for n in range(1, order + 1)],
            "stability_constant": self.stability_constant(phi_norm),
        }

    def error_report(self, order, phi_norm, linear_residual, state_bound) -> dict:
        """The state smallness flag and the error bounds for orders 1..order."""
        state_ok = self.state_violation(state_bound) is None
        bound = None
        if state_ok and not self.violations(phi_norm):
            args = (phi_norm, linear_residual, state_bound)
            bound = [self.error_bound(n, *args) for n in range(1, order + 1)]
        return {"hyp_state_ok": state_ok, "error_bound": bound}

    def stability_report(self, data_bound: float, dphi_norm: float) -> dict:
        """Hypothesis flags, stability constant and bound for data of norm <= data_bound."""
        operator_ok = self.operator_violation() is None
        data_ok = self.data_violation(data_bound, "M") is None
        ctilde = self.stability_constant(data_bound) if operator_ok and data_ok else None
        return {
            "hyp_operator_ok": operator_ok,
            "hyp_data_bound_ok": data_ok,
            "stability_constant": ctilde,
            "rhs": None if ctilde is None else ctilde * dphi_norm,
        }


def k_from_optical(mu_a_bar: float, mu_s_prime: float) -> float:
    """Diffuse wave number from background absorption and reduced scattering."""
    k2 = 3.0 * mu_a_bar * mu_s_prime
    if not (0 < mu_a_bar and 0 < mu_s_prime and 0 < k2 < INF):  # so each is finite too
        raise ValueError("optical coefficients must be positive and finite (k must be positive)")
    return math.sqrt(k2)
