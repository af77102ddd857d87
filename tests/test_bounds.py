import math
import tracemalloc

import numpy as np
import pytest

from invborn import (
    ConstantSet,
    CertifiedBounds,
    WaveMode,
    assemble,
    build_ball_grid,
    build_sphere_boundary,
    closed_form_constants,
    convergence_radii,
    dilog,
    interpolate_constants,
    k_from_optical,
    mu_closed_form,
    mu_numeric_sweep,
    nu_bound,
)
from invborn.bounds import compositions, forward_remainder_bounds
from invborn.greens import self_cell_l2
from invborn.grid import Grid

INF = math.inf


class TestClosedForms:
    def test_diffuse_sup_value(self):
        got = mu_closed_form(WaveMode.diffuse(1.0), 1.0, INF)
        assert abs(got - (1 - 2 * math.exp(-1))) <= 1e-12

    def test_diffuse_sup_formula_general(self):
        for k, a in [(0.5, 1.0), (2.0, 1.5), (7.0, 0.3)]:
            got = mu_closed_form(WaveMode.diffuse(k), a, INF)
            assert got == pytest.approx(1 - (1 + k * a) * math.exp(-k * a), rel=1e-14)

    def test_diffuse_l2_value(self):
        got = mu_closed_form(WaveMode.diffuse(1.0), 1.0, 2)
        expected = math.exp(-0.5) * math.sqrt(math.sinh(1.0) / (4 * math.pi))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_diffuse_small_ka_has_no_cancellation(self):
        ka = 1e-9
        mode = WaveMode.diffuse(ka)
        assert mu_closed_form(mode, 1.0, INF) == pytest.approx(5e-19, rel=1e-9, abs=0)
        l2 = ka**2 * math.sqrt((1 - ka) / (4 * math.pi))  # -expm1(-2ka) / 2ka = 1 - ka + ...
        assert mu_closed_form(mode, 1.0, 2) == pytest.approx(l2, rel=1e-12, abs=0)

    def test_scalar_sup_exact(self):
        assert mu_closed_form(WaveMode.scalar(2.0), 1.0, INF) == 2.0
        assert mu_closed_form(WaveMode.scalar(1.0), 3.0, INF) == 4.5

    def test_scalar_l2_radial_integral(self):
        # k^2 (int_ball (4 pi r^2) / (4 pi r)^2 dr)^(1/2) = k^2 sqrt(a / 4 pi)
        got = mu_closed_form(WaveMode.scalar(1.3), 0.8, 2)
        assert got == pytest.approx(1.3**2 * math.sqrt(0.8 / (4 * math.pi)), rel=1e-14)


def _per_mode_mu(mode, a, p):
    """The four per-mode mu_p formulas that greens' ball integrals replaced."""
    from invborn.greens import _ball_factor

    k = mode.k
    ka = k * a
    if mode.kind == "diffuse":
        if p == INF:
            return ka**2 * _ball_factor(ka).real
        return k**2 * math.sqrt(-math.expm1(-2.0 * ka) / (8.0 * math.pi * k))
    if p == INF:
        return 0.5 * ka**2
    return k**2 * math.sqrt(a / (4.0 * math.pi))


def _per_mode_nu(mode, a, omega_radius, p):
    """nu_bound with the decay written per mode."""
    k = mode.k
    dist = omega_radius - a
    vol = 4.0 * math.pi * a**3 / 3.0
    decay = math.exp(-2.0 * k * dist) if mode.kind == "diffuse" else 1.0
    denom = (4.0 * math.pi * dist) ** 2
    factors = (vol,) if p == INF else (4.0 * math.pi * omega_radius**2, math.sqrt(vol))
    value = k**2
    for f in factors:
        value *= f
    value = value * decay / denom
    if mode.kind == "diffuse" and not (decay > 0.0 and math.isfinite(value)):
        logs = 2.0 * math.log(k) + sum(map(math.log, factors)) - 2.0 * k * dist
        value = math.exp(logs - math.log(denom))
    return value


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_closed_forms_match_per_mode_formulas_bit_for_bit(kind):
    for k in (1e-9, 1e-3, 0.37, 1.0, 2.5, 13.0, 1e3, 1e150):
        for a, omega in ((0.05, 0.1), (0.7, 2.0), (1.0, 2.0), (2.3, 3.1), (10.0, 10.5)):
            mode = WaveMode(kind, k)
            for p in (2, INF):
                got, ref = mu_closed_form(mode, a, p), _per_mode_mu(mode, a, p)
                assert got.hex() == ref.hex(), (k, a, p)
                got, ref = nu_bound(mode, a, omega, p), _per_mode_nu(mode, a, omega, p)
                assert got.hex() == ref.hex(), (k, a, omega, p)


class TestNuBounds:
    def test_diffuse_sup_example(self):
        got = nu_bound(WaveMode.diffuse(1.0), 1.0, 2.0, INF)
        assert got == pytest.approx(math.exp(-2) / (12 * math.pi), rel=1e-13)

    def test_scalar_sup_example(self):
        got = nu_bound(WaveMode.scalar(1.0), 1.0, 2.0, INF)
        assert got == pytest.approx(1.0 / (12 * math.pi), rel=1e-13)

    def test_diffuse_l2_form(self):
        k, a, omega = 1.0, 1.0, 2.0
        vol = 4 * math.pi / 3
        area = 16 * math.pi
        expected = k**2 * area * math.sqrt(vol) * math.exp(-2 * k) / (4 * math.pi) ** 2
        assert nu_bound(WaveMode.diffuse(k), a, omega, 2) == pytest.approx(expected, rel=1e-13)

    def test_vanishes_for_large_k_diffuse(self):
        vals = [nu_bound(WaveMode.diffuse(k), 1.0, 2.0, INF) for k in (1, 10, 100)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-80

    def test_rejects_enclosed_geometry(self):
        with pytest.raises(ValueError):
            nu_bound(WaveMode.diffuse(1.0), 1.0, 1.0, INF)

    @pytest.mark.parametrize("omega", [INF, math.nan])
    def test_rejects_non_finite_omega_radius(self, omega):
        for mode in (WaveMode.diffuse(1.0), WaveMode.scalar(1.0)):
            with pytest.raises(ValueError, match="omega_radius must be finite"):
                nu_bound(mode, 1.0, omega, INF)


class TestInterpolation:
    def test_endpoints(self):
        mu2, mu_inf, nu2, nu_inf = 0.18548, 0.26424, 0.088, 0.0036
        assert interpolate_constants(mu2, mu_inf, nu2, nu_inf, 2) == (mu2, nu2)
        assert interpolate_constants(mu2, mu_inf, nu2, nu_inf, INF) == (mu_inf, nu_inf)

    def test_geometric_mean_at_p_four(self):
        mu_p, _ = interpolate_constants(0.18547, 0.264241, 1.0, 1.0, 4)
        assert mu_p == pytest.approx(math.sqrt(0.18547 * 0.264241), rel=1e-13)

    def test_log_linear_in_two_over_p(self):
        mu2, mu_inf = 0.11, 0.43
        for p in (2, 2.5, 4, 8, 100, INF):
            t = 0.0 if math.isinf(p) else 2.0 / p
            expected = math.exp(t * math.log(mu2) + (1 - t) * math.log(mu_inf))
            got, _ = interpolate_constants(mu2, mu_inf, 1.0, 1.0, p)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            interpolate_constants(1, 1, 1, 1, 1.5)


class TestRadii:
    def test_inverse_radius_example(self):
        cs = closed_form_constants(WaveMode.diffuse(1.0), 1.0, 2.0)
        _, inv_radius = convergence_radii(cs, INF)
        expected = 1.0 / (cs.mu_inf + cs.nu_inf)
        assert inv_radius == pytest.approx(expected, rel=1e-14)
        assert inv_radius == pytest.approx(3.734, rel=1e-3)

    def test_forward_radius_is_reciprocal_mu(self):
        cs = closed_form_constants(WaveMode.diffuse(2.0), 1.0, 2.0)
        fwd, _ = convergence_radii(cs, 2)
        assert fwd == pytest.approx(1.0 / cs.mu_2, rel=1e-14)

    def test_large_ka_diffuse_sup_radius_near_one(self):
        cs = closed_form_constants(WaveMode.diffuse(30.0), 1.0, 2.0)
        _, inv_radius = convergence_radii(cs, INF)
        assert 0.9 < inv_radius <= 1.0 + 1e-9

    def test_scalar_large_ka_scaling(self):
        cs = closed_form_constants(WaveMode.scalar(10.0), 1.0, 2.0)
        _, inv_radius = convergence_radii(cs, INF)
        assert inv_radius * 10.0**2 / 2 == pytest.approx(1.0 / (1 + 1 / (6 * math.pi)), rel=1e-12)

    def test_radii_decrease_in_each_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mu, nu = rng.uniform(0.01, 2.0, 2)
            bump = rng.uniform(0.01, 1.0)
            base = 1.0 / (mu + nu)
            assert 1.0 / (mu + bump + nu) < base
            assert 1.0 / (mu + nu + bump) < base
            assert 1.0 / (mu + bump) < 1.0 / mu


class TestPartitions:
    def test_count_matches_enumeration(self):
        for j in range(1, 9):
            for m in range(1, j + 1):
                assert math.comb(j - 1, m - 1) == len(list(compositions(j, m)))

    def test_known_values(self):
        assert len(list(compositions(4, 2))) == 3
        assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
        for j in (1, 3, 6):
            assert list(compositions(j, 1)) == [(j,)]

    def test_diagram_count(self):
        # the inverse recursion sums 2^(j-1) - 1 compositions with m >= 2 parts at order j
        for j in range(2, 10):
            assert 2 ** (j - 1) - 1 == sum(len(list(compositions(j, m))) for m in range(2, j + 1))

    def test_compositions_lexicographic(self):
        got = list(compositions(5, 3))
        assert got == sorted(got)


class TestDilog:
    def test_against_integral_oracle(self):
        from scipy.integrate import quad

        for x in (-0.9, -0.5, -0.1, 0.3, 0.7):
            oracle, _ = quad(lambda t: -math.log1p(-t) / t, 0.0, x, epsabs=1e-14)
            assert dilog(x) == pytest.approx(oracle, abs=1e-12)

    def test_unit_arguments(self):
        assert dilog(1.0) == pytest.approx(math.pi**2 / 6)
        assert dilog(-1.0) == pytest.approx(-(math.pi**2) / 12)

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            dilog(1.2)

    def test_within_four_ulp_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        xs = [float(x) for x in np.linspace(-1.0, 1.0, 2001)]
        for x in xs + [1.0, -1.0, 0.0, 0.5, -0.5, 1.0 - 1e-12]:
            want = mpmath.polylog(2, x)
            err = abs(mpmath.mpf(dilog(x)) - want)
            assert err <= 4 * math.ulp(float(want)), x


@pytest.mark.parametrize(
    "a, p, message",
    [
        (0.0, 2, "a must be positive"),
        (-1.0, INF, "a must be positive"),
        (1.0, 3, "closed forms are available for p in"),
    ],
)
def test_closed_forms_refuse_a_non_positive_radius_and_other_p(a, p, message):
    mode = WaveMode.diffuse(1.0)
    with pytest.raises(ValueError, match=message):
        mu_closed_form(mode, a, p)
    with pytest.raises(ValueError, match=message):
        nu_bound(mode, a, 2.0, p)


class TestSeriesConstant:
    def test_simple_bound_at_half(self):
        c_simple, _ = CertifiedBounds(0.25, 0.25, 1.0).series_constants  # q = 0.5
        assert c_simple == pytest.approx(math.exp(2.0), rel=1e-13)

    def test_small_q_limits(self):
        c_simple, c_refined = CertifiedBounds(1e-9, 1e-9, 1.0).series_constants
        assert c_simple == pytest.approx(math.e, rel=1e-6)
        assert math.isfinite(c_refined)

    def test_refined_below_simple(self):
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            c_simple, c_refined = CertifiedBounds(q, 0.0, 1.0).series_constants
            assert 0 < c_refined <= c_simple

    def test_outside_region_raises(self):
        with pytest.raises(ValueError, match="outside convergence region"):
            CertifiedBounds(0.5, 0.5, 1.0).series_constants

    def test_zero_q_has_no_refined_constant(self):
        assert CertifiedBounds(0.0, 0.0, 1.0).series_constants == (math.e, 0.0)

    def test_negative_q_raises(self):
        with pytest.raises(ValueError, match="inputs must be nonnegative"):
            CertifiedBounds(-0.25, 0.0, 1.0).series_constants

    @pytest.mark.parametrize("half_q", [0.4995, 0.49999])
    def test_overflow_inside_region_names_q(self, half_q):
        # exp(1 / (1 - q)) overflows for q > 1 - 1/709.78, inside the region q < 1
        tb = CertifiedBounds(half_q, half_q, 1.0)
        with pytest.raises(ValueError, match=f"overflows at q={2 * half_q!r}"):
            tb.series_constants
        with pytest.raises(ValueError, match="overflows at q="):
            tb.tail_report(3, 0.5)


class TestCertifiedBounds:
    def test_remainder_bound_example(self):
        tb = CertifiedBounds(0.25, 0.25, 1.0)  # q = 0.5
        got = tb.remainder_bound(order=3, phi_norm=1.0)  # r = 0.5
        assert got == pytest.approx(2 * math.exp(2) * 0.5**4, rel=1e-13)

    def test_remainder_zero_data(self):
        tb = CertifiedBounds(0.25, 0.25, 1.0)
        assert tb.remainder_bound(order=5, phi_norm=0.0) == 0.0

    def test_remainder_decreases_in_order(self):
        tb = CertifiedBounds(0.2, 0.1, 1.0)
        vals = [tb.remainder_bound(n, 0.5) for n in range(1, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_stability_zero_perturbation(self):
        tb = CertifiedBounds(0.25, 0.25, 1.0)
        assert tb.stability_report(data_bound=0.5, dphi_norm=0.0)["rhs"] == 0.0

    def test_stability_constant_formula(self):
        tb = CertifiedBounds(0.1, 0.1, 2.0)  # q = 0.4
        got = tb.stability_constant(data_bound=1.0)
        expected = math.exp(1 / 0.6) * 2.0 / (1 - 0.4) ** 2
        assert got == pytest.approx(expected, rel=1e-13)

    def test_error_bound_formula(self):
        mu_p, nu_p, pinv = 0.1, 0.1, 2.0  # q = 0.4
        tb = CertifiedBounds(mu_p, nu_p, pinv)
        n, phi_norm, linres, state = 3, 0.5, 0.01, 1.0
        q = 0.4
        b = 0.2
        c = math.exp(1 / (1 - q))
        bracket = 1 / (1 - b) ** 2 - 1 - q / (1 - b * q) ** 2 + q
        c_err = 1 + c * 0.2 / (1 - q) * bracket
        r = q * phi_norm
        expected = c_err * linres + c * r**n / (1 - r)
        assert tb.error_bound(n, phi_norm, linres, state) == pytest.approx(expected, rel=1e-12)

    def test_hypothesis_violations_named(self):
        tb = CertifiedBounds(0.4, 0.4, 2.0)  # q = 1.6
        with pytest.raises(ValueError, match="outside convergence region"):
            tb.remainder_bound(2, 0.1)
        tb2 = CertifiedBounds(0.1, 0.1, 2.0)
        with pytest.raises(ValueError, match="state_bound"):
            tb2.error_bound(2, 0.1, 0.01, state_bound=10.0)
        with pytest.raises(ValueError, match="phi_norm"):
            tb2.remainder_bound(2, phi_norm=10.0)


class TestHypotheses:
    def test_violations_name_each_failed_hypothesis(self):
        assert CertifiedBounds(0.1, 0.1, 2.0).violations(0.5) == []  # q = 0.4, r = 0.2
        assert CertifiedBounds(0.1, 0.1, 2.0).violations(5.0) == [
            "(mu_p + nu_p) * pinv_norm * phi_norm = 2 >= 1"
        ]
        assert CertifiedBounds(0.4, 0.4, 2.0).violations(0.1) == [
            "(mu_p + nu_p) * pinv_norm = 1.6 >= 1"
        ]

    def test_nan_counts_as_violated(self):
        tb = CertifiedBounds(0.1, 0.1, math.nan)
        assert tb.violations(0.5) == [
            "(mu_p + nu_p) * pinv_norm = nan >= 1",
            "(mu_p + nu_p) * pinv_norm * phi_norm = nan >= 1",
        ]
        assert tb.tail_report(2, 0.5)["tail_bound"] is None

    def test_first_term_smallness_uses_inverse_radius(self):
        tb = CertifiedBounds(0.1, 0.3, 2.0)
        assert tb.inverse_radius == convergence_radii(
            ConstantSet(0.1, 0.1, 0.3, 0.3, WaveMode.diffuse(1.0), 1.0, 2.0, "numeric"), 2
        )[1]
        assert tb.first_term_ok(2.4999) and not tb.first_term_ok(2.5)

    def test_forward_remainder_bounds_region(self):
        cs = closed_form_constants(WaveMode.diffuse(1.0), 1.0, 2.0)
        radius = convergence_radii(cs, INF)[0]
        assert forward_remainder_bounds(cs, INF, 0.0, 3) == [0.0, 0.0, 0.0]
        assert forward_remainder_bounds(cs, INF, radius * (1 + 1e-12), 3) is None
        q = 0.5
        got = forward_remainder_bounds(cs, INF, q * radius, 2)
        ratio = cs.nu_inf / cs.mu_inf
        assert got == pytest.approx([ratio * q**2 / (1 - q), ratio * q**3 / (1 - q)], rel=1e-14)


def reweighted(grid, weights):
    return Grid(centers=grid.centers, weights=weights, spacing=grid.spacing, radius_a=1.0)


def jittered(grid):
    """Copy of grid with one weight perturbed: two distinct self-cell terms, one node apart."""
    weights = grid.weights.copy()
    weights[0] *= 1.0 + 1e-13
    return reweighted(grid, weights)


def dense_mu(mode, grid):
    """(mu_inf, mu_2) from the rows of the assembled g_vv, for the positive diffuse kernel.

    k^2 times the largest absolute row sum of g_vv is mu_inf by definition; off
    the diagonal g_vv[i, j]^2 / w_j = |G_ij|^2 w_j gives the L2 rows.
    """
    g_vv = assemble(mode, grid, build_sphere_boundary(2.0, 2, 2)).g_vv
    w = grid.weights
    off = g_vv.copy()
    np.fill_diagonal(off, 0.0)
    l2_rows = (off**2 / w).sum(axis=1) + [self_cell_l2(mode, wi) for wi in w]
    return mode.k**2 * np.abs(g_vv).sum(axis=1).max(), mode.k**2 * np.sqrt(l2_rows).max()


class TestNumericMu:
    def test_converges_to_closed_form_with_rate(self):
        mode = WaveMode.diffuse(1.0)
        hs = [1 / 4, 1 / 8, 1 / 16]
        sweeps = [mu_numeric_sweep(build_ball_grid(1.0, h), [mode]) for h in hs]
        for p in (2, INF):
            ref = mu_closed_form(mode, 1.0, p)
            errs = [abs(vals[("diffuse", 1.0, p)] - ref) / ref for vals in sweeps]
            rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert rate >= 0.8

    def test_small_k_values_vanish(self):
        grid = build_ball_grid(1.0, 0.25)
        ks = (0.5, 0.1, 0.01)
        sweep = mu_numeric_sweep(grid, [WaveMode.diffuse(k) for k in ks])
        vals = [sweep[("diffuse", k, INF)] for k in ks]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    @pytest.mark.parametrize("variant", ["random_weights", "subset"])
    def test_matches_dense_rows_off_the_uniform_grid(self, variant):
        # a varying weight or an irregular subset of the lattice breaks the ball's symmetry
        grid = build_ball_grid(1.0, 0.25)
        if variant == "random_weights":
            rng = np.random.default_rng(7)
            grid = reweighted(grid, grid.spacing**3 * rng.uniform(0.5, 2.0, grid.n_nodes))
            assert np.unique(grid.weights).size == grid.n_nodes
        else:
            grid = grid.subset(np.arange(0, grid.n_nodes, 3))
        for mode in (WaveMode.diffuse(1.2), WaveMode.diffuse(5.0)):
            mu_inf, mu_2 = dense_mu(mode, grid)
            vals = mu_numeric_sweep(grid, [mode])
            assert vals[(mode.kind, mode.k, INF)] == pytest.approx(mu_inf, rel=1e-13, abs=0)
            assert vals[(mode.kind, mode.k, 2)] == pytest.approx(mu_2, rel=1e-13, abs=0)

    @pytest.mark.parametrize("jitter", [False, True])
    def test_matches_assembled_operator_rows(self, jitter):
        grid = build_ball_grid(1.0, 0.25)
        if jitter:
            grid = jittered(grid)
        assert grid.n_nodes == 280
        mode = WaveMode.diffuse(1.2)
        mu_inf, mu_2 = dense_mu(mode, grid)
        vals = mu_numeric_sweep(grid, [mode])
        assert vals[("diffuse", 1.2, INF)] == pytest.approx(mu_inf, rel=1e-13, abs=0)
        assert vals[("diffuse", 1.2, 2)] == pytest.approx(mu_2, rel=1e-13, abs=0)

    def test_refuses_nodes_off_the_lattice(self):
        grid = build_ball_grid(1.0, 0.25)
        centers = grid.centers.copy()
        centers[5, 2] += 1e-4 * grid.spacing
        nudged = Grid(centers=centers, weights=grid.weights, spacing=grid.spacing, radius_a=1.0)
        with pytest.raises(ValueError, match="off the lattice of spacing 0.25"):
            mu_numeric_sweep(nudged, [WaveMode.diffuse(1.0)])

    def test_refuses_coincident_nodes(self):
        grid = build_ball_grid(1.0, 0.25)
        doubled = grid.subset(np.r_[np.arange(grid.n_nodes), 0])
        with pytest.raises(ValueError, match="coincident nodes"):
            mu_numeric_sweep(doubled, [WaveMode.diffuse(1.0)])

    def test_peak_memory_is_far_below_one_volume_kernel(self):
        # 5 * 128 * V doubles: a few MB here, where one V x V kernel takes 416 MB
        grid = build_ball_grid(1.0, 1 / 12)
        tracemalloc.start()
        try:
            mu_numeric_sweep(grid, [WaveMode.diffuse(1.0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 128 * grid.n_nodes * 8


class TestOpticalConversion:
    def test_unit_example(self):
        assert k_from_optical(1.0 / 3.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_millimeter_example(self):
        assert k_from_optical(0.02, 1.0) == pytest.approx(math.sqrt(0.06), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            k_from_optical(0.0, 1.0)


def test_numeric_constants_from_operator_set(small_ops):
    from invborn import numeric_constants

    cs = numeric_constants(small_ops)
    assert cs.provenance == "numeric"
    ref = closed_form_constants(small_ops.mode, 1.0, 2.0)
    # numeric mu is a quadrature of the same integral; nu stays the closed-form bound
    assert cs.mu_inf == pytest.approx(ref.mu_inf, rel=0.15)
    assert cs.nu_inf == ref.nu_inf
    assert cs.nu_2 == ref.nu_2


def test_constant_set_interpolation_methods():
    cs = closed_form_constants(WaveMode.diffuse(1.0), 1.0, 2.0)
    assert cs.mu_nu(2)[0] == cs.mu_2
    assert cs.mu_nu(INF)[0] == cs.mu_inf
    assert cs.mu_nu(4)[1] == pytest.approx(math.sqrt(cs.nu_2 * cs.nu_inf), rel=1e-13)


def test_constant_set_refuses_zero_mu():
    mode = WaveMode.scalar(1e-170)
    with pytest.raises(ValueError, match="mu_inf underflows to 0"):
        closed_form_constants(mode, 1.0, 2.0)
    with pytest.raises(ValueError, match="mu_2 underflows to 0"):
        ConstantSet(
            mu_inf=0.1, mu_2=0.0, nu_inf=0.0, nu_2=0.0,
            mode=WaveMode.diffuse(1.0), a=1.0, omega_radius=2.0, provenance="numeric",
        )


def test_constant_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        ConstantSet(
            mu_inf=math.nan,
            mu_2=0.1,
            nu_inf=0.1,
            nu_2=0.1,
            mode=WaveMode.diffuse(1.0),
            a=1.0,
            omega_radius=2.0,
            provenance="closed_form",
        )
