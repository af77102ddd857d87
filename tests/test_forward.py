import dataclasses
import math
import re

import numpy as np
import pytest

from invborn import (
    BornSeries,
    WaveMode,
    assemble,
    born_series,
    born_term,
    build_ball_grid,
    build_sphere_boundary,
    data_norm,
    mu_closed_form,
    residual_certificate,
    solve_direct,
)
from invborn.cli import build_phantom
from invborn.greens import greens_kernel, self_cell_integral
from invborn.grid import Grid

from conftest import full_system_data, make_ops

INF = math.inf


def single_voxel_problem(kind="diffuse", k=1.3, w=0.1):
    grid = Grid(centers=np.zeros((1, 3)), weights=np.array([w]), spacing=0.5, radius_a=0.5)
    boundary = build_sphere_boundary(2.0, 1, 1)
    return assemble(WaveMode(kind, k), grid, boundary)


def test_zero_perturbation_gives_zero_data(small_ops):
    phi = solve_direct(small_ops, np.zeros(small_ops.n_nodes, dtype=complex))
    assert np.all(phi == 0)


SUPPORT_PHANTOMS = {
    "two-balls": [
        {"center": [0.3, 0.0, 0.0], "radius": 0.4, "amplitude": 0.3},
        {"center": [-0.2, 0.3, 0.1], "radius": 0.35, "amplitude": 0.2},
    ],
    "full-support": [{"center": [0.0, 0.0, 0.0], "radius": 1.0, "amplitude": 0.15}],
    "zero": [{"center": [0.0, 0.0, 0.0], "radius": 0.5, "amplitude": 0.0}],
}


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
@pytest.mark.parametrize("phantom", sorted(SUPPORT_PHANTOMS))
def test_support_solve_matches_full_system_oracle(kind, phantom):
    grid = build_ball_grid(1.0, 0.3)
    boundary = build_sphere_boundary(2.0, 7, 6)
    ops = assemble(WaveMode(kind, 1.2), grid, boundary)
    eta = build_phantom(grid, SUPPORT_PHANTOMS[phantom])
    support = np.flatnonzero(eta)
    n = len(support)
    assert {"two-balls": 0 < n < grid.n_nodes, "full-support": n == grid.n_nodes, "zero": n == 0}[
        phantom
    ]
    phi = solve_direct(ops, eta)
    ref = full_system_data(ops, eta)
    assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()
    # kernels assembled on the support alone give the same solve, bit for bit
    sub = assemble(ops.mode, grid.subset(support), boundary)
    assert np.array_equal(solve_direct(sub, eta[support]), phi)
    # the series on the support against full-grid chains of born_term
    series = born_series(ops, eta, 4)
    for m, term in enumerate(series.terms, start=1):
        want = born_term(ops, [eta] * m)
        assert np.abs(term - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind,sign", [("diffuse", 1.0), ("scalar", -1.0)])
def test_single_voxel_closed_form(kind, sign):
    ops = single_voxel_problem(kind=kind)
    k = ops.mode.k
    eta, w = 0.7, 0.1
    gs = ops.g_sv[0, 0]
    gd = ops.g_vd[0, 0]
    cself = ops.g_vv[0, 0]
    phi = solve_direct(ops, np.array([eta + 0j]))[0, 0]
    # 1x1 solve: u = g_s / (1 + sign k^2 eta C); phi = sign k^2 g_d eta w u
    expected = sign * k**2 * gs * eta * w * gd / (1.0 + sign * k**2 * eta * cself)
    assert phi == pytest.approx(expected, rel=1e-13)


def test_solve_rejects_singular_system():
    ops = single_voxel_problem(kind="diffuse", k=1.0)
    cself = ops.g_vv[0, 0].real
    eta_singular = -1.0 / cself  # makes 1 + k^2 eta C vanish
    with pytest.raises(ValueError, match="condition estimate"):
        solve_direct(ops, np.array([eta_singular + 0j]))


def _full_support_system(ops, eta):
    """beta = ||M||_1 and the exact cond_1 of A = I + M, M = -alpha G_vv diag(eta)."""
    m = -ops.mode.alpha * ops.g_vv * eta[None, :]
    return np.abs(m).sum(axis=0).max(), np.linalg.cond(np.eye(ops.n_nodes) + m, 1)


def test_solve_beyond_neumann_region_checks_exact_condition(monkeypatch):
    ops = make_ops()
    eta = np.full(ops.n_nodes, 5.0)  # diffuse full-ball eta = 5: ||M||_1 > 1, A well conditioned
    beta, cond = _full_support_system(ops, eta)
    assert beta > 1.0 and cond < 10.0
    phi = solve_direct(ops, eta)
    ref = full_system_data(ops, eta)
    assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()
    # the checked figure is the exact condition number
    monkeypatch.setattr("invborn.forward.COND_LIMIT", cond * (1.0 + 1e-9))
    solve_direct(ops, eta)
    monkeypatch.setattr("invborn.forward.COND_LIMIT", cond * (1.0 - 1e-9))
    with pytest.raises(ValueError, match="condition estimate"):
        solve_direct(ops, eta)


def test_neumann_condition_bound_is_never_below_exact(monkeypatch):
    ops = make_ops()
    eta = np.full(ops.n_nodes, 0.5)
    beta, cond = _full_support_system(ops, eta)
    assert beta < 1.0
    neumann = (1.0 + beta) / (1.0 - beta)
    assert cond <= neumann
    monkeypatch.setattr("invborn.forward.COND_LIMIT", cond * (1.0 - 1e-9))
    with pytest.raises(ValueError, match=re.escape(f"condition estimate {neumann:.3e} >")):
        solve_direct(ops, eta)


def test_term_order_one_single_voxel():
    ops = single_voxel_problem()
    k = ops.mode.k
    c = 0.4
    term = born_term(ops, [np.array([c + 0j])])[0, 0]
    expected = k**2 * ops.g_sv[0, 0] * c * 0.1 * ops.g_vd[0, 0]
    assert term == pytest.approx(expected, rel=1e-14)


def test_term_order_two_against_brute_force():
    grid = build_ball_grid(1.0, 0.55)  # 32 voxels
    boundary = build_sphere_boundary(2.0, 3, 4)
    mode = WaveMode.diffuse(1.0)
    ops = assemble(mode, grid, boundary)
    rng = np.random.default_rng(7)
    f1 = rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
    f2 = rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes)
    got = born_term(ops, [f1, f2])

    # independent double-loop quadrature of the order-2 kernel chain
    k = mode.k
    w = grid.weights
    expected = np.zeros((3, 4), dtype=complex)
    for s in range(3):
        for d in range(4):
            acc = 0.0 + 0j
            for j1 in range(grid.n_nodes):
                gs = greens_kernel(mode, np.linalg.norm(boundary.sources[s] - grid.centers[j1]))
                inner = 0.0 + 0j
                for j2 in range(grid.n_nodes):
                    if j1 == j2:
                        kern = self_cell_integral(mode, w[j1])
                    else:
                        r12 = np.linalg.norm(grid.centers[j1] - grid.centers[j2])
                        kern = greens_kernel(mode, r12) * w[j2]
                    gd = greens_kernel(
                        mode, np.linalg.norm(grid.centers[j2] - boundary.detectors[d])
                    )
                    inner += kern * f2[j2] * gd
                acc += gs * w[j1] * f1[j1] * inner
            expected[s, d] = -(k**4) * acc  # order-2 sign is negative for diffuse waves
    dev = np.abs(got - expected).max() / np.abs(expected).max()
    assert dev <= 1e-12


def test_term_multilinearity(small_ops):
    rng = np.random.default_rng(3)
    n = small_ops.n_nodes
    f1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    f2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    g1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    c = 1.7 - 0.3j
    lhs = born_term(small_ops, [c * f1, f2])
    rhs = c * born_term(small_ops, [f1, f2])
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
    lhs = born_term(small_ops, [f1 + g1, f2])
    rhs = born_term(small_ops, [f1, f2]) + born_term(small_ops, [g1, f2])
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_term_rejects_mismatched_factor(small_ops):
    with pytest.raises(ValueError, match="factor shape"):
        born_term(small_ops, [np.ones(small_ops.n_nodes + 1)])
    with pytest.raises(ValueError):
        born_term(small_ops, [])


def test_equal_factor_term_transposes_under_pair_swap():
    grid = build_ball_grid(1.0, 0.45)
    b = build_sphere_boundary(2.0, 5, 5)
    mode = WaveMode.diffuse(1.0)
    ops = assemble(mode, grid, b)
    f = np.cos(grid.centers[:, 0]) + 0j
    term = born_term(ops, [f, f])
    # sources and detectors are the same Fibonacci set, so swapping transposes
    assert np.abs(term - term.T).max() <= 1e-13 * np.abs(term).max()


def test_direct_solve_matches_series_on_compliant_instance():
    grid = build_ball_grid(1.0, 0.3)
    boundary = build_sphere_boundary(2.0, 8, 8)
    mode = WaveMode.diffuse(1.0)
    ops = assemble(mode, grid, boundary)
    amp = 0.3 / mu_closed_form(mode, 1.0, INF)
    eta = np.full(grid.n_nodes, amp, dtype=complex)
    phi = solve_direct(ops, eta)
    series = born_series(ops, eta, 30)
    rel = np.abs(phi - series.partial_sums[-1]).max() / np.abs(phi).max()
    assert rel <= 1e-8


def test_series_terms_zero_for_zero_field(small_ops):
    series = born_series(small_ops, np.zeros(small_ops.n_nodes), 4)
    for term in series.terms:
        assert np.all(term == 0)


def test_series_terms_decay_geometrically():
    grid = build_ball_grid(1.0, 0.3)
    boundary = build_sphere_boundary(2.0, 8, 8)
    mode = WaveMode.diffuse(1.0)
    ops = assemble(mode, grid, boundary)
    amp = 0.5 / mu_closed_form(mode, 1.0, INF)
    eta = np.full(grid.n_nodes, amp, dtype=complex)
    series = born_series(ops, eta, 8)
    norms = [data_norm(boundary, t, INF) for t in series.terms]
    for j in range(2, 7):
        assert norms[j + 1] / norms[j] <= 0.5 * 1.2


def test_partial_sums_recompute_exactly(small_ops):
    eta = np.full(small_ops.n_nodes, 0.2, dtype=complex)
    series = born_series(small_ops, eta, 5)
    recomputed = sum(series.terms)
    assert np.array_equal(series.partial_sums[-1], recomputed)


def test_series_refuses_order_zero(small_ops):
    with pytest.raises(ValueError, match="order must be >= 1"):
        born_series(small_ops, np.zeros(small_ops.n_nodes), 0)


def test_partial_sum_that_overflows_names_its_order():
    # both terms are finite; their sum is not
    series = BornSeries([np.full(3, 1.0), np.full(3, 1e308), np.full(3, 1e308)])
    with pytest.raises(ValueError, match="the partial sum overflows at order 3"):
        series.partial_sums


def test_diffuse_data_is_real(small_ops):
    eta = np.full(small_ops.n_nodes, 0.3, dtype=complex)
    phi = solve_direct(small_ops, eta)
    assert np.abs(phi.imag).max() == 0.0


def complex_cast(ops):
    """The same operator set with its kernels stored complex: the complex-arithmetic oracle."""
    return dataclasses.replace(
        ops,
        g_vv=ops.g_vv.astype(complex),
        g_sv=ops.g_sv.astype(complex),
        g_vd=ops.g_vd.astype(complex),
    )


@pytest.mark.parametrize("form", ["float", "complex-zero-imag", "complex"])
def test_real_kernels_match_complex_oracle(small_ops, form):
    rng = np.random.default_rng(17)
    eta = 0.2 * rng.uniform(-1.0, 1.0, small_ops.n_nodes)
    if form == "complex-zero-imag":
        eta = eta.astype(complex)
    elif form == "complex":
        eta = eta + 0.1j * rng.uniform(-1.0, 1.0, small_ops.n_nodes)
    oracle = complex_cast(small_ops)
    phi = solve_direct(small_ops, eta)
    phi_ref = solve_direct(oracle, eta)
    assert np.iscomplexobj(phi) == (form == "complex")
    assert np.abs(phi - phi_ref).max() <= 1e-12 * np.abs(phi_ref).max()
    series = born_series(small_ops, eta, 6)
    ref = born_series(oracle, eta, 6)
    for got, want in zip(series.terms, ref.terms):
        assert np.iscomplexobj(got) == (form == "complex")
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    cert = residual_certificate(small_ops, eta, 6, phi=phi)
    cert_ref = residual_certificate(oracle, eta, 6, phi=phi_ref)
    assert [rec["eta_norm"] for rec in cert] == [rec["eta_norm"] for rec in cert_ref]
    assert [rec["bound"] for rec in cert] == [rec["bound"] for rec in cert_ref]


def test_scalar_data_symmetric_for_identical_arrays():
    grid = build_ball_grid(1.0, 0.45)
    b = build_sphere_boundary(2.0, 6, 6)
    ops = assemble(WaveMode.scalar(1.0), grid, b)
    eta = (0.1 * np.cos(2 * grid.centers[:, 2])).astype(complex)
    phi = solve_direct(ops, eta)
    assert np.abs(phi - phi.T).max() <= 1e-12 * np.abs(phi).max()


class TestResidualCertificate:
    def setup_method(self):
        grid = build_ball_grid(1.0, 0.3)
        boundary = build_sphere_boundary(2.0, 8, 8)
        self.mode = WaveMode.diffuse(1.0)
        self.ops = assemble(self.mode, grid, boundary)

    def test_empirical_below_bound_on_compliant_instance(self):
        amp = 0.4 / mu_closed_form(self.mode, 1.0, INF)
        eta = np.full(self.ops.n_nodes, amp, dtype=complex)
        for rec in residual_certificate(self.ops, eta, 5):
            assert rec["applicable"]
            for emp, bnd in zip(rec["empirical"], rec["bound"]):
                assert emp <= bnd

    def test_bound_values_match_geometric_formula(self):
        from invborn import closed_form_constants, field_norm

        amp = 0.4 / mu_closed_form(self.mode, 1.0, INF)
        eta = np.full(self.ops.n_nodes, amp, dtype=complex)
        records = {rec["p"]: rec for rec in residual_certificate(self.ops, eta, 4)}
        cs = closed_form_constants(self.mode, 1.0, 2.0)
        for p, label, mu_p, nu_p in (
            (2, "2", cs.mu_2, cs.nu_2),
            (INF, "inf", cs.mu_inf, cs.nu_inf),
        ):
            norm_p = field_norm(self.ops.grid, eta, p)
            assert records[label]["eta_norm"] == pytest.approx(norm_p, rel=1e-14)
            q = mu_p * norm_p
            for n, bound in enumerate(records[label]["bound"], start=1):
                expected = (nu_p / mu_p) * q ** (n + 1) / (1 - q)
                assert bound == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("side", [1 - 1e-9, 1 + 1e-9])
    def test_applicable_exactly_inside_forward_radius(self, side):
        # the forward region is ||eta||_p < 1/mu_p, the radius convergence_radii reports
        from invborn import closed_form_constants, convergence_radii, field_norm

        cs = closed_form_constants(self.mode, 1.0, 2.0)
        ones = np.ones(self.ops.n_nodes)
        for p, label in ((2, "2"), (INF, "inf")):
            radius = convergence_radii(cs, p)[0]
            eta = side * radius / field_norm(self.ops.grid, ones, p) * ones
            rec = next(r for r in residual_certificate(self.ops, eta, 3) if r["p"] == label)
            inside = rec["eta_norm"] < radius
            assert inside == (side < 1)
            assert rec["applicable"] is inside
            assert (rec["bound"] is None) is not inside

    def test_bounds_decrease_monotonically(self):
        amp = 0.4 / mu_closed_form(self.mode, 1.0, INF)
        eta = np.full(self.ops.n_nodes, amp, dtype=complex)
        for rec in residual_certificate(self.ops, eta, 6):
            bnd = rec["bound"]
            assert all(b2 < b1 for b1, b2 in zip(bnd, bnd[1:]))

    def test_zero_field_gives_zero_remainders(self):
        for rec in residual_certificate(self.ops, np.zeros(self.ops.n_nodes), 3):
            assert all(e == 0 for e in rec["empirical"])
            assert all(b == 0 for b in rec["bound"])

    def test_scalar_mode_certificate(self):
        grid = build_ball_grid(1.0, 0.3)
        boundary = build_sphere_boundary(2.0, 8, 8)
        mode = WaveMode.scalar(1.0)
        ops = assemble(mode, grid, boundary)
        amp = 0.3 / mu_closed_form(mode, 1.0, INF)
        eta = np.full(ops.n_nodes, amp, dtype=complex)
        for rec in residual_certificate(ops, eta, 5):
            assert rec["applicable"]
            for emp, bnd in zip(rec["empirical"], rec["bound"]):
                assert emp <= bnd

    def test_noncompliant_instance_flagged(self):
        amp = 1.5 / mu_closed_form(self.mode, 1.0, INF)
        eta = np.full(self.ops.n_nodes, amp, dtype=complex)
        records = residual_certificate(self.ops, eta, 3)
        flags = {rec["p"]: rec["applicable"] for rec in records}
        assert flags["inf"] is False
        # the direct solve and empirical remainders are still produced
        assert all(len(rec["empirical"]) == 3 for rec in records)
