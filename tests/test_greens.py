import math

import numpy as np
import pytest
from scipy.integrate import quad

from invborn import (
    WaveMode,
    assemble,
    build_ball_grid,
    build_sphere_boundary,
    greens_kernel,
    mu_closed_form,
    self_cell_integral,
)
from invborn.greens import _pairwise_dist, kernel_modulus, self_cell_l1, self_cell_l2
from invborn.grid import BoundaryArray, Grid

INF = math.inf


def test_wave_mode_validation():
    with pytest.raises(ValueError):
        WaveMode("diffuse", 0.0)
    with pytest.raises(ValueError):
        WaveMode("acoustic", 1.0)
    assert WaveMode.diffuse(1.0).sign == 1.0
    assert WaveMode.scalar(1.0).sign == -1.0


def test_kernel_diffuse_value():
    val = greens_kernel(WaveMode.diffuse(1.0), 1.0)
    assert val == pytest.approx(math.exp(-1) / (4 * math.pi), rel=1e-15)
    assert val.imag == 0.0


def test_kernel_dtype_follows_mode():
    r = np.array([0.3, 1.0, 2.7])
    assert greens_kernel(WaveMode.diffuse(1.0), r).dtype == np.float64
    assert isinstance(greens_kernel(WaveMode.diffuse(1.0), 1.0), float)
    assert greens_kernel(WaveMode.scalar(1.0), r).dtype == np.complex128
    assert isinstance(greens_kernel(WaveMode.scalar(1.0), 1.0), complex)


def test_kernel_scalar_value():
    val = greens_kernel(WaveMode.scalar(1.0), 1.0)
    expected = (math.cos(1.0) + 1j * math.sin(1.0)) / (4 * math.pi)
    assert val == pytest.approx(expected, rel=1e-15)


def test_kernel_decays_monotonically():
    r = np.linspace(0.5, 50.0, 200)
    vals = greens_kernel(WaveMode.diffuse(1.0), r).real
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-20


def test_kernel_rejects_zero_distance():
    with pytest.raises(ValueError):
        greens_kernel(WaveMode.diffuse(1.0), 0.0)


def test_scalar_kernel_modulus():
    r = np.array([0.3, 1.0, 2.7])
    vals = greens_kernel(WaveMode.scalar(2.0), r)
    assert np.allclose(np.abs(vals), 1.0 / (4 * math.pi * r), rtol=1e-14)


def test_self_cell_diffuse_closed_form_and_quadrature():
    w = 4 * math.pi / 3  # unit cell radius
    val = self_cell_integral(WaveMode.diffuse(1.0), w)
    assert val == pytest.approx(1 - 2 * math.exp(-1), rel=1e-14)
    # independent oracle: integral of G over the ball is int_0^rc r e^{-kr} dr
    oracle, _ = quad(lambda r: r * math.exp(-r), 0.0, 1.0, epsabs=1e-14)
    assert val.real == pytest.approx(oracle, abs=1e-12)


def test_self_cell_scalar_vs_quadrature():
    w = 4 * math.pi / 3
    val = self_cell_integral(WaveMode.scalar(1.0), w)
    re, _ = quad(lambda r: r * math.cos(r), 0.0, 1.0, epsabs=1e-14)
    im, _ = quad(lambda r: r * math.sin(r), 0.0, 1.0, epsabs=1e-14)
    assert abs(val - (re + 1j * im)) < 1e-10


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_self_cell_small_cell_limit(kind):
    # as k*rc -> 0 the integral approaches rc^2 / 2 in both modes
    w = 1e-9
    rc = (3 * w / (4 * math.pi)) ** (1 / 3)
    val = self_cell_integral(WaveMode(kind, 1.0), w)
    assert val == pytest.approx(rc**2 / 2, rel=1e-3)


@pytest.mark.parametrize("k", [1e-3, 1e-5, 1e-8])
def test_self_cell_diffuse_small_k_taylor(k):
    # 1 - (1 + x) e^{-x} cancels as x = k r_c -> 0; its Taylor form does not
    w = (1 / 6) ** 3
    rc = (3 * w / (4 * math.pi)) ** (1 / 3)
    x = k * rc
    taylor = rc**2 * (0.5 - x / 3 + x**2 / 8)
    mode = WaveMode.diffuse(k)
    assert self_cell_integral(mode, w).real == pytest.approx(taylor, rel=1e-12, abs=0)
    assert self_cell_l1(mode, w) == pytest.approx(taylor, rel=1e-12, abs=0)
    l2_taylor = rc * (1 - x + 2 * x**2 / 3) / (4 * math.pi)
    assert self_cell_l2(mode, w) == pytest.approx(l2_taylor, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_kernel_modulus_is_real_abs_of_kernel(kind):
    r = np.array([[0.3, 1.0], [2.7, 1e-3]])
    mode = WaveMode(kind, 2.0)
    vals = kernel_modulus(mode, r)
    assert vals.dtype == np.float64
    np.testing.assert_allclose(vals, np.abs(greens_kernel(mode, r)), rtol=1e-15)
    with pytest.raises(ValueError):
        kernel_modulus(mode, np.array([0.0, 1.0]))


def test_self_cell_rejects_bad_weight():
    with pytest.raises(ValueError):
        self_cell_integral(WaveMode.diffuse(1.0), 0.0)


def test_self_cell_l2_matches_quadrature():
    w = 0.37
    rc = (3 * w / (4 * math.pi)) ** (1 / 3)
    for kind in ("diffuse", "scalar"):
        mode = WaveMode(kind, 1.7)
        if kind == "diffuse":
            oracle, _ = quad(lambda r: math.exp(-2 * 1.7 * r) / (4 * math.pi), 0, rc)
        else:
            oracle, _ = quad(lambda r: 1.0 / (4 * math.pi), 0, rc)
        assert self_cell_l2(mode, w) == pytest.approx(oracle, rel=1e-12)


def single_voxel_ops(kind="diffuse", k=1.3, eta_weight=0.1):
    grid = Grid(centers=np.zeros((1, 3)), weights=np.array([eta_weight]), spacing=0.5, radius_a=0.5)
    boundary = build_sphere_boundary(2.0, 1, 1)
    return assemble(WaveMode(kind, k), grid, boundary)


def test_assemble_single_voxel_kernels():
    ops = single_voxel_ops()
    src = ops.boundary.sources[0]
    r = np.linalg.norm(src)
    assert ops.g_sv[0, 0] == pytest.approx(greens_kernel(ops.mode, r), rel=1e-15)
    assert ops.g_vd[0, 0] == pytest.approx(greens_kernel(ops.mode, r), rel=1e-15)
    assert ops.g_vv[0, 0] == pytest.approx(self_cell_integral(ops.mode, 0.1), rel=1e-15)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_assemble_symmetry_exact(kind):
    grid = build_ball_grid(1.0, 0.4)
    boundary = build_sphere_boundary(2.0, 5, 5)
    ops = assemble(WaveMode(kind, 1.0), grid, boundary)
    assert np.abs(ops.g_vv - ops.g_vv.T).max() == 0.0


@pytest.mark.parametrize("kind, dtype", [("diffuse", np.float64), ("scalar", np.complex128)])
def test_assemble_kernel_dtype_follows_mode(kind, dtype):
    ops = assemble(WaveMode(kind, 1.0), build_ball_grid(1.0, 0.45), build_sphere_boundary(2.0, 4, 5))
    assert ops.g_vv.dtype == ops.g_sv.dtype == ops.g_vd.dtype == dtype


@pytest.mark.parametrize("h", [0.35, 1 / 6])
def test_pairwise_dist_matches_stacked_norm(h):
    grid = build_ball_grid(1.0, h)
    boundary = build_sphere_boundary(2.0, 7, 5)
    for x, y in (
        (grid.centers, grid.centers),
        (boundary.sources, grid.centers),
        (grid.centers, boundary.detectors),
    ):
        ref = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
        assert np.array_equal(_pairwise_dist(x, y), ref)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_assemble_row_blocks_match_whole_matrix(kind):
    # V = 912 spans several row blocks; the reference is one pass over the matrix
    grid = build_ball_grid(1.0, 1 / 6)
    mode = WaveMode(kind, 1.3)
    ops = assemble(mode, grid, build_sphere_boundary(2.0, 3, 3))
    r = np.linalg.norm(grid.centers[:, None, :] - grid.centers[None, :, :], axis=-1)
    np.fill_diagonal(r, 1.0)
    ref = greens_kernel(mode, r) * grid.weights[None, :]
    diag = np.array([self_cell_integral(mode, w) for w in grid.weights])
    np.fill_diagonal(ref, diag.real if kind == "diffuse" else diag)
    assert np.array_equal(ops.g_vv, ref)
    assert np.abs(ops.g_vv - ops.g_vv.T).max() == 0.0


def test_assemble_diffuse_positive():
    grid = build_ball_grid(1.0, 0.4)
    boundary = build_sphere_boundary(2.0, 5, 5)
    ops = assemble(WaveMode.diffuse(1.0), grid, boundary)
    for kernel in (ops.g_vv, ops.g_sv, ops.g_vd):
        assert np.all(kernel.imag == 0.0)
        assert np.all(kernel.real > 0.0)


def test_assemble_rejects_boundary_inside_support():
    grid = build_ball_grid(1.0, 0.4)
    bad = BoundaryArray(
        sources=np.array([[0.9, 0.0, 0.0]]),
        detectors=np.array([[0.0, 0.0, 0.9]]),
        src_weight=1.0,
        det_weight=1.0,
        omega_radius=0.9,
    )
    with pytest.raises(ValueError, match="outside the support"):
        assemble(WaveMode.diffuse(1.0), grid, bad)


def test_reciprocity_swapping_sources_and_detectors_transposes():
    grid = build_ball_grid(1.0, 0.45)
    b = build_sphere_boundary(2.0, 4, 7)
    swapped = BoundaryArray(
        sources=b.detectors,
        detectors=b.sources,
        src_weight=b.det_weight,
        det_weight=b.src_weight,
        omega_radius=b.omega_radius,
    )
    mode = WaveMode.scalar(1.0)
    ops = assemble(mode, grid, b)
    ops_swapped = assemble(mode, grid, swapped)
    assert np.array_equal(ops.g_sv, ops_swapped.g_vd.T)
    assert np.array_equal(ops.g_vd, ops_swapped.g_sv.T)

    from invborn import born_term

    # kernels swap bit-exactly; the contracted term only up to summation order
    f = (grid.centers[:, 0] ** 2).astype(complex)
    term = born_term(ops, [f, f])
    term_swapped = born_term(ops_swapped, [f, f])
    assert np.abs(term - term_swapped.T).max() <= 1e-13 * np.abs(term).max()


def test_row_sums_approximate_kernel_integral():
    # k^2 * (row sum at the node nearest the origin) approximates the closed form
    grid = build_ball_grid(1.0, 0.2)
    boundary = build_sphere_boundary(2.0, 4, 4)
    mode = WaveMode.diffuse(1.0)
    ops = assemble(mode, grid, boundary)
    center = int(np.argmin(np.linalg.norm(grid.centers, axis=1)))
    row = (ops.g_vv[center] @ np.ones(grid.n_nodes)).real
    ref = mu_closed_form(mode, 1.0, INF) / mode.k**2
    assert abs(row - ref) / ref < 0.05


def center_cell_integral(mode, grid):
    """Row of the volume kernel at the node nearest the origin, applied to 1."""
    center = int(np.argmin(np.linalg.norm(grid.centers, axis=1)))
    r = np.linalg.norm(grid.centers - grid.centers[center], axis=1)
    mask = r > 0
    total = (greens_kernel(mode, r[mask]) * grid.weights[mask]).sum()
    return (total + self_cell_integral(mode, grid.weights[center])).real


def test_center_integral_refines_at_first_order():
    mode = WaveMode.diffuse(1.0)
    ref = (1 - 2 * math.exp(-1))  # integral of G over the unit ball at its center, k=1
    errs = []
    hs = [1 / 4, 1 / 8, 1 / 16]
    for h in hs:
        grid = build_ball_grid(1.0, h)
        errs.append(abs(center_cell_integral(mode, grid) - ref) / ref)
    # boundary-shell cancellations make the step a/8 -> a/16 wiggle, so the
    # claim is the fitted rate, not per-step monotonicity
    assert errs[2] < errs[0]
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 0.8


@pytest.mark.parametrize("k", [1e-3, 1e-5, 1e-8])
def test_self_cell_scalar_small_k_taylor(k):
    # e^{ix} (1 - ix) - 1 cancels as x = k r_c -> 0 (it read exactly 0 at k = 1e-8)
    w = (1 / 6) ** 3
    rc = (3 * w / (4 * math.pi)) ** (1 / 3)
    x = k * rc
    taylor = rc**2 * (0.5 + 1j * x / 3 - x**2 / 8)
    val = self_cell_integral(WaveMode.scalar(k), w)
    assert abs(val - taylor) <= 1e-12 * abs(taylor)
    assert val.imag == pytest.approx(taylor.imag, rel=1e-8, abs=0)  # next term: -x^3 / 30


def test_scalar_ball_factor_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    from invborn.greens import _ball_factor

    eps = 2.0**-53
    with mpmath.workdps(80):  # the reference cancels 2 * 20 digits at x = 1e-20
        for x in np.concatenate([np.logspace(-20, 1, 400), [0.5, 1.0 - 1e-12, 1.0, 2.3]]):
            xm = mpmath.mpf(float(x))
            ref = (mpmath.exp(1j * xm) * (1 - 1j * xm) - 1) / xm**2
            err = abs(mpmath.mpc(_ball_factor(complex(0.0, -x))) - ref) / abs(ref)
            assert err <= 8 * eps, f"x={x}: {float(err / eps):.1f} ulp"
