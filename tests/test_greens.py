import math
import tracemalloc

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
from invborn.forward import _on_support
from invborn.greens import (
    _ROW_BLOCK,
    DenseVolume,
    _dense_kernel,
    _pairwise_dist,
    kernel_modulus,
    lattice_row_sums,
    self_cell_l1,
    self_cell_l2,
)
from invborn.grid import BoundaryArray, Grid
from invborn.mirror import _HADAMARD, MirrorVolume, _hadamard, mirror_orbits

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


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
@pytest.mark.parametrize("variant", ["random_weights", "nudged"])
def test_assemble_volume_matches_unblocked_reference_off_the_uniform_grid(variant, kind):
    # each pair of nodes is evaluated once and mirrored, scaled by its own column
    # weight; V = 912 spans several row blocks
    grid = build_ball_grid(1.0, 1 / 6)
    centers, weights = grid.centers, grid.weights
    if variant == "random_weights":
        weights = grid.spacing**3 * np.random.default_rng(7).uniform(0.5, 2.0, grid.n_nodes)
    else:
        centers = centers.copy()
        centers[5, 2] += 1e-4 * grid.spacing
    grid = Grid(centers=centers, weights=weights, spacing=grid.spacing, radius_a=1.0)
    mode = WaveMode(kind, 1.3)
    ops = assemble(mode, grid, build_sphere_boundary(2.0, 3, 3))
    r = _pairwise_dist(centers, centers)
    np.fill_diagonal(r, 1.0)
    ref = greens_kernel(mode, r) * weights
    diag = np.array([self_cell_integral(mode, w) for w in weights])
    np.fill_diagonal(ref, diag.real if kind == "diffuse" else diag)
    assert np.array_equal(ops.g_vv, ref)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_subset_assembly_is_bit_equal_to_full_matrix(kind):
    # 400 of V = 912 nodes: the subset itself spans several row blocks
    grid = build_ball_grid(1.0, 1 / 6)
    boundary = build_sphere_boundary(2.0, 5, 4)
    mode = WaveMode(kind, 1.3)
    full = assemble(mode, grid, boundary)
    s = np.sort(np.random.default_rng(5).choice(grid.n_nodes, 400, replace=False))
    assert len(s) > 2 * _ROW_BLOCK
    sub = assemble(mode, grid.subset(s), boundary)
    assert np.array_equal(sub.g_vv, full.g_vv[np.ix_(s, s)])
    assert np.array_equal(sub.g_sv, full.g_sv[:, s])
    assert np.array_equal(sub.g_vd, full.g_vd[s])
    empty = assemble(mode, grid.subset([]), boundary)
    assert (empty.g_vv.shape, empty.g_sv.shape, empty.g_vd.shape) == ((0, 0), (5, 0), (0, 4))


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


# The per-mode formulas the kappa-parameterized kernels replaced.  Each function
# below must agree with them bit for bit: the kernel family changed the code,
# not the numbers.
def _per_mode_kernel(mode, r):
    vals = np.exp(-mode.k * r) if mode.kind == "diffuse" else np.exp(1j * mode.k * r)
    vals /= 4.0 * math.pi * r
    return vals


def _per_mode_modulus(mode, r):
    return _per_mode_kernel(mode, r) if mode.kind == "diffuse" else 1.0 / (4.0 * math.pi * r)


def _per_mode_self_cell(mode, w):
    from invborn.greens import _ball_factor, _cell_radius

    rc = _cell_radius(w)
    x = mode.k * rc
    return complex(rc**2 * _ball_factor(x if mode.kind == "diffuse" else complex(0.0, -x)))


def _per_mode_self_cell_l1(mode, w):
    from invborn.greens import _cell_radius

    if mode.kind == "diffuse":
        return _per_mode_self_cell(mode, w).real
    return 0.5 * _cell_radius(w) ** 2


def _per_mode_self_cell_l2(mode, w):
    from invborn.greens import _cell_radius

    rc = _cell_radius(w)
    if mode.kind == "diffuse":
        return -math.expm1(-2.0 * mode.k * rc) / (8.0 * math.pi * mode.k)
    return rc / (4.0 * math.pi)


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


_FAMILY_KS = (1e-9, 1e-3, 0.37, 1.0, 2.5, 13.0, 1e3)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_wave_mode_kappa(kind):
    mode = WaveMode(kind, 2.5)
    assert mode.kappa == (2.5 if kind == "diffuse" else -2.5j)
    assert isinstance(mode.kappa, float if kind == "diffuse" else complex)
    with pytest.raises(AttributeError):
        mode.kappa = 1.0


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_assemble_integer_k_matches_float_k(kind):
    # a config file may hold "k": 2; kappa must not make g_vv an integer array
    grid, boundary = build_ball_grid(1.0, 0.45), build_sphere_boundary(2.0, 3, 3)
    got = assemble(WaveMode(kind, 2), grid, boundary)
    ref = assemble(WaveMode(kind, 2.0), grid, boundary)
    assert got.g_vv.dtype == (np.float64 if kind == "diffuse" else np.complex128)
    for name in ("g_vv", "g_sv", "g_vd"):
        assert _same_bits(getattr(got, name), getattr(ref, name)), name


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
@pytest.mark.parametrize("k", _FAMILY_KS)
def test_kernel_family_matches_per_mode_formulas_bit_for_bit(kind, k):
    mode = WaveMode(kind, k)
    r = np.concatenate([np.logspace(-6, 2, 97), [0.1, 1.0 / 3.0, 1.0, math.pi]])
    assert _same_bits(greens_kernel(mode, r), _per_mode_kernel(mode, r))
    assert _same_bits(kernel_modulus(mode, r), _per_mode_modulus(mode, r))
    for ri in (0.1, 1.0, 7.25):
        assert _same_bits(greens_kernel(mode, ri), _per_mode_kernel(mode, np.float64(ri)))
    for w in (1e-9, (1 / 9) ** 3, (1 / 6) ** 3, 0.25**3, 0.1, 4.0 * math.pi / 3.0, 30.0):
        assert _same_bits(self_cell_integral(mode, w), _per_mode_self_cell(mode, w))
        assert _same_bits(self_cell_l1(mode, w), _per_mode_self_cell_l1(mode, w))
        assert _same_bits(self_cell_l2(mode, w), _per_mode_self_cell_l2(mode, w))


@pytest.mark.parametrize("h", [0.3, 0.25])
def test_lattice_row_sums_match_dense_sums_on_a_subset(h):
    grid = build_ball_grid(1.0, h)
    grid = grid.subset(np.arange(1, grid.n_nodes, 2))
    w = np.random.default_rng(5).uniform(0.5, 2.0, grid.n_nodes) * h**3
    grid = Grid(centers=grid.centers, weights=w, spacing=h, radius_a=1.0)
    kernels = [lambda r: 1.0 / r, lambda r: np.cos(r) * r**2]
    r = _pairwise_dist(grid.centers, grid.centers)
    np.fill_diagonal(r, 1.0)
    for f, got in zip(kernels, lattice_row_sums(grid, kernels)):
        dense = f(r)
        np.fill_diagonal(dense, 0.0)
        ref = dense @ w
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# sign pattern g negates coordinate c where bit c of g is set
SIGNS = 1.0 - 2.0 * ((np.arange(8)[:, None] >> np.arange(3)) & 1)


def check_orbits(grid, orbits):
    """The orbit table partitions the nodes, each orbit the 8 exact mirror images of its first."""
    assert orbits.shape == (8, grid.n_nodes // 8)
    assert np.array_equal(np.sort(orbits.ravel()), np.arange(grid.n_nodes))
    reps = grid.centers[orbits[0]]
    assert np.all(reps > 0)
    for g in range(8):
        assert np.array_equal(grid.centers[orbits[g]], reps * SIGNS[g])
        assert np.array_equal(grid.weights[orbits[g]], grid.weights[orbits[0]])


def test_hadamard_matrix_is_the_sign_pattern_characters():
    shared = np.arange(8)[:, None] & np.arange(8)[None, :]
    parity = sum((shared >> c) & 1 for c in range(3))
    assert np.array_equal(_HADAMARD, (-1.0) ** parity)
    assert np.array_equal(_HADAMARD @ _HADAMARD, 8 * np.eye(8))


@pytest.mark.parametrize("a", [1.0, 0.37, 2.5])
@pytest.mark.parametrize("ratio", [1.15, 1.0, 0.7, 0.45, 0.33, 0.2917, 0.25, 1 / 6, 0.1])
def test_every_ball_grid_is_mirror_blocked(a, ratio):
    # h = 1.15 a is near the largest spacing with a node, 2 a / sqrt(3): 8 nodes; at
    # h = 2 a there is none (test_ball_grid_too_coarse_is_an_error)
    grid = build_ball_grid(a, ratio * a)
    check_orbits(grid, mirror_orbits(grid))
    ops = assemble(WaveMode.diffuse(1.0), grid, build_sphere_boundary(3.0 * a, 2, 2))
    assert isinstance(ops.volume, MirrorVolume)
    assert ops.volume.blocks.shape == (8, grid.n_nodes // 8, grid.n_nodes // 8)


def symmetric_grid_on_the_planes(h=0.5):
    """16 nodes closed under the sign flips: 8 corners and 8 nodes on coordinate planes."""
    corners = SIGNS * h / 2
    planes = [(x, y, 0.0) for x in (-h, h) for y in (-h, h)]
    planes += [(0.0, y, z) for y in (-h, h) for z in (-h, h)]
    centers = np.vstack([corners, planes])
    return Grid(centers=centers, weights=np.full(16, h**3), spacing=h, radius_a=1.0)


def fallback_grids():
    grid = build_ball_grid(1.0, 0.25)  # V = 280
    nudged = grid.centers.copy()
    nudged[17, 1] = np.nextafter(nudged[17, 1], 1.0)  # one ulp off its mirror images
    weights = grid.weights * np.random.default_rng(3).uniform(0.5, 2.0, grid.n_nodes)
    far = grid.centers[:, 0] > -0.25  # a half-space: its mirror images in x are missing
    return {
        "nudged": Grid(centers=nudged, weights=grid.weights, spacing=0.25, radius_a=1.0),
        "non-uniform-weights": Grid(
            centers=grid.centers, weights=weights, spacing=0.25, radius_a=1.0
        ),
        "asymmetric-subset": grid.subset(np.flatnonzero(far)[:200]),
        "on-a-coordinate-plane": symmetric_grid_on_the_planes(),
    }


@pytest.mark.parametrize("name", list(fallback_grids()))
def test_grids_off_the_mirror_symmetry_take_the_dense_kernel(name):
    grid = fallback_grids()[name]
    assert grid.n_nodes % 8 == 0  # not refused for its node count alone
    assert mirror_orbits(grid) is None
    ops = assemble(WaveMode.scalar(1.3), grid, build_sphere_boundary(2.0, 3, 3))
    assert isinstance(ops.volume, DenseVolume)
    assert ops.g_vv is ops.volume.matrix


def test_a_symmetric_subset_is_mirror_blocked():
    grid = build_ball_grid(1.0, 1 / 6)
    sub = grid.subset(np.linalg.norm(grid.centers, axis=1) <= 0.5)
    check_orbits(sub, mirror_orbits(sub))


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
@pytest.mark.parametrize("h", [0.45, 0.25, 1 / 6])  # V = 56, 280 and 912
@pytest.mark.parametrize("field", ["real", "complex"])
def test_blocked_product_matches_the_dense_kernel(kind, h, field):
    grid = build_ball_grid(1.0, h)
    ops = assemble(WaveMode(kind, 1.3), grid, build_sphere_boundary(2.0, 3, 3))
    rng = np.random.default_rng(11)
    y = rng.standard_normal((grid.n_nodes, 48))
    if field == "complex":
        y = y + 1j * rng.standard_normal(y.shape)
    dtype = np.result_type(ops.volume.dtype, y)
    chains = np.zeros((grid.n_nodes, 3, 48), dtype)
    ops.volume.matmul(y, chains[:, 1], ops.volume.workspace(48, dtype))
    ref = ops.g_vv @ y
    assert np.abs(chains[:, 1] - ref).max() <= 1e-13 * np.abs(ref).max()
    assert not chains[:, [0, 2]].any()  # a strided output is written in place


def test_real_blocks_take_a_complex_field_as_float_pairs():
    # numpy would multiply a real kernel into complex data through a complex copy of it
    grid = build_ball_grid(1.0, 1 / 6)
    volume = assemble(WaveMode.diffuse(1.3), grid, build_sphere_boundary(2.0, 3, 3)).volume
    rng = np.random.default_rng(2)
    y = rng.standard_normal((grid.n_nodes, 48)) + 1j * rng.standard_normal((grid.n_nodes, 48))
    out, work = np.empty_like(y), volume.workspace(48, y.dtype)
    tracemalloc.start()
    try:
        volume.matmul(y, out, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < volume.blocks.nbytes / 2
    ref = _dense_kernel(WaveMode.diffuse(1.3), grid) @ y
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
@pytest.mark.parametrize("h", [1 / 6, 0.125])  # m = 114 and 272: one and three row blocks
def test_assembled_blocks_are_the_transformed_dense_kernel_bit_for_bit(kind, h):
    grid = build_ball_grid(1.0, h)
    mode = WaveMode(kind, 1.3)
    volume = assemble(mode, grid, build_sphere_boundary(2.0, 3, 3)).volume
    orbits = volume.orbits
    dense = _dense_kernel(mode, grid)
    gathered = np.stack([dense[np.ix_(orbits[0], orbits[g])] for g in range(8)])
    assert np.array_equal(volume.blocks, _hadamard(gathered))


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_support_kernel_of_a_mirror_blocked_set_is_its_dense_block(kind):
    grid = build_ball_grid(1.0, 1 / 6)
    ops = assemble(WaveMode(kind, 1.3), grid, build_sphere_boundary(2.0, 5, 4))
    eta = np.where(np.linalg.norm(grid.centers - [0.3, 0.1, 0.0], axis=1) <= 0.75, 0.1, 0.0)
    s = np.flatnonzero(eta)
    sub, _ = _on_support(ops, eta)
    assert s.size > 2 * _ROW_BLOCK
    assert isinstance(sub.volume, DenseVolume)
    assert "g_vv" not in vars(ops)  # formed below, after the support's own assembly
    assert np.array_equal(sub.g_vv, ops.g_vv[np.ix_(s, s)])
    full, _ = _on_support(ops, np.full(grid.n_nodes, 0.1))
    assert isinstance(full.volume, DenseVolume) and np.array_equal(full.g_vv, ops.g_vv)
