import math
import re

import numpy as np
import pytest

from invborn import build_ball_grid, build_sphere_boundary, data_norm, field_norm, lp_norm
from invborn.grid import BoundaryArray, Grid, _lp_norms

INF = math.inf
BALL_VOLUME = 4.0 * math.pi / 3.0


def enumerate_lattice_nodes(a, h):
    """Independent brute-force enumeration of the half-offset lattice in the ball."""
    nodes = []
    m = int(math.ceil(a / h)) + 2
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            for k in range(-m, m + 1):
                p = ((i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h)
                if math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2) <= a:
                    nodes.append(p)
    return sorted(nodes)


@pytest.mark.parametrize("a,h", [(1.0, 1.0), (1.0, 0.55), (1.0, 0.3), (2.5, 0.9), (0.7, 0.21)])
def test_ball_grid_matches_brute_force_enumeration(a, h):
    grid = build_ball_grid(a, h)
    expected = enumerate_lattice_nodes(a, h)
    got = sorted(map(tuple, grid.centers))
    assert len(got) == len(expected)
    assert np.allclose(np.array(got), np.array(expected), rtol=0, atol=1e-13)
    assert np.all(grid.weights == h**3)


def test_ball_grid_unit_spacing_gives_eight_nodes():
    grid = build_ball_grid(1.0, 1.0)
    assert grid.n_nodes == 8
    assert np.allclose(np.abs(grid.centers), 0.5)


def test_ball_grid_too_coarse_is_an_error():
    # with the half-offset lattice the nearest candidate sits at sqrt(3)*h/2
    assert enumerate_lattice_nodes(1.0, 2.0) == []
    with pytest.raises(ValueError, match="no lattice node"):
        build_ball_grid(1.0, 2.0)
    with pytest.raises(ValueError):
        build_ball_grid(1.0, 2.5)  # violates h <= 2a as well


def test_ball_grid_nodes_inside_and_off_center():
    grid = build_ball_grid(1.0, 0.3)
    r = np.linalg.norm(grid.centers, axis=1)
    assert np.all(r <= 1.0)
    assert r.min() > 0  # half-offset keeps the origin singularity out of the node set


def test_ball_grid_volume_tolerance():
    grid = build_ball_grid(1.0, 0.1)
    assert abs(grid.volume - BALL_VOLUME) / BALL_VOLUME <= 3 * 0.1 / 1.0


def test_ball_grid_volume_refinement_monotone():
    devs = [abs(build_ball_grid(1.0, h).volume - BALL_VOLUME) for h in (1 / 4, 1 / 8, 1 / 16)]
    assert devs[0] > devs[1] > devs[2]


def test_ball_grid_deterministic():
    g1 = build_ball_grid(1.0, 0.17)
    g2 = build_ball_grid(1.0, 0.17)
    assert np.array_equal(g1.centers, g2.centers)
    assert np.array_equal(g1.weights, g2.weights)


def test_grid_subset_keeps_spacing_and_radius():
    grid = build_ball_grid(1.0, 0.3)
    nodes = np.array([0, 5, grid.n_nodes - 1])
    sub = grid.subset(nodes)
    assert np.array_equal(sub.centers, grid.centers[nodes])
    assert np.array_equal(sub.weights, grid.weights[nodes])
    assert (sub.spacing, sub.radius_a) == (grid.spacing, grid.radius_a)
    assert grid.subset(np.zeros(grid.n_nodes, dtype=bool)).n_nodes == 0
    assert grid.subset(np.ones(grid.n_nodes, dtype=bool)).n_nodes == grid.n_nodes


def test_grid_type_rejects_bad_input():
    with pytest.raises(ValueError):
        Grid(centers=np.array([[2.0, 0, 0]]), weights=np.array([1.0]), spacing=1.0, radius_a=1.0)
    with pytest.raises(ValueError):
        Grid(centers=np.zeros((1, 3)), weights=np.array([-1.0]), spacing=1.0, radius_a=1.0)


@pytest.mark.parametrize(
    "centers, weights, message",
    [
        (np.zeros((2, 2)), np.ones(2), re.escape("centers must be (n, 3), got (2, 2)")),
        (np.zeros((2, 2, 3)), np.ones(2), re.escape("centers must be (n, 3), got (2, 2, 3)")),
        (np.zeros((2, 3)), np.ones(3), "one weight per node required"),
    ],
)
def test_grid_type_checks_shapes(centers, weights, message):
    with pytest.raises(ValueError, match=message):
        Grid(centers=centers, weights=weights, spacing=1.0, radius_a=1.0)


def test_ball_grid_rejects_a_non_positive_radius():
    with pytest.raises(ValueError, match="ball radius must be positive, got 0"):
        build_ball_grid(0, 0.25)


def test_sphere_boundary_single_point():
    b = build_sphere_boundary(2.0, 1, 1)
    assert b.n_src == b.n_det == 1
    assert b.src_weight == pytest.approx(16 * math.pi, rel=1e-15)
    assert b.det_weight == pytest.approx(16 * math.pi, rel=1e-15)


def test_sphere_boundary_rejects_empty_family():
    with pytest.raises(ValueError):
        build_sphere_boundary(2.0, 0, 4)
    with pytest.raises(ValueError):
        build_sphere_boundary(2.0, 4, 0)


@pytest.mark.parametrize("radius", [1e300, 10**300, 1e154, math.inf, math.nan])
def test_sphere_boundary_refuses_radius_whose_area_is_not_finite(radius):
    with pytest.raises(ValueError, match="the sphere area is not finite at omega_radius="):
        build_sphere_boundary(radius, 4, 4)


@pytest.mark.parametrize("radius", [1e100, 1e150])
def test_sphere_boundary_refuses_pair_weight_that_is_not_finite(radius):
    # the area is finite, but area^2 / (S * D) overflows
    message = f"not finite at omega_radius={radius:g}, n_src=48, n_det=48"
    with pytest.raises(ValueError, match="pair weight .* " + re.escape(message)):
        build_sphere_boundary(radius, 48, 48)
    assert math.isfinite(build_sphere_boundary(1e75, 48, 48).pair_weight)


def test_sphere_boundary_weights_sum_and_radius():
    b = build_sphere_boundary(2.0, 100, 100)
    assert b.src_weight * b.n_src == pytest.approx(16 * math.pi, rel=1e-14)
    r = np.linalg.norm(b.sources, axis=1)
    assert np.max(np.abs(r - 2.0)) <= 1e-12 * 2.0


def test_sphere_boundary_points_distinct():
    b = build_sphere_boundary(2.0, 64, 64)
    pts = b.sources
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 0


def test_sphere_boundary_deterministic():
    b1 = build_sphere_boundary(2.0, 33, 17)
    b2 = build_sphere_boundary(2.0, 33, 17)
    assert np.array_equal(b1.sources, b2.sources)
    assert np.array_equal(b1.detectors, b2.detectors)


def test_boundary_type_rejects_off_sphere_points():
    with pytest.raises(ValueError):
        BoundaryArray(
            sources=np.array([[1.0, 0, 0]]),
            detectors=np.array([[0, 0, 2.0]]),
            src_weight=1.0,
            det_weight=1.0,
            omega_radius=2.0,
        )


@pytest.mark.parametrize("family", ["sources", "detectors"])
def test_boundary_type_checks_point_shapes(family):
    points = {"sources": np.array([[2.0, 0, 0]]), "detectors": np.array([[0, 0, 2.0]])}
    points[family] = np.array([[2.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape(f"{family} must be (n, 3)")):
        BoundaryArray(**points, src_weight=1.0, det_weight=1.0, omega_radius=2.0)


@pytest.mark.parametrize("src_weight, det_weight", [(0.0, 1.0), (1.0, -1.0)])
def test_boundary_type_rejects_non_positive_weights(src_weight, det_weight):
    with pytest.raises(ValueError, match="surface weights must be positive"):
        BoundaryArray(
            sources=np.array([[2.0, 0, 0]]),
            detectors=np.array([[0, 0, 2.0]]),
            src_weight=src_weight,
            det_weight=det_weight,
            omega_radius=2.0,
        )


def test_sphere_boundary_rejects_a_non_positive_radius():
    with pytest.raises(ValueError, match="omega_radius must be positive"):
        build_sphere_boundary(0, 1, 1)


def test_lp_norm_constant_field():
    grid = build_ball_grid(1.0, 0.25)
    val = field_norm(grid, np.ones(grid.n_nodes), 2)
    assert val == pytest.approx(math.sqrt(grid.volume), rel=1e-14)


def test_lp_norm_sup_ignores_weights():
    vals = np.array([0.5, -3.0, 1.0])
    assert lp_norm(vals, np.array([1.0, 2.0, 100.0]), INF) == 3.0


def test_lp_norm_small_example():
    assert lp_norm(np.array([3.0, 4.0]), np.array([1.0, 1.0]), 2) == pytest.approx(5.0)


@pytest.mark.parametrize("p", [2, 3.5])
def test_lp_norm_of_finite_field_near_float_max_is_finite(p):
    # |f|^p overflows for entries near 1e200; the norm is rescaled by max |f| instead
    rng = np.random.default_rng(3)
    f = rng.normal(size=40) + 1j * rng.normal(size=40)
    w = rng.uniform(0.1, 2.0, 40)
    got = lp_norm(1e200 * f, w, p)
    assert math.isfinite(got)
    assert got == pytest.approx(1e200 * lp_norm(f, w, p), rel=1e-13)


def test_lp_norm_of_non_finite_field_stays_non_finite():
    assert lp_norm(np.array([1.0, np.inf]), 1.0, 2) == INF
    assert math.isnan(lp_norm(np.array([1.0, np.nan]), 1.0, 2))


def one_field_lp_norm(values, weights, p):
    """The norm of one field, summed on its own: the reference for the row norms."""
    mags = np.abs(np.ravel(values))
    if math.isinf(p):
        return float(mags.max(initial=0.0))
    w = np.broadcast_to(np.asarray(weights, dtype=float), mags.shape)
    with np.errstate(over="ignore"):
        total = (w * mags**p).sum()
    if math.isinf(total) and np.isfinite(mags).all():
        top = mags.max()
        return float(top * (w * (mags / top) ** p).sum() ** (1.0 / p))
    return float(total ** (1.0 / p))


@pytest.mark.parametrize("p", [2, 3.5, INF])
def test_row_norms_have_the_bytes_of_one_field_at_a_time(p):
    # one reduction over stacked fields, as the inverse diagnostics take it, changes
    # no byte of any norm, the overflow rescale and non-finite fields included
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 2.0, 57)
    f = rng.normal(size=(3, 57)) + 1j * rng.normal(size=(3, 57))
    rows = np.concatenate([f, 1e200 * f[:1], np.zeros((1, 57)), f[:1] * np.inf])
    with np.errstate(invalid="ignore"):
        want = [one_field_lp_norm(row, w, p) for row in rows]
        got = _lp_norms(rows, w, p)
        single = [lp_norm(row, w, p) for row in rows]
    assert math.isfinite(want[3]) and not math.isfinite(want[5])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(single, want, equal_nan=True)
    want = [one_field_lp_norm(row, w, p) for row in rows.real]
    assert np.array_equal(_lp_norms(rows.real, w, p), want, equal_nan=True)


def test_lp_norm_rejects_p_below_two():
    with pytest.raises(ValueError):
        lp_norm(np.ones(3), np.ones(3), 1.5)


@pytest.mark.parametrize("weights", [np.array([1.0, 0.0, 1.0]), -1.0])
def test_lp_norm_rejects_non_positive_weights(weights):
    with pytest.raises(ValueError, match="weights must be positive"):
        lp_norm(np.ones(3), weights, 2)


def test_field_norm_rejects_a_field_of_the_wrong_shape():
    grid = build_ball_grid(1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("field shape (7,) does not match grid (8,)")):
        field_norm(grid, np.ones(7), 2)


@pytest.mark.parametrize("p", [2, 3.5, INF])
def test_norm_homogeneity_and_triangle(p):
    rng = np.random.default_rng(42)
    w = rng.uniform(0.1, 2.0, 40)
    for _ in range(100):
        f = rng.normal(size=40) + 1j * rng.normal(size=40)
        g = rng.normal(size=40) + 1j * rng.normal(size=40)
        c = rng.normal()
        assert lp_norm(c * f, w, p) == pytest.approx(abs(c) * lp_norm(f, w, p), rel=1e-12)
        assert lp_norm(f + g, w, p) <= lp_norm(f, w, p) + lp_norm(g, w, p) + 1e-12


def test_sphere_quadrature_integrates_smooth_functions():
    # int over the sphere of z^2 dsigma = 4 pi R^4 / 3; the Fibonacci rule
    # should converge well below the 5% area tolerance for smooth integrands
    R = 2.0
    exact = 4 * math.pi * R**4 / 3
    errs = []
    for n in (32, 128, 512):
        b = build_sphere_boundary(R, n, 1)
        approx = (b.src_weight * b.sources[:, 2] ** 2).sum()
        errs.append(abs(approx - exact) / exact)
    assert errs[-1] < 1e-2
    assert errs[-1] < errs[0]


def test_data_norm_converges_under_boundary_refinement():
    # phi(x1, x2) = z1 x2 / R^2 has ||phi||_2^2 = (int z^2)(int x^2)/R^4,
    # and each sphere moment is 4 pi R^4 / 3
    R = 2.0
    exact = 4 * math.pi * R**2 / 3
    vals = []
    for n in (24, 96, 384):
        b = build_sphere_boundary(R, n, n)
        phi = np.outer(b.sources[:, 2], b.detectors[:, 0]) / R**2
        vals.append(data_norm(b, phi, 2))
    assert vals[-1] == pytest.approx(exact, rel=2e-2)
    assert abs(vals[2] - exact) < abs(vals[0] - exact)


def test_data_norm_uses_pair_weights():
    b = build_sphere_boundary(2.0, 3, 5)
    phi = np.ones((3, 5))
    expected = math.sqrt(b.pair_weight * 15)
    assert data_norm(b, phi, 2) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        data_norm(b, np.ones((5, 3)), 2)
