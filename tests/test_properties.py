"""Property tests over random small geometries.

The forward side draws one to three phantom balls; the inverse side draws a
truncation and a small random perturbation.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from invborn import (
    WaveMode,
    assemble,
    born_term,
    build_ball_grid,
    build_sphere_boundary,
    data_norm,
    inverse_series,
    linearized_operator,
    regularize,
    residual_certificate,
    solve_direct,
)
from invborn.cli import build_phantom, validate_absorption

from conftest import enumerated_inverse_series, full_system_data

# The remainder bound ignores rounding: once the series has converged, the
# computed remainder sits at the double-precision floor of the data, which a
# late-order bound can undercut.
ROUNDOFF_FLOOR = 1e-14


@st.composite
def problems(draw, kinds=("diffuse",), max_balls=1):
    grid = build_ball_grid(1.0, draw(st.floats(0.3, 0.5)))
    boundary = build_sphere_boundary(
        draw(st.floats(1.2, 3.0)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    )
    mode = WaveMode(draw(st.sampled_from(kinds)), draw(st.floats(0.5, 2.0)))
    ops = assemble(mode, grid, boundary)
    # overlapping balls add up: each amplitude is scaled so that eta stays >= -0.5
    n_balls = draw(st.integers(1, max_balls))
    blobs = [
        {
            "center": draw(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)),
            "radius": draw(st.floats(0.2, 0.7)),
            "amplitude": draw(st.floats(-0.5, 1.0)) / n_balls,
        }
        for _ in range(n_balls)
    ]
    return ops, validate_absorption(build_phantom(grid, blobs), ops.mode)


def check_certificate(ops, eta, phi):
    for rec in residual_certificate(ops, eta, 8, phi=phi):
        if not rec["applicable"]:
            continue
        p = math.inf if rec["p"] == "inf" else 2
        floor = ROUNDOFF_FLOOR * data_norm(ops.boundary, phi, p)
        assert all(e <= b + floor for e, b in zip(rec["empirical"], rec["bound"]))
        assert rec["empirical"][-1] <= rec["empirical"][0]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(problems())
def test_real_direct_solve_matches_complex_oracle_and_certificate(problem):
    ops, eta = problem
    oracle = dataclasses.replace(
        ops,
        g_vv=ops.g_vv.astype(complex),
        g_sv=ops.g_sv.astype(complex),
        g_vd=ops.g_vd.astype(complex),
    )
    phi = solve_direct(ops, eta)
    ref = solve_direct(oracle, eta)
    assert np.isrealobj(phi) and np.iscomplexobj(ref)
    assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()
    check_certificate(ops, eta, phi)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(problems(kinds=("diffuse", "scalar"), max_balls=3))
def test_support_solve_matches_full_system_oracle_and_certificate(problem):
    ops, eta = problem
    phi = solve_direct(ops, eta)
    ref = full_system_data(ops, eta)
    assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()
    check_certificate(ops, eta, phi)


@st.composite
def inverse_problems(draw):
    """A regularized inverse in either mode, and seeded data from a small random phantom."""
    grid = build_ball_grid(1.0, draw(st.floats(0.35, 0.5)))
    boundary = build_sphere_boundary(2.0, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    mode = WaveMode(draw(st.sampled_from(("diffuse", "scalar"))), draw(st.floats(0.5, 2.0)))
    ops = assemble(mode, grid, boundary)
    kinv = regularize(linearized_operator(ops), tau=draw(st.floats(1e-3, 1e-1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eta = 0.1 * rng.uniform(-1.0, 1.0, grid.n_nodes)
    return ops, kinv, eta


@settings(derandomize=True, deadline=None, max_examples=50)
@given(inverse_problems())
def test_inverse_series_matches_enumerated_compositions(problem):
    ops, kinv, eta = problem
    phi = solve_direct(ops, eta)
    got = inverse_series(kinv, ops, phi, 4).terms
    want = enumerated_inverse_series(kinv, ops, phi, 4)
    for j in range(4):
        assert np.abs(got[j] - want[j]).max() <= 1e-12 * np.abs(want[j]).max(), f"order {j + 1}"


@settings(derandomize=True, deadline=None, max_examples=50)
@given(inverse_problems())
def test_pinv_of_linearized_data_is_the_projection(problem):
    ops, kinv, eta = problem
    proj = kinv.project(eta)
    # the Gram eigenvectors leave a residual of eps * sigma_max^2 * |eta|, which pinv
    # divides by sigma_min^2: 2.2 eps * condition^2 * max |eta| at worst in 300 draws
    tol = 8 * np.finfo(float).eps * kinv.spectrum()["condition"] ** 2 * np.abs(eta).max()
    assert np.abs(kinv.apply(born_term(ops, [eta])) - proj).max() <= tol
