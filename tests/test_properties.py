"""Property tests over random small geometries.

The forward side draws one to three phantom balls; the inverse side draws a
truncation and a small random perturbation.  The CLI side draws whole
configurations and runs every command on them.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

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
from invborn.cli import RADII_COLUMNS, build_phantom, main, validate_absorption
from invborn.greens import DenseVolume

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
        volume=DenseVolume(ops.g_vv.astype(complex)),
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


# Edge lists of config values, the geometry ones in units of the support radius a,
# so that V <= 280.  GOOD values pass validation; each key's BAD values are refused
# by validation or by the commands that read the key, and one key draws a bad value
# in a quarter of the configs.  Good values can still be refused (a ball that covers no node, a rank
# above min(S*D, V), an operator below the SVAL_FLOOR cut at large k).
GOOD = {
    "mode": ["diffuse", "scalar"],
    "k": [1, 1.0, 0.5, 2.5, 20.0],
    "a": [1.0, 0.5, 2],
    "omega_radius": [2.0, 1.2],
    "h": [0.25, 0.3, 0.45, 0.7],
    "n_src": [1, 2, 6, 12],
    "n_det": [1, 5, 12],
    "tau": [1e-3, 1e-2, 0.3, 1, 1e-4],
    "rank": [None, None, 1, 3, 12],
    "order": [1, 3, 6],
    "noise": [(0.0, None), (1e-3, 7), (0, 0)],
    "center": [[0, 0, 0], [0.3, 0, 0], [-0.2, 0.2, 0.1]],
    "radius": [0.3, 0.5, 1.0],
    "amplitude": [0.1, -0.5, 0.02, 1],
}
BAD = {
    "mode": ["elastic"],
    "k": [0, -1.0, 1e200, True, "1"],
    "omega_radius": [1.0, 0.5],
    "h": [3.0, 0.0],
    "n_src": [0, 1.5],
    "tau": [0, 2.0, -1e-3],
    "rank": [0, 10**6],
    "order": [0, 2.5],
    "noise": [(1e-3, None), (0.0, -1), (-1.0, 1)],
    "center": [[5.0, 0, 0], [0, 0]],
    "radius": [0.0, -0.1, "0.3"],
    "amplitude": [-2.0, "0.05+0.01j"],
}
JSON_KEYS = {
    "forward": {"config", "grid_nodes", "data_norms", "certificate"},
    "invert": {"config", "grid_nodes", "retained_rank", "spectrum", "diagnostics"},
}


@st.composite
def cli_configs(draw):
    """A whole config file's keys, with one key's value drawn from BAD in a quarter of them."""
    bad = draw(st.sampled_from(list(BAD))) if draw(st.integers(0, 3)) == 0 else None

    def value(key):
        return draw(st.sampled_from(BAD[key] if key == bad else GOOD[key]))

    a = value("a")

    def length(key):  # GOOD and BAD lengths are in units of a; a string stays as drawn
        v = value(key)
        return a * v if isinstance(v, float) else v

    config = {key: value(key) for key in ("mode", "k", "n_src", "n_det", "tau", "rank", "order")}
    if config["rank"] is not None and bad != "tau":
        del config["tau"]  # an explicit rank replaces the tau rule; with tau bad, both stay
    config.update(a=a, omega_radius=length("omega_radius"), h=length("h"))
    config["noise"], config["seed"] = value("noise")
    balls = draw(st.integers(1 if bad in ("center", "radius", "amplitude") else 0, 2))
    config["phantom"] = [
        {
            "center": [a * c for c in value("center")],
            "radius": length("radius"),
            "amplitude": value("amplitude"),
        }
        for _ in range(balls)
    ]
    return config


def run_main(argv):
    """(exit code, standard error) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def reject_constant(name):
    raise ValueError(f"non-finite {name} in the result JSON")


def check_result(command, text):
    """The output file parses, with NaN refused, and holds the keys README lists."""
    if command == "radii":
        header, *rows = text.splitlines()
        assert header.split(",") == list(RADII_COLUMNS) and rows
        for row in rows:
            assert not any(math.isnan(float(cell)) for cell in row.split(",")[:-1])
    else:
        assert set(json.loads(text, parse_constant=reject_constant)) == JSON_KEYS[command]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(cli_configs())
def test_cli_contract(config):
    """Each command writes a well-formed result, or exits 1 with one error line and no file.

    A rerun, which for invert is served by the kept geometry stage, writes the same bytes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for command, extra in (("radii", ["--ka", "0.5,2"]), ("forward", []), ("invert", [])):
            out = Path(tmp) / f"{command}.out"
            argv = [command, "--config", path, *extra, "--output", out]
            code, err = run_main(argv)
            if code == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), err
                assert not out.exists()
                continue
            assert code in (0, 2) and not err
            text = out.read_text()
            check_result(command, text)
            out.unlink()
            assert run_main(argv) == (code, "")
            assert out.read_text() == text
