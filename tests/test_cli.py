import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import invborn
from invborn import cli, forward, greens, inverse, mirror
from invborn import (
    WaveMode,
    assemble,
    build_ball_grid,
    build_sphere_boundary,
    closed_form_constants,
    convergence_radii,
    linearized_operator,
    regularize,
)
from invborn.cli import (
    DEFAULT_PHANTOM,
    _FORWARD_KEYS,
    ExperimentConfig,
    add_noise,
    build_phantom,
    cmd_forward,
    cmd_radii,
    cmd_selftest,
    dump_json,
    main,
    radii_csv,
)

INF = math.inf

SMALL_ARGS = ["--h", "0.45", "--n-src", "6", "--n-det", "6", "--order", "3"]


def test_config_defaults_validate():
    cfg = ExperimentConfig().validate()
    assert cfg.mode == "diffuse"
    assert cfg.tau == 1e-3 and cfg.rank is None
    assert cfg.order == 6


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"spacing": 0.1})


def test_config_requires_seed_with_noise():
    cfg = ExperimentConfig()
    cfg.noise = 0.01
    with pytest.raises(ValueError, match="seed"):
        cfg.validate()


def test_config_rank_rule_replaces_tau():
    cfg = ExperimentConfig.from_dict({"rank": 7}).validate()
    assert cfg.rank == 7 and cfg.tau is None


def test_cli_config_file_with_removed_p_key_exits_one(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"p": 2}))
    out = tmp_path / "f.json"
    assert main(["forward", "--config", str(path), *SMALL_ARGS, "--output", str(out)]) == 1
    assert "unknown config keys: ['p']" in capsys.readouterr().err
    assert not out.exists()


def test_dump_json_converts_each_non_json_value():
    payload = {
        "array": np.array([[1.5, 2.0]]),
        "count": np.int64(3),
        "value": np.float64(0.25),
        "bounds": (math.inf, 1.0),
        "z": 1.0 - 2.0j,
    }
    assert dump_json(payload) == json.dumps(
        {
            "array": [[1.5, 2.0]],
            "count": 3,
            "value": 0.25,
            "bounds": ["inf", 1.0],
            "z": {"re": 1.0, "im": -2.0},
        },
        indent=2,
    ) + "\n"


def test_dump_json_names_the_first_value_json_cannot_hold():
    with pytest.raises(ValueError, match=r"not finite: a\.1\.b = nan"):
        dump_json({"a": [1.0, {"b": np.float64("nan")}, {"c": math.nan}]})


def test_cli_invert_names_a_result_that_overflows_to_nan(tmp_path, capsys):
    # projecting a phantom of amplitude 1e308 onto the retained subspace overflows.
    # Scalar mode projects it in complex arithmetic, where 0 * inf makes its linear
    # residual NaN: exit 1 naming it, no numpy warning, no output
    out = tmp_path / "i.json"
    phantom = json.dumps([{"center": [0, 0, 0], "radius": 1, "amplitude": 1e308}])
    args = [*SMALL_ARGS, "--phantom", phantom, "--output", out]
    assert run_cli(tmp_path, "invert", "--mode", "scalar", *args) == 1
    assert "error: the result is not finite: diagnostics.p.2.linear_residual = nan" in (
        capsys.readouterr().err
    )
    assert not out.exists()
    # diffuse mode projects the real and imaginary parts as real columns, so the
    # residual overflows to inf, which the JSON holds: exit 2, the hypotheses fail
    assert run_cli(tmp_path, "invert", *args) == 2
    record = json.loads(out.read_text())["diagnostics"]["p"]
    assert [record[p]["linear_residual"] for p in ("2", "inf")] == ["inf", "inf"]


def test_phantom_sampling():
    grid = build_ball_grid(1.0, 0.25)
    eta = build_phantom(grid, [{"center": [0, 0, 0], "radius": 0.5, "amplitude": 2.0}])
    inside = np.linalg.norm(grid.centers, axis=1) <= 0.5
    assert np.all(eta[inside] == 2.0)
    assert np.all(eta[~inside] == 0.0)


def test_phantom_blobs_superpose():
    grid = build_ball_grid(1.0, 0.25)
    blobs = [
        {"center": [0, 0, 0], "radius": 0.9, "amplitude": 1.0},
        {"center": [0, 0, 0], "radius": 0.3, "amplitude": 0.5},
    ]
    eta = build_phantom(grid, blobs)
    r = np.linalg.norm(grid.centers, axis=1)
    assert np.all(eta[r <= 0.3] == 1.5)


def test_noise_is_seeded_and_relative():
    phi = np.ones((3, 4), dtype=complex)
    a = add_noise(phi, 0.1, 5)
    b = add_noise(phi, 0.1, 5)
    c = add_noise(phi, 0.1, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.abs(a - phi).max() <= 0.1


def test_radii_rows_match_bound_functions():
    cfg = ExperimentConfig().validate()
    rows = cmd_radii(cfg, [1.0, 10.0])
    cs = closed_form_constants(WaveMode.diffuse(1.0), 1.0, 2.0)
    assert rows[0]["mu_inf"] == pytest.approx(cs.mu_inf, rel=1e-15)
    assert rows[0]["R_2"] == pytest.approx(convergence_radii(cs, 2)[1], rel=1e-15)
    assert rows[0]["mode"] == "diffuse"


def test_radii_csv_layout():
    cfg = ExperimentConfig().validate()
    text = radii_csv(cmd_radii(cfg, [1.0, 2.0]))
    lines = text.strip().split("\n")
    assert lines[0] == "ka,mu_inf,mu_2,nu_inf,nu_2,forward_radius_inf,forward_radius_2,R_inf,R_2,mode"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1.0"


def run_cli(tmp_path, *args):
    return main([str(a) for a in args])


def patch_kernel_builders(monkeypatch, fn):
    """Replace every kernel builder the CLI calls: forward assembles at once, invert in halves."""
    for name in ("assemble", "assemble_boundary", "assemble_volume"):
        monkeypatch.setattr(f"invborn.cli.{name}", fn)


def test_cli_radii_deterministic(tmp_path):
    out1 = tmp_path / "r1.csv"
    assert run_cli(tmp_path, "radii", "--ka", "1,5,25", "--output", out1) == 0
    text1 = out1.read_bytes()
    assert run_cli(tmp_path, "radii", "--ka", "1,5,25", "--output", out1) == 0
    assert out1.read_bytes() == text1


def test_cli_radii_small_ka_rows_are_finite(tmp_path):
    # 1 - (1 + ka) e^{-ka} cancels to 0 here unless it is summed as a series
    out = tmp_path / "r.csv"
    assert run_cli(tmp_path, "radii", "--ka", "1e-9", "--output", out) == 0
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["mu_inf"]) == pytest.approx(5e-19, rel=1e-9, abs=0)
    assert all(math.isfinite(float(values[col])) for col in header.split(",")[:-1])


def test_cli_radii_refuses_underflowed_mu(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = run_cli(tmp_path, "radii", "--mode", "scalar", "--ka", "1e-170", "--output", out)
    assert code == 1
    assert "mu_inf underflows to 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_forward_small_k(tmp_path):
    out = tmp_path / "f.json"
    assert run_cli(tmp_path, "forward", *SMALL_ARGS, "--k", "1e-9", "--output", out) == 0
    payload = json.loads(out.read_text())
    assert all(rec["applicable"] for rec in payload["certificate"])


def test_cli_forward_zero_phantom(tmp_path):
    out = tmp_path / "f.json"
    code = run_cli(
        tmp_path, "forward", *SMALL_ARGS,
        "--phantom", json.dumps([{"center": [0, 0, 0], "radius": 0.4, "amplitude": 0.0}]),
        "--output", out,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["data_norms"]["2"] == 0.0
    assert payload["data_norms"]["inf"] == 0.0


def test_cli_forward_noncompliant_exits_two(tmp_path):
    out = tmp_path / "f.json"
    code = run_cli(
        tmp_path, "forward", *SMALL_ARGS,
        "--phantom", json.dumps([{"center": [0, 0, 0], "radius": 1.0, "amplitude": 6.0}]),
        "--output", out,
    )
    assert code == 2
    payload = json.loads(out.read_text())
    flags = {rec["p"]: rec["applicable"] for rec in payload["certificate"]}
    assert flags["inf"] is False
    assert payload["data_norms"]["2"] > 0  # solve still returned


def test_cli_invert_reports_and_exits_two(tmp_path):
    out = tmp_path / "i.json"
    code = run_cli(tmp_path, "invert", *SMALL_ARGS, "--output", out)
    assert code == 2  # operator-norm hypothesis fails for any truncation
    payload = json.loads(out.read_text())
    diag = payload["diagnostics"]["p"]["2"]
    assert diag["hyp_operator_ok"] is False
    assert diag["hypothesis_violations"]
    assert len(diag["measured_error"]) == 3
    assert payload["config"]["order"] == 3


def test_cli_invert_zero_phantom_writes_finite_json(tmp_path):
    out = tmp_path / "i.json"
    zero = json.dumps([{"center": [0, 0, 0], "radius": 0.4, "amplitude": 0.0}])
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--phantom", zero, "--output", out) == 2

    def reject(name):
        raise ValueError(f"non-finite {name} in the invert JSON")

    payload = json.loads(out.read_text(), parse_constant=reject)
    for rec in payload["diagnostics"]["p"].values():
        assert rec["term_norms"] == [0.0, 0.0, 0.0]
        assert rec["term_ratios"] == [None, None]


def test_cli_invert_byte_identical_rerun(tmp_path):
    out = tmp_path / "i.json"
    args = ["invert", *SMALL_ARGS, "--noise", "0.001", "--seed", "11", "--output", out]
    assert run_cli(tmp_path, *args) == 2
    first = out.read_bytes()
    assert run_cli(tmp_path, *args) == 2
    assert out.read_bytes() == first


def test_cli_invert_factors_before_it_assembles_the_volume_kernel(tmp_path, monkeypatch):
    # no V x V volume kernel is alive while the Gram matrix is factored
    import invborn.cli
    import invborn.inverse

    calls = []
    for module, name in ((invborn.cli, "assemble_volume"), (invborn.inverse, "regularize")):
        def traced(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, traced)
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--output", tmp_path / "i.json") == 2
    assert calls == ["regularize", "assemble_volume"]


def test_cli_invert_tau_below_the_krylov_floor_factors_once(tmp_path, monkeypatch):
    # V = 912: a tau below KRYLOV_FLOOR goes to dense eigh at once, with one Gram
    # matrix and no Krylov basis; the factorization regularize keeps is that one
    import invborn.inverse

    calls = []
    for name in ("_weighted_gram", "_leading_eigenpairs", "linearized_operator", "regularize"):
        def traced(*args, _fn=getattr(invborn.inverse, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(invborn.inverse, name, traced)
    args = ("--order", "2", "--output", tmp_path / "i.json")
    assert run_cli(tmp_path, "invert", "--tau", "1e-4", *args) == 2
    assert calls == ["linearized_operator", "_weighted_gram", "regularize"]
    calls.clear()
    assert run_cli(tmp_path, "invert", "--tau", "1e-3", *args) == 2
    assert calls == ["linearized_operator", "_weighted_gram", "_leading_eigenpairs", "regularize"]


# a second phantom on the grid of SMALL_ARGS, for runs that reuse a kept invert stage
OTHER_PHANTOM = '[{"center": [-0.2, 0.1, 0.0], "radius": 0.5, "amplitude": 0.05}]'
SCALAR_ARGS = ["--mode", "scalar", "--h", "0.25", "--n-src", "6", "--n-det", "6", "--order", "3"]


def kept_entry():
    """The (kinv, ops) the invert stage keeps."""
    assert cli._KEPT[1] is not None
    return cli._KEPT[1]


@pytest.mark.parametrize(
    "args",
    [
        SMALL_ARGS,
        [*SMALL_ARGS, "--rank", "5", "--noise", "1e-3", "--seed", "3"],
        [*SCALAR_ARGS, "--tau", "1e-2", "--noise", "1e-3", "--seed", "4"],
        [*SCALAR_ARGS, "--rank", "8"],
        ["--h", "0.45", "--n-src", "5", "--n-det", "7", "--order", "3"],  # not reciprocal
    ],
)
def test_cli_invert_kept_stage_writes_the_bytes_of_a_cold_run(tmp_path, args):
    # the stage kept from a run on one phantom serves a run on another phantom
    out = tmp_path / "i.json"
    assert run_cli(tmp_path, "invert", *args, "--output", out) == 2
    entry = kept_entry()
    assert run_cli(tmp_path, "invert", *args, "--phantom", OTHER_PHANTOM, "--output", out) == 2
    assert kept_entry() is entry
    kept = out.read_bytes()
    cli._KEPT[:] = None, None
    assert run_cli(tmp_path, "invert", *args, "--phantom", OTHER_PHANTOM, "--output", out) == 2
    assert out.read_bytes() == kept


def test_cli_invert_alternating_geometries_write_the_same_bytes(tmp_path):
    runs = {"a": SMALL_ARGS, "b": [*SMALL_ARGS, "--mode", "scalar", "--rank", "5"]}
    written = {name: [] for name in runs}
    for name in ("a", "b", "a", "b"):
        out = tmp_path / f"{name}.json"
        assert run_cli(tmp_path, "invert", *runs[name], "--output", out) == 2
        written[name].append(out.read_bytes())
    assert all(first == again for first, again in written.values())


def test_cli_invert_kept_stage_builds_and_factors_nothing(tmp_path, monkeypatch):
    out = tmp_path / "i.json"
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--output", out) == 2
    first = out.read_bytes()
    patch_kernel_builders(monkeypatch, assemble_not_reached)
    for name in ("linearized_operator", "regularize", "_factor", "_weighted_gram"):
        monkeypatch.setattr(f"invborn.inverse.{name}", assemble_not_reached)
    other = ["--phantom", OTHER_PHANTOM]
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, *other, "--output", out) == 2
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--output", out) == 2
    assert out.read_bytes() == first


def test_cli_invert_hit_takes_the_kept_grid_and_writes_the_bytes_of_a_fresh_process(
    tmp_path, monkeypatch
):
    out = tmp_path / "i.json"
    args = [*SMALL_ARGS, "--noise", "1e-3", "--seed", "2", "--output", out]
    assert run_cli(tmp_path, "invert", *args) == 2
    ops = kept_entry()[1]
    built, cli_grids = [], cli._grids

    def grids(config):
        built.append((config.h, config.n_src))
        return cli_grids(config)

    monkeypatch.setattr(cli, "_grids", grids)
    assert run_cli(tmp_path, "invert", *args, "--phantom", OTHER_PHANTOM) == 2
    assert built == [] and kept_entry()[1] is ops
    warm = out.read_bytes()
    src = str(Path(invborn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out.unlink()  # the config, and so the output, names the path
    command = ["invert", *map(str, args), "--phantom", OTHER_PHANTOM]
    run = subprocess.run(
        [sys.executable, "-m", "invborn.cli", *command],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
    )
    assert run.returncode == 2
    assert out.read_bytes() == warm
    # h and n_src are part of the key: each change builds its own grid
    for changed in (["--h", "0.4"], ["--n-src", "5"]):
        assert run_cli(tmp_path, "invert", *args, *changed) == 2
        assert kept_entry()[1] is not ops
    assert built == [(0.4, 6), (0.45, 5)]


def test_cli_invert_new_geometry_frees_the_kept_stage_before_its_gram_matrix(
    tmp_path, monkeypatch
):
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--output", tmp_path / "a.json") == 2
    blocks = weakref.ref(kept_entry()[1].volume.blocks)
    alive, weighted_gram = [], inverse._weighted_gram

    def traced(*args, **kwargs):
        alive.append(blocks() is not None)
        return weighted_gram(*args, **kwargs)

    monkeypatch.setattr(inverse, "_weighted_gram", traced)
    args = [*SMALL_ARGS, "--tau", "1e-2", "--output", tmp_path / "b.json"]
    assert run_cli(tmp_path, "invert", *args) == 2
    assert alive == [False]


@pytest.mark.parametrize(
    "args", [[], ["--mode", "scalar", "--h", "0.25", "--order", "10"]], ids=["default", "scalar"]
)
def test_cli_invert_forms_no_dense_volume_kernel(tmp_path, monkeypatch, args):
    # the series multiplies the parity blocks and the data solve assembles the
    # phantom's support; a dense kernel on all V nodes would be formed by _dense_kernel
    h = float(args[args.index("--h") + 1]) if "--h" in args else 1 / 6
    n_nodes, dense_kernel = build_ball_grid(1.0, h).n_nodes, greens._dense_kernel

    def guarded(mode, grid):
        if grid.n_nodes == n_nodes:
            raise AssertionError(f"a {n_nodes} x {n_nodes} volume kernel was formed")
        return dense_kernel(mode, grid)

    for module in (greens, forward):
        monkeypatch.setattr(module, "_dense_kernel", guarded)
    out = tmp_path / "i.json"
    assert run_cli(tmp_path, "invert", *args, "--output", out) == 2
    ops = cli._KEPT[1][1]
    assert isinstance(ops.volume, mirror.MirrorVolume) and "g_vv" not in vars(ops)
    assert run_cli(tmp_path, "invert", *args, "--output", out) == 2  # a kept-stage hit


def test_cli_forward_assembles_a_symmetric_support_densely_once(tmp_path, monkeypatch):
    # a ball phantom centred at the origin has a mirror-symmetric support, which
    # assemble blocks; the solve and the certificate share one dense support kernel
    sizes, dense_kernel = [], greens._dense_kernel

    def counted(mode, grid):
        sizes.append(grid.n_nodes)
        return dense_kernel(mode, grid)

    for module in (greens, forward):
        monkeypatch.setattr(module, "_dense_kernel", counted)
    phantom = '[{"center": [0, 0, 0], "radius": 0.5, "amplitude": 0.1}]'
    out = tmp_path / "f.json"
    assert run_cli(tmp_path, "forward", "--phantom", phantom, "--output", out) == 0
    grid = build_ball_grid(1.0, 1 / 6)
    support = grid.subset(np.flatnonzero(build_phantom(grid, json.loads(phantom))))
    assert mirror.mirror_orbits(support) is not None
    assert sizes == [support.n_nodes]


def test_cli_invert_kept_arrays_refuse_writes(tmp_path):
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--output", tmp_path / "i.json") == 2
    kinv, ops = entry = kept_entry()
    linop = kinv.linop
    named = [ops.g_sv, ops.g_vd, ops.volume.blocks, ops.volume.orbits, ops.grid.weights]
    named += [linop.svals, linop.vh, linop.col_scale, kinv._v_r, kinv._left, kinv._u_rh]
    for array in named:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]
    assert not any(array.flags.writeable for array in cli._arrays(entry))


def test_cli_invert_integer_and_float_k_each_match_their_cold_run(tmp_path, monkeypatch):
    # the geometry key holds each value's type, so k = 1 never serves k = 1.0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"k": 1}))
    spellings = {"int": ["--config", config], "float": ["--k", "1.0"]}

    def run(kind):
        out = tmp_path / f"{kind}.json"
        assert run_cli(tmp_path, "invert", *SMALL_ARGS, *spellings[kind], "--output", out) == 2
        return out.read_bytes()

    cold = {}
    for kind in spellings:
        cli._KEPT[:] = None, None
        cold[kind] = run(kind)
    builds, assemble_boundary = [], cli.assemble_boundary

    def counted(*args, **kwargs):
        builds.append(1)
        return assemble_boundary(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_boundary", counted)
    for kind in ("int", "float", "int"):
        assert run(kind) == cold[kind]
    assert len(builds) == 3


def test_cli_invert_memory_check_counts_the_kept_stage_as_available(tmp_path, capsys, monkeypatch):
    # MemAvailable leaves out the arrays a kept stage holds; the fake below drops by
    # them too.  A hit adds them back, and a miss drops them before its check, so an
    # input accepted cold is accepted in process; the check still runs on a hit.
    grid = build_ball_grid(1.0, 0.45)
    support = np.count_nonzero(build_phantom(grid, DEFAULT_PHANTOM))
    need = 8 * inverse.peak_entries(grid.n_nodes, 6, 6, support, 3, 1e-3, real=True)
    budget = [need + 1]

    def available():
        return budget[0] - cli._held_bytes(cli._KEPT[1])

    monkeypatch.setattr("invborn.cli._available_memory", available)
    out = tmp_path / "i.json"
    for tau in ("1e-3", "1e-3", "2e-3", "2e-3"):  # cold, hit, miss, hit: one estimate
        assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--tau", tau, "--output", out) == 2
    out.unlink()
    budget[0] = need - 1
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--tau", "2e-3", "--output", out) == 1
    assert "more than the" in capsys.readouterr().err
    assert not out.exists()


def test_cli_forward_drops_the_kept_invert_stage_before_its_memory_check(tmp_path, monkeypatch):
    # a forward run after an invert run is accepted by the budget that accepts it cold:
    # the fake MemAvailable drops by the kept arrays while they are alive
    grid = build_ball_grid(1.0, 0.45)
    support = np.count_nonzero(build_phantom(grid, DEFAULT_PHANTOM))
    # the larger of the two checks a cold run passes: the grid's 4^3 lattice nodes and
    # 12 sensors at 12 and 10 floats each (cli._grids), and the kernels
    need = max(8 * forward.peak_entries(support, 6, 6, 3), 8 * (12 * 4**3 + 10 * 12))
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--output", tmp_path / "i.json") == 2
    assert cli._held_bytes(kept_entry()) > 1
    monkeypatch.setattr(
        "invborn.cli._available_memory", lambda: need + 1 - cli._held_bytes(cli._KEPT[1])
    )
    out = tmp_path / "f.json"
    assert run_cli(tmp_path, "forward", *SMALL_ARGS, "--output", out) in (0, 2)
    assert cli._KEPT == [None, None]
    assert out.exists()


def test_cli_invert_reports_spectrum(tmp_path):
    out = tmp_path / "i.json"
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--output", out) == 2
    spectrum = json.loads(out.read_text())["spectrum"]
    assert set(spectrum) == {"sigma_max", "sigma_min", "condition", "discarded_energy"}
    assert all(math.isfinite(v) for v in spectrum.values())
    assert 0 <= spectrum["discarded_energy"] < 1
    ops = assemble(
        WaveMode.diffuse(1.0), build_ball_grid(1.0, 0.45), build_sphere_boundary(2.0, 6, 6)
    )
    linop = linearized_operator(ops)
    kinv = regularize(linop, tau=1e-3)
    assert spectrum["sigma_min"] == kinv.sigma_min
    assert spectrum["sigma_max"] == linop.svals[0]
    assert spectrum["condition"] == linop.svals[0] / kinv.sigma_min
    kept = np.sum(linop.svals[: kinv.rank] ** 2) / np.sum(linop.svals**2)
    assert spectrum["discarded_energy"] == pytest.approx(1 - kept, abs=1e-15)


@pytest.mark.parametrize("rule", [["--rank", "80"], ["--tau", "1e-7"]])
def test_cli_refuses_truncation_below_sval_floor(tmp_path, capsys, rule):
    # 88 voxels, 8 x 10 pairs: sigma_80 / sigma_1 is 9.6e-6, below the floor
    out = tmp_path / "i.json"
    args = ["invert", "--h", "0.35", "--n-src", "8", "--n-det", "10", "--order", "2"]
    assert main([*args, *rule, "--output", str(out)]) == 1
    assert "SVAL_FLOOR" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"h": 0.45, "n_src": 6, "n_det": 6, "order": 2, "k": 2.0})
    )
    out = tmp_path / "f.json"
    code = run_cli(tmp_path, "forward", "--config", cfg_path, "--k", "1.5", "--output", out)
    assert code in (0, 2)
    payload = json.loads(out.read_text())
    assert payload["config"]["k"] == 1.5  # flag wins
    assert payload["config"]["order"] == 2  # file wins over default


@pytest.mark.parametrize("mode", ["diffuse", "scalar"])
def test_cli_config_file_with_integer_k(tmp_path, mode):
    # JSON "k": 2 arrives as an int; it must run exactly as "k": 2.0
    payloads = []
    for k in (2, 2.0):
        cfg_path, out = tmp_path / f"cfg_{k!r}.json", tmp_path / f"f_{k!r}.json"
        cfg_path.write_text(json.dumps({"mode": mode, "k": k}))
        code = run_cli(tmp_path, "forward", *SMALL_ARGS, "--config", cfg_path, "--output", out)
        assert code in (0, 2)
        payload = json.loads(out.read_text())
        del payload["config"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_cli_error_paths(tmp_path, capsys):
    assert main(["invert", "--noise", "0.1"]) == 1  # seed missing
    assert "seed" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert main(["forward", "--config", str(bad)]) == 1


def test_selftest_passes_and_fault_injection_fails(capsys):
    assert cmd_selftest() == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert text.strip().endswith("checks passed")

    assert cmd_selftest(inject_fault="kernel-value") == 1
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
    assert len(lines) == 1 and "kernel-value" in lines[0]


def test_every_selftest_check_detects_its_fault():
    from invborn.cli import _selftest_checks

    for name, check in _selftest_checks():
        ok, detail = check(True)
        assert not ok, f"fault injection did not flip {name} ({detail})"


def test_selftest_counts_a_crashed_check_and_runs_the_rest(monkeypatch, capsys):
    ran = []

    def crash(fault):
        ran.append("crash")
        raise ZeroDivisionError("division by zero")

    def fine(fault):
        ran.append("fine")
        return True, "ok"

    checks = [("crash", crash), ("fine", fine)]
    monkeypatch.setattr("invborn.cli._selftest_checks", lambda: checks)
    assert cmd_selftest() == 1
    assert ran == ["crash", "fine"]
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  crash (exception: division by zero)",
        "PASS  fine (ok)",
        "1/2 checks passed",
    ]


def test_cli_selftest_in_process(capsys):
    # the report goes to the sys.stdout of the call, so a redirect captures it
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["selftest"]) == 0
    assert len([line for line in buf.getvalue().splitlines() if line.startswith("PASS  ")]) == 15
    assert buf.getvalue().endswith("15/15 checks passed\n")
    assert main(["selftest", "--inject-fault", "grid-volume"]) == 1
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == [
        "grid-volume"
    ]


def test_selftest_unknown_fault_name():
    with pytest.raises(ValueError, match="unknown check"):
        cmd_selftest(inject_fault="no-such-check")


def test_cli_selftest_refuses_an_unknown_fault_name(capsys):
    assert main(["selftest", "--inject-fault", "no-such-check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown check name 'no-such-check'; known: grid-volume")


def test_validate_absorption_physicality():
    from invborn.cli import validate_absorption
    from invborn import WaveMode

    diffuse = WaveMode.diffuse(1.0)
    ok = validate_absorption(np.array([-0.5, 0.3]), diffuse)
    assert ok.dtype == complex
    with pytest.raises(ValueError, match=">= -1"):
        validate_absorption(np.array([-1.5, 0.0]), diffuse)
    with pytest.raises(ValueError, match="real"):
        validate_absorption(np.array([0.1 + 0.2j]), diffuse)
    # scalar-mode perturbations may be complex
    validate_absorption(np.array([0.1 + 0.2j]), WaveMode.scalar(1.0))


def test_cli_rejects_unphysical_diffuse_phantom(tmp_path, capsys):
    code = main(
        ["forward", *[str(a) for a in SMALL_ARGS],
         "--phantom", json.dumps([{"center": [0, 0, 0], "radius": 0.5, "amplitude": -2.0}])]
    )
    assert code == 1
    assert ">= -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--noise", "nan", "noise"),
        ("--a", "nan", "a"),
        ("--omega-radius", "nan", "omega_radius"),
        ("--k", "inf", "k"),
        ("--h", "nan", "h"),
        ("--tau", "nan", "tau"),
    ],
)
def test_cli_rejects_non_finite_values(tmp_path, capsys, flag, value, field):
    out = tmp_path / "i.json"
    code = main(["invert", *SMALL_ARGS, "--seed", "1", flag, value, "--output", str(out)])
    assert code == 1
    assert f"{field} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ({"order": "3"}, "order"),
        ({"order": None}, "order"),
        ({"n_src": 6.5}, "n_src"),
        ({"n_det": True}, "n_det"),
        ({"rank": 2.0}, "rank"),
        ({"seed": "1", "noise": 0.01}, "seed"),
        ({"k": "1"}, "k"),
        ({"a": True}, "a"),
    ],
)
def test_cli_rejects_wrongly_typed_config_values(tmp_path, capsys, config, field):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "i.json"
    code = main(["invert", "--config", str(path), "--h", "0.45", "--output", str(out)])
    assert code == 1
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("output", [True, 5, ["out.json"]])
def test_config_rejects_non_path_output(output):
    with pytest.raises(ValueError, match="output must be a file path"):
        ExperimentConfig.from_dict({"output": output}).validate()


@pytest.mark.parametrize(
    "blob, field",
    [
        ({"center": [0, 0, 0], "radius": math.nan, "amplitude": 0.1}, "radius"),
        ({"center": [0, 0, 0], "radius": math.inf, "amplitude": 0.1}, "radius"),
        ({"center": [0, 0, 0], "radius": 0.0, "amplitude": 0.1}, "radius"),
        ({"center": [0, 0, 0], "radius": "wide", "amplitude": 0.1}, "radius"),
        ({"center": [0, 0, 0], "amplitude": 0.1}, "radius"),
        ({"center": [math.nan, 0, 0], "radius": 0.3, "amplitude": 0.1}, "center"),
        ({"center": [0, 0, -math.inf], "radius": 0.3, "amplitude": 0.1}, "center"),
        ({"center": [0, 0], "radius": 0.3, "amplitude": 0.1}, "center"),
        ({"center": [0, 0, 0], "radius": 0.3, "amplitude": math.nan}, "amplitude"),
        ({"center": [0, 0, 0], "radius": 0.3, "amplitude": -math.inf}, "amplitude"),
        # bool is an int subclass and float() parses strings; neither is a number here
        ({"center": [0, 0, 0], "radius": True, "amplitude": 0.1}, "radius"),
        ({"center": [0, 0, 0], "radius": "0.3", "amplitude": 0.1}, "radius"),
        ({"center": [0, 0, 0], "radius": 0.3, "amplitude": True}, "amplitude"),
        ({"center": ["0", False, 0], "radius": 0.3, "amplitude": 0.1}, "center"),
        ({"center": [0, 0, True], "radius": 0.3, "amplitude": 0.1}, "center"),
        ({"center": [0, "0.1", 0], "radius": 0.3, "amplitude": 0.1}, "center"),
    ],
)
def test_cli_rejects_malformed_phantom_entries(tmp_path, capsys, blob, field):
    out = tmp_path / "i.json"
    good = {"center": [0, 0, 0], "radius": 0.3, "amplitude": 0.1}
    phantom = json.dumps([good, blob])  # NaN and Infinity as Python's json writes them
    code = main(["invert", *SMALL_ARGS, "--phantom", phantom, "--output", str(out)])
    assert code == 1
    assert f"phantom[1].{field} " in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_tau_and_rank_together(capsys):
    assert main(["invert", "--tau", "0.01", "--rank", "5"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_default_phantom_not_mutated():
    cfg1 = ExperimentConfig()
    cfg1.phantom[0]["amplitude"] = 99.0
    assert DEFAULT_PHANTOM[0]["amplitude"] == 0.1
    assert ExperimentConfig().phantom[0]["amplitude"] == 0.1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invert", "--order", "abc"], "invalid int value: 'abc'"),
        (["invert", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["invert", "--p", "2"], "unrecognized arguments: --p 2"),  # not --phantom
        (["invert", "--orde", "3"], "unrecognized arguments: --orde 3"),
        (["radii", "--ka-poin", "3"], "unrecognized arguments: --ka-poin 3"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ],
)
def test_cli_usage_errors_exit_one(capsys, argv, message):
    # exit 2 means results were produced with a violated hypothesis
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


def test_cli_main_builds_no_parser(tmp_path, monkeypatch):
    # the parser is built once, at import; a call of main only parses with it
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(["radii", "--ka", "1", "--output", str(tmp_path / "r.csv")]) == 0
    assert main(["forward", *SMALL_ARGS, "--output", str(tmp_path / "f.json")]) in (0, 2)
    assert main(["invert", *SMALL_ARGS, "--output", str(tmp_path / "i.json")]) in (0, 2)
    assert main(["selftest"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--bogus", "1"])
    assert exc.value.code == 1
    assert calls == []
    invborn.cli._build_parser()  # the counter sees the calls a build makes
    assert len(calls) > 40


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["radii", "--help"])
    assert exc.value.code == 0
    assert "--ka-points" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--ka-points", "0"], "--ka-points must be positive, got 0"),
        (["--ka-min", "0"], "--ka-min must be positive, got 0.0"),
        (["--ka-max", "nan"], "--ka-max must be positive, got nan"),
    ],
)
def test_cli_radii_refuses_bad_sweep_flags(tmp_path, capsys, args, message):
    out = tmp_path / "r.csv"
    assert run_cli(tmp_path, "radii", *args, "--output", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--ka", "1e160"], "closed-form constants overflow at ka=1e+160"),
        (["--mode", "scalar", "--ka", "1e154"], "nu_inf must be finite and nonnegative, got inf"),
    ],
)
def test_cli_radii_names_ka_on_overflow(tmp_path, capsys, args, message):
    out = tmp_path / "r.csv"
    assert run_cli(tmp_path, "radii", *args, "--output", out) == 1
    err = capsys.readouterr().err
    assert message in err and "at ka=1e+1" in err
    assert not out.exists()


def test_cli_radii_diffuse_nu_underflows_to_zero(tmp_path):
    # k^2 |B| overflows to inf where e^{-2kd} underflows to 0; the product is 0, not inf * 0
    out = tmp_path / "r.csv"
    assert run_cli(tmp_path, "radii", "--ka", "1e154", "--output", out) == 0
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["nu_inf"]) == 0.0 and float(values["nu_2"]) == 0.0
    assert all(math.isfinite(float(values[col])) for col in header.split(",")[:-1])


@pytest.mark.parametrize(
    "command, k, message",
    [
        ("forward", "1e150", "order-2 series coefficient alpha^2 overflows at k=1e+150"),
        ("invert", "1e100", "order-2 Gram coefficient (alpha*row_scale)^2 of the linearized"),
    ],
)
def test_cli_names_overflowing_alpha_power(tmp_path, capsys, command, k, message):
    # k^2 is finite, so the config passes; a higher power of alpha = -s k^2 is not
    out = tmp_path / "o.json"
    code = run_cli(tmp_path, command, *SMALL_ARGS, "--k", k, "--output", out)
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and f"k={float(k):g}" in err
    assert not out.exists()


def test_cmd_forward_peak_memory_below_one_volume_kernel():
    # kernels are assembled on the phantom's support alone: no V x V array is formed
    config = ExperimentConfig(
        h=1 / 9, phantom=[{"center": [0.2, 0.0, 0.0], "radius": 0.3, "amplitude": 0.3}]
    ).validate()
    tracemalloc.start()
    try:
        payload, code = cmd_forward(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    n = payload["grid_nodes"]
    assert n == 3112
    assert peak < 8 * n * n


@pytest.mark.parametrize("mode", ["diffuse", "scalar"])
def test_cli_forward_refuses_overflowing_k(tmp_path, capsys, mode):
    out = tmp_path / "f.json"
    args = ["--mode", mode, "--k", "1e160", "--output", out]
    code = run_cli(tmp_path, "forward", *SMALL_ARGS, *args)
    assert code == 1
    assert "k^2 overflows at k=1e+160" in capsys.readouterr().err
    assert not out.exists()


def test_cli_scalar_forward_tiny_k_names_underflow(tmp_path, capsys):
    # the scalar self-cell integral no longer turns into 0/0 (a NaN) on the way
    out = tmp_path / "f.json"
    args = ["--mode", "scalar", "--k", "1e-170", "--output", out]
    code = run_cli(tmp_path, "forward", *SMALL_ARGS, *args)
    assert code == 1
    assert "mu_inf underflows to 0 at ka=1e-170" in capsys.readouterr().err
    assert not out.exists()


def test_cli_accepts_complex_amplitude_string(tmp_path):
    # JSON has no complex numbers, so a string is the one way to give a complex amplitude
    out = tmp_path / "f.json"
    phantom = json.dumps([{"center": [0, 0, 0], "radius": 0.5, "amplitude": "0.1+0.05j"}])
    args = ["--mode", "scalar", "--phantom", phantom, "--output", out]
    assert run_cli(tmp_path, "forward", *SMALL_ARGS, *args) == 0
    assert json.loads(out.read_text())["config"]["phantom"][0]["amplitude"] == "0.1+0.05j"


def test_cli_radii_ignores_h_it_never_uses(tmp_path):
    # the default h = 1/6 exceeds 2a here, but radii builds no grid
    out = tmp_path / "r.csv"
    args = ["--a", "0.05", "--omega-radius", "0.1", "--ka", "1", "--output", out]
    assert run_cli(tmp_path, "radii", *args) == 0
    assert len(out.read_text().strip().split("\n")) == 2


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("forward", ["--h", "3"], "spacing must satisfy 0 < h <= 2a, got h=3.0, a=1.0"),
        ("invert", ["--h", "0"], "spacing must satisfy 0 < h <= 2a, got h=0.0, a=1.0"),
        ("forward", ["--n-src", "0"], "need at least one source and one detector, got 0, 48"),
        ("invert", ["--n-det", "-2"], "need at least one source and one detector, got 48, -2"),
    ],
)
def test_cli_grid_ranges_checked_where_grids_are_built(tmp_path, capsys, command, args, message):
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, command, *args, "--output", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--ka", "1,2", "--ka-points", "7"], "--ka-points"),
        (["--ka", "1", "--ka-min", "0.5"], "--ka-min"),
        (["--ka-max", "10", "--ka", "3"], "--ka-max"),
    ],
)
def test_cli_radii_refuses_sweep_flags_with_ka(tmp_path, capsys, args, flag):
    out = tmp_path / "r.csv"
    assert run_cli(tmp_path, "radii", *args, "--output", out) == 1
    assert f"{flag} sets the ka sweep, which --ka replaces" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ka", ["", "1,,2", "1;2"])
def test_cli_radii_names_malformed_ka(tmp_path, capsys, ka):
    out = tmp_path / "r.csv"
    assert run_cli(tmp_path, "radii", f"--ka={ka}", "--output", out) == 1
    assert f"--ka must be comma-separated numbers, got {ka!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ka", ["0", "-1", "nan", "inf"])
def test_cli_radii_refuses_a_ka_entry_not_positive_and_finite(tmp_path, capsys, ka):
    out = tmp_path / "r.csv"
    assert run_cli(tmp_path, "radii", f"--ka=1,{ka}", "--output", out) == 1
    assert f"--ka must be positive, got {float(ka)}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_radii_sweep_flags_default_independently(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(tmp_path, "radii", "--ka-points", "5", "--output", out) == 0
    kas = [float(line.split(",")[0]) for line in out.read_text().strip().split("\n")[1:]]
    assert kas == [float(x) for x in np.geomspace(0.1, 100.0, 5)]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency, and the CLI start-up time is a benchmark metric
    src = str(Path(invborn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, invborn, invborn.cli; print([m for m in sys.modules if 'scipy' in m])"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["forward", "invert"])
def test_cli_out_of_memory_exits_one_without_output(tmp_path, capsys, monkeypatch, command):
    # numpy raises a MemoryError subclass naming the allocation it could not make
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.39 GiB for an array with shape (33552, 33552)")

    patch_kernel_builders(monkeypatch, out_of_memory)
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, command, *SMALL_ARGS, "--output", out) == 1
    err = capsys.readouterr().err
    assert "error: out of memory: Unable to allocate 8.39 GiB" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--k", "5"),
        ("--h", "0.2"),
        ("--n-src", "4"),
        ("--n-det", "4"),
        ("--tau", "0.01"),
        ("--rank", "3"),
        ("--order", "3"),
        ("--phantom", "[]"),
        ("--noise", "0.5"),
        ("--seed", "1"),
    ],
)
def test_cli_radii_refuses_flags_it_never_reads(tmp_path, capsys, flag, value):
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(["radii", "--ka", "1", flag, value, "--output", str(out)])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_radii_config_file_may_hold_every_key(tmp_path):
    out = tmp_path / "r.csv"
    config = tmp_path / "c.json"
    data = {**ExperimentConfig().to_dict(), "k": 5.0, "order": 3, "noise": 0.5, "seed": 1}
    config.write_text(json.dumps(data))
    assert run_cli(tmp_path, "radii", "--config", config, "--ka", "1", "--output", out) == 0
    assert len(out.read_text().strip().split("\n")) == 2


@pytest.mark.parametrize("command", ["forward", "invert"])
@pytest.mark.parametrize(
    "ball",
    [
        {"center": [5, 0, 0], "radius": 0.1, "amplitude": 0.1},  # outside the support
        {"center": [0.1, 0.1, 0.1], "radius": 0.01, "amplitude": 0.1},  # between nodes
    ],
)
def test_cli_refuses_phantom_ball_covering_no_node(tmp_path, capsys, command, ball):
    out = tmp_path / "o.json"
    phantom = json.dumps([DEFAULT_PHANTOM[0], ball])
    code = run_cli(tmp_path, command, *SMALL_ARGS, "--phantom", phantom, "--output", out)
    assert code == 1
    assert "error: phantom[1] covers no grid node" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--rank", "3"), ("--noise", "0.5"), ("--seed", "1")])
def test_cli_forward_refuses_flags_it_never_reads(tmp_path, capsys, flag, value):
    out = tmp_path / "f.json"
    with pytest.raises(SystemExit) as exc:
        main(["forward", *SMALL_ARGS, flag, value, "--output", str(out)])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_forward_keeps_tau_and_config_file_may_hold_every_key(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["forward", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--tau" in text
    assert not any(flag in text for flag in ("--rank", "--noise", "--seed"))
    out = tmp_path / "f.json"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**ExperimentConfig().to_dict(), "noise": 0.5, "seed": 1}))
    assert run_cli(tmp_path, "forward", "--config", config, *SMALL_ARGS, "--output", out) == 0
    assert run_cli(tmp_path, "forward", *SMALL_ARGS, "--tau", "1e-3", "--output", out) == 0


def test_cli_forward_echoes_only_the_keys_it_reads(tmp_path):
    # the config file may hold invert's keys, but forward's output does not echo them
    config, out = tmp_path / "c.json", tmp_path / "f.json"
    config.write_text(json.dumps({"noise": 0.5, "seed": 3, "rank": 7}))
    assert run_cli(tmp_path, "forward", "--config", config, *SMALL_ARGS, "--output", out) == 0
    echoed = json.loads(out.read_text())["config"]
    assert list(echoed) == list(_FORWARD_KEYS)
    assert not {"rank", "noise", "seed"} & set(echoed)


@pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ('"abc"', "str"), ("3", "int")])
def test_cli_config_file_must_hold_an_object(tmp_path, capsys, text, kind):
    config, out = tmp_path / "c.json", tmp_path / "f.json"
    config.write_text(text)
    assert run_cli(tmp_path, "forward", "--config", config, "--output", out) == 1
    err = capsys.readouterr().err
    assert f"error: the --config file must hold a JSON object, got {kind}" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["k", "a", "omega_radius", "h", "tau", "noise"])
def test_cli_config_integer_too_large_for_a_float_is_named(tmp_path, capsys, key):
    config, out = tmp_path / "c.json", tmp_path / "f.json"
    config.write_text('{"%s": 1%s}' % (key, "0" * 400))
    assert run_cli(tmp_path, "invert", "--config", config, "--output", out) == 1
    err = capsys.readouterr().err
    assert f"error: {key} must be a finite number, got 1000" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "invert"])
@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_cli_refuses_omega_radius_whose_area_overflows(tmp_path, capsys, command, spelling):
    config, out = tmp_path / "c.json", tmp_path / "o.json"
    args = ["--omega-radius", "1e300"]
    if spelling == "config":  # a JSON integer, which squares exactly past the float range
        config.write_text('{"omega_radius": 1%s}' % ("0" * 300))
        args = ["--config", config]
    assert run_cli(tmp_path, command, *SMALL_ARGS, *args, "--output", out) == 1
    err = capsys.readouterr().err
    assert "error: the sphere area is not finite at omega_radius=1e+300" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "invert"])
@pytest.mark.parametrize("spelling", ["flag", "config"])
@pytest.mark.parametrize("exponent", [100, 150])
def test_cli_refuses_omega_radius_whose_pair_weight_overflows(
    tmp_path, capsys, command, spelling, exponent
):
    # the sphere area is finite; the pair weight area^2 / (S * D) is not
    config, out = tmp_path / "c.json", tmp_path / "o.json"
    args = ["--omega-radius", f"1e{exponent}"]
    if spelling == "config":
        config.write_text('{"omega_radius": 1%s}' % ("0" * exponent))
        args = ["--config", config]
    assert run_cli(tmp_path, command, *SMALL_ARGS, *args, "--output", out) == 1
    err = capsys.readouterr().err
    assert (
        "error: the source-detector pair weight area^2/(n_src*n_det) is not finite at "
        f"omega_radius=1e+{exponent}, n_src=6, n_det=6"
    ) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_refuses_negative_seed_before_assembly(tmp_path, capsys, monkeypatch):
    def assemble_not_reached(*args, **kwargs):
        raise AssertionError("assembled before the seed was checked")

    patch_kernel_builders(monkeypatch, assemble_not_reached)
    out = tmp_path / "i.json"
    code = run_cli(tmp_path, "invert", "--noise", "1e-3", "--seed", "-1", "--output", out)
    assert code == 1
    assert "error: seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


DIVERGING = ["--h", "0.45", "--k", "3", "--n-src", "6", "--n-det", "6"]
DIVERGING_PHANTOM = '[{"center": [0, 0, 0], "radius": 0.9, "amplitude": -0.99}]'


def test_cli_diverging_inverse_series_writes_finite_json(tmp_path):
    # every term is finite (up to 1e200), but its squared entries overflow
    out = tmp_path / "i.json"
    args = [*DIVERGING, "--order", "300", "--phantom", DIVERGING_PHANTOM, "--output", out]
    assert run_cli(tmp_path, "invert", *args) == 2
    record = json.loads(out.read_text())["diagnostics"]["p"]["2"]
    assert record["term_norms"][-1] > 1e150
    assert all(math.isfinite(r) for r in record["term_ratios"])


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("invert", [*DIVERGING, "--order", "1000", "--phantom", DIVERGING_PHANTOM],
         "the inverse series overflows at order 412"),
        ("forward", ["--h", "0.45", "--n-src", "6", "--n-det", "6", "--order", "3000",
                     "--phantom", '[{"center": [0, 0, 0], "radius": 0.9, "amplitude": 20}]'],
         "the Born series overflows at order 602"),
    ],
)
def test_cli_overflowing_series_names_the_order(tmp_path, capsys, command, args, message):
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, command, *args, "--output", out) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def assemble_not_reached(*args, **kwargs):
    raise AssertionError("assembled before the memory was checked")


@pytest.mark.parametrize(
    "command, gib", [("forward", "5.15e+07"), ("invert", "3.64e+08")]
)
def test_cli_refuses_order_whose_series_exceeds_memory(tmp_path, capsys, monkeypatch, command, gib):
    nodes = {"forward": 56, "invert": 912}[command]  # the phantom's support, the whole grid
    patch_kernel_builders(monkeypatch, assemble_not_reached)
    monkeypatch.setattr("invborn.cli._available_memory", lambda: 8 * 2**30)
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, command, "--order", "1000000000000", "--output", out) == 1
    err = capsys.readouterr().err
    assert (
        f"error: the kernels on {nodes} nodes and the series arrays of order 1000000000000 "
        f"need about {gib} GiB, more than the 8 GiB of available memory"
    ) in err
    assert not out.exists()


@pytest.mark.parametrize("mode, gib", [("diffuse", "9.46"), ("scalar", "18.9")])
def test_cli_refuses_grid_whose_kernels_exceed_memory(tmp_path, capsys, monkeypatch, mode, gib):
    # V = 33,552: the Gram matrix and the block Lanczos arrays, 1.13 V^2 entries at the
    # factorization peak, exceed memory alone; the order-6 series arrays need about 80 MB
    patch_kernel_builders(monkeypatch, assemble_not_reached)
    monkeypatch.setattr("invborn.cli._available_memory", lambda: 8 * 2**30)
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, "invert", "--mode", mode, "--h", "0.05", "--output", out) == 1
    err = capsys.readouterr().err
    assert (
        f"error: the kernels on 33552 nodes and the series arrays of order 6 need about {gib} "
        "GiB, more than the 8 GiB of available memory"
    ) in err
    assert not out.exists()


def test_cli_invert_memory_check_counts_the_dense_eigh_peak(tmp_path, capsys, monkeypatch):
    # V = 912: a tau below KRYLOV_FLOOR takes dense eigh, and the check counts that
    # path's peak (6.4 V^2 entries here: eigh's arrays, then all V singular vectors
    # beside the volume kernel's parity blocks); a count of 3 V^2 for every path
    # (22.9 MB) let it through.  The default tau takes block Lanczos, counted at
    # 4.3 V^2, which fits.
    monkeypatch.setattr("invborn.cli._available_memory", lambda: 32 * 2**20)
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, "invert", "--output", out) == 2
    patch_kernel_builders(monkeypatch, assemble_not_reached)
    out.unlink()
    assert run_cli(tmp_path, "invert", "--tau", "1e-4", "--output", out) == 1
    err = capsys.readouterr().err
    assert (
        "error: the kernels on 912 nodes and the series arrays of order 6 need about 0.0396 "
        "GiB, more than the 0.0312 GiB of available memory"
    ) in err
    assert not out.exists()


@pytest.mark.parametrize("command, code", [("forward", 0), ("invert", 2)])
def test_cli_default_runs_pass_the_memory_check(tmp_path, monkeypatch, command, code):
    monkeypatch.setattr("invborn.cli._available_memory", lambda: 8 * 2**30)
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, command, "--output", out) == code
    assert out.exists()


def test_cli_memory_check_skipped_where_meminfo_is_unreadable(tmp_path, monkeypatch):
    from invborn.cli import _available_memory

    if os.path.exists("/proc/meminfo"):
        assert _available_memory() > 0
    monkeypatch.setattr("invborn.cli._available_memory", lambda: None)
    assert run_cli(tmp_path, "forward", *SMALL_ARGS, "--output", tmp_path / "f.json") == 0


@pytest.mark.parametrize(
    "meminfo",
    [
        OSError("no /proc/meminfo"),
        "MemTotal:       8000000 kB\n",  # no MemAvailable line
        "MemAvailable:   many kB\n",
        "MemAvailable:\n",
    ],
)
def test_available_memory_is_none_where_meminfo_cannot_be_read(monkeypatch, meminfo):
    from invborn.cli import _available_memory

    def fake_open(path, *args, **kwargs):
        assert path == "/proc/meminfo"
        if isinstance(meminfo, OSError):
            raise meminfo
        return io.StringIO(meminfo)

    monkeypatch.setattr("invborn.cli.open", fake_open, raising=False)
    assert _available_memory() is None


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tau", "0", "tau must be in (0, 1], got 0.0"),
        ("--tau", "2", "tau must be in (0, 1], got 2.0"),
        ("--rank", "0", "rank must be in [1, 912], got 0"),
        ("--rank", "100000", "rank must be in [1, 912], got 100000"),
    ],
)
def test_cli_refuses_truncation_out_of_range_before_assembly(
    tmp_path, capsys, monkeypatch, flag, value, message
):
    # rank is bounded by min(S*D, V), so it is checked once the grids exist
    patch_kernel_builders(monkeypatch, assemble_not_reached)
    out = tmp_path / "i.json"
    assert run_cli(tmp_path, "invert", flag, value, "--output", out) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--order", "0"], "order must be >= 1"),
        (["--noise", "-1"], "noise must be nonnegative"),
        (["--k", "0"], "k and a must be positive"),
        (["--omega-radius", "0.5"], "omega_radius must exceed a"),
        ({"mode": "x"}, "mode must be diffuse or scalar, got 'x'"),
        ({"phantom": {}}, "phantom must be a list of {center, radius, amplitude} balls"),
        ({"phantom": [1]}, "phantom[0] must be an object with center, radius and amplitude"),
        (
            ["--k", "400", "--h", "0.45", "--n-src", "6", "--n-det", "6"],
            "operator is identically zero; nothing to invert",
        ),
        # 6 x 6 reciprocal pairs: K's rank is at most their 21 distinct pairs, not 36
        (
            ["--h", "0.45", "--n-src", "6", "--n-det", "6", "--rank", "22"],
            "rank must be in [1, 21], got 22",
        ),
    ],
)
def test_cli_invert_refusals_exit_one_and_write_no_file(tmp_path, capsys, args, message):
    written = []
    if isinstance(args, dict):  # a config file holding these keys
        config = tmp_path / "c.json"
        config.write_text(json.dumps(args))
        args, written = ["--config", config], ["c.json"]
    assert run_cli(tmp_path, "invert", *args, "--output", tmp_path / "i.json") == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == written


def test_cli_invert_tiny_tau_keeps_the_distinct_pairs(tmp_path):
    # 6 x 6 reciprocal pairs: the factorization holds the 21 values of the distinct
    # pairs, all above SVAL_FLOOR, and none of the 15 at rounding level past them
    out = tmp_path / "i.json"
    assert run_cli(tmp_path, "invert", *SMALL_ARGS, "--tau", "1e-9", "--output", out) == 2
    assert json.loads(out.read_text())["retained_rank"] == 21


@pytest.mark.parametrize(
    "args",
    [
        ["invert", "--h", "0.004"],  # a lattice of 500^3 nodes: 11.2 GiB
        ["forward", "--n-src", "100000000"],  # 8 GB of sensors
    ],
)
def test_cli_refuses_a_grid_too_large_before_building_it(tmp_path, capsys, monkeypatch, args):
    def not_reached(*args, **kwargs):
        raise AssertionError("built past the memory check")

    monkeypatch.setattr("invborn.cli._available_memory", lambda: 2**30)
    monkeypatch.setattr("invborn.cli.build_ball_grid", not_reached)
    monkeypatch.setattr("invborn.cli.build_sphere_boundary", not_reached)
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, *args, "--output", out) == 1
    err = capsys.readouterr().err
    assert "error: the grid's lattice of" in err and "more than the 1 GiB" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["invert", "forward"])
def test_cli_refuses_a_spacing_whose_lattice_overflows_before_building_it(
    tmp_path, capsys, monkeypatch, command
):
    # a/h = inf: the lattice index bounds would be ceil(-inf), an OverflowError
    def not_reached(*args, **kwargs):
        raise AssertionError("built past the lattice check")

    monkeypatch.setattr("invborn.cli.build_ball_grid", not_reached)
    monkeypatch.setattr("invborn.cli.build_sphere_boundary", not_reached)
    out = tmp_path / "o.json"
    assert run_cli(tmp_path, command, "--h", "5e-324", "--output", out) == 1
    err = capsys.readouterr().err
    assert "error: a/h overflows at a=1, h=4.94066e-324: the lattice has no finite size" in err
    assert "Traceback" not in err
    assert not out.exists()


MEMORY_BALL = '[{"center": [0.2, 0, 0], "radius": 0.4, "amplitude": 0.3}]'


@pytest.mark.parametrize(
    "args",
    [
        ["invert", "--tau", "1e-3"],
        ["invert", "--tau", "1e-4"],
        ["invert", "--rank", "50"],
        ["invert", "--rank", "200"],  # past the block Lanczos values: dense eigh again
        ["invert", "--mode", "scalar", "--h", "0.25", "--order", "10"],
        ["forward"],
        ["forward", "--h", str(1 / 9), "--order", "8"],
    ],
)
def test_cli_memory_estimate_bounds_the_traced_peak(tmp_path, monkeypatch, args):
    """The entries a run is checked at, times their itemsize, bound what it then allocates.

    The peak is counted from the memory check on: the argument parser, the grid
    and the phantom exist before it and are not part of the estimate (0.09 MiB
    at the forward default, whose estimate is 0.43 MiB).  tracemalloc counts
    numpy's arrays, not LAPACK's workspace, so the eigh and solve workspace
    that the estimates include is not seen here.
    """
    from invborn import cli

    check_memory, seen = cli._check_memory, {}

    def check(config, nodes, values, held=0):
        seen["estimate"] = values * (8 if config.mode == "diffuse" else 16)
        seen["before"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return check_memory(config, nodes, values, held)

    monkeypatch.setattr("invborn.cli._check_memory", check)
    out = tmp_path / "o.json"
    tracemalloc.start()
    try:
        code = run_cli(tmp_path, *args, "--phantom", MEMORY_BALL, "--output", out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 2)
    assert peak - seen["before"] <= seen["estimate"]
