import io
import json
import math

import numpy as np
import pytest

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
    ExperimentConfig,
    add_noise,
    build_phantom,
    cmd_radii,
    cmd_selftest,
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


def test_cli_invert_byte_identical_rerun(tmp_path):
    out = tmp_path / "i.json"
    args = ["invert", *SMALL_ARGS, "--noise", "0.001", "--seed", "11", "--output", out]
    assert run_cli(tmp_path, *args) == 2
    first = out.read_bytes()
    assert run_cli(tmp_path, *args) == 2
    assert out.read_bytes() == first


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


def test_cli_error_paths(tmp_path, capsys):
    assert main(["invert", "--noise", "0.1"]) == 1  # seed missing
    assert "seed" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert main(["forward", "--config", str(bad)]) == 1


def test_selftest_passes_and_fault_injection_fails():
    buf = io.StringIO()
    assert cmd_selftest(out=buf) == 0
    text = buf.getvalue()
    assert "FAIL" not in text
    assert text.strip().endswith("checks passed")

    buf = io.StringIO()
    assert cmd_selftest(inject_fault="kernel-value", out=buf) == 1
    lines = [l for l in buf.getvalue().splitlines() if l.startswith("FAIL")]
    assert len(lines) == 1 and "kernel-value" in lines[0]


def test_every_selftest_check_detects_its_fault():
    from invborn.cli import _selftest_checks

    for name, check in _selftest_checks():
        ok, detail = check(True)
        assert not ok, f"fault injection did not flip {name} ({detail})"


def test_selftest_unknown_fault_name():
    buf = io.StringIO()
    assert cmd_selftest(inject_fault="no-such-check", out=buf) == 1
    assert "unknown check" in buf.getvalue()


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
