"""Experiment front end: radius sweeps, forward/inverse runs, self tests.

Every command is a pure function of its configuration (and RNG seed): reruns
produce byte-identical output files.  Exit codes: 0 success, 2 when results
were produced but a certificate or smallness hypothesis is violated, 1 on error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import bounds, forward, inverse
from .greens import _KINDS, WaveMode, assemble, assemble_boundary, assemble_volume
from .grid import build_ball_grid, build_sphere_boundary, data_norm

__all__ = [
    "ExperimentConfig",
    "build_phantom",
    "cmd_radii",
    "cmd_forward",
    "cmd_invert",
    "cmd_selftest",
    "main",
]

DEFAULT_PHANTOM = [{"center": [0.3, 0.0, 0.0], "radius": 0.4, "amplitude": 0.1}]


@dataclass
class ExperimentConfig:
    mode: str = "diffuse"
    k: float = 1.0
    a: float = 1.0
    omega_radius: float = 2.0
    h: float = 1.0 / 6.0
    n_src: int = 48
    n_det: int = 48
    tau: float | None = 1e-3
    rank: int | None = None
    order: int = 6
    phantom: list = field(default_factory=lambda: [dict(b) for b in DEFAULT_PHANTOM])
    noise: float = 0.0
    seed: int | None = None
    output: str | None = None

    def validate(self):
        if self.mode not in _KINDS:
            raise ValueError(f"mode must be {' or '.join(_KINDS)}, got {self.mode!r}")
        # a --config file can hold any JSON value; bool is an int subclass but no count.
        # Every comparison with NaN is False, so non-finite values must be caught first;
        # a JSON integer too large for a float is refused here too
        for name, flag in _CONFIG_FLAGS.items():
            value, kind = getattr(self, name), flag.get("type")
            if kind is None or (value is None and name in ("rank", "seed", "tau")):
                continue
            number, what = (
                (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a number")
            )
            if isinstance(value, bool) or not isinstance(value, number):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            if kind is float:
                _finite_number(name, value, float)
        # open() takes an int as a file descriptor: {"output": true} would write to stdout
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(f"output must be a file path, got {self.output!r}")
        if self.k <= 0 or self.a <= 0:
            raise ValueError("k and a must be positive")
        k = float(self.k)  # an int k squares exactly, into an int that isfinite cannot take
        if not math.isfinite(k * k):
            raise ValueError(f"k^2 overflows at k={self.k:g}")
        if self.omega_radius <= self.a:
            raise ValueError("omega_radius must exceed a")
        # h, n_src and n_det are range-checked where the grids are built: radii builds none
        if (self.tau is None) == (self.rank is None):
            raise ValueError("give exactly one of tau or rank")
        inverse._check_truncation(self.tau)
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if self.noise > 0 and self.seed is None:
            raise ValueError("a seed is required when noise > 0")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not isinstance(self.phantom, list):
            raise ValueError("phantom must be a list of {center, radius, amplitude} balls")
        for i, blob in enumerate(self.phantom):
            _check_blob(f"phantom[{i}]", blob)
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls()
        if "rank" in data and "tau" not in data:
            cfg.tau = None  # an explicit rank rule replaces the default tau rule
        for key, value in data.items():
            setattr(cfg, key, value)
        return cfg

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _CONFIG_KEYS}

    @property
    def wave_mode(self) -> WaveMode:
        return WaveMode(self.mode, self.k)


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _finite_number(name: str, value, kind):
    try:
        # bool is an int subclass and float() parses strings; only a complex may be
        # spelled as a string, since JSON has no complex numbers
        if isinstance(value, bool) or (isinstance(value, str) and kind is not complex):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not np.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def _check_blob(name: str, blob) -> None:
    """Reject a phantom ball with a malformed or non-finite center, radius or amplitude."""
    if not isinstance(blob, dict):
        raise ValueError(f"{name} must be an object with center, radius and amplitude")
    for key in ("center", "radius", "amplitude"):
        if key not in blob:
            raise ValueError(f"{name}.{key} is missing")
    try:
        if any(isinstance(c, (bool, str)) for c in blob["center"]):
            raise TypeError
        center = np.asarray(blob["center"], dtype=float)
    except (TypeError, ValueError):
        center = np.empty(0)
    if center.shape != (3,) or not np.isfinite(center).all():
        raise ValueError(f"{name}.center must be 3 finite numbers, got {blob['center']!r}")
    if not _finite_number(f"{name}.radius", blob["radius"], float) > 0:
        raise ValueError(f"{name}.radius must be positive, got {blob['radius']!r}")
    _finite_number(f"{name}.amplitude", blob["amplitude"], complex)


def _ball_mask(grid, blob) -> np.ndarray:
    center = np.asarray(blob["center"], dtype=float)
    return np.linalg.norm(grid.centers - center[None, :], axis=1) <= float(blob["radius"])


def build_phantom(grid, blobs) -> np.ndarray:
    """Sum of constant-amplitude balls sampled on the grid nodes."""
    eta = np.zeros(grid.n_nodes, dtype=complex)
    for i, blob in enumerate(blobs):
        _check_blob(f"phantom[{i}]", blob)
        eta[_ball_mask(grid, blob)] += complex(blob["amplitude"])
    return eta


def validate_absorption(eta: np.ndarray, mode: WaveMode) -> np.ndarray:
    """Physical admissibility: diffuse perturbations are real with values >= -1."""
    eta = np.asarray(eta, dtype=complex)
    if mode.kind == "diffuse":
        if np.any(eta.imag != 0):
            raise ValueError("diffuse absorption perturbation must be real")
        if np.any(eta.real < -1):
            raise ValueError("diffuse absorption perturbation must satisfy eta >= -1")
    return eta


def _config_phantom(grid, config: ExperimentConfig) -> np.ndarray:
    """The configured phantom on the grid; a ball that covers no node is refused."""
    for i, blob in enumerate(config.phantom):
        if not _ball_mask(grid, blob).any():
            raise ValueError(
                f"phantom[{i}] covers no grid node (center {blob['center']!r}, radius "
                f"{blob['radius']!r}, spacing h={grid.spacing:g})"
            )
    return validate_absorption(build_phantom(grid, config.phantom), config.wave_mode)


def _grids(config: ExperimentConfig):
    grid = build_ball_grid(config.a, config.h)
    boundary = build_sphere_boundary(config.omega_radius, config.n_src, config.n_det)
    return grid, boundary


def _setup(config: ExperimentConfig):
    grid, boundary = _grids(config)
    return grid, boundary, assemble(config.wave_mode, grid, boundary)


def _available_memory() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(config: ExperimentConfig, nodes: int, values: int, held: int = 0) -> None:
    """Refuse a run whose arrays, ``values`` entries at their peak, exceed available memory.

    ``nodes`` is the number of volume nodes the kernels span.  Checked before
    any kernel is formed, with ``values`` from ``forward.peak_entries`` or
    ``inverse.peak_entries``.  An entry takes 8 bytes in real (diffuse)
    arithmetic and 16 in complex (scalar).  ``held`` bytes of those arrays
    exist already, kept from an earlier invert run (see ``cmd_invert``);
    MemAvailable does not count them, so they are added to it.
    """
    need = values * (8 if config.mode == "diffuse" else 16)
    available = _available_memory()
    if available is None:
        return
    available += held
    if need > available:
        raise ValueError(
            f"the kernels on {nodes} nodes and the series arrays of order {config.order} "
            f"need about {need / 2**30:.3g} GiB, more than the {available / 2**30:.3g} GiB "
            "of available memory"
        )


def add_noise(phi: np.ndarray, amplitude: float, seed: int) -> np.ndarray:
    """Entrywise relative perturbation phi * (1 + amplitude * U(-1, 1)), seeded."""
    rng = np.random.default_rng(seed)
    return phi * (1.0 + amplitude * rng.uniform(-1.0, 1.0, size=phi.shape))


RADII_COLUMNS = (
    "ka", "mu_inf", "mu_2", "nu_inf", "nu_2",
    "forward_radius_inf", "forward_radius_2", "R_inf", "R_2", "mode",
)


def cmd_radii(config: ExperimentConfig, ka_values) -> list:
    """Closed-form constants and radii for each ka (at the configured geometry)."""
    rows = []
    for ka in ka_values:
        mode = WaveMode(config.mode, float(ka) / config.a)
        cs = bounds.closed_form_constants(mode, config.a, config.omega_radius)
        fwd_inf, inv_inf = bounds.convergence_radii(cs, bounds.INF)
        fwd_2, inv_2 = bounds.convergence_radii(cs, 2)
        rows.append(
            {
                "ka": float(ka),
                "mu_inf": cs.mu_inf,
                "mu_2": cs.mu_2,
                "nu_inf": cs.nu_inf,
                "nu_2": cs.nu_2,
                "forward_radius_inf": fwd_inf,
                "forward_radius_2": fwd_2,
                "R_inf": inv_inf,
                "R_2": inv_2,
                "mode": config.mode,
            }
        )
    return rows


def radii_csv(rows) -> str:
    lines = [",".join(RADII_COLUMNS)]
    for row in rows:
        cells = []
        for col in RADII_COLUMNS:
            value = row[col]
            cells.append(value if isinstance(value, str) else repr(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_forward(config: ExperimentConfig) -> tuple[dict, int]:
    """Direct solve, Born summation and the remainder certificate.

    The data depends on the kernels only where the phantom is nonzero, so they
    are assembled on those nodes alone: no V x V kernel is formed.  A stage
    kept by ``cmd_invert`` is dropped first, since forward uses none of it.
    """
    _KEPT[:] = None, None  # before the check, so MemAvailable counts the freed arrays
    grid, boundary = _grids(config)
    eta = _config_phantom(grid, config)
    support = np.flatnonzero(eta)
    n = support.size
    _check_memory(config, n, forward.peak_entries(n, config.n_src, config.n_det, config.order))
    ops = assemble(config.wave_mode, grid.subset(support), boundary)
    eta = eta[support]
    phi = forward.solve_direct(ops, eta)
    certificate = forward.residual_certificate(ops, eta, config.order, phi=phi)
    result = {
        "config": {key: getattr(config, key) for key in _FORWARD_KEYS},
        "grid_nodes": grid.n_nodes,
        "data_norms": {label: data_norm(boundary, phi, p) for p, label in bounds.P_NORMS},
        "certificate": certificate,
    }
    ok = all(rec["applicable"] for rec in certificate)
    return result, 0 if ok else 2


# The ExperimentConfig keys the data-independent stage of invert reads
_GEOMETRY_KEYS = ("mode", "k", "a", "omega_radius", "h", "n_src", "n_det", "tau", "rank")

# The last invert geometry's [_geometry_key, (kinv, ops)], or [None, None]
_KEPT = [None, None]


def _geometry_key(config: ExperimentConfig) -> tuple:
    """The geometry values, each with its type: a config int k = 1 and a float 1.0 differ."""
    return tuple((type(v), v) for v in (getattr(config, name) for name in _GEOMETRY_KEYS))


def _arrays(obj):
    """The arrays reachable from ``obj`` through tuples and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))


def _held_bytes(entry) -> int:
    """Bytes of the buffers behind the arrays of a kept (kinv, ops), each buffer counted once."""
    buffers = {}
    for array in _arrays(entry):
        while isinstance(array.base, np.ndarray):
            array = array.base
        buffers[id(array)] = array.nbytes
    return sum(buffers.values())


def _invert_operators(config: ExperimentConfig, grid, boundary):
    """The data-independent stage of ``cmd_invert``: (kinv, ops) for the geometry of ``config``.

    The operator is factored and truncated from the boundary kernels before
    g_vv is assembled, so no V x V volume kernel is alive while the Gram
    matrix is.
    """
    kernels = assemble_boundary(config.wave_mode, grid, boundary)
    kinv = inverse.regularize(
        inverse.linearized_operator(kernels, tau=config.tau), rank=config.rank, tau=config.tau
    )
    return kinv, assemble_volume(kernels)


def cmd_invert(config: ExperimentConfig) -> tuple[dict, int]:
    """Generate data from the phantom by direct solve, invert, and report.

    Two stages: ``_invert_operators`` gives the kernels and the truncated
    pseudoinverse, which depend on the geometry alone; the data solve, the
    series and the diagnostics then run on them.  The first stage is kept,
    read-only, in _KEPT for the next in-process call with the same
    ``_geometry_key``, which also takes its grid and boundary from it; a
    stage that raises keeps nothing.  Every check, the memory check
    included, runs on every call.  The kept stage of another geometry is
    dropped before that check, so two geometries' arrays never coexist and
    no V x V volume kernel is alive while a Gram matrix is.  The data solve
    reads the support block of g_vv.
    """
    key = _geometry_key(config)
    kept = _KEPT[1] if _KEPT[0] == key else None
    grid, boundary = _grids(config) if kept is None else (kept[1].grid, kept[1].boundary)
    eta_true = _config_phantom(grid, config)
    inverse._check_truncation(None, config.rank, min(config.n_src * config.n_det, grid.n_nodes))
    peak = inverse.peak_entries(
        grid.n_nodes, config.n_src, config.n_det, np.count_nonzero(eta_true), config.order,
        config.tau, real=config.mode == "diffuse",
    )
    if kept is None:
        _KEPT[:] = None, None  # before the check, so MemAvailable counts the freed arrays
    _check_memory(config, grid.n_nodes, peak, _held_bytes(_KEPT[1]))
    if kept is None:
        kept = _invert_operators(config, grid, boundary)
        for array in _arrays(kept):
            array.flags.writeable = False
        _KEPT[:] = key, kept
    kinv, ops = kept
    phi = forward.solve_direct(ops, eta_true)
    if config.noise > 0:
        phi = add_noise(phi, config.noise, config.seed)
    result = inverse.inverse_series(kinv, ops, phi, config.order)
    constants = bounds.closed_form_constants(config.wave_mode, config.a, config.omega_radius)
    with np.errstate(over="ignore", invalid="ignore"):  # dump_json names a NaN instead
        diag = inverse.diagnostics(result, kinv, constants, ops, phi, eta_true=eta_true)
    payload = {
        "config": config.to_dict(),
        "grid_nodes": grid.n_nodes,
        "retained_rank": kinv.rank,
        "spectrum": kinv.spectrum(),
        "diagnostics": diag,
    }
    hyp_ok = all(
        rec["hyp_operator_ok"] and rec["hyp_data_ok"] for rec in diag["p"].values()
    )
    return payload, 0 if hyp_ok else 2


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _non_finite(obj, path: str = ""):
    """(key path, value) of the first float in a ``_jsonable`` result that JSON cannot hold."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return (path, obj) if isinstance(obj, float) and not math.isfinite(obj) else None
    for key, value in items:
        found = _non_finite(value, f"{path}.{key}" if path else str(key))
        if found:
            return found
    return None


def dump_json(payload: dict) -> str:
    data = _jsonable(payload)
    try:
        return json.dumps(data, indent=2, allow_nan=False) + "\n"
    except ValueError:
        path, value = _non_finite(data)
        raise ValueError(f"the result is not finite: {path} = {value}") from None


# ---------------------------------------------------------------------------
# self test


def _selftest_checks():
    """(name, check) pairs; each check takes a fault flag and returns (ok, detail).

    With fault=True the check perturbs its own reference value, which must
    flip it to FAIL; this guards the harness itself.
    """
    from .greens import greens_kernel, self_cell_integral

    def problem(h, n_src, n_det, mode="diffuse"):
        """(grid, boundary, ops) at the default geometry: unit ball, radius-2 sphere, k = 1."""
        return _setup(ExperimentConfig(mode=mode, h=h, n_src=n_src, n_det=n_det))

    def grid_volume(fault):
        g = build_ball_grid(1.0, 1.0 / 6.0)
        target = 4.0 * math.pi / 3.0 * (2.5 if fault else 1.0)
        rel = abs(g.volume - target) / target
        return rel <= 3.0 * g.spacing / g.radius_a, f"rel dev {rel:.3e}"

    def boundary_weights(fault):
        b = build_sphere_boundary(2.0, 37, 23)
        area = 16.0 * math.pi * (1.001 if fault else 1.0)
        total = b.src_weight * b.n_src
        return abs(total - area) <= 1e-12 * area, f"sum {total:.6f} vs {area:.6f}"

    def kernel_value(fault):
        ref = math.exp(-1.0) / (4.0 * math.pi) * (1.01 if fault else 1.0)
        val = greens_kernel(WaveMode.diffuse(1.0), 1.0)
        return abs(val - ref) <= 1e-15, f"|dev| {abs(val - ref):.3e}"

    def self_cell(fault):
        ref = (1.0 - 2.0 * math.exp(-1.0)) * (1.01 if fault else 1.0)
        val = self_cell_integral(WaveMode.diffuse(1.0), 4.0 * math.pi / 3.0)
        return abs(val - ref) <= 1e-14, f"|dev| {abs(val - ref):.3e}"

    def assembly_symmetry(fault):
        _, _, ops = problem(0.35, 6, 6)
        dev = np.abs(ops.g_vv - ops.g_vv.T).max() + (1e-6 if fault else 0.0)
        return dev == 0.0, f"max asymmetry {dev:.3e}"

    def single_voxel_forward(fault):
        from .grid import Grid

        g = Grid(centers=np.zeros((1, 3)), weights=np.array([0.1]), spacing=0.5, radius_a=0.5)
        b = build_sphere_boundary(2.0, 1, 1)
        mode = WaveMode.diffuse(1.3)
        ops = assemble(mode, g, b)
        eta = np.array([0.7 + 0j])
        phi = forward.solve_direct(ops, eta)[0, 0]
        gs = ops.g_sv[0, 0]
        gd = ops.g_vd[0, 0]
        cself = ops.g_vv[0, 0]
        ref = mode.k**2 * gs * 0.7 * 0.1 * gd / (1.0 + mode.k**2 * 0.7 * cself)
        ref *= 1.01 if fault else 1.0
        return abs(phi - ref) <= 1e-14 * abs(ref), f"|dev| {abs(phi - ref):.3e}"

    def multilinearity(fault):
        g, _, ops = problem(0.45, 4, 4)
        rng = np.random.default_rng(11)
        f1 = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
        f2 = rng.normal(size=g.n_nodes)
        lhs = forward.born_term(ops, [2.5 * f1, f2])
        rhs = 2.5 * forward.born_term(ops, [f1, f2]) * (1.001 if fault else 1.0)
        dev = np.abs(lhs - rhs).max() / np.abs(rhs).max()
        return dev <= 1e-12, f"rel dev {dev:.3e}"

    def born_vs_direct(fault):
        g, _, ops = problem(0.3, 8, 8)
        amp = 0.3 / bounds.mu_closed_form(WaveMode.diffuse(1.0), 1.0, bounds.INF)
        eta = np.full(g.n_nodes, amp, dtype=complex) * (1.2 if fault else 1.0)
        phi = forward.solve_direct(ops, eta)
        series = forward.born_series(ops, eta if not fault else eta / 1.2, 25)
        dev = np.abs(phi - series.partial_sums[-1]).max() / np.abs(phi).max()
        return dev <= 1e-8, f"rel dev {dev:.3e}"

    def certificate_dominates(fault):
        g, _, ops = problem(0.3, 8, 8)
        amp = 0.4 / bounds.mu_closed_form(WaveMode.diffuse(1.0), 1.0, bounds.INF)
        eta = np.full(g.n_nodes, amp, dtype=complex)
        records = forward.residual_certificate(ops, eta, 5)
        scale = 1e-4 if fault else 1.0
        ok = all(
            rec["applicable"]
            and all(e <= bd * scale for e, bd in zip(rec["empirical"], rec["bound"]))
            for rec in records
        )
        return ok, "empirical <= bound for all orders and p"

    def linearized_two_path(fault):
        g, b, ops = problem(0.35, 5, 7, mode="scalar")
        linop = inverse.linearized_operator(ops)
        rng = np.random.default_rng(3)
        eta = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
        via_matrix = (linop.matrix @ eta).reshape(b.n_src, b.n_det)
        via_chain = forward.born_term(ops, [eta]) * (1.0001 if fault else 1.0)
        dev = np.abs(via_matrix - via_chain).max() / np.abs(via_chain).max()
        return dev <= 1e-12, f"rel dev {dev:.3e}"

    def projector_idempotent(fault):
        _, _, ops = problem(0.35, 8, 8)
        kinv = inverse.regularize(inverse.linearized_operator(ops), tau=1e-2)
        proj = kinv.projector_matrix()
        dev = np.abs(proj @ proj - proj).max() + (1e-6 if fault else 0.0)
        return dev <= 1e-10, f"max |P^2 - P| {dev:.3e}"

    def recursion_composition(fault):
        g, _, ops = problem(0.45, 6, 6)
        kinv = inverse.regularize(inverse.linearized_operator(ops), tau=1e-3)
        eta = 0.02 * build_phantom(g, DEFAULT_PHANTOM) / DEFAULT_PHANTOM[0]["amplitude"]
        phi = forward.solve_direct(ops, eta)
        res = inverse.inverse_series(kinv, ops, phi, 3)
        eta1 = res.terms[0]
        t_c = kinv.apply(forward.born_term(ops, [eta1, eta1, eta1]))
        u = forward.born_term(ops, [eta1])
        v = forward.born_term(ops, [eta1, eta1])
        t_a = -kinv.apply(forward.born_term(ops, [kinv.apply(u), kinv.apply(v)]))
        t_b = -kinv.apply(forward.born_term(ops, [kinv.apply(v), kinv.apply(u)]))
        explicit = -(t_a + t_b + t_c) * (1.0001 if fault else 1.0)
        dev = np.abs(res.terms[2] - explicit).max() / max(np.abs(explicit).max(), 1e-300)
        return dev <= 1e-12, f"rel dev {dev:.3e}"

    def interpolation_endpoints(fault):
        mu2, mu_inf = 0.35, 0.6
        got2 = bounds.interpolate_constants(mu2, mu_inf, 1.0, 1.0, 2)[0]
        gotinf = bounds.interpolate_constants(mu2, mu_inf, 1.0, 1.0, bounds.INF)[0]
        ref2 = mu2 * (1.01 if fault else 1.0)
        return abs(got2 - ref2) <= 1e-15 and abs(gotinf - mu_inf) <= 1e-15, "endpoints exact"

    def radii_monotone(fault):
        mode = WaveMode.diffuse(1.0)
        cs1 = bounds.closed_form_constants(mode, 1.0, 2.0)
        cs2 = bounds.closed_form_constants(WaveMode.diffuse(1.3), 1.0, 2.0)
        r1 = bounds.convergence_radii(cs1, 2)[1]
        r2 = bounds.convergence_radii(cs2, 2)[1] * (3.0 if fault else 1.0)
        return r2 < r1, f"R2(k=1.3)={r2:.4f} < R2(k=1)={r1:.4f}"

    def term_bound_sample(fault):
        g, b, ops = problem(0.4, 6, 6)
        cs = bounds.closed_form_constants(ops.mode, 1.0, 2.0)
        from .grid import field_norm as fn

        rng = np.random.default_rng(5)
        ok = True
        worst = 0.0
        for _ in range(20):
            fs = [rng.uniform(-1, 1, g.n_nodes) for _ in range(3)]
            fs = [f / fn(g, f, bounds.INF) for f in fs]
            out = data_norm(b, forward.born_term(ops, fs), bounds.INF)
            lim = cs.nu_inf * cs.mu_inf**2 * (1e-5 if fault else 1.0)
            worst = max(worst, out / lim)
            ok = ok and out <= lim
        return ok, f"worst ratio {worst:.3e}"

    return [
        ("grid-volume", grid_volume),
        ("boundary-weights", boundary_weights),
        ("kernel-value", kernel_value),
        ("self-cell-integral", self_cell),
        ("assembly-symmetry", assembly_symmetry),
        ("single-voxel-forward", single_voxel_forward),
        ("multilinearity", multilinearity),
        ("born-vs-direct", born_vs_direct),
        ("certificate-dominates", certificate_dominates),
        ("linearized-two-path", linearized_two_path),
        ("projector-idempotent", projector_idempotent),
        ("recursion-composition", recursion_composition),
        ("interpolation-endpoints", interpolation_endpoints),
        ("radii-monotone", radii_monotone),
        ("term-bound-sample", term_bound_sample),
    ]


def cmd_selftest(inject_fault: str | None = None) -> int:
    checks = _selftest_checks()
    names = [name for name, _ in checks]
    if inject_fault is not None and inject_fault not in names:
        raise ValueError(f"unknown check name {inject_fault!r}; known: {', '.join(names)}")
    failures = 0
    for name, check in checks:
        try:
            ok, detail = check(name == inject_fault)
        except Exception as exc:  # a crashed check is a failure, not an abort
            ok, detail = False, f"exception: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name} ({detail})")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


# the flag of each ExperimentConfig key: --omega-radius sets omega_radius
_CONFIG_FLAGS = {
    "mode": {"choices": _KINDS},
    "k": {"type": float},
    "a": {"type": float},
    "omega_radius": {"type": float},
    "h": {"type": float},
    "n_src": {"type": int},
    "n_det": {"type": int},
    "tau": {"type": float},
    "rank": {"type": int},
    "order": {"type": int},
    "phantom": {"help": "JSON list of {center, radius, amplitude} blobs"},
    "noise": {"type": float},
    "seed": {"type": int},
    "output": {"help": "output file path"},
}
_RADII_KEYS = ("mode", "a", "omega_radius", "output")  # the only keys radii reads
# the keys forward takes and echoes: it reads neither the truncation rank nor the
# data noise; it keeps --tau, which bench/run.py passes to every workload
_FORWARD_KEYS = tuple(key for key in _CONFIG_FLAGS if key not in ("rank", "noise", "seed"))


def _add_config_flags(parser, keys=tuple(_CONFIG_FLAGS)):
    parser.add_argument("--config", help="JSON file with ExperimentConfig keys")
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), **_CONFIG_FLAGS[key])


def _resolve_config(args) -> ExperimentConfig:
    """The --config file's keys, overridden by the flags given."""
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(
                f"the --config file must hold a JSON object, got {type(data).__name__}"
            )
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = json.loads(value) if key == "phantom" else value
    return ExperimentConfig.from_dict(data).validate()


def _write_output(text: str, path: str | None, default_name: str) -> str:
    path = path or default_name
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


_KA_SWEEP = {"ka_min": 0.1, "ka_max": 100.0, "ka_points": 60}  # the default radii sweep


def _check_positive(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} must be positive, got {value}")


def _radii_ka_values(args) -> list:
    """The --ka list, or the geometric sweep set by --ka-min, --ka-max and --ka-points."""
    given = {name: getattr(args, name) for name in _KA_SWEEP if getattr(args, name) is not None}
    if args.ka is not None:
        if given:
            flag = "--" + next(iter(given)).replace("_", "-")
            raise ValueError(f"{flag} sets the ka sweep, which --ka replaces; give one of them")
        try:
            ka = [float(s) for s in args.ka.split(",")]
        except ValueError:
            raise ValueError(f"--ka must be comma-separated numbers, got {args.ka!r}") from None
        for value in ka:
            _check_positive("--ka", value)
        return ka
    sweep = {**_KA_SWEEP, **given}
    for name, value in sweep.items():
        _check_positive(f"--{name.replace('_', '-')}", value)
    return list(np.geomspace(sweep["ka_min"], sweep["ka_max"], sweep["ka_points"]))


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated flags, and exits 1 on a usage error (2 means a violated hypothesis)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="invborn",
        description="Born and inverse Born series experiments with convergence certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_radii = sub.add_parser("radii", help="closed-form constants and radii over a ka sweep")
    _add_config_flags(p_radii, _RADII_KEYS)
    p_radii.add_argument("--ka", help="comma-separated ka values (replaces the sweep)")
    default = {name: f"(default {value:g})" for name, value in _KA_SWEEP.items()}
    p_radii.add_argument("--ka-min", type=float, help=f"sweep start {default['ka_min']}")
    p_radii.add_argument("--ka-max", type=float, help=f"sweep end {default['ka_max']}")
    p_radii.add_argument(
        "--ka-points", type=int, help=f"geometric sweep points {default['ka_points']}"
    )

    p_fwd = sub.add_parser("forward", help="direct solve, Born sum and remainder certificate")
    _add_config_flags(p_fwd, _FORWARD_KEYS)

    p_inv = sub.add_parser("invert", help="inverse series reconstruction and diagnostics")
    _add_config_flags(p_inv)

    p_self = sub.add_parser("selftest", help="run the invariant checks")
    p_self.add_argument("--inject-fault", help="perturb the named check (must then fail)")
    return parser


# built once, at import: parse_args leaves the parser unchanged, so every in-process
# call of main reuses it
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest(args.inject_fault)
        config = _resolve_config(args)
        if args.command == "radii":
            rows = cmd_radii(config, _radii_ka_values(args))
            path = _write_output(radii_csv(rows), config.output, "radii.csv")
            print(f"wrote {len(rows)} rows to {path}")
            return 0
        if args.command == "forward":
            payload, code = cmd_forward(config)
            path = _write_output(dump_json(payload), config.output, "forward.json")
            print(f"wrote forward result to {path} (exit {code})")
            return code
        payload, code = cmd_invert(config)
        path = _write_output(dump_json(payload), config.output, "invert.json")
        print(f"wrote inversion result to {path} (exit {code})")
        return code
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation it could not make
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
