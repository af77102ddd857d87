"""The public API: the names the package exports, every module's __all__, their
parameter defaults and range checks, and the library calls the benchmark traces."""

import ast
import dataclasses
import importlib
import inspect
import math
import types
from pathlib import Path

import numpy as np
import pytest

import invborn
from invborn import (
    CertifiedBounds,
    WaveMode,
    build_sphere_boundary,
    closed_form_constants,
    convergence_radii,
    dilog,
    greens_kernel,
    interpolate_constants,
    k_from_optical,
    lp_norm,
    mu_closed_form,
    nu_bound,
    self_cell_integral,
)
from invborn.bounds import forward_remainder_bounds
from invborn.greens import kernel_modulus, self_cell_l1, self_cell_l2

MODULES = ["bounds", "cli", "forward", "greens", "grid", "inverse", "mirror"]

PUBLIC_NAMES = {
    "BornSeries",
    "BoundaryArray",
    "CertifiedBounds",
    "ConstantSet",
    "Grid",
    "LinearizedOperator",
    "OperatorSet",
    "RegularizedInverse",
    "WaveMode",
    "assemble",
    "born_series",
    "born_term",
    "build_ball_grid",
    "build_sphere_boundary",
    "closed_form_constants",
    "convergence_radii",
    "data_norm",
    "diagnostics",
    "dilog",
    "field_norm",
    "greens_kernel",
    "interpolate_constants",
    "inverse_series",
    "k_from_optical",
    "linearized_operator",
    "lp_norm",
    "mu_closed_form",
    "mu_numeric_sweep",
    "nu_bound",
    "numeric_constants",
    "regularize",
    "residual_certificate",
    "self_cell_integral",
    "solve_direct",
    "stability_probe",
}


def test_package_exports_exactly_the_public_names():
    # a change to the public API has to edit this list on purpose
    exported = {
        name
        for name, value in vars(invborn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"invborn.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def _public_callables():
    yield from ((f"invborn.{name}", getattr(invborn, name)) for name in sorted(PUBLIC_NAMES))
    for module in MODULES:
        mod = importlib.import_module(f"invborn.{module}")
        yield from ((f"invborn.{module}.{name}", getattr(mod, name)) for name in mod.__all__)


def test_every_parameter_default_is_immutable():
    # a default is evaluated once, at import: a mutable one, or a stream such as
    # sys.stdout, is shared by every call and misses a later redirect
    allowed = (type(None), bool, int, float, str, tuple)
    bad = []
    for qualname, obj in _public_callables():
        fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
        factories = {f.name for f in fields if f.default_factory is not dataclasses.MISSING}
        for name, param in inspect.signature(obj).parameters.items():
            if param.default is param.empty or name in factories:
                continue
            if not isinstance(param.default, allowed):
                bad.append(f"{qualname}({name}={param.default!r})")
    assert not bad


_MODE = WaveMode.diffuse(1.0)
_BOUNDARY = build_sphere_boundary(2.0, 2, 2)
NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: interpolate_constants(0.3, 0.5, 0.1, 0.2, NAN), id="interpolate-p"),
        pytest.param(lambda: interpolate_constants(NAN, 0.5, 0.1, 0.2, 4), id="interpolate-mu2"),
        pytest.param(lambda: closed_form_constants(_MODE, 1.0, 2.0).mu_nu(NAN), id="mu_nu-p"),
        pytest.param(
            lambda: convergence_radii(closed_form_constants(_MODE, 1.0, 2.0), NAN), id="radii-p"
        ),
        pytest.param(lambda: lp_norm(np.ones(3), 1.0, NAN), id="lp_norm-p"),
        pytest.param(lambda: lp_norm(np.ones(3), np.array([1.0, NAN, 1.0]), 2), id="lp_norm-w"),
        pytest.param(lambda: dataclasses.replace(_BOUNDARY, src_weight=NAN), id="src_weight"),
        pytest.param(lambda: dataclasses.replace(_BOUNDARY, det_weight=NAN), id="det_weight"),
        pytest.param(lambda: mu_closed_form(_MODE, NAN, 2), id="mu_closed_form-a"),
        pytest.param(lambda: nu_bound(_MODE, NAN, 2.0, 2), id="nu_bound-a"),
        pytest.param(lambda: self_cell_integral(_MODE, NAN), id="self_cell_integral-w"),
        pytest.param(lambda: self_cell_l1(_MODE, NAN), id="self_cell_l1-w"),
        pytest.param(lambda: self_cell_l2(_MODE, NAN), id="self_cell_l2-w"),
        pytest.param(lambda: greens_kernel(_MODE, NAN), id="greens_kernel-r"),
        pytest.param(lambda: kernel_modulus(_MODE, np.array([1.0, NAN])), id="kernel_modulus-r"),
        pytest.param(lambda: dilog(NAN), id="dilog-x"),
        pytest.param(lambda: k_from_optical(NAN, 1.0), id="k_from_optical-nan-mu_a"),
        pytest.param(lambda: k_from_optical(1.0, NAN), id="k_from_optical-nan-mu_s"),
        pytest.param(lambda: k_from_optical(math.inf, 1.0), id="k_from_optical-inf"),
    ],
)
def test_range_checks_refuse_nan(call):
    # each check states the values it accepts, so NaN, which compares false, fails it
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    ("call", "message"),
    [
        *(
            pytest.param(lambda f=f, w=w: f(_MODE, w), "voxel weight", id=f"{f.__name__}-{w}")
            for f in (self_cell_l1, self_cell_l2)
            for w in (-1.0, 0.0)
        ),
        pytest.param(lambda: CertifiedBounds(0.1, 0.1, -1.0), "inputs must", id="bounds-pinv"),
        pytest.param(lambda: CertifiedBounds(-0.1, -0.1, -1.0), "inputs must", id="bounds-all"),
        *(
            pytest.param(lambda f=f: f(_MODE, math.inf), "voxel weight", id=f"{f.__name__}-inf")
            for f in (self_cell_integral, self_cell_l1, self_cell_l2)
        ),
        pytest.param(lambda: k_from_optical(1e200, 1e200), "optical", id="k_from_optical-overflow"),
        pytest.param(
            lambda: k_from_optical(5e-324, 5e-324), "optical", id="k_from_optical-underflow"
        ),
        pytest.param(
            lambda: interpolate_constants(-0.3, 0.5, 0.1, 0.2, 4), "constants must", id="interpolate"
        ),
        pytest.param(
            lambda: interpolate_constants(math.inf, 0.5, 0.1, 0.2, 2),
            "^constants must",
            id="interpolate-inf",
        ),
        pytest.param(
            lambda: forward_remainder_bounds(closed_form_constants(_MODE, 1.0, 2.0), 2, -1.0, 3),
            "eta_norm must",
            id="forward_remainder_bounds-eta",
        ),
    ],
)
def test_range_checks_refuse_values_outside_the_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_every_traced_call_resolves():
    # bench/run.py pins BLAS environment variables on import, so its TRACED list is
    # read from the source rather than imported
    source = (Path(__file__).parents[1] / "bench" / "run.py").read_text(encoding="utf-8")
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    assert traced
    for module, attr, _ in traced:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_readme_library_example_runs():
    # the fenced block under "Library example", with README's own claim about its error
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"]["p"]["2"]["measured_error"][-1] < 1e-6
