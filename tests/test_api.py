"""The public API: the names the package exports, every module's __all__, and the
library calls the benchmark traces."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import invborn

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


@pytest.mark.parametrize("module", ["bounds", "cli", "forward", "greens", "grid", "inverse"])
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"invborn.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


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
