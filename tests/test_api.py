"""The public API: the names the package exports, and every module's __all__."""

import importlib
import types

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
    "diagram_count",
    "dilog",
    "field_norm",
    "greens_kernel",
    "incident_field",
    "interpolate_constants",
    "inverse_series",
    "k_from_optical",
    "linearized_operator",
    "lp_norm",
    "mu_closed_form",
    "mu_numeric_sweep",
    "nu_bound",
    "numeric_constants",
    "partition_count",
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
