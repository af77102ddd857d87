import numpy as np
import pytest

from invborn import linearized_operator
from invborn.cli import ExperimentConfig, _setup


def make_ops(kind="diffuse", k=1.0, a=1.0, omega=2.0, h=0.45, n_src=6, n_det=6):
    """The operator set as `cli._setup` builds it, the same route the selftest takes."""
    config = ExperimentConfig(
        mode=kind, k=k, a=a, omega_radius=omega, h=h, n_src=n_src, n_det=n_det
    )
    return _setup(config)[2]


def full_system_data(ops, eta):
    """Data from np.linalg.solve of the full V x V system (I - alpha G_vv diag(eta)) u = u_i.

    The oracle for the forward solve, which works on the support of eta only.
    """
    alpha = ops.mode.alpha
    u = np.linalg.solve(np.eye(ops.n_nodes) - alpha * ops.g_vv * eta[None, :], ops.g_sv.T)
    return -alpha * ((u * (eta * ops.grid.weights)[:, None]).T @ ops.g_vd)


@pytest.fixture(scope="session")
def small_ops():
    """Coarse diffuse problem (56 voxels, 6 x 6 pairs): fast enough for per-test use."""
    return make_ops(h=0.45, n_src=6, n_det=6)


@pytest.fixture(scope="session")
def small_linop(small_ops):
    return linearized_operator(small_ops)
