import numpy as np
import pytest

from invborn import born_term, cli, linearized_operator
from invborn.bounds import compositions
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


def enumerated_inverse_series(kinv, ops, phi, order):
    """Reference terms: every composition of order j into m >= 2 parts, one chain each.

    The oracle for the chain recurrence of ``inverse_series``.
    """
    terms = [kinv.apply(phi)]
    for j in range(2, order + 1):
        acc = np.zeros((ops.n_src, ops.n_det), dtype=complex)
        for m in range(2, j + 1):
            for comp in compositions(j, m):
                acc += born_term(ops, [terms[i - 1] for i in comp])
        terms.append(-kinv.apply(acc))
    return terms


@pytest.fixture(autouse=True)
def cold_invert_operators():
    """Each test starts with no kept invert stage, so the builders it patches run."""
    cli._KEPT[:] = None, None


@pytest.fixture(scope="session")
def small_ops():
    """Coarse diffuse problem (56 voxels, 6 x 6 pairs): fast enough for per-test use."""
    return make_ops(h=0.45, n_src=6, n_det=6)


@pytest.fixture(scope="session")
def small_linop(small_ops):
    return linearized_operator(small_ops)
