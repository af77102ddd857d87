import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from invborn import (
    BornSeries,
    CertifiedBounds,
    ConstantSet,
    WaveMode,
    assemble,
    born_series,
    born_term,
    build_sphere_boundary,
    closed_form_constants,
    data_norm,
    diagnostics,
    field_norm,
    inverse_series,
    linearized_operator,
    regularize,
    solve_direct,
    stability_probe,
)
from invborn.cli import ExperimentConfig, _grids, build_phantom, validate_absorption
from invborn.grid import Grid, build_ball_grid
from invborn.greens import DenseVolume, assemble_boundary
from invborn.inverse import (
    KRYLOV_FLOOR,
    SVAL_FLOOR,
    _factor,
    _krylov_basis_limit,
    _krylov_block,
    _leading_eigenpairs,
    _pair_rows,
    _rank_bound,
    _reciprocal,
    _series_entries,
    _weighted_gram,
    peak_entries,
)
from invborn.mirror import MirrorVolume

from conftest import enumerated_inverse_series, make_ops

INF = math.inf


def make_problem(**kwargs):
    ops = make_ops(**kwargs)
    return ops, linearized_operator(ops)


def synthetic_constants(mode, scale=1e-6):
    """Artificially small constants placing a given operator inside the
    smallness region; used to exercise the bound machinery itself."""
    return ConstantSet(
        mu_inf=scale,
        mu_2=scale,
        nu_inf=scale,
        nu_2=scale,
        mode=mode,
        a=1.0,
        omega_radius=2.0,
        provenance="closed_form",
    )


def nonuniform_problem(kind):
    """6 x 6 pairs (reciprocal) on the h = 0.45 grid with weights varied node by node."""
    grid = build_ball_grid(1.0, 0.45)
    weights = grid.weights * np.random.default_rng(7).uniform(0.5, 1.5, grid.weights.size)
    grid = Grid(centers=grid.centers, weights=weights, spacing=grid.spacing, radius_a=1.0)
    ops = assemble(WaveMode(kind, 1.0), grid, build_sphere_boundary(2.0, 6, 6))
    return ops, linearized_operator(ops)


def general_layout(linop):
    """``linop`` with the pair map of non-reciprocal kernels: U_r row d * S + s for each pair."""
    s, d = np.ogrid[: linop.ops.n_src, : linop.ops.n_det]
    return dataclasses.replace(linop, _rows=d * linop.ops.n_src + s)


def weighted_gram(ops):
    """The weighted Gram matrix ``_factor`` forms for ``ops``."""
    rows = _pair_rows(ops)
    return _weighted_gram(ops, rows, math.sqrt(ops.boundary.pair_weight), np.sqrt(ops.grid.weights))


def check_against_enumerated_compositions(ops, linop, orders):
    """Every term of inverse_series to each of ``orders`` matches the oracle to 1e-12.

    On reciprocal kernels the orders past K = N // 2 are split.
    """
    kinv = regularize(linop, tau=1e-3)
    eta = 0.05 * build_phantom(
        ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
    )
    phi = solve_direct(ops, eta)
    ref = enumerated_inverse_series(kinv, ops, phi, max(orders))
    for order in orders:
        check_terms_match(inverse_series(kinv, ops, phi, order).terms, ref, order)


def check_terms_match(terms, ref, order):
    """Each term of a series run to ``order`` matches ``ref``'s to 1e-12 relative."""
    for j, (got, want) in enumerate(zip(terms, ref), 1):
        dev = np.abs(got - want).max() / np.abs(want).max()
        assert dev <= 1e-12, f"order {order}, term {j}: rel dev {dev:.3e}"


def recording_volume(ops):
    """``ops`` with a volume kernel that records the dtype of each block it multiplies; the list."""
    volume, operand_dtypes = ops.volume, []

    class Recording(type(volume)):
        def matmul(self, y, out, work=None):
            operand_dtypes.append(y.dtype)
            return super().matmul(y, out, work)

    return dataclasses.replace(ops, volume=Recording(*volume)), operand_dtypes


class _RecordingMatmul(np.ndarray):
    """Kernel matrix that records the dtype of each right operand it multiplies.

    Blocks taken from it (the forward path works on the support of eta) record
    into the same list.
    """

    def __array_finalize__(self, obj):
        self.operand_dtypes = getattr(obj, "operand_dtypes", None)

    def __matmul__(self, other):
        self.operand_dtypes.append(np.asarray(other).dtype)
        return np.asarray(self) @ other


class _RecordingProducts(np.ndarray):
    """Boundary kernel that records the operand dtypes of each product it takes part in.

    Arrays formed from it entrywise (the series' heads Lam_q + alpha G_sv W eta_q)
    record into the same list, on either side of a product.
    """

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", None)

    def __matmul__(self, other):
        self.products.append((self.dtype, np.asarray(other).dtype))
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        self.products.append((np.asarray(other).dtype, self.dtype))
        return np.asarray(other) @ np.asarray(self)


class TestLinearizedOperator:
    def test_matrix_matches_term_evaluation(self, small_ops, small_linop):
        rng = np.random.default_rng(1)
        eta = rng.normal(size=small_ops.n_nodes) + 1j * rng.normal(size=small_ops.n_nodes)
        via_matrix = (small_linop.matrix @ eta).reshape(small_ops.n_src, small_ops.n_det)
        via_term = born_term(small_ops, [eta])
        dev = np.abs(via_matrix - via_term).max() / np.abs(via_term).max()
        assert dev <= 1e-12

    def test_first_term_of_series_matches_matrix(self, small_ops, small_linop):
        from invborn import born_series

        rng = np.random.default_rng(2)
        eta = rng.normal(size=small_ops.n_nodes) + 0j
        series = born_series(small_ops, eta, 2)
        via_matrix = (small_linop.matrix @ eta).reshape(small_ops.n_src, small_ops.n_det)
        dev = np.abs(series.terms[0] - via_matrix).max() / np.abs(via_matrix).max()
        assert dev <= 1e-14

    def test_single_voxel_matrix(self):
        grid = Grid(centers=np.zeros((1, 3)), weights=np.array([0.2]), spacing=0.5, radius_a=0.5)
        boundary = build_sphere_boundary(2.0, 1, 1)
        ops = assemble(WaveMode.diffuse(1.0), grid, boundary)
        linop = linearized_operator(ops)
        expected = ops.g_sv[0, 0] * ops.g_vd[0, 0] * 0.2
        assert linop.matrix[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_singular_values_sorted_nonnegative(self, small_linop):
        s = small_linop.svals
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)


def dense_weighted_svd(linop):
    """Reference factorization: a dense SVD of the weight-scaled (S*D) x V matrix."""
    scaled = linop.matrix * (linop.row_scale / linop.col_scale[None, :])
    return np.linalg.svd(scaled, full_matrices=False)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
class TestGramAgainstDenseSvd:
    # 88 voxels, 8 x 10 distinct pairs: a spectrum reaching down to ~1e-6 sigma_max
    @staticmethod
    def problem(kind):
        return make_problem(h=0.35, n_src=8, n_det=10, kind=kind)

    def test_retained_singular_values(self, kind):
        _, linop = self.problem(kind)
        s_ref = dense_weighted_svd(linop)[1]
        assert linop.svals.shape == s_ref.shape
        # squaring the spectrum makes the relative error of sigma_i grow like
        # eps * (sigma_max / sigma_i)^2: measured <= 4.6e-12 at tau=1e-3, 4.4e-10 at 1e-4
        for tau, tol in ((1e-3, 1e-10), (1e-4, 1e-8)):
            kinv = regularize(linop, tau=tau)
            assert kinv.rank == np.count_nonzero(s_ref >= tau * s_ref[0])
            s_r, ref = linop.svals[: kinv.rank], s_ref[: kinv.rank]
            assert np.all(np.abs(s_r - ref) <= tol * ref)

    def test_projector_matches_dense(self, kind):
        _, linop = self.problem(kind)
        vh = dense_weighted_svd(linop)[2]
        kinv = regularize(linop, tau=1e-3)
        v_r = vh[: kinv.rank].conj().T
        ref = (v_r @ v_r.conj().T) * (linop.col_scale[None, :] / linop.col_scale[:, None])
        assert np.abs(kinv.projector_matrix() - ref).max() <= 1e-8

    def test_apply_matches_dense_pseudoinverse(self, kind):
        ops, linop = self.problem(kind)
        u, s, vh = dense_weighted_svd(linop)
        kinv = regularize(linop, tau=1e-3)
        r = kinv.rank
        pinv = ((vh[:r].conj().T / linop.col_scale[:, None]) / s[:r]) @ u[:, :r].conj().T
        pinv = pinv * linop.row_scale
        eta = 0.05 * build_phantom(
            ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(ops, eta)
        for data in (phi, phi * (1 - 0.5j)):  # the real diffuse pinv on complex data too
            ref = pinv @ data.ravel()
            assert np.abs(kinv.apply(data) - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_factored_apply_matches_dense_matrix(self, kind):
        ops, linop = self.problem(kind)
        kinv = regularize(linop, tau=1e-3)
        rng = np.random.default_rng(7)
        real = rng.normal(size=(ops.n_src, ops.n_det))
        for data in (real, real + 0j, real + 1j * rng.normal(size=real.shape)):
            ref = kinv.matrix @ data.ravel()
            assert np.abs(kinv.apply(data) - ref).max() <= 1e-13 * np.abs(ref).max()
        assert kinv.norm_inf == pytest.approx(np.abs(kinv.matrix).sum(axis=1).max(), rel=1e-15)

    def test_blockwise_k_product_matches_dense(self, kind):
        # 10 detectors: one full block of _DET_BLOCK = 8 and a partial one
        _, linop = self.problem(kind)
        kinv = regularize(linop, rank=20)
        scaled_v = linop.vh[:20].conj().T / linop.col_scale[:, None]
        ref = (linop.row_scale / linop.svals[:20] * (linop.matrix @ scaled_v)).conj().T
        u_rh = kinv._u_rh[:, linop._rows.ravel()]  # U_r^H's columns in the pairs' row-major order
        assert np.abs(u_rh - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_apply_refuses_transposed_data(self, kind):
        ops, linop = self.problem(kind)
        kinv = regularize(linop, tau=1e-3)
        phi = np.ones((ops.n_src, ops.n_det))
        with pytest.raises(ValueError, match=r"\(10, 8\) is neither .*\(8, 10\).*\(80,\)"):
            kinv.apply(phi.T)
        assert np.array_equal(kinv.apply(phi), kinv.apply(phi.ravel()))

    def test_project_refuses_a_field_not_of_shape_v(self, kind):
        # unchecked, a (V, 1) column would broadcast to a V x V array
        ops, linop = self.problem(kind)
        kinv = regularize(linop, tau=1e-3)
        v = ops.n_nodes
        for shape in ((v, 1), (1, v), (v + 1,)):
            message = re.escape(f"field shape {shape} is not (V,) = ({v},)")
            with pytest.raises(ValueError, match=message):
                kinv.project(np.ones(shape))
        assert kinv.project(np.ones(v)).shape == (v,)

    def test_real_arithmetic_for_diffuse_waves_only(self, kind):
        _, linop = self.problem(kind)
        kinv = regularize(linop, tau=1e-3)
        assert np.isrealobj(kinv.matrix) == (kind == "diffuse")
        assert np.iscomplexobj(kinv.apply(np.ones(linop.n_pairs)))


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_invert_path_forms_no_dense_operator(kind):
    ops = make_ops(kind=kind, h=0.25, n_src=48, n_det=48)
    n_pairs = ops.n_src * ops.n_det
    assert (ops.n_nodes, n_pairs) == (280, 2304)
    tracemalloc.start()
    try:
        linop = linearized_operator(ops)
        kinv = regularize(linop, tau=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense (S*D) x V matrix and pseudoinverse alone take two of these units
    assert peak < 2 * ops.g_sv.itemsize * n_pairs * ops.n_nodes
    eta = 0.05 * build_phantom(
        ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
    )
    phi = solve_direct(ops, eta)
    res = inverse_series(kinv, ops, phi, 3)
    diagnostics(res, kinv, closed_form_constants(ops.mode, 1.0, 2.0), ops, phi, eta_true=eta)
    kinv.spectrum()
    assert "matrix" not in vars(linop)
    assert "matrix" not in vars(kinv)
    # 280 rows: the sup-norm spans three row blocks of the factor product
    assert kinv.norm_inf == pytest.approx(np.abs(kinv.matrix).sum(axis=1).max(), rel=1e-15)


@pytest.mark.parametrize(
    "kind, h, n_src, n_det, order",
    [
        ("diffuse", 0.25, 24, 24, 2),
        ("diffuse", 0.25, 24, 24, 6),
        ("diffuse", 0.25, 24, 24, 40),
        ("scalar", 0.25, 24, 24, 10),
        ("scalar", 0.35, 8, 10, 6),  # not reciprocal: the recurrence alone
        ("diffuse", 0.45, 30, 30, 12),  # D > V: the accumulators outgrow the chains
    ],
)
def test_series_allocates_within_its_memory_estimate(kind, h, n_src, n_det, order):
    ops, linop = make_problem(kind=kind, h=h, n_src=n_src, n_det=n_det)
    kinv = regularize(linop, tau=1e-3)
    eta = 0.05 * build_phantom(
        ops.grid, [{"center": [0.2, 0, 0], "radius": 0.4, "amplitude": 1.0}]
    )
    phi = solve_direct(ops, eta)
    tracemalloc.start()
    try:
        inverse_series(kinv, ops, phi, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 0.56, 0.76, 0.58, 0.66, 0.89 and 0.82 of the estimate
    assert peak <= ops.g_sv.itemsize * _series_entries(ops.n_nodes, n_src, n_det, order)


@pytest.fixture(scope="module", params=["diffuse", "scalar"])
def krylov_problem(request):
    """912 voxels and 24 x 24 pairs: the factorization takes the block Lanczos path.

    Returns (ops, the block Lanczos factorization, the dense eigh one, a dense
    weighted SVD); in diffuse mode 95 values are resolved and 94 retained at
    tau = 1e-3, in scalar mode 59 and 58.
    """
    ops = make_ops(kind=request.param, h=1 / 6, n_src=24, n_det=24)
    linop = linearized_operator(ops)
    return ops, linop, _factor(ops, 0, _pair_rows(ops)), dense_weighted_svd(linop)


class TestBlockLanczos:
    def test_resolves_every_value_above_the_floor_and_one_below(self, krylov_problem):
        ops, linop, dense, _ = krylov_problem
        assert not linop.complete and dense.complete
        count = int(np.count_nonzero(dense.svals >= KRYLOV_FLOOR * dense.svals[0]))
        assert linop.svals.size == count + 1
        assert linop.vh.shape == (count + 1, ops.n_nodes)
        assert linop.svals[-1] < KRYLOV_FLOOR * linop.svals[0] <= linop.svals[-2]

    def test_singular_values_match_dense_eigh(self, krylov_problem):
        _, linop, dense, _ = krylov_problem
        kinv, ref = regularize(linop, tau=1e-3), regularize(dense, tau=1e-3)
        assert kinv.rank == ref.rank
        assert kinv.linop is linop
        s, s_ref = linop.svals, dense.svals[: linop.svals.size]
        # both carry an absolute error of about eps * sigma_max^2 / sigma in sigma, so
        # the edge of the retained range agrees to 3.1e-12 relative (measured)
        assert np.all(np.abs(s - s_ref) <= 1e-12 * s_ref[0])
        assert np.all(np.abs(s - s_ref) <= 1e-10 * s_ref)

    def test_pseudoinverse_and_projector_match_dense_svd(self, krylov_problem):
        ops, linop, _, (u, s, vh) = krylov_problem
        kinv = regularize(linop, tau=1e-3)
        r = kinv.rank
        pinv = ((vh[:r].conj().T / linop.col_scale[:, None]) / s[:r]) @ u[:, :r].conj().T
        pinv = pinv * linop.row_scale
        eta = 0.05 * build_phantom(
            ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(ops, eta)
        ref = pinv @ phi.ravel()
        tol = 1e-9 if ops.mode.kind == "diffuse" else 1e-8  # measured 1.7e-11, 1.3e-10
        assert np.abs(kinv.apply(phi) - ref).max() <= tol * np.abs(ref).max()
        v_r = vh[:r].conj().T
        proj = (v_r @ v_r.conj().T) * (linop.col_scale[None, :] / linop.col_scale[:, None])
        assert np.abs(kinv.projector_matrix() - proj).max() <= 1e-8

    def test_truncation_below_the_floor_takes_the_dense_path(self, krylov_problem):
        _, linop, dense, _ = krylov_problem
        for rule in ({"tau": 1e-4}, {"rank": linop.svals.size}, {"rank": linop.svals.size + 5}):
            kinv, ref = regularize(linop, **rule), regularize(dense, **rule)
            assert kinv.rank == ref.rank
            assert kinv.linop.complete
            assert np.array_equal(kinv.linop.svals, dense.svals)
            assert np.array_equal(kinv.linop.vh, dense.vh)
            assert np.array_equal(kinv._left, ref._left)
            assert np.array_equal(kinv._u_rh, ref._u_rh)

    def test_reruns_are_bit_identical(self, krylov_problem):
        ops, linop, _, _ = krylov_problem
        again = linearized_operator(ops)
        assert np.array_equal(again.svals, linop.svals)
        assert np.array_equal(again.vh, linop.vh)

    def test_discarded_energy_from_the_trace(self, krylov_problem):
        _, linop, _, (_, s, _) = krylov_problem
        kinv = regularize(linop, tau=1e-3)
        ref = np.sum(s[kinv.rank :] ** 2) / np.sum(s**2)
        assert kinv.spectrum()["discarded_energy"] == pytest.approx(ref, rel=1e-9)
        assert linop.energy == pytest.approx(np.sum(s**2), rel=1e-13)


def eigh_orders(monkeypatch):
    """The order of every matrix np.linalg.eigh factors from here on, in call order."""
    orders = []
    eigh = np.linalg.eigh

    def traced(a, *args, **kwargs):
        orders.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", traced)
    return orders


def check_returned_ritz_pairs(ops, monkeypatch):
    """Check the Ritz pairs block Lanczos returns for ops; return its eigh orders."""
    gram = weighted_gram(ops)
    orders = eigh_orders(monkeypatch)
    n = _rank_bound(_pair_rows(ops), ops.n_nodes)
    theta, vecs = _leading_eigenpairs(gram, n, _krylov_basis_limit(ops.n_nodes))
    # measured 2.4e-15; the residuals 0.007 to 0.096 of the tolerance
    assert np.abs(vecs.conj().T @ vecs - np.eye(theta.size)).max() <= 1e-13
    resid = np.linalg.norm(gram @ vecs - vecs * theta, axis=0)
    assert np.all(resid <= ops.n_nodes * np.finfo(float).eps * theta[0])
    assert max(orders) < ops.n_nodes
    return orders


def test_krylov_ritz_pairs_are_orthonormal_with_small_residuals(krylov_problem, monkeypatch):
    check_returned_ritz_pairs(krylov_problem[0], monkeypatch)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_bench_geometry_takes_at_most_two_rayleigh_ritz_steps(kind, monkeypatch):
    # 912 voxels and 48 x 48 pairs, the invert-default geometry: the coupling gate
    # leaves one Rayleigh-Ritz step in each mode, where one after every block from
    # the fourth on takes twelve (diffuse) and seven (scalar)
    ops = make_ops(kind=kind, h=1 / 6, n_src=48, n_det=48)
    assert len(check_returned_ritz_pairs(ops, monkeypatch)) <= 2


@pytest.mark.parametrize("pairs, resolved", [(2, 3), (4, 10), (6, 21)])
def test_rank_deficient_sensor_sets_stay_on_the_krylov_path(pairs, resolved, monkeypatch):
    # the Gram rank, the 3, 10 and 21 distinct pairs of these reciprocal sensor
    # sets, is below two 16-vector blocks, so the first or second block's own
    # Gram matrix is singular; without its Householder fallback, Cholesky-QR
    # sends each of these sensor sets to dense eigh.  The rank bound min(P, V)
    # is all a pass resolves, so the spectrum it returns is complete
    ops = make_ops(h=1 / 6, n_src=pairs, n_det=pairs)
    orders = eigh_orders(monkeypatch)
    linop = linearized_operator(ops)
    assert max(orders) < ops.n_nodes
    assert linop.svals.size == resolved == pairs * (pairs + 1) // 2
    assert linop.complete
    monkeypatch.undo()
    dense = _factor(ops, 0, _pair_rows(ops))
    # the values above the floor; the one past it sits at rounding level
    count = int(np.count_nonzero(dense.svals >= KRYLOV_FLOOR * dense.svals[0]))
    assert np.all(np.abs(linop.svals[:count] - dense.svals[:count]) <= 1e-12 * dense.svals[0])
    kinv, ref = regularize(linop, tau=1e-3), regularize(dense, tau=1e-3)
    assert kinv.rank == ref.rank == count
    assert kinv.linop is linop
    assert np.abs(kinv.projector_matrix() - ref.projector_matrix()).max() <= 1e-8


def test_small_grids_take_dense_eigh(small_linop):
    # 56 nodes, below the 128 a complex Gram matrix needs for a pass; the 6 x 6
    # reciprocal pairs bound the rank by their 21 distinct pairs, not by 36
    assert _krylov_basis_limit(small_linop.n_nodes) == 0
    assert small_linop.complete
    assert small_linop.svals.size == _rank_bound(small_linop._rows, small_linop.n_nodes) == 21


@pytest.mark.parametrize(
    "n_nodes, tau, limit",
    [
        (280, None, 136),  # 17 blocks of 8 within V/2
        (383, None, 184),
        (384, None, 192),
        (912, None, 448),  # 28 blocks of 16
        (912, KRYLOV_FLOOR, 448),
        (912, 1e-4, 0),  # a tau below the floor
        (7208, 1e-4, 0),
        (7208, None, 1008),
    ],
)
def test_route_rule(n_nodes, tau, limit):
    assert _krylov_basis_limit(n_nodes, tau) == limit


@pytest.mark.parametrize(
    "n_nodes, real, limit",
    [
        (0, False, 0),
        (0, True, 0),
        (127, False, 0),  # complex Gram matrices take eigh below 128 nodes
        (128, False, 64),
        (280, True, 0),  # real Gram matrices take eigh below 384 nodes
        (383, True, 0),
        (384, True, 192),
        (479, False, 232),
        (480, False, 240),  # 15 blocks of 16
        (911, True, 448),  # 28 blocks of 16
        (912, True, 448),
        (2015, False, 992),  # 62 blocks of 16 within V/2
        (2015, True, 992),
        (2016, False, 1008),  # V/2 reaches the 1008-vector cap
        (2016, True, 1008),
        (3112, True, 1008),
        (7208, False, 1008),  # 63 blocks of 16
    ],
)
def test_route_rule_sets_the_block_from_the_grid(n_nodes, real, limit):
    assert _krylov_basis_limit(n_nodes, None, real) == limit
    assert _krylov_block(n_nodes).size == (8 if n_nodes < 480 else 16)
    assert limit % _krylov_block(n_nodes).size == 0


def test_peak_entries_counts_the_route_of_the_rule():
    # V = 912 and 48 x 48 pairs: a rank rule counts dense eigh, which regularize may take
    krylov, dense = (peak_entries(912, 48, 48, 912, 6, tau) for tau in (KRYLOV_FLOOR, 1e-4))
    assert krylov < dense == peak_entries(912, 48, 48, 912, 6, None)
    # V = 280: a complex Gram matrix takes block Lanczos, a real one dense eigh
    complex_, real = (peak_entries(280, 48, 48, 280, 6, KRYLOV_FLOOR, r) for r in (False, True))
    assert complex_ < real == peak_entries(280, 48, 48, 280, 6, None)


def check_dense_fallback(ops, limit):
    """_factor within a basis of ``limit`` vectors gives dense eigh's factorization bit for bit."""
    linop, dense = _factor(ops, limit, _pair_rows(ops)), _factor(ops, 0, _pair_rows(ops))
    assert linop.complete and dense.complete
    assert np.array_equal(linop.svals, dense.svals)
    assert np.array_equal(linop.vh, dense.vh)


@pytest.mark.parametrize("mode", ["diffuse", "scalar"])
def test_dense_eigh_keeps_only_the_rows_of_vh_it_returns(mode):
    # V = 56 and 6 x 6 pairs: vh has a row for each of the 21 distinct pairs, and no
    # V x V eigenvector matrix stays behind them
    ops = boundary_kernels(mode, 0.45, 6)
    vh = _factor(ops, 0, _pair_rows(ops)).vh
    while isinstance(vh.base, np.ndarray):
        vh = vh.base
    assert vh.size == 21 * ops.n_nodes < ops.n_nodes**2


def test_a_basis_that_runs_out_falls_back_to_dense_eigh(monkeypatch):
    # 912 voxels and 48 x 48 pairs converge within 240 basis vectors; the
    # Rayleigh-Ritz step at a limit of 96 does not accept
    ops = make_ops(h=1 / 6, n_src=48, n_det=48)
    gram = weighted_gram(ops)
    orders = eigh_orders(monkeypatch)
    assert _leading_eigenpairs(gram, ops.n_nodes, 96) is None
    assert orders == [96]
    monkeypatch.undo()
    check_dense_fallback(ops, 96)


def test_a_wanted_set_too_large_for_the_basis_falls_back_to_dense_eigh(monkeypatch):
    # scalar V = 160 with 48 x 48 pairs wants 58 values of an 80-vector basis:
    # the pass runs to its limit without accepting and takes eigh
    ops = boundary_kernels("scalar", 0.3, 48)
    orders = eigh_orders(monkeypatch)
    linop = linearized_operator(ops, tau=KRYLOV_FLOOR)
    assert orders == [80, 160]
    monkeypatch.undo()
    dense = _factor(ops, 0, _pair_rows(ops))
    assert np.array_equal(linop.svals, dense.svals)
    assert np.array_equal(linop.vh, dense.vh)


def test_an_orthogonalization_breakdown_falls_back_to_dense_eigh(monkeypatch):
    # at k = 400 every diffuse kernel entry underflows, so the Gram matrix is zero:
    # the first block's image is zero, Cholesky-QR fails on it, and the Householder
    # R it falls back to is singular, so inverting it raises before any Ritz step
    ops = make_ops(k=400, h=1 / 6)
    limit = _krylov_basis_limit(ops.n_nodes)
    assert limit
    gram = weighted_gram(ops)
    assert not gram.any()
    orders = eigh_orders(monkeypatch)
    assert _leading_eigenpairs(gram, ops.n_src * ops.n_det, limit) is None
    assert orders == []
    monkeypatch.undo()
    check_dense_fallback(ops, limit)


def check_against_dense_svd(ops, linop, svd, tol=None):
    """regularize at tau = 1e-3 against a dense SVD, within TestBlockLanczos's tolerances.

    Checks the pseudoinverse's matrix, its application to data and its
    sup-norm to ``tol`` relative (by default 1e-9 diffuse, 1e-8 scalar), and
    the projection onto the retained subspace.
    """
    u, s, vh = svd
    kinv = regularize(linop, tau=1e-3)
    r = kinv.rank
    assert r == np.count_nonzero(s >= 1e-3 * s[0])
    v_r = vh[:r].conj().T
    pinv = ((v_r / linop.col_scale[:, None]) / s[:r]) @ u[:, :r].conj().T * linop.row_scale
    if tol is None:
        tol = 1e-9 if ops.mode.kind == "diffuse" else 1e-8
    assert np.abs(kinv.matrix - pinv).max() <= tol * np.abs(pinv).max()
    assert kinv.norm_inf == pytest.approx(np.abs(pinv).sum(axis=1).max(), rel=tol)
    eta = 0.05 * build_phantom(
        ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
    )
    phi = solve_direct(ops, eta)
    ref = pinv @ phi.ravel()
    assert np.abs(kinv.apply(phi) - ref).max() <= tol * np.abs(ref).max()
    proj = (v_r @ v_r.conj().T) * (linop.col_scale[None, :] / linop.col_scale[:, None])
    assert np.abs(kinv.project(eta) - proj @ eta).max() <= 1e-8 * np.abs(eta).max()


@pytest.fixture(
    scope="module",
    params=[("diffuse", 0.25), ("scalar", 0.35), ("diffuse", 1 / 6), ("scalar", 1 / 6)],
    ids=["diffuse-eigh", "scalar-eigh", "diffuse-krylov", "scalar-krylov"],
)
def reciprocal_problem(request):
    """24 x 24 pairs, sources and detectors at the same points, on a grid the route
    rule sends to dense eigh (V = 280 real, V = 88 complex) or to block Lanczos
    (V = 912).  Returns (ops, factorization, dense weighted SVD).
    """
    kind, h = request.param
    ops = make_ops(kind=kind, h=h, n_src=24, n_det=24)
    linop = linearized_operator(ops)
    assert linop.complete == (ops.n_nodes < 912)
    return ops, linop, dense_weighted_svd(linop)


@pytest.mark.parametrize(
    "kind, h, n_src, n_det, rule",
    [
        ("diffuse", 0.45, 6, 6, {"tau": 1e-3}),  # reciprocal, dense eigh
        ("scalar", 0.35, 8, 10, {"tau": 1e-3}),  # not reciprocal
        ("diffuse", 1 / 6, 24, 24, {"rank": 100}),  # block Lanczos, then eigh again
    ],
)
def test_one_reciprocity_test_per_geometry(kind, h, n_src, n_det, rule, monkeypatch):
    import invborn.inverse as inverse_module

    ops, calls, reciprocal = make_ops(kind=kind, h=h, n_src=n_src, n_det=n_det), [], _reciprocal

    def counted(ops):
        calls.append(1)
        return reciprocal(ops)

    monkeypatch.setattr(inverse_module, "_reciprocal", counted)
    linop = linearized_operator(ops)
    kinv = regularize(linop, **rule)
    assert (kinv.linop is linop) == ("tau" in rule)
    eta = 0.05 * build_phantom(
        ops.grid, [{"center": [0.2, 0, 0], "radius": 0.4, "amplitude": 1.0}]
    )
    inverse_series(kinv, ops, solve_direct(ops, eta), 5)
    kinv.matrix
    assert len(calls) == 1


def test_reciprocal_pairs_match_dense_svd(reciprocal_problem):
    ops, linop, svd = reciprocal_problem
    assert _reciprocal(ops)
    check_against_dense_svd(ops, linop, svd)


def test_general_pair_sweep_agrees_with_the_reciprocal_one(reciprocal_problem, monkeypatch):
    import invborn.inverse as inverse_module

    ops, linop, _ = reciprocal_problem
    k_rows, rows = inverse_module._k_rows, []

    def counted(ops, g_sv, g_dv):
        rows.append(g_sv.shape[0] * g_dv.shape[0])
        return k_rows(ops, g_sv, g_dv)

    monkeypatch.setattr(inverse_module, "_k_rows", counted)
    kinv = regularize(linop, tau=1e-3)
    # detector blocks of 8: the sources s < 8, 16 and 24, against 24 for every block
    assert rows == [64, 128, 192]
    rows.clear()
    check_general_sweep_agrees(kinv)
    assert rows == [192, 192, 192]


def test_split_series_agrees_with_the_recurrence(reciprocal_problem):
    # the recurrence runs on the same pseudoinverse with U_r unfolded; one from the
    # general sweep differs by rounding, which 40 orders amplify to 2.2e-11 (measured).
    # The mirror-blocked product rounds each entry against the largest of its orbit,
    # which 40 orders amplify to 1.6e-12 and 1.3e-12 here (diffuse V = 280 and 912,
    # where the dense product gives 6.0e-13 and 4.5e-13), so order 40 runs on the
    # dense form of the kernel alone
    ops, linop, _ = reciprocal_problem
    kinv = regularize(linop, tau=1e-3)
    unfolded = dataclasses.replace(kinv, linop=general_layout(linop), _u_rh=unfolded_u_rh(kinv))
    eta = 0.05 * build_phantom(
        ops.grid, [{"center": [0.2, 0, 0], "radius": 0.4, "amplitude": 1.0}]
    )
    phi = solve_direct(ops, eta)
    assert isinstance(ops.volume, MirrorVolume)
    dense = dataclasses.replace(ops, volume=DenseVolume(ops.g_vv))
    for form, orders in ((ops, (3, 6, 10, 16)), (dense, (3, 6, 10, 16, 40))):
        for order in orders:
            split = inverse_series(kinv, form, phi, order).terms
            check_terms_match(split, inverse_series(unfolded, form, phi, order).terms, order)


def unfolded_u_rh(kinv):
    """kinv's U_r^H with a column for every (s, d) pair, in the order of ``general_layout``."""
    return kinv._u_rh[:, kinv.linop._rows.T.ravel()]


def check_general_sweep_agrees(kinv):
    """The sweep over all S*D pairs gives kinv's U_r and norm_inf to 1e-12 relative."""
    n = kinv.linop.ops.n_src
    assert kinv._u_rh.shape == (kinv.rank, n * (n + 1) // 2)  # the distinct pairs alone
    general = regularize(general_layout(kinv.linop), tau=1e-3)
    assert kinv.rank == general.rank
    ref = general._u_rh
    assert np.abs(unfolded_u_rh(kinv) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert kinv.norm_inf == pytest.approx(general.norm_inf, rel=1e-12)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_folded_apply_matches_the_matrix_on_non_symmetric_data(kind):
    # the fold phi[s, d] + phi[d, s] is exact for any data, symmetric or not
    ops, linop = make_problem(kind=kind, h=0.35, n_src=10, n_det=10)
    kinv = regularize(linop, tau=1e-3)
    assert kinv._u_rh.shape[1] == 55  # the distinct pairs alone
    rng = np.random.default_rng(11)
    data = rng.normal(size=(10, 10))
    if kind == "scalar":
        data = data + 1j * rng.normal(size=data.shape)
    assert not np.allclose(data, data.T)
    ref = kinv.matrix @ data.ravel()
    for shaped in (data, data.ravel()):
        assert np.abs(kinv.apply(shaped) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("pairs", [1, 10])
def test_general_pair_sweep_agrees_on_partial_detector_blocks(pairs):
    # 10 x 10 pairs: a block of 8 detectors and one of 2; 1 x 1: a single pair
    ops, linop = make_problem(kind="scalar", h=0.35, n_src=pairs, n_det=pairs)
    assert _reciprocal(ops)
    check_general_sweep_agrees(regularize(linop, tau=1e-3))


def test_reciprocal_gram_is_the_two_product_formula_bit_for_bit(reciprocal_problem):
    ops, linop, _ = reciprocal_problem
    gram = _weighted_gram(ops, linop._rows, linop.row_scale, linop.col_scale)
    rows = general_layout(linop)._rows
    assert np.array_equal(gram, _weighted_gram(ops, rows, linop.row_scale, linop.col_scale))


def boundary_kernels(kind, h, pairs):
    """Source and detector kernels of pairs x pairs sensors around a ball grid of spacing h."""
    boundary = build_sphere_boundary(2.0, pairs, pairs)
    return assemble_boundary(WaveMode(kind, 1.0), build_ball_grid(1.0, h), boundary)


def rotated_detector_kernels(kind, h, pairs, angle=0.3):
    """Boundary kernels with as many detectors as sources, turned ``angle`` about the z axis."""
    boundary = build_sphere_boundary(2.0, pairs, pairs)
    c, s = math.cos(angle), math.sin(angle)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    boundary = dataclasses.replace(boundary, detectors=boundary.detectors @ rotation.T)
    return assemble(WaveMode(kind, 1.0), build_ball_grid(1.0, h), boundary)


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_rotated_detectors_take_the_general_pair_sweep(kind):
    # as many detectors as sources, but turned about the z axis: g_vd is not g_sv^T.
    # V = 280 takes dense eigh in diffuse mode and block Lanczos in scalar mode;
    # test_subspace_acceptance_at_a_small_ritz_gap covers V = 912, where a pass
    # accepted on residuals alone left the pseudoinverse 9.7e-9 from the SVD
    ops = rotated_detector_kernels(kind, 0.25, 24)
    assert not _reciprocal(ops)
    linop = linearized_operator(ops)
    assert linop.complete == (kind == "diffuse")
    check_against_dense_svd(ops, linop, dense_weighted_svd(linop))


def test_invert_high_order_geometry_takes_block_lanczos(monkeypatch):
    # the invert-high-order workload's factorization: V = 280, scalar, 48 x 48 pairs,
    # tau = 1e-3, which took a dense eigh of all 280 eigenpairs before 8-vector blocks
    ops = make_ops(kind="scalar", h=1 / 4, n_src=48, n_det=48)
    orders = eigh_orders(monkeypatch)
    linop = linearized_operator(ops, tau=1e-3)
    assert ops.n_nodes == 280 and orders and max(orders) < ops.n_nodes
    assert regularize(linop, tau=1e-3).rank == 59
    monkeypatch.undo()
    check_against_dense_svd(ops, linop, dense_weighted_svd(linop))


@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_invert_default_geometry_matches_dense_svd(kind):
    # invborn invert's factorization at the defaults: V = 912, 48 x 48 pairs,
    # tau = 1e-3; measured 1.5e-11 (diffuse) and 3.9e-11 (scalar)
    ops = make_ops(kind=kind, h=1 / 6, n_src=48, n_det=48)
    linop = linearized_operator(ops, tau=1e-3)
    check_against_dense_svd(ops, linop, dense_weighted_svd(linop), tol=2e-10)


def test_block_rule_holds_away_from_k_1(monkeypatch):
    # invborn invert --k 3: diffuse, V = 912, 48 x 48 pairs, tau = 1e-3.  The block
    # rule was fitted at k = 1; here the pass accepts at 400 of 448 vectors with
    # 236 values resolved; pinv measured 1.2e-11 from the SVD
    ops = make_ops(k=3.0, h=1 / 6, n_src=48, n_det=48)
    orders = eigh_orders(monkeypatch)
    linop = linearized_operator(ops, tau=1e-3)
    assert orders and ops.n_nodes not in orders
    monkeypatch.undo()
    assert regularize(linop, tau=1e-3).rank == 235
    check_against_dense_svd(ops, linop, dense_weighted_svd(linop))


@pytest.mark.parametrize(
    "h, pairs, angle",
    [(1 / 6, 24, 0.15), (0.21, 48, 0.0)],
    ids=["rotated-912", "sphere-432"],
)
def test_subspace_acceptance_at_a_small_ritz_gap(h, pairs, angle, monkeypatch):
    # diffuse, where the value past the floor sits close to the last one above it.
    # With residuals alone accepting, detectors turned 0.15 rad (sigma_r+1 5.6 %
    # below sigma_r) left the pseudoinverse 9.7e-9 from a dense SVD, and 16-vector
    # blocks on 432 nodes pinv(phi) 5.2e-9; the Davis-Kahan test takes another
    # block.  The rule now gives 432 nodes 8-vector blocks
    ops = rotated_detector_kernels("diffuse", h, pairs, angle)
    orders = eigh_orders(monkeypatch)
    linop = linearized_operator(ops)
    assert max(orders) < ops.n_nodes
    monkeypatch.undo()
    check_against_dense_svd(ops, linop, dense_weighted_svd(linop))


@pytest.mark.parametrize("pairs", [24, 48])
@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
@pytest.mark.parametrize("h", [0.21, 0.2015, 0.1935, 0.187], ids=["432", "480", "552", "624"])
def test_no_krylov_pass_runs_to_its_limit_in_vain(h, kind, pairs, monkeypatch):
    # these grids ran a pass out of basis and then took eigh, 12-31 ms wasted:
    # a pass now accepts, with no eigh of order V
    ops = boundary_kernels(kind, h, pairs)
    assert _krylov_basis_limit(ops.n_nodes, KRYLOV_FLOOR, kind == "diffuse")
    orders = eigh_orders(monkeypatch)
    linearized_operator(ops, tau=KRYLOV_FLOOR)
    assert ops.n_nodes not in orders


def test_small_diffuse_grid_takes_eigh_without_a_pass(monkeypatch):
    # diffuse V = 280 with 48 x 48 pairs wants 107 values of a 136-vector basis;
    # a pass could only run to its limit and fall back, so the rule takes eigh at once
    ops = boundary_kernels("diffuse", 0.25, 48)
    orders = eigh_orders(monkeypatch)
    monkeypatch.setattr("invborn.inverse._leading_eigenpairs", lambda *args: pytest.fail("a pass"))
    linop = linearized_operator(ops, tau=KRYLOV_FLOOR)
    assert orders == [ops.n_nodes] == [280]
    assert linop.complete


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["diffuse", "scalar"])
def test_route_rule_sweep(kind, monkeypatch):
    """The evidence for the block rule: 1 to 200 sensors a side on V = 280 to 3112.

    Every accepted pass matches dense eigh within TestBlockLanczos's tolerances
    (eigh itself is within 4e-11 of a dense SVD, which would need up to
    40000 x 3112 entries here): the retained rank, pinv applied to random data
    and the projection of a random field.  A pass that falls back after its
    Rayleigh-Ritz step at the basis limit must have had room for its wanted
    set: the count of Ritz values above the floor there, plus the headroom a
    pass needed beyond it when the block rule was measured (60 vectors of 8,
    84 of 16), fits the limit, so no pass in the sweep runs a basis too small
    for it.
    """
    eigh, steps = np.linalg.eigh, []

    def traced(a, *args, **kwargs):
        steps.append((a.shape[0], eigh(a, *args, **kwargs)))
        return steps[-1][1]

    monkeypatch.setattr(np.linalg, "eigh", traced)
    rng = np.random.default_rng(3)
    tol = 1e-9 if kind == "diffuse" else 1e-8
    for h in (0.25, 0.21, 0.1935, 1 / 6, 1 / 9):
        for sensors in (1, 6, 24, 48, 200):
            ops = boundary_kernels(kind, h, sensors)
            v = ops.n_nodes
            limit = _krylov_basis_limit(v, KRYLOV_FLOOR, kind == "diffuse")
            steps.clear()
            linop = linearized_operator(ops, tau=KRYLOV_FLOOR)
            orders = [order for order, _ in steps]
            if limit in orders and v in orders:  # fell back at the limit
                theta = steps[orders.index(limit)][1][0]
                count = int(np.count_nonzero(theta >= KRYLOV_FLOOR**2 * theta.max()))
                headroom = 60 if _krylov_block(v).size == 8 else 84
                assert count + headroom <= limit, (v, sensors)
            if v in orders:
                continue
            kinv = regularize(linop, tau=1e-3)
            ref = regularize(_factor(ops, 0, linop._rows), tau=1e-3)
            assert kinv.rank == ref.rank, (v, sensors)
            phi = rng.standard_normal(sensors**2) + 1j * rng.standard_normal(sensors**2)
            expected = ref.apply(phi)
            assert np.abs(kinv.apply(phi) - expected).max() <= tol * np.abs(expected).max()
            eta = rng.standard_normal(v)
            assert np.abs(kinv.project(eta) - ref.project(eta)).max() <= 1e-8 * np.abs(eta).max()


@pytest.mark.slow
def test_fine_grid_factorization_fits_in_memory():
    # h = 1/12, V = 7208: dense eigh needed 5 V^2 entries (2.1 GB); block Lanczos keeps
    # the Gram matrix (415 MB) and a basis of at most 1008 vectors
    config = ExperimentConfig(h=1 / 12)
    grid, boundary = _grids(config)
    assert grid.n_nodes == 7208
    kernels = assemble_boundary(config.wave_mode, grid, boundary)
    tracemalloc.start()
    try:
        kinv = regularize(linearized_operator(kernels), tau=config.tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not kinv.linop.complete
    assert kinv.rank == 110
    assert peak < 1.5e9


class TestRegularize:
    def test_requires_exactly_one_rule(self, small_linop):
        with pytest.raises(ValueError):
            regularize(small_linop)
        with pytest.raises(ValueError):
            regularize(small_linop, rank=3, tau=0.1)

    def test_full_rank_identity_when_well_conditioned(self):
        # more data rows than voxels and a benign spectrum: pinv is exact
        ops, linop = make_problem(h=0.8, n_src=8, n_det=8)
        assert ops.n_nodes == 8
        kinv = regularize(linop, rank=linop.svals.size)
        ident = kinv.matrix @ linop.matrix
        assert np.abs(ident - np.eye(ops.n_nodes)).max() <= 1e-10

    def test_rank_one_norm(self, small_linop):
        kinv = regularize(small_linop, tau=1.0)
        assert kinv.rank == 1
        assert kinv.norm2 == pytest.approx(1.0 / small_linop.svals[0], rel=1e-14)

    def test_projector_idempotent_and_trace(self, small_linop):
        kinv = regularize(small_linop, rank=12)
        proj = kinv.projector_matrix()
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        assert np.trace(proj).real == pytest.approx(12, rel=1e-8)
        assert abs(np.trace(proj).imag) <= 1e-8

    def test_pseudoinverse_identities(self, small_linop):
        kinv = regularize(small_linop, tau=1e-4)
        pinv = kinv.matrix
        forward_r = small_linop.matrix @ kinv.projector_matrix()
        scale_p = np.abs(pinv).max()
        scale_f = np.abs(forward_r).max()
        assert np.abs(pinv @ forward_r @ pinv - pinv).max() <= 1e-10 * scale_p
        assert np.abs(forward_r @ pinv @ forward_r - forward_r).max() <= 1e-10 * scale_f

    def test_pinv_of_full_operator_also_consistent(self, small_linop):
        # pinv K pinv = pinv holds with the untruncated forward matrix too
        kinv = regularize(small_linop, tau=1e-3)
        pinv = kinv.matrix
        dev = np.abs(pinv @ small_linop.matrix @ pinv - pinv).max()
        assert dev <= 1e-10 * np.abs(pinv).max()

    def test_retained_subspace_fixed_point(self, small_ops, small_linop):
        kinv = regularize(small_linop, rank=10)
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
        eta = (kinv._v_r @ coeffs) / small_linop.col_scale
        recovered = kinv.apply(small_linop.matrix @ eta)
        assert np.abs(recovered - eta).max() <= 1e-10 * np.abs(eta).max()

    def test_norm_is_computed_for_two_and_inf_only(self, small_linop):
        kinv = regularize(small_linop, rank=5)
        assert (kinv.norm(2), kinv.norm(INF)) == (kinv.norm2, kinv.norm_inf)
        with pytest.raises(ValueError, match=r"norms are computed for p in \{2, inf\}"):
            kinv.norm(3)

    def test_norm_inf_is_matrix_row_sum(self, small_linop):
        kinv = regularize(small_linop, rank=5)
        assert kinv.norm_inf == pytest.approx(np.abs(kinv.matrix).sum(axis=1).max(), rel=1e-15)

    def test_sval_floor_refuses_tau_reaching_below_it(self):
        _, linop = make_problem(h=0.35, n_src=8, n_det=10)
        s = linop.svals
        assert s[-1] < SVAL_FLOOR * s[0] <= s[-2]  # only the last triplet is below
        with pytest.raises(ValueError, match=r"tau=1e-07 \(rank 80\).*SVAL_FLOOR"):
            regularize(linop, tau=1e-7)
        # tau >= SVAL_FLOOR can never retain a triplet below the floor
        assert regularize(linop, tau=SVAL_FLOOR).rank == s.size - 1

    def test_sval_floor_refuses_rank_reaching_below_it(self):
        _, linop = make_problem(h=0.35, n_src=8, n_det=10)
        size = linop.svals.size
        with pytest.raises(ValueError, match=f"rank={size} .*SVAL_FLOOR"):
            regularize(linop, rank=size)
        assert regularize(linop, rank=size - 1).sigma_min >= SVAL_FLOOR * linop.svals[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_a_spectrum_that_is_not_finite(self, small_linop, bad):
        svals = small_linop.svals.copy()
        svals[0] = bad
        linop = dataclasses.replace(small_linop, svals=svals)
        for rule in ({"tau": 1e-3}, {"rank": 3}):
            with pytest.raises(ValueError, match="singular values .* are not finite"):
                regularize(linop, **rule)

    @pytest.mark.parametrize("kind", ["diffuse", "scalar"])
    def test_refuses_an_operator_with_no_voxels(self, kind):
        grid = build_ball_grid(1.0, 0.45).subset([])
        ops = assemble(WaveMode(kind, 1.0), grid, build_sphere_boundary(2.0, 6, 6))
        linop = linearized_operator(ops)
        assert linop.svals.size == 0
        for rule in ({"tau": 1e-3}, {"rank": 1}):
            with pytest.raises(ValueError, match="identically zero; nothing to invert"):
                regularize(linop, **rule)

    def test_rejects_empty_or_invalid_truncation(self, small_linop):
        with pytest.raises(ValueError):
            regularize(small_linop, tau=0.0)
        with pytest.raises(ValueError):
            regularize(small_linop, tau=1.5)
        with pytest.raises(ValueError):
            regularize(small_linop, rank=0)
        with pytest.raises(ValueError):
            regularize(small_linop, rank=10**6)


class TestSeriesRecursion:
    def test_refuses_order_zero(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-2)
        with pytest.raises(ValueError, match="order must be >= 1"):
            inverse_series(kinv, small_ops, np.zeros((small_ops.n_src, small_ops.n_det)), 0)

    def test_zero_data_gives_zero_terms(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-2)
        res = inverse_series(kinv, small_ops, np.zeros((small_ops.n_src, small_ops.n_det)), 4)
        for term in res.terms:
            assert np.all(term == 0)

    def test_high_order_runs_with_decaying_terms(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.01 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        res = inverse_series(kinv, small_ops, phi, 20)
        assert res.order == 20
        assert all(np.isfinite(t).all() for t in res.terms)
        norms = [field_norm(small_ops.grid, t, 2) for t in res.terms]
        assert norms[-1] > 0
        assert all(b < 1e-2 * a for a, b in zip(norms, norms[1:]))

    def test_partial_sums_recompute(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.05 * build_phantom(
            small_ops.grid, [{"center": [0.2, 0, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        res = inverse_series(kinv, small_ops, phi, 4)
        assert np.array_equal(res.partial_sums[-1], sum(res.terms))

    def test_result_is_a_born_series_with_sums_formed_once(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.05 * build_phantom(
            small_ops.grid, [{"center": [0.2, 0, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        res = inverse_series(kinv, small_ops, solve_direct(small_ops, eta), 3)
        assert type(res) is BornSeries and res.order == 3
        assert "partial_sums" not in vars(res)  # derived from the terms on first access
        assert res.partial_sums is res.partial_sums
        assert np.array_equal(res.partial_sums[1], res.terms[0] + res.terms[1])

    def test_single_voxel_hand_recursion_diffuse(self):
        grid = Grid(centers=np.zeros((1, 3)), weights=np.array([0.3]), spacing=0.5, radius_a=0.5)
        boundary = build_sphere_boundary(2.0, 1, 1)
        ops = assemble(WaveMode.diffuse(1.0), grid, boundary)
        kinv = regularize(linearized_operator(ops), rank=1)
        eta = 0.4
        phi = solve_direct(ops, np.array([eta + 0j]))
        res = inverse_series(kinv, ops, phi, 3)
        cself = ops.g_vv[0, 0].real
        k2c = ops.mode.k**2 * cself
        # scalar arithmetic: eta_1 = eta / (1 + k^2 C eta), then the recursion
        # resums the geometric series eta = eta_1 / (1 - k^2 C eta_1)
        eta1 = eta / (1 + k2c * eta)
        assert res.terms[0][0] == pytest.approx(eta1, rel=1e-12)
        assert res.terms[1][0] == pytest.approx(k2c * eta1**2, rel=1e-12)
        assert res.terms[2][0] == pytest.approx(k2c**2 * eta1**3, rel=1e-12)

    def test_single_voxel_hand_recursion_scalar_sign(self):
        grid = Grid(centers=np.zeros((1, 3)), weights=np.array([0.3]), spacing=0.5, radius_a=0.5)
        boundary = build_sphere_boundary(2.0, 1, 1)
        ops = assemble(WaveMode.scalar(1.0), grid, boundary)
        kinv = regularize(linearized_operator(ops), rank=1)
        eta = 0.1
        phi = solve_direct(ops, np.array([eta + 0j]))
        res = inverse_series(kinv, ops, phi, 2)
        cself = ops.g_vv[0, 0]
        k2c = ops.mode.k**2 * cself
        eta1 = eta / (1 - k2c * eta)
        assert res.terms[0][0] == pytest.approx(eta1, rel=1e-12)
        assert res.terms[1][0] == pytest.approx(-k2c * eta1**2, rel=1e-12)

    def test_recursion_matches_tensor_composition(self):
        # explicit composition coefficients evaluated on elementary tensors
        ops, linop = make_problem(h=0.45, n_src=6, n_det=6)  # 56 voxels
        assert ops.n_nodes <= 100
        kinv = regularize(linop, tau=1e-3)
        eta_true = 0.03 * build_phantom(
            ops.grid, [{"center": [0.2, 0.1, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(ops, eta_true)
        res = inverse_series(kinv, ops, phi, 3)
        eta1 = kinv.apply(phi)

        # order 2: -pinv K2 (pinv phi (x) pinv phi)
        explicit2 = -kinv.apply(born_term(ops, [eta1, eta1]))
        dev2 = np.abs(res.terms[1] - explicit2).max() / np.abs(explicit2).max()
        assert dev2 <= 1e-12

        # order 3: -(A + B + C) with A, B the mixed compositions and C the cubic one
        u = born_term(ops, [eta1])
        v = born_term(ops, [eta1, eta1])
        t_a = -kinv.apply(born_term(ops, [kinv.apply(u), kinv.apply(v)]))
        t_b = -kinv.apply(born_term(ops, [kinv.apply(v), kinv.apply(u)]))
        t_c = kinv.apply(born_term(ops, [eta1, eta1, eta1]))
        explicit3 = -(t_a + t_b + t_c)
        dev3 = np.abs(res.terms[2] - explicit3).max() / np.abs(explicit3).max()
        assert dev3 <= 1e-12

    @pytest.mark.parametrize("kind", ["diffuse", "scalar"])
    def test_recurrence_matches_enumerated_compositions(self, kind):
        ops, linop = make_problem(kind=kind)
        assert _reciprocal(ops)
        check_against_enumerated_compositions(ops, linop, range(3, 11))

    @pytest.mark.parametrize("kind", ["diffuse", "scalar"])
    def test_split_orders_match_enumerated_compositions_on_non_uniform_weights(self, kind):
        # the split relies on g_vv = G W with G symmetric, so W must sit on the right
        ops, linop = nonuniform_problem(kind)
        assert _reciprocal(ops)
        check_against_enumerated_compositions(ops, linop, range(3, 11))

    def test_non_reciprocal_series_matches_enumerated_compositions(self):
        ops, linop = make_problem(h=0.35, n_src=8, n_det=10)
        assert not _reciprocal(ops)
        check_against_enumerated_compositions(ops, linop, [6])

    def test_volume_kernel_products_linear_in_order(self, small_ops, small_linop):
        # reciprocal kernels form C_1..C_K with K = ceil((order - 1) / 2), others order - 1
        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.05 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        for reciprocal in (True, False):
            if not reciprocal:  # the series reads the pair map of the factorization
                kinv = regularize(general_layout(small_linop), tau=1e-2)
            for order, split in ((1, 0), (2, 1), (5, 2), (12, 6)):
                counted, products = recording_volume(small_ops)
                res = inverse_series(kinv, counted, phi, order)
                assert len(products) == (split if reciprocal else order - 1)
                plain = inverse_series(kinv, small_ops, phi, order)
                assert all(np.array_equal(a, b) for a, b in zip(res.terms, plain.terms))

    def test_diffuse_kernel_products_stay_real(self, small_ops, small_linop):
        # a complex operand would make numpy upcast a complex copy of a real kernel
        kinv = regularize(small_linop, tau=1e-2)
        eta = validate_absorption(
            0.05 * build_phantom(
                small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
            ),
            small_ops.mode,
        )
        phi = solve_direct(small_ops, eta) * (1.0 + 0j)  # complex dtype, zero imaginary part
        # the forward series takes the support block of a dense kernel, the inverse
        # series the products of the mirror-blocked one
        g_vv = small_ops.g_vv.view(_RecordingMatmul)
        g_vv.operand_dtypes = []
        g_sv = small_ops.g_sv.view(_RecordingProducts)
        g_vd = small_ops.g_vd.view(_RecordingProducts)
        g_sv.products = g_vd.products = products = []
        kernels = dict(g_sv=g_sv, g_vd=g_vd)
        dense = dataclasses.replace(small_ops, volume=DenseVolume(g_vv), **kernels)
        series = born_series(dense, eta, 5)
        assert g_vv.operand_dtypes == [np.dtype(float)] * 4
        products.clear()
        recording, volume_operands = recording_volume(dataclasses.replace(small_ops, **kernels))
        assert isinstance(recording.volume, MirrorVolume)
        res = inverse_series(kinv, recording, phi, 5)
        assert volume_operands == [np.dtype(float)] * 2  # C_1 and C_2: K = 2
        # with g_sv and g_vd: the data of order 2, Lam_j G_vd for the split orders 3
        # to 5, and one wide product per head: H_3 [C_1 | C_2] and H_4 C_1
        assert products == [(np.dtype(float), np.dtype(float))] * 6
        assert all(np.isrealobj(t) for t in series.terms + res.terms)
        plain = inverse_series(kinv, small_ops, phi, 5)
        assert all(np.array_equal(a, b) for a, b in zip(res.terms, plain.terms))

    def test_discrete_norms_sit_below_certified_bounds(self, small_ops, small_linop):
        # the exact discrete operator norms of the order-1 map obey the
        # closed-form bounds; this is what caps sigma_max and forces the
        # pseudoinverse outside the certified smallness region
        cs = closed_form_constants(small_ops.mode, 1.0, 2.0)
        sigma_max = small_linop.svals[0]
        assert sigma_max <= cs.nu_2
        row_sums = np.abs(small_linop.matrix).sum(axis=1).max()
        assert row_sums <= cs.nu_inf
        kinv = regularize(small_linop, tau=1e-2)
        assert (cs.mu_2 + cs.nu_2) * kinv.norm2 >= 1 + cs.mu_2 / cs.nu_2

    def test_linear_data_from_retained_subspace(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-3)
        blob = build_phantom(
            small_ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        eta_true = 0.02 * kinv.project(blob)
        phi = (small_linop.matrix @ eta_true).reshape(small_ops.n_src, small_ops.n_det)
        res = inverse_series(kinv, small_ops, phi, 4)
        scale = np.abs(eta_true).max()
        assert np.abs(res.terms[0] - eta_true).max() <= 1e-10 * scale
        # higher orders are genuine nonlinear corrections, not numerical zeros,
        # and they decay so the partial sums settle
        n2 = field_norm(small_ops.grid, res.terms[1], 2)
        n1 = field_norm(small_ops.grid, res.terms[0], 2)
        assert n2 > 1e-10 * n1
        norms = [field_norm(small_ops.grid, t, 2) for t in res.terms]
        assert norms[3] < norms[2] < norms[1]

    def test_generic_phantom_error_floor_is_linear_residual(self, small_ops, small_linop):
        # outside the retained subspace the error decreases with order and
        # plateaus at the unrecoverable component ||eta - P eta||
        kinv = regularize(small_linop, tau=1e-3)
        blob = build_phantom(
            small_ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        eta_true = 0.05 * blob / field_norm(small_ops.grid, blob, 2)
        phi = solve_direct(small_ops, eta_true)
        res = inverse_series(kinv, small_ops, phi, 5)
        linres = field_norm(small_ops.grid, eta_true - kinv.project(eta_true), 2)
        errs = [field_norm(small_ops.grid, eta_true - s, 2) for s in res.partial_sums]
        assert errs[-1] <= errs[0]
        # weighted-L2 orthogonality puts the floor exactly at the residual
        assert linres * (1 - 1e-12) <= errs[-1] <= 1.05 * linres

    def test_subspace_phantom_recovery(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-3)
        blob = build_phantom(
            small_ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        direction = kinv.project(blob)
        eta_true = 0.05 * direction / field_norm(small_ops.grid, direction, 2)
        phi = solve_direct(small_ops, eta_true)
        res = inverse_series(kinv, small_ops, phi, 5)
        errs = [
            field_norm(small_ops.grid, eta_true - s, 2)
            / field_norm(small_ops.grid, eta_true, 2)
            for s in res.partial_sums
        ]
        assert errs[-1] <= 1e-6
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_scalar_mode_subspace_recovery(self):
        # oscillatory kernels: the whole pipeline runs on genuinely complex data
        ops, linop = make_problem(kind="scalar", k=1.0)
        kinv = regularize(linop, tau=1e-3)
        blob = build_phantom(
            ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        direction = kinv.project(blob).real
        eta_true = (0.05 * direction / field_norm(ops.grid, direction, 2)).astype(complex)
        eta_true = kinv.project(eta_true)  # stay exactly inside the retained subspace
        phi = solve_direct(ops, eta_true)
        assert np.abs(phi.imag).max() > 0
        res = inverse_series(kinv, ops, phi, 5)
        errs = [
            field_norm(ops.grid, eta_true - s, 2) / field_norm(ops.grid, eta_true, 2)
            for s in res.partial_sums
        ]
        assert errs[-1] <= 1e-5
        assert errs[-1] < errs[0]


class TestDiagnostics:
    def test_reports_hypotheses_without_raising(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-3)
        eta = 0.05 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        res = inverse_series(kinv, small_ops, phi, 3)
        cs = closed_form_constants(small_ops.mode, 1.0, 2.0)
        diag = diagnostics(res, kinv, cs, small_ops, phi, eta_true=eta)
        for label in ("2", "inf"):
            rec = diag["p"][label]
            assert {"mu_p", "nu_p", "pinv_norm", "q", "r"} <= set(rec)
            assert isinstance(rec["hyp_operator_ok"], bool)
            assert len(rec["measured_error"]) == 3
            assert rec["linear_residual"] >= 0
            # truncated pseudoinverses sit far outside the smallness region
            assert rec["hyp_operator_ok"] is False
            assert rec["tail_bound"] is None
            assert rec["hypothesis_violations"]

    @pytest.mark.parametrize("kind", ["diffuse", "scalar"])
    def test_field_norms_have_the_bytes_of_one_field_at_a_time(self, kind):
        # the stacked reduction gives each norm field_norm's bytes for that field
        ops, linop = make_problem(kind=kind, h=0.35)
        kinv = regularize(linop, tau=1e-3)
        eta = validate_absorption(
            0.05 * build_phantom(
                ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
            ),
            ops.mode,
        )
        phi = solve_direct(ops, eta)
        res = inverse_series(kinv, ops, phi, 4)
        cs = closed_form_constants(ops.mode, 1.0, 2.0)
        diag = diagnostics(res, kinv, cs, ops, phi, eta_true=eta)
        eta, grid = eta.astype(complex), ops.grid
        proj = kinv.project(eta)
        for p, label in ((2, "2"), (INF, "inf")):
            rec = diag["p"][label]
            assert rec["term_norms"] == [field_norm(grid, t, p) for t in res.terms]
            errors = [field_norm(grid, eta - s_n, p) for s_n in res.partial_sums]
            assert rec["measured_error"] == errors
            assert rec["eta_true_norm"] == field_norm(grid, eta, p)
            assert rec["linear_residual"] == field_norm(grid, eta - proj, p)
            assert rec["state_bound"] == max(rec["eta_true_norm"], field_norm(grid, proj, p))
        assert diagnostics(res, kinv, cs, ops, phi)["p"]["2"]["term_norms"] == [
            field_norm(grid, t, 2) for t in res.terms
        ]

    def test_zero_data_measured_terms_vanish(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-3)
        phi = np.zeros((small_ops.n_src, small_ops.n_det))
        res = inverse_series(kinv, small_ops, phi, 2)
        cs = closed_form_constants(small_ops.mode, 1.0, 2.0)
        diag = diagnostics(res, kinv, cs, small_ops, phi)
        for rec in diag["p"].values():
            assert rec["phi_norm"] == 0.0
            assert rec["eta1_norm"] == 0.0
            assert all(n == 0 for n in rec["term_norms"])
            assert rec["term_ratios"] == [None]

    def test_term_ratios_are_quotients_of_term_norms(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-3)
        eta = 0.05 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        res = inverse_series(kinv, small_ops, phi, 4)
        cs = closed_form_constants(small_ops.mode, 1.0, 2.0)
        for rec in diagnostics(res, kinv, cs, small_ops, phi)["p"].values():
            norms = rec["term_norms"]
            assert rec["term_ratios"] == [norms[j] / norms[j - 1] for j in range(1, 4)]
            assert all(0 < q < 1 for q in rec["term_ratios"])

    def test_synthetic_constants_enable_certified_tail(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.01 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        res = inverse_series(kinv, small_ops, phi, 3)
        scale = 0.1 / kinv.norm_inf  # forces q well below one for both norms
        cs = synthetic_constants(small_ops.mode, scale)
        diag = diagnostics(res, kinv, cs, small_ops, phi, eta_true=eta)
        for rec in diag["p"].values():
            assert rec["hyp_operator_ok"] is True
            assert rec["tail_bound"] is not None
            assert all(b >= 0 for b in rec["tail_bound"])
            assert rec["stability_constant"] > 0


class TestStabilityProbe:
    def test_zero_perturbation(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.05 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        cs = closed_form_constants(small_ops.mode, 1.0, 2.0)
        probe = stability_probe(kinv, small_ops, phi, phi.copy(), 3, cs)
        for rec in probe["p"].values():
            assert rec["lhs"] == 0.0
            assert rec["dphi_norm"] == 0.0

    def test_lipschitz_ratio_stabilizes(self, small_ops, small_linop):
        from invborn.cli import add_noise

        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.05 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        cs = closed_form_constants(small_ops.mode, 1.0, 2.0)
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            probe = stability_probe(kinv, small_ops, phi, add_noise(phi, eps, 99), 3, cs)
            ratios.append(probe["p"]["2"]["ratio"])
        assert np.isfinite(ratios).all()
        assert max(ratios) / min(ratios) < 1.5

    def test_synthetic_constants_give_dominating_bound(self, small_ops, small_linop):
        from invborn.cli import add_noise

        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.02 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        scale = 0.05 / kinv.norm_inf
        cs = synthetic_constants(small_ops.mode, scale)
        probe = stability_probe(kinv, small_ops, phi, add_noise(phi, 1e-3, 5), 3, cs)
        for rec in probe["p"].values():
            assert rec["hyp_operator_ok"] and rec["hyp_data_bound_ok"]
            assert rec["rhs"] is not None
            assert rec["lhs"] <= rec["rhs"]


def constants_with_q(mode, kinv, q):
    """Synthetic constants with mu_p = nu_p and (mu_p + nu_p) * ||pinv||_p = q at p = 2 and inf."""
    return ConstantSet(
        mu_inf=q / (2 * kinv.norm_inf),
        mu_2=q / (2 * kinv.norm2),
        nu_inf=q / (2 * kinv.norm_inf),
        nu_2=q / (2 * kinv.norm2),
        mode=mode,
        a=1.0,
        omega_radius=2.0,
        provenance="closed_form",
    )


class TestPartialHypotheses:
    """Each smallness hypothesis failing on its own, record by record."""

    @pytest.fixture
    def case(self, small_ops, small_linop):
        from invborn.cli import add_noise

        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.02 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        cs = constants_with_q(small_ops.mode, kinv, 0.5)
        return kinv, eta, phi, add_noise(phi, 1e-3, 5), cs

    @staticmethod
    def certified(cs, kinv, p):
        return CertifiedBounds.from_constants(cs, p, kinv.norm(p))

    def test_data_smallness_fails_alone(self, small_ops, case):
        kinv, eta, phi, noisy, cs = case
        # q = 0.5 at both norms; data scaled so that q * ||phi||_p >= 1 at both
        norms = [data_norm(small_ops.boundary, phi, p) for p in (2, INF)]
        big, big_noisy = (4.0 / min(norms)) * phi, (4.0 / min(norms)) * noisy
        res = inverse_series(kinv, small_ops, big, 3)
        diag = diagnostics(res, kinv, cs, small_ops, big, eta_true=eta)
        probe = stability_probe(kinv, small_ops, big, big_noisy, 3, cs)
        for p, label in ((2, "2"), (INF, "inf")):
            tb = self.certified(cs, kinv, p)
            rec = diag["p"][label]
            assert rec["q"] == pytest.approx(0.5, rel=1e-14)
            assert rec["r"] >= 1
            assert rec["hyp_operator_ok"] is True
            assert rec["hypothesis_violations"] == [
                f"(mu_p + nu_p) * pinv_norm * phi_norm = {rec['r']:.6g} >= 1"
            ]
            for key in ("c_simple", "c_refined", "tail_bound", "stability_constant"):
                assert rec[key] is None
            assert rec["hyp_state_ok"] is True
            assert rec["error_bound"] is None
            with pytest.raises(ValueError, match="series tail not summable"):
                tb.remainder_bound(1, rec["phi_norm"])
            prec = probe["p"][label]
            assert prec["hyp_operator_ok"] is True
            assert prec["hyp_data_bound_ok"] is False
            assert prec["stability_constant"] is None and prec["rhs"] is None

    def test_state_smallness_fails_alone(self, small_ops, case):
        kinv, eta, phi, noisy, cs = case
        # the state bound max(||eta||, ||P eta||) reaches 1/(mu_p + nu_p) = 2 ||pinv||_p
        big_eta = 4.0 * max(kinv.norm2, kinv.norm_inf) * eta / field_norm(small_ops.grid, eta, INF)
        res = inverse_series(kinv, small_ops, phi, 3)
        diag = diagnostics(res, kinv, cs, small_ops, phi, eta_true=big_eta)
        probe = stability_probe(kinv, small_ops, phi, noisy, 3, cs)
        for p, label in ((2, "2"), (INF, "inf")):
            tb = self.certified(cs, kinv, p)
            rec = diag["p"][label]
            assert rec["hypothesis_violations"] == []
            assert rec["hyp_operator_ok"] is True
            assert rec["tail_bound"] == [tb.remainder_bound(n, rec["phi_norm"]) for n in (1, 2, 3)]
            assert rec["stability_constant"] == tb.stability_constant(rec["phi_norm"])
            assert (rec["c_simple"], rec["c_refined"]) == tb.series_constants
            assert tb.msum * rec["state_bound"] >= 1
            assert rec["hyp_state_ok"] is False
            assert rec["error_bound"] is None
            with pytest.raises(ValueError, match="state_bound"):
                tb.error_bound(3, rec["phi_norm"], rec["linear_residual"], rec["state_bound"])
            prec = probe["p"][label]
            assert prec["hyp_operator_ok"] is True and prec["hyp_data_bound_ok"] is True
            assert prec["stability_constant"] == tb.stability_constant(prec["data_bound"])
            assert prec["rhs"] == prec["stability_constant"] * prec["dphi_norm"]

    def test_all_hypotheses_hold_error_bound_values(self, small_ops, case):
        kinv, eta, phi, _, cs = case
        res = inverse_series(kinv, small_ops, phi, 3)
        diag = diagnostics(res, kinv, cs, small_ops, phi, eta_true=eta)
        for p, label in ((2, "2"), (INF, "inf")):
            tb = self.certified(cs, kinv, p)
            rec = diag["p"][label]
            assert rec["hyp_state_ok"] is True and rec["hypothesis_violations"] == []
            args = (rec["phi_norm"], rec["linear_residual"], rec["state_bound"])
            assert rec["error_bound"] == [tb.error_bound(n, *args) for n in (1, 2, 3)]

    def test_coefficient_constant_computed_once_per_norm(self, small_ops, case, monkeypatch):
        import invborn.bounds as bounds_module

        kinv, eta, phi, _, cs = case
        res = inverse_series(kinv, small_ops, phi, 4)
        calls = []
        dilog = bounds_module.dilog
        monkeypatch.setattr(bounds_module, "dilog", lambda x: calls.append(x) or dilog(x))
        diag = diagnostics(res, kinv, cs, small_ops, phi, eta_true=eta)
        assert all(rec["error_bound"] is not None for rec in diag["p"].values())
        assert len(calls) == 2
