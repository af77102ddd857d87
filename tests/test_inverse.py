import dataclasses
import math
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
from invborn.grid import Grid
from invborn.greens import assemble_boundary
from invborn.inverse import (
    KRYLOV_FLOOR,
    SVAL_FLOOR,
    _factor,
    _leading_eigenpairs,
    _weighted_gram,
)

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


class _CountingMatmul(np.ndarray):
    """Kernel matrix that counts the products taken with it on the left."""

    def __matmul__(self, other):
        self.matmuls += 1
        return np.asarray(self) @ other


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
        assert np.abs(kinv._u_rh - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_apply_refuses_transposed_data(self, kind):
        ops, linop = self.problem(kind)
        kinv = regularize(linop, tau=1e-3)
        phi = np.ones((ops.n_src, ops.n_det))
        with pytest.raises(ValueError, match=r"\(10, 8\) is neither .*\(8, 10\).*\(80,\)"):
            kinv.apply(phi.T)
        assert np.array_equal(kinv.apply(phi), kinv.apply(phi.ravel()))

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


@pytest.fixture(scope="module", params=["diffuse", "scalar"])
def krylov_problem(request):
    """912 voxels and 24 x 24 pairs: the factorization takes the block Lanczos path.

    Returns (ops, the block Lanczos factorization, the dense eigh one, a dense
    weighted SVD); in diffuse mode 95 values are resolved and 94 retained at
    tau = 1e-3, in scalar mode 59 and 58.
    """
    ops = make_ops(kind=request.param, h=1 / 6, n_src=24, n_det=24)
    linop = linearized_operator(ops)
    return ops, linop, _factor(ops, dense=True), dense_weighted_svd(linop)


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
        # the edge of the retained range agrees to 3.2e-12 relative (measured)
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
        tol = 1e-9 if ops.mode.kind == "diffuse" else 1e-8  # measured 2.4e-11, 1.2e-11
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
    gram = _weighted_gram(ops, math.sqrt(ops.boundary.pair_weight), np.sqrt(ops.grid.weights))
    orders = eigh_orders(monkeypatch)
    theta, vecs = _leading_eigenpairs(gram, min(ops.n_src * ops.n_det, ops.n_nodes))
    # measured 2.2e-15; the residuals 0.005 to 0.11 of the tolerance
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
    # the fourth on takes four (diffuse) and two (scalar)
    ops = make_ops(kind=kind, h=1 / 6, n_src=48, n_det=48)
    assert len(check_returned_ritz_pairs(ops, monkeypatch)) <= 2


@pytest.mark.parametrize("pairs, resolved", [(2, 4), (4, 11), (6, 22)])
def test_rank_deficient_sensor_sets_stay_on_the_krylov_path(pairs, resolved, monkeypatch):
    # the Gram rank S*D is below one 48-vector block, so the first block's own
    # Gram matrix is singular; without its Householder fallback, Cholesky-QR
    # sends each of these sensor sets to dense eigh
    ops = make_ops(h=1 / 6, n_src=pairs, n_det=pairs)
    orders = eigh_orders(monkeypatch)
    linop = linearized_operator(ops)
    assert max(orders) < ops.n_nodes
    assert linop.svals.size == resolved
    assert linop.complete == (resolved == pairs * pairs)
    monkeypatch.undo()
    dense = _factor(ops, dense=True)
    # the values above the floor; the one past it sits at rounding level
    count = int(np.count_nonzero(dense.svals >= KRYLOV_FLOOR * dense.svals[0]))
    assert np.all(np.abs(linop.svals[:count] - dense.svals[:count]) <= 1e-12 * dense.svals[0])
    kinv, ref = regularize(linop, tau=1e-3), regularize(dense, tau=1e-3)
    assert kinv.rank == ref.rank == count
    assert kinv.linop is linop
    assert np.abs(kinv.projector_matrix() - ref.projector_matrix()).max() <= 1e-8


def test_small_grids_take_dense_eigh(small_linop):
    assert small_linop.complete
    assert small_linop.svals.size == min(small_linop.n_pairs, small_linop.n_nodes)


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
        kinv = regularize(linop, tau=1e-3)
        eta = 0.05 * build_phantom(
            ops.grid, [{"center": [0.1, 0.2, 0], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(ops, eta)
        res = inverse_series(kinv, ops, phi, 8)
        ref = enumerated_inverse_series(kinv, ops, phi, 8)
        for j in range(2, 9):
            got, want = res.terms[j - 1], ref[j - 1]
            dev = np.abs(got - want).max() / np.abs(want).max()
            assert dev <= 1e-12, f"order {j}: rel dev {dev:.3e}"

    def test_volume_kernel_products_linear_in_order(self, small_ops, small_linop):
        kinv = regularize(small_linop, tau=1e-2)
        eta = 0.05 * build_phantom(
            small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
        )
        phi = solve_direct(small_ops, eta)
        for order in (1, 2, 5, 12):
            g_vv = small_ops.g_vv.view(_CountingMatmul)
            g_vv.matmuls = 0
            counted = dataclasses.replace(small_ops, g_vv=g_vv)
            res = inverse_series(kinv, counted, phi, order)
            assert g_vv.matmuls == order - 1
            plain = inverse_series(kinv, small_ops, phi, order)
            assert all(np.array_equal(a, b) for a, b in zip(res.terms, plain.terms))

    def test_diffuse_kernel_products_stay_real(self, small_ops, small_linop):
        # a complex operand would make numpy upcast a complex copy of the real g_vv
        kinv = regularize(small_linop, tau=1e-2)
        eta = validate_absorption(
            0.05 * build_phantom(
                small_ops.grid, [{"center": [0, 0, 0.2], "radius": 0.5, "amplitude": 1.0}]
            ),
            small_ops.mode,
        )
        phi = solve_direct(small_ops, eta) * (1.0 + 0j)  # complex dtype, zero imaginary part
        g_vv = small_ops.g_vv.view(_RecordingMatmul)
        g_vv.operand_dtypes = []
        recording = dataclasses.replace(small_ops, g_vv=g_vv)
        series = born_series(recording, eta, 5)
        res = inverse_series(kinv, recording, phi, 5)
        assert g_vv.operand_dtypes == [np.dtype(float)] * 8
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
