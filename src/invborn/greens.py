"""Free-space Green's kernels and discrete operator assembly.

Two wave models share one code path and one kernel G(r) = exp(-kappa r) / (4 pi r):

* diffuse:  kappa = k,     G(r) = exp(-k r) / (4 pi r)   (real, positive)
* scalar:   kappa = -i k,  G(r) = exp(i k r) / (4 pi r)  (oscillatory)

Each kernel formula is written once in kappa, and |G| is G at Re(kappa).
Kernels are real arrays (float64) in diffuse mode and complex in scalar mode,
so diffuse problems run in real arithmetic downstream.  The singular diagonal
of the volume-volume kernel is replaced by the analytic integral of G over a
ball of the same volume as the voxel, which removes the 1/r singularity at
O(h) quadrature consistency.

On a grid that the 8 sign flips of (x, y, z) map onto itself, as every
``build_ball_grid`` grid, the volume-volume kernel is held as 8 parity blocks
of (V/8)^2 entries (``mirror.MirrorVolume``), and any other grid holds the
dense V x V array (``DenseVolume``).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .grid import BoundaryArray, Grid

if TYPE_CHECKING:
    from .mirror import MirrorVolume

__all__ = [
    "WaveMode",
    "BoundaryKernels",
    "OperatorSet",
    "DenseVolume",
    "greens_kernel",
    "kernel_modulus",
    "self_cell_integral",
    "self_cell_l1",
    "self_cell_l2",
    "assemble_boundary",
    "assemble_volume",
    "assemble",
]

_KINDS = ("diffuse", "scalar")


@dataclass(frozen=True)
class WaveMode:
    """Wave model (diffuse or scalar) together with its wave number k > 0."""

    kind: str
    k: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not self.k > 0:
            raise ValueError(f"wave number must be positive, got {self.k}")

    @classmethod
    def diffuse(cls, k: float) -> "WaveMode":
        return cls("diffuse", float(k))

    @classmethod
    def scalar(cls, k: float) -> "WaveMode":
        return cls("scalar", float(k))

    @property
    def kappa(self) -> complex | float:
        """Decay constant of G = exp(-kappa r) / (4 pi r): k (diffuse) or -i k (scalar)."""
        return float(self.k) if self.kind == "diffuse" else complex(0.0, -self.k)

    @property
    def sign(self) -> float:
        """Sign s of the scattering term in (I + s k^2 G eta) u = u_i."""
        return 1.0 if self.kind == "diffuse" else -1.0

    @property
    def alpha(self) -> float:
        """alpha = -s k^2; the order-m series coefficient is -alpha**m."""
        return -self.sign * self.k**2


def greens_kernel(mode: WaveMode, r):
    """Point value of the free-space kernel at distance r > 0.

    Real in diffuse mode, complex in scalar mode.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("greens_kernel requires r > 0; use self_cell_integral at coincident points")
    vals = np.exp(-mode.kappa * r)
    vals /= 4.0 * math.pi * r
    return vals if vals.ndim else vals.item()


def kernel_modulus(mode: WaveMode, r: np.ndarray) -> np.ndarray:
    """|G| = exp(-Re(kappa) r) / (4 pi r) at an array of distances r > 0, as float64."""
    if not np.all(r > 0):
        raise ValueError("kernel_modulus requires r > 0; use self_cell_l1 at coincident points")
    vals = np.exp(-mode.kappa.real * r)
    vals /= 4.0 * math.pi * r
    return vals


def _cell_radius(w: float) -> float:
    """Radius of the ball with the same volume as a voxel of weight w."""
    if not 0 < w < math.inf:
        raise ValueError("voxel weight must be positive and finite")
    return (3.0 * w / (4.0 * math.pi)) ** (1.0 / 3.0)


def _ball_factor(z: complex) -> complex:
    """(1 - (1 + z) e^{-z}) / z^2 for Re z >= 0, to within a few ulp.

    k^2 times the integral of G over a ball of radius rho about its center is
    (k rho)^2 times this factor at z = kappa rho, and of |G| at z = Re(kappa)
    rho (0 for the scalar kernel).  The closed form cancels as z -> 0 (it reads
    0 below |z| ~ 1e-8), so below |z| = 2 the factor is summed as
    e^{-z} sum_{m >= 0} z^m / (m + 2)!, each part with one exact float sum;
    for real z the terms are positive and the result is real.
    """
    if abs(z) >= 2.0:
        return (1.0 - (1.0 + z) * cmath.exp(-z)) / (z * z)
    terms = [0.5]
    while abs(terms[-1]) > 1e-17:
        terms.append(terms[-1] * z / (len(terms) + 2))
    total = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return total * cmath.exp(-z)


def _ball_l2(mode: WaveMode, rho: float) -> float:
    """Integral of |G|^2 over the ball of radius rho about its center."""
    kr = mode.kappa.real
    if kr == 0.0:
        return rho / (4.0 * math.pi)
    return -math.expm1(-2.0 * kr * rho) / (8.0 * math.pi * kr)


def self_cell_integral(mode: WaveMode, w: float) -> complex:
    """Integral of G over the equal-volume ball centered on the node.

    With r_c = (3w / 4 pi)^(1/3) it is (1 - (1 + kappa r_c) e^{-kappa r_c}) / kappa^2,
    which tends to r_c^2 / 2 as kappa r_c -> 0; it is evaluated as r_c^2 times
    _ball_factor(kappa r_c), which does not cancel there.
    """
    rc = _cell_radius(w)
    return complex(rc**2 * _ball_factor(mode.kappa * rc))


def self_cell_l1(mode: WaveMode, w: float) -> float:
    """Integral of |G| over the equal-volume ball (for sup-type row sums)."""
    rc = _cell_radius(w)
    return rc**2 * _ball_factor(mode.kappa.real * rc).real


def self_cell_l2(mode: WaveMode, w: float) -> float:
    """Integral of |G|^2 over the equal-volume ball (for L2 row sums)."""
    return _ball_l2(mode, _cell_radius(w))


@dataclass(frozen=True)
class BoundaryKernels:
    """Source-volume and volume-detector kernels for one (mode, grid, boundary) triple.

    g_sv[s, j] and g_vd[j, d] are plain kernel values; volume weights are
    applied at application time on the volume side.  They are all the
    linearized operator reads.
    """

    mode: WaveMode
    grid: Grid
    boundary: BoundaryArray
    g_sv: np.ndarray
    g_vd: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @property
    def n_src(self) -> int:
        return self.boundary.n_src

    @property
    def n_det(self) -> int:
        return self.boundary.n_det


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a @ b, a real ``a`` meeting a complex ``b`` as float pairs, never as a complex copy."""
    if np.isrealobj(a) and np.iscomplexobj(b):
        b, out = b.view(float), out.view(float)
    np.matmul(a, b, out=out)


class DenseVolume(NamedTuple):
    """The volume-volume kernel as one V x V array."""

    matrix: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    def workspace(self, n_cols: int, dtype) -> None:
        """What ``matmul`` reuses across calls: nothing."""
        return None

    def matmul(self, y: np.ndarray, out: np.ndarray, work=None) -> None:
        """out = g_vv @ y for a V x D block y."""
        _matmul(self.matrix, y, out)


@dataclass(frozen=True)
class OperatorSet(BoundaryKernels):
    """The boundary kernels together with the volume-volume kernel.

    g_vv[i, j] = G(|x_i - x_j|) * w_j off the diagonal, the self-cell integral
    on it, so that (g_vv @ f)[i] approximates the volume integral of G f.
    ``volume`` holds it, as a ``mirror.MirrorVolume`` on a mirror-symmetric
    grid and as a DenseVolume elsewhere; its ``matmul`` is the product the
    inverse series takes.  ``g_vv`` is the dense array, assembled from the
    grid on first read where ``volume`` is mirror-blocked (for ``born_term``,
    the selftest and tests; the forward solve and series take
    ``forward._on_support``'s support kernel).
    """

    volume: DenseVolume | MirrorVolume

    @functools.cached_property
    def g_vv(self) -> np.ndarray:
        if isinstance(self.volume, DenseVolume):
            return self.volume.matrix
        return _dense_kernel(self.mode, self.grid)


def _pairwise_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distances |x_i - y_j|, summing squared coordinate differences one axis at a time.

    Adds the squares in the order np.linalg.norm(x[:, None] - y[None], axis=-1)
    does, so the result is the same bit for bit (and exactly symmetric when
    x is y), without the (n, m, 3) difference temporary.
    """
    d2 = np.zeros((x.shape[0], y.shape[0]))
    for c in range(x.shape[1]):
        d2 += np.subtract.outer(x[:, c], y[:, c]) ** 2
    return np.sqrt(d2, out=d2)


def lattice_row_sums(grid: Grid, kernels) -> list:
    """Sums over j != i of f(|x_i - x_j|) w_j at every node, one array per radial f in kernels.

    build_ball_grid and Grid.subset keep the nodes on one cubic lattice of pitch
    grid.spacing, so each sum is a zero-padded FFT convolution of the weights
    with f at the lattice offsets, and no V x V array is formed.
    """
    pos = (grid.centers - grid.centers.min(axis=0)) / grid.spacing
    if np.abs(pos - np.rint(pos)).max() > 1e-9:
        raise ValueError(f"grid nodes are off the lattice of spacing {grid.spacing}")
    idx = tuple(np.rint(pos).astype(np.intp).T)
    shape = tuple(2 * np.max(idx, axis=1) + 2)  # twice the extent: no offset wraps around
    box = np.zeros(shape)
    box[idx] = grid.weights
    if np.count_nonzero(box) < grid.n_nodes:
        raise ValueError("grid has coincident nodes")
    box_hat = np.fft.rfftn(box)
    r = grid.spacing * np.sqrt(sum(np.ix_(*(np.fft.fftfreq(n, 1.0 / n) ** 2 for n in shape))))
    r[0, 0, 0] = 1.0  # placeholder, the zero offset is dropped below
    sums = []
    for f in kernels:
        kern = f(r)
        kern[0, 0, 0] = 0.0
        sums.append(np.fft.irfftn(box_hat * np.fft.rfftn(kern), s=shape, axes=(0, 1, 2))[idx])
    return sums


# Rows of g_vv (or of the parity blocks) evaluated per pass: the distance and
# kernel temporaries of a block stay at a few MB instead of several V x V
# arrays, and the cache-sized passes run faster than one pass over the matrix.
_ROW_BLOCK = 128


def assemble_boundary(mode: WaveMode, grid: Grid, boundary: BoundaryArray) -> BoundaryKernels:
    """Assemble the source-volume and volume-detector kernels (S x V and V x D)."""
    r_src = np.linalg.norm(boundary.sources, axis=1)
    r_det = np.linalg.norm(boundary.detectors, axis=1)
    if np.any(r_src <= grid.radius_a) or np.any(r_det <= grid.radius_a):
        raise ValueError("boundary points must lie strictly outside the support ball")
    g_sv = greens_kernel(mode, _pairwise_dist(boundary.sources, grid.centers))
    g_vd = greens_kernel(mode, _pairwise_dist(grid.centers, boundary.detectors))
    return BoundaryKernels(mode=mode, grid=grid, boundary=boundary, g_sv=g_sv, g_vd=g_vd)


def _self_cells(mode: WaveMode, weights: np.ndarray) -> np.ndarray:
    """The self-cell integral at each weight, in the kernel's dtype: one per distinct weight."""
    distinct, which = np.unique(weights, return_inverse=True)
    diag = np.array([self_cell_integral(mode, w) for w in distinct])[which]
    return diag.real if mode.kind == "diffuse" else diag


def _dense_kernel(mode: WaveMode, grid: Grid) -> np.ndarray:
    """The V x V volume-volume kernel g_vv.

    A float64 array in diffuse mode (the diagonal is the real self-cell
    integral) and complex in scalar mode.  Distances are exactly symmetric
    (``_pairwise_dist``), so each pair of nodes is evaluated once: a row
    block against the nodes from its first row on fills its rows and,
    transposed, its columns, each scaled by its column weights.
    """
    x, n = grid.centers, grid.n_nodes
    g_vv = np.empty((n, n), dtype=np.result_type(mode.kappa))
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        r = _pairwise_dist(x[start:stop], x[start:])
        rows = np.arange(stop - start)
        r[rows, rows] = 1.0  # placeholder, diagonal overwritten below
        g = greens_kernel(mode, r)
        np.multiply(g, grid.weights[start:], out=g_vv[start:stop, start:])
        np.multiply(g.T, grid.weights[start:stop], out=g_vv[start:, start:stop])
    np.fill_diagonal(g_vv, _self_cells(mode, grid.weights))
    return g_vv


def assemble_volume(kernels: BoundaryKernels) -> OperatorSet:
    """Add the volume-volume kernel to the boundary kernels, in the form the grid allows.

    Its 8 parity blocks (``mirror.MirrorVolume``, V^2 / 8 entries and kernel
    evaluations) on a mirror-symmetric grid, every ``build_ball_grid`` grid
    among them; the V x V array (``DenseVolume``, V^2 / 2 evaluations)
    elsewhere.  Real (float64) in diffuse mode, complex in scalar mode.
    """
    # imported on first use, so that importing the package does not compile it
    from .mirror import mirror_volume

    mode, grid = kernels.mode, kernels.grid
    volume = mirror_volume(mode, grid)
    if volume is None:
        volume = DenseVolume(_dense_kernel(mode, grid))
    return OperatorSet(
        mode=mode,
        grid=grid,
        boundary=kernels.boundary,
        g_sv=kernels.g_sv,
        g_vd=kernels.g_vd,
        volume=volume,
    )


def assemble(mode: WaveMode, grid: Grid, boundary: BoundaryArray) -> OperatorSet:
    """Assemble the boundary kernels and then the volume-volume kernel."""
    return assemble_volume(assemble_boundary(mode, grid, boundary))
