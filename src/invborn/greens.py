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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .grid import BoundaryArray, Grid

__all__ = [
    "WaveMode",
    "BoundaryKernels",
    "OperatorSet",
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
    if np.any(r <= 0):
        raise ValueError("greens_kernel requires r > 0; use self_cell_integral at coincident points")
    vals = np.exp(-mode.kappa * r)
    vals /= 4.0 * math.pi * r
    return vals if vals.ndim else vals.item()


def kernel_modulus(mode: WaveMode, r: np.ndarray) -> np.ndarray:
    """|G| = exp(-Re(kappa) r) / (4 pi r) at an array of distances r > 0, as float64."""
    if np.any(r <= 0):
        raise ValueError("kernel_modulus requires r > 0; use self_cell_l1 at coincident points")
    vals = np.exp(-mode.kappa.real * r)
    vals /= 4.0 * math.pi * r
    return vals


def _cell_radius(w: float) -> float:
    """Radius of the ball with the same volume as a voxel of weight w."""
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
    if w <= 0:
        raise ValueError("voxel weight must be positive")
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


@dataclass(frozen=True)
class OperatorSet(BoundaryKernels):
    """The boundary kernels together with the volume-volume kernel.

    g_vv[i, j] = G(|x_i - x_j|) * w_j off the diagonal, the self-cell integral
    on it, so that (g_vv @ f)[i] approximates the volume integral of G f.
    """

    g_vv: np.ndarray


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


# Rows of g_vv evaluated per pass: the distance and kernel temporaries of a
# block stay at a few MB instead of several V x V arrays, and the cache-sized
# passes run faster than one pass over the whole matrix.
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


def assemble_volume(kernels: BoundaryKernels) -> OperatorSet:
    """Add the V x V volume-volume kernel to the boundary kernels.

    The kernel is a float64 array in diffuse mode (the diagonal is the real
    self-cell integral) and complex in scalar mode.  Distances are exactly
    symmetric (``_pairwise_dist``), so each pair of nodes is evaluated once:
    a row block against the nodes from its first row on fills its rows and,
    transposed, its columns, each scaled by its column weights.
    """
    mode, grid = kernels.mode, kernels.grid
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
    # one self-cell integral per distinct weight: a uniform lattice has one
    weights, which = np.unique(grid.weights, return_inverse=True)
    diag = np.array([self_cell_integral(mode, w) for w in weights])[which]
    np.fill_diagonal(g_vv, diag.real if mode.kind == "diffuse" else diag)
    return OperatorSet(
        mode=mode,
        grid=grid,
        boundary=kernels.boundary,
        g_sv=kernels.g_sv,
        g_vd=kernels.g_vd,
        g_vv=g_vv,
    )


def assemble(mode: WaveMode, grid: Grid, boundary: BoundaryArray) -> OperatorSet:
    """Assemble the boundary kernels and then the volume-volume kernel."""
    return assemble_volume(assemble_boundary(mode, grid, boundary))
