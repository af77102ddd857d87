"""Quadrature discretizations of the scatterer support and the measurement surface.

The scatterer lives in a ball of radius ``a``; it is discretized by a uniform
cubic voxel lattice (midpoint rule, weight ``h^3`` per node).  Sources and
detectors live on a concentric sphere of radius ``omega_radius > a`` and are
placed by the Fibonacci-sphere rule with uniform surface weights.  Weighted
discrete p-norms over both point sets stand in for the continuum norms; they
converge to them under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "BoundaryArray",
    "build_ball_grid",
    "build_sphere_boundary",
    "lp_norm",
    "field_norm",
    "data_norm",
]


@dataclass(frozen=True)
class Grid:
    """Voxel quadrature nodes covering the ball |x| <= radius_a.

    Attributes
    ----------
    centers : (n, 3) float array, voxel midpoints
    weights : (n,) float array, volume weight per node (h^3 on a uniform lattice)
    spacing : lattice spacing h
    radius_a : radius of the support ball
    """

    centers: np.ndarray
    weights: np.ndarray
    spacing: float
    radius_a: float

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise ValueError(f"centers must be (n, 3), got {centers.shape}")
        if weights.shape != (centers.shape[0],):
            raise ValueError("one weight per node required")
        if not np.all(weights > 0):
            raise ValueError("all quadrature weights must be positive")
        r = np.linalg.norm(centers, axis=1)
        if np.any(r > self.radius_a * (1 + 1e-12)):
            raise ValueError("grid node outside the support ball")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.centers.shape[0]

    @property
    def volume(self) -> float:
        """Total quadrature volume (approximates 4*pi*a^3/3)."""
        return float(self.weights.sum())

    def subset(self, nodes) -> "Grid":
        """The given nodes (an index array or boolean mask) with the same spacing and radius_a."""
        return Grid(
            centers=self.centers[nodes],
            weights=self.weights[nodes],
            spacing=self.spacing,
            radius_a=self.radius_a,
        )


@dataclass(frozen=True)
class BoundaryArray:
    """Source and detector points on a sphere of radius omega_radius.

    Each family carries a uniform surface quadrature weight so that the
    weights sum to the sphere area 4*pi*R^2 exactly.
    """

    sources: np.ndarray
    detectors: np.ndarray
    src_weight: float
    det_weight: float
    omega_radius: float

    def __post_init__(self):
        for name in ("sources", "detectors"):
            pts = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if pts.ndim != 2 or pts.shape[1] != 3:
                raise ValueError(f"{name} must be (n, 3)")
            r = np.linalg.norm(pts, axis=1)
            if np.any(np.abs(r - self.omega_radius) > 1e-12 * self.omega_radius):
                raise ValueError(f"{name} not on the sphere of radius {self.omega_radius}")
            object.__setattr__(self, name, pts)
        if not (self.src_weight > 0 and self.det_weight > 0):
            raise ValueError("surface weights must be positive")

    @property
    def n_src(self) -> int:
        return self.sources.shape[0]

    @property
    def n_det(self) -> int:
        return self.detectors.shape[0]

    @property
    def pair_weight(self) -> float:
        """Quadrature weight of one (source, detector) pair."""
        return self.src_weight * self.det_weight


def build_ball_grid(a: float, h: float) -> Grid:
    """Uniform voxel grid over the ball of radius ``a``.

    Nodes are the cubic lattice points offset by h/2 from the origin in each
    axis (no node at the origin, none exactly on |x| = a for generic h),
    keeping those with |x| <= a.  Each node carries weight h^3.
    """
    if a <= 0:
        raise ValueError(f"ball radius must be positive, got {a}")
    if not 0 < h <= 2 * a:
        raise ValueError(f"spacing must satisfy 0 < h <= 2a, got h={h}, a={a}")
    imax = int(math.floor(a / h - 0.5))
    imin = int(math.ceil(-a / h - 0.5))
    coords = (np.arange(imin, imax + 1) + 0.5) * h
    x, y, z = np.meshgrid(coords, coords, coords, indexing="ij")
    centers = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    keep = np.linalg.norm(centers, axis=1) <= a
    centers = centers[keep]
    if centers.shape[0] == 0:
        raise ValueError(f"no lattice node with spacing h={h} falls inside the ball of radius {a}")
    weights = np.full(centers.shape[0], h**3)
    return Grid(centers=centers, weights=weights, spacing=float(h), radius_a=float(a))


def fibonacci_sphere(n: int, radius: float) -> np.ndarray:
    """Deterministic near-uniform point set on a sphere (Fibonacci spiral)."""
    i = np.arange(n)
    z = 1.0 - (2 * i + 1.0) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return radius * np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def build_sphere_boundary(omega_radius: float, n_src: int, n_det: int) -> BoundaryArray:
    """Source/detector arrays on the sphere of radius ``omega_radius``.

    Both families are placed by the Fibonacci-sphere rule; each point of a
    family of size n carries the uniform surface weight 4*pi*R^2/n.
    """
    if omega_radius <= 0:
        raise ValueError("omega_radius must be positive")
    if n_src < 1 or n_det < 1:
        raise ValueError(f"need at least one source and one detector, got {n_src}, {n_det}")
    radius = float(omega_radius)  # an int would square exactly, past the float range
    try:  # a float power raises where its result overflows
        area = 4.0 * math.pi * radius**2
    except OverflowError:
        area = math.inf
    if not math.isfinite(area):
        raise ValueError(f"the sphere area is not finite at omega_radius={omega_radius:g}")
    # the data norms and the linearized operator weigh a pair by area^2 / (S * D)
    if not math.isfinite((area / n_src) * (area / n_det)):
        raise ValueError(
            f"the source-detector pair weight area^2/(n_src*n_det) is not finite at "
            f"omega_radius={omega_radius:g}, n_src={n_src}, n_det={n_det}"
        )
    return BoundaryArray(
        sources=fibonacci_sphere(n_src, omega_radius),
        detectors=fibonacci_sphere(n_det, omega_radius),
        src_weight=area / n_src,
        det_weight=area / n_det,
        omega_radius=radius,
    )


def _check_p(p: float):
    if not p >= 2:
        raise ValueError(f"p must be in [2, inf], got {p}")


def lp_norm(values: np.ndarray, weights, p: float) -> float:
    """Weighted discrete p-norm (sum_i w_i |f_i|^p)^(1/p); max |f_i| for p=inf.

    Only 2 <= p <= inf is supported.  ``weights`` may be a scalar (uniform
    weight) or an array broadcastable against ``values``.  A finite field whose
    sum overflows (|f|^p beyond the float range) is summed again rescaled by
    max |f|, so its norm is finite wherever it is representable.
    """
    values = np.asarray(values)
    if not math.isinf(p):  # the sup-norm reads no weights
        weights = np.broadcast_to(np.asarray(weights, dtype=float), values.shape).reshape(1, -1)
    return _lp_norms(values.reshape(1, -1), weights, p)[0]


def _lp_norms(values: np.ndarray, weights, p: float) -> list:
    """``lp_norm`` of each row of a 2-D ``values``, in one reduction for all rows.

    ``weights`` broadcasts against ``values``.  Each row's norm has the bytes
    ``lp_norm`` gives for that row alone, the overflow rescale included.
    """
    _check_p(p)
    mags = np.abs(values)
    if math.isinf(p):
        return [float(m) for m in mags.max(axis=1, initial=0.0)]
    w = np.broadcast_to(np.asarray(weights, dtype=float), mags.shape)
    if not np.all(w > 0):
        raise ValueError("weights must be positive")
    with np.errstate(over="ignore"):
        totals = (w * mags**p).sum(axis=1)
    norms = []
    for total, row, row_w in zip(totals, mags, w):
        if math.isinf(total) and np.isfinite(row).all():
            top = row.max()
            norms.append(float(top * (row_w * (row / top) ** p).sum() ** (1.0 / p)))
        else:
            norms.append(float(total ** (1.0 / p)))
    return norms


def field_norm(grid: Grid, values: np.ndarray, p: float) -> float:
    """p-norm of a volume field over the grid's quadrature."""
    values = np.asarray(values)
    if values.shape != (grid.n_nodes,):
        raise ValueError(f"field shape {values.shape} does not match grid ({grid.n_nodes},)")
    return lp_norm(values, grid.weights, p)


def data_norm(boundary: BoundaryArray, phi: np.ndarray, p: float) -> float:
    """p-norm of scattering data over (source, detector) pairs.

    The quadrature weight of a pair is the product of the two surface weights.
    """
    phi = np.asarray(phi)
    if phi.shape != (boundary.n_src, boundary.n_det):
        raise ValueError(
            f"data shape {phi.shape} does not match ({boundary.n_src}, {boundary.n_det})"
        )
    return lp_norm(phi, boundary.pair_weight, p)
