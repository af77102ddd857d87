"""The volume-volume kernel of a mirror-symmetric grid, block-diagonalized.

``build_ball_grid`` puts its nodes at (i + 1/2) h, none on a coordinate
plane, with uniform weights, and a node's mirror image has its coordinates
negated bit for bit.  So the kernel G(|x - y|) w_y commutes with the 8 sign
flips of (x, y, z), and the 8-point Hadamard transform along each node's
orbit makes it block-diagonal: 8 parity blocks of (V/8)^2 entries, assembled
from V^2 / 8 kernel evaluations and applied to a V x D block at V^2 D / 8
cost.  This is the symmetry reduction of Allgower, Georg and Miranda,
"Exploiting symmetry in boundary element methods", SIAM J. Numer. Anal. 29
(1992).  ``greens.assemble_volume`` takes this form wherever
``mirror_volume`` finds it, and the dense array elsewhere.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .greens import _ROW_BLOCK, WaveMode, _matmul, _pairwise_dist, _self_cells, greens_kernel
from .grid import Grid

__all__ = ["MirrorVolume", "mirror_orbits", "mirror_volume"]

# _HADAMARD[s, g] = chi_s(g) = (-1)^(bits s and g share), the Sylvester Hadamard
# matrix: the characters of the group of the 8 sign patterns g, bit c of g negating
# coordinate c
_HADAMARD = np.array([[(-1.0) ** bin(s & g).count("1") for g in range(8)] for s in range(8)])


def _hadamard(a: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
    """scale * sum_g chi_s(g) a[g] for each s, along the leading axis, of length 8.

    Written into ``out`` (C-contiguous, a's shape and dtype) or a new array.
    One real product with the 8 x 8 matrix (``_matmul``), whose every entry
    sums over g in order, whatever the trailing shape.
    """
    if out is None:
        out = np.empty(a.shape, a.dtype)
    _matmul(_HADAMARD * scale, a.reshape(8, -1), out.reshape(8, -1))
    return out


class MirrorVolume(NamedTuple):
    """The volume-volume kernel of a mirror-symmetric grid, as 8 parity blocks.

    ``orbits[g, i]`` is the image of node ``orbits[0, i]`` under sign pattern g
    (an (8, V/8) table, see ``mirror_orbits``).  The kernel is invariant
    under the 8 patterns, so its block for patterns (g, g') of the orbit
    ordering depends on g XOR g' alone, and the 8-point Hadamard transform
    along each orbit makes it block-diagonal:
    blocks[s] = sum_g chi_s(g) g_vv[orbits[0], orbits[g]], (V/8) x (V/8) each,
    V^2/8 entries in all.
    """

    orbits: np.ndarray
    blocks: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.blocks.dtype

    def workspace(self, n_cols: int, dtype) -> np.ndarray:
        """The two (8, V/8, D) buffers ``matmul`` reuses across calls, for D = ``n_cols``."""
        return np.empty((2, *self.orbits.shape, n_cols), dtype)

    def matmul(self, y: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """out = g_vv @ y for a V x D block y, at V^2 D / 8 cost; ``work`` from ``workspace``.

        Gathers y along the orbits, transforms, multiplies each parity block in
        one batched product, transforms back and divides by 8, and scatters
        into ``out``, which may be a strided view.
        """
        a, b = work
        # mode='clip' (the indices are in range) writes into ``a``, where 'raise' buffers
        np.take(y.astype(a.dtype, copy=False), self.orbits, axis=0, out=a, mode="clip")
        _hadamard(a, b)
        _matmul(self.blocks, b, a)
        _hadamard(a, b, 1.0 / 8.0)
        out[self.orbits.ravel()] = b.reshape(-1, b.shape[-1])


def mirror_orbits(grid: Grid) -> np.ndarray | None:
    """The (8, V/8) orbit table of the grid under the sign patterns, or None.

    ``orbits[g, i]`` is the image of the i-th node of the positive octant
    under sign pattern g.  A node (i + 1/2) h of the lattice lies in cell i
    = floor(x / h), and its mirror image in cell -1 - i, so the orbits are
    the nodes of one folded cell max(i, -1 - i).  The table exists where
    each node's 8 images are nodes, with coordinates negated bit for bit and
    equal weights: so on every ``build_ball_grid`` grid.  A node on a
    coordinate plane has no such image, since -0.0 lies in cell 0, not -1.
    """
    x, n = grid.centers, grid.n_nodes
    if n == 0 or n % 8:
        return None
    with np.errstate(all="ignore"):
        cells = np.floor(x / grid.spacing)
    if not np.isfinite(cells).all():
        return None
    cells = cells.astype(np.int64)
    pattern = (cells < 0) @ (1 << np.arange(3))
    orbit = np.unique(np.maximum(cells, -1 - cells), axis=0, return_inverse=True)[1].ravel()
    if orbit.max() + 1 != n // 8:
        return None
    orbits = np.full((8, n // 8), -1)
    orbits[pattern, orbit] = np.arange(n)
    if np.any(orbits < 0):  # a slot left empty: two nodes share one
        return None
    reps = x[orbits[0]]
    signs = 1.0 - 2.0 * ((np.arange(8)[:, None] >> np.arange(3)) & 1)  # pattern g's, per axis
    for g in range(1, 8):
        if not (
            np.array_equal(x[orbits[g]], reps * signs[g])
            and np.array_equal(grid.weights[orbits[g]], grid.weights[orbits[0]])
        ):
            return None
    return orbits


def mirror_volume(mode: WaveMode, grid: Grid) -> MirrorVolume | None:
    """The grid's kernel as a ``MirrorVolume``, or None where ``mirror_orbits`` finds no table.

    A row block of orbit representatives is evaluated against every node in
    orbit order, V^2 / 8 kernel evaluations in all, which gives the rows of
    g_vv[reps, orbits[g]] for all g at once (the same entries, bit for bit,
    as ``greens._dense_kernel``), and is then transformed along g.
    """
    orbits = mirror_orbits(grid)
    if orbits is None:
        return None
    m = orbits.shape[1]
    x, w = grid.centers[orbits.ravel()], grid.weights[orbits.ravel()]  # x[:m]: the reps
    blocks = np.empty((8, m, m), dtype=np.result_type(mode.kappa))
    diag = _self_cells(mode, w[:m])
    for start in range(0, m, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, m)
        rows = np.arange(stop - start)
        r = _pairwise_dist(x[start:stop], x)
        r[rows, start + rows] = 1.0  # placeholder: each representative against itself
        g = greens_kernel(mode, r)
        g *= w
        g[rows, start + rows] = diag[start:stop]
        blocks[:, start:stop] = _hadamard(g.reshape(-1, 8, m).transpose(1, 0, 2))
    return MirrorVolume(orbits, blocks)
