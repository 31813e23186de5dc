"""Structured meshes: P1 triangulations for the FEM backend, uniform grids for FD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle (x0, x1) x (y0, y1)."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("rectangle requires x1 > x0 and y1 > y0")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def is_square(self) -> bool:
        return abs(self.width - self.height) <= 1e-12 * max(self.width, self.height)


UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)
PI_SQUARE = Rectangle(0.0, np.pi, 0.0, np.pi)


@dataclass(frozen=True)
class TriMesh:
    """Uniform triangulation of a rectangle.

    Nodes are stored in row-major lexicographic order (x fastest); each grid
    cell is split along its lower-left to upper-right diagonal, so triangle
    orientation is deterministic and all signed areas equal hx*hy/2.
    """

    rect: Rectangle
    n_per_side: int
    nodes: np.ndarray        # (n_nodes, 2)
    triangles: np.ndarray    # (n_tri, 3), counterclockwise
    boundary_mask: np.ndarray  # (n_nodes,) bool

    @property
    def h(self) -> float:
        return self.rect.width / self.n_per_side

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


@dataclass(frozen=True)
class FdGrid:
    """Uniform grid on a square domain for the 5-point Laplacian.

    Interior unknowns are the (M-1)^2 nodes (ih, jh), 1 <= i, j <= M-1,
    flattened lexicographically: flat = (j-1)*(M-1) + (i-1).
    """

    rect: Rectangle
    n_per_side: int

    def __post_init__(self):
        if self.n_per_side < 2:
            raise ValueError("FD grid needs at least M = 2 subdivisions")
        if not self.rect.is_square():
            raise ValueError("FD backend is restricted to square domains")

    @property
    def h(self) -> float:
        return self.rect.width / self.n_per_side

    @property
    def side(self) -> float:
        return self.rect.width

    @property
    def n_interior(self) -> int:
        return (self.n_per_side - 1) ** 2

    def interior_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (x, y) coordinates of the interior unknowns."""
        m = self.n_per_side
        t = self.rect.x0 + self.h * np.arange(1, m)
        s = self.rect.y0 + self.h * np.arange(1, m)
        xx, yy = np.meshgrid(t, s)  # rows indexed by j, cols by i
        return xx.ravel(), yy.ravel()

    def flat_index(self, i: int, j: int) -> int:
        m = self.n_per_side
        if not (1 <= i <= m - 1 and 1 <= j <= m - 1):
            raise IndexError(f"({i}, {j}) is not an interior node")
        return (j - 1) * (m - 1) + (i - 1)


def build_tri_mesh(rect: Rectangle, n: int) -> TriMesh:
    """Triangulate ``rect`` with an n x n grid of cells, two triangles each."""
    if n < 1:
        raise ValueError("need at least one cell per side")
    xs = np.linspace(rect.x0, rect.x1, n + 1)
    ys = np.linspace(rect.y0, rect.y1, n + 1)
    xx, yy = np.meshgrid(xs, ys)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j) in row-major order: lower-left node, then its two triangles
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    ll = j * (n + 1) + i
    lr, ul, ur = ll + 1, ll + n + 1, ll + n + 2
    tris = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(2 * n * n, 3)

    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    boundary = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)
    return TriMesh(rect, n, nodes, tris, boundary.ravel())


def build_fd_grid(rect: Rectangle, m: int) -> FdGrid:
    """Uniform square grid of width side/m; validation happens in FdGrid."""
    return FdGrid(rect, m)
