"""5-point finite difference backend on square domains with homogeneous
Dirichlet data: discrete Laplacian, lumped h^2 mass, and discrete norms."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mesh import FdGrid
from .sparse import SparseMatrix, from_coo, from_diagonal


@dataclass(frozen=True)
class FdOperator:
    """Discrete Laplacian on the interior unknowns of a square grid, assembled
    as a sparse matrix. The companion mass matrix is h^2 * I.
    """

    grid: FdGrid

    def assemble(self) -> SparseMatrix:
        m = self.grid.n_per_side
        n1 = m - 1
        h2 = self.grid.h ** 2
        rows, cols, vals = [], [], []
        idx = np.arange(n1 * n1).reshape(n1, n1)
        rows.append(idx.ravel())
        cols.append(idx.ravel())
        vals.append(np.full(n1 * n1, 4.0 / h2))
        for shift_rows, shift_cols in (
            (idx[:, 1:], idx[:, :-1]),   # west neighbor
            (idx[:, :-1], idx[:, 1:]),   # east neighbor
            (idx[1:, :], idx[:-1, :]),   # south neighbor
            (idx[:-1, :], idx[1:, :]),   # north neighbor
        ):
            rows.append(shift_rows.ravel())
            cols.append(shift_cols.ravel())
            vals.append(np.full(shift_rows.size, -1.0 / h2))
        return from_coo(np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals), n1 * n1)

    def gram_matrix(self) -> SparseMatrix:
        """h^2 * A_h: the matrix of the bilinear form <A_h v, w> in the
        discrete L2 inner product. Pairs with mass_matrix() as an SPD pencil
        whose generalized eigenvalues are those of A_h itself."""
        a = self.assemble()
        return replace(a, vals=a.vals * self.grid.h ** 2)

    def mass_matrix(self) -> SparseMatrix:
        return from_diagonal(np.full(self.grid.n_interior, self.grid.h ** 2))


def fd_norms(grid: FdGrid, v: np.ndarray) -> tuple[float, float]:
    """Discrete L2 and H1 norms: (h^2 sum v^2)^(1/2) and the forward-difference
    gradient norm with zero extension outside the domain."""
    h = grid.h
    l2h = h * float(np.linalg.norm(v))
    m = grid.n_per_side
    w = np.zeros((m + 1, m + 1))
    w[1:m, 1:m] = v.reshape(m - 1, m - 1)
    dx = (w[:, 1:] - w[:, :-1]) / h
    dy = (w[1:, :] - w[:-1, :]) / h
    h1h = np.sqrt(h * h * (np.sum(dx * dx) + np.sum(dy * dy)))
    return l2h, float(h1h)


def fd_eigenvalue(grid: FdGrid, p: int, q: int) -> float:
    """Closed-form 5-point eigenvalue (4/h^2)(sin^2 + sin^2) for mode (p, q);
    ValueError unless 1 <= p, q <= M - 1, where the mode is not zero."""
    if not (0 < p < grid.n_per_side and 0 < q < grid.n_per_side):
        raise ValueError(f"mode ({p}, {q}) is zero on a grid of M = {grid.n_per_side}")
    h, side = grid.h, grid.side
    s = np.sin(p * np.pi * h / (2.0 * side)) ** 2 + np.sin(q * np.pi * h / (2.0 * side)) ** 2
    return 4.0 / h ** 2 * float(s)
