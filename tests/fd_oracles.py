"""Independent oracles for the 5-point finite difference backend.

Each is written from the layout in ``FdGrid``'s docstring and the stencil's
definition, not from the package's ``FdOperator.assemble`` or ``SineBasis``,
so that tests can check those against them.
"""

import numpy as np


def flat_index(grid, i, j):
    """The position of the interior node (ih, jh), 1 <= i, j <= M-1, among the
    unknowns: rows of constant j, x fastest."""
    m = grid.n_per_side
    return (j - 1) * (m - 1) + (i - 1)


def stencil_apply(grid, v):
    """Matrix-free stencil action (4v - sum of neighbors)/h^2, zero extension:
    the sum of five terms, then one division by h^2."""
    n1 = grid.n_per_side - 1
    w = np.zeros((n1 + 2, n1 + 2))
    w[1:-1, 1:-1] = v.reshape(n1, n1)
    out = (4.0 * w[1:-1, 1:-1] - w[:-2, 1:-1] - w[2:, 1:-1]
           - w[1:-1, :-2] - w[1:-1, 2:]) / grid.h ** 2
    return out.ravel()


def sine_mode(grid, p, q):
    """Nodal sine mode sin(p pi x / L) sin(q pi y / L) on the interior unknowns."""
    x, y = grid.interior_coords()
    side = grid.side
    return np.sin(p * np.pi * (x - grid.rect.x0) / side) * \
        np.sin(q * np.pi * (y - grid.rect.y0) / side)
