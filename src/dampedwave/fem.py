"""P1 finite elements on structured triangulations: assembly, projections,
and quadrature-based error norms.

All integrals use the 3-point edge-midpoint rule, which is exact for
quadratics and therefore exact for P1 mass and stiffness with constant
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .mesh import TriMesh
from .sparse import SineBasis, SparseMatrix, cg_solve, from_coo


@dataclass(frozen=True)
class ScalarField:
    """Callable field f(x, y) with an optional analytic gradient.

    Both callables must accept numpy arrays and broadcast.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __call__(self, x, y):
        return self.fn(x, y)


def constant_field(c: float) -> ScalarField:
    return ScalarField(lambda x, y, c=c: np.full_like(np.asarray(x, dtype=float), c),
                       grad=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2)


ZERO_FIELD = constant_field(0.0)


class FemSpace:
    """P1 space with homogeneous Dirichlet conditions handled by elimination."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.free_dofs = np.flatnonzero(~mesh.boundary_mask)
        self.n_dofs = self.free_dofs.size
        if not self.n_dofs:
            raise ValueError("mesh has no interior node, so no unknowns")
        self._node_to_free = np.full(mesh.n_nodes, -1, dtype=np.int64)
        self._node_to_free[self.free_dofs] = np.arange(self.n_dofs)

    @cached_property
    def basis(self) -> SineBasis:
        """The sine basis of the unknowns: the interior nodes of the mesh form
        an (N-1) x (N-1) grid, stored row by row with x fastest."""
        return SineBasis(self.mesh.n_per_side - 1)

    @cached_property
    def geometry(self):
        """Per-triangle areas, constant shape gradients, and edge midpoints."""
        p = self.mesh.nodes[self.mesh.triangles]  # (nt, 3, 2)
        area = self.mesh.signed_areas()
        if np.any(area <= 0):
            raise ValueError("degenerate or misoriented triangle in mesh")
        # grad phi_i = rot90(opposite edge) / (2 A)
        e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]  # e[:, i] is the edge opposite vertex i
        grads = np.stack([-e[..., 1], e[..., 0]], axis=2) / (2.0 * area)[:, None, None]
        mids = 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])  # midpoint opposite vertex q
        return area, grads, mids

    def scatter(self, contrib: np.ndarray) -> np.ndarray:
        """Per-triangle vertex contributions (nt, 3) summed at the free dofs."""
        full = np.zeros(self.mesh.n_nodes)
        np.add.at(full, self.mesh.triangles.ravel(), contrib.ravel())
        return full[self.free_dofs]

    def extend(self, free: np.ndarray) -> np.ndarray:
        """Free-dof vector to all-node vector with zero boundary values."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.free_dofs] = free
        return full


# values of the three hat functions at the three opposite-edge midpoints
_PHI_AT_MID = 0.5 * (1.0 - np.eye(3))


def at_midpoints(space: FemSpace, f: ScalarField) -> np.ndarray:
    """f at (e, q): the midpoint of triangle e's edge opposite vertex q."""
    mids = space.geometry[2]
    return np.asarray(f(mids[:, :, 0], mids[:, :, 1]), dtype=float)


def grad_at_midpoints(space: FemSpace, f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """The analytic gradient (f_x, f_y) of f at the quadrature points."""
    if f.grad is None:
        raise ValueError("field has no analytic gradient")
    mids = space.geometry[2]
    gx, gy = f.grad(mids[:, :, 0], mids[:, :, 1])
    return np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)


def midpoint_sum(space: FemSpace, values: np.ndarray) -> float:
    """The integral of a function given at the midpoints: sum (A_e/3) values[e, q]."""
    return np.einsum("e,eq->", space.geometry[0] / 3.0, values)


def _weight_at_mids(space: FemSpace, weight: ScalarField | None) -> np.ndarray:
    if weight is None:
        return np.ones((space.mesh.n_triangles, 3))
    w = at_midpoints(space, weight)
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weight field must be finite and strictly positive "
                         "on the domain")
    return w


def _assemble(space: FemSpace, element: np.ndarray) -> SparseMatrix:
    """Scatter per-element 3x3 blocks into a free-dof sparse matrix."""
    tris = space.mesh.triangles
    fmap = space._node_to_free
    rows = np.repeat(fmap[tris], 3, axis=1).ravel()
    cols = np.tile(fmap[tris], (1, 3)).ravel()
    vals = element.reshape(element.shape[0], 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return from_coo(rows[keep], cols[keep], vals[keep], space.n_dofs)


def assemble_mass(space: FemSpace, weight: ScalarField | None = None) -> SparseMatrix:
    """Weighted mass matrix M_ij = int w phi_i phi_j over the free dofs."""
    area = space.geometry[0]
    w = _weight_at_mids(space, weight)
    phi = _PHI_AT_MID
    # element[e, i, j] = sum_q (A_e / 3) w(m_q) phi_i(m_q) phi_j(m_q)
    element = np.einsum("e,eq,qi,qj->eij", area / 3.0, w, phi, phi)
    return _assemble(space, element)


def assemble_stiffness(space: FemSpace, weight: ScalarField | None = None) -> SparseMatrix:
    """Weighted stiffness K_ij = int w grad phi_i . grad phi_j over free dofs."""
    area, grads, _ = space.geometry
    w = _weight_at_mids(space, weight)
    gg = np.einsum("eid,ejd->eij", grads, grads)
    element = (area / 3.0 * w.sum(axis=1))[:, None, None] * gg
    return _assemble(space, element)


def load_vector(space: FemSpace, f: ScalarField) -> np.ndarray:
    """b_i = int f phi_i by edge-midpoint quadrature, restricted to free dofs."""
    contrib = np.einsum("e,eq,qi->ei", space.geometry[0] / 3.0,
                        at_midpoints(space, f), _PHI_AT_MID)
    return space.scatter(contrib)


def interpolate(space: FemSpace, f: ScalarField) -> np.ndarray:
    """Nodal interpolant at the free dofs (boundary values implicitly zero)."""
    nodes = space.mesh.nodes[space.free_dofs]
    return np.asarray(f(nodes[:, 0], nodes[:, 1]), dtype=float)


def l2_project(space: FemSpace, f: ScalarField) -> np.ndarray:
    """Solve M p = (f, phi_i) for the L2 projection of f, by CG
    preconditioned in the sine basis."""
    mass, basis = assemble_mass(space), space.basis
    p, _ = cg_solve(mass, load_vector(space, f), basis.solver(basis.symbol(mass)))
    return p


def elliptic_project(space: FemSpace, u: ScalarField) -> np.ndarray:
    """Solve K p = (grad u, grad phi_i) by the division by K's symbol in the
    sine basis, which is K^-1; requires a finite analytic gradient."""
    ux, uy = grad_at_midpoints(space, u)
    if not np.all(np.isfinite(ux) & np.isfinite(uy)):
        raise ValueError("elliptic projection requires a finite gradient")
    area, grads, _ = space.geometry
    # grad phi_i is constant per element: b_i += (A/3) sum_q grad u(m_q) . g_i
    contrib = (area / 3.0)[:, None] * (
        ux.sum(axis=1)[:, None] * grads[:, :, 0]
        + uy.sum(axis=1)[:, None] * grads[:, :, 1]
    )
    stiff, basis = assemble_stiffness(space), space.basis
    return basis.solver(basis.symbol(stiff))(space.scatter(contrib))


def error_norms(space: FemSpace, u_h: np.ndarray,
                exact: ScalarField) -> tuple[float, float, float]:
    """(L2, Linf, H1) errors of the free-dof vector against an exact field.

    L2 and the H1 gradient part use edge-midpoint quadrature; Linf is the
    nodal maximum over all mesh nodes (boundary included, where u_h = 0).
    """
    full = space.extend(u_h)
    tri_vals = full[space.mesh.triangles]  # (nt, 3)
    uh_mid = tri_vals @ _PHI_AT_MID.T  # value at midpoint q
    e = at_midpoints(space, exact) - uh_mid
    l2 = np.sqrt(midpoint_sum(space, e * e))

    linf = float(np.max(np.abs(exact(*space.mesh.nodes.T) - full)))

    ex_gx, ex_gy = grad_at_midpoints(space, exact)
    grads = space.geometry[1]
    gx = ex_gx - np.einsum("ei,ei->e", tri_vals, grads[:, :, 0])[:, None]
    gy = ex_gy - np.einsum("ei,ei->e", tri_vals, grads[:, :, 1])[:, None]
    semi_sq = midpoint_sum(space, gx * gx + gy * gy)
    h1 = np.sqrt(l2 * l2 + semi_sq)
    return float(l2), linf, float(h1)


def field_l2_norm(space: FemSpace, f: ScalarField) -> float:
    """Quadrature L2 norm of an analytic field over the mesh."""
    fv = at_midpoints(space, f)
    return float(np.sqrt(midpoint_sum(space, fv * fv)))


def field_h1_seminorm(space: FemSpace, f: ScalarField) -> float:
    """Quadrature H1 seminorm of a field with an analytic gradient."""
    gx, gy = grad_at_midpoints(space, f)
    return float(np.sqrt(midpoint_sum(space, gx * gx + gy * gy)))
