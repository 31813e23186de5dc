"""P1 finite elements on structured triangulations: assembly, projections,
and quadrature-based error norms.

All integrals use the 3-point edge-midpoint rule, which is exact for
quadratics and therefore exact for P1 mass and stiffness with constant
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import TriMesh
from .sparse import SparseMatrix, cg_solve, from_coo


@dataclass(frozen=True)
class ScalarField:
    """Callable field f(x, y) with an optional analytic gradient.

    Both callables must accept numpy arrays and broadcast.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __call__(self, x, y):
        return self.fn(x, y)


ZERO_FIELD = ScalarField(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                         grad=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2)


def constant_field(c: float) -> ScalarField:
    return ScalarField(lambda x, y, c=c: np.full_like(np.asarray(x, dtype=float), c),
                       grad=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2)


class FemSpace:
    """P1 space with homogeneous Dirichlet conditions handled by elimination."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.free_dofs = np.flatnonzero(~mesh.boundary_mask)
        self.n_dofs = self.free_dofs.size
        self._node_to_free = np.full(mesh.n_nodes, -1, dtype=np.int64)
        self._node_to_free[self.free_dofs] = np.arange(self.n_dofs)
        self._geom = None

    def geometry(self):
        """Per-triangle areas, constant shape gradients, and edge midpoints."""
        if self._geom is None:
            p = self.mesh.nodes[self.mesh.triangles]  # (nt, 3, 2)
            area = self.mesh.signed_areas()
            if np.any(area <= 0):
                raise ValueError("degenerate or misoriented triangle in mesh")
            # grad phi_i = rot90(opposite edge) / (2 A)
            e0 = p[:, 2] - p[:, 1]
            e1 = p[:, 0] - p[:, 2]
            e2 = p[:, 1] - p[:, 0]
            grads = np.stack([
                np.stack([-e0[:, 1], e0[:, 0]], axis=1),
                np.stack([-e1[:, 1], e1[:, 0]], axis=1),
                np.stack([-e2[:, 1], e2[:, 0]], axis=1),
            ], axis=1) / (2.0 * area)[:, None, None]
            mids = 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])  # midpoint opposite vertex q
            self._geom = (area, grads, mids)
        return self._geom

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return full[self.free_dofs]

    def extend(self, free: np.ndarray) -> np.ndarray:
        """Free-dof vector to all-node vector with zero boundary values."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.free_dofs] = free
        return full


# values of the three hat functions at the three opposite-edge midpoints
_PHI_AT_MID = 0.5 * (1.0 - np.eye(3))


def _weight_at_mids(space: FemSpace, weight: ScalarField | None) -> np.ndarray:
    area, _, mids = space.geometry()
    if weight is None:
        return np.ones((area.size, 3))
    w = np.asarray(weight(mids[:, :, 0], mids[:, :, 1]), dtype=float)
    if np.any(w <= 0):
        raise ValueError("weight field must be strictly positive on the domain")
    return w


def _assemble(space: FemSpace, element: np.ndarray) -> SparseMatrix:
    """Scatter per-element 3x3 blocks into a free-dof CSR matrix."""
    tris = space.mesh.triangles
    fmap = space._node_to_free
    rows = np.repeat(fmap[tris], 3, axis=1).ravel()
    cols = np.tile(fmap[tris], (1, 3)).ravel()
    vals = element.reshape(element.shape[0], 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return from_coo(rows[keep], cols[keep], vals[keep], space.n_dofs,
                    drop_tol=1e-300)


def assemble_mass(space: FemSpace, weight: ScalarField | None = None) -> SparseMatrix:
    """Weighted mass matrix M_ij = int w phi_i phi_j over the free dofs."""
    area, _, _ = space.geometry()
    w = _weight_at_mids(space, weight)
    phi = _PHI_AT_MID
    # element[e, i, j] = sum_q (A_e / 3) w(m_q) phi_i(m_q) phi_j(m_q)
    element = np.einsum("e,eq,qi,qj->eij", area / 3.0, w, phi, phi)
    return _assemble(space, element)


def assemble_stiffness(space: FemSpace, weight: ScalarField | None = None) -> SparseMatrix:
    """Weighted stiffness K_ij = int w grad phi_i . grad phi_j over free dofs."""
    area, grads, _ = space.geometry()
    w = _weight_at_mids(space, weight)
    gg = np.einsum("eid,ejd->eij", grads, grads)
    element = (area / 3.0 * w.sum(axis=1))[:, None, None] * gg
    return _assemble(space, element)


def load_vector(space: FemSpace, f: ScalarField) -> np.ndarray:
    """b_i = int f phi_i by edge-midpoint quadrature, restricted to free dofs."""
    area, _, mids = space.geometry()
    fv = np.asarray(f(mids[:, :, 0], mids[:, :, 1]), dtype=float)
    contrib = np.einsum("e,eq,qi->ei", area / 3.0, fv, _PHI_AT_MID)
    full = np.zeros(space.mesh.n_nodes)
    np.add.at(full, space.mesh.triangles.ravel(), contrib.ravel())
    return space.restrict(full)


def interpolate(space: FemSpace, f: ScalarField) -> np.ndarray:
    """Nodal interpolant at the free dofs (boundary values implicitly zero)."""
    nodes = space.mesh.nodes[space.free_dofs]
    return np.asarray(f(nodes[:, 0], nodes[:, 1]), dtype=float)


def l2_project(space: FemSpace, f: ScalarField,
               mass: SparseMatrix | None = None) -> np.ndarray:
    """Solve M p = (f, phi_i) for the L2 projection of f."""
    m = assemble_mass(space) if mass is None else mass
    b = load_vector(space, f)
    p, _ = cg_solve(m, b, rtol=1e-12, max_iter=50 * space.n_dofs)
    return p


def elliptic_project(space: FemSpace, u: ScalarField,
                     stiffness: SparseMatrix | None = None) -> np.ndarray:
    """Solve K p = (grad u, grad phi_i); requires an analytic gradient."""
    if u.grad is None:
        raise ValueError("elliptic projection needs an analytic gradient")
    k = assemble_stiffness(space) if stiffness is None else stiffness
    area, grads, mids = space.geometry()
    ux, uy = u.grad(mids[:, :, 0], mids[:, :, 1])
    ux = np.asarray(ux, dtype=float)
    uy = np.asarray(uy, dtype=float)
    # grad phi_i is constant per element: b_i += (A/3) sum_q grad u(m_q) . g_i
    contrib = (area / 3.0)[:, None] * (
        ux.sum(axis=1)[:, None] * grads[:, :, 0]
        + uy.sum(axis=1)[:, None] * grads[:, :, 1]
    )
    full = np.zeros(space.mesh.n_nodes)
    np.add.at(full, space.mesh.triangles.ravel(), contrib.ravel())
    b = space.restrict(full)
    p, _ = cg_solve(k, b, rtol=1e-12, max_iter=50 * space.n_dofs)
    return p


def error_norms(space: FemSpace, u_h: np.ndarray,
                exact: ScalarField) -> tuple[float, float, float]:
    """(L2, Linf, H1) errors of the free-dof vector against an exact field.

    L2 and the H1 gradient part use edge-midpoint quadrature; Linf is the
    nodal maximum over all mesh nodes (boundary included, where u_h = 0).
    """
    area, grads, mids = space.geometry()
    full = space.extend(u_h)
    tri_vals = full[space.mesh.triangles]  # (nt, 3)
    uh_mid = tri_vals @ _PHI_AT_MID.T  # value at midpoint q
    ex_mid = np.asarray(exact(mids[:, :, 0], mids[:, :, 1]), dtype=float)
    e = ex_mid - uh_mid
    l2 = np.sqrt(np.einsum("e,eq->", area / 3.0, e * e))

    nodes = space.mesh.nodes
    linf = float(np.max(np.abs(np.asarray(exact(nodes[:, 0], nodes[:, 1]), dtype=float)
                               - full)))

    if exact.grad is None:
        raise ValueError("H1 error needs an analytic gradient")
    ex_gx, ex_gy = exact.grad(mids[:, :, 0], mids[:, :, 1])
    uh_gx = np.einsum("ei,ei->e", tri_vals, grads[:, :, 0])[:, None]
    uh_gy = np.einsum("ei,ei->e", tri_vals, grads[:, :, 1])[:, None]
    gx = np.asarray(ex_gx, dtype=float) - uh_gx
    gy = np.asarray(ex_gy, dtype=float) - uh_gy
    semi_sq = np.einsum("e,eq->", area / 3.0, gx * gx + gy * gy)
    h1 = np.sqrt(l2 * l2 + semi_sq)
    return float(l2), linf, float(h1)


def field_l2_norm(space: FemSpace, f: ScalarField) -> float:
    """Quadrature L2 norm of an analytic field over the mesh."""
    area, _, mids = space.geometry()
    fv = np.asarray(f(mids[:, :, 0], mids[:, :, 1]), dtype=float)
    return float(np.sqrt(np.einsum("e,eq->", area / 3.0, fv * fv)))


def field_h1_seminorm(space: FemSpace, f: ScalarField) -> float:
    if f.grad is None:
        raise ValueError("H1 seminorm needs an analytic gradient")
    area, _, mids = space.geometry()
    gx, gy = f.grad(mids[:, :, 0], mids[:, :, 1])
    gx = np.asarray(gx, dtype=float)
    gy = np.asarray(gy, dtype=float)
    return float(np.sqrt(np.einsum("e,eq->", area / 3.0, gx * gx + gy * gy)))
