import numpy as np
import pytest

from dampedwave.fem import (
    FemSpace,
    ScalarField,
    ZERO_FIELD,
    assemble_mass,
    assemble_stiffness,
    constant_field,
    elliptic_project,
    error_norms,
    field_h1_seminorm,
    field_l2_norm,
    interpolate,
    l2_project,
    load_vector,
)
from dampedwave.mesh import TriMesh, UNIT_SQUARE, build_tri_mesh
from dampedwave.sparse import cg_solve


def sine_product():
    return ScalarField(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        grad=lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                           np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)),
    )


def all_free_space(n):
    """FemSpace over the full node set, for pre-elimination matrix checks."""
    mesh = build_tri_mesh(UNIT_SQUARE, n)
    free = TriMesh(mesh.rect, mesh.n_per_side, mesh.nodes, mesh.triangles,
                   np.zeros(mesh.n_nodes, dtype=bool))
    return FemSpace(free)


def single_triangle_space(h):
    nodes = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
    tris = np.array([[0, 1, 2]])
    mesh = TriMesh(UNIT_SQUARE, 1, nodes, tris, np.zeros(3, dtype=bool))
    return FemSpace(mesh)


def test_element_mass_matrix():
    h = 0.5
    space = single_triangle_space(h)
    m = assemble_mass(space).to_dense()
    ref = h * h / 24.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(m, ref, atol=1e-15)


def test_element_stiffness_matrix():
    space = single_triangle_space(0.5)
    k = assemble_stiffness(space).to_dense()
    ref = 0.5 * np.array([[2.0, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    assert np.allclose(k, ref, atol=1e-15)


def test_mass_partition_of_unity():
    space = all_free_space(6)
    m = assemble_mass(space)
    row_sums = m.matvec(np.ones(m.dim))
    # each row sum is the integral of a hat function; the total is the area
    assert row_sums.sum() == pytest.approx(1.0, rel=1e-13)
    assert np.all(row_sums > 0)


def test_stiffness_annihilates_constants():
    space = all_free_space(5)
    k = assemble_stiffness(space)
    assert np.max(np.abs(k.matvec(np.ones(k.dim)))) < 1e-13


def test_constant_weight_scales_matrices():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 6))
    c = 2.5
    m = assemble_mass(space).to_dense()
    mw = assemble_mass(space, constant_field(c)).to_dense()
    assert np.allclose(mw, c * m, rtol=1e-14)
    k = assemble_stiffness(space).to_dense()
    kw = assemble_stiffness(space, constant_field(c)).to_dense()
    assert np.allclose(kw, c * k, rtol=1e-14)


def test_weight_must_be_positive():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 4))
    with pytest.raises(ValueError):
        assemble_mass(space, constant_field(-1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weight_must_be_finite(bad):
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 4))
    for assemble in (assemble_mass, assemble_stiffness):
        with pytest.raises(ValueError, match="finite"):
            assemble(space, constant_field(bad))


def test_assembled_matrices_are_symmetric():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    for a in (assemble_mass(space), assemble_stiffness(space)):
        d = a.to_dense()
        assert np.allclose(d, d.T, atol=1e-15)
        assert np.all(np.linalg.eigvalsh(d) > 0)


def test_load_vector_of_zero():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 4))
    assert np.array_equal(load_vector(space, ZERO_FIELD), np.zeros(space.n_dofs))


def test_interpolate_center_value():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 4))
    vals = interpolate(space, sine_product())
    nodes = space.mesh.nodes[space.free_dofs]
    center = np.flatnonzero((nodes[:, 0] == 0.5) & (nodes[:, 1] == 0.5))[0]
    assert vals[center] == pytest.approx(1.0)


def test_load_is_mass_times_interpolant_for_p1_data():
    # with f already piecewise linear the quadrature is exact, so b = M f
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 5))
    hat = np.zeros(space.n_dofs)
    hat[3] = 1.0
    full = space.extend(hat)
    nodes = space.mesh.nodes

    def fn(x, y):
        # evaluate the P1 function by barycentric interpolation on the grid
        fx = np.asarray(x) * 5
        fy = np.asarray(y) * 5
        i = np.clip(np.floor(fx).astype(int), 0, 4)
        j = np.clip(np.floor(fy).astype(int), 0, 4)
        lx, ly = fx - i, fy - j
        # cells are split along the lower-left to upper-right diagonal
        upper = ly > lx
        n00 = full[j * 6 + i]
        n10 = full[j * 6 + i + 1]
        n01 = full[(j + 1) * 6 + i]
        n11 = full[(j + 1) * 6 + i + 1]
        lower_val = n00 * (1 - lx) + n10 * (lx - ly) + n11 * ly
        upper_val = n00 * (1 - ly) + n11 * lx + n01 * (ly - lx)
        return np.where(upper, upper_val, lower_val)

    b = load_vector(space, ScalarField(fn))
    m = assemble_mass(space)
    assert np.allclose(b, m.matvec(hat), atol=1e-14)
    del nodes


def test_interpolation_error_second_order():
    u = sine_product()
    errs = []
    for n in (8, 16, 32):
        space = FemSpace(build_tri_mesh(UNIT_SQUARE, n))
        uh = interpolate(space, u)
        l2, _, _ = error_norms(space, uh, u)
        errs.append(l2)
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 1.9)


def test_l2_projection_reproduces_members():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 5))
    # project the nodal interpolant of a smooth field: since quadrature
    # against P1 data is exact, any P1 function is a fixed point
    rng = np.random.default_rng(23)
    coeffs = rng.normal(size=space.n_dofs)
    m = assemble_mass(space)
    b = m.matvec(coeffs)
    p, _ = cg_solve(m, b, space.basis.solver(space.basis.symbol(m)))
    assert np.allclose(p, coeffs, atol=1e-9)


def test_l2_projection_zero():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 4))
    assert np.allclose(l2_project(space, ZERO_FIELD), 0.0)


def test_l2_projection_converges_to_interpolant():
    u = sine_product()
    dists = []
    for n in (8, 16, 32):
        space = FemSpace(build_tri_mesh(UNIT_SQUARE, n))
        p = l2_project(space, u)
        diff = p - interpolate(space, u)
        m = assemble_mass(space)
        dists.append(np.sqrt(diff @ m.matvec(diff)))
    slopes = np.log2(np.array(dists[:-1]) / np.array(dists[1:]))
    assert np.all(slopes >= 1.9)


def test_elliptic_projection_rates():
    u = sine_product()
    l2s, h1s = [], []
    for n in (8, 16, 32):
        space = FemSpace(build_tri_mesh(UNIT_SQUARE, n))
        p = elliptic_project(space, u)
        l2, _, h1 = error_norms(space, p, u)
        l2s.append(l2)
        h1s.append(h1)
    l2_slopes = np.log2(np.array(l2s[:-1]) / np.array(l2s[1:]))
    h1_slopes = np.log2(np.array(h1s[:-1]) / np.array(h1s[1:]))
    assert np.all(l2_slopes >= 1.9)
    assert np.all(h1_slopes >= 0.9)


def test_elliptic_projection_requires_gradient():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 4))
    with pytest.raises(ValueError):
        elliptic_project(space, ScalarField(lambda x, y: x * y))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_elliptic_projection_rejects_a_non_finite_gradient(bad):
    # the division by K's symbol would return NaN silently
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 4))

    def grad(x, y):
        gx = np.where(x > 0.5, bad, 1.0)
        return gx, np.zeros_like(gx)

    with pytest.raises(ValueError, match="finite gradient"):
        elliptic_project(space, ScalarField(lambda x, y: x, grad))


def test_error_norms_of_interpolant():
    u = sine_product()
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 16))
    uh = interpolate(space, u)
    l2, linf, h1 = error_norms(space, uh, u)
    # interpolant is exact at nodes, up to sin(pi) rounding on the boundary
    assert linf <= 1e-15
    assert 0 < l2 < 0.01
    assert l2 < h1


def test_error_norm_of_zero_solution():
    # the L2 "error" of U = 0 is just ||u||, which tends to 1/2
    u = sine_product()
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 32))
    l2, _, _ = error_norms(space, np.zeros(space.n_dofs), u)
    assert l2 == pytest.approx(0.5, abs=1e-3)


def test_field_norms_against_analytic_values():
    u = sine_product()
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 48))
    assert field_l2_norm(space, u) == pytest.approx(0.5, abs=1e-4)
    # |u|_1^2 = pi^2/2 for the first Dirichlet eigenfunction
    assert field_h1_seminorm(space, u) == pytest.approx(np.pi / np.sqrt(2), rel=1e-4)
