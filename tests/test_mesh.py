import numpy as np
import pytest

from dampedwave.mesh import (
    FdGrid,
    PI_SQUARE,
    Rectangle,
    UNIT_SQUARE,
    build_fd_grid,
    build_tri_mesh,
)
from fd_oracles import flat_index


def test_single_cell_mesh_counts():
    mesh = build_tri_mesh(UNIT_SQUARE, 1)
    assert mesh.n_nodes == 4
    assert mesh.n_triangles == 2
    assert mesh.boundary_mask.all()


def test_two_by_two_mesh_counts():
    mesh = build_tri_mesh(UNIT_SQUARE, 2)
    assert mesh.n_nodes == 9
    assert mesh.n_triangles == 8
    assert np.count_nonzero(~mesh.boundary_mask) == 1
    # the single interior node sits at the center
    interior = mesh.nodes[~mesh.boundary_mask]
    assert np.allclose(interior, [[0.5, 0.5]])


def test_signed_areas_uniform():
    mesh = build_tri_mesh(UNIT_SQUARE, 4)
    areas = mesh.signed_areas()
    assert np.allclose(areas, 1.0 / 32.0)
    assert np.all(areas > 0)


def test_mesh_on_pi_square():
    mesh = build_tri_mesh(PI_SQUARE, 8)
    assert mesh.h == pytest.approx(np.pi / 8)
    assert mesh.signed_areas().sum() == pytest.approx(np.pi ** 2)


def test_node_ordering_is_lexicographic():
    mesh = build_tri_mesh(UNIT_SQUARE, 2)
    assert np.allclose(mesh.nodes[0], [0.0, 0.0])
    assert np.allclose(mesh.nodes[1], [0.5, 0.0])
    assert np.allclose(mesh.nodes[3], [0.0, 0.5])


def test_fd_grid_interior_counts():
    assert build_fd_grid(UNIT_SQUARE, 2).n_interior == 1
    assert build_fd_grid(UNIT_SQUARE, 4).n_interior == 9


def test_fd_grid_spacing_pi_square():
    grid = build_fd_grid(PI_SQUARE, 8)
    assert grid.h == pytest.approx(np.pi / 8)
    assert grid.side == pytest.approx(np.pi)


def test_fd_flat_index_matches_coords():
    grid = build_fd_grid(UNIT_SQUARE, 4)
    x, y = grid.interior_coords()
    for j in range(1, 4):
        for i in range(1, 4):
            flat = flat_index(grid, i, j)
            assert x[flat] == pytest.approx(i * grid.h)
            assert y[flat] == pytest.approx(j * grid.h)


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 2.0, 2.0)


def test_fd_grid_requires_square():
    with pytest.raises(ValueError):
        build_fd_grid(Rectangle(0.0, 2.0, 0.0, 1.0), 4)


def test_mesh_needs_positive_subdivisions():
    with pytest.raises(ValueError):
        build_tri_mesh(UNIT_SQUARE, 0)
    with pytest.raises(ValueError):
        build_fd_grid(UNIT_SQUARE, 1)
