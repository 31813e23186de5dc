import numpy as np
import pytest

from dampedwave.fdm import FdOperator, fd_eigenvalue, fd_norms
from dampedwave.mesh import PI_SQUARE, UNIT_SQUARE, build_fd_grid
from dampedwave.sparse import SparseMatrix
from fd_oracles import flat_index, sine_mode, stencil_apply


def test_sine_modes_are_eigenvectors():
    grid = build_fd_grid(UNIT_SQUARE, 12)
    for p, q in ((1, 1), (2, 3), (5, 4), (11, 1)):
        v = sine_mode(grid, p, q)
        lam = fd_eigenvalue(grid, p, q)
        assert np.max(np.abs(stencil_apply(grid, v) - lam * v)) < 1e-11 * lam


@pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (-1, 1), (12, 1), (1, 12)])
def test_modes_that_vanish_on_the_grid_are_rejected(p, q):
    # only 1 <= p, q <= M - 1 give a nonzero mode on the M = 12 grid
    grid = build_fd_grid(UNIT_SQUARE, 12)
    with pytest.raises(ValueError, match="is zero on a grid of M = 12"):
        fd_eigenvalue(grid, p, q)


def test_constant_vector_vanishes_deep_inside():
    grid = build_fd_grid(UNIT_SQUARE, 32)
    v = np.ones(grid.n_interior)
    out = FdOperator(grid).assemble().matvec(v)
    # away from the boundary the stencil sees only the constant
    assert out[flat_index(grid, 16, 16)] == pytest.approx(0.0, abs=1e-12)
    # next to the boundary the missing neighbor leaves 1/h^2
    assert out[flat_index(grid, 1, 16)] == pytest.approx(1.0 / grid.h ** 2)


def test_matrix_free_equals_assembled():
    grid = build_fd_grid(UNIT_SQUARE, 9)
    a = FdOperator(grid).assemble()
    rng = np.random.default_rng(41)
    v = rng.normal(size=grid.n_interior)
    # Each side sums 5 terms per row; with u = eps/2, in any summation order:
    # stencil_apply rounds 4 times in the sum and once in the division by
    # h^2, so it is within 5u (|A| |v|)_i of the exact row; matvec rounds
    # once in each stored entry (4/h^2, -1/h^2), once in each product and 4
    # times in the sum, so it is within 6u. The difference is within
    # 11u = 5.5 eps to first order, and 6 eps also covers the O(u^2) terms.
    abs_a = SparseMatrix(a.cols, np.abs(a.vals))
    bound = 6.0 * np.finfo(float).eps * abs_a.matvec(np.abs(v))
    assert np.all(np.abs(stencil_apply(grid, v) - a.matvec(v)) <= bound)


def test_gram_matrix_is_scaled_laplacian():
    grid = build_fd_grid(PI_SQUARE, 6)
    op = FdOperator(grid)
    g = op.gram_matrix().to_dense()
    a = op.assemble().to_dense()
    assert np.allclose(g, grid.h ** 2 * a, rtol=1e-14)
    m = op.mass_matrix().to_dense()
    assert np.allclose(m, grid.h ** 2 * np.eye(grid.n_interior))


def test_fd_norms_zero():
    grid = build_fd_grid(UNIT_SQUARE, 4)
    assert fd_norms(grid, np.zeros(grid.n_interior)) == (0.0, 0.0)


def test_fd_norms_single_node():
    grid = build_fd_grid(UNIT_SQUARE, 2)
    l2h, h1h = fd_norms(grid, np.array([1.0]))
    assert l2h == pytest.approx(0.5)
    # four forward differences of size 1/h each: h^2 * 4 / h^2 = 4
    assert h1h == pytest.approx(2.0)


def test_fd_norms_green_identity():
    grid = build_fd_grid(UNIT_SQUARE, 10)
    rng = np.random.default_rng(101)
    v = rng.normal(size=grid.n_interior)
    _, h1h = fd_norms(grid, v)
    quad = grid.h ** 2 * float(v @ stencil_apply(grid, v))
    assert abs(quad - h1h ** 2) <= 1e-12 * h1h ** 2


def test_eigenvalue_closed_form_values():
    grid = build_fd_grid(UNIT_SQUARE, 8)
    lam = fd_eigenvalue(grid, 1, 1)
    h = grid.h
    assert lam == pytest.approx(8.0 / h ** 2 * np.sin(np.pi * h / 2) ** 2)
    assert lam < 2 * np.pi ** 2  # FD eigenvalues approach from below

    grid_pi = build_fd_grid(PI_SQUARE, 8)
    assert fd_eigenvalue(grid_pi, 1, 1) < 2.0
    assert fd_eigenvalue(grid_pi, 1, 1) == pytest.approx(2.0, abs=0.05)
