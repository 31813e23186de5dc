import math
import warnings

import numpy as np
import pytest

from dampedwave.fdm import FdOperator, fd_eigenvalue
from dampedwave.fem import FemSpace, assemble_mass, assemble_stiffness
from dampedwave import sparse
from dampedwave.mesh import PI_SQUARE, UNIT_SQUARE, build_fd_grid, build_tri_mesh
from dampedwave.sparse import (
    CgError,
    SineBasis,
    SparseMatrix,
    cg_solve,
    from_coo,
    from_diagonal,
    on_common_pattern,
    smallest_generalized_eigenpair,
)


def from_dense(a):
    rows, cols = np.nonzero(a)
    return from_coo(rows, cols, a[rows, cols], a.shape[0])


def sine_precond(space, a):
    """The sine-basis preconditioner of a grid operator of ``space``."""
    return space.basis.solver(space.basis.symbol(a))


def test_identity_matvec():
    a = from_diagonal(np.ones(5))
    x = np.arange(5.0)
    assert np.array_equal(a.matvec(x), x)


def test_small_symmetric_matvec():
    a = from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.allclose(a.matvec(np.ones(2)), [1.0, 1.0])


def test_matvec_symmetry():
    rng = np.random.default_rng(11)
    b = rng.normal(size=(8, 8))
    a = from_dense(b + b.T)
    x = rng.normal(size=8)
    y = rng.normal(size=8)
    assert x @ a.matvec(y) == pytest.approx(y @ a.matvec(x))


def test_from_coo_sums_duplicates():
    a = from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], 2)
    d = a.to_dense()
    assert d[0, 1] == 5.0
    assert d[1, 0] == 4.0


@pytest.mark.parametrize("rows, cols, vals", [
    # NaN compares false with everything, so a test |v| > 0 would drop it
    ([0, 0, 1, 1], [0, 1, 0, 1], [2.0, np.nan, np.nan, 2.0]),
    ([0, 0, 1, 1], [0, 1, 0, 1], [np.inf, 0.0, 0.0, 2.0]),
    ([0, 0, 1], [0, 0, 1], [1e308, 1e308, 1.0]),  # overflows when summed
    ([0, 0, 1], [0, 0, 1], [np.inf, -np.inf, 1.0]),  # sums to NaN
])
@pytest.mark.filterwarnings("error")
def test_from_coo_rejects_non_finite_entries(rows, cols, vals):
    with pytest.raises(ValueError, match="finite"):
        from_coo(rows, cols, vals, 2)


@pytest.mark.parametrize("rows, cols", [([0, 1, 3], [0, 1, 2]), ([0, 1, -1], [0, 1, 2]),
                                        ([0, 1, 2], [0, 1, 3]), ([0, 1, 2], [0, 1, -1])])
def test_from_coo_rejects_indices_outside_the_matrix(rows, cols):
    # a column past the last one would otherwise alias an entry of the next row
    with pytest.raises(ValueError):
        from_coo(rows, cols, [1.0, 2.0, 3.0], 3)


def test_diagonal_extraction():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(6, 6))
    spd = b @ b.T + 6 * np.eye(6)
    a = from_dense(spd)
    assert np.allclose(a.diagonal(), np.diag(spd))


def test_cg_identity_converges_immediately():
    b = np.array([3.0, -1.0, 2.0])
    x, rep = cg_solve(from_diagonal(np.ones(3)), b, lambda r: r)
    assert np.allclose(x, b)
    assert rep.iterations <= 1


def test_cg_zero_rhs():
    x, rep = cg_solve(from_diagonal(np.ones(4)), np.zeros(4), lambda r: r)
    assert np.array_equal(x, np.zeros(4))
    assert rep.iterations == 0


def thomas_solve(lower, diag, upper, rhs):
    """Direct tridiagonal elimination, used as an independent reference."""
    n = diag.size
    c = upper.astype(float).copy()
    d = rhs.astype(float).copy()
    b = diag.astype(float).copy()
    for i in range(1, n):
        w = lower[i - 1] / b[i - 1]
        b[i] -= w * c[i - 1]
        d[i] -= w * d[i - 1]
    x = np.empty(n)
    x[-1] = d[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - c[i] * x[i + 1]) / b[i]
    return x


def test_cg_matches_tridiagonal_elimination():
    n = 40
    h = 1.0 / (n + 1)
    main = np.full(n, 2.0 / h ** 2)
    off = np.full(n - 1, -1.0 / h ** 2)
    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([main, off, off])
    a = from_coo(rows, cols, vals, n)
    b = h * np.ones(n)  # lumped load for f = 1
    x, _ = cg_solve(a, b, lambda r: r, rtol=1e-12)
    ref = thomas_solve(off, main, off, b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_cg_random_spd():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(10, 10))
    spd = b.T @ b + np.eye(10)
    a = from_dense(spd)
    rhs = rng.normal(size=10)
    x, rep = cg_solve(a, rhs, lambda r: r, rtol=1e-10)
    assert np.linalg.norm(rhs - spd @ x) <= 1e-10 * np.linalg.norm(rhs)
    assert rep.final_residual <= 1e-10


def test_cg_raises_on_iteration_cap(monkeypatch):
    # unpreconditioned CG on eigenvalues 1 ... 1e8 loses orthogonality and
    # needs 92 iterations for 20 unknowns, within the cap of 50 per unknown;
    # a cap of 1 per unknown stops it
    a = from_diagonal(np.logspace(0.0, 8.0, 20))
    b = np.ones(20)
    _, rep = cg_solve(a, b, rtol=1e-14, precond=lambda r: r)
    assert 20 < rep.iterations <= 50 * 20
    monkeypatch.setattr(sparse, "CG_ITERATIONS_PER_UNKNOWN", 1)
    with pytest.raises(CgError, match="did not converge") as err:
        cg_solve(a, b, rtol=1e-14, precond=lambda r: r)
    assert err.value.iterations == 20


# the warm-start tests solve with the mass matrix: the sine basis solves the
# stiffness exactly in one iteration, so no start could save one there

def test_cg_warm_start_helps():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    m = assemble_mass(space)
    pre = sine_precond(space, m)
    b = np.ones(m.dim)
    x_cold, rep_cold = cg_solve(m, b, pre, rtol=1e-10)
    _, rep_warm = cg_solve(m, b, pre, rtol=1e-10, x0=x_cold)
    assert rep_warm.iterations < rep_cold.iterations


def test_cg_warm_start_meeting_rtol_is_refined_once():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    m = assemble_mass(space)
    pre = sine_precond(space, m)
    b = np.ones(m.dim)
    guess, _ = cg_solve(m, b, pre, rtol=1e-12)
    start = np.linalg.norm(b - m.matvec(guess)) / np.linalg.norm(b)
    assert 0.0 < start <= 1e-10
    x, rep = cg_solve(m, b, pre, rtol=1e-10, x0=guess)
    assert rep.iterations == 1
    assert rep.final_residual <= start
    assert np.linalg.norm(b - m.matvec(x)) / np.linalg.norm(b) <= start


def test_cg_exact_warm_start_returns_the_guess():
    a = from_diagonal([2.0, 3.0])
    guess = np.ones(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, rep = cg_solve(a, np.array([2.0, 3.0]), lambda r: r, x0=guess)
    assert rep.iterations == 0 and rep.final_residual == 0.0
    assert np.array_equal(x, guess) and x is not guess


def _reference_cg(a, b, rtol, max_iter, precond):
    """Preconditioned CG from x = 0, written out as the reference for the
    cold path."""
    bnorm = math.sqrt(b @ b)
    x = np.zeros(b.shape[0])
    r = b - a.matvec(x)
    res = math.sqrt(r @ r) / bnorm
    if res <= rtol:
        return x, 0, res
    z = precond(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iter + 1):
        ap = a.matvec(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = math.sqrt(r @ r) / bnorm
        if res <= rtol:
            return x, it, res
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference CG did not converge")


@pytest.mark.parametrize("rtol", [1e-10, 2.0])
def test_cg_cold_start_is_bit_identical_to_the_reference_loop(rtol):
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    k, m = assemble_stiffness(space), assemble_mass(space)
    b = np.random.default_rng(3).normal(size=k.dim)
    for a in (k, m):
        pre = sine_precond(space, a)
        x, rep = cg_solve(a, b, pre, rtol=rtol)
        want, its, res = _reference_cg(a, b, rtol, 10_000, pre)
        assert np.array_equal(x, want)
        assert (rep.iterations, rep.final_residual) == (its, res)


def test_cg_cold_start_makes_one_matvec_per_iteration(monkeypatch):
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    k = assemble_stiffness(space)
    pre = sine_precond(space, k)
    calls = []
    matvec = SparseMatrix.matvec

    def counted(self, x):
        calls.append(1)
        return matvec(self, x)

    monkeypatch.setattr(SparseMatrix, "matvec", counted)
    _, rep = cg_solve(k, np.ones(k.dim), pre, rtol=1e-10)
    assert rep.iterations > 0
    assert len(calls) == rep.iterations
    with pytest.raises(ValueError, match="dimension"):
        cg_solve(k, np.ones(k.dim + 1), pre)


def test_matvec_with_empty_rows():
    # padding slots hold the value 0, so a row with no entries, the last one
    # too, is an exact zero row
    for rows, cols, vals, dim in (([0, 2], [0, 2], [1.0, 3.0], 3),
                                  ([0], [0], [2.0], 3),
                                  ([1], [0], [5.0], 2),
                                  ([], [], [], 2)):
        a = from_coo(rows, cols, vals, dim)
        dense = np.zeros((dim, dim))
        dense[np.array(rows, dtype=int), np.array(cols, dtype=int)] = vals
        x = np.arange(1.0, dim + 1.0)
        assert np.array_equal(a.matvec(x), dense @ x)
        assert np.array_equal(a.diagonal(), np.diag(dense))
        assert np.array_equal(a.to_dense(), dense)


def test_diagonal_and_dense_with_missing_diagonal_and_empty_row():
    dense = np.array([[2.0, 1.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 3.0, 0.0],   # no stored diagonal entry
                      [0.0, 0.0, 0.0, 0.0, 0.0],   # empty row
                      [0.0, 3.0, 0.0, 5.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0]])  # empty last row
    a = from_dense(dense)
    assert np.array_equal(a.diagonal(), np.diag(dense))
    assert np.array_equal(a.to_dense(), dense)
    x = np.arange(1.0, 6.0)
    assert np.array_equal(a.matvec(x), dense @ x)


def test_common_pattern_keeps_values():
    rng = np.random.default_rng(23)
    mats = []
    for density in (0.2, 0.5, 0.0):
        b = rng.normal(size=(7, 7)) * (rng.uniform(size=(7, 7)) < density)
        mats.append(from_dense(b + b.T + np.diag(rng.uniform(1.0, 2.0, 7))))
    shared = on_common_pattern(mats)
    union = np.zeros((7, 7), dtype=bool)
    for m in mats:
        union |= m.to_dense() != 0.0
    for m, s in zip(mats, shared):
        assert s.cols is shared[0].cols
        assert s.nnz == 7 * np.count_nonzero(union, axis=1).max()
        assert np.array_equal(s.to_dense(), m.to_dense())


def _random_triplets(rng, dim):
    """Triplets with duplicates (some cancelling), explicit zeros, empty rows
    (sometimes the last one) and rows of different widths. The values are
    small integers, so every sum and product below is exact."""
    occupied = rng.choice(dim, size=rng.integers(1, dim + 1), replace=False)
    n = int(rng.integers(0, 4 * dim))
    rows = rng.choice(occupied, size=n)
    cols = rng.integers(0, dim, size=n)
    vals = rng.integers(-4, 5, size=n).astype(float)
    again = rng.uniform(size=n) < 0.3
    dup = np.where(rng.uniform(size=again.sum()) < 0.5, -vals[again],
                   rng.integers(-4, 5, size=again.sum()))
    return (np.concatenate([rows, rows[again]]), np.concatenate([cols, cols[again]]),
            np.concatenate([vals, dup]))


@pytest.mark.parametrize("seed", range(20))
def test_layout_matches_scipy_coo(seed):
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 10))
    mats, dense = [], []
    for _ in range(int(rng.integers(1, 4))):
        rows, cols, vals = _random_triplets(rng, dim)
        mats.append(from_coo(rows, cols, vals, dim))
        dense.append(sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).toarray())
    x = rng.integers(-3, 4, size=dim).astype(float)
    shared = on_common_pattern(mats)
    for a, s, want in zip(mats, shared, dense):
        assert s.cols is shared[0].cols
        for m in (a, s):
            assert np.array_equal(m.to_dense(), want)
            assert np.array_equal(m.diagonal(), np.diag(want))
            assert np.array_equal(m.matvec(x), want @ x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cg_fails_fast_on_non_finite_rhs(bad):
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    k = assemble_stiffness(space)
    b = np.ones(k.dim)
    b[3] = bad
    with pytest.raises(CgError) as err:
        cg_solve(k, b, sine_precond(space, k))
    assert err.value.iterations <= 1
    assert "non-finite" in str(err.value)


def test_cg_fails_fast_on_non_finite_residual():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    k = assemble_stiffness(space)
    x0 = np.zeros(k.dim)
    x0[0] = np.inf
    with pytest.raises(CgError) as err:
        cg_solve(k, np.ones(k.dim), sine_precond(space, k), x0=x0)
    assert err.value.iterations <= 1


def test_cg_fails_fast_when_an_iteration_turns_non_finite():
    # a zero in the preconditioner's divisor makes the first search
    # direction infinite, and so the residual of iteration 1 non-finite
    a = from_diagonal([1.0, 2.0])
    with np.errstate(all="ignore"), pytest.raises(CgError) as err:
        cg_solve(a, np.ones(2), lambda r: r / np.array([1.0, 0.0]))
    assert err.value.iterations == 1


def test_fd_pencil_smallest_eigenvalue():
    grid = build_fd_grid(UNIT_SQUARE, 8)
    op = FdOperator(grid)
    k, basis = op.gram_matrix(), SineBasis(grid.n_per_side - 1)
    lam, v, _ = smallest_generalized_eigenpair(k, op.mass_matrix(),
                                               basis.solver(basis.symbol(k)))
    closed = fd_eigenvalue(grid, 1, 1)
    assert lam == pytest.approx(closed, rel=1e-9)
    assert lam == pytest.approx(19.49, abs=0.01)
    # M-normalized eigenvector
    assert v @ op.mass_matrix().matvec(v) == pytest.approx(1.0, rel=1e-10)


def test_inverse_iteration_multiplies_by_m_once_per_iterate(monkeypatch):
    space = FemSpace(build_tri_mesh(PI_SQUARE, 16))
    k, m = assemble_stiffness(space), assemble_mass(space)
    calls = []
    matvec = SparseMatrix.matvec

    def counted(self, x):
        calls.append(self)
        return matvec(self, x)

    monkeypatch.setattr(SparseMatrix, "matvec", counted)
    lam, v, its = smallest_generalized_eigenpair(k, m, sine_precond(space, k))
    # the starting vector and each iterate: one product with M, which
    # normalises it, enters its Rayleigh quotient and is the next right-hand side
    assert sum(a is m for a in calls) == its + 1
    monkeypatch.undo()
    assert v @ m.matvec(v) == pytest.approx(1.0, rel=1e-12)
    assert lam == pytest.approx((v @ k.matvec(v)) / (v @ m.matvec(v)), rel=1e-14)


def test_fem_pencil_unit_square():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 32))
    k = assemble_stiffness(space)
    lam, _, _ = smallest_generalized_eigenpair(k, assemble_mass(space),
                                               sine_precond(space, k))
    exact = 2.0 * np.pi ** 2
    assert abs(lam - exact) / exact < 0.01
    assert lam > exact  # discrete eigenvalues approach from above


def test_fem_pencil_pi_square():
    space = FemSpace(build_tri_mesh(PI_SQUARE, 32))
    k = assemble_stiffness(space)
    lam, _, _ = smallest_generalized_eigenpair(k, assemble_mass(space),
                                               sine_precond(space, k))
    assert abs(lam - 2.0) / 2.0 < 0.01
