"""The sine-basis preconditioner: the basis, the operator symbols, the
conditioning of preconditioned step systems, and scipy as a test-only oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dampedwave import diagnostics, fem
from dampedwave.fdm import FdOperator, fd_eigenvalue
from dampedwave.fem import FemSpace, ScalarField, assemble_mass, assemble_stiffness
from dampedwave.harness import builtin_experiments
from dampedwave.mesh import PI_SQUARE, Rectangle, UNIT_SQUARE, build_fd_grid, \
    build_tri_mesh
from dampedwave.sparse import SineBasis, cg_solve, from_diagonal, \
    smallest_generalized_eigenpair
from dampedwave.stepper import ModelParams, init_state, make_fd_backend, \
    make_fem_backend

SRC = Path(__file__).resolve().parents[1] / "src"


def dense_symbol(basis, a):
    s2 = np.kron(basis.matrix, basis.matrix)
    return np.diag(s2.T @ a.to_dense() @ s2).reshape(basis.n, basis.n)


def test_basis_is_symmetric_and_orthonormal():
    s = SineBasis(9).matrix
    assert np.array_equal(s, s.T)
    assert np.allclose(s @ s, np.eye(9), atol=1e-14)


def test_forward_and_inverse_are_the_dense_basis_products():
    basis = SineBasis(6)
    s2 = np.kron(basis.matrix, basis.matrix)
    u = np.random.default_rng(3).normal(size=36)
    coeffs = basis.forward(u)
    assert coeffs.shape == (6, 6)
    assert np.allclose(coeffs.ravel(), s2.T @ u, atol=1e-14)
    assert np.allclose(basis.inverse(coeffs), u, atol=1e-14)
    # the preconditioner is the symbol division between the two
    symbol = np.arange(1.0, 37.0).reshape(6, 6)
    assert np.allclose(basis.solver(symbol)(u), basis.inverse(coeffs / symbol),
                       rtol=1e-14, atol=1e-15)


def test_fd_symbols_are_the_closed_form_eigenvalues():
    grid = build_fd_grid(UNIT_SQUARE, 10)
    op = FdOperator(grid)
    basis = SineBasis(9)
    p = np.arange(1, 10)
    # symbol[q - 1, p - 1] belongs to the mode sin(p pi x) sin(q pi y)
    closed = np.array([[fd_eigenvalue(grid, pp, qq) for pp in p] for qq in p])
    assert np.allclose(basis.symbol(op.gram_matrix()), grid.h ** 2 * closed,
                       rtol=1e-12)
    assert np.allclose(basis.symbol(op.mass_matrix()), grid.h ** 2, rtol=1e-12)


def test_fem_symbols_match_the_dense_diagonal_on_a_rectangle():
    space = FemSpace(build_tri_mesh(Rectangle(0.0, 2.0, 0.0, 0.5), 7))
    weight = ScalarField(lambda x, y: 1.0 + x * y)
    basis = SineBasis(6)
    for a in (assemble_mass(space), assemble_stiffness(space),
              assemble_mass(space, weight), assemble_stiffness(space, weight)):
        want = dense_symbol(basis, a)
        assert np.allclose(basis.symbol(a), want, rtol=1e-12,
                           atol=1e-14 * np.max(np.abs(want)))


def test_symbol_rejects_an_operator_off_the_grid():
    with pytest.raises(ValueError, match="grid"):
        SineBasis(3).symbol(from_diagonal(np.ones(8)))


def test_p1_stiffness_is_diagonal_in_the_sine_basis():
    # one preconditioned iteration solves a K system on a rectangle
    space = FemSpace(build_tri_mesh(Rectangle(0.0, 2.0, 0.0, 0.5), 12))
    k = assemble_stiffness(space)
    basis = SineBasis(11)
    b = np.random.default_rng(3).normal(size=k.dim)
    x, rep = cg_solve(k, b, rtol=1e-12, precond=basis.solver(basis.symbol(k)))
    assert rep.iterations == 1
    assert np.allclose(k.matvec(x), b, atol=1e-11 * np.linalg.norm(b))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_projections_and_higher_energy_solve_in_the_sine_basis(n, monkeypatch):
    # each solve against Jacobi CG (P = diag(A)) on the same system: the
    # sine basis solves the elliptic projection's K in one iteration, and the
    # M-solves of the L2 projection and energy_EA in fewer (on ex1, 11-13
    # against 14-19 at N = 8, 16, 32; Jacobi takes 6-56 for K)
    exp = builtin_experiments()["ex1"]
    space = FemSpace(build_tri_mesh(exp.domain, n))
    backend = make_fem_backend(space, exp.params)
    state = init_state(backend, exp.time_step(n), exact_at=exp.exact.field_at)
    solves = []

    def recorded(a, b, precond, **kwargs):
        x, rep = cg_solve(a, b, precond, **kwargs)
        solves.append((a, b, rep.iterations))
        return x, rep

    monkeypatch.setattr(fem, "cg_solve", recorded)
    monkeypatch.setattr(diagnostics, "cg_solve", recorded)
    u = exp.exact.field_at(0.0)
    fem.elliptic_project(space, u)
    fem.l2_project(space, u)
    diagnostics.energy_EA(state, backend)
    assert len(solves) == 3
    assert solves[0][2] == 1
    for a, b, its in solves:
        _, jacobi = cg_solve(a, b, lambda r: r / a.diagonal())
        assert its < jacobi.iterations


def _kappa(a, precond):
    """Condition number of P^-1 A by a dense check."""
    pinv = np.column_stack([precond(e) for e in np.eye(a.dim)])
    ev = np.sort(np.linalg.eigvals(pinv @ a.to_dense()).real)
    return ev[-1] / ev[0]


RECTANGLE = ModelParams(domain=Rectangle(0.0, 2.0, 0.0, 0.5), alpha=10.0, beta=0.3)


@pytest.mark.parametrize("name", ["ex1", "ex2", "spacevar", "rectangle"])
def test_preconditioned_fem_step_systems_are_well_conditioned(name):
    params = RECTANGLE if name == "rectangle" else builtin_experiments()[name].params
    for n in (8, 16):
        backend = make_fem_backend(FemSpace(build_tri_mesh(params.domain, n)), params)
        for k in (1e-5, 1e-2, 1.0):
            system, precond = backend.system(k, 0.0)
            assert _kappa(system, precond) <= 2.2
        assert _kappa(backend.M, backend.mass_precond) <= 2.2
        assert _kappa(backend.K, backend.stiffness_precond) == pytest.approx(1.0)


# --- scipy, as a test-only oracle -------------------------------------------

def test_basis_matches_scipy_dst():
    fft = pytest.importorskip("scipy.fft")
    for n in (1, 6, 15):
        assert np.allclose(SineBasis(n).matrix,
                           fft.dst(np.eye(n), type=1, norm="ortho"), atol=1e-14)


@pytest.mark.parametrize("backend", ["fem", "fd"])
def test_preconditioned_lambda1_matches_scipy_eigsh(backend):
    sp = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    exp = builtin_experiments()["ex3ii"]
    if backend == "fem":
        handles = make_fem_backend(FemSpace(build_tri_mesh(PI_SQUARE, 16)), exp.params)
    else:
        handles = make_fd_backend(build_fd_grid(PI_SQUARE, 16), exp.params)
    lam, _, _ = smallest_generalized_eigenpair(
        handles.K, handles.M, precond=handles.stiffness_precond)

    def csr(a):
        return sp.csr_matrix((a.vals.ravel(), (a.rows.ravel(), a.cols.ravel())),
                             shape=(a.dim, a.dim))

    want = linalg.eigsh(csr(handles.K), k=1, M=csr(handles.M), sigma=0.0,
                        which="LM", return_eigenvectors=False)[0]
    assert lam == pytest.approx(want, rel=1e-10)


def test_package_runs_without_scipy():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from dampedwave.harness import builtin_experiments, run_decay\n"
        "rep = run_decay(builtin_experiments()['ex3ii'], 8)\n"
        "assert rep.monotone_ok and rep.sandwich_ok and rep.bound_ok\n"
        "assert not [m for m, mod in sys.modules.items()\n"
        "            if m.startswith('scipy') and mod is not None]\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
