"""The sine-basis preconditioner: the basis, the operator symbols, the
conditioning of preconditioned step systems, and scipy as a test-only oracle."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dampedwave import diagnostics, fem, sparse, stepper
from dampedwave.fdm import FdOperator, fd_eigenvalue
from dampedwave.fem import FemSpace, ScalarField, assemble_mass, assemble_stiffness
from dampedwave.harness import builtin_experiments, discrete_lambda1
from dampedwave.mesh import PI_SQUARE, Rectangle, UNIT_SQUARE, build_fd_grid, \
    build_tri_mesh
from dampedwave.sparse import SineBasis, SkewSymbolOperator, cg_solve, \
    from_diagonal, smallest_generalized_eigenpair
from dampedwave.stepper import ModelParams, SpatialField, init_state, \
    make_fd_backend, make_fem_backend, steady_state

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
    # one transform maps grid values to mode coefficients and back
    coeffs = basis.transform(u)
    assert coeffs.shape == (36,)
    assert np.allclose(coeffs, s2.T @ u, atol=1e-14)
    assert np.array_equal(basis.transform(u.reshape(6, 6)), coeffs)
    assert np.allclose(basis.transform(coeffs), u, atol=1e-14)
    # the preconditioner is the symbol division between two transforms
    symbol = np.arange(1.0, 37.0).reshape(6, 6)
    assert np.allclose(basis.solver(symbol)(u), basis.transform(coeffs / symbol.ravel()),
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
    x, rep = cg_solve(k, b, basis.solver(basis.symbol(k)))
    assert rep.iterations == 1
    assert np.allclose(k.matvec(x), b, atol=1e-11 * np.linalg.norm(b))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_projections_and_higher_energy_solve_in_the_sine_basis(n, monkeypatch):
    # the elliptic projection's K-solve is one division by K's symbol, no CG;
    # the M-solves of the L2 projection and energy_EA are CG solves that take
    # fewer iterations than Jacobi CG (P = diag(A)) on the same system (on
    # ex1, 11-13 against 14-19 at N = 8, 16, 32)
    exp = builtin_experiments()["ex1"]
    space = FemSpace(build_tri_mesh(exp.domain, n))
    backend = make_fem_backend(space, exp.params)
    state = init_state(backend, exp.time_step(n), exact_at=exp.exact.field_at)
    solves = []

    def recorded(a, b, precond):
        x, rep = cg_solve(a, b, precond)
        solves.append((a, b, rep.iterations))
        return x, rep

    monkeypatch.setattr(fem, "cg_solve", recorded)
    monkeypatch.setattr(diagnostics, "cg_solve", recorded)
    u = exp.exact.field_at(0.0)
    fem.elliptic_project(space, u)
    assert solves == []
    fem.l2_project(space, u)
    diagnostics.energy_EA(state, backend)
    assert len(solves) == 2  # both with the mass
    assert all(np.array_equal(a.vals, backend.M.vals) for a, _, _ in solves)
    for a, b, its in solves:
        _, jacobi = cg_solve(a, b, lambda r: r / a.diagonal())
        assert its < jacobi.iterations


SKEW_DOMAINS = {"unit": UNIT_SQUARE, "pi": PI_SQUARE,
                "rectangle": Rectangle(-1.0, 0.5, 0.0, 3.0)}


def _k_solve_backend(kind):
    """An FD or FEM backend at N = 12 on a SKEW_DOMAINS domain (``fd-``,
    ``fem-``), or of the spacevar experiment (``spacevar-``)."""
    backend, where = kind.split("-")
    params = builtin_experiments()["spacevar"].params if where == "spacevar" \
        else ModelParams(domain=SKEW_DOMAINS[where], alpha=0.7, beta=0.3)
    if backend == "fd":
        return make_fd_backend(build_fd_grid(params.domain, 12), params)
    return make_fem_backend(FemSpace(build_tri_mesh(params.domain, 12)), params)


@pytest.mark.parametrize("kind", ["fd-unit", "fem-unit", "fem-pi", "fem-rectangle",
                                  "fem-spacevar", "fd-spacevar"])
def test_stiffness_precond_is_the_inverse_of_k(kind):
    # K (5-point or P1, unweighted on every backend) is diagonal in the sine
    # basis, so the division by its symbol is K^-1: what steady_state, the
    # lambda1 inverse iteration and the elliptic projection apply
    backend = _k_solve_backend(kind)
    for seed in range(3):
        b = np.random.default_rng(seed).normal(size=backend.ndof)
        back = backend.K.matvec(backend.stiffness_precond(b))
        assert np.linalg.norm(back - b) <= 1e-12 * np.linalg.norm(b)


def test_k_solves_run_no_cg(monkeypatch):
    # with every CG entry point raising, the steady state, lambda1 and the
    # elliptic projection still come out
    exps = builtin_experiments()
    forced = [make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)),
                               exps["forcing"].params),
              make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), exps["forcing"].params)]
    pencils = [_k_solve_backend("fem-pi"), _k_solve_backend("fd-unit")]
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))

    def no_cg(*args, **kwargs):
        raise AssertionError("a K-solve ran CG")

    for module in (sparse, stepper, fem, diagnostics):
        for name in ("cg_solve", "cg_refine"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_cg)
    for backend in forced:
        u = steady_state(backend)
        assert np.linalg.norm(backend.K.matvec(u) - backend.forcing) \
            <= 1e-12 * np.linalg.norm(backend.forcing)
    for backend in pencils:
        lam, v, its = discrete_lambda1(backend)
        assert 0.0 < lam < np.inf and its > 1
    p = fem.elliptic_project(space, exps["ex1"].exact.field_at(0.0))
    assert np.all(np.isfinite(p)) and np.any(p != 0.0)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("domain", list(SKEW_DOMAINS))
def test_unweighted_p1_operators_are_their_symbol_plus_the_stated_skew_term(domain, n):
    # the oracle is the dense S2' op S2; a FEM backend states the mass's
    # kappa, with which M must equal diag(symbol) + kappa (skew (x) skew)
    # and K its symbol, and its sine-basis step operator must apply S2' A S2
    # for the dense A
    rect = SKEW_DOMAINS[domain]
    params = ModelParams(domain=rect, alpha=0.7, beta=0.3)
    backend = make_fem_backend(FemSpace(build_tri_mesh(rect, n)), params)
    basis = backend.basis
    s2 = np.kron(basis.matrix, basis.matrix)
    skew2 = np.kron(basis.skew, basis.skew)
    kappa = backend.mass_skew
    assert backend.weak_op is backend.M and backend.strong_op is backend.K
    assert kappa == rect.width * rect.height / (6.0 * n * n) > 0
    assert not backend.diagonal_in_basis
    for op, kap in ((backend.M, kappa), (backend.K, 0.0)):
        dense = s2.T @ op.to_dense() @ s2
        want = np.diag(basis.symbol(op).ravel()) + kap * skew2
        assert np.max(np.abs(dense - want)) <= 1e-13 * np.max(np.abs(dense))
    if n > 3:  # the skew term is not vacuous: M is not diagonal in S2
        dense = s2.T @ backend.M.to_dense() @ s2
        assert np.max(np.abs(dense - np.diag(np.diag(dense)))) > 1e-2 * np.max(dense)
    k = 0.05
    system, precond, _ = backend._step_system(k, 0.7, 0.3)
    assert isinstance(system, SkewSymbolOperator) and system.dim == backend.ndof
    a = s2.T @ ((1 / k ** 2 + 0.7 / k) * backend.M.to_dense()
                + (0.3 / k + 1) * backend.K.to_dense()) @ s2
    v = np.random.default_rng(n).normal(size=backend.ndof)
    want = a @ v
    assert np.max(np.abs(system.matvec(v) - want)) <= 1e-13 * np.max(np.abs(want))
    # the preconditioner divides by the symbol of the system
    assert np.allclose(precond(v), v / np.diag(a), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kappa", [-1e-300, -1.0, -np.inf, np.inf, np.nan])
def test_a_skew_term_rejects_a_kappa_without_a_real_square_root(kappa):
    # the factor sqrt(kappa) skew would turn such a kappa silently into NaN
    basis = SineBasis(4)
    with pytest.raises(ValueError, match="kappa"):
        SkewSymbolOperator(basis, np.ones(basis.n ** 2), kappa)
    params = ModelParams(domain=UNIT_SQUARE, alpha=0.7, beta=0.3)
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 4)), params)
    with pytest.raises(ValueError, match="kappa"):
        replace(backend, mass_skew=kappa)


@pytest.mark.parametrize("case", ["ex3ii", "spacevar", "fd"])
def test_scaled_skew_factors_apply_kappa_times_the_skew_product(case):
    # F = sqrt(kappa) skew, built once, gives F V F' = kappa (skew V skew')
    # to 1e-14 relative, for a step system's kappa (that of W too on ex3ii,
    # 1/k^2 mass_skew alone with a weighted W on spacevar) and for the
    # mass's; the oracle is also the dense kron(skew, skew). Weighted FD
    # states kappa 0: its factors are zero, and A skips the skew product,
    # so A v is its symbol times v plus the weighted round trip, bit for bit
    if case == "fd":
        params = builtin_experiments()["spacevar"].params
        backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params)
    else:
        params = builtin_experiments()[case].params
        backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), params)
    basis, k = backend.basis, 0.05
    system, _, _ = backend._step_system(k, 0.7, 0.3)
    kappa_w = 0.0 if case == "spacevar" else 0.7 / k
    assert system.kappa == (1 / k ** 2 + kappa_w) * backend.mass_skew
    assert (system.kappa == 0.0) == (case == "fd")
    skew2 = np.kron(basis.skew, basis.skew)
    v = np.random.default_rng(3).normal(size=backend.ndof)
    if case == "fd":
        assert not np.any(system.factor) and not np.any(backend._mass_factor)
        trip = basis.transform(system.weighted[0].matvec(basis.transform(v)))
        assert np.array_equal(system.matvec(v), system.symbol * v + trip)
        return
    for factor, kappa in ((system.factor, system.kappa),
                          (backend._mass_factor, backend.mass_skew)):
        got = sparse.skew_product(factor, v)
        for want in (kappa * sparse.skew_product(basis.skew, v), kappa * skew2 @ v):
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["ex1", "timevar"])
def test_unweighted_fd_operators_are_their_symbol(name):
    # h^2 I and the 5-point h^2 A_h are diagonal in S2: an unweighted FD
    # backend states a zero kappa, so its sine-basis steps solve nothing
    params = builtin_experiments()[name].params
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params)
    assert backend.mass_skew == 0.0 and backend.diagonal_in_basis
    s2 = np.kron(backend.basis.matrix, backend.basis.matrix)
    for op in (backend.M, backend.K):
        dense = s2.T @ op.to_dense() @ s2
        want = np.diag(backend.basis.symbol(op).ravel())
        assert np.max(np.abs(dense - want)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("kind", ["fem-alpha", "fem-beta", "fd"])
def test_weighted_operators_state_no_skew_term(kind):
    # a weighted mass or stiffness is not its symbol plus any multiple of
    # skew (x) skew in S2, so the backend's mass_skew states M's kappa only
    # and a step applies the weighted operator by a round trip to grid
    # values; its off-diagonal part is checked to be far from the best such
    # multiple
    weight = ScalarField(lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    coeff = SpatialField(weight, lo=1.0, hi=1.5)
    if kind == "fd":
        params = builtin_experiments()["spacevar"].params
        backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params)
    else:
        params = ModelParams(domain=UNIT_SQUARE, **{kind[4:]: coeff})
        backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), params)
    assert not backend.diagonal_in_basis
    assert backend.mass_skew == (0.0 if kind == "fd" else 1.0 / (6.0 * 8 * 8))
    basis = backend.basis
    s2 = np.kron(basis.matrix, basis.matrix)
    skew2 = np.kron(basis.skew, basis.skew)
    weighted = backend.strong_op if kind == "fem-beta" else backend.weak_op
    dense = s2.T @ weighted.to_dense() @ s2
    rest = dense - np.diag(np.diag(dense))
    best = np.sum(rest * skew2) / np.sum(skew2 * skew2)
    assert np.linalg.norm(rest - best * skew2) > 1e-2 * np.linalg.norm(dense)


def _kappa(a, precond):
    """Condition number of P^-1 A by a dense check."""
    pinv, dense = (np.column_stack([f(e) for e in np.eye(a.dim)])
                   for f in (precond, a.matvec))
    ev = np.sort(np.linalg.eigvals(pinv @ dense).real)
    return ev[-1] / ev[0]


RECTANGLE = ModelParams(domain=Rectangle(0.0, 2.0, 0.0, 0.5), alpha=10.0, beta=0.3)


@pytest.mark.parametrize("name", ["ex1", "ex2", "spacevar", "rectangle"])
def test_preconditioned_fem_step_systems_are_well_conditioned(name):
    params = RECTANGLE if name == "rectangle" else builtin_experiments()[name].params
    for n in (8, 16):
        backend = make_fem_backend(FemSpace(build_tri_mesh(params.domain, n)), params)
        for k in (1e-5, 1e-2, 1.0):
            system, precond, _ = backend._step_system(
                k, *params.check_schedules([0.0])[0])
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
        handles.K, handles.M, solve=handles.stiffness_precond)

    def csr(a):
        return sp.csr_matrix((a.vals.ravel(), (a.rows.ravel(), a.cols.ravel())),
                             shape=(a.dim, a.dim))

    want = linalg.eigsh(csr(handles.K), k=1, M=csr(handles.M), sigma=0.0,
                        which="LM", return_eigenvectors=False)[0]
    assert lam == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("kind", ["fem", "fd"])
def test_steady_state_matches_scipy_spsolve(kind):
    sp = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    params = builtin_experiments()["forcing"].params
    backend = make_fd_backend(build_fd_grid(params.domain, 16), params) if kind == "fd" \
        else make_fem_backend(FemSpace(build_tri_mesh(params.domain, 16)), params)
    k = backend.K
    csr = sp.csr_matrix((k.vals.ravel(), (k.rows.ravel(), k.cols.ravel())),
                        shape=(k.dim, k.dim))
    want = linalg.spsolve(csr, backend.forcing)
    assert np.linalg.norm(steady_state(backend) - want) <= 1e-12 * np.linalg.norm(want)


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
