"""Property tests over random damping pairs, step sizes, modes and sizes."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dampedwave.diagnostics import decay_bounds, energy_and_cross
from dampedwave.fdm import fd_eigenvalue
from dampedwave.fem import FemSpace, ScalarField
from dampedwave.harness import DK_CAP, builtin_experiments, build_backend
from dampedwave.mesh import UNIT_SQUARE, build_fd_grid, build_tri_mesh
from dampedwave.oracle import Mode, modal_recurrence
from dampedwave.sparse import cg_refine, cg_solve
from dampedwave.stepper import (
    BLOCK,
    EXTRAPOLANTS,
    HISTORY,
    STEP_RTOL,
    ModelParams,
    SpatialField,
    StepperState,
    TimeSchedule,
    init_state,
    make_fd_backend,
    make_fem_backend,
    run,
    step,
)
from fd_oracles import sine_mode

GRID = build_fd_grid(UNIT_SQUARE, 8)
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)
mode_index = st.integers(min_value=1, max_value=3)
log_step = st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e)


def mode_field(p, q):
    return ScalarField(lambda x, y: np.sin(p * np.pi * x) * np.sin(q * np.pi * y))


def history_slots(backend, levels):
    """The rows of a history block holding the sine-basis ``levels``, newest
    first, each its level and then its products with the backend's
    operators, flattened to the slots a step's weight table multiplies."""
    return np.array([(u, *backend._sine_products(u)) for u in levels]) \
        .reshape(-1, backend.ndof)


@PROPERTY
@given(alpha=st.floats(0.0, 5.0), beta=st.floats(0.0, 1.0),
       k=st.floats(1e-3, 0.1), p=mode_index, q=mode_index)
def test_fd_stepper_follows_modal_recurrence(alpha, beta, k, p, q):
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta)
    backend = make_fd_backend(GRID, params)
    v = sine_mode(GRID, p, q)
    seq = modal_recurrence(Mode(p, q, fd_eigenvalue(GRID, p, q)), alpha, beta,
                           k, 20, u0=1.0, u1=1.0)
    state = StepperState(n=1, k=k, levels=np.stack((v, v)))
    scale = np.max(np.abs(v))
    for _ in range(20):
        state = step(state, backend)
        # relative to the peak amplitude so far, since an oscillating mode
        # passes through zero
        peak = np.max(np.abs(seq[:state.n + 1]))
        assert np.max(np.abs(state.u_curr - seq[state.n] * v)) <= 1e-8 * peak * scale


@PROPERTY
@given(c=st.floats(1e-3, 5.0))
def test_pinned_schedule_is_bit_identical_to_constant(c):
    u0 = ScalarField(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    runs = []
    for alpha in (c, TimeSchedule(lambda t: c, c, c)):
        params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=0.1, u0=u0)
        runs.append(run(make_fd_backend(GRID, params), k=0.02, n_steps=5))
    (s1, tr1), (s2, tr2) = runs
    assert np.array_equal(s1.u_curr, s2.u_curr)
    assert np.array_equal(tr1.energy, tr2.energy)


@PROPERTY
@given(kind=st.sampled_from(["fd", "fem"]), n=st.integers(2, 12),
       alpha=st.floats(0.0, 10.0), beta=st.floats(0.0, 3.0), k=log_step,
       seed=st.integers(0, 2 ** 16))
def test_cg_matches_a_dense_solve_with_either_preconditioner(kind, n, alpha, beta,
                                                             k, seed):
    # the sine-basis step system against S2' A S2 with the dense A
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta)
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, n), params) if kind == "fd" \
        else make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, n)), params)
    system, precond, _ = backend._step_system(k, alpha, beta)
    expected = (1 / k ** 2 + alpha / k) * backend.M.to_dense() \
        + (beta / k + 1) * backend.K.to_dense()
    s2 = np.kron(backend.basis.matrix, backend.basis.matrix)
    b = np.random.default_rng(seed).normal(size=backend.ndof)
    want = np.linalg.solve(s2.T @ expected @ s2, b)
    for pre in (lambda r: r, precond):
        x, _ = cg_solve(system, b, pre)
        assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)


@PROPERTY
@given(alpha=st.floats(0.0, 10.0), beta=st.floats(0.0, 3.0), k=log_step,
       seed=st.integers(0, 2 ** 16))
def test_fd_step_systems_converge_in_one_iteration(alpha, beta, k, seed):
    # A is diagonal in the sine basis, so the division by its symbol is
    # exact: a step's CG, from the linear extrapolant of two levels and the
    # starting residual, both formed with the right-hand side by the one
    # product of the weight table with their history rows, takes one
    # iteration
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta)
    backend = make_fd_backend(GRID, params)
    system, precond, weights = backend._step_system(k, alpha, beta)
    levels = np.random.default_rng(seed).normal(size=(2, backend.ndof))
    padded = np.vstack((levels, np.zeros((HISTORY - 2, backend.ndof))))
    x, b, r0 = weights[0] @ history_slots(backend, padded)
    assert np.array_equal(x, EXTRAPOLANTS[2] @ levels)
    iterations, residual = cg_refine(system, b, x, r0, precond, STEP_RTOL)
    assert iterations == 1 and residual <= STEP_RTOL


@PROPERTY
@given(alpha=st.floats(0.0, 5.0), beta=st.floats(0.0, 1.0),
       k=st.floats(1e-3, 0.5), p=mode_index, q=mode_index)
def test_energy_is_monotone_and_sandwiched(alpha, beta, k, p, q):
    assume(alpha + beta > 1e-3)
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta,
                         u0=mode_field(p, q), u1=mode_field(q, 1))
    _, trace = run(make_fd_backend(GRID, params), k=k, n_steps=30)
    _, delta = decay_bounds(alpha, beta, fd_eigenvalue(GRID, 1, 1))
    assert trace.monotone()
    assert trace.sandwich_ok(delta)


# a damping coefficient of the paper's range, down to the undamped limit
damping_value = st.one_of(st.just(0.0), st.floats(1e-4, 20.0))


class Reference(NamedTuple):
    """A run recomputed step by step: its final state, the energy and cross
    term of every sample, and what assert_runs_agree bounds the other run's
    deviation with: per step, |b|_2 / sqrt(2 lambda_min(A)) of the step's
    system A U^{n+1} = b; lambda_min(K); and lambda_1 of the (K, M) pencil.
    Given a reference vector u, also ||U - u||_M of every sample and
    ||u||_M."""

    final: StepperState
    energies: np.ndarray
    crosses: np.ndarray
    injections: np.ndarray
    lam_k: float
    lam1: float
    distances: np.ndarray | None = None
    reference_norm: float = 0.0


def m_norm(backend, v):
    return np.sqrt(v @ backend.M.matvec(v))


class GridSystem(NamedTuple):
    """A = c_m M + c_k K on grid values, from a backend's grid matrices: the
    ``dim`` and ``matvec`` that cg_solve reads."""

    m: object
    k: object
    c_m: float
    c_k: float

    @property
    def dim(self):
        return self.m.dim

    def matvec(self, v):
        return self.c_m * self.m.matvec(v) + self.c_k * self.k.matvec(v)


def cg_reference(backend, k, n_steps, exact_at=None, reference=None):
    """The run recomputed from the same ``init_state`` on a finite
    difference backend without a spatial weight, where W = M and S = K:
    each step solves its grid system A U^{n+1} = b, A = (1/k^2 + a/k) M
    + (b/k + 1) K, by cg_solve, preconditioned by the sine-basis solver of
    A's symbol. M, K and so A are diagonal in the sine basis, where their
    symbols are their eigenvalues."""
    assert backend.diagonal_in_basis
    basis = backend.basis
    sm, sk = (basis.symbol(op) for op in (backend.M, backend.K))
    state = init_state(backend, k, exact_at=exact_at)
    pairs = [energy_and_cross(state, backend)]
    injections = []
    chain = [state]
    for n in range(1, n_steps + 1):
        a, b = backend.params.check_schedules([n * k])[0]
        prev, u = state.u_prev, state.u_curr
        rhs = backend.M.matvec(2.0 * u - prev) / k ** 2 + backend.forcing \
            + (a * backend.weak_op.matvec(u) + b * backend.strong_op.matvec(u)) / k
        c_m, c_k = 1.0 / k ** 2 + a / k, b / k + 1.0
        symbol = c_m * sm + c_k * sk
        injections.append(np.linalg.norm(rhs) / np.sqrt(2.0 * np.min(symbol)))
        new, _ = cg_solve(GridSystem(backend.M, backend.K, c_m, c_k), rhs,
                          basis.solver(symbol))
        state = StepperState(n=n + 1, k=k, levels=np.stack((new, u)))
        pairs.append(energy_and_cross(state, backend))
        chain.append(state)
    energies, crosses = np.array(pairs).T
    distances, reference_norm = None, 0.0
    if reference is not None:
        distances = np.array([m_norm(backend, s.u_curr - reference) for s in chain])
        reference_norm = m_norm(backend, reference)
    return Reference(state, energies, crosses, np.array(injections),
                     np.min(sk), np.min(sk / sm), distances, reference_norm)


# Two evaluations of one energy in different orders differ by rounding: a
# few hundred ulps of E, times 1/(k omega_1) from the cancellation in
# d = (U^{n+1} - U^n)/k.
ROUNDING = 1e3 * np.finfo(float).eps


def assert_runs_agree(final, trace, ref):
    """The run and the reference differ only by the CG solves of one of
    them, each stopped at a relative residual rho = STEP_RTOL.

    Such a solve leaves U^{n+1} off by eta with A eta = r, |r|_2 <= rho |b|_2.
    In the energy norm of a state pair, ||S||_E^2 = E = 1/2 (d'M d + U'K U)
    with d = (U^{n+1} - U^n)/k, the pair (0, eta) has
    ||.||_E^2 = 1/2 eta'(M/k^2 + K) eta <= 1/2 eta'A eta = 1/2 r'A^-1 r
    <= (rho |b|_2)^2 / (2 lambda_min(A)), as the damping in A is positive
    semidefinite. (|b|_2 / lambda_min(A) is what kappa_2(A) |U^{n+1}|_2
    bounds; as lambda_min(A) >= lambda_min(M)/k^2, a residual rho shows in
    E amplified by about 1/(k omega).) Without forcing a step never raises
    E, so the error pair after step n is at most eps_n in ||.||_E, the sum
    of these over steps 1..n. With S the reference pair:
    - |E~ - E| <= eps (2 ||S||_E + eps), as sqrt(E) is a norm;
    - the cross term U'M d is bilinear with |U1'M d2| <= |U1|_M |d2|_M
      <= 2 ||S1||_E ||S2||_E / sqrt(lambda_1), so it moves by at most
      2 / sqrt(lambda_1) times the energy's bound;
    - a level moves by |e|_inf <= |e|_K / sqrt(lambda_min(K))
      <= sqrt(2 / lambda_min(K)) eps;
    - a distance ||U - u||_M, where the reference has them, moves by at most
      |e|_M <= |e|_K / sqrt(lambda_1) <= sqrt(2 / lambda_1) eps.
    rho is doubled: CG stops on its recursively updated residual, and |b|_2
    is read from the reference. The energies also get ROUNDING, and the
    distances ROUNDING times ||U||_M + ||u||_M <= ||U - u||_M + 2 ||u||_M,
    the size of the vectors whose difference they sum.
    """
    eps = np.concatenate(([0.0], np.cumsum(2.0 * STEP_RTOL * ref.injections)))
    level_bound = np.sqrt(2.0 / ref.lam_k) * eps[-1]
    for got, want in ((final.u_prev, ref.final.u_prev),
                      (final.u_curr, ref.final.u_curr)):
        assert np.max(np.abs(got - want)) <= level_bound
    omega = np.sqrt(ref.lam1)
    rounding = ROUNDING * (1.0 + 1.0 / (final.k * omega)) * np.max(ref.energies)
    bound = eps * (2.0 * np.sqrt(ref.energies) + eps) + rounding
    assert np.all(np.abs(trace.energy - ref.energies) <= bound)
    assert np.all(np.abs(trace.cross - ref.crosses) <= 2.0 / omega * bound)
    if ref.distances is not None:
        rounding = ROUNDING * (ref.distances + 2.0 * ref.reference_norm)
        bound = np.sqrt(2.0 / ref.lam1) * eps + rounding
        assert np.all(np.abs(trace.distance - ref.distances) <= bound)


@PROPERTY
@given(n=st.integers(2, 12), alpha=damping_value, beta=damping_value,
       k=st.floats(1e-3, 0.5), scheduled=st.booleans(), forced=st.booleans(),
       p=mode_index, q=mode_index)
def test_modal_run_matches_cg_steps(n, alpha, beta, k, scheduled, forced, p, q):
    coeff = TimeSchedule(lambda t: alpha * (2.0 - math.exp(-t)), alpha, 2.0 * alpha) \
        if scheduled and alpha > 0 else alpha
    forcing = ScalarField(lambda x, y: 1.0 + x * y) if forced else None
    params = ModelParams(domain=UNIT_SQUARE, alpha=coeff, beta=beta,
                         u0=mode_field(p, q), u1=mode_field(q, 1), forcing=forcing)
    grid = build_fd_grid(UNIT_SQUARE, n)
    backend = make_fd_backend(grid, params)
    assert backend.diagonal_in_basis
    modal, trace = run(backend, k=k, n_steps=30)
    assert np.array_equal(trace.cg_iterations, np.zeros(30, dtype=int))
    assert_runs_agree(modal, trace, cg_reference(backend, k, 30))
    if alpha + beta > 0 and not forced:
        alpha_range = (coeff.lo, coeff.hi) if scheduled and alpha > 0 else alpha
        _, delta = decay_bounds(alpha_range, beta, fd_eigenvalue(grid, 1, 1))
        assert trace.monotone()
        assert trace.sandwich_ok(delta)
        assert trace.decay_bound_ok(delta)


@PROPERTY
@given(alpha=st.floats(0.0, 5.0), beta=st.floats(0.0, 1.0),
       k=st.floats(1e-3, 0.1), p=mode_index, q=mode_index)
def test_modal_run_follows_modal_recurrence(alpha, beta, k, p, q):
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta,
                         u0=mode_field(p, q))
    backend = make_fd_backend(GRID, params)
    v = sine_mode(GRID, p, q)
    seq = modal_recurrence(Mode(p, q, fd_eigenvalue(GRID, p, q)), alpha, beta,
                           k, 20, u0=1.0, u1=1.0)
    scale = np.max(np.abs(v))
    # U^0 = U^1 = the mode, as in modal_recurrence(u0=1, u1=1); the final
    # states of runs of 0 to 20 steps are U^1 to U^21
    states = [run(backend, k=k, n_steps=m, exact_at=lambda t: mode_field(p, q))[0]
              for m in range(21)]
    assert [s.n for s in states] == list(range(1, 22))
    for s in states:
        peak = np.max(np.abs(seq[:s.n + 1]))
        assert np.max(np.abs(s.u_curr - seq[s.n] * v)) <= 1e-8 * peak * scale


@pytest.mark.parametrize("name,n", [("timevar", 24), ("timevar", 64), ("ex1", 32),
                                    ("forcing", 16)])
def test_modal_run_matches_cg_steps_on_the_experiments(name, n):
    exp = builtin_experiments()[name]
    backend, _ = build_backend(exp.params, n, "fd")
    k = exp.time_step(n)
    init = dict(exact_at=exp.exact.field_at) if exp.exact else {}
    modal, trace = run(backend, k, exp.n_steps(k), **init)
    n_steps = trace.t.size - 1
    assert_runs_agree(modal, trace, cg_reference(backend, k, n_steps, **init))


@pytest.mark.parametrize("n_steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 3,
                                     2 * BLOCK + 3])
@pytest.mark.parametrize("name", ["ex1", "timevar", "forcing"])
def test_modal_run_matches_cg_steps_across_history_blocks(name, n_steps):
    # a sine-basis run keeps its coefficients in the history block, which
    # takes the energies and distances of a whole block at once and wraps
    # when full, every BLOCK steps, the first block included: the initial
    # levels, like the HISTORY rows carried across, take its bottom rows
    exp = builtin_experiments()[name]
    backend, _ = build_backend(exp.params, 8, "fd")
    k = exp.time_step(8)
    init = dict(exact_at=exp.exact.field_at) if exp.exact else {}
    u = np.random.default_rng(5).standard_normal(backend.ndof)
    final, trace = run(backend, k, n_steps, reference=u, **init)
    ref = cg_reference(backend, k, n_steps, reference=u, **init)
    assert final.n == ref.final.n == n_steps + 1
    assert_runs_agree(final, trace, ref)


def dense_reference(backend, k, n_steps, reference=None):
    """The run as a loop of dense solves of each step's system with
    np.linalg.solve, from the same ``init_state``: a Reference, with the
    distances to ``reference`` when it is given."""
    alpha, beta = backend.params.damping
    m, kk = backend.M.to_dense(), backend.K.to_dense()
    weak, strong = backend.weak_op.to_dense(), backend.strong_op.to_dense()

    def pair(prev, curr):
        md = m @ (curr - prev) / k
        return 0.5 * ((curr - prev) / k @ md + curr @ kk @ curr), curr @ md

    state = init_state(backend, k)
    prev, curr = state.u_prev, state.u_curr
    pairs = [pair(prev, curr)]
    levels = [curr]
    injections = []
    for n in range(1, n_steps + 1):
        damp = alpha.scale(n * k) * weak + beta.scale(n * k) * strong
        a = m / k ** 2 + damp / k + kk
        rhs = m @ (2.0 * curr - prev) / k ** 2 + damp @ curr / k + backend.forcing
        injections.append(np.linalg.norm(rhs) / np.sqrt(2.0 * np.linalg.eigvalsh(a)[0]))
        prev, curr = curr, np.linalg.solve(a, rhs)
        pairs.append(pair(prev, curr))
        levels.append(curr)
    energies, crosses = np.array(pairs).T
    final = StepperState(n=n_steps + 1, k=k, levels=np.stack((curr, prev)))
    distances, reference_norm = None, 0.0
    if reference is not None:
        distances = np.array([np.sqrt((u - reference) @ m @ (u - reference))
                              for u in levels])
        reference_norm = np.sqrt(reference @ m @ reference)
    return Reference(final, energies, crosses, np.array(injections),
                     np.linalg.eigvalsh(kk)[0], dense_lambda1(backend), distances,
                     reference_norm)


def dense_lambda1(backend):
    """Smallest eigenvalue of the (K, M) pencil, densely."""
    chol_inv = np.linalg.inv(np.linalg.cholesky(backend.M.to_dense()))
    return np.linalg.eigvalsh(chol_inv @ backend.K.to_dense() @ chol_inv.T)[0]


@PROPERTY
@given(n=st.integers(2, 10), alpha=damping_value, beta=damping_value,
       kind=st.sampled_from(["constant", "scheduled", "spatial"]),
       dk=st.floats(0.01, 1.0), forced=st.booleans(), p=mode_index, q=mode_index,
       fd=st.booleans())
def test_fem_run_matches_dense_solves(n, alpha, beta, kind, dk, forced, p, q, fd):
    assume(alpha + beta > 0)
    check_run_matches_dense_solves(n, alpha, beta, kind, dk, forced, p, q, fd)


def check_run_matches_dense_solves(n, alpha, beta, kind, dk, forced, p, q, fd):
    """30 steps at dk times the step-size edge against dense solves, and the
    energy invariants when unforced; on FD a spatial alpha takes CG steps,
    and any other alpha the modal path."""
    coeff = alpha
    if kind == "scheduled" and alpha > 0:
        coeff = TimeSchedule(lambda t: alpha * (2.0 - math.exp(-t)), alpha, 2.0 * alpha)
    elif kind == "spatial" and alpha > 0:
        coeff = SpatialField(ScalarField(lambda x, y: alpha * (
            1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))), alpha, 1.5 * alpha)
    forcing = ScalarField(lambda x, y: 1.0 + x * y) if forced else None
    params = ModelParams(domain=UNIT_SQUARE, alpha=coeff, beta=beta,
                         u0=mode_field(p, q), u1=mode_field(q, 1), forcing=forcing)
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, n), params) if fd \
        else make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, n)), params)
    a = params.damping[0]
    _, delta = decay_bounds((a.lo, a.hi), beta, dense_lambda1(backend))
    # up to the edge delta k <= 34/205 of the discrete decay theorem
    k = dk * DK_CAP / delta
    final, trace = run(backend, k=k, n_steps=30)
    assert_runs_agree(final, trace, dense_reference(backend, k, 30))
    if not forced:
        assert trace.monotone()
        assert trace.sandwich_ok(delta)
        assert trace.decay_bound_ok(delta)


@pytest.mark.parametrize("kind", ["fem", "fd"])
def test_spacevar_run_matches_dense_solves(kind):
    # a spatially weighted alpha enters the sine-basis steps by a round trip
    # to grid values; the whole run agrees with dense solves
    exp = builtin_experiments()["spacevar"]
    backend, _ = build_backend(exp.params, 8, kind)
    assert not backend.diagonal_in_basis
    k = exp.time_step(8)
    final, trace = run(backend, k, exp.n_steps(k))
    assert trace.cg_iterations.min() >= 1
    assert_runs_agree(final, trace, dense_reference(backend, k, trace.t.size - 1))
    assert trace.monotone()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_weakly_damped_fem_run_at_the_step_size_edge_is_monotone():
    # a falsifying draw of test_fem_run_matches_dense_solves (seed 2, 300
    # examples): four unknowns, constant alpha = 1e-4, beta = 0 and k at the
    # edge delta k = 34/205, about 3300. The run agrees with dense solves,
    # but its energy rises between steps whose solves report a residual
    # below STEP_RTOL
    params = ModelParams(domain=UNIT_SQUARE, alpha=1e-4, beta=0.0,
                         u0=mode_field(1, 2), u1=mode_field(2, 1))
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 3)), params)
    _, delta = decay_bounds(1e-4, 0.0, dense_lambda1(backend))
    final, trace = run(backend, k=DK_CAP / delta, n_steps=30)
    assert_runs_agree(final, trace, dense_reference(backend, DK_CAP / delta, 30))
    assert trace.monotone()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_weakly_damped_scheduled_fem_run_near_the_step_size_edge_is_monotone():
    # a falsifying draw of test_fem_run_matches_dense_solves (hypothesis seed
    # 1, 300 examples, not derandomized), with its exact arguments: one
    # unknown, alpha scheduled from 1e-4 to 2e-4, beta = 0 and k at 0.93
    # of the edge. The run agrees with dense solves, but its energy rises
    # between steps, as in the draw above
    check_run_matches_dense_solves(n=2, alpha=1e-4, beta=0.0, kind="scheduled",
                                   dk=0.93359375, forced=False, p=1, q=1, fd=False)
