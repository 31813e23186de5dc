"""Property tests over random damping pairs, step sizes, modes and sizes."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from dampedwave.diagnostics import decay_bounds
from dampedwave.fdm import fd_eigenvalue, fd_sine_mode
from dampedwave.fem import FemSpace, ScalarField
from dampedwave.mesh import UNIT_SQUARE, build_fd_grid, build_tri_mesh
from dampedwave.oracle import Mode, modal_recurrence
from dampedwave.sparse import cg_solve
from dampedwave.stepper import (
    ModelParams,
    StepperState,
    TimeSchedule,
    make_fd_backend,
    make_fem_backend,
    run,
    step,
)

GRID = build_fd_grid(UNIT_SQUARE, 8)
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)
mode_index = st.integers(min_value=1, max_value=3)
log_step = st.floats(-5.0, 0.0).map(lambda e: 10.0 ** e)


def mode_field(p, q):
    return ScalarField(lambda x, y: np.sin(p * np.pi * x) * np.sin(q * np.pi * y))


@PROPERTY
@given(alpha=st.floats(0.0, 5.0), beta=st.floats(0.0, 1.0),
       k=st.floats(1e-3, 0.1), p=mode_index, q=mode_index)
def test_fd_stepper_follows_modal_recurrence(alpha, beta, k, p, q):
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta)
    backend = make_fd_backend(GRID, params)
    v = fd_sine_mode(GRID, p, q)
    seq = modal_recurrence(Mode(p, q, fd_eigenvalue(GRID, p, q)), alpha, beta,
                           k, 20, u0=1.0, u1=1.0)
    state = StepperState(n=1, k=k, u_prev=v.copy(), u_curr=v.copy())
    scale = np.max(np.abs(v))
    for _ in range(20):
        state = step(state, backend, params)
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
        runs.append(run(make_fd_backend(GRID, params), params, k=0.02, T=0.1))
    (s1, tr1), (s2, tr2) = runs
    assert np.array_equal(s1.u_curr, s2.u_curr)
    assert np.array_equal(tr1.energy, tr2.energy)


@PROPERTY
@given(kind=st.sampled_from(["fd", "fem"]), n=st.integers(2, 12),
       alpha=st.floats(0.0, 10.0), beta=st.floats(0.0, 3.0), k=log_step,
       seed=st.integers(0, 2 ** 16))
def test_cg_matches_a_dense_solve_with_either_preconditioner(kind, n, alpha, beta,
                                                             k, seed):
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta)
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, n), params) if kind == "fd" \
        else make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, n)), params)
    system, _, precond = backend.system(params, k, 0.0)
    b = np.random.default_rng(seed).normal(size=backend.ndof)
    want = np.linalg.solve(system.to_dense(), b)
    for pre in (None, precond):
        x, _ = cg_solve(system, b, rtol=1e-12, precond=pre)
        assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)


@PROPERTY
@given(alpha=st.floats(0.0, 10.0), beta=st.floats(0.0, 3.0), k=log_step,
       seed=st.integers(0, 2 ** 16))
def test_fd_step_systems_converge_in_one_iteration(alpha, beta, k, seed):
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta)
    backend = make_fd_backend(GRID, params)
    u = np.random.default_rng(seed).normal(size=(2, backend.ndof))
    state = step(StepperState(n=1, k=k, u_prev=u[0], u_curr=u[1]), backend, params)
    assert state.solve.iterations == 1


@PROPERTY
@given(alpha=st.floats(0.0, 5.0), beta=st.floats(0.0, 1.0),
       k=st.floats(1e-3, 0.5), p=mode_index, q=mode_index)
def test_energy_is_monotone_and_sandwiched(alpha, beta, k, p, q):
    assume(alpha + beta > 1e-3)
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta,
                         u0=mode_field(p, q), u1=mode_field(q, 1))
    _, trace = run(make_fd_backend(GRID, params), params, k=k, T=30 * k)
    _, delta = decay_bounds(alpha, beta, fd_eigenvalue(GRID, 1, 1))
    assert trace.monotone()
    assert trace.sandwich_ok(delta)
