"""Property tests over random damping pairs, step sizes and modes."""

import numpy as np
from hypothesis import given, settings, strategies as st

from dampedwave.fdm import fd_eigenvalue, fd_sine_mode
from dampedwave.fem import ScalarField
from dampedwave.mesh import UNIT_SQUARE, build_fd_grid
from dampedwave.oracle import Mode, modal_recurrence
from dampedwave.stepper import (
    ModelParams,
    StepperState,
    TimeSchedule,
    make_fd_backend,
    run,
    step,
)

GRID = build_fd_grid(UNIT_SQUARE, 8)
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)
mode_index = st.integers(min_value=1, max_value=3)


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
