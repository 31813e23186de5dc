import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dampedwave import sparse, stepper
from dampedwave.diagnostics import energy_and_cross
from dampedwave.fdm import fd_eigenvalue
from dampedwave.fem import ZERO_FIELD, FemSpace, ScalarField, interpolate
from dampedwave.harness import build_backend, builtin_experiments, run_decay, \
    run_steady
from dampedwave.mesh import UNIT_SQUARE, build_fd_grid, build_tri_mesh
from dampedwave.oracle import Mode, modal_recurrence
from dampedwave.sparse import SineBasis, SparseMatrix, cg_refine, cg_solve
from dampedwave.stepper import (
    EXTRAPOLANTS,
    HISTORY,
    MAX_STEPS,
    STEP_RTOL,
    ModelParams,
    SpatialField,
    StepError,
    StepperState,
    TimeSchedule,
    init_state,
    make_fd_backend,
    make_fem_backend,
    run,
    steady_state,
    step,
)
from fd_oracles import sine_mode
from test_properties import assert_runs_agree, cg_reference, dense_reference, \
    history_slots

PI = np.pi


def sine_field():
    return ScalarField(
        lambda x, y: np.sin(PI * x) * np.sin(PI * y),
        grad=lambda x, y: (PI * np.cos(PI * x) * np.sin(PI * y),
                           PI * np.sin(PI * x) * np.cos(PI * y)),
    )


def fd_setup(m=8, alpha=0.0, beta=0.0, **kw):
    grid = build_fd_grid(UNIT_SQUARE, m)
    params = ModelParams(domain=UNIT_SQUARE, alpha=alpha, beta=beta, **kw)
    return grid, params, make_fd_backend(grid, params)


def test_zero_data_inits_to_zero():
    _, params, backend = fd_setup()
    state = init_state(backend, k=0.01)
    assert np.array_equal(state.u_prev, np.zeros(backend.ndof))
    assert np.array_equal(state.u_curr, np.zeros(backend.ndof))
    assert state.n == 1


def test_zero_state_stays_zero():
    _, params, backend = fd_setup(alpha=1.0, beta=0.5)
    state = init_state(backend, k=0.01)
    for _ in range(5):
        state = step(state, backend)
    assert np.array_equal(state.u_curr, np.zeros(backend.ndof))


def test_taylor_start_with_zero_velocity():
    # with u1 = 0 and alpha = beta = 0 the expansion collapses to
    # U^1 = U^0 - (k^2/2) M^{-1} K U^0
    grid, params, backend = fd_setup(m=8, u0=sine_field())
    k = 0.02
    state = init_state(backend, k)
    u0 = backend.interpolate(params.u0)
    w, _ = cg_solve(backend.M, -backend.K.matvec(u0), backend.mass_precond)
    assert np.allclose(state.u_curr, u0 + 0.5 * k * k * w, atol=1e-10)


def test_exact_start_on_decaying_mode():
    exp = builtin_experiments()["ex1"]
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    backend = make_fem_backend(space, exp.params)
    k = 0.01
    state = init_state(backend, k, exact_at=exp.exact.field_at)
    assert np.allclose(state.u_curr, np.exp(-PI * k) * state.u_prev, rtol=1e-12)


def test_init_rejects_bad_step_and_mode():
    _, params, backend = fd_setup()
    with pytest.raises(ValueError):
        init_state(backend, 0.0)


def test_run_takes_one_step_when_T_equals_k():
    _, params, backend = fd_setup(u0=sine_field())
    state, trace = run(backend, k=0.05, n_steps=1)
    assert state.n == 2
    assert trace.t.size == 2


@pytest.mark.parametrize("n_steps", [-1, 2.5])
def test_run_rejects_a_step_count_that_is_not_a_nonnegative_integer(n_steps):
    _, params, backend = fd_setup(u0=sine_field())
    with pytest.raises(ValueError, match="step count must be a nonnegative integer"):
        run(backend, k=0.05, n_steps=n_steps)


def test_run_rejects_more_than_max_steps_before_any_set_up(monkeypatch):
    # the count is rejected before init_state, so before any per-step
    # array is allocated; the stub fails the test should it get that far
    _, params, backend = fd_setup(m=4, u0=sine_field())

    def no_set_up(*args, **kwargs):
        raise AssertionError("run() set up a run of more than MAX_STEPS steps")

    monkeypatch.setattr(stepper, "init_state", no_set_up)
    with pytest.raises(ValueError, match=f"step count {MAX_STEPS + 1} exceeds"):
        run(backend, k=0.05, n_steps=MAX_STEPS + 1)


def test_single_mode_follows_scalar_recurrence():
    grid, params, backend = fd_setup(m=16, alpha=0.0, beta=0.0)
    k = 1e-3
    lam = fd_eigenvalue(grid, 1, 1)
    v = sine_mode(grid, 1, 1)
    seq = modal_recurrence(Mode(1, 1, lam), 0.0, 0.0, k, 200, u0=1.0, u1=1.0)
    state = StepperState(n=1, k=k, levels=np.stack((v, v)))
    for i in range(200):
        state = step(state, backend)
        ref = seq[state.n] * v
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(state.u_curr - ref)) <= 1e-8 * scale


def test_example1_error_magnitude_and_rate():
    from dampedwave.harness import run_convergence
    exp = builtin_experiments()["ex1"]
    table = run_convergence(exp, n_values=(5, 10))
    # reference value 2.1124e-3 comes from an unstructured-mesh run of the
    # same setup; agreement is at factor level, not digit level
    assert table.l2[1] <= 3 * 2.1124e-3
    assert table.l2[1] >= 2.1124e-3 / 3
    assert 1.4 <= table.rate_l2[1] <= 2.3


def test_energy_trace_monotone_for_damped_run():
    _, params, backend = fd_setup(m=12, alpha=PI, beta=1.0 / PI, u0=sine_field())
    _, trace = run(backend, k=0.005, n_steps=100)
    assert trace.monotone()
    assert trace.energy[-1] < trace.energy[0]


def test_constant_schedule_matches_plain_constant():
    sched = TimeSchedule(lambda t: PI, lo=PI, hi=PI)
    grid = build_fd_grid(UNIT_SQUARE, 8)
    p_const = ModelParams(domain=UNIT_SQUARE, alpha=PI, beta=0.1, u0=sine_field())
    p_sched = ModelParams(domain=UNIT_SQUARE, alpha=sched, beta=0.1, u0=sine_field())
    b1 = make_fd_backend(grid, p_const)
    b2 = make_fd_backend(grid, p_sched)
    s1, _ = run(b1, k=0.01, n_steps=10)
    s2, _ = run(b2, k=0.01, n_steps=10)
    assert np.array_equal(s1.u_curr, s2.u_curr)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE,
                    alpha=TimeSchedule(lambda t: 2.0 - t, lo=0.5, hi=2.0))
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE,
                    alpha=TimeSchedule(lambda t: 1.0, lo=2.0, hi=3.0))
    with pytest.raises(ValueError, match="hi < inf"):
        ModelParams(domain=UNIT_SQUARE,
                    alpha=TimeSchedule(lambda t: 1.0, lo=1.0, hi=math.inf))


def test_schedule_validated_over_the_run():
    # nondecreasing on the construction-time sample window [0, 20], but it
    # drops at t = 25, inside a run to T = 30
    sched = TimeSchedule(lambda t: 2.0 if t < 25.0 else 1.0, lo=1.0, hi=2.0)
    grid = build_fd_grid(UNIT_SQUARE, 4)
    params = ModelParams(domain=UNIT_SQUARE, alpha=sched, u0=sine_field())
    backend = make_fd_backend(grid, params)
    with pytest.raises(ValueError, match="nondecreasing"):
        run(backend, k=0.5, n_steps=60)
    state, _ = run(backend, k=0.5, n_steps=40)
    assert state.n == 41


def test_non_finite_state_fails_fast_as_step_error():
    # FD steps by multipliers, so the NaN surfaces at the flush, in the
    # energy of the state's pair (U^2, U^3), named as run names it: by the
    # step that made its newest level; a FEM step's CG meets it first
    _, params, backend = fd_setup(alpha=1.0, beta=0.5)
    u = np.ones(backend.ndof)
    u[2] = np.nan
    state = StepperState(n=3, k=0.01, levels=np.stack((u, u)))
    with pytest.raises(StepError, match=r"non-finite energy at step n=2 \(t=0.02\)"):
        step(state, backend)
    fem = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), params)
    with pytest.raises(StepError, match=r"CG failed at step n=3 \(t=0.03\).*in 0 iterations"):
        step(state, fem)


def _dense(op):
    """The dense matrix of an operator with ``dim`` and ``matvec``."""
    return np.column_stack([op.matvec(e) for e in np.eye(op.dim)])


def _check_system(backend, k, t, a, b, w=0.0, s=0.0):
    """The cached sine-basis system against S2' A S2 with a dense sine basis
    S2 and the dense A = (1/k^2 + a/k) M + W/k + (b/k + 1) K + S/k, where a
    spatial coefficient contributes its weighted operator W or S and a
    scalar one its value a or b; its preconditioner against the division by
    diag(S2' A S2); and the starting point, right-hand side and starting
    residual that a step forms from the history rows of HISTORY levels (one
    product with its three-row weight table) against S2' times the
    extrapolant and those formed with the dense D = a M + W + b K + S."""
    m, kk = backend.M.to_dense(), backend.K.to_dense()
    expected = (1 / k ** 2 + a / k) * m + w / k + (b / k + 1) * kk + s / k
    s2 = np.kron(backend.basis.matrix, backend.basis.matrix)
    in_basis = s2.T @ expected @ s2
    tol = 1e-14 * np.max(np.abs(in_basis))
    scales = backend.params.check_schedules([t])[0]
    system, precond, weights = backend._step_system(k, *scales)
    rng = np.random.default_rng(5)
    r = rng.normal(size=backend.ndof)
    want = r / np.diag(in_basis)
    # a C-level multiplication by the reciprocal symbol, no Python frame
    assert isinstance(precond, functools.partial) and precond.func is np.multiply
    assert np.allclose(precond(r), want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
    assert np.allclose(_dense(system), in_basis, rtol=1e-14, atol=tol)
    assert backend._step_system(k, *scales)[0] is system
    levels = rng.normal(size=(HISTORY, backend.ndof))
    slots = history_slots(backend, [backend.basis.transform(u) for u in levels])
    assert weights[HISTORY - 2].shape == (3, len(slots))
    x0, rhs, r0 = weights[HISTORY - 2] @ slots
    damping = a * m + w + b * kk + s
    want_x0 = np.dot(EXTRAPOLANTS[HISTORY], levels)
    want_rhs = m @ (2.0 * levels[0] - levels[1]) / k ** 2 + damping @ levels[0] / k
    want_r0 = want_rhs - expected @ want_x0
    assert np.max(np.abs(x0 - s2.T @ want_x0)) <= 1e-13 * np.max(np.abs(want_x0))
    for got, want in ((rhs, want_rhs), (r0, want_r0)):
        assert np.max(np.abs(got - s2.T @ want)) <= 1e-13 * np.max(np.abs(want_rhs))
    return system


def test_cached_system_matches_dense_fem_constant():
    exp = builtin_experiments()["ex1"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 6)), exp.params)
    _check_system(backend, 0.01, 0.3, exp.params.alpha, exp.params.beta)


def test_cached_system_matches_dense_fem_weighted_mass():
    exp = builtin_experiments()["spacevar"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 6)), exp.params)
    w = backend.weak_op.to_dense()
    assert not np.allclose(w, backend.M.to_dense())
    _check_system(backend, 0.02, 0.0, 0.0, exp.params.beta, w=w)


def test_cached_system_matches_dense_fd_schedule():
    exp = builtin_experiments()["timevar"]
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 6), exp.params)
    systems = [_check_system(backend, 0.01, t,
                             exp.params.alpha.fn(t), exp.params.beta)
               for t in (0.1, 0.7)]
    assert not np.array_equal(systems[0].symbol, systems[1].symbol)


def test_cached_system_matches_dense_fem_schedule():
    exp = builtin_experiments()["timevar"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 6)), exp.params)
    systems = [_check_system(backend, 0.01, t,
                             exp.params.alpha.fn(t), exp.params.beta)
               for t in (0.1, 0.7)]
    assert not np.array_equal(systems[0].symbol, systems[1].symbol)


@pytest.mark.parametrize("case", ["beta", "both", "fd"])
def test_cached_system_matches_dense_weighted(case):
    # each weighted operator takes its own factor in A: a weighted stiffness
    # on FEM (S, beside M and K), both weighted (W and S) and a weighted
    # mass on FD (W, with a zero kappa)
    backend = _weighted_case(case)
    assert len(backend.operators) == (4 if case == "both" else 3)
    alpha, beta = backend.params.damping
    a, b = (0.0 if c.weight is not None else c.scale(0.0) for c in (alpha, beta))
    w = 0.0 if alpha.weight is None else backend.weak_op.to_dense()
    s = 0.0 if beta.weight is None else backend.strong_op.to_dense()
    _check_system(backend, 0.02, 0.0, a, b, w=w, s=s)


@pytest.mark.parametrize("depth", range(2, HISTORY + 1))
@pytest.mark.parametrize("case", ["ex3ii", "both"])
def test_each_depth_reads_zeros_from_the_rows_it_lacks(case, depth):
    # a step from fewer than HISTORY levels reads the HISTORY rows below it,
    # those of the levels it lacks being zero, through the weight table of
    # its depth, which is zero on their slots: x0 is the extrapolant of its
    # levels, and b and r0 are the dense right-hand side and residual, as
    # _check_system finds for HISTORY levels (BLAS groups a product's sum by
    # its length, so x0 agrees bit for bit with the extrapolant at depth 2
    # only, and the padded product with the one over its own rows to rounding)
    backend = _weighted_case(case)
    k = 0.02
    a, b = backend.params.check_schedules([0.0])[0]
    table = backend._step_system(k, a, b)[2][depth - 2]
    width = 1 + len(backend.operators)
    assert table.shape == (3, HISTORY * width)
    assert not table[:, depth * width:].any()
    levels = np.random.default_rng(depth).normal(size=(depth, backend.ndof))
    padded = np.vstack((levels, np.zeros((HISTORY - depth, backend.ndof))))
    x0, rhs, r0 = table @ history_slots(backend, padded)
    assert np.allclose(x0, EXTRAPOLANTS[depth] @ levels, rtol=0.0,
                       atol=1e-14 * np.max(np.abs(levels)))
    s2 = np.kron(backend.basis.matrix, backend.basis.matrix)
    damping = a * backend.weak_op.to_dense() + b * backend.strong_op.to_dense()
    m, kk, damping = (s2.T @ op @ s2 for op in
                      (backend.M.to_dense(), backend.K.to_dense(), damping))
    want_rhs = m @ (2.0 * levels[0] - levels[1]) / k ** 2 + damping @ levels[0] / k
    want_r0 = want_rhs - (m / k ** 2 + damping / k + kk) @ x0
    for got, want in ((rhs, want_rhs), (r0, want_r0)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want_rhs))


@pytest.mark.parametrize("kind,name", [("fem", "ex3ii"), ("fd", "timevar")])
def test_a_step_allocates_only_its_own_rows(kind, name):
    # step() is _run over one step, whose history block holds that step's
    # row and the HISTORY rows below it: at N = 64 one step from the initial
    # state peaks near 0.9 MB, where a block of BLOCK + HISTORY rows would
    # peak near 6.8 MB (FEM) and 8.9 MB (FD)
    exp = builtin_experiments()[name]
    backend, _ = build_backend(exp.params, 64, kind)
    state = init_state(backend, exp.time_step(64))
    tracemalloc.start()
    try:
        step(state, backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("name", ["timevar", "ex1"])
def test_sine_basis_multipliers_are_the_cg_systems_symbol_and_weights(name):
    # a sine-basis run steps by A's symbol and the multipliers of U^n and
    # U^{n-1}; at each step time they are the symbol of the CG system and its
    # right-hand-side weights of 2 levels (the b row of the weight table, on
    # the product slots, zero on the level slots) applied to the operators'
    # symbols
    backend, _ = build_backend(builtin_experiments()[name].params, 6, "fd")
    assert backend.diagonal_in_basis
    k, times = 0.01, (0.0, 0.3, 1.7)
    scales = backend.params.check_schedules(times)
    multipliers = backend._multipliers(k, scales)
    assert multipliers.shape == (len(times), 3, backend.ndof)
    symbols, g, h = multipliers.swapaxes(0, 1)
    m, kk = backend.M.to_dense(), backend.K.to_dense()
    s2 = np.kron(backend.basis.matrix, backend.basis.matrix)
    for i, (a, b) in enumerate(scales):
        system, _, weights = backend._step_system(k, a, b)
        symbol = system.symbol
        assert np.allclose(symbols[i], symbol, rtol=1e-14, atol=0.0)
        b_row = weights[0][1].reshape(HISTORY, 1 + len(backend.operators))
        assert np.array_equal(b_row[:, 0], np.zeros(HISTORY)) and not b_row[2:].any()
        rhs = b_row[:, 1:] @ backend._symbols
        for got, want in ((g[i], rhs[0] / symbol), (h[i], rhs[1] / symbol)):
            assert np.allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))
        damping = a * backend.weak_op.to_dense() + b * backend.strong_op.to_dense()
        want = np.diag(s2.T @ (m / k ** 2 + damping / k + kk) @ s2)
        assert np.allclose(symbols[i], want, rtol=1e-12, atol=0.0)


def test_backend_reuse_matches_fresh_backends():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 6))
    f1 = ScalarField(lambda x, y: 2 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y))
    params = ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=0.5, u0=sine_field(),
                         forcing=f1)
    shared = make_fem_backend(space, params)
    for k in (0.02, 0.05, 0.02):
        fresh = make_fem_backend(space, params)
        s_shared, tr_shared = run(shared, k=k, n_steps=20)
        s_fresh, tr_fresh = run(fresh, k=k, n_steps=20)
        assert np.array_equal(s_shared.u_curr, s_fresh.u_curr)
        assert np.array_equal(tr_shared.energy, tr_fresh.energy)
        assert np.array_equal(shared.forcing, fresh.forcing)
        assert np.array_equal(steady_state(shared), steady_state(fresh))


def test_constant_coefficient_validation():
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE, alpha=-1.0)
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE, beta=-0.1)
    # infinite and NaN damping fail at construction, before any arithmetic on
    # them can warn (the suite turns warnings into errors)
    for bad in (math.inf, math.nan):
        for name in ("alpha", "beta"):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                ModelParams(domain=UNIT_SQUARE, **{name: bad})


def test_spatial_field_validation():
    bad = SpatialField(ScalarField(lambda x, y: 0.5 + x), lo=1.0, hi=1.5)
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE, alpha=bad)
    unbounded = SpatialField(ScalarField(lambda x, y: 1.0 + x), lo=1.0, hi=math.inf)
    with pytest.raises(ValueError, match="hi < inf"):
        ModelParams(domain=UNIT_SQUARE, beta=unbounded)


def test_fd_backend_rejects_spatial_beta():
    field = SpatialField(ScalarField(lambda x, y: 1.0 + 0.0 * x), lo=1.0, hi=1.0)
    params = ModelParams(domain=UNIT_SQUARE, beta=field)
    grid = build_fd_grid(UNIT_SQUARE, 8)
    with pytest.raises(NotImplementedError):
        make_fd_backend(grid, params)


def test_fd_backend_rejects_nonpositive_alpha_at_its_nodes():
    # a narrow dip to -9 at (1/48, 1/48): between the construction-time
    # samples, but on a node of the M = 48 grid
    dip = ScalarField(lambda x, y: 1.0 - 10.0 * np.exp(
        -((x - 1 / 48) ** 2 + (y - 1 / 48) ** 2) / 1e-5))
    params = ModelParams(domain=UNIT_SQUARE,
                         alpha=SpatialField(dip, lo=1.0, hi=1.5))
    with pytest.raises(ValueError, match="strictly positive"):
        make_fd_backend(build_fd_grid(UNIT_SQUARE, 48), params)
    assert make_fd_backend(build_fd_grid(UNIT_SQUARE, 24), params).ndof == 23 ** 2


# 1 - 0.5 exp(-|(x, y) - (1/48, 1/48)|^2 / 1e-5): a narrow dip to 0.5, below
# the stated lo = 1 but between the construction-time samples
HALF_DIP = SpatialField(ScalarField(lambda x, y: 1.0 - 0.5 * np.exp(
    -((x - 1 / 48) ** 2 + (y - 1 / 48) ** 2) / 1e-5)), lo=1.0, hi=1.5)


def test_fd_backend_checks_alpha_range_at_its_nodes():
    params = ModelParams(domain=UNIT_SQUARE, alpha=HALF_DIP)
    # (1/48, 1/48) is a node of the M = 48 grid, where the weight is 0.5
    with pytest.raises(ValueError, match=r"\[lo, hi\] = \[1, 1.5\] at the grid nodes"):
        make_fd_backend(build_fd_grid(UNIT_SQUARE, 48), params)
    assert make_fd_backend(build_fd_grid(UNIT_SQUARE, 24), params).ndof == 23 ** 2


def test_fem_backend_checks_alpha_range_at_its_quadrature_points():
    params = ModelParams(domain=UNIT_SQUARE, alpha=HALF_DIP)
    # an edge midpoint of the N = 96 mesh lies 0.5/96 from the dip
    with pytest.raises(ValueError, match="at the quadrature points"):
        make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 96)), params)
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), params)
    assert backend.ndof == 7 ** 2


def test_run_reports_cg_iterations_and_residuals_per_step():
    _, params, fd = fd_setup(m=12, alpha=PI, beta=1.0 / PI, u0=sine_field())
    state, trace = run(fd, k=0.01, n_steps=20)
    # the FD operators are diagonal in the sine basis: the run divides by
    # the symbols and solves nothing
    assert np.array_equal(trace.cg_iterations, np.zeros(20, dtype=int))
    assert np.array_equal(trace.cg_residuals, np.zeros(20))
    # and so does a step from its final state, which _run takes as step() does
    _, one = stepper._run(fd, state, 1, None)
    assert (one.cg_iterations.tolist(), one.cg_residuals.tolist()) == ([0], [0.0])
    # a spatial alpha weights the mass, which the sine basis does not
    # diagonalise, so those steps stay CG solves
    exp = builtin_experiments()["spacevar"]
    fd = make_fd_backend(build_fd_grid(UNIT_SQUARE, 12), exp.params)
    _, trace = run(fd, k=0.01, n_steps=20)
    assert trace.cg_iterations.size == 20 and trace.cg_iterations.min() >= 1
    assert np.all(trace.cg_residuals <= STEP_RTOL)
    exp = builtin_experiments()["ex1"]
    fem = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 12)), exp.params)
    assert fem.mass_skew > 0.0 and not fem.diagonal_in_basis
    state, trace = run(fem, k=exp.time_step(12), n_steps=8)
    assert trace.cg_iterations.size == trace.t.size - 1
    assert 1 <= trace.cg_iterations.min() and trace.cg_iterations.max() <= 6
    assert np.all(trace.cg_residuals <= STEP_RTOL)
    # unweighted P1 steps in the sine basis, but still by CG, also a step
    # from the final state
    _, one = stepper._run(fem, state, 1, None)
    assert one.cg_iterations[0] >= 1 and one.cg_residuals[0] <= STEP_RTOL


def test_fd_steady_distances_match_a_chain_of_cg_steps():
    # the run steps by multipliers; the reference solves each step's grid
    # system by CG and measures each level's M-norm distance to u_inf
    exp = builtin_experiments()["forcing"]
    rep = run_steady(exp, 16, backend="fd")
    backend, _ = build_backend(exp.params, 16, "fd")
    assert backend.diagonal_in_basis
    ref = cg_reference(backend, rep.k, rep.distances.size - 1, reference=rep.u_inf)
    assert np.max(np.abs(rep.distances - ref.distances)) <= 1e-12 * rep.distances[0]


NAN_FIELD = ScalarField(lambda x, y: np.full_like(np.asarray(x, dtype=float), np.nan))


@pytest.mark.parametrize("data", ["forcing", "u0"])
def test_nan_data_on_a_sine_diagonal_backend_fails_in_init_state(data):
    # non-finite data is bad input, rejected before any solve
    fields = {"u0": sine_field(), "forcing": sine_field(), data: NAN_FIELD}
    _, params, backend = fd_setup(alpha=1.0, beta=0.5, **fields)
    assert backend.diagonal_in_basis
    with pytest.raises(ValueError, match="finite"):
        init_state(backend, k=0.01)
    with pytest.raises(ValueError, match="finite"):
        run(backend, k=0.01, n_steps=10)


def test_energy_turning_non_finite_mid_run_names_the_step():
    # a forcing of 1e156 drives the energy past the float range: it is
    # finite through step 3 and overflows at step 4
    force = ScalarField(lambda x, y: 1e156 * np.sin(PI * x) * np.sin(PI * y))
    _, params, backend = fd_setup(alpha=1.0, beta=0.5, forcing=force)
    assert backend.diagonal_in_basis
    # the StepError is all the caller sees: no numpy overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepError, match=r"n=4 \(t=0.04\)"):
            run(backend, k=0.01, n_steps=50, exact_at=lambda t: ZERO_FIELD)


def test_energy_turning_non_finite_after_a_block_wrap_names_the_step():
    # the energy is quadratic in the data: with zero initial data, scaling
    # the forcing by 2^515 scales every energy's sum by exactly 2^1030 until
    # it overflows, which first happens past one history block here
    def forced(amplitude):
        force = ScalarField(lambda x, y: amplitude * np.sin(PI * x) * np.sin(PI * y))
        return fd_setup(alpha=1.0, beta=0.5, forcing=force)[2]

    zero = dict(exact_at=lambda t: ZERO_FIELD)
    _, trace = run(forced(1.5), k=0.01, n_steps=100, **zero)
    with np.errstate(over="ignore"):
        first = np.flatnonzero(np.isinf(np.ldexp(2.0 * trace.energy, 2 * 515)))[0]
    assert stepper.BLOCK < first < trace.t.size - 1
    backend = forced(1.5 * 2.0 ** 515)
    assert backend.diagonal_in_basis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepError, match=rf"n={first} \(t={first * 0.01:g}\)"):
            run(backend, k=0.01, n_steps=100, **zero)


def test_sine_basis_run_makes_no_per_step_product_or_transform(monkeypatch):
    # set-up, the Taylor start, the forcing and reference transforms and the
    # final state's transforms back to grid values are all the grid work a
    # sine-basis run does, however many steps it takes, and it builds no
    # step system
    calls = {}

    def count(cls, name):
        original = getattr(cls, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(cls, name, counted)

    params = ModelParams(
        domain=UNIT_SQUARE, beta=0.1, u0=sine_field(), u1=sine_field(),
        forcing=sine_field(), alpha=TimeSchedule(lambda t: 2.0 - np.exp(-t), 1.0, 2.0))
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params)
    assert backend.diagonal_in_basis
    for cls, name in ((SparseMatrix, "matvec"), (SineBasis, "transform"),
                      (stepper.BackendHandles, "_step_system")):
        count(cls, name)
    reference = np.random.default_rng(3).standard_normal(backend.ndof)
    counts = []
    for n_steps in (10, 150):
        calls.clear()
        run(backend, k=0.01, n_steps=n_steps, reference=reference)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0].keys() == {"matvec", "transform"}
    assert min(counts[0].values()) >= 1


@pytest.mark.parametrize("kind", ["fd", "fem"])
def test_run_evaluates_each_schedule_once_per_step_time(kind):
    calls = []

    def fn(t):
        calls.append(t)
        return 2.0 - np.exp(-t)

    params = ModelParams(domain=UNIT_SQUARE, alpha=TimeSchedule(fn, lo=1.0, hi=2.0),
                         beta=0.1, u0=sine_field(), u1=sine_field())
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params) if kind == "fd" \
        else make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), params)
    assert backend.diagonal_in_basis == (kind == "fd")
    calls.clear()
    _, trace = run(backend, k=0.01, n_steps=20)
    n_steps = trace.t.size - 1
    assert n_steps == 20
    # the Taylor start in init_state reads t = 0, then run each step time
    assert calls == pytest.approx([0.0, *trace.t])


@pytest.mark.parametrize("name,operators", [("ex3ii", 2), ("spacevar", 3)])
def test_cg_run_makes_one_matvec_per_iteration_and_per_operator(name, operators,
                                                                monkeypatch):
    # every step works in the sine basis: each application of the operators
    # is one skew product, and one grid matvec of the weighted mass for
    # spacevar (a spatial alpha); unweighted P1 (ex3ii) makes no grid matvec
    exp = builtin_experiments()[name]
    backend = make_fem_backend(FemSpace(build_tri_mesh(exp.domain, 8)), exp.params)
    assert len(backend.operators) == operators and not backend.diagonal_in_basis
    weighted = operators - 2
    k = exp.time_step(8)
    matvecs = []   # one entry per grid matvec
    skews = []     # one entry per skew product
    marks = []     # (matvecs, skew products) so far, after each level's products
    matvec, skew_product = SparseMatrix.matvec, sparse.skew_product
    sine_products = stepper.BackendHandles._sine_products

    def counted(self, x):
        matvecs.append(1)
        return matvec(self, x)

    def counted_skew(factor, u):
        skews.append(1)
        return skew_product(factor, u)

    def counted_products(self, u, out=None):
        out = sine_products(self, u, out=out)
        marks.append((len(matvecs), len(skews)))
        return out

    monkeypatch.setattr(SparseMatrix, "matvec", counted)
    # A's matvec calls sparse's binding, the products stepper's
    monkeypatch.setattr(sparse, "skew_product", counted_skew)
    monkeypatch.setattr(stepper, "skew_product", counted_skew)
    monkeypatch.setattr(stepper.BackendHandles, "_sine_products", counted_products)
    init_state(backend, k)
    start = len(matvecs)
    matvecs.clear()
    final, trace = run(backend, k, exp.n_steps(k))
    n_steps = trace.t.size - 1
    # the products of U^1 and U^0, then a step ends with those of U^{n+1}
    assert len(marks) == 2 + n_steps
    per_step = [(m1 - m0, s1 - s0) for (m0, s0), (m1, s1) in zip(marks[1:], marks[2:])]
    # per step one A p per CG iteration and the products of U^{n+1}; at
    # start-up the Taylor start, then the products of U^0 and U^1
    per_level = list(trace.cg_iterations + 1)
    assert len(matvecs) == start + weighted * (2 + sum(per_level))
    assert len(skews) == 2 + sum(per_level)
    assert per_step == [(weighted * n, n) for n in per_level]
    monkeypatch.undo()
    assert_runs_agree(final, trace, dense_reference(backend, k, n_steps))


@pytest.mark.parametrize("name", ["ex3ii", "spacevar"])
def test_a_step_refines_in_place_what_cg_solve_returns(name, monkeypatch):
    # the in-place step on the history block and cg_refine on the warm start,
    # right-hand side and residual of a separate product of the weight table
    # with the same history rows, with the same system, agree bit for bit,
    # and so do the new level's products; the run's steps agree with dense
    # solves
    exp = builtin_experiments()[name]
    backend = make_fem_backend(FemSpace(build_tri_mesh(exp.domain, 8)), exp.params)
    assert exp.params.forcing is None
    k = exp.time_step(8)
    state, _ = run(backend, k, HISTORY)
    assert len(state.levels) == HISTORY
    rows = np.array([backend.basis.transform(u) for u in state.levels])
    scales = tuple(backend.params.check_schedules([state.n * k])[0])
    system, precond, weights = backend._step_system(k, *scales)
    x, b, r0 = weights[HISTORY - 2] @ history_slots(backend, rows)
    assert np.allclose(x, EXTRAPOLANTS[HISTORY] @ rows, rtol=0.0,
                       atol=1e-14 * np.max(np.abs(rows)))
    report = cg_refine(system, b, x, r0, precond, STEP_RTOL)
    sine_products = stepper.BackendHandles._sine_products
    seen = []

    def recorded(self, u, out=None):
        seen.append(sine_products(self, u, out=out).copy())
        return seen[-1]

    monkeypatch.setattr(stepper.BackendHandles, "_sine_products", recorded)
    new, one = stepper._run(backend, state, 1, None)  # step()'s step
    monkeypatch.undo()
    assert report[0] >= 1
    assert (one.cg_iterations.tolist(), one.cg_residuals.tolist()) == \
        ([report[0]], [report[1]])
    assert np.array_equal(new.u_curr, backend.basis.transform(x))
    assert np.array_equal(seen[-1], backend._sine_products(x))
    final, trace = run(backend, k, HISTORY + 1)
    assert_runs_agree(final, trace, dense_reference(backend, k, HISTORY + 1))


def test_a_zero_kappa_makes_no_skew_product(monkeypatch):
    # weighted FD (spacevar) steps by CG, but states kappa 0: neither A's
    # applications nor the new levels' products form a skew product of zeros
    exp = builtin_experiments()["spacevar"]
    backend, _ = build_backend(exp.params, 8, "fd")
    assert backend.mass_skew == 0.0 and not backend.diagonal_in_basis
    skew_product, skews = sparse.skew_product, []

    def counted_skew(factor, u):
        skews.append(1)
        return skew_product(factor, u)

    # A's matvec calls sparse's binding, the products stepper's
    monkeypatch.setattr(sparse, "skew_product", counted_skew)
    monkeypatch.setattr(stepper, "skew_product", counted_skew)
    k = exp.time_step(8)
    final, trace = run(backend, k, 40)
    monkeypatch.undo()
    assert trace.cg_iterations.min() >= 1 and skews == []
    assert_runs_agree(final, trace, dense_reference(backend, k, 40))


def test_steady_distances_cost_one_matvec_per_run(monkeypatch):
    # the block's products already hold M U of every level, so a reference
    # adds only its own M u, once, and no product per step: one skew
    # product and no grid matvec, also on forced spacevar, whose weighted
    # mass M u does not involve (forcing, unweighted, makes no grid matvec
    # in its steps at all)
    exp = builtin_experiments()["forcing"]
    spacevar = replace(builtin_experiments()["spacevar"].params,
                       forcing=exp.params.forcing)
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(a, x):
            calls[name] = calls.get(name, 0) + 1
            return original(a, x)

        monkeypatch.setattr(owner, name, counted)

    count(SparseMatrix, "matvec")
    # A's matvec calls sparse's binding, the products and M u stepper's
    count(sparse, "skew_product")
    count(stepper, "skew_product")
    for params, weighted in ((spacevar, 1), (exp.params, 0)):
        backend, _ = build_backend(params, 8, "fem")
        assert len(backend.operators) == 2 + weighted
        assert not backend.diagonal_in_basis
        u_inf, k = steady_state(backend), exp.time_step(8)
        counts, traces = [], []
        for n_steps, reference in ((16, None), (16, u_inf), (40, u_inf)):
            calls.clear()
            traces.append(run(backend, k, n_steps, reference=reference)[1])
            counts.append(dict(calls))
        assert traces[0].distance is None and traces[1].distance.size == traces[1].t.size
        assert np.array_equal(traces[0].cg_iterations, traces[1].cg_iterations)
        assert counts[1]["matvec"] == counts[0]["matvec"]
        assert counts[1]["skew_product"] == counts[0]["skew_product"] + 1
        if not weighted:
            # the Taylor start's grid matvecs, however many steps follow
            assert counts[1]["matvec"] == counts[2]["matvec"]


@pytest.mark.parametrize("kind", ["fd", "fem"])
def test_run_rejects_a_reference_of_wrong_shape_or_non_finite(kind):
    exp = builtin_experiments()["forcing"]
    backend, _ = build_backend(exp.params, 6, kind)
    ndof = backend.ndof
    for bad in (np.zeros(ndof + 1), np.zeros((2, ndof)), np.zeros((ndof, 1)),
                np.full(ndof, np.nan), np.r_[np.inf, np.zeros(ndof - 1)]):
        with pytest.raises(ValueError, match="reference"):
            run(backend, k=0.1, n_steps=10, reference=bad)


@pytest.mark.parametrize("kind", ["fd", "fem"])
def test_distance_from_zero_data_to_a_zero_reference_is_exactly_zero(kind):
    # every level stays exactly zero; the distance must read 0, not NaN
    params = ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=0.5)
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params) if kind == "fd" \
        else make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), params)
    assert backend.diagonal_in_basis == (kind == "fd")
    _, trace = run(backend, k=0.01, n_steps=100, reference=np.zeros(backend.ndof))
    assert np.array_equal(trace.distance, np.zeros(trace.t.size))


def _weighted_field(base, amp):
    return ScalarField(lambda x, y: base * (1.0 + amp * np.sin(PI * x) * np.sin(PI * y)))


def _weighted_case(case):
    if case == "fd":
        params = ModelParams(domain=UNIT_SQUARE, beta=0.1, alpha=SpatialField(
            _weighted_field(1.0, 0.5), lo=1.0, hi=1.5))
        return make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params)
    if case == "beta":
        params = ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=SpatialField(
            _weighted_field(0.1, 0.5), lo=0.1, hi=0.15))
    elif case == "both":
        params = ModelParams(
            domain=UNIT_SQUARE,
            alpha=SpatialField(_weighted_field(1.0, 0.5), lo=1.0, hi=1.5),
            beta=SpatialField(_weighted_field(0.1, 0.5), lo=0.1, hi=0.15))
    else:
        params = builtin_experiments()[case].params
    return make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), params)


@pytest.mark.parametrize("case,operators",
                         [("ex3ii", 2), ("spacevar", 3), ("both", 4), ("fd", 3)])
def test_sine_products_are_the_coefficients_of_the_grid_products(case, operators):
    # the products of a level's sine-basis coefficients with the distinct
    # operators (M, K, then the weighted ones) are the coefficients of its
    # grid products, against a dense sine basis
    backend = _weighted_case(case)
    assert len(backend.operators) == operators
    s2 = np.kron(backend.basis.matrix, backend.basis.matrix)
    x = np.random.default_rng(11).normal(size=backend.ndof)
    got = backend._sine_products(s2.T @ x)
    want = np.array([s2.T @ (op.to_dense() @ x) for op in backend.operators])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for op, role in zip(backend.operators[2:], (backend.weak_op, backend.strong_op)):
        assert op is role


def test_nan_schedule_is_rejected_at_construction():
    with pytest.raises(ValueError, match="not finite"):
        ModelParams(domain=UNIT_SQUARE,
                    alpha=TimeSchedule(lambda t: np.nan, lo=1.0, hi=1.0))


def test_schedule_turning_nan_within_a_run_is_rejected():
    # within [lo, hi] on the construction-time sample window [0, 20]; from
    # t = 25 NaN, or finite but above hi
    for late, message in ((np.nan, "not finite"), (2.0, "leaves")):
        sched = TimeSchedule(lambda t, late=late: 1.0 if t < 25.0 else late,
                             lo=1.0, hi=1.0)
        _, params, backend = fd_setup(m=4, alpha=sched, u0=sine_field())
        with pytest.raises(ValueError, match=message):
            run(backend, k=0.5, n_steps=60)


# NaN only at x > 0.97: past the construction-time samples (x <= 23/24), but
# on nodes of the M = 48 grid and quadrature points of the N = 48 mesh
NAN_EDGE = SpatialField(ScalarField(
    lambda x, y: np.where(np.asarray(x) > 0.97, np.nan, 1.0 + 0.0 * y)), lo=1.0, hi=1.5)


@pytest.mark.parametrize("kind", ["fd", "fem"])
def test_nan_damping_weight_is_rejected(kind):
    params = ModelParams(domain=UNIT_SQUARE, alpha=NAN_EDGE)
    with pytest.raises(ValueError, match="finite"):
        if kind == "fd":
            make_fd_backend(build_fd_grid(UNIT_SQUARE, 48), params)
        else:
            make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 48)), params)


def _history(backend, k, steps=HISTORY - 2):
    """A state HISTORY - 2 steps past the start, so it carries HISTORY levels."""
    state = init_state(backend, k)
    for _ in range(steps):
        state = step(state, backend)
    return state


def _dense_system(backend, state):
    """A and the right-hand side of the step from ``state``, built densely."""
    k, t = state.k, state.n * state.k
    alpha, beta = backend.params.damping
    m = backend.M.to_dense()
    damp = alpha.scale(t) * backend.weak_op.to_dense() \
        + beta.scale(t) * backend.strong_op.to_dense()
    a = m / k ** 2 + damp / k + backend.K.to_dense()
    rhs = m @ (2.0 * state.u_curr - state.u_prev) / k ** 2 \
        + damp @ state.u_curr / k + backend.forcing
    return a, rhs


def test_extrapolants_reproduce_polynomials_of_their_degree():
    times = -np.arange(HISTORY, dtype=float)  # newest first, next level at 1
    for levels, weights in EXTRAPOLANTS.items():
        for degree in range(levels):
            assert sum(w * t ** degree for w, t in zip(weights, times)) == 1.0


def test_two_level_state_steps_from_the_linear_guess():
    exp = builtin_experiments()["ex1"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 12)), exp.params)
    k = exp.time_step(12)
    state = init_state(backend, k, exact_at=exp.exact.field_at)
    new, one = stepper._run(backend, state, 1, None)  # step()'s step
    system, precond, _ = backend._step_system(k, *backend.params.check_schedules([k])[0])
    a, rhs = _dense_system(backend, state)
    # the linear guess refined in the sine basis
    b, x = (backend.basis.transform(v) for v in (rhs, 2.0 * state.u_curr - state.u_prev))
    iterations, _ = cg_refine(system, b, x, b - system.matvec(x), precond, STEP_RTOL)
    want = backend.basis.transform(x)
    # the starting residual comes from the state's products instead of a
    # product with the guess: the same CG up to rounding
    bound = 2.0 * STEP_RTOL * np.linalg.cond(a)
    assert np.linalg.norm(new.u_curr - want) <= bound * np.linalg.norm(want)
    assert one.cg_iterations.tolist() == [iterations]
    assert np.array_equal(new.levels, [new.u_curr, state.u_curr, state.u_prev])
    assert len(step(new, backend).levels) == 4


def test_a_step_on_a_sine_diagonal_backend_solves_nothing(monkeypatch):
    # step() is run's loop over one step, so on FD without a weight it takes
    # the multipliers: no CG, and the step's trace reports none
    exp = builtin_experiments()["timevar"]
    backend, _ = build_backend(exp.params, 8, "fd")
    assert backend.diagonal_in_basis
    state = init_state(backend, exp.time_step(8))

    def no_cg(*args):
        raise AssertionError("a sine-diagonal step ran CG")

    monkeypatch.setattr(stepper, "cg_refine", no_cg)
    new = step(state, backend)
    assert new.n == state.n + 1
    _, one = stepper._run(backend, state, 1, None)
    assert (one.cg_iterations.tolist(), one.cg_residuals.tolist()) == ([0], [0.0])


@pytest.mark.parametrize("kind,name", [("fd", "timevar"), ("fem", "ex3ii"),
                                       ("fem", "spacevar")])
def test_a_step_keeps_the_older_levels_and_agrees_with_run(kind, name):
    # the levels a step did not produce come back exactly as they went in;
    # its new level is run's next one, up to the solve's tolerance (the
    # run carries its levels in the sine basis, the state in grid values)
    exp = builtin_experiments()[name]
    backend, _ = build_backend(exp.params, 8, kind)
    k = exp.time_step(8)
    state, _ = run(backend, k, HISTORY)
    want, _ = run(backend, k, HISTORY + 1)
    levels = state.levels.copy()
    new, one = stepper._run(backend, state, 1, None)  # step()'s step
    assert np.array_equal(state.levels, levels)
    assert new.n == want.n and len(new.levels) == HISTORY
    assert np.array_equal(new.levels[1:], levels[:HISTORY - 1])
    a, _ = _dense_system(backend, state)
    bound = 2.0 * STEP_RTOL * np.linalg.cond(a)
    assert np.linalg.norm(new.u_curr - want.u_curr) <= bound * np.linalg.norm(want.u_curr)
    assert (one.cg_iterations[0] == 0) == backend.diagonal_in_basis


def test_state_with_older_levels_steps_within_tolerance_of_linear_guess():
    exp = builtin_experiments()["ex1"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 12)), exp.params)
    k = exp.time_step(12)
    state = _history(backend, k)
    assert len(state.levels) == HISTORY
    a, _ = _dense_system(backend, state)
    deepest, deep_trace = stepper._run(backend, state, 1, None)  # step()'s step
    linear, linear_trace = stepper._run(backend, replace(state, levels=state.levels[:2]),
                                        1, None)
    bound = 2.0 * STEP_RTOL * np.linalg.cond(a)
    assert np.linalg.norm(deepest.u_curr - linear.u_curr) \
        <= bound * np.linalg.norm(linear.u_curr)
    assert deep_trace.cg_iterations[0] < linear_trace.cg_iterations[0]


def test_products_of_another_backend_are_recomputed():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))

    def weighted(amp):
        weight = ScalarField(lambda x, y: 1.0 + amp * np.sin(PI * x) * np.sin(PI * y))
        params = ModelParams(domain=UNIT_SQUARE, beta=0.1, u0=sine_field(),
                             alpha=SpatialField(weight, lo=1.0, hi=1.0 + amp))
        return make_fem_backend(space, params)

    first, second = weighted(0.5), weighted(9.0)
    state = _history(first, 0.05)
    bare = StepperState(n=state.n, k=state.k, levels=state.levels[:2])
    got, want = step(state, second), step(bare, second)
    a, _ = _dense_system(second, state)
    bound = 2.0 * STEP_RTOL * np.linalg.cond(a)
    assert np.linalg.norm(got.u_curr - want.u_curr) <= bound * np.linalg.norm(want.u_curr)
    # M and K differ between the FEM and FD backends of one grid
    fd = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), second.params)
    assert energy_and_cross(state, fd) == energy_and_cross(bare, fd)


def test_a_level_cannot_be_replaced_apart_from_its_products():
    # u_curr is a view of levels[0], not a field, so a state stores each
    # level once
    exp = builtin_experiments()["ex1"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), exp.params)
    state = _history(backend, 0.01)
    with pytest.raises(TypeError):
        replace(state, u_curr=0.5 * state.u_curr)


def test_replaced_or_rewritten_levels_step_like_a_fresh_state():
    # a state carries no operator products, so new levels, whether given by
    # replace or written into u_curr, are what the step and the energy read
    # (a cached product of the old level gave E = 16.6 for 261.9 here)
    exp = builtin_experiments()["ex1"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), exp.params)
    state = _history(backend, 0.01)
    levels = state.levels.copy()
    levels[0] *= 0.5
    replaced = replace(state, levels=levels.copy())
    rewritten = _history(backend, 0.01)
    rewritten.u_curr[:] = levels[0]
    fresh = StepperState(n=state.n, k=state.k, levels=levels)
    want = step(fresh, backend)
    for got in (replaced, rewritten):
        assert energy_and_cross(got, backend) == energy_and_cross(fresh, backend)
        got = step(got, backend)
        assert np.array_equal(got.levels, want.levels)
        assert energy_and_cross(got, backend) == energy_and_cross(want, backend)


@pytest.mark.parametrize("n_steps", [1, stepper.BLOCK - 1, stepper.BLOCK,
                                     stepper.BLOCK + 1, stepper.BLOCK + 3,
                                     2 * stepper.BLOCK + 3])
@pytest.mark.parametrize("kind,name", [("fem", "ex3ii"), ("fem", "spacevar"),
                                       ("fd", "spacevar")])
def test_run_matches_a_chain_of_steps_across_history_blocks(kind, name, n_steps):
    # run() steps by CG in a history block that wraps when full (every
    # BLOCK steps, the first block included) and takes the energies and
    # distances of a whole block at once; a chain of dense solves, with
    # each state's energy and M-norm distance, is the reference
    exp = builtin_experiments()[name]
    backend, _ = build_backend(exp.params, 8, kind)
    assert not backend.diagonal_in_basis
    k = exp.time_step(8)
    reference = np.random.default_rng(5).standard_normal(backend.ndof)
    final, trace = run(backend, k, n_steps, reference=reference)
    assert final.n == n_steps + 1 and len(final.levels) == min(n_steps + 2, HISTORY)
    assert trace.distance.shape == trace.t.shape
    assert_runs_agree(final, trace, dense_reference(backend, k, n_steps, reference))


@pytest.mark.parametrize("shape", [(8,), (1, 8), (HISTORY + 1, 8), (2, 2, 8)])
def test_state_levels_are_two_to_history_rows(shape):
    with pytest.raises(ValueError, match=f"2 to {HISTORY} rows"):
        StepperState(n=1, k=0.01, levels=np.zeros(shape))


def test_direct_step_checks_the_schedule_it_evaluates():
    # within [lo, hi] on the construction-time window [0, 20], but 3 > hi
    # from t = 25: a step at t = 30 checks the value it evaluates
    sched = TimeSchedule(lambda t: 2.0 if t < 25.0 else 3.0, lo=1.0, hi=2.0)
    _, params, backend = fd_setup(m=4, alpha=sched, u0=sine_field())
    state = replace(init_state(backend, 0.5), n=60)
    with pytest.raises(ValueError, match="leaves"):
        step(state, backend)
    with pytest.raises(ValueError, match="leaves"):
        run(backend, k=0.5, n_steps=60)


def test_warm_started_decay_takes_one_cg_iteration_per_step():
    rep = run_decay(builtin_experiments()["ex3ii"], 16)
    its = rep.trace.cg_iterations
    assert its.size == 1024
    assert its.mean() <= 1.1 and its.max() <= 3


def test_warm_started_convergence_level_takes_one_cg_iteration_per_step():
    # ex1 at N = 20, k = 2h^2, as run_convergence runs it; from the cubic
    # extrapolant it takes 2.02 iterations per step
    exp = builtin_experiments()["ex1"]
    backend, _ = build_backend(exp.params, 20, "fem")
    k = exp.time_step(20)
    _, trace = run(backend, k, exp.n_steps(k) - 1, exact_at=exp.exact.field_at)
    assert trace.cg_iterations.size == 199
    assert trace.cg_iterations.mean() <= 1.1


@pytest.mark.parametrize("case", ["fem-ex1", "fd-timevar"])
def test_step_matches_scipy_spsolve(case):
    sp = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    kind, name = case.split("-")
    exp = builtin_experiments()[name]
    if kind == "fem":
        backend = make_fem_backend(FemSpace(build_tri_mesh(exp.domain, 16)), exp.params)
    else:
        backend = make_fd_backend(build_fd_grid(exp.domain, 16), exp.params)
    state = _history(backend, exp.time_step(16))
    assert len(state.levels) == HISTORY
    a, rhs = _dense_system(backend, state)
    bound = STEP_RTOL * np.linalg.cond(a)
    want = linalg.spsolve(sp.csc_matrix(a), rhs)
    got = step(state, backend).u_curr
    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


def test_spatial_alpha_runs_on_fem():
    field = SpatialField(
        ScalarField(lambda x, y: 1.0 + 0.5 * np.sin(PI * x) * np.sin(PI * y)),
        lo=1.0, hi=1.5)
    params = ModelParams(domain=UNIT_SQUARE, alpha=field, beta=0.1,
                         u0=sine_field())
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    backend = make_fem_backend(space, params)
    _, trace = run(backend, k=0.01, n_steps=20)
    assert trace.monotone()


def test_steady_state_of_eigenmode_forcing():
    f = ScalarField(lambda x, y: 2 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y))
    dists = []
    for n in (8, 16, 32):
        space = FemSpace(build_tri_mesh(UNIT_SQUARE, n))
        params = ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=1.0, forcing=f)
        backend = make_fem_backend(space, params)
        u_inf = steady_state(backend)
        diff = u_inf - interpolate(space, sine_field())
        dists.append(np.sqrt(diff @ backend.M.matvec(diff)))
    slopes = np.log2(np.array(dists[:-1]) / np.array(dists[1:]))
    assert np.all(slopes >= 1.7)


def test_steady_state_center_value_against_series():
    # -Lap u = 1 on the unit square: independent double-series evaluation
    # of the center value gives 0.0736713513
    f = ScalarField(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 32))
    params = ModelParams(domain=UNIT_SQUARE, alpha=1.0, forcing=f)
    backend = make_fem_backend(space, params)
    u_inf = steady_state(backend)
    nodes = space.mesh.nodes[space.free_dofs]
    center = np.flatnonzero((nodes[:, 0] == 0.5) & (nodes[:, 1] == 0.5))[0]
    assert u_inf[center] == pytest.approx(0.0736713513, abs=5e-4)


def test_steady_state_requires_forcing():
    _, params, backend = fd_setup()
    with pytest.raises(ValueError):
        steady_state(backend)


@pytest.mark.parametrize("kind", ["fd", "fem"])
def test_steady_state_rejects_a_non_finite_forcing(kind):
    # the division by K's symbol would return NaN silently; the load vector
    # itself rejects it, so a run fails as bad input too
    params = ModelParams(domain=UNIT_SQUARE, alpha=1.0, forcing=NAN_FIELD)
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params) if kind == "fd" \
        else make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 8)), params)
    with pytest.raises(ValueError, match="finite forcing"):
        steady_state(backend)
    with pytest.raises(ValueError, match="finite forcing"):
        run(backend, k=0.01, n_steps=2)
