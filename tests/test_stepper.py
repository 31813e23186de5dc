import numpy as np
import pytest

from dampedwave.fdm import fd_eigenvalue, fd_sine_mode
from dampedwave.fem import FemSpace, ScalarField, interpolate
from dampedwave.harness import builtin_experiments
from dampedwave.mesh import UNIT_SQUARE, build_fd_grid, build_tri_mesh
from dampedwave.oracle import Mode, modal_recurrence
from dampedwave.sparse import cg_solve
from dampedwave.stepper import (
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
    state = init_state(backend, params, k=0.01)
    assert np.array_equal(state.u_prev, np.zeros(backend.ndof))
    assert np.array_equal(state.u_curr, np.zeros(backend.ndof))
    assert state.n == 1


def test_zero_state_stays_zero():
    _, params, backend = fd_setup(alpha=1.0, beta=0.5)
    state = init_state(backend, params, k=0.01)
    for _ in range(5):
        state = step(state, backend, params)
    assert np.array_equal(state.u_curr, np.zeros(backend.ndof))


def test_taylor_start_with_zero_velocity():
    # with u1 = 0 and alpha = beta = 0 the expansion collapses to
    # U^1 = U^0 - (k^2/2) M^{-1} K U^0
    grid, params, backend = fd_setup(m=8, u0=sine_field())
    k = 0.02
    state = init_state(backend, params, k, mode="taylor")
    u0 = backend.interpolate(params.u0)
    w, _ = cg_solve(backend.M, -backend.K.matvec(u0), rtol=1e-12)
    assert np.allclose(state.u_curr, u0 + 0.5 * k * k * w, atol=1e-10)


def test_exact_start_on_decaying_mode():
    exp = builtin_experiments()["ex1"]
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    backend = make_fem_backend(space, exp.params)
    k = 0.01
    state = init_state(backend, exp.params, k, mode="exact",
                       exact_at=exp.exact.field_at)
    assert np.allclose(state.u_curr, np.exp(-PI * k) * state.u_prev, rtol=1e-12)


def test_exact_start_requires_provider():
    _, params, backend = fd_setup()
    with pytest.raises(ValueError):
        init_state(backend, params, 0.01, mode="exact")


def test_init_rejects_bad_step_and_mode():
    _, params, backend = fd_setup()
    with pytest.raises(ValueError):
        init_state(backend, params, 0.0)
    with pytest.raises(ValueError):
        init_state(backend, params, 0.01, mode="midpoint")


def test_run_takes_one_step_when_T_equals_k():
    _, params, backend = fd_setup(u0=sine_field())
    state, trace = run(backend, params, k=0.05, T=0.05)
    assert state.n == 2
    assert trace.t.size == 2


def test_single_mode_follows_scalar_recurrence():
    grid, params, backend = fd_setup(m=16, alpha=0.0, beta=0.0)
    k = 1e-3
    lam = fd_eigenvalue(grid, 1, 1)
    v = fd_sine_mode(grid, 1, 1)
    seq = modal_recurrence(Mode(1, 1, lam), 0.0, 0.0, k, 200, u0=1.0, u1=1.0)
    state = StepperState(n=1, k=k, u_prev=v.copy(), u_curr=v.copy())
    for i in range(200):
        state = step(state, backend, params)
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
    _, trace = run(backend, params, k=0.005, T=0.5)
    assert trace.monotone()
    assert trace.energy[-1] < trace.energy[0]


def test_constant_schedule_matches_plain_constant():
    sched = TimeSchedule(lambda t: PI, lo=PI, hi=PI)
    grid = build_fd_grid(UNIT_SQUARE, 8)
    p_const = ModelParams(domain=UNIT_SQUARE, alpha=PI, beta=0.1, u0=sine_field())
    p_sched = ModelParams(domain=UNIT_SQUARE, alpha=sched, beta=0.1, u0=sine_field())
    b1 = make_fd_backend(grid, p_const)
    b2 = make_fd_backend(grid, p_sched)
    s1, _ = run(b1, p_const, k=0.01, T=0.1)
    s2, _ = run(b2, p_sched, k=0.01, T=0.1)
    assert np.array_equal(s1.u_curr, s2.u_curr)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE,
                    alpha=TimeSchedule(lambda t: 2.0 - t, lo=0.5, hi=2.0))
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE,
                    alpha=TimeSchedule(lambda t: 1.0, lo=2.0, hi=3.0))


def test_schedule_validated_over_the_run():
    # nondecreasing on the construction-time sample window [0, 20], but it
    # drops at t = 25, inside a run to T = 30
    sched = TimeSchedule(lambda t: 2.0 if t < 25.0 else 1.0, lo=1.0, hi=2.0)
    grid = build_fd_grid(UNIT_SQUARE, 4)
    params = ModelParams(domain=UNIT_SQUARE, alpha=sched, u0=sine_field())
    backend = make_fd_backend(grid, params)
    with pytest.raises(ValueError, match="nondecreasing"):
        run(backend, params, k=0.5, T=30.0)
    state, _ = run(backend, params, k=0.5, T=20.0)
    assert state.n == 41


def test_non_finite_state_fails_fast_as_step_error():
    _, params, backend = fd_setup(alpha=1.0, beta=0.5)
    u = np.ones(backend.ndof)
    u[2] = np.nan
    with pytest.raises(StepError, match=r"n=3 .*in [01] iterations"):
        step(StepperState(n=3, k=0.01, u_prev=u, u_curr=u), backend, params)


def _check_system(backend, params, k, t, a, b, w=0.0, s=0.0):
    """The cached system against the dense (1/k^2 + a/k) M + W/k
    + (b/k + 1) K + S/k, where a spatial coefficient contributes its
    weighted operator W or S and a scalar one its value a or b."""
    m, kk = backend.M.to_dense(), backend.K.to_dense()
    expected = (1 / k ** 2 + a / k) * m + w / k + (b / k + 1) * kk + s / k
    tol = 1e-14 * np.max(np.abs(expected))
    system, damping = backend.system(params, k, t)
    assert np.allclose(system.to_dense(), expected, rtol=1e-14, atol=tol)
    assert np.allclose(system.diagonal(), np.diag(expected), rtol=1e-14, atol=tol)
    assert np.allclose(damping.to_dense(), a * m + w + b * kk + s, rtol=1e-14,
                       atol=1e-14 * np.max(np.abs(a * m + w + b * kk + s)))
    assert backend.system(params, k, t)[0] is system
    return system


def test_cached_system_matches_dense_fem_constant():
    exp = builtin_experiments()["ex1"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 6)), exp.params)
    _check_system(backend, exp.params, 0.01, 0.3, exp.params.alpha, exp.params.beta)


def test_cached_system_matches_dense_fem_weighted_mass():
    exp = builtin_experiments()["spacevar"]
    backend = make_fem_backend(FemSpace(build_tri_mesh(UNIT_SQUARE, 6)), exp.params)
    w = backend.weak_op.to_dense()
    assert not np.allclose(w, backend.M.to_dense())
    _check_system(backend, exp.params, 0.02, 0.0, 0.0, exp.params.beta, w=w)


def test_cached_system_matches_dense_fd_schedule():
    exp = builtin_experiments()["timevar"]
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 6), exp.params)
    systems = [_check_system(backend, exp.params, 0.01, t,
                             exp.params.alpha.fn(t), exp.params.beta)
               for t in (0.1, 0.7)]
    assert not np.array_equal(systems[0].vals, systems[1].vals)


def test_backend_reuse_matches_fresh_backends():
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 6))
    f1 = ScalarField(lambda x, y: 2 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y))
    f2 = ScalarField(lambda x, y: 1.0 + x * y)
    p1 = ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=0.5, u0=sine_field(),
                     forcing=f1)
    p2 = ModelParams(domain=UNIT_SQUARE, alpha=PI, beta=0.1, u1=sine_field(),
                     forcing=f2)
    shared = make_fem_backend(space, p1)
    for params, k in ((p1, 0.02), (p2, 0.02), (p1, 0.05), (p2, 0.05), (p1, 0.02)):
        fresh = make_fem_backend(space, params)
        s_shared, tr_shared = run(shared, params, k=k, T=0.2)
        s_fresh, tr_fresh = run(fresh, params, k=k, T=0.2)
        assert np.array_equal(s_shared.u_curr, s_fresh.u_curr)
        assert np.array_equal(tr_shared.energy, tr_fresh.energy)
        assert np.array_equal(shared.forcing_vector(params),
                              fresh.forcing_vector(params))
        assert np.array_equal(steady_state(shared, params), steady_state(fresh, params))


def test_constant_coefficient_validation():
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE, alpha=-1.0)
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE, beta=-0.1)


def test_spatial_field_validation():
    bad = SpatialField(ScalarField(lambda x, y: 0.5 + x), lo=1.0, hi=1.5)
    with pytest.raises(ValueError):
        ModelParams(domain=UNIT_SQUARE, alpha=bad)


def test_fd_backend_rejects_spatial_beta():
    field = SpatialField(ScalarField(lambda x, y: 1.0 + 0.0 * x), lo=1.0, hi=1.0)
    params = ModelParams(domain=UNIT_SQUARE, beta=field)
    grid = build_fd_grid(UNIT_SQUARE, 8)
    with pytest.raises(NotImplementedError):
        make_fd_backend(grid, params)


def test_backend_rejects_params_with_other_damping_weights():
    field = SpatialField(
        ScalarField(lambda x, y: 1.0 + 0.5 * np.sin(PI * x) * np.sin(PI * y)),
        lo=1.0, hi=1.5)
    plain = ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=0.1, u0=sine_field())
    spatial = ModelParams(domain=UNIT_SQUARE, alpha=field, beta=0.1,
                          u0=sine_field())
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 6))
    for built, used in ((plain, spatial), (spatial, plain)):
        backend = make_fem_backend(space, built)
        with pytest.raises(ValueError, match="weights"):
            backend.system(used, 0.01, 0.0)
        with pytest.raises(ValueError, match="weights"):
            run(backend, used, k=0.01, T=0.05)


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


def test_spatial_alpha_runs_on_fem():
    field = SpatialField(
        ScalarField(lambda x, y: 1.0 + 0.5 * np.sin(PI * x) * np.sin(PI * y)),
        lo=1.0, hi=1.5)
    params = ModelParams(domain=UNIT_SQUARE, alpha=field, beta=0.1,
                         u0=sine_field())
    space = FemSpace(build_tri_mesh(UNIT_SQUARE, 8))
    backend = make_fem_backend(space, params)
    _, trace = run(backend, params, k=0.01, T=0.2)
    assert trace.monotone()


def test_steady_state_of_eigenmode_forcing():
    f = ScalarField(lambda x, y: 2 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y))
    dists = []
    for n in (8, 16, 32):
        space = FemSpace(build_tri_mesh(UNIT_SQUARE, n))
        params = ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=1.0, forcing=f)
        backend = make_fem_backend(space, params)
        u_inf = steady_state(backend, params)
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
    u_inf = steady_state(backend, params)
    nodes = space.mesh.nodes[space.free_dofs]
    center = np.flatnonzero((nodes[:, 0] == 0.5) & (nodes[:, 1] == 0.5))[0]
    assert u_inf[center] == pytest.approx(0.0736713513, abs=5e-4)


def test_steady_state_requires_forcing():
    _, params, backend = fd_setup()
    with pytest.raises(ValueError):
        steady_state(backend, params)
