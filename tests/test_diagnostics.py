import numpy as np
import pytest

from dampedwave.diagnostics import (
    EnergyTrace,
    convergence_rates,
    decay_bounds,
    discrete_energy,
    energy_EA,
    energy_and_cross,
    energy_cross_term,
    fit_decay_rate,
)
from dampedwave.fem import FemSpace
from dampedwave.harness import build_backend, builtin_experiments
from dampedwave.mesh import UNIT_SQUARE, build_fd_grid, build_tri_mesh
from dampedwave.stepper import (
    ModelParams,
    StepperState,
    init_state,
    make_fd_backend,
    make_fem_backend,
    run,
    step,
)

PI = np.pi


def make_backend(n=32, exp_name="ex1"):
    exp = builtin_experiments()[exp_name]
    space = FemSpace(build_tri_mesh(exp.domain, n))
    return exp, make_fem_backend(space, exp.params)


def test_zero_state_has_zero_energy():
    params = ModelParams(domain=UNIT_SQUARE)
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 8), params)
    state = init_state(backend, 0.01)
    assert discrete_energy(state, backend) == 0.0
    assert energy_EA(state, backend) == 0.0


def test_initial_energy_example1():
    # ||u'(0)||^2 = pi^2/4 and |u(0)|_1^2 = pi^2/2, so E = 3 pi^2 / 8
    exp, backend = make_backend(32, "ex1")
    k = 1e-4
    state = init_state(backend, k, exact_at=exp.exact.field_at)
    e0 = discrete_energy(state, backend)
    assert e0 == pytest.approx(3 * PI ** 2 / 8, rel=0.02)


def test_initial_energy_example2():
    # on (0, pi)^2: ||u'(0)||^2 = pi^2 pi^2/4, |u(0)|_1^2 = 2 pi^2/4
    exp, backend = make_backend(32, "ex2")
    state = init_state(backend, 1e-4, exact_at=exp.exact.field_at)
    e0 = discrete_energy(state, backend)
    assert e0 == pytest.approx((PI ** 4 + 2 * PI ** 2) / 8, rel=0.02)


def test_higher_energy_example1():
    # E_A(0) = (pi^2 |u0|_1^2 + ||A u0||^2) / 2 = (pi^4/2 + pi^4) / 2
    exp, backend = make_backend(48, "ex1")
    state = init_state(backend, 1e-4, exact_at=exp.exact.field_at)
    assert energy_EA(state, backend) == pytest.approx(0.75 * PI ** 4, rel=0.03)


def test_extended_energy_of_stationary_state():
    # d = 0, so the cross term (d, U)_M vanishes and E + delta (d, U)_M = E
    exp, backend = make_backend(8, "ex1")
    u = backend.interpolate(exp.params.u0)
    state = StepperState(n=1, k=0.01, levels=np.stack((u, u)))
    assert energy_cross_term(state, backend) == 0.0


@pytest.mark.parametrize("kind,name", [("fem", "ex1"), ("fem", "spacevar"),
                                       ("fd", "spacevar"), ("fd", "timevar")])
@pytest.mark.parametrize("k", [1e-2, 1e-4])
def test_energy_and_cross_match_dense_forms(kind, name, k):
    # the initial state, a stepped one with five levels and its newest two,
    # against the dense E = 1/2 (e'M e/k^2 + U'K U) and (d, U)_M = U'M e/k
    backend, _ = build_backend(builtin_experiments()[name].params, 12, kind)
    m, kk = backend.M.to_dense(), backend.K.to_dense()
    stepped = init_state(backend, k)
    states = [stepped]
    for _ in range(3):
        stepped = step(stepped, backend)
    states += [stepped, StepperState(n=stepped.n, k=k, levels=stepped.levels[:2])]
    for state in states:
        u, e = state.u_curr, state.u_curr - state.u_prev
        want_e = 0.5 * (e @ m @ e / k ** 2 + u @ kk @ u)
        want_c = u @ m @ e / k
        got_e, got_c = energy_and_cross(state, backend)
        assert abs(got_e - want_e) <= 1e-12 * want_e
        assert abs(got_c - want_c) <= 1e-12 * want_e


def test_decay_bounds_example1():
    d_cont, d_disc = decay_bounds(PI, 1.0 / PI, 2 * PI ** 2)
    assert d_cont == pytest.approx(2 * PI / 3)
    assert d_disc == pytest.approx(PI / 3)


def test_decay_bounds_example3i():
    alpha = (PI ** 2 + 2) / PI
    d_cont, d_disc = decay_bounds(alpha, 0.0, 2.0)
    assert d_cont == pytest.approx(2 * PI / (PI ** 2 + 2))
    assert d_disc == pytest.approx(PI / (PI ** 2 + 2))


def test_decay_bounds_symmetry():
    # both bounds depend on the dampings only through alpha + beta*lambda1
    lam = 3.7
    a, b = 1.3, 0.4
    assert decay_bounds(a, b, lam) == pytest.approx(
        decay_bounds(b * lam, a / lam, lam))


def test_decay_bounds_reject_undamped():
    with pytest.raises(ValueError):
        decay_bounds(0.0, 0.0, 2.0)


def test_decay_bounds_over_ranges():
    # the rate limit uses the least damping, the stiffness limit the most
    lam = 2.0
    d_cont, d_disc = decay_bounds((1.0, 2.0), (0.5, 0.75), lam)
    assert d_cont == min((1.0 + 0.5 * lam) / 2, lam / (2.0 + 0.75 * lam))
    assert d_disc == min((1.0 + 0.5 * lam) / 2, lam / (2 * (2.0 + 0.75 * lam)))
    assert decay_bounds((PI, PI), 0.25, lam) == decay_bounds(PI, 0.25, lam)
    with pytest.raises(ValueError):
        decay_bounds((0.0, 1.0), (0.0, 0.0), lam)


def test_fit_decay_rate_on_synthetic_trace():
    t = np.linspace(0.0, 1.0, 101)
    trace = EnergyTrace(t=t, energy=np.exp(-2 * PI * t), cross=np.zeros_like(t))
    assert fit_decay_rate(trace, 0.0, 1.0) == pytest.approx(PI, abs=1e-10)


def test_fit_decay_rate_needs_samples():
    t = np.linspace(0.0, 1.0, 3)
    trace = EnergyTrace(t=t, energy=np.exp(-t), cross=np.zeros_like(t))
    with pytest.raises(ValueError):
        fit_decay_rate(trace, 0.0, 1.0)
    trace_bad = EnergyTrace(t=np.linspace(0, 1, 10),
                            energy=np.linspace(1, -0.1, 10),
                            cross=np.zeros(10))
    with pytest.raises(ValueError):
        fit_decay_rate(trace_bad, 0.0, 1.0)


def test_fit_decay_rate_undamped_fd_run():
    sine = builtin_experiments()["ex1"].params.u0
    params = ModelParams(domain=UNIT_SQUARE, u0=sine)
    backend = make_fd_backend(build_fd_grid(UNIT_SQUARE, 16), params)
    k = 2e-5
    _, trace = run(backend, k=k, n_steps=10000)
    fitted = fit_decay_rate(trace, 0.05, 0.15)
    assert abs(fitted) <= 1e-3


def test_monotone_and_sandwich_helpers():
    t = np.linspace(0, 1, 6)
    e = np.exp(-t)
    trace = EnergyTrace(t=t, energy=e, cross=np.zeros_like(t))
    assert trace.monotone()
    assert trace.sandwich_ok(0.3)
    assert trace.decay_bound_ok(0.5)
    rising = EnergyTrace(t=t, energy=e[::-1].copy(), cross=np.zeros_like(t))
    assert not rising.monotone()


def test_invariant_margins_on_a_hand_built_trace():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    energy = np.array([1.0, 0.5, 2.9, 0.3])
    cross = np.array([0.1, -0.2, 0.0, 0.4])
    trace = EnergyTrace(t=t, energy=energy, cross=cross)
    delta = 0.5
    # E_2 / E_1 - 1 = 4.8; the sandwich is tightest at E_3, where
    # |delta * cross| / E = 2/3 > 1/2; the bound 3 e^{-t/30} is exceeded at t = 2
    assert trace.worst_growth() == (pytest.approx(4.8), 2)
    assert trace.sandwich_slack(delta) == pytest.approx(0.5 - 0.2 / 0.3)
    assert trace.decay_bound_slack(delta) == pytest.approx(1 - 2.9 / (3 * np.exp(-1 / 15)))
    assert not (trace.monotone() or trace.sandwich_ok(delta)
                or trace.decay_bound_ok(delta))
    decaying = EnergyTrace(t=t, energy=np.array([1.0, 0.5, 0.25, 0.2]),
                           cross=np.array([0.1, -0.2, 0.0, 0.1]))
    assert decaying.worst_growth() == (pytest.approx(-0.2), 3)
    assert decaying.sandwich_slack(delta) == pytest.approx(0.5 - 0.05 / 0.2)
    assert decaying.decay_bound_slack(delta) == pytest.approx(2 / 3)
    assert decaying.monotone() and decaying.sandwich_ok(delta)
    assert decaying.decay_bound_ok(delta)


def test_decay_bound_rate_margin_on_a_hand_built_trace():
    # delta = 15 makes the bound 3 e^{-t} E^0; E at t = 1, 2, 3 sits below it
    # by the factors e^{-1.5}, e^{-2 * 1.0} and e^{-3 * 1.2}
    t = np.array([0.0, 1.0, 2.0, 3.0])
    margins = np.array([1.5, 1.0, 1.2])
    energy = np.concatenate(([2.0], 6.0 * np.exp(-t[1:] * (1.0 + margins))))
    trace = EnergyTrace(t=t, energy=energy, cross=np.zeros_like(t))
    assert trace.decay_bound_rate_margin(15.0) == pytest.approx(1.0, rel=1e-12)
    # the slack only sees the t = 0 sample, where E = bound / 3
    assert trace.decay_bound_slack(15.0) == pytest.approx(2 / 3)
    # above the bound at t = 1 by the factor e^{0.1}: the margin is -0.1
    energy[1] = 6.0 * np.exp(-1.0 + 0.1)
    assert trace.decay_bound_rate_margin(15.0) == pytest.approx(-0.1, rel=1e-12)


def test_rates_reproduce_reference_values():
    table = convergence_rates([(5, (8.8349e-3, 1.0, 1.0)),
                               (10, (2.1124e-3, 1.0, 1.0))])
    assert table.rate_l2[1] == pytest.approx(2.0643, abs=5e-4)

    table = convergence_rates([(5, (1.0, 1.0, 1.0401e-1)),
                               (10, (1.0, 1.0, 3.4207e-2))])
    assert table.rate_h1[1] == pytest.approx(1.6044, abs=5e-4)


def test_rates_of_exact_halving():
    table = convergence_rates([(4, (1.0, 1.0, 1.0)), (8, (0.5, 0.5, 0.5))])
    assert table.rate_l2[1] == pytest.approx(1.0)
    assert np.isnan(table.rate_l2[0])


def test_rates_with_zero_errors_are_suppressed():
    table = convergence_rates([(4, (0.0, 1.0, 1.0)), (8, (0.0, 0.5, 0.5))])
    assert np.isnan(table.rate_l2[1])
    assert table.rate_linf[1] == pytest.approx(1.0)


def test_rates_require_increasing_levels():
    with pytest.raises(ValueError):
        convergence_rates([(8, (1.0, 1.0, 1.0)), (4, (2.0, 2.0, 2.0))])


def test_rates_reject_an_empty_table():
    with pytest.raises(ValueError, match="non-empty"):
        convergence_rates([])
