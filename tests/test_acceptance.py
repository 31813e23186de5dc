"""End-to-end checks of the convergence tables, energy inequalities, decay
rates, eigenvalue solvers, and oracle agreement on the builtin experiments.

Each test prints a one-line verdict so a -v run doubles as a report.
"""

import time

import numpy as np
import pytest

from dampedwave.fdm import FdOperator, fd_eigenvalue, fd_sine_mode
from dampedwave.fem import FemSpace, assemble_mass, assemble_stiffness
from dampedwave.harness import (
    DK_CAP,
    builtin_experiments,
    check_residual,
    run_convergence,
    run_decay,
    run_steady,
)
from dampedwave.mesh import UNIT_SQUARE, build_fd_grid, build_tri_mesh
from dampedwave.oracle import Mode, modal_recurrence
from dampedwave.sparse import SineBasis, smallest_generalized_eigenpair
from dampedwave.stepper import (
    ModelParams,
    StepperState,
    init_state,
    make_fd_backend,
    make_fem_backend,
    step,
)
from dampedwave.diagnostics import discrete_energy

PI = np.pi

L2_WINDOW = (1.85, 2.2)
LINF_WINDOW = (1.85, 2.2)
H1_WINDOW = (0.85, 1.2)


@pytest.fixture(scope="module")
def experiments():
    return builtin_experiments()


@pytest.fixture(scope="module")
def decay_reports(experiments):
    """One N=16 decay run per unforced constant-coefficient experiment."""
    return {name: run_decay(experiments[name], 16)
            for name in ("ex1", "ex2", "ex3i", "ex3ii")}


def last_three(rates):
    return rates[-3:]


def in_window(rates, lo, hi):
    return bool(np.all((rates >= lo) & (rates <= hi)))


def test_example1_convergence_rates_and_magnitude(experiments):
    start = time.monotonic()
    table = run_convergence(experiments["ex1"])
    elapsed = time.monotonic() - start

    assert in_window(last_three(table.rate_l2), *L2_WINDOW)
    assert in_window(last_three(table.rate_linf), *LINF_WINDOW)
    assert in_window(last_three(table.rate_h1), *H1_WINDOW)
    ref = 2.3671e-4
    assert ref / 3 <= table.l2[-1] <= ref * 3
    assert elapsed <= 180.0
    print(f"\nexample 1: L2 rates {last_three(table.rate_l2).round(3)}, "
          f"L2(N=30) = {table.l2[-1]:.4e} vs ref {ref:.4e}, {elapsed:.1f}s  OK")


def test_example2_convergence_rates(experiments):
    table = run_convergence(experiments["ex2"])
    assert in_window(last_three(table.rate_l2), *L2_WINDOW)
    assert in_window(last_three(table.rate_linf), *LINF_WINDOW)
    assert in_window(last_three(table.rate_h1), *H1_WINDOW)
    print(f"\nexample 2: L2 {last_three(table.rate_l2).round(3)}, "
          f"H1 {last_three(table.rate_h1).round(3)}  OK")


def test_example3i_convergence_rates(experiments):
    table = run_convergence(experiments["ex3i"])
    assert in_window(last_three(table.rate_l2), *L2_WINDOW)
    assert in_window(last_three(table.rate_linf), *LINF_WINDOW)
    assert in_window(last_three(table.rate_h1), *H1_WINDOW)
    print(f"\nexample 3(i): L2 {last_three(table.rate_l2).round(3)}, "
          f"H1 {last_three(table.rate_h1).round(3)}  OK")


def test_example3ii_convergence_rates(experiments):
    # strong damping only: H1 rates sit well above 1 on these meshes and
    # drift down; require the drift instead of the absolute window
    table = run_convergence(experiments["ex3ii"])
    assert in_window(last_three(table.rate_l2), *L2_WINDOW)
    assert in_window(last_three(table.rate_linf), *LINF_WINDOW)
    assert table.rate_h1[-1] <= table.rate_h1[-2] + 0.05
    print(f"\nexample 3(ii): L2 {last_three(table.rate_l2).round(3)}, "
          f"H1 {table.rate_h1[-2]:.3f} -> {table.rate_h1[-1]:.3f}  OK")


def test_energy_monotonicity(decay_reports):
    for name, rep in decay_reports.items():
        e = rep.trace.energy
        assert np.all(e[1:] <= e[:-1] * (1 + 1e-10)), name
    print("\nenergy nonincreasing at every step for "
          + ", ".join(decay_reports) + "  OK")


def test_extended_energy_sandwich(decay_reports):
    for name, rep in decay_reports.items():
        ext = rep.trace.extended(rep.delta_disc)
        e = rep.trace.energy
        assert np.all(ext >= 0.5 * e - 1e-14), name
        assert np.all(ext <= 1.5 * e + 1e-14), name
    print("\nextended energy within [E/2, 3E/2] at delta_disc for all four  OK")


def test_discrete_decay_bound(decay_reports):
    for name, rep in decay_reports.items():
        assert rep.delta_disc * rep.k <= DK_CAP, name
        bound = 3.0 * np.exp(-rep.delta_disc * rep.trace.t / 15.0) \
            * rep.trace.energy[0]
        assert np.all(rep.trace.energy <= bound * (1 + 1e-12)), name
    print("\nE^n <= 3 e^{-delta t/15} E^0 with admissible delta*k for all four  OK")


def test_fitted_decay_rate(experiments):
    for name in ("ex1", "ex3i"):
        # T = 1 and k = 1/512: the fit window [0.2, 0.8] of the run
        rep = run_decay(experiments[name], 32, k_override=1.0 / 512)
        assert abs(rep.delta_fit - PI) / PI <= 0.05, name
        print(f"\n{name}: fitted delta = {rep.delta_fit:.4f} (target pi)  OK")


def test_eigenvalue_solvers():
    grid = build_fd_grid(UNIT_SQUARE, 16)
    op = FdOperator(grid)
    k, basis = op.gram_matrix(), SineBasis(grid.n_per_side - 1)
    lam, _, _ = smallest_generalized_eigenpair(k, op.mass_matrix(),
                                               basis.solver(basis.symbol(k)))
    closed = 8.0 / grid.h ** 2 * np.sin(PI * grid.h / 2) ** 2
    assert abs(lam - closed) / closed <= 1e-8

    errs = []
    for n in (8, 16, 32):
        space = FemSpace(build_tri_mesh(UNIT_SQUARE, n))
        k = assemble_stiffness(space)
        lam_n, _, _ = smallest_generalized_eigenpair(
            k, assemble_mass(space), space.basis.solver(space.basis.symbol(k)))
        errs.append(abs(lam_n - 2 * PI ** 2))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9)
    print(f"\nFD lambda1 matches closed form to {abs(lam - closed) / closed:.1e}; "
          f"FEM orders {orders.round(3)}  OK")


def test_stepper_agrees_with_modal_recurrence():
    grid = build_fd_grid(UNIT_SQUARE, 16)
    params = ModelParams(domain=UNIT_SQUARE, alpha=PI, beta=1.0 / PI)
    backend = make_fd_backend(grid, params)
    k = 1e-3
    for p, q in ((1, 1), (2, 3)):
        lam = fd_eigenvalue(grid, p, q)
        v = fd_sine_mode(grid, p, q)
        seq = modal_recurrence(Mode(p, q, lam), PI, 1.0 / PI, k, 500,
                               u0=1.0, u1=0.9)
        state = StepperState(n=1, k=k, levels=np.stack((0.9 * v, 1.0 * v)))
        worst = 0.0
        for _ in range(500):
            state = step(state, backend)
            ref = seq[state.n] * v
            scale = max(np.max(np.abs(ref)), 1e-300)
            worst = max(worst, np.max(np.abs(state.u_curr - ref)) / scale)
        assert worst <= 1e-8, (p, q)
        print(f"\nmode ({p},{q}): max deviation {worst:.2e} over 500 steps  OK")


def test_forced_steady_state_decay(experiments):
    rep = run_steady(experiments["forcing"], 16)
    d = rep.distances
    assert rep.monotone_ok()
    assert np.min(d) <= 1e-6 * d[0]
    assert d[-1] <= 1e-6 * d[0]
    print(f"\nsteady state: distance falls to {d[-1] / d[0]:.1e} of initial, "
          "monotonically  OK")


def test_initial_energy(experiments):
    exp = experiments["ex1"]
    space = FemSpace(build_tri_mesh(exp.domain, 32))
    backend = make_fem_backend(space, exp.params)
    state = init_state(backend, exp.time_step(32), exact_at=exp.exact.field_at)
    e0 = discrete_energy(state, backend)
    target = 3 * PI ** 2 / 8
    assert abs(e0 - target) / target <= 0.02
    print(f"\nE^0 = {e0:.4f} vs 3 pi^2/8 = {target:.4f}  OK")


def test_residual_guard(experiments):
    worst = 0.0
    for name, exp in experiments.items():
        if exp.exact is None or not exp.constant_coefficients():
            continue
        worst = max(worst, check_residual(exp))
    assert worst <= 1e-10
    print(f"\nmanufactured solutions satisfy the equation to {worst:.1e}  OK")
