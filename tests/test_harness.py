import csv
from dataclasses import replace

import numpy as np
import pytest

from dampedwave import harness
from dampedwave.fem import ScalarField
from dampedwave.harness import (
    N_VALUES,
    Experiment,
    SeparableExact,
    SteadyReport,
    builtin_experiments,
    build_backend,
    check_residual,
    load_config,
    run_convergence,
    run_decay,
    write_csv,
)
from dampedwave.mesh import PI_SQUARE, UNIT_SQUARE
from dampedwave.stepper import run

PI = np.pi


def test_builtin_experiment_set():
    exps = builtin_experiments()
    assert set(exps) == {"ex1", "ex2", "ex3i", "ex3ii",
                         "timevar", "spacevar", "forcing"}
    assert exps["ex1"].domain == UNIT_SQUARE
    assert exps["ex2"].domain == PI_SQUARE
    assert exps["ex3i"].params.beta == 0.0
    assert exps["ex3ii"].params.alpha == 0.0


def test_time_step_snaps_to_final_time():
    exp = builtin_experiments()["ex2"]
    for n in (5, 10, 15):
        k = exp.time_step(n)
        assert abs(exp.T / k - round(exp.T / k)) < 1e-9
    assert exp.time_step(10, override=0.125) == 0.125


def test_step_count_of_a_snapped_step_is_T_over_k():
    for exp in builtin_experiments().values():
        for n in range(2, 129):
            k = exp.time_step(n)
            assert exp.n_steps(k) == round(exp.T / k)


def test_step_override_that_does_not_divide_T_ends_at_the_first_step_past_it(
        monkeypatch):
    # ex1 has T = 1: at k = 0.3 every level ends at 4k = 1.2, where decay and
    # steady runs end too
    states = []

    def recorded(*args, **kwargs):
        state, trace = run(*args, **kwargs)
        states.append(state)
        return state, trace

    monkeypatch.setattr(harness, "run", recorded)
    run_convergence(builtin_experiments()["ex1"], n_values=(4, 8), k_override=0.3)
    assert [s.n for s in states] == [4, 4]


@pytest.mark.parametrize("ns", [(30, 25), (8, 8), ()])
def test_levels_that_do_not_increase_fail_before_any_level_is_built(ns, monkeypatch):
    def unexpected(*args):
        raise AssertionError("a refinement level was built")

    monkeypatch.setattr(harness, "build_backend", unexpected)
    with pytest.raises(ValueError, match="strictly increasing"):
        run_convergence(builtin_experiments()["ex3i"], n_values=ns)


def test_default_levels_are_n_values(monkeypatch):
    levels = []

    def recorded(exp, n, backend, k_override):
        levels.append(n)
        return 1.0 / n, 1.0 / n, 1.0 / n

    monkeypatch.setattr(harness, "_converge_level", recorded)
    table = run_convergence(builtin_experiments()["ex1"])
    assert tuple(levels) == N_VALUES
    assert tuple(int(n) for n in table.n_values) == N_VALUES


def test_residual_guard_accepts_builtins():
    exps = builtin_experiments()
    for name in ("ex1", "ex2", "ex3i", "ex3ii"):
        assert check_residual(exps[name]) <= 1e-10


def test_residual_guard_rejects_mismatched_coefficients():
    good = builtin_experiments()["ex1"]
    from dampedwave.stepper import ModelParams
    broken = Experiment(
        "broken",
        ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=1.0 / PI,
                    u0=good.params.u0, u1=good.params.u1),
        exact=good.exact)
    with pytest.raises(ValueError):
        check_residual(broken)


def test_convergence_needs_an_exact_solution():
    with pytest.raises(ValueError, match="no exact solution"):
        run_convergence(builtin_experiments()["timevar"])


def test_separable_exact_residual_is_algebraically_zero():
    exact = builtin_experiments()["ex1"].exact
    # u'' + (beta lam + alpha) u' + lam u with the Example-1 coefficients:
    # pi^2 - (2 pi^2/pi + pi) pi + 2 pi^2 = 0
    assert abs(exact.residual(PI, 1.0 / PI)) < 1e-12


def test_residual_guard_is_relative_to_the_amplitude():
    # a 1e6-amplitude copy of ex1 with alpha = pi + shift leaves the residual
    # -pi * shift * u, so the guard sees pi * shift whatever the amplitude
    ex1 = builtin_experiments()["ex1"]
    big = ScalarField(lambda x, y: 1e6 * ex1.exact.s(x, y))

    def shifted(shift):
        return replace(ex1, params=replace(ex1.params, alpha=PI + shift),
                       exact=replace(ex1.exact, s=big))

    assert check_residual(shifted(1e-12)) == pytest.approx(PI * 1e-12, rel=1e-2)
    with pytest.raises(ValueError, match="PDE residual"):
        check_residual(shifted(1e-9))


def test_backend_builder():
    exp = builtin_experiments()["ex1"]
    handles, space = build_backend(exp.params, 4, "fem")
    assert handles.ndof == 9
    handles, grid = build_backend(exp.params, 4, "fd")
    assert handles.ndof == 9
    with pytest.raises(ValueError):
        build_backend(exp.params, 4, "spectral")


def test_convergence_study_is_deterministic():
    exp = builtin_experiments()["ex1"]
    t1 = run_convergence(exp, n_values=(4, 8))
    t2 = run_convergence(exp, n_values=(4, 8))
    assert np.array_equal(t1.l2, t2.l2)
    assert np.array_equal(t1.h1, t2.h1)


def test_fd_backend_convergence():
    exp = builtin_experiments()["ex1"]
    table = run_convergence(exp, backend="fd", n_values=(8, 16))
    assert table.rate_l2[1] > 1.5
    assert table.rate_h1[1] > 0.8


def test_decay_report_fields():
    exp = builtin_experiments()["ex1"]
    rep = run_decay(exp, 8)
    assert rep.lambda1 == pytest.approx(2 * PI ** 2, rel=0.05)
    assert rep.delta_disc <= rep.delta_cont
    assert rep.trace.continuous is not None
    # continuous energy starts at 3 pi^2/8 and decays like e^{-2 pi t}
    assert rep.trace.continuous[0] == pytest.approx(3 * PI ** 2 / 8, rel=0.05)


def test_decay_report_margins_agree_with_its_verdicts():
    rep = run_decay(builtin_experiments()["ex1"], 8)
    assert rep.monotone_ok and rep.sandwich_ok and rep.bound_ok
    assert rep.worst_growth < 0
    growth = rep.trace.energy[1:] / rep.trace.energy[:-1] - 1
    assert rep.worst_growth == growth[rep.worst_growth_step - 1] == growth.max()
    assert 0 < rep.sandwich_slack <= 0.5
    assert rep.bound_slack == pytest.approx(2 / 3)  # tightest at t = 0
    assert rep.sandwich_slack == rep.trace.sandwich_slack(rep.delta_disc)
    assert rep.bound_rate_margin == rep.trace.decay_bound_rate_margin(rep.delta_disc)
    assert rep.bound_rate_margin > 0


def test_decay_with_analytic_lambda():
    exp = builtin_experiments()["ex1"]
    rep = run_decay(exp, 8, lambda_source="analytic")
    assert rep.lambda1 == pytest.approx(2 * PI ** 2)
    with pytest.raises(ValueError):
        run_decay(exp, 8, lambda_source="guess")


def test_analytic_lambda_on_a_rectangle_uses_both_sides():
    from dampedwave.fem import ScalarField
    from dampedwave.mesh import Rectangle
    from dampedwave.oracle import continuous_eigenvalue
    from dampedwave.stepper import ModelParams
    rect = Rectangle(0.0, 2.0, 0.0, 0.5)
    u0 = ScalarField(lambda x, y: np.sin(PI * x / 2) * np.sin(2 * PI * y))
    exp = Experiment("rect", ModelParams(domain=rect, alpha=1.0, beta=0.1, u0=u0))
    analytic = run_decay(exp, 16, lambda_source="analytic")
    discrete = run_decay(exp, 16)
    # (pi/2)^2 + (pi/0.5)^2 = 41.95, against a discrete 42.35
    assert analytic.lambda1 == continuous_eigenvalue(1, 1, 2.0, 0.5)
    assert analytic.lambda1 == pytest.approx(discrete.lambda1, rel=0.01)
    assert analytic.delta_disc == pytest.approx(discrete.delta_disc, rel=0.01)


def test_decay_of_time_scheduled_damping():
    exp = builtin_experiments()["timevar"]
    rep = run_decay(exp, 8, k_override=0.01)
    assert rep.monotone_ok  # growing damping only dissipates faster


def test_constant_coefficients_read_the_normal_form():
    from dampedwave.fem import constant_field
    from dampedwave.stepper import ModelParams, SpatialField, TimeSchedule
    exps = builtin_experiments()
    assert exps["ex1"].constant_coefficients()
    assert not exps["timevar"].constant_coefficients()
    assert not exps["spacevar"].constant_coefficients()
    pinned = TimeSchedule(lambda t: PI, lo=PI, hi=PI)
    flat = SpatialField(constant_field(1.0), lo=1.0, hi=1.0)
    for alpha, constant in ((pinned, True), (flat, False)):
        params = ModelParams(domain=UNIT_SQUARE, alpha=alpha)
        assert Experiment("e", params).constant_coefficients() is constant


def test_undamped_decay_is_rejected():
    from dampedwave.stepper import ModelParams
    u0 = builtin_experiments()["ex1"].params.u0
    exp = Experiment("undamped", ModelParams(domain=UNIT_SQUARE, u0=u0), T=0.1)
    for source in ("discrete", "analytic"):
        with pytest.raises(ValueError, match="positive"):
            run_decay(exp, 4, backend="fd", k_override=0.01, lambda_source=source)


def test_steady_report_monotone_check():
    down = np.array([1.0, 0.5, 0.25, 1e-9, 5e-9, 2e-9])
    rep = SteadyReport(n=8, k=0.1, distances=down, u_inf=np.zeros(3))
    assert rep.monotone_ok()  # noise below the floor is ignored
    up = np.array([1.0, 1.2, 0.5, 0.1, 0.01, 0.001])
    rep = SteadyReport(n=8, k=0.1, distances=up, u_inf=np.zeros(3))
    assert not rep.monotone_ok()


def test_convergence_csv_round_trip(tmp_path):
    exp = builtin_experiments()["ex1"]
    table = run_convergence(exp, n_values=(4, 8))
    path = tmp_path / "table.csv"
    write_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "l2", "rate_l2", "linf", "rate_linf", "h1", "rate_h1"]
    assert len(rows) == 3
    assert rows[1][2] == ""  # first rate column is blank
    assert float(rows[2][1]) == pytest.approx(table.l2[1], rel=1e-5)
    assert float(rows[2][2]) == pytest.approx(table.rate_l2[1], abs=1e-3)


def test_decay_csv_columns(tmp_path):
    exp = builtin_experiments()["ex1"]
    rep = run_decay(exp, 8)
    path = tmp_path / "decay.csv"
    write_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "E", "E_ext", "bound", "E_cont"]
    assert len(rows) == rep.trace.t.size + 1
    assert float(rows[1][1]) == pytest.approx(rep.trace.energy[0], rel=1e-5)


def test_write_csv_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        write_csv({"not": "serializable"}, tmp_path / "x.csv")


def test_write_csv_propagates_os_errors(tmp_path):
    exp = builtin_experiments()["ex1"]
    table = run_convergence(exp, n_values=(4, 8))
    with pytest.raises(OSError):
        write_csv(table, tmp_path / "missing_dir" / "table.csv")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# study configuration\n"
        "experiment = ex2\n"
        "N = 5,10   # levels\n"
        "\n"
        "backend = fem\n")
    cfg = load_config(path)
    assert cfg == {"experiment": "ex2", "N": "5,10", "backend": "fem"}


def test_load_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment ex2\n")
    with pytest.raises(ValueError):
        load_config(path)

