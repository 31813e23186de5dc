import csv

import numpy as np
import pytest

from dataclasses import replace

from dampedwave import harness, sparse
from dampedwave.cli import main
from dampedwave.fem import ScalarField


def test_converge_writes_table(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    code = main(["converge", "--experiment", "ex1", "--N", "4,8",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ex1" in printed
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "l2", "rate_l2", "linf", "rate_linf", "h1", "rate_h1"]
    assert rows[1][0] == "4"
    assert rows[2][0] == "8"


def test_converge_output_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["converge", "--N", "4,8", "--out", str(out1)]) == 0
    assert main(["converge", "--N", "4,8", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_experiment_exits_one(capsys):
    assert main(["converge", "--experiment", "ex99"]) == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_converge_without_exact_solution_exits_one(capsys):
    assert main(["converge", "--experiment", "timevar"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no exact solution" in err


def test_bad_n_list_rejected():
    assert main(["converge", "--N", "abc"]) == 1


def test_usage_errors_exit_one(capsys):
    assert main(["decay", "--N", "x"]) == 1
    assert main(["converge", "--backend", "spectral"]) == 1
    assert main([]) == 1
    assert "invalid int value" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--help"])
    assert exc.value.code == 0
    assert "--lambda-source" in capsys.readouterr().out


def test_eig_fd_prints_closed_form(capsys):
    assert main(["eig", "--backend", "fd", "--N", "16"]) == 0
    out = capsys.readouterr().out
    assert "lambda1_h" in out
    assert f"{2 * np.pi ** 2:.6f}"[:6] in out  # analytic reference printed


def test_eig_fem_pi_square(capsys):
    assert main(["eig", "--backend", "fem", "--N", "8", "--domain", "pi"]) == 0
    out = capsys.readouterr().out
    lam = float(out.splitlines()[0].split("lambda1_h =")[1].split("(")[0])
    assert lam == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("backend, lam", [("fem", 19.9297898423),
                                          ("fd", 19.6758728671)])
def test_eig_lambda1_does_not_depend_on_the_preconditioner(backend, lam, capsys):
    # lambda1_h as printed with Jacobi-CG inner solves
    assert main(["eig", "--backend", backend, "--N", "16"]) == 0
    out = capsys.readouterr().out
    printed = float(out.splitlines()[0].split("lambda1_h =")[1].split("(")[0])
    assert printed == pytest.approx(lam, abs=1e-10)


def test_modal_command(capsys):
    assert main(["modal", "--p", "1", "--q", "1", "--k", "1e-3",
                 "--steps", "100"]) == 0
    out = capsys.readouterr().out
    rel = float(out.splitlines()[-1].split(":")[1])
    assert rel < 1e-3


def test_decay_strict_passes_on_builtin(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    code = main(["decay", "--experiment", "ex3ii", "--N", "8",
                 "--k-override", "0.01", "--strict", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "energy monotone" in printed
    assert "PASS" in printed
    assert out.exists()


def test_decay_strict_passes_on_a_variable_coefficient(capsys):
    assert main(["decay", "--experiment", "timevar", "--backend", "fd",
                 "--N", "8", "--strict"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_decay_strict_fails_on_a_variable_coefficient_verdict(monkeypatch, capsys):
    run_decay = harness.run_decay

    def sandwich_fails(*args, **kwargs):
        return replace(run_decay(*args, **kwargs), sandwich_ok=False)

    monkeypatch.setattr(harness, "run_decay", sandwich_fails)
    assert main(["decay", "--experiment", "timevar", "--backend", "fd",
                 "--N", "8", "--strict"]) == 2
    captured = capsys.readouterr()
    assert "extended-energy sandwich : FAIL" in captured.out
    assert "strict mode: inequality violated" in captured.err


def test_steady_command(capsys):
    assert main(["steady", "--N", "8"]) == 0
    out = capsys.readouterr().out
    assert "monotone decrease: yes" in out
    assert "relative reduction" in out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("experiment = ex1\nN = 4,8\n")
    out = tmp_path / "from_cfg.csv"
    code = main(["--config", str(cfg), "converge", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["4", "8"]


def test_config_flag_wins_over_file(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("N = 4,8\n")
    out = tmp_path / "override.csv"
    code = main(["--config", str(cfg), "converge", "--N", "5", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["5"]


def test_config_unknown_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("colour = blue\n")
    assert main(["--config", str(cfg), "converge"]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_key_of_another_subcommand_exits_one(tmp_path, capsys):
    cfg = tmp_path / "decay.cfg"
    cfg.write_text("lambda_source = discrete\n")
    assert main(["--config", str(cfg), "converge"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "converge"]) == 1


def test_config_file_named_like_its_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eig").write_text("N = 6\n")
    assert main(["--config", "eig", "eig"]) == 0
    assert "N=6" in capsys.readouterr().out


@pytest.mark.parametrize("argv, why", [
    (["decay", "--k-override", "0"], "time step"),
    (["steady", "--k-override", "0"], "time step"),
    (["converge", "--k-override", "0"], "time step"),
    (["converge", "--k-override", "-0.01"], "time step"),
    (["decay", "--k-override", "nan"], "time step"),
    (["modal", "--k", "0"], "time step"),
    (["modal", "--k", "-0.001"], "time step"),
    (["decay", "--N", "1"], "no unknowns"),
    (["eig", "--N", "1", "--backend", "fem"], "no unknowns"),
    (["steady", "--N", "1"], "no unknowns"),
    (["modal", "--alpha", "inf"], "damping"),
    (["modal", "--alpha", "nan"], "damping"),
    (["modal", "--alpha", "-1"], "damping"),
    (["modal", "--beta", "inf"], "damping"),
    (["modal", "--p", "0"], "mode (0, 1) is zero"),
    (["modal", "--p", "-1"], "mode (-1, 1) is zero"),
    (["modal", "--M", "8", "--p", "8"], "mode (8, 1) is zero"),
])
def test_bad_step_or_mesh_without_unknowns_exits_one(argv, why, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and why in err


@pytest.mark.parametrize("argv", [["converge", "--k-override", "2"],
                                  ["decay", "--k-override", "2"],
                                  ["steady", "--k-override", "40"]])
def test_step_longer_than_the_final_time_exits_one(argv, capsys):
    assert main(argv) == 1
    assert "final time must be at least one step" in capsys.readouterr().err


NAN_FIELD = ScalarField(lambda x, y: np.full_like(np.asarray(x, dtype=float), np.nan))


def _with_nan_data(monkeypatch, experiment, data):
    builtin = harness.builtin_experiments

    def with_nan_data():
        exps = builtin()
        exp = exps[experiment]
        exps[experiment] = replace(exp, params=replace(exp.params, **{data: NAN_FIELD}))
        return exps

    monkeypatch.setattr(harness, "builtin_experiments", with_nan_data)


@pytest.mark.parametrize("data, command, experiment", [("forcing", "decay", "timevar"),
                                                       ("u0", "decay", "timevar"),
                                                       ("u0", "steady", "forcing")])
def test_nan_data_on_fd_exits_one(command, experiment, data, monkeypatch, capsys):
    # init_state rejects non-finite initial data, and the load vector a
    # non-finite forcing, as bad input before any solve
    _with_nan_data(monkeypatch, experiment, data)
    code = main([command, "--experiment", experiment, "--backend", "fd", "--N", "8"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_nan_forcing_of_steady_exits_one(monkeypatch, capsys):
    # steady_state, which runs before the run, rejects the forcing as bad
    # input: its solve is a division, which would return NaN silently
    _with_nan_data(monkeypatch, "forcing", "forcing")
    assert main(["steady", "--experiment", "forcing", "--backend", "fd", "--N", "8"]) == 1
    assert "error: steady state requires a finite forcing" in capsys.readouterr().err


def test_eig_without_convergence_exits_two(monkeypatch, capsys):
    # one inverse power iteration cannot meet EIG_TOL from the all-ones start
    monkeypatch.setattr(sparse, "EIG_MAX_ITER", 1)
    assert main(["eig", "--N", "8"]) == 2
    assert "numerical failure: inverse power iteration" in capsys.readouterr().err
