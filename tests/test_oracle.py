import numpy as np
import pytest

from dampedwave.oracle import (
    Mode,
    continuous_eigenvalue,
    modal_continuous,
    modal_recurrence,
)


def test_continuous_eigenvalue():
    assert continuous_eigenvalue(1, 1) == pytest.approx(2 * np.pi ** 2)
    assert continuous_eigenvalue(1, 1, np.pi, np.pi) == pytest.approx(2.0)
    assert continuous_eigenvalue(2, 3) == pytest.approx(13 * np.pi ** 2)


def test_mode_rejects_nonpositive_eigenvalue():
    with pytest.raises(ValueError):
        Mode(1, 1, 0.0)


def test_undamped_mode_oscillates_and_conserves_energy():
    lam = 2 * np.pi ** 2
    mode = Mode(1, 1, lam, a0=1.0, b0=0.0)
    ts = np.linspace(0.0, 2.0, 64)
    u, du = modal_continuous(mode, 0.0, 0.0, ts)
    assert np.allclose(u, np.cos(np.sqrt(lam) * ts), atol=1e-12)
    energies = 0.5 * (du * du + lam * u * u)
    assert np.allclose(energies, 0.5 * lam, rtol=1e-12)


def test_fundamental_mode_reproduces_pure_exponential():
    # alpha = pi, beta = 1/pi, lam = 2*pi^2: characteristic roots -pi, -2*pi;
    # initial data (1, -pi) selects exactly e^{-pi t}
    lam = 2 * np.pi ** 2
    mode = Mode(1, 1, lam, a0=1.0, b0=-np.pi)
    ts = np.linspace(0.0, 3.0, 50)
    u, du = modal_continuous(mode, np.pi, 1.0 / np.pi, ts)
    assert np.allclose(u, np.exp(-np.pi * ts), rtol=1e-12)
    assert np.allclose(du, -np.pi * np.exp(-np.pi * ts), rtol=1e-12)


def test_overdamped_mode_decays_without_sign_change():
    mode = Mode(1, 1, 4.0, a0=1.0, b0=0.0)
    ts = np.linspace(0.0, 20.0, 400)
    u, _ = modal_continuous(mode, 10.0, 0.0, ts)
    assert np.all(u > 0)
    assert np.all(np.diff(u) <= 1e-14)
    assert u[-1] < 1e-3  # slow root is -(10 - sqrt(84))/2, about -0.42


def test_critical_damping_branch_is_continuous():
    lam = 4.0
    mode = Mode(1, 1, lam, a0=1.0, b0=0.5)
    # alpha = 2 sqrt(lam) hits the double root exactly
    u_c, du_c = modal_continuous(mode, 4.0, 0.0, 1.3)
    u_near, du_near = modal_continuous(mode, 4.0 + 1e-9, 0.0, 1.3)
    assert u_c == pytest.approx(float(u_near), rel=1e-6)
    assert du_c == pytest.approx(float(du_near), rel=1e-6)


def test_recurrence_formula_single_step():
    lam, alpha, beta, k = 5.0, 0.7, 0.3, 0.01
    mode = Mode(1, 1, lam)
    seq = modal_recurrence(mode, alpha, beta, k, 1, u0=1.0, u1=0.98)
    lhs = (1 / k ** 2 + alpha / k) + (beta / k + 1) * lam
    rhs = (2 / k ** 2 + alpha / k + beta / k * lam) * 0.98 - 1.0 / k ** 2
    assert seq[2] == pytest.approx(rhs / lhs, rel=1e-14)


def test_recurrence_zero_data_stays_zero():
    seq = modal_recurrence(Mode(1, 1, 7.0), 1.0, 0.2, 0.01, 50, u0=0.0, u1=0.0)
    assert np.array_equal(seq, np.zeros(52))


def test_recurrence_needs_a_step():
    with pytest.raises(ValueError):
        modal_recurrence(Mode(1, 1, 1.0), 0.0, 0.0, 0.1, 0, 1.0, 1.0)


def test_recurrence_first_order_in_time():
    # the backward-biased scheme is O(k): halving k should halve the error
    lam = 2 * np.pi ** 2
    mode = Mode(1, 1, lam, a0=1.0, b0=-np.pi)
    alpha, beta = np.pi, 1.0 / np.pi
    T = 0.5
    errs = []
    for k in (0.01, 0.005, 0.0025):
        n = int(round(T / k))
        u1 = float(modal_continuous(mode, alpha, beta, k)[0])
        seq = modal_recurrence(mode, alpha, beta, k, n - 1, u0=1.0, u1=u1)
        exact = float(modal_continuous(mode, alpha, beta, n * k)[0])
        errs.append(abs(seq[-1] - exact))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 0.9)
    assert np.all(slopes <= 1.3)


def test_undamped_recurrence_energy_drift_is_tiny():
    # numerical dissipation is O(k); with a very small step the discrete
    # energy moves by less than 1e-6 relative over 1000 steps
    lam = 2 * np.pi ** 2
    mode = Mode(1, 1, lam, a0=1.0, b0=0.0)
    k = 5e-6
    u1 = float(modal_continuous(mode, 0.0, 0.0, k)[0])
    seq = modal_recurrence(mode, 0.0, 0.0, k, 1000, u0=1.0, u1=u1)
    d = np.diff(seq) / k
    energies = 0.5 * (d * d + lam * seq[1:] ** 2)
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    assert drift <= 1e-6
