"""Independent modal ground truth: closed-form damped-oscillator solutions
per eigenmode and the scalar three-term recurrence mirroring the time stepper.

Projecting onto one eigenmode of the spatial operator reduces the damped wave
equation to u'' + (alpha + beta*lambda) u' + lambda u = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CRITICAL_TOL = 1e-12  # relative discriminant threshold for the double-root branch


@dataclass(frozen=True)
class Mode:
    """One spatial eigenmode with initial amplitude a0 and velocity b0."""

    p: int
    q: int
    lam: float
    a0: float = 1.0
    b0: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("eigenvalue must be positive")


def continuous_eigenvalue(p: int, q: int, lx: float = 1.0, ly: float = 1.0) -> float:
    return (p * np.pi / lx) ** 2 + (q * np.pi / ly) ** 2


def modal_continuous(mode: Mode, alpha: float, beta: float,
                     t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (u, u') of the modal ODE at time t.

    Branches on the characteristic discriminant: oscillatory, overdamped, or
    the (c1 + c2 t) e^{rt} double-root limit.
    """
    lam = mode.lam
    t = np.asarray(t, dtype=float)
    damp = alpha + beta * lam
    disc = damp * damp - 4.0 * lam
    a0, b0 = mode.a0, mode.b0
    if abs(disc) <= CRITICAL_TOL * max(damp * damp, 1.0):
        r = -damp / 2.0
        c1 = a0
        c2 = b0 - r * a0
        e = np.exp(r * t)
        u = (c1 + c2 * t) * e
        du = (c2 + r * (c1 + c2 * t)) * e
    elif disc > 0:
        s = np.sqrt(disc)
        r1 = (-damp + s) / 2.0
        r2 = (-damp - s) / 2.0
        c1 = (b0 - r2 * a0) / (r1 - r2)
        c2 = a0 - c1
        u = c1 * np.exp(r1 * t) + c2 * np.exp(r2 * t)
        du = c1 * r1 * np.exp(r1 * t) + c2 * r2 * np.exp(r2 * t)
    else:
        mu = -damp / 2.0
        om = np.sqrt(-disc) / 2.0
        e = np.exp(mu * t)
        c2 = (b0 - mu * a0) / om
        u = e * (a0 * np.cos(om * t) + c2 * np.sin(om * t))
        du = e * ((mu * a0 + om * c2) * np.cos(om * t)
                  + (mu * c2 - om * a0) * np.sin(om * t))
    return u, du


def modal_energy(mode: Mode, u: float, du: float) -> float:
    return 0.5 * (du * du + mode.lam * u * u)


def modal_recurrence(mode: Mode, alpha: float, beta: float, k: float,
                     n_steps: int, u0: float, u1: float) -> np.ndarray:
    """Scalar three-term recurrence of the fully discrete scheme on one mode.

    Returns the amplitudes [u^0, u^1, ..., u^{n_steps+1}] produced by
    [(1/k^2 + alpha/k) + (beta/k + 1) lam] u^{n+1}
        = (2/k^2 + alpha/k + (beta/k) lam) u^n - (1/k^2) u^{n-1}.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    if not 0.0 < k < np.inf:
        raise ValueError(f"time step must be positive and finite, not {k!r}")
    lam = mode.lam
    lhs = (1.0 / k ** 2 + alpha / k) + (beta / k + 1.0) * lam
    c_cur = 2.0 / k ** 2 + alpha / k + (beta / k) * lam
    c_prev = 1.0 / k ** 2
    out = np.empty(n_steps + 2)
    out[0], out[1] = u0, u1
    for n in range(1, n_steps + 1):
        out[n + 1] = (c_cur * out[n] - c_prev * out[n - 1]) / lhs
    return out
