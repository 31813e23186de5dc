"""Energy functionals, decay-rate bounds and fitting, and convergence tables."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sparse import cg_solve


def discrete_energy(state, backend) -> float:
    """E = 1/2 (||d||_M^2 + |U|_1^2) with d the backward difference velocity.

    ``state`` holds the pair (U^n, U^{n+1}) as (U_prev, U_curr).
    """
    d = (state.u_curr - state.u_prev) / state.k
    md = backend.M.matvec(d)
    ku = backend.K.matvec(state.u_curr)
    return 0.5 * float(d @ md + state.u_curr @ ku)


def energy_cross_term(state, backend) -> float:
    """The pairing (d, U^{n+1})_M entering the extended energy."""
    d = (state.u_curr - state.u_prev) / state.k
    return float(d @ backend.M.matvec(state.u_curr))


def extended_energy(state, backend, delta: float) -> float:
    """E plus the delta-weighted velocity/displacement cross term."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return discrete_energy(state, backend) + delta * energy_cross_term(state, backend)


def energy_EA(state, backend) -> float:
    """Higher energy 1/2 (|d|_1^2 + ||A_h U||^2), via the M-solve M w = K U."""
    d = (state.u_curr - state.u_prev) / state.k
    kd = backend.K.matvec(d)
    ku = backend.K.matvec(state.u_curr)
    w, _ = cg_solve(backend.M, ku, rtol=1e-12, max_iter=50 * ku.size)
    return 0.5 * float(d @ kd + w @ backend.M.matvec(w))


def decay_bounds(alpha, beta, lambda1: float) -> tuple[float, float]:
    """(continuous, fully discrete) admissible decay exponents.

    alpha and beta are values or (lo, hi) ranges. Continuous:
    min((a_lo + b_lo*l)/2, l/(a_hi + b_hi*l)); the fully discrete bound
    halves the second argument.
    """
    damp_lo = float(np.min(alpha) + np.min(beta) * lambda1)
    damp_hi = float(np.max(alpha) + np.max(beta) * lambda1)
    if damp_lo <= 0:
        raise ValueError("alpha + beta*lambda1 must be positive")
    delta_cont = min(damp_lo / 2.0, lambda1 / damp_hi)
    delta_disc = min(damp_lo / 2.0, lambda1 / (2.0 * damp_hi))
    return delta_cont, delta_disc


@dataclass
class EnergyTrace:
    """Per-step energies of a run; t[0] = 0 carries the initial energy."""

    t: np.ndarray
    energy: np.ndarray
    cross: np.ndarray          # (d, U)_M per step, for extended energies
    continuous: np.ndarray | None = None  # quadrature energy of the exact solution
    meta: dict = field(default_factory=dict)

    def extended(self, delta: float) -> np.ndarray:
        return self.energy + delta * self.cross

    def monotone(self, slack: float = 1e-10) -> bool:
        e = self.energy
        return bool(np.all(e[1:] <= e[:-1] * (1.0 + slack)))

    def sandwich_ok(self, delta: float) -> bool:
        ext = self.extended(delta)
        return bool(np.all(ext >= 0.5 * self.energy - 1e-14)
                    and np.all(ext <= 1.5 * self.energy + 1e-14))

    def decay_bound_ok(self, delta: float) -> bool:
        bound = 3.0 * np.exp(-delta * self.t / 15.0) * self.energy[0]
        return bool(np.all(self.energy <= bound * (1.0 + 1e-12) + 1e-300))


def fit_decay_rate(trace: EnergyTrace, t0: float, t1: float) -> float:
    """Least-squares slope of log E on [t0, t1]; returns -slope/2.

    Energy behaves like e^{-2 delta t}, so the fitted exponent is halved.
    """
    mask = (trace.t >= t0) & (trace.t <= t1)
    if mask.sum() < 5:
        raise ValueError("need at least 5 trace samples in the fit window")
    e = trace.energy[mask]
    if np.any(e <= 0):
        raise ValueError("nonpositive energies in the fit window")
    slope = np.polyfit(trace.t[mask], np.log(e), 1)[0]
    return -0.5 * float(slope)


@dataclass
class ConvergenceTable:
    """Rows of (N, errors, rates); rates are NaN on the first row."""

    n_values: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    h1: np.ndarray
    rate_l2: np.ndarray
    rate_linf: np.ndarray
    rate_h1: np.ndarray


def _rates(n_values: np.ndarray, err: np.ndarray) -> np.ndarray:
    out = np.full(err.size, np.nan)
    # h ratio = N_{i+1}/N_i regardless of the domain side length; rates stay
    # NaN wherever an error vanishes (exact reproduction)
    ok = (err[:-1] > 0) & (err[1:] > 0)
    idx = np.flatnonzero(ok) + 1
    out[idx] = (np.log(err[idx - 1]) - np.log(err[idx])) \
        / np.log(n_values[idx] / n_values[idx - 1])
    return out


def convergence_rates(rows) -> ConvergenceTable:
    """Build a table from (N, (l2, linf, h1)) rows with N strictly increasing."""
    n_values = np.array([float(n) for n, _ in rows])
    if np.any(np.diff(n_values) <= 0):
        raise ValueError("refinement levels must be strictly increasing")
    errs = np.array([e for _, e in rows], dtype=float)
    l2, linf, h1 = errs[:, 0], errs[:, 1], errs[:, 2]
    return ConvergenceTable(n_values, l2, linf, h1,
                            _rates(n_values, l2), _rates(n_values, linf),
                            _rates(n_values, h1))
