"""Energy functionals, decay-rate bounds and fitting, and convergence tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import cg_solve


def pair_energies(levels: np.ndarray, products: np.ndarray,
                  k: float) -> tuple[np.ndarray, np.ndarray]:
    """(E, (d, U^{n+1})_M) of every pair (U^n, U^{n+1}) = (levels[i + 1],
    levels[i]) of a newest-first history, entry i for row i, from M e and
    K U^{n+1}, with e = U^{n+1} - U^n and d = e/k the backward difference
    velocity: E = 1/2 (e'M e/k^2 + U'K U), and M is symmetric, so the cross
    term is U^{n+1} . (M e)/k.

    ``products`` are the levels' stepper.BackendHandles.products, M first
    and K second: M e = M U^{n+1} - M U^n and K U^{n+1} are their rows, so
    no matvec is made. Each dot product is one row of an einsum.
    """
    u, e = levels[:-1], levels[:-1] - levels[1:]
    me = products[:-1, 0] - products[1:, 0]
    energy = 0.5 * (np.einsum("in,in->i", e, me) / k ** 2
                    + np.einsum("in,in->i", u, products[:-1, 1]))
    return energy, np.einsum("in,in->i", u, me) / k


def energy_and_cross(state, backend) -> tuple[float, float]:
    """(E, (d, U^{n+1})_M) of the pair (U_prev, U_curr) of ``state``:
    pair_energies of its two newest levels."""
    levels = state.levels[:2]
    energy, cross = pair_energies(levels, backend.products(levels), state.k)
    return float(energy[0]), float(cross[0])


def discrete_energy(state, backend) -> float:
    """E = 1/2 (||d||_M^2 + |U|_1^2) with d the backward difference velocity."""
    return energy_and_cross(state, backend)[0]


def energy_cross_term(state, backend) -> float:
    """The pairing (d, U^{n+1})_M entering the extended energy."""
    return energy_and_cross(state, backend)[1]


def energy_EA(state, backend) -> float:
    """Higher energy 1/2 (|d|_1^2 + ||A_h U||^2), via the M-solve M w = K U
    preconditioned by the backend's sine-basis mass preconditioner."""
    d = (state.u_curr - state.u_prev) / state.k
    kd = backend.K.matvec(d)
    ku = backend.K.matvec(state.u_curr)
    w, _ = cg_solve(backend.M, ku, backend.mass_precond)
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
    # per step (t[1:]): CG iterations and final relative residual of its
    # solve; 0 and 0.0 for a step taken in the sine basis, which solves nothing
    cg_iterations: np.ndarray | None = None
    cg_residuals: np.ndarray | None = None
    # per sample, given a reference u to stepper.run: ||U - u||_M
    distance: np.ndarray | None = None

    def extended(self, delta: float) -> np.ndarray:
        return self.energy + delta * self.cross

    def decay_bound(self, delta: float) -> np.ndarray:
        """3 e^{-delta t/15} E^0 at the trace times."""
        return 3.0 * np.exp(-delta * self.t / 15.0) * self.energy[0]

    def monotone(self) -> bool:
        """E_i <= E_{i-1} at every step, up to a relative 1e-10."""
        e = self.energy
        return bool(np.all(e[1:] <= e[:-1] * (1.0 + 1e-10)))

    def sandwich_ok(self, delta: float) -> bool:
        ext = self.extended(delta)
        return bool(np.all(ext >= 0.5 * self.energy - 1e-14)
                    and np.all(ext <= 1.5 * self.energy + 1e-14))

    def decay_bound_ok(self, delta: float) -> bool:
        return bool(np.all(self.energy <= self.decay_bound(delta) * (1.0 + 1e-12)
                           + 1e-300))

    def worst_growth(self) -> tuple[float, int]:
        """(max of E_i / E_{i-1} - 1, the sample i where it occurs); at
        most 0 exactly when the energy never grows."""
        growth = self.energy[1:] / self.energy[:-1] - 1.0
        i = int(np.argmax(growth))
        return float(growth[i]), i + 1

    def sandwich_slack(self, delta: float) -> float:
        """min over the samples of 1/2 - |E_ext - E| / E: the distance of the
        extended energy from the nearer edge of [E/2, 3E/2], relative to E;
        negative where it leaves the interval."""
        return float(np.min(0.5 - np.abs(delta * self.cross) / self.energy))

    def decay_bound_slack(self, delta: float) -> float:
        """min over the samples of 1 - E / (3 e^{-delta t/15} E^0); negative
        where the energy exceeds the bound."""
        return float(np.min(1.0 - self.energy / self.decay_bound(delta)))

    def decay_bound_rate_margin(self, delta: float) -> float:
        """min over the samples at t > 0 of log(bound / E) / t: the largest m
        with E <= 3 e^{-(delta/15 + m) t} E^0 at all of them, so the rate by
        which the energy decays faster than the bound requires; negative
        where the energy exceeds the bound."""
        bound = self.decay_bound(delta)[1:]
        return float(np.min(np.log(bound / self.energy[1:]) / self.t[1:]))


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


def check_levels(ns):
    """The refinement levels ``ns``; ValueError unless strictly increasing."""
    if np.any(np.diff(ns) <= 0):
        raise ValueError("refinement levels must be strictly increasing")
    return ns


def convergence_rates(rows) -> ConvergenceTable:
    """Build a table from (N, (l2, linf, h1)) rows with N strictly increasing."""
    n_values = check_levels(np.array([float(n) for n, _ in rows]))
    errs = np.array([e for _, e in rows], dtype=float)
    l2, linf, h1 = errs[:, 0], errs[:, 1], errs[:, 2]
    return ConvergenceTable(n_values, l2, linf, h1,
                            _rates(n_values, l2), _rates(n_values, linf),
                            _rates(n_values, h1))
