"""Fully discrete time integrator for u'' + beta*A u' + alpha*u' + A u = f
over any SPD (M, K) backend pair, with constant, time-scheduled, or
space-varying damping coefficients.

Scheme: (d2 U^n, chi) + beta a(dt U^n, chi) + alpha (dt U^n, chi)
        + a(U^{n+1}, chi) = (f, chi), where d2 is the centered second
difference and dt the forward difference, leading to the SPD system
    [(1/k^2 + alpha/k) M + (beta/k + 1) K] U^{n+1} = rhs.
Every operator sits on one CSR pattern, so the system matrix for a given
step and coefficient value is one sum of value arrays, built once and reused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import diagnostics
from .fdm import FdOperator
from .fem import FemSpace, ScalarField, assemble_mass, assemble_stiffness, \
    interpolate as fem_interpolate, load_vector
from .mesh import FdGrid, Rectangle
from .sparse import CgError, SparseMatrix, cg_solve, from_diagonal, \
    on_common_pattern

STEP_RTOL = 1e-10


@dataclass(frozen=True)
class TimeSchedule:
    """Nondecreasing damping schedule t -> value within [lo, hi]."""

    fn: Callable[[float], float]
    lo: float
    hi: float


@dataclass(frozen=True)
class SpatialField:
    """Space-varying damping coefficient with positive bounds."""

    field: ScalarField
    lo: float
    hi: float


Coefficient = float | TimeSchedule | SpatialField


class StepError(RuntimeError):
    """Solver failure during time stepping, annotated with the step index."""


def _coeff_range(c: Coefficient) -> tuple[float, float]:
    if isinstance(c, TimeSchedule | SpatialField):
        return c.lo, c.hi
    return float(c), float(c)


def _value_at(c: Coefficient, t: float) -> float | SpatialField:
    """The coefficient at time t; a spatial field is its own value, since the
    backend assembles its weighted operator once."""
    if isinstance(c, TimeSchedule):
        return float(c.fn(t))
    return c if isinstance(c, SpatialField) else float(c)


@dataclass(frozen=True)
class ModelParams:
    """Damping coefficients, forcing, and initial data on a rectangle."""

    domain: Rectangle
    alpha: Coefficient = 0.0
    beta: Coefficient = 0.0
    u0: ScalarField | None = None
    u1: ScalarField | None = None
    forcing: ScalarField | None = None

    def __post_init__(self):
        if isinstance(self.alpha, float | int) and self.alpha < 0:
            raise ValueError("constant alpha must be nonnegative")
        if isinstance(self.beta, float | int) and self.beta < 0:
            raise ValueError("constant beta must be nonnegative")
        # undamped alpha = beta = 0 is permitted for conservative sanity runs;
        # decay_bounds rejects it where a positive rate is required
        self.check_schedules(np.linspace(0.0, 20.0, 201))
        for c in (self.alpha, self.beta):
            if isinstance(c, SpatialField):
                self._check_field(c)

    def check_schedules(self, times: np.ndarray) -> None:
        """Reject a time schedule that leaves [lo, hi] or decreases at the
        given sample times."""
        for c in (self.alpha, self.beta):
            if not isinstance(c, TimeSchedule):
                continue
            if not (0 < c.lo <= c.hi):
                raise ValueError("schedule bounds must satisfy 0 < lo <= hi")
            vals = np.array([c.fn(t) for t in times])
            if np.any(vals < c.lo - 1e-12) or np.any(vals > c.hi + 1e-12):
                raise ValueError("schedule leaves its stated [lo, hi] range")
            if np.any(np.diff(vals) < -1e-12):
                raise ValueError("schedule must be nondecreasing")

    def _check_field(self, c: SpatialField, samples: int = 25):
        if not (0 < c.lo <= c.hi):
            raise ValueError("field bounds must satisfy 0 < lo <= hi")
        r = self.domain
        xs = np.linspace(r.x0, r.x1, samples)[1:-1]
        ys = np.linspace(r.y0, r.y1, samples)[1:-1]
        xx, yy = np.meshgrid(xs, ys)
        vals = np.asarray(c.field(xx, yy), dtype=float)
        if np.any(vals < c.lo - 1e-12) or np.any(vals > c.hi + 1e-12):
            raise ValueError("damping field leaves its stated [lo, hi] range")

    def damping_ranges(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return _coeff_range(self.alpha), _coeff_range(self.beta)


@dataclass(frozen=True)
class StepperState:
    """Two-level state (U^{n-1}, U^n); n indexes u_curr, at time n*k."""

    n: int
    k: float
    u_prev: np.ndarray
    u_curr: np.ndarray

    @property
    def t(self) -> float:
        return self.n * self.k


@dataclass
class BackendHandles:
    """Everything the stepper needs from a spatial discretization."""

    M: SparseMatrix
    K: SparseMatrix
    ndof: int
    interpolate: Callable[[ScalarField], np.ndarray]
    load: Callable[[ScalarField], np.ndarray]
    weak_op: SparseMatrix | None = None   # alpha-weighted mass, spatial alpha only
    strong_op: SparseMatrix | None = None  # beta-weighted stiffness, spatial beta only
    label: str = ""
    # one-entry caches: (forcing, load vector) and ((k, alpha, beta) values,
    # system matrix, damping matrix)
    _load: tuple = field(default=(None, None), init=False, repr=False)
    _system: tuple = field(default=(None, None, None), init=False, repr=False)

    def __post_init__(self):
        ops = (self.M, self.K, self.weak_op, self.strong_op)
        shared = iter(on_common_pattern([op for op in ops if op is not None]))
        self._shared = [None if op is None else next(shared) for op in ops]

    def forcing_vector(self, params: ModelParams) -> np.ndarray:
        if params.forcing is None:
            return np.zeros(self.ndof)
        if self._load[0] is not params.forcing:
            self._load = (params.forcing, self.load(params.forcing))
        return self._load[1]

    def system(self, params: ModelParams, k: float,
               t: float) -> tuple[SparseMatrix, SparseMatrix]:
        """(1/k^2 M + 1/k D + K, D) with D the damping operator at time t.

        Rebuilt only when k or a coefficient value differs from the last call.
        """
        a, b = _value_at(params.alpha, t), _value_at(params.beta, t)
        key = (k, a, b)
        if self._system[0] != key:
            mass, stiff, weak, strong = self._shared
            damp = (weak.vals if isinstance(a, SpatialField) else a * mass.vals) \
                + (strong.vals if isinstance(b, SpatialField) else b * stiff.vals)
            vals = mass.vals / k ** 2 + damp / k + stiff.vals
            self._system = (key, replace(mass, vals=vals), replace(mass, vals=damp))
        return self._system[1], self._system[2]


def make_fem_backend(space: FemSpace, params: ModelParams) -> BackendHandles:
    weak = assemble_mass(space, params.alpha.field) \
        if isinstance(params.alpha, SpatialField) else None
    strong = assemble_stiffness(space, params.beta.field) \
        if isinstance(params.beta, SpatialField) else None
    return BackendHandles(
        M=assemble_mass(space),
        K=assemble_stiffness(space),
        ndof=space.n_dofs,
        interpolate=lambda f: fem_interpolate(space, f),
        load=lambda f: load_vector(space, f),
        weak_op=weak,
        strong_op=strong,
        label=f"fem-N{space.mesh.n_per_side}",
    )


def make_fd_backend(grid: FdGrid, params: ModelParams) -> BackendHandles:
    op = FdOperator(grid)
    mass = op.mass_matrix()
    stiff = op.gram_matrix()
    x, y = grid.interior_coords()

    def interp(f: ScalarField) -> np.ndarray:
        return np.asarray(f(x, y), dtype=float)

    weak = None
    if isinstance(params.alpha, SpatialField):
        weak = from_diagonal(grid.h ** 2 * interp(params.alpha.field))
    strong = None
    if isinstance(params.beta, SpatialField):
        raise NotImplementedError("variable-coefficient FD stencils are out of scope")
    return BackendHandles(
        M=mass, K=stiff, ndof=grid.n_interior,
        interpolate=interp,
        load=lambda f: grid.h ** 2 * interp(f),
        weak_op=weak, strong_op=strong,
        label=f"fd-M{grid.n_per_side}",
    )


def init_state(backend: BackendHandles, params: ModelParams, k: float,
               mode: str = "taylor",
               exact_at: Callable[[float], ScalarField] | None = None) -> StepperState:
    """Build (U^0, U^1).

    mode="exact" interpolates the manufactured solution at t = k; the Taylor
    start expands around t = 0 using u''(0) = -beta A u1 - alpha u1 - A u0.
    """
    if k <= 0:
        raise ValueError("time step must be positive")
    u0f = params.u0 if params.u0 is not None else None
    u0 = backend.interpolate(u0f) if u0f is not None else np.zeros(backend.ndof)
    if mode == "exact":
        if exact_at is None:
            raise ValueError("exact start requires an exact-solution provider")
        u1 = backend.interpolate(exact_at(k))
    elif mode == "taylor":
        v = backend.interpolate(params.u1) if params.u1 is not None \
            else np.zeros(backend.ndof)
        _, damping = backend.system(params, k, 0.0)
        rhs = -damping.matvec(v) - backend.K.matvec(u0) + backend.forcing_vector(params)
        w, _ = cg_solve(backend.M, rhs, rtol=1e-12, max_iter=50 * backend.ndof)
        u1 = u0 + k * v + 0.5 * k * k * w
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    return StepperState(n=1, k=k, u_prev=u0, u_curr=u1)


def step(state: StepperState, backend: BackendHandles,
         params: ModelParams) -> StepperState:
    """One implicit step (U^{n-1}, U^n) -> (U^n, U^{n+1}).

    Time-dependent coefficients are evaluated at t_n. The backend's cached
    SPD system matrix is solved by preconditioned CG.
    """
    if state.n < 1:
        raise ValueError("stepping requires n >= 1")
    k = state.k
    t_n = state.n * k
    system, damping = backend.system(params, k, t_n)
    guess = 2.0 * state.u_curr - state.u_prev
    rhs = backend.M.matvec(guess / k ** 2) + damping.matvec(state.u_curr) / k \
        + backend.forcing_vector(params)
    try:
        u_next, _ = cg_solve(system, rhs, rtol=STEP_RTOL,
                             max_iter=50 * backend.ndof, x0=guess)
    except CgError as exc:
        raise StepError(f"CG failed at step n={state.n} (t={t_n:g}): {exc}") from exc
    return StepperState(n=state.n + 1, k=k, u_prev=state.u_curr, u_curr=u_next)


def run(backend: BackendHandles, params: ModelParams, k: float, T: float,
        observers=(), record_ea: bool = False,
        init_mode: str = "taylor",
        exact_at: Callable[[float], ScalarField] | None = None,
        meta: dict | None = None, n_steps: int | None = None):
    """Run ceil(T/k) steps (or exactly ``n_steps``) from a fresh initial
    state; returns (final state, EnergyTrace). Observers are called with
    every state, including the initial one."""
    if T < k:
        raise ValueError("final time must be at least one step")
    if n_steps is None:
        n_steps = math.ceil(T / k - 1e-9)
    # step n evaluates the coefficients at t = n k
    params.check_schedules(k * np.arange(n_steps + 1))
    state = init_state(backend, params, k, mode=init_mode, exact_at=exact_at)
    times = [0.0]
    energies = [diagnostics.discrete_energy(state, backend)]
    crosses = [diagnostics.energy_cross_term(state, backend)]
    eas = [diagnostics.energy_EA(state, backend)] if record_ea else None
    for obs in observers:
        obs(state)
    for _ in range(n_steps):
        state = step(state, backend, params)
        times.append((state.n - 1) * k)
        energies.append(diagnostics.discrete_energy(state, backend))
        crosses.append(diagnostics.energy_cross_term(state, backend))
        if record_ea:
            eas.append(diagnostics.energy_EA(state, backend))
        for obs in observers:
            obs(state)
    trace = diagnostics.EnergyTrace(
        t=np.array(times), energy=np.array(energies), cross=np.array(crosses),
        ea=np.array(eas) if record_ea else None,
        meta=dict(meta or {}, k=k, backend=backend.label),
    )
    return state, trace


def steady_state(backend: BackendHandles, params: ModelParams) -> np.ndarray:
    """Solve K u_inf = F for the time-independent forcing in params."""
    if params.forcing is None:
        raise ValueError("steady state requires a forcing term")
    f = backend.forcing_vector(params)
    u, _ = cg_solve(backend.K, f, rtol=1e-12, max_iter=50 * backend.ndof)
    return u
