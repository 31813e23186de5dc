"""Fully discrete time integrator for u'' + beta*A u' + alpha*u' + A u = f
over any SPD (M, K) backend pair, with constant, time-scheduled, or
space-varying damping coefficients.

Scheme: (d2 U^n, chi) + beta a(dt U^n, chi) + alpha (dt U^n, chi)
        + a(U^{n+1}, chi) = (f, chi), where d2 is the centered second
difference and dt the forward difference, leading to the SPD system
    [(1/k^2 + alpha/k) M + (beta/k + 1) K] U^{n+1} = rhs.
Every operator sits on one sparsity pattern, so the system matrix for a given
step and coefficient value is one sum of value arrays, built once and reused.
Its symbol in the grid's sine basis is the same sum of the operators'
symbols, and preconditions every CG solve of the stepper.

Where every operator is diagonal in the sine basis (finite differences
without a spatial weight), the symbols are the operators themselves: run()
then steps all modes at once by the scalar recurrence, with no CG solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import diagnostics
from .fdm import FdOperator
from .fem import FemSpace, ScalarField, assemble_mass, assemble_stiffness, \
    at_midpoints, interpolate as fem_interpolate, load_vector
from .mesh import FdGrid, Rectangle
from .sparse import CgError, Preconditioner, SineBasis, SolveReport, \
    SparseMatrix, cg_solve, from_diagonal, on_common_pattern

STEP_RTOL = 1e-10
# CG starting point of a step from the last 2, 3 or 4 levels, newest first:
# the linear, quadratic and cubic extrapolants
EXTRAPOLANTS = {2: (2.0, -1.0), 3: (3.0, -3.0, 1.0), 4: (4.0, -6.0, 4.0, -1.0)}


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


@dataclass(frozen=True)
class Damping:
    """A coefficient in normal form: scale(t) times the spatial weight (1 when
    there is none), with values in [lo, hi]."""

    lo: float
    hi: float
    scale: Callable[[float], float]
    weight: ScalarField | None = None


def _resolve(c: Coefficient) -> Damping:
    """The only place that asks which kind a coefficient is."""
    if isinstance(c, TimeSchedule | SpatialField):
        if not (0 < c.lo <= c.hi):
            raise ValueError("schedule and field bounds must satisfy 0 < lo <= hi")
        if isinstance(c, SpatialField):
            return Damping(c.lo, c.hi, lambda t: 1.0, c.field)
        return Damping(c.lo, c.hi, lambda t: float(c.fn(t)))
    value = float(c)
    if value < 0:
        raise ValueError("constant damping must be nonnegative")
    return Damping(value, value, lambda t: value)


def _check_weight(c: Damping, values, where: str) -> None:
    """Reject a spatial weight that is not finite or leaves its stated
    [lo, hi] (so also one that is not strictly positive, since lo > 0) where
    it is evaluated. The test is negated because NaN compares false."""
    values = np.asarray(values, dtype=float)
    if not np.all((values >= c.lo - 1e-12) & (values <= c.hi + 1e-12)):
        raise ValueError(f"damping field must be finite, strictly positive and "
                         f"within its stated [lo, hi] = [{c.lo:g}, {c.hi:g}] {where}")


class StepError(RuntimeError):
    """Solver failure during time stepping, annotated with the step index."""


def check_time_step(k: float) -> float:
    """k itself; raises ValueError unless it is positive and finite."""
    if not 0.0 < k < math.inf:
        raise ValueError(f"time step must be positive and finite, not {k!r}")
    return k


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
        # undamped alpha = beta = 0 is permitted for conservative sanity runs;
        # decay_bounds rejects it where a positive rate is required
        self.check_schedules(np.linspace(0.0, 20.0, 201))
        for c in self.damping:
            if c.weight is not None:
                self._check_field(c)

    @cached_property
    def damping(self) -> tuple[Damping, Damping]:
        """(alpha, beta) in normal form."""
        return _resolve(self.alpha), _resolve(self.beta)

    def check_schedules(self, times: np.ndarray) -> list[tuple[float, float]]:
        """The time factors (alpha, beta) at the given sample times, each
        evaluated once. Rejects a time factor that is not finite, leaves
        [lo, hi] or decreases there."""
        columns = []
        for c in self.damping:
            vals = np.array([c.scale(t) for t in times])
            columns.append(vals.tolist())
            if c.weight is not None:
                continue
            if not np.all((vals >= c.lo - 1e-12) & (vals <= c.hi + 1e-12)):
                raise ValueError("schedule is not finite or leaves its stated "
                                 "[lo, hi] range")
            if np.any(np.diff(vals) < -1e-12):
                raise ValueError("schedule must be nondecreasing")
        return list(zip(*columns))

    def _check_field(self, c: Damping):
        """Check the weight at the interior points of a 25 x 25 grid."""
        r = self.domain
        xs = np.linspace(r.x0, r.x1, 25)[1:-1]
        ys = np.linspace(r.y0, r.y1, 25)[1:-1]
        xx, yy = np.meshgrid(xs, ys)
        _check_weight(c, c.weight(xx, yy), "on the sample grid")


@dataclass(frozen=True)
class StepperState:
    """Two-level state (U^{n-1}, U^n); n indexes u_curr, at time n*k.

    After a CG step, ``levels`` stacks up to four levels U^n ... U^{n-3},
    newest first (rows 0 and 1 are u_curr and u_prev), and ``products[j, i]``
    is level j times ``BackendHandles.operators[i]`` (M, K, then W and S
    where distinct) of ``products_of``, the backend that stepped it. The
    next step and the energies read them when they are of the same backend;
    a state built from u_prev and u_curr alone, or stepped or measured by
    another backend, gets them by explicit matvecs. ``solve`` reports the CG
    solve that produced u_curr in a step; None for an initial state and for
    sine-basis steps."""

    n: int
    k: float
    u_prev: np.ndarray
    u_curr: np.ndarray
    solve: SolveReport | None = None
    levels: np.ndarray | None = None
    products: np.ndarray | None = None
    products_of: BackendHandles | None = field(default=None, repr=False)


@dataclass
class BackendHandles:
    """Everything the stepper needs from a spatial discretization of one
    problem: its operators are built for ``params``, which every step reads."""

    params: ModelParams
    M: SparseMatrix
    K: SparseMatrix
    interpolate: Callable[[ScalarField], np.ndarray]
    load: Callable[[ScalarField], np.ndarray]
    weak_op: SparseMatrix    # alpha-weighted mass; M itself when alpha has no weight
    strong_op: SparseMatrix  # beta-weighted stiffness; K itself when beta has no weight
    basis: SineBasis         # the unknowns' grid, for the preconditioners
    # every operator is diagonal in ``basis``, so its symbol is exact and
    # run() steps in the sine basis; make_fd_backend sets it when alpha has
    # no spatial weight
    diagonal_in_basis: bool = False
    # one-entry cache: ((k, alpha, beta) scales, (system matrix, system
    # preconditioner, level weights))
    _system: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        ops = (self.M, self.K, self.weak_op, self.strong_op)
        distinct = {id(op): op for op in ops}
        shared = dict(zip(distinct, on_common_pattern(list(distinct.values()))))
        symbols = {key: self.basis.symbol(op) for key, op in distinct.items()}
        self._shared = [shared[id(op)] for op in ops]
        self._symbols = [symbols[id(op)] for op in ops]
        # the distinct operators, M and K first; row i of _roles picks role
        # i of (M, K, W, S) among them, so a combination of the roles is a
        # combination of the distinct operators
        self.operators = list(distinct.values())
        self._roles = np.eye(len(distinct))[[list(distinct).index(id(op))
                                             for op in ops]]

    @property
    def ndof(self) -> int:
        return self.M.dim

    @cached_property
    def mass_precond(self) -> Preconditioner:
        """Sine-basis preconditioner for solves with M."""
        return self.basis.solver(self._symbols[0])

    @cached_property
    def stiffness_precond(self) -> Preconditioner:
        """Sine-basis preconditioner for solves with K."""
        return self.basis.solver(self._symbols[1])

    @cached_property
    def forcing(self) -> np.ndarray:
        """Load vector of the forcing; zeros when there is none."""
        f = self.params.forcing
        return np.zeros(self.ndof) if f is None else self.load(f)

    def scales(self, t: float) -> tuple[float, float]:
        """The damping time factors (alpha, beta) at time t."""
        alpha, beta = self.params.damping
        return alpha.scale(t), beta.scale(t)

    def products(self, levels: np.ndarray) -> np.ndarray:
        """Each level's product with each distinct operator, by explicit
        matvecs: an array of shape (levels, operators, ndof)."""
        return np.array([[op.matvec(u) for op in self.operators] for u in levels])

    def system(self, k: float, t: float) -> tuple[SparseMatrix, Preconditioner]:
        """(A, P^-1) with A = 1/k^2 M + 1/k D + K, D = scale_alpha(t) W
        + scale_beta(t) S the damping operator at time t, and P^-1 the
        sine-basis preconditioner of A, whose symbol is the same combination
        of the operators' symbols."""
        return self._step_system(k, *self.scales(t))[:2]

    def _step_system(self, k: float, a: float, b: float):
        """(A, P^-1, weights) for step size k and time factors (a, b).

        weights[L] has two rows over the (level, operator) pairs of a state
        with L levels (see StepperState.products): the right-hand side
        (2 M U^n - M U^{n-1})/k^2 + D U^n/k without the forcing, and the
        residual of the step's CG starting point, that right-hand side minus
        A times the extrapolant of the L levels.

        Rebuilt only when k or a time factor differs from the last call.
        """
        key = (k, a, b)
        if self._system[0] != key:
            mass = self._shared[0]
            vals, _ = _combine(k, a, b, *(op.vals for op in self._shared))
            symbol, _ = _combine(k, a, b, *self._symbols)
            op_a, op_d = _combine(k, a, b, *self._roles)
            rhs = np.concatenate((2.0 * self._roles[0] / k ** 2 + op_d / k,
                                  -self._roles[0] / k ** 2))
            weights = {}
            for n_levels, ext in EXTRAPOLANTS.items():
                row = np.zeros(n_levels * len(self.operators))
                row[:rhs.size] = rhs
                weights[n_levels] = np.stack((row, row - np.kron(ext, op_a)))
            self._system = (key, (replace(mass, vals=vals), self.basis.solver(symbol),
                                  weights))
        return self._system[1]


def _combine(k, a, b, mass, stiff, weak, strong):
    """(A, D) = (mass/k^2 + D/k + stiff, a weak + b strong), over the
    operators' value arrays or over their symbols."""
    damp = a * weak + b * strong
    return mass / k ** 2 + damp / k + stiff, damp


def make_fem_backend(space: FemSpace, params: ModelParams) -> BackendHandles:
    alpha, beta = params.damping
    for c in (alpha, beta):
        if c.weight is not None:
            _check_weight(c, at_midpoints(space, c.weight), "at the quadrature points")
    mass, stiff = assemble_mass(space), assemble_stiffness(space)
    weak = mass if alpha.weight is None else assemble_mass(space, alpha.weight)
    strong = stiff if beta.weight is None else assemble_stiffness(space, beta.weight)
    return BackendHandles(
        params=params,
        M=mass,
        K=stiff,
        interpolate=lambda f: fem_interpolate(space, f),
        load=lambda f: load_vector(space, f),
        weak_op=weak, strong_op=strong,
        basis=space.basis,
    )


def make_fd_backend(grid: FdGrid, params: ModelParams) -> BackendHandles:
    alpha, beta = params.damping
    if beta.weight is not None:
        raise NotImplementedError("variable-coefficient FD stencils are out of scope")
    op = FdOperator(grid)
    mass = op.mass_matrix()
    stiff = op.gram_matrix()
    x, y = grid.interior_coords()

    def interp(f: ScalarField) -> np.ndarray:
        return np.asarray(f(x, y), dtype=float)

    weak = mass
    if alpha.weight is not None:
        w = interp(alpha.weight)
        _check_weight(alpha, w, "at the grid nodes")
        weak = from_diagonal(grid.h ** 2 * w)
    return BackendHandles(
        params=params, M=mass, K=stiff, interpolate=interp,
        load=lambda f: grid.h ** 2 * interp(f),
        weak_op=weak, strong_op=stiff,
        basis=SineBasis(grid.n_per_side - 1),
        # h^2 I and the 5-point h^2 A_h are diagonal in the sine basis; a
        # weighted mass h^2 diag(w) is not
        diagonal_in_basis=alpha.weight is None,
    )


def init_state(backend: BackendHandles, k: float,
               exact_at: Callable[[float], ScalarField] | None = None,
               scales: tuple[float, float] | None = None) -> StepperState:
    """Build (U^0, U^1).

    Given ``exact_at``, U^1 interpolates the exact solution at t = k;
    otherwise the Taylor start expands around t = 0 using
    u''(0) = -beta A u1 - alpha u1 - A u0, with the damping time factors
    ``scales`` at t = 0 when the caller has them (evaluated otherwise).
    """
    check_time_step(k)
    params = backend.params
    u0 = backend.interpolate(params.u0) if params.u0 is not None \
        else np.zeros(backend.ndof)
    if exact_at is not None:
        u1 = backend.interpolate(exact_at(k))
    else:
        v = backend.interpolate(params.u1) if params.u1 is not None \
            else np.zeros(backend.ndof)
        a, b = backend.scales(0.0) if scales is None else scales
        damped = a * backend.weak_op.matvec(v) + b * backend.strong_op.matvec(v)
        rhs = -damped - backend.K.matvec(u0) + backend.forcing
        w, _ = cg_solve(backend.M, rhs, precond=backend.mass_precond)
        u1 = u0 + k * v + 0.5 * k * k * w
    return StepperState(n=1, k=k, u_prev=u0, u_curr=u1)


def _with_products(state: StepperState, backend: BackendHandles) -> StepperState:
    """``state`` with the levels and products of a CG step by ``backend``;
    a state without levels gets its two, and products that are missing or
    of another backend are computed by explicit matvecs."""
    if state.products is not None and state.products_of is backend:
        return state
    levels = np.stack((state.u_curr, state.u_prev)) if state.levels is None \
        else state.levels
    return replace(state, levels=levels, products=backend.products(levels),
                   products_of=backend)


def step(state: StepperState, backend: BackendHandles,
         scales: tuple[float, float] | None = None) -> StepperState:
    """One implicit step (U^{n-1}, U^n) -> (U^n, U^{n+1}).

    Time-dependent coefficients are evaluated at t_n, or taken from
    ``scales`` when the caller has them. The backend's cached SPD system
    matrix is solved by CG with its sine-basis preconditioner, starting from
    the highest-order extrapolant the state's levels allow. The right-hand
    side and the starting residual are combinations of the state's
    products; the new level's products are explicit matvecs, so a step
    costs one matvec per CG iteration and one per distinct operator.
    """
    if state.n < 1:
        raise ValueError("stepping requires n >= 1")
    k = state.k
    t_n = state.n * k
    state = _with_products(state, backend)
    system, precond, weights = backend._step_system(
        k, *(backend.scales(t_n) if scales is None else scales))
    levels, products = state.levels, state.products
    rhs = weights[len(levels)] @ products.reshape(-1, backend.ndof)
    if backend.params.forcing is not None:
        rhs += backend.forcing
    guess = np.dot(EXTRAPOLANTS[len(levels)], levels)
    try:
        u_next, report = cg_solve(system, rhs[0], rtol=STEP_RTOL, x0=guess,
                                  precond=precond, r0=rhs[1])
    except CgError as exc:
        raise StepError(f"CG failed at step n={state.n} (t={t_n:g}): {exc}") from exc
    kept = min(len(levels) + 1, max(EXTRAPOLANTS))
    new_levels = np.concatenate((u_next[None], levels[:kept - 1]))
    new_products = np.empty((kept, *products.shape[1:]))
    new_products[1:] = products[:kept - 1]
    for row, op in zip(new_products[0], backend.operators):
        row[:] = op.matvec(u_next)
    return StepperState(n=state.n + 1, k=k, u_prev=new_levels[1],
                        u_curr=new_levels[0], solve=report, levels=new_levels,
                        products=new_products, products_of=backend)


def run(backend: BackendHandles, k: float, T: float, observers=(),
        exact_at: Callable[[float], ScalarField] | None = None,
        n_steps: int | None = None):
    """Run ceil(T/k) steps (or exactly ``n_steps``) from a fresh initial
    state, exact when ``exact_at`` is given (see init_state); returns
    (final state, EnergyTrace). The trace also carries each step's CG
    iterations and final residual. Observers are called with every state,
    including the initial one.

    On a backend that is diagonal in its sine basis the steps are taken in
    that basis (see _run_modal) and report 0 iterations and residual 0;
    otherwise each is a CG ``step``."""
    if T < check_time_step(k):
        raise ValueError("final time must be at least one step")
    if n_steps is None:
        n_steps = math.ceil(T / k - 1e-9)
    # step n evaluates the coefficients at t = n k
    scales = backend.params.check_schedules(k * np.arange(n_steps + 1))
    state = init_state(backend, k, exact_at=exact_at, scales=scales[0])
    if backend.diagonal_in_basis:
        state, energies, crosses = _run_modal(backend, state, scales, observers)
        iterations, residuals = np.zeros(n_steps, dtype=int), np.zeros(n_steps)
    else:
        energies, crosses, solves = [], [], []

        def record(state):
            energy, cross = diagnostics.energy_and_cross(state, backend)
            energies.append(energy)
            crosses.append(cross)
            for obs in observers:
                obs(state)

        state = _with_products(state, backend)
        record(state)
        for step_scales in scales[1:]:
            state = step(state, backend, step_scales)
            solves.append(state.solve)
            record(state)
        iterations = np.array([s.iterations for s in solves], dtype=int)
        residuals = np.array([s.final_residual for s in solves])
    trace = diagnostics.EnergyTrace(
        t=k * np.arange(n_steps + 1), energy=np.array(energies),
        cross=np.array(crosses),
        cg_iterations=iterations, cg_residuals=residuals,
    )
    return state, trace


def _run_modal(backend: BackendHandles, state: StepperState, scales,
               observers) -> tuple[StepperState, np.ndarray, np.ndarray]:
    """One step from ``state`` per entry of ``scales`` after the first (the
    damping time factors at each step time), in the sine basis, in which M,
    K and the damping operator are the diagonal matrices of their symbols:
    every mode follows the scalar recurrence of oracle.modal_recurrence, and
    E = 1/2 (d'M d + U'K U) and (d, U)_M follow by Parseval. Grid values
    are formed only for observers and for the returned final state.

    Returns (final state, energies, cross terms) for the initial state and
    each step. Raises StepError at the first step whose energy is not
    finite, without a numpy warning for the overflow that made it so.
    """
    basis, k = backend.basis, state.k
    n_steps = len(scales) - 1
    symbols = [sym.ravel() for sym in backend._symbols]
    mass, stiff = symbols[:2]
    force = basis.forward(backend.forcing).ravel()
    prev, curr = basis.forward(state.u_prev).ravel(), basis.forward(state.u_curr).ravel()
    energies, crosses = np.empty(n_steps + 1), np.empty(n_steps + 1)

    def record(i):
        d = (curr - prev) / k
        md = mass * d
        energies[i] = 0.5 * (d @ md + curr @ (stiff * curr))
        crosses[i] = curr @ md

    record(0)
    for obs in observers:
        obs(state)
    key = None
    u_curr = state.u_curr
    caller_err = np.geterr()
    # a diverging run overflows here first and ends in the StepError below;
    # observers run under the caller's error handling
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            if scales[n] != key:
                key = scales[n]
                system, damping = _combine(k, *key, *symbols)
            prev, curr = curr, (mass * (2.0 * curr - prev) / k ** 2
                                + damping * curr / k + force) / system
            record(n)
            if not math.isfinite(energies[n]):
                raise StepError(f"non-finite energy at step n={n} (t={n * k:g})")
            if observers:
                u_prev, u_curr = u_curr, basis.inverse(curr)
                with np.errstate(**caller_err):
                    for obs in observers:
                        obs(StepperState(n=n + 1, k=k, u_prev=u_prev, u_curr=u_curr))
    final = StepperState(n=n_steps + 1, k=k, u_prev=basis.inverse(prev),
                         u_curr=basis.inverse(curr))
    return final, energies, crosses


def steady_state(backend: BackendHandles) -> np.ndarray:
    """Solve K u_inf = F for the backend's time-independent forcing."""
    if backend.params.forcing is None:
        raise ValueError("steady state requires a forcing term")
    u, _ = cg_solve(backend.K, backend.forcing, precond=backend.stiffness_precond)
    return u
