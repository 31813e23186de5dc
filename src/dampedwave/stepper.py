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
EXTRAPOLANTS = {len(w): np.array(w) for w in
                ((2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))}
HISTORY = max(EXTRAPOLANTS)  # the most levels a step reads
# steps of a CG run between two batched energy passes (see _run_cg); 32 to
# 128 measured alike
BLOCK = 64


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
    """The last 2 to 4 levels U^n, U^{n-1}, ... of a run, newest first, as
    the rows of ``levels``; u_curr and u_prev are rows 0 and 1, and n
    indexes u_curr, at time n*k. ``solve`` reports the CG solve that
    produced u_curr in a step; None for an initial state and for sine-basis
    steps."""

    n: int
    k: float
    levels: np.ndarray
    solve: SolveReport | None = None

    def __post_init__(self):
        if np.ndim(self.levels) != 2 or len(self.levels) not in EXTRAPOLANTS:
            raise ValueError(f"levels must be 2 to 4 rows, not {np.shape(self.levels)}")

    @property
    def u_curr(self) -> np.ndarray:
        return self.levels[0]

    @property
    def u_prev(self) -> np.ndarray:
        return self.levels[1]


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
        # the distinct operators, M and K first; role i of (M, K, W, S) is
        # operator _op_of_role[i] among them and row i of _roles picks it, so
        # a combination of the roles is a combination of the distinct operators
        self.operators = list(distinct.values())
        self._op_of_role = [list(distinct).index(id(op)) for op in ops]
        self._roles = np.eye(len(distinct))[self._op_of_role]
        # the distinct operators on their common pattern, as one stack
        shared = on_common_pattern(self.operators)
        self._stack = replace(shared[0], vals=np.stack([m.vals for m in shared]))
        symbols = [self.basis.symbol(op) for op in self.operators]
        self._symbols = [symbols[i] for i in self._op_of_role]

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

    def products(self, levels: np.ndarray) -> np.ndarray:
        """Each level times each distinct operator, an array of shape
        (levels, operators, ndof): one stacked matvec per level."""
        return np.array([self._stack.matvec(u) for u in levels])

    def system(self, k: float, t: float) -> tuple[SparseMatrix, Preconditioner]:
        """(A, P^-1) with A = 1/k^2 M + 1/k D + K, D = scale_alpha(t) W
        + scale_beta(t) S the damping operator at time t, and P^-1 the
        sine-basis preconditioner of A, whose symbol is the same combination
        of the operators' symbols; ModelParams.check_schedules gives the
        time factors."""
        return self._step_system(k, *self.params.check_schedules([t])[0])[:2]

    def _step_system(self, k: float, a: float, b: float):
        """(A, P^-1, weights) for step size k and time factors (a, b).

        weights[L] has two rows over the (level, operator) pairs of the last
        L levels, newest first (see products): the right-hand side
        (2 M U^n - M U^{n-1})/k^2 + D U^n/k without the forcing, and the
        residual of the step's CG starting point, that right-hand side minus
        A times the extrapolant of the L levels.

        Rebuilt only when k or a time factor differs from the last call.
        """
        key = (k, a, b)
        if self._system[0] != key:
            vals, _ = _combine(k, a, b, *self._stack.vals[self._op_of_role])
            symbol, _ = _combine(k, a, b, *self._symbols)
            op_a, op_d = _combine(k, a, b, *self._roles)
            rhs = np.concatenate((2.0 * self._roles[0] / k ** 2 + op_d / k,
                                  -self._roles[0] / k ** 2))
            weights = {}
            for n_levels, ext in EXTRAPOLANTS.items():
                row = np.zeros(n_levels * len(self.operators))
                row[:rhs.size] = rhs
                weights[n_levels] = np.stack((row, row - np.kron(ext, op_a)))
            self._system = (key, (replace(self._stack, vals=vals),
                                  self.basis.solver(symbol), weights))
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
    ``scales`` at t = 0 when the caller has them (check_schedules otherwise).
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
        a, b = params.check_schedules([0.0])[0] if scales is None else scales
        damped = a * backend.weak_op.matvec(v) + b * backend.strong_op.matvec(v)
        rhs = -damped - backend.K.matvec(u0) + backend.forcing
        w, _ = cg_solve(backend.M, rhs, precond=backend.mass_precond)
        u1 = u0 + k * v + 0.5 * k * k * w
    return StepperState(n=1, k=k, levels=np.stack((u1, u0)))


def _advance(backend: BackendHandles, levels: np.ndarray, products: np.ndarray,
             top: int, n: int, k: float, scales: tuple[float, float]) -> SolveReport:
    """One implicit step U^n -> U^{n+1} in a newest-first history: U^n and
    up to three older levels are the rows below ``top`` of ``levels``, and of
    ``products`` their BackendHandles.products. The cached system at the
    time factors ``scales`` of t_n is solved by CG with its sine-basis
    preconditioner from the highest-order extrapolant of those levels, with
    a right-hand side and starting residual that combine their products.
    U^{n+1} and its products (one stacked matvec) go into row ``top``, so a
    step costs one matvec per CG iteration and one fused product."""
    system, precond, weights = backend._step_system(k, *scales)
    depth = min(len(levels) - top - 1, HISTORY)
    history = slice(top + 1, top + 1 + depth)
    rhs = weights[depth] @ products[history].reshape(-1, levels.shape[1])
    if backend.params.forcing is not None:
        rhs += backend.forcing
    guess = EXTRAPOLANTS[depth] @ levels[history]
    try:
        u_next, report = cg_solve(system, rhs[0], rtol=STEP_RTOL, x0=guess,
                                  precond=precond, r0=rhs[1])
    except CgError as exc:
        raise StepError(f"CG failed at step n={n} (t={n * k:g}): {exc}") from exc
    levels[top] = u_next
    products[top] = backend._stack.matvec(u_next)
    return report


def step(state: StepperState, backend: BackendHandles,
         scales: tuple[float, float] | None = None) -> StepperState:
    """One implicit step (U^{n-1}, U^n) -> (U^n, U^{n+1}), keeping up to
    four levels: _advance on a history of the state's levels and their
    products. The time factors at t_n come from ``scales`` when the caller
    has them, else from ModelParams.check_schedules."""
    if state.n < 1:
        raise ValueError("stepping requires n >= 1")
    n, k = state.n, state.k
    if scales is None:
        scales = backend.params.check_schedules([n * k])[0]
    levels = np.empty((len(state.levels) + 1, backend.ndof))
    levels[1:] = state.levels
    products = np.empty((len(levels), len(backend.operators), backend.ndof))
    products[1:] = backend.products(state.levels)
    report = _advance(backend, levels, products, 0, n, k, scales)
    return StepperState(n=n + 1, k=k, levels=levels[:HISTORY], solve=report)


def run(backend: BackendHandles, k: float, T: float,
        exact_at: Callable[[float], ScalarField] | None = None,
        n_steps: int | None = None, reference: np.ndarray | None = None):
    """Run ceil(T/k) steps (or exactly ``n_steps``) from a fresh initial
    state, exact when ``exact_at`` is given (see init_state); returns
    (final state, EnergyTrace). The trace also carries each step's CG
    iterations and final residual, and, given a finite ``reference`` vector
    u of shape (ndof,), the distance ||U - u||_M of the newest level of each
    sample (ValueError for any other reference).

    On a backend that is diagonal in its sine basis the steps are taken in
    that basis (see _run_modal) and report 0 iterations and residual 0;
    otherwise each is a CG step (see _run_cg)."""
    if T < check_time_step(k):
        raise ValueError("final time must be at least one step")
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (backend.ndof,) or not np.all(np.isfinite(reference)):
            raise ValueError(f"reference must be a finite vector of shape "
                             f"({backend.ndof},)")
    if n_steps is None:
        n_steps = math.ceil(T / k - 1e-9)
    # step n evaluates the coefficients at t = n k
    scales = backend.params.check_schedules(k * np.arange(n_steps + 1))
    state = init_state(backend, k, exact_at=exact_at, scales=scales[0])
    trace = diagnostics.EnergyTrace(
        t=k * np.arange(n_steps + 1), energy=np.empty(n_steps + 1),
        cross=np.empty(n_steps + 1), cg_iterations=np.zeros(n_steps, dtype=int),
        cg_residuals=np.zeros(n_steps),
        distance=None if reference is None else np.empty(n_steps + 1),
    )
    loop = _run_modal if backend.diagonal_in_basis else _run_cg
    return loop(backend, state, scales, trace, reference), trace


def _run_cg(backend: BackendHandles, state: StepperState, scales, trace,
            reference) -> StepperState:
    """One CG step (_advance) from ``state`` per entry of ``scales`` after
    the first, in one newest-first block of BLOCK + HISTORY rows of levels
    and their products, each step filling the row above the newest. When the
    block is full, and at the end, one diagnostics.pair_energies call gives
    the energies and cross terms of its pairs not yet recorded, and, given a
    ``reference`` u, one einsum their distances sqrt((U - u).(M U - M u))
    from the products' M U and M u formed once, so no matvec per step. The
    HISTORY newest rows then move to the bottom, so the warm start carries
    across.

    Fills ``trace`` (see run) and returns the final state."""
    k, ndof = state.k, backend.ndof
    rows = BLOCK + HISTORY
    levels = np.empty((rows, ndof))
    products = np.empty((rows, len(backend.operators), ndof))
    top = rows - len(state.levels)  # the newest level
    levels[top:], products[top:] = state.levels, backend.products(state.levels)
    done = rows - 1  # the newest level whose energy is recorded; U^0 has none
    recorded = 0
    if reference is not None:
        m_reference = backend.M.matvec(reference)

    def flush():
        """Record the energies of rows top to done - 1, each with the row
        below, and their distances to the reference."""
        nonlocal done, recorded
        energy, cross = diagnostics.pair_energies(
            levels[top:done + 1], products[top:done + 1], k)
        new = slice(recorded, recorded + done - top)
        trace.energy[new], trace.cross[new] = energy[::-1], cross[::-1]
        if reference is not None:
            # rounding can leave a distance at the floor slightly negative
            squared = np.einsum("in,in->i", levels[top:done] - reference,
                                products[top:done, 0] - m_reference)
            trace.distance[new] = np.sqrt(np.maximum(squared, 0.0))[::-1]
        recorded, done = new.stop, top

    report = state.solve
    for i, step_scales in enumerate(scales[1:]):
        if top == 0:
            flush()
            levels[-HISTORY:], products[-HISTORY:] = levels[:HISTORY], products[:HISTORY]
            top = done = rows - HISTORY
        top -= 1
        report = _advance(backend, levels, products, top, state.n + i, k, step_scales)
        trace.cg_iterations[i], trace.cg_residuals[i] = \
            report.iterations, report.final_residual
    flush()
    return StepperState(n=state.n + len(scales) - 1, k=k, solve=report,
                        levels=levels[top:top + HISTORY].copy())


def _run_modal(backend: BackendHandles, state: StepperState, scales, trace,
               reference) -> StepperState:
    """One step from ``state`` per entry of ``scales`` after the first (the
    damping time factors at each step time), in the sine basis, in which M,
    K and the damping operator are the diagonal matrices of their symbols:
    every mode follows the scalar recurrence of oracle.modal_recurrence, and
    E = 1/2 (d'M d + U'K U), (d, U)_M and, given a ``reference`` u, the
    distance ||U - u||_M follow by Parseval. Grid values are formed only for
    the returned final state.

    Fills the energies, cross terms and distances of ``trace`` (see run) and
    returns the final state. Raises StepError at the first step whose energy
    is not finite, without a numpy warning for the overflow that made it so.
    """
    basis, k = backend.basis, state.k
    n_steps = len(scales) - 1
    symbols = [sym.ravel() for sym in backend._symbols]
    mass, stiff = symbols[:2]
    force = basis.forward(backend.forcing).ravel()
    prev, curr = basis.forward(state.u_prev).ravel(), basis.forward(state.u_curr).ravel()
    energies, crosses, distances = trace.energy, trace.cross, trace.distance
    if reference is not None:
        target = basis.forward(reference).ravel()

    def record(i):
        d = (curr - prev) / k
        md = mass * d
        energies[i] = 0.5 * (d @ md + curr @ (stiff * curr))
        crosses[i] = curr @ md
        if reference is not None:
            e = curr - target
            distances[i] = math.sqrt(e @ (mass * e))

    record(0)
    key = None
    # a diverging run overflows here first and ends in the StepError below
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
    return StepperState(n=n_steps + 1, k=k,
                        levels=np.stack((basis.inverse(curr), basis.inverse(prev))))


def steady_state(backend: BackendHandles) -> np.ndarray:
    """Solve K u_inf = F for the backend's time-independent forcing."""
    if backend.params.forcing is None:
        raise ValueError("steady state requires a forcing term")
    u, _ = cg_solve(backend.K, backend.forcing, precond=backend.stiffness_precond)
    return u
