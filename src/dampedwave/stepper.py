"""Fully discrete time integrator for u'' + beta*A u' + alpha*u' + A u = f
over any SPD (M, K) backend pair, with constant, time-scheduled, or
space-varying damping coefficients.

Scheme: (d2 U^n, chi) + beta a(dt U^n, chi) + alpha (dt U^n, chi)
        + a(U^{n+1}, chi) = (f, chi), where d2 is the centered second
difference and dt the forward difference, leading to the SPD system
    [(1/k^2 + alpha/k) M + (beta/k + 1) K] U^{n+1} = rhs.
Everything a step needs from this system (the values of A on the operators'
common sparsity pattern, its symbol in the grid's sine basis, which
preconditions every CG solve, and the weights that form the right-hand side
from the products of the last levels) is linear in the factors
(1/k^2, alpha/k, beta/k, 1) of the mass, the two damping operators and the
stiffness, so it is one product with parts built once per backend.

Where every operator is diagonal in the sine basis (finite differences
without a spatial weight), run() keeps the levels as sine-basis
coefficients and a step divides by the symbol of A: no CG solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import diagnostics
from .fdm import FdOperator
from .fem import ZERO_FIELD, FemSpace, ScalarField, assemble_mass, \
    assemble_stiffness, at_midpoints, interpolate as fem_interpolate, load_vector
from .mesh import FdGrid, Rectangle
from .sparse import CgError, Preconditioner, SineBasis, SolveReport, \
    SparseMatrix, cg_solve, from_diagonal, on_common_pattern

STEP_RTOL = 1e-10
HISTORY = 5  # the most levels a step reads
# CG starting point of a step from its last L = 2 to HISTORY levels, newest
# first: the extrapolant of degree L - 1, level j weighted (-1)^j C(L, j + 1)
EXTRAPOLANTS = {n: np.array([(-1.0) ** j * math.comb(n, j + 1) for j in range(n)])
                for n in range(2, HISTORY + 1)}
# steps of a run between two batched energy passes (see _run); 32 to 128
# measured alike
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
        if not (0 < c.lo <= c.hi < math.inf):
            raise ValueError("damping bounds must satisfy 0 < lo <= hi < inf")
        if isinstance(c, SpatialField):
            return Damping(c.lo, c.hi, lambda t: 1.0, c.field)
        return Damping(c.lo, c.hi, lambda t: float(c.fn(t)))
    value = float(c)
    if not 0 <= value < math.inf:  # also false for NaN
        raise ValueError(f"constant damping must be nonnegative and finite, not {value!r}")
    return Damping(value, value, lambda t: value)


def _check_range(c: Damping, values, where: str) -> None:
    """Reject values of a time factor or spatial weight that are not finite or
    leave its stated [lo, hi] (so, for a schedule or field, since lo > 0, any
    that is not strictly positive) where they are evaluated. The test is
    negated because NaN compares false."""
    values = np.asarray(values, dtype=float)
    if not np.all((values >= c.lo - 1e-12) & (values <= c.hi + 1e-12)):
        raise ValueError(f"damping is not finite, not strictly positive or leaves "
                         f"its stated [lo, hi] = [{c.lo:g}, {c.hi:g}] {where}")


class StepError(RuntimeError):
    """Solver failure during time stepping, annotated with the step index."""


def check_time_step(k: float) -> float:
    """k itself; raises ValueError unless it is positive and finite."""
    if not 0.0 < k < math.inf:
        raise ValueError(f"time step must be positive and finite, not {k!r}")
    return k


@dataclass(frozen=True)
class ModelParams:
    """Damping coefficients, forcing, and initial data on a rectangle.
    Initial data left out is the zero field; no forcing (None) is f = 0."""

    domain: Rectangle
    alpha: Coefficient = 0.0
    beta: Coefficient = 0.0
    u0: ScalarField = ZERO_FIELD
    u1: ScalarField = ZERO_FIELD
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
            _check_range(c, vals, "at the sampled times")
            if np.any(np.diff(vals) < -1e-12):
                raise ValueError("schedule must be nondecreasing")
        return list(zip(*columns))

    def _check_field(self, c: Damping):
        """Check the weight at the interior points of a 25 x 25 grid."""
        r = self.domain
        xs = np.linspace(r.x0, r.x1, 25)[1:-1]
        ys = np.linspace(r.y0, r.y1, 25)[1:-1]
        xx, yy = np.meshgrid(xs, ys)
        _check_range(c, c.weight(xx, yy), "on the sample grid")


@dataclass(frozen=True)
class StepperState:
    """The last 2 to HISTORY levels U^n, U^{n-1}, ... of a run, newest
    first, as the rows of ``levels``; u_curr and u_prev are rows 0 and 1, and
    n indexes u_curr, at time n*k. ``solve`` reports the CG solve that
    produced u_curr in a step; None for an initial state and for sine-basis
    steps."""

    n: int
    k: float
    levels: np.ndarray
    solve: SolveReport | None = None

    def __post_init__(self):
        if np.ndim(self.levels) != 2 or len(self.levels) not in EXTRAPOLANTS:
            raise ValueError(f"levels must be 2 to {HISTORY} rows, not "
                             f"{np.shape(self.levels)}")

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
    # every operator is diagonal in ``basis``, so its symbol is exact and a
    # run keeps its levels in that basis, where a step solves nothing;
    # make_fd_backend sets it when alpha has no spatial weight
    diagonal_in_basis: bool = False
    # one-entry cache: ((k, alpha, beta, modal), _step_system's result)
    _system: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        ops = (self.M, self.K, self.weak_op, self.strong_op)
        distinct = {id(op): op for op in ops}
        # the distinct operators, M and K first; role i of (M, W, S, K) is
        # operator _op_of_role[i] among them
        self.operators = list(distinct.values())
        self._op_of_role = [list(distinct).index(id(op)) for op in
                            (self.M, self.weak_op, self.strong_op, self.K)]
        # the distinct operators on their common pattern, as one stack
        self._stack = on_common_pattern(self.operators)
        # their symbols, shaped (operators, ndof): in the sine basis, the
        # products of a level with every operator when diagonal_in_basis
        self._symbols = np.stack([self.basis.symbol(op).ravel() for op in self.operators])

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

    def products(self, levels: np.ndarray, modal: bool = False) -> np.ndarray:
        """Each level times each distinct operator, an array of shape
        (levels, operators, ndof): one stacked matvec per level, or for
        sine-basis coefficients (``modal``) the symbols times each level."""
        if modal:
            return levels[:, None] * self._symbols
        return np.array([self._stack.matvec(u) for u in levels])

    def system(self, k: float, t: float) -> tuple[SparseMatrix, Preconditioner]:
        """(A, P^-1) with A = 1/k^2 M + 1/k D + K, D = scale_alpha(t) W
        + scale_beta(t) S the damping operator at time t, and P^-1 the
        sine-basis preconditioner of A, whose symbol is the same combination
        of the operators' symbols; ModelParams.check_schedules gives the
        time factors."""
        return self._step_system(k, *self.params.check_schedules([t])[0])[:2]

    @cached_property
    def _parts(self):
        """(values, parts, weight_at) over the roles (M, W, S, K), a row each:
        with c = (1/k^2, a/k, b/k, 1), c @ values is A's values, flattened,
        and c @ parts is A's symbol and then the weights of _step_system,
        those of L levels at weight_at[L]."""
        roles = np.eye(len(self.operators))[self._op_of_role]
        # each role's factor with U^n and U^{n-1} in the right-hand side
        # (2 M/k^2 + D/k, -M/k^2); the starting residual subtracts the
        # extrapolant times the role's factor in A
        rhs = np.array([[2.0, -1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        parts = [self._symbols[self._op_of_role]]
        for n_levels, ext in EXTRAPOLANTS.items():
            row = np.pad(rhs, ((0, 0), (0, n_levels - 2)))
            pair = np.stack((row, row - ext), axis=1)  # (role, weight row, level)
            parts.append((pair[..., None] * roles[:, None, None]).reshape(4, -1))
        ends = np.cumsum([part.shape[1] for part in parts])
        weight_at = dict(zip(EXTRAPOLANTS, map(slice, ends[:-1], ends[1:])))
        values = self._stack.vals[self._op_of_role].reshape(4, -1)
        return values, np.concatenate(parts, axis=1), weight_at

    def _step_system(self, k: float, a: float, b: float, modal: bool = False):
        """(A, P^-1, weights, symbol) for step size k and time factors (a, b).

        weights[L] has two rows over the (level, operator) pairs of the last
        L levels, newest first (see products): the right-hand side
        (2 M U^n - M U^{n-1})/k^2 + D U^n/k without the forcing, and the
        residual of the step's CG starting point, that right-hand side minus
        A times the extrapolant of the L levels. symbol is A's symbol,
        flattened like a level.

        A ``modal`` step, in the sine basis, reads only the weights and the
        symbol, the same bit for bit: A and P^-1 are then None and not built.
        Rebuilt only when an argument differs from the last call.
        """
        key = (k, a, b, modal)
        if self._system[0] != key:
            values, parts, weight_at = self._parts
            c = np.array([1.0 / k ** 2, a / k, b / k, 1.0])
            flat = c @ parts
            symbol = flat[:self.ndof]
            weights = {n: flat[at].reshape(2, -1) for n, at in weight_at.items()}
            system = precond = None
            if not modal:
                system = SparseMatrix(self._stack.cols,
                                      (c @ values).reshape(self._stack.cols.shape))
                precond = self.basis.solver(symbol)
            self._system = (key, (system, precond, weights, symbol))
        return self._system[1]


def make_fem_backend(space: FemSpace, params: ModelParams) -> BackendHandles:
    alpha, beta = params.damping
    for c in (alpha, beta):
        if c.weight is not None:
            _check_range(c, at_midpoints(space, c.weight), "at the quadrature points")
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
        _check_range(alpha, w, "at the grid nodes")
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
               exact_at: Callable[[float], ScalarField] | None = None) -> StepperState:
    """Build (U^0, U^1).

    Given ``exact_at``, U^1 interpolates the exact solution at t = k;
    otherwise the Taylor start expands around t = 0 using
    u''(0) = -beta A u1 - alpha u1 - A u0, with the damping time factors
    ModelParams.check_schedules gives for t = 0.
    """
    check_time_step(k)
    params = backend.params
    u0 = backend.interpolate(params.u0)
    if exact_at is not None:
        u1 = backend.interpolate(exact_at(k))
    else:
        v = backend.interpolate(params.u1)
        a, b = params.check_schedules([0.0])[0]
        damped = a * backend.weak_op.matvec(v) + b * backend.strong_op.matvec(v)
        rhs = -damped - backend.K.matvec(u0) + backend.forcing
        w, _ = cg_solve(backend.M, rhs, precond=backend.mass_precond)
        u1 = u0 + k * v + 0.5 * k * k * w
    return StepperState(n=1, k=k, levels=np.stack((u1, u0)))


def _advance(backend: BackendHandles, levels: np.ndarray, products: np.ndarray,
             top: int, n: int, k: float, scales: tuple[float, float],
             force: np.ndarray, modal: bool = False) -> SolveReport | None:
    """One implicit step U^n -> U^{n+1} in a newest-first history: U^n and
    up to HISTORY - 1 older levels are the rows below ``top`` of ``levels``,
    and of ``products`` their BackendHandles.products. The cached system at
    the time factors ``scales`` of t_n is solved by CG with its sine-basis
    preconditioner from the highest-degree extrapolant of those levels, with
    a right-hand side (plus the forcing ``force``) and starting residual that
    combine their products. U^{n+1} and its products (one stacked matvec) go
    into row ``top``, so a step costs one matvec per CG iteration and one
    fused product. With ``modal`` the rows are sine-basis coefficients: the
    solve divides by A's symbol and reads only U^n and U^{n-1}; no report."""
    system, precond, weights, symbol = backend._step_system(k, *scales, modal)
    depth = 2 if modal else min(len(levels) - top - 1, HISTORY)
    history = slice(top + 1, top + 1 + depth)
    rhs = weights[depth] @ products[history].reshape(-1, levels.shape[1])
    if backend.params.forcing is not None:
        rhs += force
    if modal:
        levels[top] = u_next = rhs[0] / symbol
        products[top] = backend._symbols * u_next
        return None
    guess = EXTRAPOLANTS[depth] @ levels[history]
    try:
        u_next, report = cg_solve(system, rhs[0], rtol=STEP_RTOL, x0=guess,
                                  precond=precond, r0=rhs[1])
    except CgError as exc:
        raise StepError(f"CG failed at step n={n} (t={n * k:g}): {exc}") from exc
    levels[top] = u_next
    products[top] = backend._stack.matvec(u_next)
    return report


def step(state: StepperState, backend: BackendHandles) -> StepperState:
    """One implicit step (U^{n-1}, U^n) -> (U^n, U^{n+1}), keeping up to
    HISTORY levels: a CG _advance on a history of the state's levels and their
    products, at the time factors ModelParams.check_schedules gives for t_n."""
    if state.n < 1:
        raise ValueError("stepping requires n >= 1")
    n, k = state.n, state.k
    scales = backend.params.check_schedules([n * k])[0]
    levels = np.empty((len(state.levels) + 1, backend.ndof))
    levels[1:] = state.levels
    products = np.empty((len(levels), len(backend.operators), backend.ndof))
    products[1:] = backend.products(state.levels)
    report = _advance(backend, levels, products, 0, n, k, scales, backend.forcing)
    return StepperState(n=n + 1, k=k, levels=levels[:HISTORY], solve=report)


def run(backend: BackendHandles, k: float, n_steps: int,
        exact_at: Callable[[float], ScalarField] | None = None,
        reference: np.ndarray | None = None):
    """Run ``n_steps`` steps (a nonnegative integer, else ValueError; 0
    records only the initial energy) from a fresh initial state, exact when
    ``exact_at`` is given (see init_state); returns (final state,
    EnergyTrace). The trace also carries each step's CG iterations and final
    residual, and, given a finite ``reference`` vector u of shape (ndof,),
    the distance ||U - u||_M of the newest level of each sample (ValueError
    for any other reference). Raises StepError at the first sample whose
    energy is not finite.

    On a backend that is diagonal in its sine basis the steps are taken in
    that basis and report 0 iterations and residual 0; otherwise each is a
    CG step (see _run)."""
    if not isinstance(n_steps, int | np.integer) or n_steps < 0:
        raise ValueError(f"step count must be a nonnegative integer, not {n_steps!r}")
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (backend.ndof,) or not np.all(np.isfinite(reference)):
            raise ValueError(f"reference must be a finite vector of shape "
                             f"({backend.ndof},)")
    state = init_state(backend, k, exact_at=exact_at)  # checks k
    # step n evaluates the coefficients at t = n k
    scales = backend.params.check_schedules(k * np.arange(n_steps + 1))
    trace = diagnostics.EnergyTrace(
        t=k * np.arange(n_steps + 1), energy=np.empty(n_steps + 1),
        cross=np.empty(n_steps + 1), cg_iterations=np.zeros(n_steps, dtype=int),
        cg_residuals=np.zeros(n_steps),
        distance=None if reference is None else np.empty(n_steps + 1),
    )
    # a diverging run overflows before the flush that names its step
    with np.errstate(over="ignore", invalid="ignore"):
        return _run(backend, state, scales, trace, reference), trace


def _run(backend: BackendHandles, state: StepperState, scales, trace,
         reference) -> StepperState:
    """One step (_advance) from ``state`` per entry of ``scales`` after the
    first, in one newest-first block of BLOCK + HISTORY rows of levels and
    their products, each step filling the row above the newest. When the
    block is full, and at the end, one diagnostics.pair_energies call gives
    the energies and cross terms of its pairs not yet recorded, and, given a
    ``reference`` u, one einsum their distances sqrt((U - u).(M U - M u))
    from the products' M U and M u formed once, so no matvec per step. The
    HISTORY newest rows then move to the bottom, so the warm start carries
    across. On a backend diagonal in its sine basis the rows are sine-basis
    coefficients, so these sums hold by Parseval; the state's levels, the
    forcing and the reference are transformed once, and only the final
    state goes back to grid values.

    Fills ``trace`` (see run) and returns the final state."""
    k, modal, basis = state.k, backend.diagonal_in_basis, backend.basis

    def row(u):  # a vector of grid values as a row of the block
        return basis.transform(u) if modal else u

    rows = BLOCK + HISTORY
    levels = np.empty((rows, backend.ndof))
    products = np.empty((rows, len(backend.operators), backend.ndof))
    top = rows - len(state.levels)  # the newest level
    levels[top:] = [row(u) for u in state.levels]
    products[top:] = backend.products(levels[top:], modal)
    force = row(backend.forcing)
    done = rows - 1  # the newest level whose energy is recorded; U^0 has none
    recorded = 0
    if reference is not None:
        reference = row(reference)
        m_reference = backend.products(reference[None], modal)[0, 0]

    def flush():
        """Record the energies of rows top to done - 1, each with the row
        below, and their distances to the reference."""
        nonlocal done, recorded
        energy, cross = diagnostics.pair_energies(
            levels[top:done + 1], products[top:done + 1], k)
        new = slice(recorded, recorded + done - top)
        trace.energy[new], trace.cross[new] = energy[::-1], cross[::-1]
        bad = np.flatnonzero(~np.isfinite(trace.energy[new]))
        if bad.size:
            i = recorded + bad[0]
            raise StepError(f"non-finite energy at step n={i} (t={trace.t[i]:g})")
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
        report = _advance(backend, levels, products, top, state.n + i, k, step_scales,
                          force, modal)
        if not modal:
            trace.cg_iterations[i], trace.cg_residuals[i] = \
                report.iterations, report.final_residual
    flush()
    final = levels[top:top + HISTORY]
    final = np.array([basis.transform(u) for u in final]) if modal else final.copy()
    return StepperState(n=state.n + len(scales) - 1, k=k, solve=report, levels=final)


def steady_state(backend: BackendHandles) -> np.ndarray:
    """Solve K u_inf = F for the backend's time-independent forcing."""
    if backend.params.forcing is None:
        raise ValueError("steady state requires a forcing term")
    u, _ = cg_solve(backend.K, backend.forcing, precond=backend.stiffness_precond)
    return u
