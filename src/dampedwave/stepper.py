"""Fully discrete time integrator for u'' + beta*A u' + alpha*u' + A u = f
over any SPD (M, K) backend pair, with constant, time-scheduled, or
space-varying damping coefficients.

Scheme: (d2 U^n, chi) + beta a(dt U^n, chi) + alpha (dt U^n, chi)
        + a(U^{n+1}, chi) = (f, chi), where d2 is the centered second
difference and dt the forward difference, leading to the SPD system
    [(1/k^2 + alpha/k) M + (beta/k + 1) K] U^{n+1} = rhs.
Every step works in the grid's sine basis, where K is its symbol and M is
its symbol plus one multiple, BackendHandles.mass_skew, of a Kronecker term
(0 for finite differences). Without a spatial weight the damping operators
are M and K; a weighted one enters by a round trip to grid values and back.
A step's factors c = (1/k^2, alpha/k, beta/k, 1) of the roles (M, W, S, K),
the mass, the two damping operators and the stiffness, give each distinct
operator's factor f = c @ BackendHandles._roles: A is their sum, each times
its factor, and f times their symbols is A's symbol, which preconditions
every CG solve. The three-row table that forms the CG starting point, the
right-hand side and the starting residual from the last levels and their
products is c times parts built once per backend from the module table
SCHEME, each role's weight in A and in the right-hand side.

run() and step() take every step in one loop, _run, on the levels'
sine-basis coefficients, kept with their products in one history block.
Where every operator is diagonal there (finite differences without a
weight), one product of the same kind gives a whole block of steps A's
symbol and the multipliers of U^n and U^{n-1}, mode by mode: no CG solve.
Otherwise a step is one product of its table with the history rows and a
CG solve, with A applied as its symbol plus one skew product F V F'
(F = sqrt(kappa) skew, scaled once per system; plus the weighted
operators' round trips) and preconditioned by a multiplication by its
reciprocal symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import diagnostics
from .fdm import FdOperator
from .fem import ZERO_FIELD, FemSpace, ScalarField, assemble_mass, \
    assemble_stiffness, at_midpoints, interpolate as fem_interpolate, load_vector
from .mesh import FdGrid, Rectangle
from .sparse import CgError, Preconditioner, SineBasis, SkewSymbolOperator, \
    SparseMatrix, cg_refine, cg_solve, from_diagonal, skew_product

STEP_RTOL = 1e-10
HISTORY = 5  # the most levels a step reads
# CG starting point of a step from its last L = 2 to HISTORY levels, newest
# first: the extrapolant of degree L - 1, level j weighted (-1)^j C(L, j + 1)
EXTRAPOLANTS = {n: np.array([(-1.0) ** j * math.comb(n, j + 1) for j in range(n)])
                for n in range(2, HISTORY + 1)}
# steps of a run between two batched energy passes (see _run); 32 to 128
# measured alike
BLOCK = 64
# the most steps run() takes: _run allocates the times, their schedule
# factors and the trace's arrays, n_steps + 1 values each, before its first
# step (about 0.6 GB at this count)
MAX_STEPS = 10**7
# each role's (M, W, S, K) weight, before its factor in c = (1/k^2, a/k,
# b/k, 1), in A and in the right-hand side's U^n and U^{n-1} terms
# (2 M/k^2 + D/k, -M/k^2), D = a W + b S
SCHEME = np.array([[1.0, 2.0, -1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


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

    def check_schedules(self, times: np.ndarray) -> np.ndarray:
        """The time factors (alpha, beta) at the given sample times, each
        evaluated once, as an array shaped (len(times), 2). Rejects a time
        factor that is not finite, leaves [lo, hi] or decreases there."""
        columns = []
        for c in self.damping:
            vals = np.array([c.scale(t) for t in times], dtype=float)
            columns.append(vals)
            if c.weight is not None:
                continue
            _check_range(c, vals, "at the sampled times")
            if np.any(np.diff(vals) < -1e-12):
                raise ValueError("schedule must be nondecreasing")
        return np.stack(columns, axis=1)

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
    first, as the rows of ``levels``, in grid values (the steps work on
    their sine-basis coefficients); u_curr and u_prev are rows 0 and 1, and
    n indexes u_curr, at time n*k. The trace of a run, or of _run over one
    step, which is what step() takes, reports each step's CG solve."""

    n: int
    k: float
    levels: np.ndarray

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
    basis: SineBasis         # the unknowns' grid, in which every step works
    # kappa of M in ``basis``: there M is its symbol plus kappa (skew (x)
    # skew), skew = basis.skew, and K is its symbol
    mass_skew: float
    # one-entry cache: ((k, alpha, beta), _step_system's result)
    _system: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        distinct = {id(op): op for op in (self.M, self.K, self.weak_op, self.strong_op)}
        # the distinct operators, M and K first, then the spatially weighted
        # ones, which have no such form in the basis
        self.operators = list(distinct.values())
        # role (M, W, S, K) x distinct operator: 1 where the role is that
        # operator, so c @ _roles is each operator's factor
        self._roles = np.array([[role is op for op in self.operators] for role in
                                (self.M, self.weak_op, self.strong_op, self.K)], float)
        # the operators' symbols (operators, ndof): in the sine basis, the
        # products of a level with every operator when diagonal_in_basis
        self._symbols = np.stack([self.basis.symbol(op).ravel() for op in self.operators])
        # sqrt(mass_skew) skew: M's skew term of u is skew_product of it and u
        self._mass_factor = self.basis.skew_factor(self.mass_skew)

    @property
    def ndof(self) -> int:
        return self.M.dim

    @property
    def diagonal_in_basis(self) -> bool:
        """Every operator is diagonal in ``basis`` (none is weighted and M
        has no skew term), so its symbol is exact and a step solves nothing."""
        return self.mass_skew == 0.0 and len(self.operators) == 2

    @cached_property
    def mass_precond(self) -> Preconditioner:
        """Sine-basis preconditioner for solves with M."""
        return self.basis.solver(self._symbols[0])

    @cached_property
    def stiffness_precond(self) -> Preconditioner:
        """b -> K^-1 b, exactly: K is diagonal in the sine basis."""
        return self.basis.solver(self._symbols[1])

    @cached_property
    def forcing(self) -> np.ndarray:
        """Load vector of the forcing; zeros when there is none. Raises
        ValueError when it is not finite."""
        f = self.params.forcing
        load = np.zeros(self.ndof) if f is None else self.load(f)
        if not np.all(np.isfinite(load)):
            raise ValueError("steady state requires a finite forcing, as does a run")
        return load

    def _sine_products(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The products of sine-basis coefficients u with each distinct
        operator, in that basis, shaped (operators, ndof) and written to
        ``out`` when given: each operator's symbol times u, plus
        mass_skew (skew (x) skew) u for M unless mass_skew is 0, and for a
        weighted operator W the round trip S2 W S2 u."""
        out = np.multiply(u, self._symbols, out=out)
        if self.mass_skew:
            out[0] += skew_product(self._mass_factor, u)
        for i, op in enumerate(self.operators[2:], 2):
            out[i] = self.basis.transform(op.matvec(self.basis.transform(u)))
        return out

    @cached_property
    def _parts(self) -> np.ndarray:
        """The weight tables of _step_system over the roles (M, W, S, K),
        shaped (len(EXTRAPOLANTS), 4, 3 * HISTORY * (1 + operators)): with
        c = (1/k^2, a/k, b/k, 1), c @ parts[L - 2] is that of L levels,
        zero on the slots of rows L to HISTORY - 1."""
        # the extrapolant of each depth L, over HISTORY levels
        ext = np.array([np.pad(e, (0, HISTORY - len(e))) for e in EXTRAPOLANTS.values()])
        # (depth, role, table row, level, slot), the slots of a history row
        # being the level and then its products (see _run)
        parts = np.zeros((len(ext), 4, 3, HISTORY, 1 + len(self.operators)))
        # x0: the extrapolant, constant, on K's factor, which is 1
        parts[:, 3, 0, :, 0] = ext
        # b: the role's right-hand side weights (SCHEME); r0 subtracts the
        # extrapolant times its weight in A; (depth, role, b or r0, level)
        rhs = np.pad(SCHEME[:, 1:], ((0, 0), (0, HISTORY - 2)))
        pair = np.stack(np.broadcast_arrays(rhs, rhs - SCHEME[:, :1] * ext[:, None]), axis=2)
        parts[:, :, 1:, :, 1:] = pair[..., None] * self._roles[:, None, None]
        return parts.reshape(len(ext), 4, -1)

    def _step_system(self, k: float, a: float, b: float):
        """(A, P^-1, weights) for step size k and time factors (a, b), from
        f = c @ _roles, each distinct operator's factor in A (c as in
        _parts): A on sine-basis coefficients, a SkewSymbolOperator with
        M's and K's symbols times their factors, M's skew term times its
        factor and the weighted operators times theirs, and the
        multiplication by the reciprocal of A's whole symbol f @ _symbols,
        a C-level partial of np.multiply.

        weights[L - 2] is a table of three rows, (x0, b, r0), over the slots
        of the last HISTORY rows of a history block, newest first: each
        row's level, then its product with each distinct operator (see
        _sine_products); it reads only the L newest rows and is zero on the
        others. x0, the step's CG starting point, is the extrapolant of the
        L levels (weights on the level slots only); b is the right-hand side
        (2 M U^n - M U^{n-1})/k^2 + D U^n/k without the forcing, and r0 the
        residual of x0, b - A x0 (both on the product slots only). Rebuilt
        only when an argument differs from the last call.
        """
        key = (k, a, b)
        if self._system[0] != key:
            c = np.array([1.0 / k ** 2, a / k, b / k, 1.0])
            weights = c.dot(self._parts).reshape(len(EXTRAPOLANTS), 3, -1)  # ndarray.dot
            f = c.dot(self._roles)
            scaled = tuple(replace(op, vals=f[i] * op.vals)
                           for i, op in enumerate(self.operators[2:], 2))
            system = SkewSymbolOperator(self.basis, f[:2].dot(self._symbols[:2]),
                                        float(f[0] * self.mass_skew), scaled)
            whole = f.dot(self._symbols)
            self._system = (key, (system, partial(np.multiply, 1.0 / whole), weights))
        return self._system[1]

    def _multipliers(self, k: float, scales: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """(symbol, g, h) of each step, shaped (steps, 3, ndof) and written
        to ``out`` when given, for the steps at the time factors ``scales``,
        one (a, b) row a step: A's symbol, and the multipliers of a
        sine-basis step U^{n+1} = g U^n + h U^{n-1} (+ F / symbol), from
        ((c * SCHEME') @ _roles) @ _symbols, each step's c as in _parts,
        the multipliers then divided by the symbol."""
        ones = np.ones((len(scales), 1))
        c = np.hstack((ones / k ** 2, scales / k, ones))
        out = np.matmul((c[:, None] * SCHEME.T) @ self._roles, self._symbols, out=out)
        out[:, 1:] /= out[:, :1]
        return out


def make_fem_backend(space: FemSpace, params: ModelParams) -> BackendHandles:
    alpha, beta = params.damping
    for c in (alpha, beta):
        if c.weight is not None:
            _check_range(c, at_midpoints(space, c.weight), "at the quadrature points")
    mass, stiff = assemble_mass(space), assemble_stiffness(space)
    weak = mass if alpha.weight is None else assemble_mass(space, alpha.weight)
    strong = stiff if beta.weight is None else assemble_stiffness(space, beta.weight)
    # the mass's kappa is hx hy / 6 (see SineBasis.skew)
    rect, n = space.mesh.rect, space.mesh.n_per_side
    return BackendHandles(
        params=params,
        M=mass,
        K=stiff,
        interpolate=lambda f: fem_interpolate(space, f),
        load=lambda f: load_vector(space, f),
        weak_op=weak, strong_op=strong,
        basis=space.basis,
        mass_skew=rect.width * rect.height / (6.0 * n * n),
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
        # h^2 I and the 5-point h^2 A_h are diagonal in the sine basis
        mass_skew=0.0,
    )


def init_state(backend: BackendHandles, k: float,
               exact_at: Callable[[float], ScalarField] | None = None) -> StepperState:
    """Build (U^0, U^1).

    Given ``exact_at``, U^1 interpolates the exact solution at t = k;
    otherwise the Taylor start expands around t = 0 using
    u''(0) = -beta A u1 - alpha u1 - A u0, with the damping time factors
    ModelParams.check_schedules gives for t = 0. Raises ValueError when the
    initial data (or the exact solution at t = k) or the forcing is not
    finite at the unknowns.
    """
    check_time_step(k)
    params = backend.params
    u0 = backend.interpolate(params.u0)
    # U^1 itself given exact_at, else the initial velocity
    u1 = v = backend.interpolate(params.u1 if exact_at is None else exact_at(k))
    if not np.all(np.isfinite((u0, v))):
        raise ValueError("initial data must be finite at the unknowns")
    if exact_at is None:
        a, b = params.check_schedules([0.0])[0]
        damped = a * backend.weak_op.matvec(v) + b * backend.strong_op.matvec(v)
        rhs = -damped - backend.K.matvec(u0) + backend.forcing
        w, _ = cg_solve(backend.M, rhs, precond=backend.mass_precond)
        u1 = u0 + k * v + 0.5 * k * k * w
    return StepperState(n=1, k=k, levels=np.stack((u1, u0)))


def step(state: StepperState, backend: BackendHandles) -> StepperState:
    """One step (U^{n-1}, U^n) -> (U^n, U^{n+1}) from ``state`` (n >= 1,
    else ValueError), keeping up to HISTORY levels: _run over one step, the
    step a run takes there. The older levels come back as given."""
    if state.n < 1:
        raise ValueError("stepping requires n >= 1")
    return _run(backend, state, 1, None)[0]


def run(backend: BackendHandles, k: float, n_steps: int,
        exact_at: Callable[[float], ScalarField] | None = None,
        reference: np.ndarray | None = None):
    """Run ``n_steps`` steps (a nonnegative integer up to MAX_STEPS, else
    ValueError before any set-up; 0 records only the initial energy) from a
    fresh initial state, exact when ``exact_at`` is given (see init_state);
    returns (final state, EnergyTrace). The trace also carries each step's
    CG iterations and final residual, and, given a finite ``reference``
    vector u of shape (ndof,), the distance ||U - u||_M of the newest level
    of each sample (ValueError for any other reference). Raises StepError at
    the first sample whose energy is not finite.

    The steps are taken in the backend's sine basis: on a backend that is
    diagonal there they solve nothing and report 0 iterations and residual
    0, on the others each is a CG step in that basis (see _run)."""
    if not isinstance(n_steps, int | np.integer) or n_steps < 0:
        raise ValueError(f"step count must be a nonnegative integer, not {n_steps!r}")
    if n_steps > MAX_STEPS:
        raise ValueError(f"step count {n_steps} exceeds the limit of {MAX_STEPS} steps")
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (backend.ndof,) or not np.all(np.isfinite(reference)):
            raise ValueError(f"reference must be a finite vector of shape "
                             f"({backend.ndof},)")
    state = init_state(backend, k, exact_at=exact_at)  # checks k
    return _run(backend, state, n_steps, reference)


# a diverging run overflows before the flush that names its step
@np.errstate(over="ignore", invalid="ignore")
def _run(backend: BackendHandles, state: StepperState, n_steps: int,
         reference) -> tuple[StepperState, diagnostics.EnergyTrace]:
    """The one stepping loop: ``n_steps`` steps from ``state``, whose newest
    level is U^n; returns (final state, EnergyTrace as run describes it),
    with the energy of the pair whose newest level is U^m at t = (m - 1) k,
    from the state's newest pair on. Step m reads the time factors
    ModelParams.check_schedules gives for t_m.

    The levels are sine-basis coefficients in one newest-first block of
    min(BLOCK, n_steps) + HISTORY rows shaped (rows, 1 + operators, ndof):
    row j holds level j and then its products with the distinct operators
    (BackendHandles._sine_products), so ``levels`` and ``products`` are
    views of it. Each block of BLOCK steps (the last: those left) starts
    with the newest level at row rows - HISTORY, the HISTORY rows from there
    down being zero where the state lacks a level, and each step fills the
    row above the newest. On a backend diagonal in the basis, one
    BackendHandles._multipliers product gives a block's steps
    U^{n+1} = g U^n + h U^{n-1} (+ F / A's symbol) mode by mode, kept in
    the product slots of its first rows (one slot wider than the products);
    its products are its levels times the operators' symbols, formed at
    once before its energies, over the spent multipliers. Otherwise a step
    is one product of the HISTORY rows below with the cached _step_system's
    weight table of its depth (the levels held, at most HISTORY), written
    to the first three slots of its row: the extrapolant x0 on the level
    slot, the right-hand side b and x0's residual r0 on the next two (each
    plus the forcing's coefficients F). sparse.cg_refine, preconditioned by
    the multiplication by A's reciprocal symbol, refines x0 and r0 in
    place, and U^{n+1}'s products then overwrite b and r0. So a step
    applies the operators once per CG iteration and once for U^{n+1}: a
    skew product, and for a weighted operator two transforms and its grid
    matvec.

    After each block (or none, for n_steps = 0), the flush: one
    diagnostics.pair_energies call records the energies and cross terms of
    its pairs, raising StepError at the first that is not finite, and,
    given a ``reference`` u, one einsum their distances
    sqrt((U - u).(M U - M u)), with M u formed once: no matvec per step.
    The next block starts with one block copy of the HISTORY newest rows to
    the bottom, so the warm start carries across. The sums hold by
    Parseval; only the new levels go back to grid values, and the final
    state's older levels are the given ones."""
    n, k, basis, modal = state.n, state.k, backend.basis, backend.diagonal_in_basis
    times = k * np.arange(n - 1, n + n_steps)
    scales = backend.params.check_schedules(times)
    trace = diagnostics.EnergyTrace(
        t=times, energy=np.empty(n_steps + 1), cross=np.empty(n_steps + 1),
        cg_iterations=np.zeros(n_steps, dtype=int), cg_residuals=np.zeros(n_steps),
        distance=None if reference is None else np.empty(n_steps + 1),
    )
    rows, ops, ndof = min(BLOCK, n_steps) + HISTORY, len(backend.operators), backend.ndof
    # row j: level j, then its products with the operators; a modal block's
    # products are formed only at a flush, after its steps have read their
    # three multipliers, which fill the product slots of its first rows
    # (a modal backend has two operators, M and K, so one slot more)
    width = 1 + (max(ops, 3) if modal else ops)
    block = np.empty((rows, width, ndof))
    levels, products, slots = block[:, 0], block[:, 1:1 + ops], block.reshape(-1, ndof)
    top, held = rows - HISTORY, len(state.levels)  # the newest level, the levels held
    levels[top:top + held] = [basis.transform(u) for u in state.levels]
    block[top + held:] = 0.0  # the rows of the levels a short state lacks
    if not modal:
        for row in block[top:top + held]:
            backend._sine_products(row[0], out=row[1:])
    force, forced = basis.transform(backend.forcing), backend.params.forcing is not None
    if reference is not None:
        reference = basis.transform(reference)
        # row 0 of its _sine_products, without the other operators
        m_reference = reference * backend._symbols[0] \
            + skew_product(backend._mass_factor, reference)
    if not modal:
        scales = scales.tolist()  # Python floats: _step_system's key compares them
    for first in range(0, max(n_steps, 1), BLOCK):
        if first:  # the HISTORY newest rows move to the bottom
            block[-HISTORY:] = block[:HISTORY]
            top = rows - HISTORY
        steps = range(first, min(first + BLOCK, n_steps))  # filling rows above top
        if modal:
            symbol, g, h = backend._multipliers(
                k, scales[steps.start + 1:steps.stop + 1],
                out=block[:len(steps), 1:4]).swapaxes(0, 1)
            if forced:
                f = np.divide(force, symbol, out=symbol)
            for j in range(len(steps)):
                top -= 1
                u = np.multiply(g[j], levels[top + 1], out=levels[top])
                u += h[j] * levels[top + 2]
                if forced:
                    u += f[j]
        elif steps:
            solves = []
            for i in steps:
                top -= 1
                system, precond, weights = backend._step_system(k, *scales[i + 1])
                # (x0, b, r0) from the slots of the HISTORY rows below, into
                # the row's first three slots (ndarray.dot: at these sizes
                # np.matmul's dispatch costs as much as its product)
                start = block[top, :3]
                weights[min(held + i, HISTORY) - 2].dot(
                    slots[(top + 1) * width:(top + 1 + HISTORY) * width], out=start)
                if forced:
                    start[1:] += force
                u = start[0]
                try:
                    solves.append(cg_refine(system, start[1], u, start[2], precond,
                                            STEP_RTOL))
                except CgError as exc:
                    raise StepError(f"CG failed at step n={n + i} "
                                    f"(t={(n + i) * k:g}): {exc}") from exc
                backend._sine_products(u, out=block[top, 1:])
            span = slice(steps.start, steps.stop)
            trace.cg_iterations[span], trace.cg_residuals[span] = zip(*solves)
        # the energies of the pairs whose newest levels are rows top to
        # rows - HISTORY, the block's start (recorded again after a wrap),
        # each with the row below, and their distances
        new, pairs = slice(first, steps.stop + 1), slice(top, rows - HISTORY + 2)
        if modal:
            np.multiply(levels[pairs, None], backend._symbols, out=products[pairs])
        energy, cross = diagnostics.pair_energies(levels[pairs], products[pairs], k)
        trace.energy[new], trace.cross[new] = energy[::-1], cross[::-1]
        bad = np.flatnonzero(~np.isfinite(trace.energy[new]))
        if bad.size:
            i = first + bad[0]
            raise StepError(f"non-finite energy at step n={n - 1 + i} (t={trace.t[i]:g})")
        if reference is not None:
            # rounding can leave a distance at the floor slightly negative
            squared = np.einsum("in,in->i", levels[pairs][:-1] - reference,
                                products[pairs][:-1, 0] - m_reference)
            trace.distance[new] = np.sqrt(np.maximum(squared, 0.0))[::-1]
    new = [basis.transform(u) for u in levels[top:top + min(n_steps, HISTORY)]]
    final = np.array([*new, *state.levels[:HISTORY - len(new)]])
    return StepperState(n=n + n_steps, k=k, levels=final), trace


def steady_state(backend: BackendHandles) -> np.ndarray:
    """Solve K u_inf = F for the backend's time-independent forcing, by the
    sine-basis division that is K^-1; a forcing that is not finite raises
    ValueError (see BackendHandles.forcing)."""
    if backend.params.forcing is None:
        raise ValueError("steady state requires a forcing term")
    return backend.stiffness_precond(backend.forcing)
