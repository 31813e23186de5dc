"""Built-in experiments (manufactured solutions on rectangles), refinement
and decay studies, and CSV serialization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .diagnostics import ConvergenceTable, EnergyTrace, check_levels, \
    convergence_rates, decay_bounds, fit_decay_rate
from .fem import FemSpace, ScalarField, error_norms, field_h1_seminorm, \
    field_l2_norm
from .fdm import fd_norms
from .mesh import PI_SQUARE, Rectangle, UNIT_SQUARE, build_fd_grid, build_tri_mesh
from .oracle import continuous_eigenvalue
from .sparse import smallest_generalized_eigenpair
from .stepper import BackendHandles, ModelParams, SpatialField, TimeSchedule, \
    check_time_step, make_fd_backend, make_fem_backend, run, steady_state

DK_CAP = 34.0 / 205.0  # delta*k admissibility for the discrete decay bound


@dataclass(frozen=True)
class SeparableExact:
    """Exact solution u(x, y, t) = e^{-rate t} s(x, y) with A s = lam * s;
    s carries an analytic gradient for H1 errors and elliptic projections."""

    s: ScalarField
    lam: float
    rate: float

    def field_at(self, t: float) -> ScalarField:
        gt = math.exp(-self.rate * t)
        return ScalarField(
            lambda x, y: gt * self.s(x, y),
            grad=lambda x, y: tuple(gt * c for c in self.s.grad(x, y)),
        )

    def residual(self, x, y, t, alpha: float, beta: float) -> np.ndarray:
        """Pointwise u'' + beta A u' + alpha u' + A u (A = -Laplacian)."""
        r = self.rate
        factor = (r * r - (beta * self.lam + alpha) * r + self.lam) * math.exp(-r * t)
        return factor * np.asarray(self.s(x, y), dtype=float)

    def energy(self, space: FemSpace, t) -> np.ndarray:
        """Continuous energy at the time or times t, by quadrature of the
        analytic u' and grad u; the two quadratures run once per call."""
        s_l2 = field_l2_norm(space, self.s)
        s_h1 = field_h1_seminorm(space, self.s)
        g = np.exp(-self.rate * np.asarray(t, dtype=float))
        return 0.5 * ((self.rate * g) ** 2 * s_l2 ** 2 + g ** 2 * s_h1 ** 2)


def _sine_product(freq: float) -> ScalarField:
    w = freq

    def fn(x, y):
        return np.sin(w * x) * np.sin(w * y)

    def grad(x, y):
        return (w * np.cos(w * x) * np.sin(w * y),
                w * np.sin(w * x) * np.cos(w * y))

    return ScalarField(fn, grad=grad)


@dataclass(frozen=True)
class Experiment:
    """A named problem; its domain is ``params.domain``."""

    name: str
    params: ModelParams
    exact: SeparableExact | None = None
    n_values: tuple[int, ...] = (5, 10, 15, 20, 25, 30)
    # step size from the reference mesh width h = 1/n (the domain scaled to
    # the unit square), so the step does not blow up on large domains where
    # the first-order-in-time error would swamp the spatial one
    k_rule: Callable[[float], float] = lambda h: 2.0 * h * h
    T: float = 1.0

    @property
    def domain(self) -> Rectangle:
        return self.params.domain

    def n_steps(self, k: float) -> int:
        """The steps of size k to the first step time at or after T."""
        return math.ceil(self.T / k - 1e-9)

    def time_step(self, n: int, override: float | None = None) -> float:
        if override is not None:
            if self.T < check_time_step(override):
                raise ValueError("final time must be at least one step")
            return override
        # snap so an integer number of steps lands exactly on T; errors at
        # the final time are then comparable across refinement levels
        return self.T / self.n_steps(self.k_rule(1.0 / n))

    def constant_coefficients(self) -> bool:
        return all(c.weight is None and c.lo == c.hi for c in self.params.damping)


def _separable(name: str, domain: Rectangle, alpha, beta, **kw) -> Experiment:
    """The experiment u = e^{-pi t} sin(pi x/L) sin(pi y/L) on the square
    domain of side L."""
    freq = np.pi / domain.width
    s = _sine_product(freq)
    exact = SeparableExact(s, 2.0 * freq * freq, np.pi)
    u1 = ScalarField(lambda x, y: -np.pi * s(x, y))
    params = ModelParams(domain=domain, alpha=alpha, beta=beta, u0=s, u1=u1)
    return Experiment(name, params, exact, **kw)


def builtin_experiments() -> dict[str, Experiment]:
    """The four manufactured-solution experiments plus schedule/field/forcing extras."""
    pi = np.pi
    out = {e.name: e for e in (
        _separable("ex1", UNIT_SQUARE, pi, 1.0 / pi),
        # on (0, pi)^2 the lowest eigenvalue is 2, not 2*pi^2; the O(k) time
        # error is relatively much larger there, so these use a smaller step
        _separable("ex2", PI_SQUARE, (pi * pi + 4.0) / (2.0 * pi), pi / 4.0,
                   k_rule=lambda h: 0.25 * h * h),
        _separable("ex3i", PI_SQUARE, (pi * pi + 2.0) / pi, 0.0,
                   k_rule=lambda h: 0.125 * h * h),
        _separable("ex3ii", PI_SQUARE, 0.0, (pi * pi + 2.0) / (2.0 * pi),
                   k_rule=lambda h: 0.25 * h * h),
    )}

    # ex1's domain, beta and initial data, with alpha varying in time or space
    ex1 = out["ex1"].params
    sched = TimeSchedule(lambda t: 2.0 - math.exp(-t), lo=1.0, hi=2.0)
    out["timevar"] = Experiment("timevar", replace(ex1, alpha=sched))
    alpha_field = ScalarField(lambda x, y: 1.0 + 0.5 * np.sin(pi * x) * np.sin(pi * y))
    out["spacevar"] = Experiment(
        "spacevar", replace(ex1, alpha=SpatialField(alpha_field, lo=1.0, hi=1.5)))

    forcing = ScalarField(lambda x, y: 2.0 * pi * pi * np.sin(pi * x) * np.sin(pi * y))
    out["forcing"] = Experiment(
        "forcing",
        ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=1.0, forcing=forcing),
        T=30.0, k_rule=lambda h: h, n_values=(16,))
    return out


def check_residual(exp: Experiment) -> float:
    """Max |PDE residual| of the manufactured solution at 100 random samples;
    raises ValueError above 1e-10."""
    if exp.exact is None:
        raise ValueError(f"experiment {exp.name} has no exact solution")
    if not exp.constant_coefficients():
        raise ValueError("residual guard applies to constant coefficients")
    rng = np.random.default_rng(2718)
    r = exp.domain
    x = rng.uniform(r.x0, r.x1, 100)
    y = rng.uniform(r.y0, r.y1, 100)
    ts = rng.uniform(0.0, exp.T, 100)
    alpha, beta = (c.lo for c in exp.params.damping)
    worst = max(float(np.max(np.abs(exp.exact.residual(x, y, t, alpha, beta))))
                for t in ts)
    if worst > 1e-10:
        raise ValueError(f"{exp.name}: PDE residual {worst:.3e} exceeds 1e-10")
    return worst


def build_backend(params: ModelParams, n: int, backend: str):
    """Returns (backend handles, space-or-grid) for one refinement level."""
    if backend == "fem":
        space = FemSpace(build_tri_mesh(params.domain, n))
        return make_fem_backend(space, params), space
    if backend == "fd":
        grid = build_fd_grid(params.domain, n)
        return make_fd_backend(grid, params), grid
    raise ValueError(f"unknown backend {backend!r}")


def _converge_level(exp: Experiment, n: int, backend: str,
                    k_override: float | None):
    handles, disc = build_backend(exp.params, n, backend)
    k = exp.time_step(n, k_override)
    # the exact start is U^1: one step fewer reaches n_steps(k), T when snapped
    state, _ = run(handles, k, exp.n_steps(k) - 1, exact_at=exp.exact.field_at)
    exact = exp.exact.field_at(state.n * k)
    if backend == "fem":
        return error_norms(disc, state.u_curr, exact)
    e = handles.interpolate(exact) - state.u_curr
    l2h, h1h = fd_norms(disc, e)
    return l2h, float(np.max(np.abs(e))), h1h


def run_convergence(exp: Experiment, backend: str = "fem",
                    n_values=None, k_override: float | None = None) -> ConvergenceTable:
    """Refinement study at the experiment's k rule; exact-start initialization.
    Raises ValueError (see check_residual) unless the experiment has an
    exact solution with constant coefficients."""
    check_residual(exp)
    ns = check_levels(tuple(n_values or exp.n_values))
    errs = [_converge_level(exp, n, backend, k_override) for n in ns]
    return convergence_rates(list(zip(ns, errs)))


@dataclass
class DecayReport:
    experiment: str
    n: int
    backend: str
    k: float
    lambda1: float
    delta_cont: float
    delta_disc: float
    delta_fit: float
    trace: EnergyTrace
    monotone_ok: bool
    sandwich_ok: bool
    bound_ok: bool
    dk_admissible: bool
    constant_coeffs: bool
    # margins of the three verdicts (EnergyTrace.worst_growth, sandwich_slack,
    # decay_bound_slack and decay_bound_rate_margin at delta_disc)
    worst_growth: float
    worst_growth_step: int
    sandwich_slack: float
    bound_slack: float
    bound_rate_margin: float


def discrete_lambda1(backend: BackendHandles) -> tuple[float, np.ndarray, int]:
    """(lambda1, eigenvector, iterations) of the backend's (K, M) pencil, by
    inverse power iteration with sine-basis preconditioned K-solves."""
    return smallest_generalized_eigenpair(backend.K, backend.M,
                                          precond=backend.stiffness_precond)


def run_decay(exp: Experiment, n: int, backend: str = "fem",
              k_override: float | None = None,
              lambda_source: str = "discrete") -> DecayReport:
    """Run one level, record energies, and check the decay theory.

    lambda_source "discrete" uses inverse power iteration on the (K, M)
    pencil; "analytic" uses the continuous (pi/width)^2 + (pi/height)^2.
    The decay rate is fitted over the middle 60% of the run, [0.2, 0.8] of
    its last step time.
    """
    handles, disc = build_backend(exp.params, n, backend)
    k = exp.time_step(n, k_override)
    if lambda_source == "discrete":
        lam1, _, _ = discrete_lambda1(handles)
    elif lambda_source == "analytic":
        lam1 = continuous_eigenvalue(1, 1, exp.domain.width, exp.domain.height)
    else:
        raise ValueError(f"unknown lambda source {lambda_source!r}")
    alpha, beta = exp.params.damping
    delta_cont, delta_disc = decay_bounds((alpha.lo, alpha.hi), (beta.lo, beta.hi),
                                          lam1)
    _, trace = run(handles, k, exp.n_steps(k),
                   exact_at=exp.exact.field_at if exp.exact else None)
    if exp.exact is not None and backend == "fem":
        trace.continuous = exp.exact.energy(disc, trace.t)
    t_hi = trace.t[-1]
    delta_fit = fit_decay_rate(trace, 0.2 * t_hi, 0.8 * t_hi)
    worst_growth, worst_growth_step = trace.worst_growth()
    return DecayReport(
        experiment=exp.name, n=n, backend=backend, k=k, lambda1=lam1,
        delta_cont=delta_cont, delta_disc=delta_disc,
        delta_fit=delta_fit, trace=trace,
        monotone_ok=trace.monotone(),
        sandwich_ok=trace.sandwich_ok(delta_disc),
        bound_ok=trace.decay_bound_ok(delta_disc),
        dk_admissible=delta_disc * k <= DK_CAP,
        constant_coeffs=exp.constant_coefficients(),
        worst_growth=worst_growth, worst_growth_step=worst_growth_step,
        sandwich_slack=trace.sandwich_slack(delta_disc),
        bound_slack=trace.decay_bound_slack(delta_disc),
        bound_rate_margin=trace.decay_bound_rate_margin(delta_disc),
    )


@dataclass
class SteadyReport:
    n: int
    k: float
    distances: np.ndarray  # ||U^n - u_inf||_M
    u_inf: np.ndarray

    def monotone_ok(self) -> bool:
        """Strict decrease until the distance first drops below 1e-8 of
        the initial one; past that point the linear solves leave only
        noise and the sequence is allowed to wander."""
        d = self.distances
        cut = np.nonzero(d <= 1e-8 * d[0])[0]
        stop = int(cut[0]) + 1 if cut.size else d.size
        return bool(np.all(np.diff(d[:stop]) <= 1e-14 * d[0]))


def run_steady(exp: Experiment, n: int, backend: str = "fem",
               k_override: float | None = None) -> SteadyReport:
    """Track the M-norm distance to the discrete steady state over time."""
    handles, _ = build_backend(exp.params, n, backend)
    u_inf = steady_state(handles)
    k = exp.time_step(n, k_override)
    _, trace = run(handles, k, exp.n_steps(k), reference=u_inf)
    return SteadyReport(n=n, k=k, distances=trace.distance, u_inf=u_inf)


def _fmt(x: float) -> str:
    return f"{x:.6e}"


def write_csv(obj, path) -> None:
    """Serialize a ConvergenceTable or DecayReport to CSV."""
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            if isinstance(obj, ConvergenceTable):
                w.writerow(["N", "l2", "rate_l2", "linf", "rate_linf",
                            "h1", "rate_h1"])
                for i, n in enumerate(obj.n_values):
                    def rate(r):
                        return "" if math.isnan(r) else f"{r:.4f}"
                    w.writerow([int(n), _fmt(obj.l2[i]), rate(obj.rate_l2[i]),
                                _fmt(obj.linf[i]), rate(obj.rate_linf[i]),
                                _fmt(obj.h1[i]), rate(obj.rate_h1[i])])
            elif isinstance(obj, DecayReport):
                bound = obj.trace.decay_bound(obj.delta_disc)
                ext = obj.trace.extended(obj.delta_disc)
                w.writerow(["t", "E", "E_ext", "bound", "E_cont"])
                for i, t in enumerate(obj.trace.t):
                    cont = "" if obj.trace.continuous is None \
                        else _fmt(obj.trace.continuous[i])
                    w.writerow([_fmt(t), _fmt(obj.trace.energy[i]),
                                _fmt(ext[i]), _fmt(bound[i]), cont])
            else:
                raise TypeError(f"cannot serialize {type(obj).__name__}")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def load_config(path) -> dict[str, str]:
    """Line-oriented key = value configuration; '#' starts a comment."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out
