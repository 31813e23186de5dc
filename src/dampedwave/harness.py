"""Built-in experiments (manufactured solutions on rectangles), refinement
and decay studies, and CSV serialization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import diagnostics
from .diagnostics import ConvergenceTable, EnergyTrace, convergence_rates, \
    decay_bounds, fit_decay_rate
from .fem import FemSpace, ScalarField, error_norms, field_h1_seminorm, \
    field_l2_norm
from .fdm import fd_norms
from .mesh import PI_SQUARE, Rectangle, UNIT_SQUARE, build_fd_grid, build_tri_mesh
from .sparse import smallest_generalized_eigenpair
from .stepper import BackendHandles, ModelParams, SpatialField, TimeSchedule, \
    make_fd_backend, make_fem_backend, run, steady_state

DK_CAP = 34.0 / 205.0  # delta*k admissibility for the discrete decay bound


@dataclass(frozen=True)
class SeparableExact:
    """Exact solution u(x, y, t) = g(t) s(x, y) with A s = lam * s.

    g, gp, gpp are the time factor and its derivatives; s carries an
    analytic gradient for H1 errors and elliptic projections.
    """

    s: ScalarField
    lam: float
    g: Callable[[float], float]
    gp: Callable[[float], float]
    gpp: Callable[[float], float]

    def field_at(self, t: float) -> ScalarField:
        gt = self.g(t)
        return ScalarField(
            lambda x, y: gt * self.s(x, y),
            grad=lambda x, y: tuple(gt * c for c in self.s.grad(x, y)),
        )

    def residual(self, x, y, t, alpha: float, beta: float) -> np.ndarray:
        """Pointwise u'' + beta A u' + alpha u' + A u (A = -Laplacian)."""
        factor = self.gpp(t) + (beta * self.lam + alpha) * self.gp(t) \
            + self.lam * self.g(t)
        return factor * np.asarray(self.s(x, y), dtype=float)

    def energy(self, space: FemSpace, t) -> np.ndarray:
        """Continuous energy at the time or times t, by quadrature of the
        analytic u' and grad u; the two quadratures run once per call."""
        s_l2 = field_l2_norm(space, self.s)
        s_h1 = field_h1_seminorm(space, self.s)
        g = np.vectorize(self.g, otypes=[float])(t)
        gp = np.vectorize(self.gp, otypes=[float])(t)
        return 0.5 * (gp ** 2 * s_l2 ** 2 + g ** 2 * s_h1 ** 2)


def _exp_decay(rate: float):
    return (lambda t: math.exp(-rate * t),
            lambda t: -rate * math.exp(-rate * t),
            lambda t: rate * rate * math.exp(-rate * t))


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
    name: str
    domain: Rectangle
    params: ModelParams
    exact: SeparableExact | None = None
    n_values: tuple[int, ...] = (5, 10, 15, 20, 25, 30)
    k_rule: str = "2h2"
    T: float = 1.0
    backend: str = "fem"

    def time_step(self, n: int, override: float | None = None) -> float:
        if override is not None:
            return override
        # rules use the reference mesh width 1/n (domain scaled to the unit
        # square), so the step does not blow up on large domains where the
        # first-order-in-time error would swamp the spatial one
        h = 1.0 / n
        if self.k_rule == "2h2":
            k = 2.0 * h * h
        elif self.k_rule == "h2/4":
            k = 0.25 * h * h
        elif self.k_rule == "h2/8":
            k = 0.125 * h * h
        elif self.k_rule == "h":
            k = h
        else:
            k = float(self.k_rule)
        # snap so an integer number of steps lands exactly on T; errors at
        # the final time are then comparable across refinement levels
        return self.T / math.ceil(self.T / k - 1e-9)

    def constant_coefficients(self) -> bool:
        return all(c.weight is None and c.lo == c.hi for c in self.params.damping)


def _make_separable(domain: Rectangle, alpha, beta, rate: float) -> tuple[
        ModelParams, SeparableExact]:
    freq = np.pi / domain.width
    s = _sine_product(freq)
    lam = 2.0 * freq * freq
    g, gp, gpp = _exp_decay(rate)
    exact = SeparableExact(s, lam, g, gp, gpp)
    u1 = ScalarField(lambda x, y: gp(0.0) * s(x, y),
                     grad=lambda x, y: tuple(gp(0.0) * c for c in s.grad(x, y)))
    params = ModelParams(domain=domain, alpha=alpha, beta=beta, u0=s, u1=u1)
    return params, exact


def builtin_experiments() -> dict[str, Experiment]:
    """The four manufactured-solution experiments plus schedule/field/forcing extras."""
    pi = np.pi
    out: dict[str, Experiment] = {}

    p, e = _make_separable(UNIT_SQUARE, pi, 1.0 / pi, pi)
    out["ex1"] = Experiment("ex1", UNIT_SQUARE, p, e)

    # on (0, pi)^2 the lowest eigenvalue is 2, not 2*pi^2; the O(k) time
    # error is relatively much larger there, so these use a smaller step
    p, e = _make_separable(PI_SQUARE, (pi * pi + 4.0) / (2.0 * pi), pi / 4.0, pi)
    out["ex2"] = Experiment("ex2", PI_SQUARE, p, e, k_rule="h2/4")

    p, e = _make_separable(PI_SQUARE, (pi * pi + 2.0) / pi, 0.0, pi)
    out["ex3i"] = Experiment("ex3i", PI_SQUARE, p, e, k_rule="h2/8")

    p, e = _make_separable(PI_SQUARE, 0.0, (pi * pi + 2.0) / (2.0 * pi), pi)
    out["ex3ii"] = Experiment("ex3ii", PI_SQUARE, p, e, k_rule="h2/4")

    s = _sine_product(pi)
    u1 = ScalarField(lambda x, y: -pi * s(x, y))
    sched = TimeSchedule(lambda t: 2.0 - math.exp(-t), lo=1.0, hi=2.0)
    out["timevar"] = Experiment(
        "timevar", UNIT_SQUARE,
        ModelParams(domain=UNIT_SQUARE, alpha=sched, beta=1.0 / pi, u0=s, u1=u1))

    alpha_field = ScalarField(lambda x, y: 1.0 + 0.5 * np.sin(pi * x) * np.sin(pi * y))
    out["spacevar"] = Experiment(
        "spacevar", UNIT_SQUARE,
        ModelParams(domain=UNIT_SQUARE,
                    alpha=SpatialField(alpha_field, lo=1.0, hi=1.5),
                    beta=1.0 / pi, u0=s, u1=u1))

    forcing = ScalarField(lambda x, y: 2.0 * pi * pi * np.sin(pi * x) * np.sin(pi * y))
    out["forcing"] = Experiment(
        "forcing", UNIT_SQUARE,
        ModelParams(domain=UNIT_SQUARE, alpha=1.0, beta=1.0, forcing=forcing),
        T=30.0, k_rule="h", n_values=(16,))
    return out


def check_residual(exp: Experiment, n_samples: int = 100, tol: float = 1e-10) -> float:
    """Max |PDE residual| of the manufactured solution at random samples."""
    if exp.exact is None:
        raise ValueError(f"experiment {exp.name} has no exact solution")
    if not exp.constant_coefficients():
        raise ValueError("residual guard applies to constant coefficients")
    rng = np.random.default_rng(2718)
    r = exp.domain
    x = rng.uniform(r.x0, r.x1, n_samples)
    y = rng.uniform(r.y0, r.y1, n_samples)
    ts = rng.uniform(0.0, exp.T, n_samples)
    alpha, beta = (c.lo for c in exp.params.damping)
    worst = max(float(np.max(np.abs(exp.exact.residual(x, y, t, alpha, beta))))
                for t in ts)
    if worst > tol:
        raise ValueError(f"{exp.name}: PDE residual {worst:.3e} exceeds {tol:g}")
    return worst


def build_backend(exp: Experiment, n: int, backend: str | None = None):
    """Returns (backend handles, space-or-grid) for one refinement level."""
    kind = backend or exp.backend
    if kind == "fem":
        space = FemSpace(build_tri_mesh(exp.domain, n))
        return make_fem_backend(space, exp.params), space
    if kind == "fd":
        grid = build_fd_grid(exp.domain, n)
        return make_fd_backend(grid, exp.params), grid
    raise ValueError(f"unknown backend {kind!r}")


def _converge_level(exp: Experiment, n: int, backend: str,
                    k_override: float | None):
    handles, disc = build_backend(exp, n, backend)
    k = exp.time_step(n, k_override)
    m = round(exp.T / k)
    state, _ = run(handles, exp.params, k, exp.T, init_mode="exact",
                   exact_at=exp.exact.field_at, n_steps=m - 1)
    t_final = state.n * k  # equals T by construction of the snapped step
    if backend == "fem":
        return error_norms(disc, state.u_curr, exp.exact.field_at(t_final))
    ref = handles.interpolate(exp.exact.field_at(t_final))
    e = ref - state.u_curr
    l2h, h1h = fd_norms(disc, e)
    return l2h, float(np.max(np.abs(e))), h1h


def run_convergence(exp: Experiment, backend: str | None = None,
                    n_values=None, k_override: float | None = None) -> ConvergenceTable:
    """Refinement study at the experiment's k rule; exact-start initialization."""
    if exp.exact is None:
        raise ValueError("convergence study needs an exact solution")
    check_residual(exp)
    kind = backend or exp.backend
    ns = tuple(n_values or exp.n_values)
    errs = [_converge_level(exp, n, kind, k_override) for n in ns]
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
    log_slope: float
    trace: EnergyTrace
    monotone_ok: bool
    sandwich_ok: bool
    bound_ok: bool
    dk_admissible: bool
    constant_coeffs: bool

    def bound_curve(self) -> np.ndarray:
        return 3.0 * np.exp(-self.delta_disc * self.trace.t / 15.0) \
            * self.trace.energy[0]


def run_decay(exp: Experiment, n: int, backend: str | None = None,
              k_override: float | None = None,
              lambda_source: str = "discrete",
              fit_window: tuple[float, float] | None = None) -> DecayReport:
    """Run one level, record energies, and check the decay theory.

    lambda_source "discrete" uses inverse power iteration on the (K, M)
    pencil; "analytic" uses the continuous 2*(pi/side)^2.
    """
    kind = backend or exp.backend
    handles, disc = build_backend(exp, n, kind)
    k = exp.time_step(n, k_override)
    if lambda_source == "discrete":
        lam1, _, _ = smallest_generalized_eigenpair(handles.K, handles.M, tol=1e-10)
    elif lambda_source == "analytic":
        lam1 = 2.0 * (np.pi / exp.domain.width) ** 2
    else:
        raise ValueError(f"unknown lambda source {lambda_source!r}")
    alpha, beta = exp.params.damping
    delta_cont, delta_disc = decay_bounds((alpha.lo, alpha.hi), (beta.lo, beta.hi),
                                          lam1)
    init = "exact" if exp.exact is not None else "taylor"
    state, trace = run(handles, exp.params, k, exp.T,
                       init_mode=init,
                       exact_at=exp.exact.field_at if exp.exact else None,
                       meta={"experiment": exp.name, "N": n, "alpha": alpha.lo,
                             "beta": beta.lo, "lambda1": lam1})
    if exp.exact is not None and kind == "fem":
        trace.continuous = exp.exact.energy(disc, trace.t)
    t_hi = (state.n - 1) * k
    window = fit_window or (0.2 * t_hi, 0.8 * t_hi)
    delta_fit = fit_decay_rate(trace, *window)
    return DecayReport(
        experiment=exp.name, n=n, backend=kind, k=k, lambda1=lam1,
        delta_cont=delta_cont, delta_disc=delta_disc,
        delta_fit=delta_fit, log_slope=-2.0 * delta_fit, trace=trace,
        monotone_ok=trace.monotone(),
        sandwich_ok=trace.sandwich_ok(delta_disc),
        bound_ok=trace.decay_bound_ok(delta_disc),
        dk_admissible=delta_disc * k <= DK_CAP,
        constant_coeffs=exp.constant_coefficients(),
    )


@dataclass
class SteadyReport:
    n: int
    k: float
    times: np.ndarray
    distances: np.ndarray  # ||U^n - u_inf||_M
    u_inf: np.ndarray

    def monotone_ok(self, floor: float = 1e-8) -> bool:
        """Strict decrease until the distance first drops below
        floor * initial; past that point the linear solves leave only
        noise and the sequence is allowed to wander."""
        d = self.distances
        cut = np.nonzero(d <= floor * d[0])[0]
        stop = int(cut[0]) + 1 if cut.size else d.size
        return bool(np.all(np.diff(d[:stop]) <= 1e-14 * d[0]))


def run_steady(exp: Experiment, n: int, backend: str | None = None,
               k_override: float | None = None) -> SteadyReport:
    """Track the M-norm distance to the discrete steady state over time."""
    handles, _ = build_backend(exp, n, backend)
    u_inf = steady_state(handles, exp.params)
    k = exp.time_step(n, k_override)
    times, dists = [], []

    def observer(state):
        d = state.u_curr - u_inf
        times.append(state.n * state.k)
        dists.append(math.sqrt(float(d @ handles.M.matvec(d))))

    run(handles, exp.params, k, exp.T, observers=[observer])
    return SteadyReport(n=n, k=k, times=np.array(times),
                        distances=np.array(dists), u_inf=u_inf)


def _fmt(x: float) -> str:
    return f"{x:.6e}"


def write_csv(obj, path) -> None:
    """Serialize a ConvergenceTable, EnergyTrace, or DecayReport to CSV."""
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
                bound = obj.bound_curve()
                ext = obj.trace.extended(obj.delta_disc)
                w.writerow(["t", "E", "E_ext", "bound", "E_cont"])
                for i, t in enumerate(obj.trace.t):
                    cont = "" if obj.trace.continuous is None \
                        else _fmt(obj.trace.continuous[i])
                    w.writerow([_fmt(t), _fmt(obj.trace.energy[i]),
                                _fmt(ext[i]), _fmt(bound[i]), cont])
            elif isinstance(obj, EnergyTrace):
                w.writerow(["t", "E", "cross"])
                for i, t in enumerate(obj.t):
                    w.writerow([_fmt(t), _fmt(obj.energy[i]), _fmt(obj.cross[i])])
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
