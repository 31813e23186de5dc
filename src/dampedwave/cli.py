"""Command-line front end: converge, decay, eig, modal, and steady studies.

Exit codes: 0 success, 1 argument/validation error, 2 numerical failure
(CG breakdown, or an invariant violation under --strict).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness
from .fdm import fd_eigenvalue
from .mesh import PI_SQUARE, UNIT_SQUARE, build_fd_grid
from .oracle import Mode, continuous_eigenvalue, modal_continuous, modal_recurrence
from .sparse import CgError, EigError
from .stepper import ModelParams, StepError

DOMAINS = {"unit": UNIT_SQUARE, "pi": PI_SQUARE}


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad N list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty N list")
    return values


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input (exit 1), not argparse's exit 2, which is
    kept for numerical failures; subparsers are built from this class too."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dampedwave",
        description="Numerical studies of the strongly damped wave equation.")
    parser.add_argument("--config", help="key = value config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge", help="refinement study with rates")
    conv.set_defaults(handler=_cmd_converge)
    conv.add_argument("--experiment", default="ex1")
    conv.add_argument("--backend", choices=["fem", "fd"], default="fem")
    conv.add_argument("--N", type=_parse_n_list, default=harness.N_VALUES,
                      help="comma-separated refinement levels")
    conv.add_argument("--k-override", type=float, default=None)
    conv.add_argument("--out", default=None, help="CSV output path")

    dec = sub.add_parser("decay", help="energy decay study with bound checks")
    dec.set_defaults(handler=_cmd_decay)
    dec.add_argument("--experiment", default="ex1")
    dec.add_argument("--backend", choices=["fem", "fd"], default="fem")
    dec.add_argument("--N", type=int, default=32)
    dec.add_argument("--k-override", type=float, default=None)
    dec.add_argument("--lambda-source", choices=["discrete", "analytic"],
                     default="discrete")
    dec.add_argument("--strict", action="store_true",
                     help="exit 2 on any violated inequality, for constant "
                          "and variable coefficients alike")
    dec.add_argument("--out", default=None)

    eig = sub.add_parser("eig", help="smallest eigenvalue of the (K, M) pencil")
    eig.set_defaults(handler=_cmd_eig)
    eig.add_argument("--backend", choices=["fem", "fd"], default="fd")
    eig.add_argument("--N", type=int, default=32)
    eig.add_argument("--domain", choices=sorted(DOMAINS), default="unit")

    mod = sub.add_parser("modal", help="scalar mode: recurrence vs closed form")
    mod.set_defaults(handler=_cmd_modal)
    mod.add_argument("--p", type=int, default=1)
    mod.add_argument("--q", type=int, default=1)
    mod.add_argument("--M", type=int, default=16, dest="grid_m")
    mod.add_argument("--alpha", type=float, default=np.pi)
    mod.add_argument("--beta", type=float, default=1.0 / np.pi)
    mod.add_argument("--k", type=float, default=1e-3)
    mod.add_argument("--steps", type=int, default=500)

    st = sub.add_parser("steady", help="decay toward the forced steady state")
    st.set_defaults(handler=_cmd_steady)
    st.add_argument("--experiment", default="forcing")
    st.add_argument("--backend", choices=["fem", "fd"], default="fem")
    st.add_argument("--N", type=int, default=16)
    st.add_argument("--k-override", type=float, default=None)
    return parser


def _apply_config(parser, argv):
    """Pre-parse --config and inject its values as defaults (flags win)."""
    args, _ = parser.parse_known_args(argv)
    if not getattr(args, "config", None):
        return argv
    cfg = harness.load_config(args.config)
    injected = []
    known = {"experiment", "backend", "N", "k_override", "out", "domain",
             "lambda_source"}
    for key, val in cfg.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not any(a == flag or a.startswith(flag + "=") for a in argv):
            injected.extend([flag, val])
    # subcommands take no positional argument: flags appended reach theirs
    return argv + injected


def _get_experiment(name: str):
    exps = harness.builtin_experiments()
    if name not in exps:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {', '.join(sorted(exps))}")
    return exps[name]


def _cmd_converge(args) -> int:
    exp = _get_experiment(args.experiment)
    table = harness.run_convergence(exp, backend=args.backend,
                                    n_values=args.N, k_override=args.k_override)
    print(f"# {exp.name} backend={args.backend}")
    print("N      l2            rate    linf          rate    h1            rate")
    for i, n in enumerate(table.n_values):
        def r(v):
            return "  --  " if np.isnan(v) else f"{v:6.4f}"
        print(f"{int(n):<6d} {table.l2[i]:.6e} {r(table.rate_l2[i])} "
              f"{table.linf[i]:.6e} {r(table.rate_linf[i])} "
              f"{table.h1[i]:.6e} {r(table.rate_h1[i])}")
    if args.out:
        harness.write_csv(table, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_decay(args) -> int:
    exp = _get_experiment(args.experiment)
    rep = harness.run_decay(exp, args.N, backend=args.backend,
                            k_override=args.k_override,
                            lambda_source=args.lambda_source)
    print(f"# {exp.name} N={rep.n} backend={rep.backend} k={rep.k:.6e}")
    print(f"lambda1          = {rep.lambda1:.10f}")
    print(f"delta (continuous bound) = {rep.delta_cont:.6f}")
    print(f"delta (discrete bound)   = {rep.delta_disc:.6f}")
    print(f"delta (fitted from E)    = {rep.delta_fit:.6f}  "
          f"(log-E slope {-2.0 * rep.delta_fit:.6f})")
    print(f"delta*k admissible (<= {harness.DK_CAP:.6f}): "
          f"{'yes' if rep.dk_admissible else 'no'}")
    print(f"energy monotone          : {'PASS' if rep.monotone_ok else 'FAIL'}")
    print(f"extended-energy sandwich : {'PASS' if rep.sandwich_ok else 'FAIL'}")
    print(f"discrete decay bound     : {'PASS' if rep.bound_ok else 'FAIL'}")
    if args.out:
        harness.write_csv(rep, args.out)
        print(f"wrote {args.out}")
    checks = [rep.monotone_ok, rep.sandwich_ok, rep.bound_ok]
    if args.strict and not all(checks):
        print("strict mode: inequality violated", file=sys.stderr)
        return 2
    return 0


def _cmd_eig(args) -> int:
    domain = DOMAINS[args.domain]
    backend, disc = harness.build_backend(ModelParams(domain=domain), args.N,
                                          args.backend)
    lam, _, its = harness.discrete_lambda1(backend)
    if args.backend == "fd":
        print(f"fd   N={args.N}  lambda1_h = {lam:.10f}  "
              f"(closed form {fd_eigenvalue(disc, 1, 1):.10f}, {its} iterations)")
    else:
        print(f"fem  N={args.N}  lambda1_h = {lam:.10f}  ({its} iterations)")
    analytic = continuous_eigenvalue(1, 1, domain.width, domain.height)
    print(f"continuous lambda1 = {analytic:.10f}")
    return 0


def _cmd_modal(args) -> int:
    ModelParams(domain=UNIT_SQUARE, alpha=args.alpha, beta=args.beta)  # checks damping
    grid = build_fd_grid(UNIT_SQUARE, args.grid_m)
    lam = fd_eigenvalue(grid, args.p, args.q)
    mode = Mode(args.p, args.q, lam, a0=1.0, b0=0.0)
    t_end = (args.steps + 1) * args.k
    u0, u1, u_exact = (float(modal_continuous(mode, args.alpha, args.beta, t)[0])
                       for t in (0.0, args.k, t_end))
    seq = modal_recurrence(mode, args.alpha, args.beta, args.k, args.steps, u0=u0, u1=u1)
    print(f"mode ({args.p},{args.q}) lambda_h = {lam:.8f}")
    print(f"recurrence amplitude at t={t_end:.4f}: {seq[-1]:.10e}")
    print(f"closed form at same time        : {u_exact:.10e}")
    denom = max(abs(u_exact), 1e-300)
    print(f"relative difference             : {abs(seq[-1] - u_exact) / denom:.3e}")
    return 0


def _cmd_steady(args) -> int:
    exp = _get_experiment(args.experiment)
    rep = harness.run_steady(exp, args.N, backend=args.backend,
                             k_override=args.k_override)
    d0 = rep.distances[0]
    print(f"# {exp.name} N={rep.n} k={rep.k:.6e}")
    print(f"initial distance ||U - u_inf||_M = {d0:.6e}")
    print(f"final   distance                 = {rep.distances[-1]:.6e}")
    print(f"relative reduction               = {rep.distances[-1] / d0:.3e}")
    print(f"monotone decrease: {'yes' if rep.monotone_ok() else 'no'}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_apply_config(parser, argv))
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CgError, EigError, StepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
