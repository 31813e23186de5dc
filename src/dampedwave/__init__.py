"""Numerical laboratory for the strongly damped wave equation
u'' + beta*A u' + alpha*u' + A u = f on rectangles, with P1 finite element
and 5-point finite difference backends, an implicit time stepper that
preserves exponential energy decay, and convergence/decay studies."""

import os
import sys

# numpy's bundled OpenBLAS keeps an idle worker thread busy-waiting for
# 2^28 cycles (about 0.1 s) after each threaded product, and after the
# library loads, before it sleeps; no product of the paper's studies (N <=
# 64) is large enough to be threaded, so that spin only adds CPU time. A
# timeout of 2^16 cycles (about 25 us) lets the worker sleep at once and
# keeps the threads for the products that gain from them (the sine-basis
# transforms of n >= 105 unknowns a side). OpenBLAS reads the variable only
# when it loads, so this acts only when dampedwave is what imports numpy
# (the dampedwave CLI, python -m dampedwave.cli, bench/study.py); a value
# already set is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")

from .mesh import FdGrid, Rectangle, TriMesh, build_fd_grid, build_tri_mesh
from .sparse import SolveReport, SparseMatrix, cg_solve
from .fem import FemSpace, ScalarField
from .stepper import BackendHandles, ModelParams, SpatialField, StepperState, \
    TimeSchedule, init_state, run, steady_state, step
from .diagnostics import ConvergenceTable, EnergyTrace, convergence_rates, \
    decay_bounds, discrete_energy, energy_EA, fit_decay_rate
from .oracle import Mode, modal_continuous, modal_recurrence
from .harness import Experiment, builtin_experiments, run_convergence, \
    run_decay, write_csv

__all__ = [
    "Rectangle", "TriMesh", "FdGrid", "build_tri_mesh", "build_fd_grid",
    "SparseMatrix", "SolveReport", "cg_solve",
    "FemSpace", "ScalarField",
    "ModelParams", "TimeSchedule", "SpatialField", "StepperState",
    "BackendHandles", "init_state", "step", "run", "steady_state",
    "EnergyTrace", "ConvergenceTable", "discrete_energy", "energy_EA",
    "decay_bounds", "fit_decay_rate", "convergence_rates",
    "Mode", "modal_continuous", "modal_recurrence",
    "Experiment", "builtin_experiments", "run_convergence", "run_decay",
    "write_csv",
]

__version__ = "0.1.0"
