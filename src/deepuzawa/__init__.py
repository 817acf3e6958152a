"""Solvers for elliptic PDE-constrained optimal control.

The package pairs a neural collocation solver (an Uzawa outer loop around
inner gradient-based minimisation of a coercive quadrature Lagrangian,
with plain and augmented variants) with finite-difference reference
iterations whose inner problems are solved exactly, for verifying the
saddle-point convergence theory at the discrete level.
"""
import os

# pin BLAS threading before numpy loads: the layer matrices here are small
# enough that thread fan-out costs more than it buys, and single-threaded
# reductions keep runs reproducible across machines
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .closed_forms import ExactSolution
from .config import ExperimentConfig, RunResult, emit_csv
from .driver import RunRecord, rho_alpha_sweep, run_deep_uzawa
from .fd_oracle import (FDRun, Grid1D, KKTSolution, fd_direct_kkt_solve, fd_projected_uzawa_run,
                        fd_uzawa_run, gauss_seidel_adjoint_run)
from .geometry import CollocationSet, Domain, build_grid, cutoff_jet, l2_norm
from .lagrangian import (ProblemSpec, TargetSpec, cost_values, loss_parts, multiplier_update,
                         residual_values)
from .network import (NetworkParameters, NetworkSpec, batch_jets, finite_difference_gradient,
                      grad_check, init_network, load_checkpoint, loss_and_gradient,
                      save_checkpoint)
from .optim import AdamState, adam_step

__version__ = "0.1.0"
