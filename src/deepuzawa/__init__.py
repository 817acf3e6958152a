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
