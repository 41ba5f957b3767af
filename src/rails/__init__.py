"""RAILS: residual approximation based iterative Lyapunov solver.

Computes low-rank factorizations C = V T V' of stationary covariance
matrices defined by large, sparse generalized Lyapunov equations

    A C M' + M C A' + B B' = 0,

including pencils with singular mass matrices (differential-algebraic
structure), and provides the analysis and verification tooling around
them: dominant-direction extraction, degenerate Gaussian densities,
brute-force dense oracles and a stochastic simulation cross-check.

Each library module's ``__all__`` is the one list of its public names:
the package re-exports them all, and its own ``__all__`` is their
concatenation. ``rails.cli`` is the command line entry point and exports
nothing.

The RAILS_THREADS environment variable caps BLAS threading (default: all
cores). BLAS reads its thread count when numpy first loads, so the cap is
applied here, before any numeric import of the package.
"""

import os


def _apply_thread_cap():
    cap = os.environ.get("RAILS_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

from . import (
    analysis, dae, dense_lyap, errors, lowrank,
    matrices, mmio, oracles, solver, testproblems,
)
from .analysis import *
from .dae import *
from .dense_lyap import *
from .errors import *
from .lowrank import *
from .matrices import *
from .mmio import *
from .oracles import *
from .solver import *
from .testproblems import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, dae, dense_lyap, errors, lowrank,
                   matrices, mmio, oracles, solver, testproblems)
    for name in module.__all__
]
