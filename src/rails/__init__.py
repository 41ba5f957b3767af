"""RAILS: residual approximation based iterative Lyapunov solver.

Computes low-rank factorizations C = V T V' of stationary covariance
matrices defined by large, sparse generalized Lyapunov equations

    A C M' + M C A' + B B' = 0,

including pencils with singular mass matrices (differential-algebraic
structure), and provides the analysis and verification tooling around
them: dominant-direction extraction, degenerate Gaussian densities,
brute-force dense oracles and a stochastic simulation cross-check.

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

from .analysis import EofSet, eofs, gaussian_logpdf, sample_stationary
from .dae import DaeSystem, partition, recover_full_covariance, schur_apply
from .dense_lyap import ProjectedSystem, solve_projected, solve_standard_dense
from .errors import (
    ForcingOnConstraintError,
    GenerationError,
    InvalidCovarianceError,
    NoUniqueSolutionError,
    OracleSizeError,
    RailsError,
    ReductionImpossibleError,
    SimulationBlowupError,
    SingularMatrixError,
    StabilityError,
)
from .lowrank import LowRankSolution
from .matrices import LanczosResult, lanczos_topk, orthonormalize
from .mmio import (
    load_dense,
    load_solution,
    load_sparse,
    save_dense,
    save_solution,
    save_sparse,
)
from .oracles import (
    SimulationConfig,
    empirical_covariance,
    euler_maruyama_covariance,
    kron_solve,
    kron_solve_dae,
    residual_matrix,
)
from .solver import (
    LyapunovProblem,
    ResidualEstimate,
    SolveReport,
    SolverOptions,
    residual_norm_and_vectors,
    restart,
    solve,
    solve_dae,
)
from .testproblems import ForcingMatrix, gen_dae, gen_diffusion, gen_forcing

__version__ = "0.1.0"

__all__ = [
    "EofSet",
    "eofs",
    "gaussian_logpdf",
    "sample_stationary",
    "DaeSystem",
    "partition",
    "recover_full_covariance",
    "schur_apply",
    "ProjectedSystem",
    "solve_projected",
    "solve_standard_dense",
    "RailsError",
    "StabilityError",
    "SingularMatrixError",
    "ReductionImpossibleError",
    "ForcingOnConstraintError",
    "NoUniqueSolutionError",
    "OracleSizeError",
    "SimulationBlowupError",
    "InvalidCovarianceError",
    "GenerationError",
    "LowRankSolution",
    "LanczosResult",
    "lanczos_topk",
    "orthonormalize",
    "load_dense",
    "load_solution",
    "load_sparse",
    "save_dense",
    "save_solution",
    "save_sparse",
    "SimulationConfig",
    "empirical_covariance",
    "euler_maruyama_covariance",
    "kron_solve",
    "kron_solve_dae",
    "residual_matrix",
    "LyapunovProblem",
    "ResidualEstimate",
    "SolveReport",
    "SolverOptions",
    "residual_norm_and_vectors",
    "restart",
    "solve",
    "solve_dae",
    "ForcingMatrix",
    "gen_dae",
    "gen_diffusion",
    "gen_forcing",
]
