"""The benchmark's workloads: seeded inputs and the call that solves them.

Every input comes from ``rails.testproblems`` and a seed; the solver only
ever sees the generated matrices. Why each workload exists:

dae-large-cli
    ``rails solve`` as a process on Matrix Market files of a large DAE with
    rank-1 forcing. Large n and a small search space: besides the imports,
    time goes to work on n-length vectors (Lanczos, Gram-Schmidt, space
    growth) and to file I/O. The only workload that runs ``rails.mmio``
    and ``rails.cli``.
diffusion-inverse
    Library ``solve`` on a diffusion pencil with the inverse variant. Short
    vectors and a large projected space, so the dense projected solve
    dominates. The only sparse-LU inverse-product path.
dae-wide
    Library ``solve_dae`` with 12 uncorrelated forcing columns. Wide B
    enters every residual matvec, the Schur complement is applied with
    A11 solves, and the answer has full rank. The dense solve takes about
    80 % of the time at this size and Lanczos most of the rest; the
    workload is where a residual scheme whose cost grows with the width
    of B shows.
"""

NAMES = ("dae-large-cli", "diffusion-inverse", "dae-wide")
CLI = "dae-large-cli"

TOL = {"dae-large-cli": 1e-8, "diffusion-inverse": 1e-4, "dae-wide": 1e-4}

# Sizes: a library solve takes about a second on one core, so one run of
# the benchmark gathers enough samples for a median and a tail percentile.
# The CLI problem is larger (about 3 s a process) so that vector work, not
# interpreter start-up, dominates the process.
CLI_N_DIFF, CLI_N_ALG, CLI_SITES = 50000, 10000, 8
DIFFUSION_N = 500
WIDE_N_DIFF, WIDE_N_ALG, WIDE_SITES = 1000, 250, 12


# The benchmark seed sets only the forcing weights. The pencils and the
# solver's own seed are fixed: seeded pencils (gen_dae(rng_seed=seed)),
# large weight changes or a seeded solver move the iteration count and the
# space dimension from seed to seed, and with them the solve time by
# 20-50 %, far beyond any bound a regression check could use.
PENCIL_SEED = 0
SOLVER_SEED = 0
WEIGHT_SPREAD = 0.05


def _weights(sites, n, seed):
    """Seeded smooth positive site weights: 1 plus three small sine modes.

    A smooth profile keeps the covariance low-rank (rough random weights
    raise the rank and the solve time several-fold).
    """
    import numpy as np

    x = (np.asarray(sites) + 1.0) / (n + 1.0)
    c = np.random.default_rng(seed).uniform(-WEIGHT_SPREAD, WEIGHT_SPREAD, size=3)
    return 1.0 + sum(c[k] * np.sin((k + 1) * np.pi * x) for k in range(3))


def generate(workload, seed):
    """(A, M, B) of ``workload`` for ``seed``, built with rails.testproblems.

    ``gen_forcing`` builds an n x |sites| dense scratch matrix, so the CLI
    workload forces a small site subset and diffusion stays small.
    """
    from rails import testproblems

    if workload == "diffusion-inverse":
        a, m, sites = testproblems.gen_diffusion(DIFFUSION_N)
        pattern = "row_sum_vector"
    elif workload == "dae-wide":
        a, m, sites = testproblems.gen_dae(WIDE_N_DIFF, WIDE_N_ALG, rng_seed=PENCIL_SEED)
        sites = sites[:WIDE_SITES]
        pattern = "uncorrelated_columns"
    elif workload == CLI:
        a, m, sites = testproblems.gen_dae(CLI_N_DIFF, CLI_N_ALG, rng_seed=PENCIL_SEED)
        sites = sites[:CLI_SITES]
        pattern = "row_sum_vector"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    n = a.shape[0]
    b = testproblems.gen_forcing(sites, n, pattern, weights=_weights(sites, n, seed)).b
    return a, m, b


def reduced_dimension(workload):
    """Size of the problem the iteration runs on (the differential block for DAEs)."""
    return {
        "dae-large-cli": CLI_N_DIFF,
        "diffusion-inverse": DIFFUSION_N,
        "dae-wide": WIDE_N_DIFF,
    }[workload]


def cli_args(paths, out_dir):
    """``rails solve`` arguments for the CLI workload."""
    return [
        "solve", "--a", paths["A"], "--m", paths["M"], "--b", paths["B"],
        "--tol", repr(TOL[CLI]), "--seed", str(SOLVER_SEED), "--out", out_dir,
    ]


def library_call(workload, inputs):
    """A zero-argument callable doing one library solve of ``workload``.

    The problem object is built fresh for each call, so lazily computed
    factorizations (the sparse LU of the inverse variant) are paid by
    every solve, as a user running one solve pays them.
    """
    import rails.solver as solver

    a, m, b = inputs
    tol = TOL[workload]
    if workload == "diffusion-inverse":
        opts = solver.SolverOptions(
            tol=tol, variant="inverse", initial_space="inverse_applied_to_b",
            rng_seed=SOLVER_SEED,
        )

        def call():
            # M is the identity: None makes its applications free, as
            # solve_dae would arrange for a file input.
            return solver.solve(solver.LyapunovProblem(a, None, b), opts)

        return call
    if workload == "dae-wide":
        opts = solver.SolverOptions(tol=tol, rng_seed=SOLVER_SEED)
        return lambda: solver.solve_dae(a, m, b, opts)
    raise ValueError(f"{workload!r} is not a library workload")
