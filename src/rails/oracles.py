"""Independent verification oracles.

Everything here solves the same equations as the production path by a
different method: Kronecker vectorization with a dense LU, dense block
recovery, and a stochastic Euler-Maruyama integrator whose sample
covariance estimates the stationary covariance directly. Their input
rules are the solver's own (``matrices._check_pencil``,
``dae._check_forcing``), so they refuse what it refuses, with its errors.
Their arithmetic is not: the first two classify the rows of M and recover
the constraint blocks densely. The integrator takes ``partition``'s
``DaeSystem`` and forms its drift through ``schur_apply``, so it checks
the iteration and the recovery but not the Schur complement itself.
These are deliberately brute force and size-capped.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .dae import _check_forcing, schur_apply
from .errors import NoUniqueSolutionError, OracleSizeError, SimulationBlowupError
from .matrices import _check_count, _check_pencil, as_matrix

__all__ = [
    "kron_solve",
    "kron_solve_dae",
    "residual_matrix",
    "SimulationConfig",
    "euler_maruyama_covariance",
    "empirical_covariance",
]

KRON_SIZE_CAP = 60
SIMULATION_SIZE_CAP = 500
# steps whose noise is drawn, and whose kept states are reduced, at once
_CHUNK_STEPS = 8192


def _densify(a):
    if sparse.issparse(a):
        return a.toarray().astype(np.float64)
    return as_matrix(a)


def kron_solve(a, m, b):
    """Solve A C M' + M C A' + B B' = 0 by vectorization.

    vec of the equation gives (M (x) A + A (x) M) vec(C) = -vec(B B'),
    an n^2 x n^2 dense system solved by LU. M must be nonsingular
    (reduce DAE pencils first) and n is capped because of the n^6 cost.

    Returns the symmetrized C. Raises NoUniqueSolutionError when the
    Kronecker matrix is singular, which happens exactly when two pencil
    eigenvalues pair to zero.
    """
    n = np.shape(a)[0]
    if n > KRON_SIZE_CAP:
        raise OracleSizeError(
            f"vectorization oracle is capped at n = {KRON_SIZE_CAP}, got n = {n}"
        )
    a = _densify(a)
    m = _densify(m)
    b = as_matrix(b)
    _check_pencil(a, m, b)
    lhs = np.kron(m, a) + np.kron(a, m)
    rhs = -(b @ b.T).reshape(-1, order="F")
    try:
        c = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoUniqueSolutionError(
            f"Lyapunov operator is singular (eigenvalue pairing); {exc}"
        ) from exc
    c = c.reshape((n, n), order="F")
    c = 0.5 * (c + c.T)
    resid = a @ c @ m.T + m @ c @ a.T + b @ b.T
    scale = max(np.linalg.norm(b @ b.T, "fro"), np.finfo(float).tiny)
    if np.linalg.norm(resid, "fro") > 1e-8 * scale:
        raise NoUniqueSolutionError(
            "vectorized solve did not reproduce the equation; the operator "
            "is numerically singular"
        )
    return c


def kron_solve_dae(a, m, b):
    """Full-space stationary covariance of a DAE pencil, densely.

    Partitions by the zero rows of M, solves the reduced equation
    S C22 M22' + M22 C22 S' + B2 B2' = 0 by vectorization, then fills in
    the coupled blocks from the constraint:

        C12 = -A11^{-1} A12 C22,  C21 = C12',  C11 = -A11^{-1} A12 C21.

    The cap binds the reduced (differential) dimension, where the n^2 x n^2
    vectorized system lives; the dense partitioning and constraint recovery
    are cheap by comparison and tolerate a somewhat larger full size.

    Returns the dense n x n covariance in the original row ordering.
    Forcing on an algebraic row raises ForcingOnConstraintError.
    """
    n = np.shape(a)[0]
    if n > 10 * KRON_SIZE_CAP:
        raise OracleSizeError(
            f"dense constraint recovery is capped at n = {10 * KRON_SIZE_CAP}, "
            f"got n = {n}"
        )
    a = _densify(a)
    m = _densify(m)
    b = as_matrix(b)
    _check_pencil(a, m, b)
    row_max = np.abs(m).max(axis=1, initial=0.0)
    alg = np.flatnonzero(row_max == 0.0)
    diff = np.flatnonzero(row_max > 0.0)
    _check_forcing(b, alg)
    if diff.size > KRON_SIZE_CAP:
        raise OracleSizeError(
            f"vectorization oracle is capped at {KRON_SIZE_CAP} differential "
            f"variables, got {diff.size}"
        )
    a11 = a[np.ix_(alg, alg)]
    a12 = a[np.ix_(alg, diff)]
    a21 = a[np.ix_(diff, alg)]
    a22 = a[np.ix_(diff, diff)]
    m22 = m[np.ix_(diff, diff)]
    b2 = b[diff, :]
    g = -np.linalg.solve(a11, a12)  # x1 = G x2 on the constraint manifold
    s = a22 + a21 @ g
    c22 = kron_solve(s, m22, b2)
    c12 = g @ c22
    c11 = g @ c12.T
    c = np.zeros((n, n))
    c[np.ix_(diff, diff)] = c22
    c[np.ix_(alg, diff)] = c12
    c[np.ix_(diff, alg)] = c12.T
    c[np.ix_(alg, alg)] = c11
    return 0.5 * (c + c.T)


def residual_matrix(a, m, b, c):
    """Dense residual A C M' + M C A' + B B' (test and validation helper)."""
    a = _densify(a)
    m = _densify(m)
    b = as_matrix(b)
    _check_pencil(a, m, b)
    c = as_matrix(c)
    return a @ c @ m.T + m @ c @ a.T + b @ b.T


@dataclass
class SimulationConfig:
    """Knobs for the stochastic integrator."""

    dt: float
    n_steps: int
    burn_in: int = 0
    sample_stride: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        _check_count("n_steps", self.n_steps, 1)
        _check_count("burn_in", self.burn_in, 0)
        if self.burn_in >= self.n_steps:
            raise ValueError("burn_in must lie in [0, n_steps)")
        _check_count("sample_stride", self.sample_stride, 1)
        _check_count("rng_seed", self.rng_seed, 0)


def euler_maruyama_covariance(sys, cfg):
    """Empirical stationary covariance of the differential variables.

    Integrates dX = M22^{-1} S X dt + M22^{-1} B2 dW with the explicit
    Euler-Maruyama scheme from X = 0, discards ``burn_in`` steps, then
    accumulates the mean-removed sample covariance of every
    ``sample_stride``-th state. The drift and noise maps are densified
    once up front (the oracle is capped at 500 differential variables),
    so each step is two small dense products. The kept states are reduced
    chunk by chunk to their count, mean and centred scatter, which are
    merged pairwise (Chan, Golub & LeVeque 1979), so memory holds one
    chunk of samples, not all of them.

    Returns (covariance, samples_used). Raises SimulationBlowupError with
    the step index when the trajectory norm passes 1e12.
    """
    nd = sys.n_differential
    if nd > SIMULATION_SIZE_CAP:
        raise OracleSizeError(
            f"simulation oracle is capped at {SIMULATION_SIZE_CAP} differential "
            f"variables, got {nd}"
        )
    s_dense = schur_apply(sys, np.eye(nd))
    m22 = sys.m22.toarray()
    drift = np.linalg.solve(m22, s_dense)
    noise = np.linalg.solve(m22, sys.b2)

    lam = np.linalg.eigvals(drift)
    with np.errstate(divide="ignore"):
        step_caps = 2.0 * np.abs(lam.real) / np.maximum(np.abs(lam) ** 2, 1e-300)
    cap = step_caps.min() if step_caps.size else np.inf
    if cfg.dt > cap:
        warnings.warn(
            f"dt = {cfg.dt:.3e} exceeds the explicit-Euler stability bound "
            f"{cap:.3e} for this drift; expect divergence",
            RuntimeWarning,
            stacklevel=2,
        )

    rng = np.random.default_rng(cfg.rng_seed)
    gain = np.eye(nd) + cfg.dt * drift
    sqdt = np.sqrt(cfg.dt)
    rows = np.empty((min(_CHUNK_STEPS, cfg.n_steps - cfg.burn_in), nd))
    moments = (0, 0.0, 0.0)
    x = np.zeros(nd)
    step = 0
    s_cols = noise.shape[1]
    while step < cfg.n_steps:
        count = min(_CHUNK_STEPS, cfg.n_steps - step)
        kicks = sqdt * (noise @ rng.standard_normal((s_cols, count)))
        kept = 0
        for i in range(count):
            x = gain @ x + kicks[:, i]
            step += 1
            nsq = float(x @ x)
            if not nsq <= 1e24:  # catches NaN as well
                raise SimulationBlowupError(step, np.sqrt(nsq))
            if step > cfg.burn_in and (step - cfg.burn_in - 1) % cfg.sample_stride == 0:
                rows[kept] = x
                kept += 1
        if kept:
            moments = _merge_moments(moments, _moments(rows[:kept]))
    return _covariance(moments), moments[0]


def _moments(samples):
    """(count, mean, centred scatter) of row-wise samples, by two passes."""
    mean = samples.mean(axis=0)
    x = samples - mean
    return samples.shape[0], mean, x.T @ x


def _merge_moments(a, b):
    """The moments of the union of two sample sets from their own: the
    pairwise update of Chan, Golub & LeVeque (1979). (0, 0.0, 0.0) stands
    for the empty set."""
    na, mean_a, scatter_a = a
    nb, mean_b, scatter_b = b
    n = na + nb
    delta = mean_b - mean_a
    scatter = scatter_a + scatter_b + np.outer(delta, delta * (na * nb / n))
    return n, mean_a + delta * (nb / n), scatter


def _covariance(moments):
    """Unbiased covariance (divisor n - 1) from the moments of n samples."""
    n, _, scatter = moments
    if n < 2:
        raise ValueError("need at least 2 samples")
    c = scatter / (n - 1)
    return 0.5 * (c + c.T)


def empirical_covariance(samples):
    """Unbiased sample covariance of row-wise samples (divisor N - 1)."""
    samples = as_matrix(samples)
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    return _covariance(_moments(samples))
