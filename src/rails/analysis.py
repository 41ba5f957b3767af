"""Interpretation of low-rank stationary covariances: dominant directions,
log-densities on the support, and sampling.

Everything works on the factorized form C = V T V' directly. The
eigenvalues of C are those of the small core T, and the dominant
directions (empirical orthogonal functions, EOFs) are V times the core's
eigenvectors, so nothing here touches an n x n matrix.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCovarianceError
from .matrices import _check_count

__all__ = ["EofSet", "eofs", "gaussian_logpdf", "sample_stationary"]

_SUPPORT_TOL = 1e-8


@dataclass
class EofSet:
    """Top covariance eigenpairs. ``weights`` are the eigenvalues divided
    by the trace over all retained modes (the captured variance share)."""

    eigenvalues: np.ndarray  # (k,) descending, nonnegative
    weights: np.ndarray  # (k,)
    vectors: np.ndarray  # (n, k), orthonormal columns
    total_variance: float


def _core_spectrum(sol):
    lam, u = np.linalg.eigh(sol.t)
    lam = lam[::-1]
    u = u[:, ::-1]
    top = max(abs(lam[0]), np.finfo(float).tiny) if lam.size else 0.0
    if lam.size and lam[-1] < -1e-10 * top:
        raise InvalidCovarianceError(
            f"core has a significantly negative eigenvalue {lam[-1]:.3e}; "
            f"not a covariance"
        )
    return np.maximum(lam, 0.0), u


def eofs(sol, k):
    """First ``k`` dominant directions of C = V T V'.

    Eigenvalues come out descending and clamped at zero (tiny negative
    rounding modes are tolerated, anything materially negative raises).
    Weights sum to one over the full retained spectrum whenever the total
    variance is positive.
    """
    _check_count("k", k, 1)
    if k > sol.rank:
        raise ValueError(f"k = {k} exceeds the solution rank {sol.rank}")
    lam, u = _core_spectrum(sol)
    total = float(lam.sum())
    weights = lam / total if total > 0 else np.zeros_like(lam)
    vectors = sol.v @ u[:, :k]
    return EofSet(lam[:k].copy(), weights[:k].copy(), vectors, total)


def gaussian_logpdf(x, x_star, sol):
    """Log-density of the degenerate Gaussian N(x_star, V T V') at x.

    The density lives on the affine subspace x_star + range(V). Off the
    support (relative distance above 1e-8) the value is -inf. On it, the
    pseudo-determinant form applies:

        -0.5 * (r log(2 pi) + log det T_r + y' T_r^{-1} y),

    with y the coefficients of x - x_star in the basis and T_r the core,
    which must be positive definite.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    x_star = np.asarray(x_star, dtype=np.float64).reshape(-1)
    if x.shape != (sol.dimension,) or x_star.shape != (sol.dimension,):
        raise ValueError("x and x_star must be vectors of the problem dimension")
    delta = x - x_star
    y = sol.v.T @ delta
    off = delta - sol.v @ y
    dist = np.linalg.norm(delta)
    if dist > 0 and np.linalg.norm(off) > _SUPPORT_TOL * dist:
        return -np.inf
    if sol.rank == 0:
        return 0.0 if dist == 0 else -np.inf
    lam, u = _core_spectrum(sol)
    if lam[-1] <= 0:
        raise InvalidCovarianceError(
            f"core eigenvalue {lam[-1]:.3e} <= 0; density undefined"
        )
    z = u.T @ y
    r = sol.rank
    return -0.5 * (
        r * np.log(2.0 * np.pi) + np.log(lam).sum() + float(z @ (z / lam))
    )


def sample_stationary(sol, x_star, count, rng_seed=0):
    """Draw ``count`` samples of N(x_star, V T V'), one per row.

    Uses x_star + V T^{1/2} Z with standard normal Z over the core's modes,
    largest first; a materially negative mode raises, as in ``eofs``.
    """
    _check_count("count", count, 1)
    _check_count("rng_seed", rng_seed, 0)
    x_star = np.asarray(x_star, dtype=np.float64).reshape(-1)
    if x_star.shape != (sol.dimension,):
        raise ValueError("x_star must be a vector of the problem dimension")
    rng = np.random.default_rng(rng_seed)
    lam, u = _core_spectrum(sol)
    root = u * np.sqrt(lam)
    z = rng.standard_normal((sol.rank, count))
    return (x_star[:, None] + sol.v @ (root @ z)).T


def write_eof_csv(path, eof_set):
    """One column per EOF; the header row carries the eigenvalues."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{v:.16e}" for v in eof_set.eigenvalues])
        for row in eof_set.vectors:
            writer.writerow([f"{v:.16e}" for v in row])


def write_eigenvalue_csv(path, sol):
    """All retained eigenvalues of the covariance, raw and trace-weighted."""
    lam, _ = _core_spectrum(sol)
    total = float(lam.sum())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue", "weighted"])
        for v in lam:
            w = v / total if total > 0 else 0.0
            writer.writerow([f"{v:.16e}", f"{w:.16e}"])
