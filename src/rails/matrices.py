"""Shared matrix kernels: input validation, block Gram-Schmidt with
deflation, and a Lanczos eigensolver for symmetric operators given as
anything ``scipy.sparse.linalg.aslinearoperator`` accepts. Both
orthogonalize through one helper that projects a vector off orthonormal
blocks, twice.

The kernels keep no state. Products and solves are counted per solve by
``rails.solver.LyapunovProblem``, the object the solver applies them
through.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import aslinearoperator

__all__ = ["orthonormalize", "LanczosResult", "lanczos_topk"]


def check_sparse(a):
    """Validate an existing sparse matrix (finite data) and return it as CSR."""
    a = sparse.csr_matrix(a)
    if a.data.size and not np.all(np.isfinite(a.data)):
        raise ValueError("matrix values must be finite")
    return a


def as_matrix(a):
    """Coerce to a finite 2-d float64 array. 1-d input becomes one column."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix values must be finite")
    return m


# relative norm below which orthonormalize drops a column as dependent
_DROP_TOL = 1e-8


def _project_out(x, *blocks):
    """Remove from ``x``, in place, its components in the spans of
    ``blocks``, whose columns together are orthonormal: classical
    Gram-Schmidt, applied twice (the second pass repairs the cancellation
    of the first). Returns ``x``."""
    for _ in range(2):
        for q in blocks:
            x -= q @ (q.T @ x)
    return x


def orthonormalize(w, against=None):
    """Orthonormalize the columns of ``w``, optionally against a fixed basis.

    Each column is projected off ``against`` and off the columns accepted
    before it, one block product each, and the pair of projections is
    repeated once (classical Gram-Schmidt applied twice). A column whose
    norm after projection falls below 1e-8 times its original norm is
    considered dependent and dropped rather than normalized. ``w`` is not
    modified.

    Parameters
    ----------
    w : ndarray (n, k)
        Candidate columns. A 1-d array is treated as one column.
    against : ndarray (n, p), optional
        Orthonormal basis the result must also be orthogonal to.

    Returns
    -------
    (q, kept) : q has orthonormal columns spanning the independent part of
    ``w`` (orthogonal to ``against``), kept is its column count.
    """
    w = as_matrix(w)
    n = w.shape[0]
    if against is not None:
        against = as_matrix(against)
        if against.shape[0] != n:
            raise ValueError(
                f"row mismatch: candidates have {n} rows, basis has {against.shape[0]}"
            )
    blocks = () if against is None else (against,)
    q = np.empty_like(w, order="F")
    kept = 0
    for j in range(w.shape[1]):
        v = q[:, kept]
        v[:] = w[:, j]
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        _project_out(v, *blocks, q[:, :kept])
        norm1 = np.linalg.norm(v)
        if norm1 < _DROP_TOL * norm0:
            continue
        v /= norm1
        kept += 1
    return q[:, :kept], kept


@dataclass
class LanczosResult:
    eigenvalues: np.ndarray  # (k,), sorted by |value| descending
    eigenvectors: np.ndarray  # (n, k)
    converged: bool
    steps: int


def lanczos_topk(op, k, max_steps=20, tol=1e-8, rng_seed=0):
    """Largest-magnitude eigenpairs of a symmetric operator by Lanczos.

    Full reorthogonalization against the whole basis keeps the Ritz
    residual bound |beta * s_last| trustworthy. On breakdown (invariant
    subspace found) the iteration restarts with a fresh random direction
    orthogonal to the basis, so small or degenerate operators still
    deliver ``k`` pairs. The start vector is drawn from a seeded
    generator, which makes every call reproducible.

    Parameters
    ----------
    op : scipy LinearOperator, dense or sparse matrix
        Square and symmetric; symmetry is the caller's obligation and is
        not checked.
    k : int
        Number of eigenpairs wanted (k <= n, the operator's dimension).
    max_steps : int
        Cap on the basis size (effective cap is min(max_steps, n)).
    tol : float
        Relative Ritz residual target: pairs count as converged once
        ||op v - lam v|| <= tol * max|lam|.
    rng_seed : int

    Returns
    -------
    LanczosResult. ``converged`` is False when the bound was not met
    within ``max_steps``; the best estimates are still returned.
    """
    op = aslinearoperator(op)
    n = op.shape[0]
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds operator dimension {n}")
    limit = min(int(max_steps), n)
    if limit < k:
        limit = k

    rng = np.random.default_rng(rng_seed)
    basis = np.empty((n, limit), order="F")
    alphas = np.empty(limit)
    betas = np.empty(limit)  # betas[i] couples basis[:, i] and basis[:, i + 1]
    j = 0  # vectors in the basis

    def fresh_direction():
        for _ in range(50):
            v = _project_out(rng.standard_normal(n), basis[:, :j])
            nv = np.linalg.norm(v)
            if nv > 1e-10 * np.sqrt(n):
                return v / nv
        raise RuntimeError("could not draw a direction outside the current basis")

    q = fresh_direction()
    beta_link = 0.0  # coupling between the previous vector and q, 0 at (re)starts
    while True:
        basis[:, j] = q
        j += 1
        u = op.matvec(q)
        alpha = float(q @ u)
        alphas[j - 1] = alpha
        r = u - alpha * q
        if beta_link != 0.0:
            r -= beta_link * basis[:, j - 2]
        _project_out(r, basis[:, :j])  # full reorthogonalization
        beta = float(np.linalg.norm(r))

        theta, s = eigh_tridiagonal(alphas[:j], betas[: j - 1])
        order = np.argsort(-np.abs(theta))[: min(k, j)]
        top = np.abs(theta[order[0]])
        bounds = np.abs(beta * s[-1, order])
        converged = order.size >= k and np.all(
            bounds <= tol * max(top, np.finfo(float).tiny)
        )
        if converged or j >= limit:
            break
        if beta <= 1e-14 * max(1.0, abs(alpha)):
            q = fresh_direction()
            beta_link = 0.0
        else:
            q = r / beta
            beta_link = beta
        betas[j - 1] = beta_link

    vecs = basis[:, :j] @ s[:, order]
    # normalize (harmless; guards against reorthogonalization drift)
    norms = np.linalg.norm(vecs, axis=0)
    vecs /= np.where(norms > 0, norms, 1.0)
    return LanczosResult(theta[order], vecs, bool(converged), j)
