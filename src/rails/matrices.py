"""Shared matrix kernels: validated constructors, checked sparse products,
deflating Gram-Schmidt, and a Lanczos eigensolver for implicit symmetric
operators.

The kernels keep no state. Products and solves are counted per solve by
``rails.solver.LyapunovProblem``, the object the solver applies them
through.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "sparse_from_triplets",
    "check_sparse",
    "as_matrix",
    "sparse_apply",
    "orthonormalize",
    "SymmetricOperator",
    "matrix_operator",
    "LanczosOptions",
    "LanczosResult",
    "lanczos_topk",
]


def sparse_from_triplets(rows, cols, values, shape):
    """Build a validated CSR matrix from triplet data.

    Duplicate (row, col) pairs are summed, indices are checked against
    ``shape`` and values must be finite.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (rows.shape == cols.shape == values.shape):
        raise ValueError("triplet arrays must have matching lengths")
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError("column index out of range")
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("matrix values must be finite")
    a = sparse.coo_matrix((values, (rows, cols)), shape=(n_rows, n_cols))
    a.sum_duplicates()
    return a.tocsr()


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


def sparse_apply(a, x, transpose=False):
    """Product A @ X (or A.T @ X) with a dimension check.

    Parameters
    ----------
    a : scipy.sparse matrix
    x : ndarray, shape (n,) or (n, k)
    transpose : bool
        Apply A.T instead of A.

    Returns
    -------
    ndarray, a vector for a vector ``x`` and a matrix with as many
    columns as ``x`` otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    op = a.T if transpose else a
    if op.shape[1] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator is {op.shape}, operand has {x.shape[0]} rows"
        )
    return np.asarray(op @ x)


def orthonormalize(w, against=None, drop_tol=1e-8):
    """Orthonormalize the columns of ``w``, optionally against a fixed basis.

    Two Gram-Schmidt sweeps per column (the second pass repairs the usual
    cancellation of a single pass). A column whose norm after projection
    falls below ``drop_tol`` times its original norm is considered
    dependent and dropped rather than normalized.

    Parameters
    ----------
    w : ndarray (n, k)
        Candidate columns. A 1-d array is treated as one column.
    against : ndarray (n, p), optional
        Orthonormal basis the result must also be orthogonal to.
    drop_tol : float
        Relative deflation threshold.

    Returns
    -------
    (q, kept) : q has orthonormal columns spanning the independent part of
    ``w`` (orthogonal to ``against``), kept is its column count.
    """
    w = as_matrix(w).copy()
    n = w.shape[0]
    if against is not None:
        against = as_matrix(against)
        if against.shape[0] != n:
            raise ValueError(
                f"row mismatch: candidates have {n} rows, basis has {against.shape[0]}"
            )
    accepted = []
    for j in range(w.shape[1]):
        v = w[:, j].copy()
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        for _ in range(2):
            if against is not None and against.shape[1]:
                v -= against @ (against.T @ v)
            for q in accepted:
                v -= q * (q @ v)
        norm1 = np.linalg.norm(v)
        if norm1 < drop_tol * norm0:
            continue
        accepted.append(v / norm1)
    if accepted:
        q = np.column_stack(accepted)
    else:
        q = np.zeros((n, 0))
    return q, q.shape[1]


class SymmetricOperator:
    """A symmetric linear map given by its action.

    Parameters
    ----------
    dim : int
        Dimension of the space the operator acts on.
    matvec : callable
        Maps a vector of length ``dim`` to another. Symmetry (x.(Ay) ==
        y.(Ax)) is the caller's obligation; it is asserted statistically
        in the test suite, never at runtime.
    """

    def __init__(self, dim, matvec):
        self.dim = int(dim)
        self._matvec = matvec

    def apply(self, x):
        x = np.asarray(x)
        if x.shape[0] != self.dim:
            raise ValueError(
                f"operator acts on vectors of length {self.dim}, got {x.shape[0]}"
            )
        return self._matvec(x)


def matrix_operator(a):
    """Wrap an explicit (sparse or dense) symmetric matrix as an operator."""
    if sparse.issparse(a):
        return SymmetricOperator(a.shape[0], lambda x: a @ x)
    a = as_matrix(a)
    return SymmetricOperator(a.shape[0], lambda x: a @ x)


@dataclass
class LanczosOptions:
    max_steps: int = 20
    tol: float = 1e-8
    rng_seed: int = 0


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
    op : SymmetricOperator
    k : int
        Number of eigenpairs wanted (k <= op.dim).
    max_steps : int
        Cap on the basis size (effective cap is min(max_steps, op.dim)).
    tol : float
        Relative Ritz residual target: pairs count as converged once
        ||op v - lam v|| <= tol * max|lam|.
    rng_seed : int

    Returns
    -------
    LanczosResult. ``converged`` is False when the bound was not met
    within ``max_steps``; the best estimates are still returned.
    """
    n = op.dim
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds operator dimension {n}")
    limit = min(int(max_steps), n)
    if limit < k:
        limit = k

    rng = np.random.default_rng(rng_seed)
    basis = []
    alphas = []
    betas = []  # beta[i] couples basis[i] and basis[i+1]

    def fresh_direction():
        for _ in range(50):
            v = rng.standard_normal(n)
            for q in basis:
                v -= q * (q @ v)
            for q in basis:
                v -= q * (q @ v)
            nv = np.linalg.norm(v)
            if nv > 1e-10 * np.sqrt(n):
                return v / nv
        raise RuntimeError("could not draw a direction outside the current basis")

    q = fresh_direction()
    beta_link = 0.0  # coupling between the previous vector and q, 0 at (re)starts
    theta = np.zeros(0)
    s = np.zeros((0, 0))
    bounds = np.zeros(0)

    while len(basis) < limit:
        basis.append(q)
        u = np.asarray(op.apply(q), dtype=np.float64)
        alpha = float(q @ u)
        alphas.append(alpha)
        r = u - alpha * q
        if len(basis) > 1 and beta_link != 0.0:
            r -= beta_link * basis[-2]
        # full reorthogonalization, twice
        for _ in range(2):
            for b in basis:
                r -= b * (b @ r)
        beta = float(np.linalg.norm(r))

        j = len(basis)
        a_arr = np.asarray(alphas)
        b_arr = np.asarray(betas) if betas else np.zeros(0)
        if j == 1:
            theta = np.array([a_arr[0]])
            s = np.eye(1)
        else:
            theta, s = eigh_tridiagonal(a_arr, b_arr)
        order = np.argsort(-np.abs(theta))[: min(k, j)]
        top = np.abs(theta[order[0]]) if order.size else 0.0
        bounds = np.abs(beta * s[-1, order])
        if order.size >= k and np.all(bounds <= tol * max(top, np.finfo(float).tiny)):
            break
        if len(basis) >= limit:
            break
        if beta <= 1e-14 * max(1.0, abs(alpha)):
            if len(basis) >= n:
                break
            q = fresh_direction()
            betas.append(0.0)
            beta_link = 0.0
        else:
            q = r / beta
            betas.append(beta)
            beta_link = beta

    qmat = np.column_stack(basis)
    order = np.argsort(-np.abs(theta))[: min(k, len(basis))]
    vals = theta[order]
    vecs = qmat @ s[:, order]
    # normalize (harmless; guards against reorthogonalization drift)
    for i in range(vecs.shape[1]):
        nv = np.linalg.norm(vecs[:, i])
        if nv > 0:
            vecs[:, i] /= nv
    top = np.abs(vals[0]) if vals.size else 0.0
    conv = vals.size >= k and np.all(
        np.abs(bounds[: vals.size]) <= tol * max(top, np.finfo(float).tiny)
    )
    return LanczosResult(vals, vecs, bool(conv), len(basis))
