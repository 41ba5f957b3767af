"""Shared matrix kernels, one routine per job: input validation (finite
real values only, ``_check_pencil``, the shape rule of every (A, M, B)
entry point, and ``_check_count``, the rule of every count argument),
Gram-Schmidt with deflation (``_gram_schmidt``, public as
``orthonormalize``; the solver's basis W calls it with a drop tolerance of
its own), a guarded sparse LU (``_splu``), LAPACK calls (``_lapack``)
and the symmetry rule (``_check_symmetric``).

The kernels keep no state. Products and solves are counted per solve by
``rails.solver.LyapunovProblem``, the object the solver applies them
through.
"""

import numbers

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

__all__ = ["orthonormalize"]


def check_sparse(a):
    """Validate an existing sparse matrix (finite real data); return it as CSR."""
    a = sparse.csr_matrix(a)
    if np.iscomplexobj(a):
        raise ValueError("matrix values must be real")
    if a.data.size and not np.all(np.isfinite(a.data)):
        raise ValueError("matrix values must be finite")
    return a


def as_matrix(a):
    """Coerce to a finite, real 2-d float64 array; float64 input is not
    copied. 1-d input becomes one column."""
    if np.iscomplexobj(a):
        raise ValueError("matrix values must be real")
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix values must be finite")
    return m


def _check_pencil(a, m, b):
    """The shape rule of a pencil (A, M, B), returning n: A is n x n, M is
    n x n unless None (the identity), B has n rows; else ValueError."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("A must be square")
    if m is not None and m.shape != (n, n):
        raise ValueError("M must match A in size")
    if b.shape[0] != n:
        raise ValueError(f"B has {b.shape[0]} rows, expected {n}")
    return n


def _check_count(name, value, low):
    """The rule of a count argument: an integer (``numbers.Integral``, so
    NumPy integers too) of at least ``low``; else ValueError naming it."""
    if not isinstance(value, numbers.Integral) or value < low:
        kind = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_symmetric(t, name):
    """Raise ValueError unless the finite square ``t`` passes
    np.allclose(t, t.T, atol=1e-8 max(1, max|t|)), written out: allclose's
    care for non-finite values costs as much as the test at core sizes."""
    at = np.abs(t)
    atol = 1e-8 * max(1.0, at.max(initial=0.0))
    if not (np.abs(t - t.T) <= atol + 1e-5 * at.T).all():
        raise ValueError(f"{name} must be symmetric")


def _splu(a, error, what):
    """Sparse LU of ``a``; a failure (a singular matrix) raises ``error``
    with the message ``what``, followed by SuperLU's reason."""
    try:
        return splu(a.tocsc())
    except RuntimeError as exc:
        raise error(f"{what}: {exc}") from exc


def _lapack(routine, *args, query=False, **kwargs):
    """Call the LAPACK wrapper ``routine``, with ``query`` sized by its own
    workspace query (lwork=-1); return its outputs, ``info`` last, for the
    caller to judge the data. A rejected argument raises ``LinAlgError``."""
    if query:
        kwargs["lwork"] = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, info = routine(*args, **kwargs)
    if info < 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} rejected argument {-info}")
    return (*out, info)


# relative norm below which orthonormalize drops a column as dependent
_DROP_TOL = 1e-8


@np.errstate(over="ignore")  # an overflowing norm raises below, unwarned
def _gram_schmidt(against, out, x, drop_tol):
    """Orthonormalize the columns of ``x`` against the orthonormal columns
    of ``against`` (n x p, not modified), writing the new directions into
    ``out``, which has at least as many columns as ``x``. Returns (kept, c):
    Q = [against, out[:, :kept]] is orthonormal and x = Q c, but for what a
    column dropped as dependent leaves out, at most ``drop_tol`` of its norm.
    A nonzero column whose squared norm overflows, or underflows to 0,
    cannot be judged so: it raises LinAlgError.
    Each column is projected off ``against`` and the directions accepted
    before it twice, and a third time when the second pass still removed
    more than half of the remainder (Daniel, Gragg, Kaufman & Stewart
    1976); with one pass, a projected pencil of an oracle sweep came out
    unstable."""
    p, k = against.shape[1], x.shape[1]
    c = np.zeros((p + k, k))
    kept = 0
    for j in range(k):
        v, cj = out[:, kept], c[:, j]
        v[:] = x[:, j]
        bases = [(cj[:p], against)]
        if kept:
            bases.append((cj[p : p + kept], out[:, :kept]))
        norm0 = norm = np.sqrt(v @ v)
        if not 0.0 < norm0 < np.inf and (norm0 or v.any()):
            raise np.linalg.LinAlgError(
                f"a squared column norm of {norm0 * norm0:.1e} leaves the double range; "
                f"rescale the problem"
            )
        for npass in range(3):
            for coef, basis in bases:
                h = basis.T @ v
                v -= basis @ h
                coef += h
            before, norm = norm, np.sqrt(v @ v)
            if npass and norm >= 0.5 * before:
                break
        if norm <= drop_tol * norm0:
            continue
        v /= norm
        cj[p + kept] = norm
        kept += 1
    return kept, c[: p + kept]


def orthonormalize(w, against=None):
    """Orthonormalize the columns of ``w``, optionally against a fixed basis:
    ``_gram_schmidt``, dropping as dependent a column whose norm after
    projection is at most 1e-8 of its original norm. ``w`` is not modified.

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
    against = np.empty((n, 0)) if against is None else as_matrix(against)
    if against.shape[0] != n:
        raise ValueError(f"row mismatch: candidates have {n} rows, basis has {against.shape[0]}")
    q = np.empty_like(w, order="F")
    kept, _ = _gram_schmidt(against, q, w, _DROP_TOL)
    return q[:, :kept], kept
