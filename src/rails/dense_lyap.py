"""Dense solvers for small (projected) Lyapunov equations.

``solve_standard_dense`` handles F T + T F' + Q = 0 by reducing F to real
Schur form with LAPACK ``dgees`` and solving the quasi-triangular equation
on the Schur factor with ``dtrsyl`` (Bartels & Stewart, CACM Alg. 432).
``solve_projected`` reduces the generalized equation
A T M' + M T A' + B B' = 0 to the standard one through a dense LU of M
(``dgetrf``, then ``dgetrs`` for M^{-1} A and M^{-1} B), whose condition
``dgecon`` estimates from the same factors.

These run once per outer iteration of the iterative solver, at the size of
the search space (tens of rows), where the checks and conversions of the
``scipy.linalg`` wrappers cost as much as the arithmetic. So the routines
are bound once from ``scipy.linalg.lapack`` and called directly (through
``matrices._lapack``: a rejected argument raises ``LinAlgError``), and the
inputs are validated once, on entry: ``ProjectedSystem`` and
``solve_standard_dense`` reject non-finite or misshapen matrices (through
``as_matrix`` and, for the pencil, ``_check_pencil``), a non-symmetric Q,
a singular or terribly conditioned M and a non-Hurwitz F. ``dgees`` sizes
its workspace by its own query, as ``scipy.linalg.schur`` does, so the
Schur factor is the one that wrapper returns. An exactly singular M is
reported by ``SingularMatrixError`` alone: nothing here issues a warning
or touches the warning filters.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgees, dgetrf, dgetrs, dtrsyl

from .errors import SingularMatrixError, StabilityError
from .matrices import _check_pencil, _check_symmetric, _lapack, as_matrix

__all__ = ["ProjectedSystem", "solve_standard_dense", "solve_projected"]

DIMENSION_CAP = 2000
_CONDITION_CAP = 1e12


def _no_select(wr, wi):
    """dgees's eigenvalue selection; unused, as it sorts nothing."""


@dataclass
class ProjectedSystem:
    """Dense generalized Lyapunov data (A_t, M_t square, B_t conforming)."""

    a: np.ndarray
    m: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = as_matrix(self.a)
        self.m = as_matrix(self.m)
        self.b = as_matrix(self.b)
        _check_pencil(self.a, self.m, self.b)


def solve_standard_dense(f, q):
    """Solve F T + T F' + Q = 0 for symmetric Q and Hurwitz F.

    Parameters
    ----------
    f : ndarray (d, d)
    q : ndarray (d, d), symmetric (positive semidefiniteness is the
        caller's obligation and is not checked).

    Returns
    -------
    Symmetric T. Raises StabilityError when F has an eigenvalue with
    nonnegative real part, naming the offending value.
    """
    f = as_matrix(f)
    q = as_matrix(q)
    d = f.shape[0]
    if f.shape != (d, d) or q.shape != (d, d):
        raise ValueError("F and Q must be square matrices of equal size")
    if d == 0:
        return np.zeros((0, 0))
    _check_symmetric(q, "Q")
    r, _, _, _, u, _, info = _lapack(dgees, _no_select, f, query=True)
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    # LAPACK standardizes every 2x2 Schur block so that both diagonal
    # entries equal the real part of its eigenvalue pair, so the diagonal
    # carries the real parts of the whole spectrum.
    if np.diag(r).max() >= 0.0:
        eigs = np.linalg.eigvals(r)
        worst = eigs[np.argmax(eigs.real)]
        raise StabilityError(
            f"coefficient matrix is not Hurwitz: eigenvalue {worst:.6e} "
            f"has real part {worst.real:.6e} >= 0"
        )
    qh = u.T @ q @ u
    qh = 0.5 * (qh + qh.T)
    y, scale, _ = _lapack(dtrsyl, r, r, -qh, tranb="T")
    y = (0.5 / scale) * (y + y.T)
    t = u @ y @ u.T
    return 0.5 * (t + t.T)


def solve_projected(sys):
    """Solve A T M' + M T A' + B B' = 0 for the ``ProjectedSystem`` ``sys``.

    The generalized equation is reduced with F = M^{-1} A and
    G = M^{-1} B (LU with partial pivoting), solved in standard form and
    symmetrized. The pencil must be stable; a singular or terribly
    conditioned M (1-norm condition estimate) is rejected before solving,
    and so is a system larger than ``DIMENSION_CAP``.
    """
    d = sys.a.shape[0]
    if d > DIMENSION_CAP:
        raise ValueError(
            f"projected system size {d} exceeds the cap {DIMENSION_CAP}; "
            f"the search space has grown past what dense solves support"
        )
    if d == 0:
        return np.zeros((0, 0))
    lu, piv, _ = _lapack(dgetrf, sys.m)
    # An exactly singular M (info > 0) has a zero pivot, so rcond = 0.
    rcond, _ = _lapack(dgecon, lu, np.abs(sys.m).sum(axis=0).max())
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    if not np.isfinite(cond) or cond > _CONDITION_CAP:
        raise SingularMatrixError(
            f"projected mass matrix is numerically singular (cond ~ {cond:.3e})"
        )
    f, _ = _lapack(dgetrs, lu, piv, sys.a)
    g, _ = _lapack(dgetrs, lu, piv, sys.b)
    return solve_standard_dense(f, g @ g.T)
