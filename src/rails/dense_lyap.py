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
are bound once from ``scipy.linalg.lapack`` and called directly, and the
inputs are validated once, on entry: ``ProjectedSystem`` and
``solve_standard_dense`` reject non-finite or misshapen matrices (through
``as_matrix``), a non-symmetric Q, a singular or terribly conditioned M
and a non-Hurwitz F. ``dgees`` sizes its workspace by its own query, as
``scipy.linalg.schur`` does, so the Schur factor is the one that wrapper
returns. An exactly singular M is reported by ``SingularMatrixError``
alone: nothing here issues a warning or touches the warning filters.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgees, dgetrf, dgetrs, dtrsyl

from .errors import SingularMatrixError, StabilityError
from .matrices import as_matrix

__all__ = ["ProjectedSystem", "solve_standard_dense", "solve_projected"]

DIMENSION_CAP = 2000
_CONDITION_CAP = 1e12
# np.allclose's default relative tolerance, used by the symmetry check on Q
_SYMMETRY_RTOL = 1e-5


def _no_select(wr, wi):
    """dgees's eigenvalue selection; unused, as it sorts nothing."""


def _check_info(routine, info):
    if info < 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} rejected argument {-info}")


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
        d = self.a.shape[0]
        if self.a.shape != (d, d) or self.m.shape != (d, d):
            raise ValueError("A and M must be square and of equal size")
        if self.b.shape[0] != d:
            raise ValueError(
                f"B has {self.b.shape[0]} rows, expected {d}"
            )


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
    # np.allclose(q, q.T, atol=1e-8 max(1, max|q|)) on the finite q
    aq = np.abs(q)
    atol = 1e-8 * max(1.0, aq.max())
    if not (np.abs(q - q.T) <= atol + _SYMMETRY_RTOL * aq.T).all():
        raise ValueError("Q must be symmetric")
    lwork = dgees(_no_select, f, lwork=-1)[-2][0]
    r, _, _, _, u, _, info = dgees(_no_select, f, lwork=int(lwork))
    _check_info("dgees", info)
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
    y, scale, info = dtrsyl(r, r, -qh, tranb="T")
    _check_info("dtrsyl", info)
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
    lu, piv, info = dgetrf(sys.m)
    _check_info("dgetrf", info)
    # An exactly singular M (info > 0) has a zero pivot, so rcond = 0.
    rcond, info = dgecon(lu, np.abs(sys.m).sum(axis=0).max())
    _check_info("dgecon", info)
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    if not np.isfinite(cond) or cond > _CONDITION_CAP:
        raise SingularMatrixError(
            f"projected mass matrix is numerically singular (cond ~ {cond:.3e})"
        )
    f, info = dgetrs(lu, piv, sys.a)
    _check_info("dgetrs", info)
    g, info = dgetrs(lu, piv, sys.b)
    _check_info("dgetrs", info)
    return solve_standard_dense(f, g @ g.T)
