"""Dense solver for the small projected Lyapunov equation of each sweep.

``solve_projected`` solves A T M' + M T A' + B B' = 0 by the M-reduced
Bartels-Stewart method (Bartels & Stewart, CACM Alg. 432): a dense LU of M
(``dgetrf``, then ``dgetrs`` for F = M^{-1} A and G = M^{-1} B), whose
condition ``dgecon`` estimates from the same factors, reduces it to
F T + T F' + G G' = 0; LAPACK ``dgees`` reduces F to real Schur form and
``dtrsyl`` solves the quasi-triangular equation on the Schur factor.

It runs once per outer iteration of the iterative solver, at the size of
the search space (tens of rows), where the checks and conversions of the
``scipy.linalg`` wrappers cost as much as the arithmetic. So the routines
are bound once from ``scipy.linalg.lapack`` and called directly (through
``matrices._lapack``: a rejected argument raises ``LinAlgError``), and the
input is validated once, by ``ProjectedSystem``, which rejects non-finite
or misshapen matrices (through ``as_matrix`` and ``_check_pencil``);
``solve_projected`` rejects a singular or terribly conditioned M and a
non-Hurwitz F. ``dgees`` sizes its workspace by its own query, as
``scipy.linalg.schur`` does, so the Schur factor is the one that wrapper
returns. An exactly singular M is reported by ``SingularMatrixError``
alone: nothing here issues a warning or touches the warning filters.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgees, dgetrf, dgetrs, dtrsyl

from .errors import SingularMatrixError, StabilityError
from .matrices import _check_pencil, _lapack, as_matrix

__all__ = ["ProjectedSystem", "solve_projected"]

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


def solve_projected(sys):
    """Solve A T M' + M T A' + B B' = 0 for the ``ProjectedSystem`` ``sys``
    (module docstring); return the symmetric T. A system larger than
    ``DIMENSION_CAP`` raises ValueError, a singular or terribly conditioned
    M (1-norm condition estimate) SingularMatrixError, and an unstable
    pencil StabilityError, naming an eigenvalue of F = M^{-1} A with
    nonnegative real part.
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
    qh = u.T @ (g @ g.T) @ u
    qh = 0.5 * (qh + qh.T)
    y, scale, _ = _lapack(dtrsyl, r, r, -qh, tranb="T")
    y = (0.5 / scale) * (y + y.T)
    t = u @ y @ u.T
    return 0.5 * (t + t.T)
