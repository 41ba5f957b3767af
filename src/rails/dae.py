"""Reduction of linear constant-coefficient DAE pencils to their dynamic part.

A pencil (A, M) whose mass matrix has zero rows mixes differential and
algebraic variables. ``partition`` classifies the rows, blocks the system
as

    A = [A11 A12]   M = [0  0 ]   B = [0 ]
        [A21 A22]       [0 M22]       [B2]

(in a permuted ordering; the original ordering is retained for recovery)
and factorizes A11 once. The covariance problem then lives on the
differential block, and the returned ``DaeSystem`` is its operator: it
applies the Schur complement S = A22 - A21 A11^{-1} A12 implicitly through
``schur_apply`` and S^{-1} through a bordered solve with the whole A.
``recover_full_covariance`` maps a low-rank solution of the reduced
problem back to the full space.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (
    ForcingOnConstraintError,
    ReductionImpossibleError,
    SingularMatrixError,
)
from .lowrank import LowRankSolution
from .matrices import as_matrix, check_sparse

__all__ = ["DaeSystem", "partition", "schur_apply", "recover_full_covariance"]


class DaeSystem:
    """Partitioned DAE data with reusable factorizations, and the reduced
    operator S the solver iterates on.

    Attributes of interest: ``algebraic_rows`` / ``differential_rows``
    (index arrays into the original ordering), the four A blocks, ``m22``
    and ``m22_is_identity``, ``b2``, and ``a11_lu`` (sparse LU of A11).
    ``apply`` and ``solve`` act with S and S^{-1} on vectors of length
    ``n_differential``. A pencil without algebraic rows is the same
    reduction with an empty (0 x 0) A11, so S is A.
    """

    def __init__(self, a, m, b, algebraic_rows, differential_rows):
        self.a_full = a
        self.algebraic_rows = algebraic_rows
        self.differential_rows = differential_rows
        alg, diff = algebraic_rows, differential_rows
        self.a11 = a[alg][:, alg].tocsr()
        self.a12 = a[alg][:, diff].tocsr()
        self.a21 = a[diff][:, alg].tocsr()
        self.a22 = a[diff][:, diff].tocsr()
        self.m22 = m[diff][:, diff].tocsr()
        self.b2 = as_matrix(b[diff, :])
        try:
            self.a11_lu = spla.splu(self.a11.tocsc())
        except RuntimeError as exc:
            raise ReductionImpossibleError(
                f"constraint block A11 ({alg.size} x {alg.size}) could not be "
                f"factorized: {exc}"
            ) from exc
        self.m22_is_identity = bool(
            np.all(self.m22.diagonal() == 1.0)
            and self.m22.count_nonzero() == diff.size
        )
        if not self.m22_is_identity:
            try:
                spla.splu(self.m22.tocsc())
            except RuntimeError as exc:
                raise SingularMatrixError(
                    f"differential mass block M22 is singular: {exc}"
                ) from exc
        self._a_full_lu = None

    @property
    def n_algebraic(self):
        return self.algebraic_rows.size

    @property
    def n_differential(self):
        return self.differential_rows.size

    @property
    def dimension(self):
        return self.n_algebraic + self.n_differential

    def is_pass_through(self):
        return self.n_algebraic == 0

    def solve_a11(self, x):
        """A11^{-1} x for a vector or the columns of a matrix."""
        return self.a11_lu.solve(np.asarray(x, dtype=np.float64))

    @property
    def apply_cost(self):
        """(sparse products, sparse solves) per column of one ``apply``,
        as spent by ``schur_apply``. One ``solve`` costs one sparse solve
        per column."""
        return (1, 0) if self.is_pass_through() else (3, 1)

    def apply(self, x):
        """S x through ``schur_apply``."""
        return schur_apply(self, x)

    def solve(self, x):
        """S^{-1} x for a vector or the columns of a matrix, through a
        bordered solve with the full A (zero right-hand side on the
        algebraic rows); its LU is computed on first use."""
        if self._a_full_lu is None:
            try:
                self._a_full_lu = spla.splu(self.a_full.tocsc())
            except RuntimeError as exc:
                raise SingularMatrixError(
                    f"full operator A is singular, inverse products unavailable: {exc}"
                ) from exc
        x = np.asarray(x, dtype=np.float64)
        rhs = np.zeros((self.dimension,) + x.shape[1:])
        rhs[self.differential_rows] = x
        return self._a_full_lu.solve(rhs)[self.differential_rows]


def partition(a, m, b):
    """Split (A, M, B) into algebraic and differential parts.

    Rows of M with no nonzero entry are algebraic. B must vanish on those
    rows: white noise cannot force a constraint. With no algebraic rows A11
    is empty and S is A. A singular M22 raises ``SingularMatrixError``
    (the simulation oracle solves with it); an identity M22 is recognized
    and not factored.
    """
    a = check_sparse(a)
    m = check_sparse(m)
    b = as_matrix(b)
    n = a.shape[0]
    if a.shape != (n, n) or m.shape != (n, n):
        raise ValueError("A and M must be square matrices of the same size")
    if b.shape[0] != n:
        raise ValueError(f"B has {b.shape[0]} rows, expected {n}")
    row_max = np.zeros(n)
    mco = m.tocoo()
    np.maximum.at(row_max, mco.row, np.abs(mco.data))
    algebraic = np.flatnonzero(row_max == 0.0)
    differential = np.flatnonzero(row_max > 0.0)
    bad = np.abs(b[algebraic, :]).max(initial=0.0)
    if bad > 0.0:
        rows = algebraic[np.abs(b[algebraic, :]).max(axis=1) > 0.0]
        raise ForcingOnConstraintError(
            f"B has entries of magnitude up to {bad:.3e} on algebraic "
            f"rows {rows[:5].tolist()}; noise cannot act on constraints"
        )
    return DaeSystem(a, m, b, algebraic, differential)


def schur_apply(sys, x):
    """Apply S = A22 - A21 A11^{-1} A12 to the columns of x.

    One multiply each with A22, A12 and A21, plus one sparse solve with
    A11, per column (``DaeSystem.apply_cost``). With no algebraic rows the
    A11 terms are empty, S x is A x, and ``apply_cost`` counts one product.
    """
    return sys.a22 @ x - sys.a21 @ sys.solve_a11(sys.a12 @ x)


def recover_full_covariance(sys, sol):
    """Lift a reduced low-rank solution back to the full variable set.

    The algebraic block of every basis vector is -A11^{-1} A12 v, after
    which the stacked factor W is re-orthonormalized by a QR so the result
    keeps the orthonormal-basis form: with W = Q R, the core becomes
    R T R'. Pass-through systems are returned unchanged.
    """
    if sys.is_pass_through():
        return sol
    v = sol.v
    if v.shape[0] != sys.n_differential:
        raise ValueError(
            f"solution lives on {v.shape[0]} rows, expected the "
            f"{sys.n_differential} differential rows"
        )
    top = -sys.solve_a11(sys.a12 @ v)
    w = np.zeros((sys.dimension, sol.rank))
    w[sys.algebraic_rows, :] = top
    w[sys.differential_rows, :] = v
    q, r = np.linalg.qr(w)
    t = r @ sol.t @ r.T
    return LowRankSolution(q, 0.5 * (t + t.T))
