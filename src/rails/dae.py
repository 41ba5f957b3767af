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
problem back to the full space through the lift that ``schur_apply`` uses.
"""

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr

from .errors import (
    ForcingOnConstraintError,
    ReductionImpossibleError,
    SingularMatrixError,
)
from .lowrank import LowRankSolution
from .matrices import _check_pencil, _lapack, _splu, as_matrix, check_sparse

__all__ = ["DaeSystem", "partition", "schur_apply", "recover_full_covariance"]


class DaeSystem:
    """Partitioned DAE data with reusable factorizations, and the reduced
    operator S the solver iterates on.

    Attributes of interest: ``algebraic_rows`` / ``differential_rows``
    (index arrays into the original ordering), ``a_full`` (A, held once),
    the blocks ``a11`` and ``a12`` of its algebraic rows, ``m22`` and
    ``m22_is_identity``, ``b2``, and ``a11_lu`` (sparse LU of A11). A21 and
    A22 are not kept: ``schur_apply`` reaches them through A itself.
    ``apply`` (or ``@``) and ``solve`` act with S and S^{-1} on vectors of
    length ``n_differential``; ``shape`` is S's. A pencil without algebraic
    rows is the same reduction with an empty (0 x 0) A11, so S is A.
    """

    def __init__(self, a, m, b, algebraic_rows, differential_rows):
        self.a_full = a
        self.algebraic_rows = algebraic_rows
        self.differential_rows = differential_rows
        self.n_algebraic, self.n_differential = algebraic_rows.size, differential_rows.size
        self.dimension = self.n_algebraic + self.n_differential
        self.shape = (self.n_differential, self.n_differential)
        # a row set that is one contiguous run (as gen_dae makes them) is
        # indexed by a slice, which copies blocks of rows instead of gathering
        self._alg, self._diff = alg, diff = [
            slice(r[0], r[-1] + 1) if r.size and r[-1] - r[0] == r.size - 1 else r
            for r in (algebraic_rows, differential_rows)
        ]
        rows = a[alg]
        self.a11, self.a12 = rows[:, alg].tocsr(), rows[:, diff].tocsr()
        self.m22 = m[diff][:, diff].tocsr()
        self.b2 = as_matrix(b[diff, :])
        self.a11_lu = _splu(self.a11, ReductionImpossibleError, "constraint block A11 "
                            f"({self.n_algebraic} x {self.n_algebraic}) could not be factorized")
        self.m22_is_identity = bool(
            np.all(self.m22.diagonal() == 1.0)
            and self.m22.count_nonzero() == self.n_differential
        )
        if not self.m22_is_identity:
            _splu(self.m22, SingularMatrixError, "differential mass block M22 is singular")
        self._a_full_lu = None

    def is_pass_through(self):
        return self.n_algebraic == 0

    def lift(self, x, order="C"):
        """[-A11^{-1} A12 x; x] in the original ordering, for a vector or the
        columns of a matrix: the point of the constraint manifold over x.
        A maps it to zero on the algebraic rows and to S x on the others.
        A12 multiplies the columns of a matrix that is not C-ordered one at
        a time: the product with the whole matrix would copy it to C order
        first. Both ways give the same bits."""
        x = np.asarray(x, dtype=np.float64)
        full = np.empty((self.dimension,) + x.shape[1:], order=order)
        if x.ndim == 2 and not x.flags.c_contiguous:
            y = np.empty((self.n_algebraic, x.shape[1]), order="F")
            for j in range(x.shape[1]):
                y[:, j] = self.a12 @ x[:, j]
        else:
            y = self.a12 @ x
        full[self._alg] = -self.a11_lu.solve(y)
        full[self._diff] = x
        return full

    @property
    def apply_cost(self):
        """(sparse products, sparse solves) per column of one ``apply``,
        as spent by ``schur_apply``. One ``solve`` costs one sparse solve
        per column."""
        return (1, 0) if self.is_pass_through() else (3, 1)

    def apply(self, x):
        """S x through ``schur_apply``."""
        return schur_apply(self, x)

    __matmul__ = apply

    def solve(self, x):
        """S^{-1} x for a vector or the columns of a matrix, through a
        bordered solve with the full A (zero right-hand side on the
        algebraic rows); its LU is computed on first use."""
        if self._a_full_lu is None:
            self._a_full_lu = _splu(self.a_full, SingularMatrixError, "full operator "
                                    "A is singular, inverse products unavailable")
        x = np.asarray(x, dtype=np.float64)
        rhs = np.zeros((self.dimension,) + x.shape[1:])
        rhs[self._diff] = x
        return self._a_full_lu.solve(rhs)[self._diff]


def partition(a, m, b):
    """Split (A, M, B) into algebraic and differential parts.

    Rows of M with no nonzero entry are algebraic, and B must vanish on
    those rows (``_check_forcing``). With no algebraic rows A11 is empty
    and S is A. A singular M22 raises ``SingularMatrixError`` (the
    simulation oracle solves with it); an identity M22 is recognized and
    not factored.
    """
    a = check_sparse(a)
    m = check_sparse(m)
    b = as_matrix(b)
    n = _check_pencil(a, m, b)
    row_max = np.zeros(n)
    mco = m.tocoo()
    np.maximum.at(row_max, mco.row, np.abs(mco.data))
    algebraic = np.flatnonzero(row_max == 0.0)
    differential = np.flatnonzero(row_max > 0.0)
    _check_forcing(b, algebraic)
    return DaeSystem(a, m, b, algebraic, differential)


def _check_forcing(b, algebraic_rows):
    """Raise ForcingOnConstraintError unless B vanishes on the algebraic
    rows: white noise cannot force a constraint."""
    on_rows = np.abs(b[algebraic_rows, :])
    bad = on_rows.max(initial=0.0)
    if bad > 0.0:
        rows = algebraic_rows[on_rows.max(axis=1) > 0.0]
        raise ForcingOnConstraintError(
            f"B has entries of magnitude up to {bad:.3e} on algebraic "
            f"rows {rows[:5].tolist()}; noise cannot act on constraints"
        )


def schur_apply(sys, x):
    """Apply S = A22 - A21 A11^{-1} A12 to the columns of x.

    S x is the differential rows of A times the lift of x (``DaeSystem.lift``),
    so A21 and A22 act in one pass over A. ``DaeSystem.apply_cost`` counts
    three sparse products (A12, A21, A22) and one A11 solve per column.
    With no algebraic rows the lift is x, S x is A x: one product.
    """
    return (sys.a_full @ sys.lift(x))[sys._diff]


def recover_full_covariance(sys, sol):
    """Lift a reduced low-rank solution back to the full variable set.

    The algebraic block of every basis vector is -A11^{-1} A12 v. The
    stacked factor W is built by ``DaeSystem.lift`` in one column-major
    n x r array and re-orthonormalized in place by LAPACK's Householder QR
    (``dgeqrf``, then ``dorgqr``), so the result keeps the orthonormal-basis
    form: with W = Q R, the core becomes R T R'. No second n x r array is
    made.
    Pass-through systems are returned unchanged.
    """
    if sys.is_pass_through():
        return sol
    v = sol.v
    if v.shape[0] != sys.n_differential:
        raise ValueError(
            f"solution lives on {v.shape[0]} rows, expected the "
            f"{sys.n_differential} differential rows"
        )
    w = sys.lift(v, order="F")
    w, tau, _, _ = _lapack(dgeqrf, w, query=True, overwrite_a=True)
    r = np.triu(w[: sol.rank])
    q, _, _ = _lapack(dorgqr, w, tau, query=True, overwrite_a=True)
    return LowRankSolution(q, r @ sol.t @ r.T)

