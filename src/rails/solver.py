"""Residual-driven low-rank solver for large generalized Lyapunov equations.

Given actions of A and M and a tall noise factor B, the solver maintains an
orthonormal search space V and the projected small equation

    (V'AV) T (V'MV)' + (V'MV) T (V'AV)' + (V'B)(V'B)' = 0,

solved densely each sweep. The residual

    R = A C M' + M C A' + B B',  C = V T V',

has its range in span[V, AV, MV, B]. The solver keeps one orthonormal
basis W of that span and the coefficients of V, AV, MV and B in it, so
R = W S W' with a small symmetric S, and ||R||_2 and the dominant residual
eigenpairs come from a dense eigendecomposition of S: exact, with no
random start. The only error is what W leaves out of a column it
absorbs, at most 1e-10 of that column's norm (``_W_DROP_TOL``, which W
passes to the Gram-Schmidt kernel it shares with ``orthonormalize``,
``matrices._gram_schmidt``): each such cut, and each recompression of W
after a trim, moves ||R||_2 by at most about 2e-10
(2 ||AV||_F ||T||_2 ||MV||_F + ||B||_F^2).

W is the only n-length array a solve keeps, and no sweep copies it. It
lives in one column-major n x capacity buffer: new directions are written
into its spare columns, a recompression rotates it in place a block of
rows at a time, and when it is full it grows by a quarter by a realloc
(``_State``). The answer V = W cv is rotated into it the same way and
handed over. A solve's footprint is its inputs, W's buffer (8 n bytes a
column; at most about 1.25 times the largest basis D_max, and at least
16 columns) and a few n-length columns of the sweep at hand.

The space grows by the top residual eigenvectors, projected off V (or by
A^{-1} applied to that projection, for the inverse variant), until
``solve``'s stopping rule ends it. Trims keep the eigenmodes of the core
above the retention tolerance and above a rounding-level floor relative
to the largest mode; a converged solve then drops the modes the
tolerance does not need, priced by the residual (``_State.trim``).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import eigh, eigvalsh

from .dae import DaeSystem, partition, recover_full_covariance
from .dense_lyap import DIMENSION_CAP, ProjectedSystem, solve_projected
from .errors import SingularMatrixError
from .lowrank import LowRankSolution
from .matrices import (
    _check_count, _check_pencil, _gram_schmidt, _splu, as_matrix, check_sparse, orthonormalize,
)
# Only perfbench/tracing.py reads this name (it wraps it); it goes when the tracer drops it.
lanczos_topk = None

__all__ = [
    "LyapunovProblem",
    "SolverOptions",
    "SolveReport",
    "ResidualEstimate",
    "solve",
    "solve_dae",
    "residual_norm_and_vectors",
    "restart",
]

# W absorbs a column only if it adds more than this fraction of the column's
# norm: rounding level, so the coefficients stand for V, AV, MV and B to
# about 1e-10 relative.
_W_DROP_TOL = 1e-10

# W's buffer starts with room for max(_W_MIN_COLUMNS, 2 s) columns (s the
# columns of B) and grows by the factor _W_GROWTH when full (``_State``); a
# rotation of W in place (``_rotate``) goes _ROW_BLOCK rows at a time.
_W_MIN_COLUMNS = 16
_W_GROWTH = 1.25
_ROW_BLOCK = 4096


def _without_negligible_columns(b):
    """``b``, or a copy with each column zeroed whose squared norm underflows
    to 0 while max|b_j| sqrt(n) <= ``_W_DROP_TOL`` times the largest finite
    column norm: W would drop it, but ``_gram_schmidt`` could not judge it."""
    with np.errstate(over="ignore"):
        sq = np.einsum("ij,ij->j", b, b)
    zero = np.flatnonzero(sq == 0)
    peak = np.abs(b[:, zero]).max(axis=0, initial=0.0)
    top = np.sqrt(sq[sq < np.inf].max(initial=0.0))
    drop = zero[(peak > 0) & (peak * np.sqrt(b.shape[0]) <= _W_DROP_TOL * top)]
    if drop.size:
        b = b.copy()
        b[:, drop] = 0.0
    return b


class LyapunovProblem:
    """A C M' + M C A' + B B' = 0 described through operator actions.

    Parameters
    ----------
    a : sparse matrix or DaeSystem
        The stiffness action: the matrix, or the Schur complement of a
        partitioned DAE. A sparse matrix gains inverse products (for the
        inverse variant) through a lazily computed LU, a DaeSystem through
        its bordered solve.
    m : sparse matrix or None
        Mass action; None means identity (applications are free, not
        counted as MVPs, and return their operand).
    b : ndarray (n, s), s >= 1. Not written: a negligible column too small
        to square is zeroed in a copy (``_without_negligible_columns``).

    Attributes
    ----------
    identity_mass : bool
        True when M is the identity (``m`` is None).
    mvps, imvps : int
        Running counts of the products with the large operators done
        through this problem: sparse matrix-vector products (MVPs) and
        sparse solves (IMVPs), one per column of the operand. A DaeSystem
        charges its ``apply_cost`` per column. ``solve`` reports
        how much they grew during the call, so reusing a problem still
        gives per-solve counts.
    """

    def __init__(self, a, m, b):
        if isinstance(a, DaeSystem):
            self._a_cost, self._a_solve = a.apply_cost, a.solve
        else:
            a = check_sparse(a)
            self._a_cost, self._a_solve = (1, 0), self._factor_a
        self._a = a
        self.identity_mass = m is None
        self._m_mat = None if m is None else check_sparse(m)
        b = as_matrix(b)
        self.dimension = _check_pencil(a, self._m_mat, b)
        if b.shape[1] < 1:
            raise ValueError("B must have at least one column")
        self.b = _without_negligible_columns(b)
        self.mvps = 0
        self.imvps = 0

    def _count(self, x, mvps, imvps):
        columns = 1 if np.ndim(x) == 1 else np.shape(x)[1]
        self.mvps += mvps * columns
        self.imvps += imvps * columns

    def _factor_a(self, x):
        """First inverse product with a sparse A: factorize, then use the LU."""
        self._a_solve = _splu(self._a, SingularMatrixError,
                              "A is singular, inverse products unavailable").solve
        return self._a_solve(x)

    def apply_a(self, x):
        y = self._a @ x
        self._count(x, *self._a_cost)
        return y

    def apply_m(self, x):
        """M x. With an identity mass this is ``x`` itself, not a copy:
        callers must not write into the result."""
        if self._m_mat is None:
            return np.asarray(x, dtype=np.float64)
        y = self._m_mat @ x
        self._count(x, 1, 0)
        return y

    def apply_a_inverse(self, x):
        """A^{-1} x, available for sparse A and DAE systems."""
        y = self._a_solve(np.asarray(x, dtype=np.float64))
        self._count(x, 0, 1)
        return y


@dataclass
class SolverOptions:
    """Tuning knobs, and the one place their defaults are stated (``rails
    solve`` passes on only the options it is given): always expand by 3,
    a loose 1e-2 relative residual target, lossless restarts every 50
    sweeps. An ``initial_space`` of None becomes "given" when
    ``initial_v`` is set (a warm start, as from the previous point of a
    continuation), else "inverse_applied_to_b" (A^{-1} B) for the inverse
    variant and "random" otherwise. ``initial_v`` with any other space is
    an error."""

    expand_m: int = 3
    max_iters: int = 1000
    tol: float = 1e-2
    restart_period: int = 50
    restart_tol: float = 0.0
    restart_tol_growth: float = 1.0
    variant: str = "standard"  # or "inverse"
    initial_space: str | None = None  # random | given | columns_of_b | inverse_applied_to_b
    initial_v: np.ndarray | None = None
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("expand_m", "max_iters", "restart_period"):
            _check_count(name, getattr(self, name), 1)
        _check_count("rng_seed", self.rng_seed, 0)
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        _check_restart_tol(self.restart_tol)
        if not 1 <= self.restart_tol_growth < np.inf:
            raise ValueError("restart_tol_growth must be >= 1 and finite")
        if self.variant not in ("standard", "inverse"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.initial_space is None:
            if self.initial_v is not None:
                self.initial_space = "given"
            elif self.variant == "inverse":
                self.initial_space = "inverse_applied_to_b"
            else:
                self.initial_space = "random"
        if self.initial_space not in (
            "random",
            "given",
            "columns_of_b",
            "inverse_applied_to_b",
        ):
            raise ValueError(f"unknown initial space {self.initial_space!r}")
        if self.initial_space == "given" and self.initial_v is None:
            raise ValueError("initial_space='given' requires initial_v")
        if self.initial_space != "given" and self.initial_v is not None:
            raise ValueError(
                f"initial_v conflicts with initial_space={self.initial_space!r}; "
                f"leave initial_space unset or 'given' for a warm start"
            )


def _check_restart_tol(restart_tol):
    """The retention tolerance rule of ``SolverOptions`` and ``restart``."""
    if not 0 <= restart_tol < np.inf:
        raise ValueError("restart_tol must be >= 0 and finite")


@dataclass
class SolveReport:
    iterations: int = 0
    mvp_count: int = 0
    imvp_count: int = 0
    residual_history: list = field(default_factory=list)  # [iteration, rho] pairs
    max_space_dim: int = 0
    final_rank: int = 0
    converged: bool = False
    termination_reason: str = ""

    def to_json_dict(self):
        """The on-disk report schema (field names are frozen)."""
        return {
            "iterations": self.iterations,
            "mvps": self.mvp_count,
            "imvps": self.imvp_count,
            "max_space_dim": self.max_space_dim,
            "final_rank": self.final_rank,
            "converged": self.converged,
            "termination_reason": self.termination_reason,
            "residual_history": [[int(i), float(r)] for i, r in self.residual_history],
        }


@dataclass
class ResidualEstimate:
    """What ``residual_norm_and_vectors`` returns, k = min(m, D) pairs."""
    norm2: float
    eigenvalues: np.ndarray  # (k,), sorted by |value| descending
    eigenvectors: np.ndarray  # (n, k), orthonormal


def residual_norm_and_vectors(problem, sol, m):
    """||R||_2 and the top-|lambda| residual eigenpairs of ``sol``.

    Forms A V and M V once (2 d applications) and computes the residual
    exactly in an orthonormal basis W of span[V, AV, MV, B], the routine
    the solve loop uses (see the module docstring for its accuracy). ``m``
    is a non-negative integer. Returns the top min(m, D) eigenpairs, D the
    dimension of that span: R is zero off it.
    """
    _check_count("m", m, 0)
    if sol.dimension != problem.dimension:
        raise ValueError("solution and problem dimensions differ")
    state = _State(problem)
    state.extend(state.absorb(sol.v))
    norm2, lam, y = state.residual(sol.t, m)
    return ResidualEstimate(norm2, lam, state.w @ y)


def _eigen_trim(t, tol):
    """Eigenpairs (lam, u) of the symmetric core ``t`` with
    lam > max(tol, eps * d * max|lam|), largest first. The relative floor
    drops rounding-level modes, whose sign rounding alone decides."""
    lam, u = eigh(t)
    floor = np.finfo(float).eps * lam.size * np.abs(lam).max(initial=0.0)
    keep = lam > max(tol, floor)
    return lam[keep][::-1], u[:, keep][:, ::-1]


def restart(sol, restart_tol):
    """Trim a low-rank solution to the eigenmodes above ``restart_tol``.

    The core is eigendecomposed, modes with eigenvalue above
    max(restart_tol, eps * d * max|lambda|) are kept and the basis is
    rotated onto them, so the result has a diagonal positive core.
    Discarding changes C by at most the sum of dropped eigenvalue
    magnitudes; with restart_tol = 0 only nonpositive and rounding-level
    modes go. An empty result (everything discarded) is returned with a
    warning. ``restart_tol`` must be >= 0 and finite, as in ``SolverOptions``.
    """
    _check_restart_tol(restart_tol)
    if sol.rank == 0:
        return sol
    lam, u = _eigen_trim(sol.t, restart_tol)
    if not lam.size:
        warnings.warn(
            f"restart with tolerance {restart_tol:.3e} discarded every mode; "
            f"the solution is now empty",
            RuntimeWarning,
            stacklevel=2,
        )
    return LowRankSolution(sol.v @ u, np.diag(lam))


def _rotate(w, u):
    """Overwrite the first u.shape[1] columns of ``w`` with w @ u, in place,
    ``_ROW_BLOCK`` rows at a time: no second n-length array is made."""
    for i in range(0, w.shape[0], _ROW_BLOCK):
        rows = w[i : i + _ROW_BLOCK]
        rows[:, : u.shape[1]] = rows @ u


def _pad_rows(c, rows):
    """``c`` with zero rows appended up to ``rows``: its coefficients in a
    basis grown by new columns (each plane of a stack of them)."""
    out = np.zeros(c.shape[:-2] + (rows, c.shape[-1]))
    out[..., : c.shape[-2], :] = c
    return out


class _State:
    """The search space as coefficients in one orthonormal basis.

    W (n x D) spans [V, AV, MV, B]: V = W cv, AV = W ca, MV = W cm and
    B = W cb, each up to what W leaves out of a column it absorbs
    (``_W_DROP_TOL`` of its norm). cv, ca and cm are the planes of one
    (planes x D x d) array ``_c``; with M = I it has two, and cm is cv's.
    The projections are V'AV = cv'ca, V'MV = cv'cm and V'B = cv'cb, and
    the residual is R = W S W' with S = ca T cm' + cm T ca' + cb cb'.

    W is the only n-length array kept: ``w`` is the view of the first D
    columns of one column-major n x capacity buffer. New directions are
    written into its spare columns. When they run out, the buffer grows
    by ``_W_GROWTH`` from max(``_W_MIN_COLUMNS``, 2 s) columns through
    ``ndarray.resize`` (``_fit``), a realloc: a buffer with a mapping of
    its own (a large one) is moved page by page rather than copied. A solve
    widens W's buffer to 16, 20, 25, 31, ... columns and never copies it
    per sweep. ``resize`` refuses while anything else references the
    buffer (a live view, or a trace or profile hook such as cProfile's),
    so no array can point into freed memory; the buffer is then copied
    into a new, wider one, and the old one lives as long as those
    references. A truncation rotates the coefficients only; the next
    extension recompresses W onto the span still in use, in place. The
    same truncation, at tolerance 0, is the trim before ``hand_over``; a
    converged solve follows it with ``trim``, which drops the trailing
    columns of the coefficients a residual budget allows.
    """

    def __init__(self, problem):
        self.problem = problem
        s = problem.b.shape[1]
        self._w_buffer = buf = np.empty(
            (problem.dimension, max(_W_MIN_COLUMNS, 2 * s)), order="F"
        )
        self._cols, self.cb = _gram_schmidt(buf[:, :0], buf, problem.b, _W_DROP_TOL)
        planes = 2 if problem.identity_mass else 3
        self._c = np.zeros((planes, self._cols, 0))
        self._m = 2 if planes == 3 else 0  # MV's plane: V's own when M = I
        self._stale = False

    @property
    def w(self):
        return self._w_buffer[:, : self._cols]

    @property
    def cv(self):
        return self._c[0]

    @property
    def ca(self):
        return self._c[1]

    @property
    def cm(self):
        return self._c[self._m]

    @property
    def dim(self):
        return self._c.shape[2]

    def absorb(self, x):
        """Grow W by what the n-length columns ``x`` add to its span and
        return their coefficients in the grown W. The buffer is widened
        first if its spare columns cannot take all of ``x``."""
        capacity = self._w_buffer.shape[1]
        if self._cols + x.shape[1] > capacity:
            self._fit(max(self._cols + x.shape[1], int(_W_GROWTH * capacity)), self._cols)
        kept, c = _gram_schmidt(self.w, self._w_buffer[:, self._cols :], x, _W_DROP_TOL)
        if kept:
            self._cols += kept
            self.cb = _pad_rows(self.cb, c.shape[0])
            self._c = _pad_rows(self._c, c.shape[0])
        return c

    def _recompress(self, y):
        """Shrink W onto the span of the coefficient blocks and of the
        pending expansion ``y``; returns y in the new basis. W is rotated
        in place, ``_ROW_BLOCK`` rows at a time."""
        x = np.concatenate([self.cb, *self._c, y], axis=1)
        u = np.empty((self._cols, x.shape[1]), order="F")
        kept, c = _gram_schmidt(u[:, :0], u, x, _W_DROP_TOL)
        _rotate(self.w, u[:, :kept])
        self._cols = kept
        cuts = self.cb.shape[1] + self.dim * np.arange(len(self._c) + 1)
        self.cb, *own, y = np.split(c, cuts, axis=1)
        self._c = np.array(own)
        self._stale = False
        return y

    def extend(self, y):
        """Append the basis columns W y (``y`` orthonormal and orthogonal
        to cv) and absorb their images under A and M."""
        if self._stale:
            y = self._recompress(y)
        k = y.shape[1]
        if k == 0:
            return
        p = self.problem
        q = self.w @ y
        images = p.apply_a(q)
        if not p.identity_mass:
            images = np.concatenate([images, p.apply_m(q)], axis=1)
        c = self.absorb(images)
        images = [c[:, i : i + k] for i in range(0, c.shape[1], k)]  # AV's, then MV's
        block = np.array([_pad_rows(y, len(c)), *images])
        self._c = np.concatenate([self._c, block], axis=2)

    def _fit(self, columns, used):
        """Make W's buffer ``columns`` wide, keeping its first ``used``
        columns: by ``resize``, or by a copy when it refuses. The buffer is
        no argument: that would be one more reference, and resize refuses."""
        try:
            self._w_buffer.resize((self._w_buffer.shape[0], columns))
        except ValueError:
            buf = np.empty((self._w_buffer.shape[0], columns), order="F")
            buf[:, :used] = self._w_buffer[:, :used]
            self._w_buffer = buf

    def hand_over(self):
        """V = W cv, rotated into W's first columns; the state gives up its
        buffer, shrunk to them (``_fit``)."""
        _rotate(self.w, self.cv)
        self._fit(self.dim, self.dim)
        buf, self._w_buffer = self._w_buffer, None
        return buf

    def truncate(self, t, restart_tol):
        """Keep the eigenmodes of ``t`` above restart_tol by rotating the
        coefficients. Returns the core diag(kept eigenvalues) matching the
        new basis."""
        lam, u = _eigen_trim(t, restart_tol)
        self._stale = self._stale or lam.size < self.dim
        self._c = self._c @ u
        return np.diag(lam)

    def trim(self, t, budget):
        """Drop the trailing modes of the diagonal, descending core ``t``
        (as ``truncate`` leaves it) while the 2-norms of the residual
        changes they make sum below ``budget``; returns the kept core.
        Dropping mode j changes R by -lam_j W (a_j m_j' + m_j a_j') W',
        a_j and m_j column j of ca and cm, a rank-2 term whose eigenvalues
        are a_j'm_j +- ||a_j|| ||m_j||: its 2-norm is exact, and the sum
        bounds the change of ||R||_2."""
        a, m = self.ca, self.cm
        cost = np.diag(t) * (
            np.abs(np.einsum("ij,ij->j", a, m))
            + np.linalg.norm(a, axis=0) * np.linalg.norm(m, axis=0)
        )
        d = self.dim - np.count_nonzero(np.cumsum(cost[::-1]) < budget)
        self._c = self._c[:, :, :d]
        return t[:d, :d]

    def projected(self):
        cvt = self.cv.T
        return ProjectedSystem(cvt @ self.ca, cvt @ self.cm, cvt @ self.cb)

    def residual(self, t, m):
        """(||R||_2, lam, y): the residual norm of the iterate with core
        ``t`` and its top-m eigenpairs by |lambda|, eigenvectors as
        coefficients in W (R = W S W' with S = ca T cm' + cm T ca' + cb cb')."""
        s = self.cb @ self.cb.T
        g = self.ca @ t @ self.cm.T
        s += g + g.T
        if m:
            lam, y = eigh(s)
        else:  # the norm alone: eigenvalues only
            lam, y = eigvalsh(s), s[:, :0]
        order = np.argsort(-np.abs(lam), kind="stable")[:m]
        return float(np.abs(lam).max(initial=0.0)), lam[order], y[:, order]

    def expansion(self, y, inverse):
        """New orthonormal V coefficients from residual eigenvectors ``y``:
        their part off V, or A^{-1} of it for the inverse variant."""
        y, kept = orthonormalize(y, against=self.cv)
        if inverse and kept:
            z = self.problem.apply_a_inverse(self.w @ y)
            y, kept = orthonormalize(self.absorb(z), against=self.cv)
        return y, kept


def _initial_space(problem, opts):
    n = problem.dimension
    kind = opts.initial_space
    if kind == "random":
        rng = np.random.default_rng(opts.rng_seed)
        return rng.standard_normal((n, min(opts.expand_m, n)))
    if kind == "given":
        w = as_matrix(opts.initial_v)
        if w.shape[0] != n:
            raise ValueError(
                f"initial space has {w.shape[0]} rows, problem has {n}"
            )
        return w
    if kind == "columns_of_b":
        return problem.b
    return problem.apply_a_inverse(problem.b)  # inverse_applied_to_b


def solve(problem, opts=None, callback=None):
    """Run the iteration. Each sweep extends the space, solves the
    projected equation and takes rho = ||R||_2 / ||B||_2^2. It stops with

    - "converged" at the second sweep with rho < ``opts.tol``; the two need
      not be consecutive, as the convergence trim at the retention
      tolerance follows the first and can push rho back up;
    - "max_iters" after sweep ``opts.max_iters`` otherwise;
    - "stagnated" when a sweep above the tolerance adds no direction and
      ``opts.restart_tol_growth`` is 1 (above 1, the retention tolerance
      grows by that factor and the core is trimmed at it instead);
    - "space_cap" when the space, initial or grown, would pass
      ``DIMENSION_CAP`` (the current iterate is returned, of rank 0 if the
      initial space alone passes).

    A restart every ``opts.restart_period`` sweeps trims at the retention
    tolerance too, so the space cannot grow without bound on hard problems.

    Parameters
    ----------
    problem : LyapunovProblem
    opts : SolverOptions
    callback : callable, optional
        Invoked as callback(iteration, rho, space_dim) after each sweep,
        on the solver's thread.

    Returns
    -------
    (LowRankSolution, SolveReport). The returned core is diagonal, with
    positive entries in descending order: a solve ends with the loop's own
    trim at tolerance 0. A converged solve (termination "converged") then
    drops its smallest modes while rho plus the 2-norms of the residual
    changes they make stays below ``opts.tol``, and replaces the last
    ``residual_history`` entry by the exact rho of the iterate it returns
    (one eigenvalue-only pass over S); any other termination returns every
    mode of the tolerance-0 trim and the last sweep's rho. Each rho =
    ||R||_2 / ||B||_2^2 is exact up to the basis drop tolerance (module
    docstring). ``report.converged`` is the last sweep's rho < tol, so it
    is True when the budget ends on a first pass too. A nonzero B whose
    ||B||_2^2 is outside the normal double range, or a nonzero column of
    the space whose squared norm overflows or underflows to 0, raises
    LinAlgError: rho could not be trusted.
    """
    if opts is None:
        opts = SolverOptions()
    mvps0, imvps0 = problem.mvps, problem.imvps
    report = SolveReport()
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore"):
        bb = np.linalg.norm(problem.b, 2) ** 2
    if not tiny <= bb < np.inf and problem.b.any():
        raise np.linalg.LinAlgError(f"||B||_2^2 = {bb:.1e} leaves the double range; rescale B")
    bb_floor = max(bb, tiny)  # tiny for B = 0
    state = _State(problem)
    y, kept = orthonormalize(state.absorb(_initial_space(problem, opts)))
    if kept == 0 and opts.initial_space != "given":
        raise ValueError(
            f"initial space {opts.initial_space!r} produced no independent columns"
        )

    passes = 0  # sweeps whose rho met the tolerance
    restart_tol = opts.restart_tol
    t = np.zeros((0, 0))

    for it in range(1, opts.max_iters + 1):
        if state.dim + y.shape[1] > DIMENSION_CAP:
            termination = "space_cap"
            break
        state.extend(y)
        report.max_space_dim = max(report.max_space_dim, state.dim)

        t = solve_projected(state.projected())
        norm2, _, y = state.residual(t, opts.expand_m)
        rho = norm2 / bb_floor
        report.residual_history.append((it, rho))
        if callback is not None:
            callback(it, rho, state.dim)

        passed = rho < opts.tol
        passes += passed
        if passes == 2 or it == opts.max_iters:
            termination = "converged" if passes == 2 else "max_iters"
            break
        if passed or it % opts.restart_period == 0:
            t = state.truncate(t, restart_tol)
        y, kept = state.expansion(y, opts.variant == "inverse")
        if kept == 0 and not passed:
            if opts.restart_tol_growth == 1.0:
                termination = "stagnated"
                break
            # from the core's own scale, so that the next trim removes something
            floor = np.finfo(float).eps * max(np.abs(t).max(initial=0.0), tiny)
            restart_tol = opts.restart_tol_growth * max(restart_tol, floor)
            t = state.truncate(t, restart_tol)

    history = report.residual_history
    report.iterations = len(history)
    report.converged = bool(history and history[-1][1] < opts.tol)
    # drop nonpositive and rounding-level modes: C moves at rounding level only
    t = state.truncate(t, 0.0)
    if termination == "converged":
        # return the rank the tolerance needs, and the exact rho of it
        t = state.trim(t, (opts.tol - rho) * bb_floor)
        rho = state.residual(t, 0)[0] / bb_floor
        history[-1] = (it, rho)
    sol = LowRankSolution(state.hand_over(), t)

    report.termination_reason = termination
    report.final_rank = sol.rank
    report.mvp_count = problem.mvps - mvps0
    report.imvp_count = problem.imvps - imvps0
    return sol, report


def solve_dae(a, m, b, opts=None, callback=None):
    """Partition a DAE pencil, solve the reduced problem, lift the result.

    An identity M22 (``DaeSystem.m22_is_identity``) is passed as None
    (free applications). With algebraic rows the report counts the
    recovery too: one A12 product and one A11 solve per column of the
    reduced basis. With none, S is A and the reduced solution is the
    answer.
    """
    sys = partition(a, m, b)
    mass = None if sys.m22_is_identity else sys.m22
    sol, report = solve(LyapunovProblem(sys, mass, sys.b2), opts, callback=callback)
    if sys.is_pass_through():
        return sol, report
    full = recover_full_covariance(sys, sol)
    report.mvp_count += sol.rank
    report.imvp_count += sol.rank
    return full, report
