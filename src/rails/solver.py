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
absorbs, at most 1e-10 of that column's norm (``_W_DROP_TOL``): each
such cut, and each recompression of W after a trim, moves ||R||_2 by at
most about 2e-10 (2 ||AV||_F ||T||_2 ||MV||_F + ||B||_F^2).

W is the only n-length array a solve keeps, and no sweep copies it. It
lives in one column-major n x capacity buffer: new directions are written
into its spare columns, a recompression rotates it in place a block of
rows at a time, and when it is full it grows geometrically by a realloc
(``_State``). A solve's footprint is its inputs, W's buffer (8 n bytes a
column; at most about twice the largest basis D_max, and at least 16
columns) and a few n-length columns of the sweep at hand.

The space grows by the top residual eigenvectors, projected off V (or by
A^{-1} applied to that projection, for the inverse variant), until the
relative spectral norm ||R||_2 / ||B||_2^2 drops below the tolerance
twice, with a rank-trimming restart in between; periodic restarts every
``restart_period`` sweeps keep the space from growing without bound on
hard problems. Trims keep the eigenmodes of the core above the retention
tolerance and above a rounding-level floor relative to the largest mode.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .dae import DaeSystem, partition, recover_full_covariance
from .dense_lyap import DIMENSION_CAP, ProjectedSystem, solve_projected
from .errors import SingularMatrixError
from .lowrank import LowRankSolution
from .matrices import as_matrix, check_sparse, orthonormalize
# perfbench/tracing.py wraps the name rails.solver.lanczos_topk, which
# nothing here calls any more; it stays bound until that tracer changes.
from .matrices import lanczos_topk  # noqa: F401

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
# recompression rotates it in place _ROW_BLOCK rows at a time.
_W_MIN_COLUMNS = 16
_W_GROWTH = 2
_ROW_BLOCK = 4096


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
    b : ndarray (n, s), s >= 1.

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
            self._a_op = a
            self._a_mat = None
            n = a.n_differential
        else:
            self._a_mat = check_sparse(a)
            self._a_op = None
            n = self._a_mat.shape[0]
            if self._a_mat.shape != (n, n):
                raise ValueError("A must be square")
        self.identity_mass = m is None
        if m is None:
            self._m_mat = None
        else:
            self._m_mat = check_sparse(m)
            if self._m_mat.shape != (n, n):
                raise ValueError("M must match A in size")
        self.b = as_matrix(b)
        if self.b.shape[0] != n:
            raise ValueError(f"B has {self.b.shape[0]} rows, expected {n}")
        if self.b.shape[1] < 1:
            raise ValueError("B must have at least one column")
        self.dimension = n
        self._a_lu = None
        self.mvps = 0
        self.imvps = 0

    def _count(self, x, mvps, imvps):
        columns = 1 if np.ndim(x) == 1 else np.shape(x)[1]
        self.mvps += mvps * columns
        self.imvps += imvps * columns

    def apply_a(self, x):
        if self._a_op is not None:
            y = self._a_op.apply(x)
            self._count(x, *self._a_op.apply_cost)
            return y
        y = self._a_mat @ x
        self._count(x, 1, 0)
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
        if self._a_op is not None:
            y = self._a_op.solve(x)
        else:
            if self._a_lu is None:
                try:
                    self._a_lu = spla.splu(self._a_mat.tocsc())
                except RuntimeError as exc:
                    raise SingularMatrixError(
                        f"A is singular, inverse products unavailable: {exc}"
                    ) from exc
            y = self._a_lu.solve(np.asarray(x, dtype=np.float64))
        self._count(x, 0, 1)
        return y


@dataclass
class SolverOptions:
    """Tuning knobs, and the one place their defaults are stated (``rails
    solve`` passes on only the options it is given): always expand by 3,
    a loose 1e-2 relative residual target, lossless restarts every 50
    sweeps. An ``initial_space`` of None becomes "inverse_applied_to_b"
    (A^{-1} B) for the inverse variant and "random" otherwise."""

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
        if self.expand_m < 1:
            raise ValueError("expand_m must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.restart_period < 1:
            raise ValueError("restart_period must be >= 1")
        if not 0 <= self.restart_tol < np.inf:
            raise ValueError("restart_tol must be >= 0 and finite")
        if not 1 <= self.restart_tol_growth < np.inf:
            raise ValueError("restart_tol_growth must be >= 1 and finite")
        if self.variant not in ("standard", "inverse"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.initial_space is None:
            inverse = self.variant == "inverse"
            self.initial_space = "inverse_applied_to_b" if inverse else "random"
        if self.initial_space not in (
            "random",
            "given",
            "columns_of_b",
            "inverse_applied_to_b",
        ):
            raise ValueError(f"unknown initial space {self.initial_space!r}")
        if self.initial_space == "given" and self.initial_v is None:
            raise ValueError("initial_space='given' requires initial_v")


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
    norm2: float
    eigenvalues: np.ndarray  # (m,), sorted by |value| descending
    eigenvectors: np.ndarray  # (n, m)


def residual_norm_and_vectors(problem, sol, m):
    """||R||_2 and the top-|lambda| residual eigenpairs of ``sol``.

    Forms A V and M V once (2 d applications) and computes the residual
    exactly in an orthonormal basis of span[V, AV, MV, B], the routine the
    solve loop uses (see the module docstring for its accuracy). Returns
    min(m, n) pairs; past the rank of R they have eigenvalue 0 and
    coordinate-derived eigenvectors.
    """
    if sol.dimension != problem.dimension:
        raise ValueError("solution and problem dimensions differ")
    state = _State(problem)
    state.extend(state.absorb(sol.v))
    n, j = problem.dimension, 0
    while state.w.shape[1] < min(m, n):
        state.absorb(np.eye(n, 1, -j))  # e_j: past span W, R maps it to zero
        j += 1
    norm2, lam, y = state.residual(sol.t, m)
    return ResidualEstimate(norm2, lam, state.w @ y)


def _eigen_trim(t, tol):
    """Eigenpairs (lam, u) of the symmetric core ``t`` with
    lam > max(tol, eps * d * max|lam|), largest first. The relative floor
    drops rounding-level modes, whose sign rounding alone decides."""
    lam, u = np.linalg.eigh(t)
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
    modes go. An empty result (everything discarded) is returned with a warning.
    """
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


def _absorb(buf, p, x):
    """Orthonormalize the columns of ``x`` against ``buf[:, :p]``
    (orthonormal columns), writing the new directions into the spare
    columns ``buf[:, p:]``, of which there must be at least as many as
    ``x`` has columns.

    Returns (kept, c): buf[:, :p + kept] has orthonormal columns and
    x = buf[:, :p + kept] c, up to what each column leaves out, at most
    ``_W_DROP_TOL`` of its norm. Each column is projected off the first p
    columns and the directions accepted before it twice, and a third time
    when the second pass still removed more than half of the remainder
    (Daniel, Gragg, Kaufman & Stewart 1976). With a single pass, a
    projected pencil of the acceptance oracle sweep came out unstable.
    """
    k = x.shape[1]
    c = np.zeros((p + k, k))
    w = buf[:, :p]
    kept = 0
    for j in range(k):
        v = buf[:, p + kept]
        v[:] = x[:, j]
        bases = ((0, w), (p, buf[:, p : p + kept])) if kept else ((0, w),)
        norm0 = norm = np.sqrt(v @ v)
        for npass in range(3):
            for row, basis in bases:
                h = basis.T @ v
                v -= basis @ h
                c[row : row + h.size, j] += h
            before, norm = norm, np.sqrt(v @ v)
            if npass and norm >= 0.5 * before:
                break
        if norm <= _W_DROP_TOL * norm0:
            continue
        v /= norm
        c[p + kept, j] = norm
        kept += 1
    return kept, c[: p + kept]


def _pad_rows(c, rows):
    """``c`` with zero rows appended up to ``rows``: its coefficients in a
    basis grown by new columns."""
    out = np.zeros((rows, c.shape[1]))
    out[: c.shape[0]] = c
    return out


class _State:
    """The search space as coefficients in one orthonormal basis.

    W (n x D) spans [V, AV, MV, B]: V = W cv, AV = W ca, MV = W cm (cm is
    cv with an identity mass) and B = W cb, each up to what W leaves out
    of a column it absorbs (``_W_DROP_TOL`` of its norm). The projections
    are V'AV = cv'ca, V'MV = cv'cm and V'B = cv'cb, and the residual is
    R = W S W' with the D x D matrix S = ca T cm' + cm T ca' + cb cb'.

    W is the only n-length array kept: ``w`` is the view of the first D
    columns of one column-major n x capacity buffer. New directions are
    written into its spare columns. When they run out, the buffer grows
    by ``_W_GROWTH`` from max(``_W_MIN_COLUMNS``, 2 s) columns through
    ``ndarray.resize``, a realloc: a buffer with a mapping of its own (a
    large one) is moved page by page rather than copied. A solve
    reallocates W about log2(D_max) times and never copies it per sweep.
    ``resize`` refuses while anything else references the buffer (a live
    view, or a trace or profile hook such as cProfile's), so no array can
    point into freed memory; the buffer is then copied into a new, wider
    one, and the old one lives as long as those references. A truncation
    rotates the coefficients only; the next extension recompresses W onto
    the span still in use, in place.
    """

    def __init__(self, problem):
        self.problem = problem
        s = problem.b.shape[1]
        self._w_buffer = np.empty(
            (problem.dimension, max(_W_MIN_COLUMNS, 2 * s)), order="F"
        )
        self._cols, self.cb = _absorb(self._w_buffer, 0, problem.b)
        self.cv = self.ca = self.cm = np.zeros((self._cols, 0))
        self._stale = False

    @property
    def w(self):
        return self._w_buffer[:, : self._cols]

    @property
    def dim(self):
        return self.cv.shape[1]

    @property
    def v(self):
        return self.w @ self.cv

    def _set_blocks(self, blocks):
        self.cb, self.cv, self.ca = blocks[:3]
        self.cm = self.cv if self.problem.identity_mass else blocks[3]

    def _blocks(self):
        own = [self.cb, self.cv, self.ca]
        return own if self.problem.identity_mass else own + [self.cm]

    def absorb(self, x):
        """Grow W by what the n-length columns ``x`` add to its span and
        return their coefficients in the grown W. The buffer is widened
        first if its spare columns cannot take all of ``x``."""
        n, capacity = self._w_buffer.shape
        if self._cols + x.shape[1] > capacity:
            wider = max(self._cols + x.shape[1], _W_GROWTH * capacity)
            try:
                self._w_buffer.resize((n, wider))
            except ValueError:
                # resize refuses while anything else references the
                # buffer, as a trace or profile hook does
                buf = np.empty((n, wider), order="F")
                buf[:, : self._cols] = self.w
                self._w_buffer = buf
        kept, c = _absorb(self._w_buffer, self._cols, x)
        if kept:
            self._cols += kept
            self._set_blocks([_pad_rows(blk, c.shape[0]) for blk in self._blocks()])
        return c

    def _recompress(self, y):
        """Shrink W onto the span of the coefficient blocks and of the
        pending expansion ``y``; returns y in the new basis. W is rotated
        in place, ``_ROW_BLOCK`` rows at a time."""
        blocks = self._blocks() + [y]
        x = np.concatenate(blocks, axis=1)
        u = np.empty((self._cols, x.shape[1]), order="F")
        kept, c = _absorb(u, 0, x)
        u = u[:, :kept]
        w = self.w
        for i in range(0, w.shape[0], _ROW_BLOCK):
            rows = w[i : i + _ROW_BLOCK]
            rows[:, :kept] = rows @ u
        self._cols = kept
        cuts = np.cumsum([blk.shape[1] for blk in blocks])[:-1]
        *own, y = np.split(c, cuts, axis=1)
        self._set_blocks(own)
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
        y = _pad_rows(y, c.shape[0])
        self.cv = np.concatenate([self.cv, y], axis=1)
        self.ca = np.concatenate([self.ca, c[:, :k]], axis=1)
        if p.identity_mass:
            self.cm = self.cv
        else:
            self.cm = np.concatenate([self.cm, c[:, k:]], axis=1)

    def truncate(self, t, restart_tol):
        """Keep the eigenmodes of ``t`` above restart_tol by rotating the
        coefficients. Returns the core diag(kept eigenvalues) matching the
        new basis."""
        lam, u = _eigen_trim(t, restart_tol)
        self._stale = self._stale or lam.size < self.dim
        self.cv = self.cv @ u
        self.ca = self.ca @ u
        self.cm = self.cv if self.problem.identity_mass else self.cm @ u
        return np.diag(lam)

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
        lam, y = np.linalg.eigh(s)
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
    """Run the iteration until the relative residual passes ``opts.tol``
    twice (with a rank-trimming restart between the two passes), the sweep
    budget runs out, the space stagnates, or the space, initial or grown,
    would pass ``DIMENSION_CAP`` (termination "space_cap"; the current
    iterate is returned, of rank 0 if the initial space alone passes).

    Parameters
    ----------
    problem : LyapunovProblem
    opts : SolverOptions
    callback : callable, optional
        Invoked as callback(iteration, rho, space_dim) after each sweep,
        on the solver's thread.

    Returns
    -------
    (LowRankSolution, SolveReport). The returned core is positive
    definite on its range: nonpositive and rounding-level modes are
    trimmed on exit. Each sweep's rho = ||R||_2 / ||B||_2^2 is exact up
    to the basis drop tolerance (module docstring). ``converged`` is True
    when the final rho met the tolerance, even if the budget ended the
    run before the confirming second pass.
    """
    if opts is None:
        opts = SolverOptions()
    mvps0, imvps0 = problem.mvps, problem.imvps
    report = SolveReport()
    state = _State(problem)
    y, kept = orthonormalize(state.absorb(_initial_space(problem, opts)))
    if kept == 0 and opts.initial_space != "given":
        raise ValueError(
            f"initial space {opts.initial_space!r} produced no independent columns"
        )

    bb_floor = max(np.linalg.norm(problem.b, 2) ** 2, np.finfo(float).tiny)
    restart_tol = opts.restart_tol
    converged_once = False
    t = np.zeros((0, 0))
    rho = np.inf
    termination = "max_iters"
    conv_now = False

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
        report.iterations = it
        if callback is not None:
            callback(it, rho, state.dim)

        conv_now = rho < opts.tol
        if conv_now and converged_once:
            termination = "converged"
            break
        if it == opts.max_iters:
            termination = "max_iters"
            break

        if conv_now or it % opts.restart_period == 0:
            t = state.truncate(t, restart_tol)
            if conv_now:
                converged_once = True

        y, kept = state.expansion(y, opts.variant == "inverse")
        if kept == 0 and not conv_now:
            if opts.restart_tol_growth > 1.0:
                # grow the retention tolerance from the core's own scale so
                # the next trim actually removes something
                scale = float(np.abs(t).max()) if t.size else 0.0
                floor = np.finfo(float).eps * max(scale, np.finfo(float).tiny)
                restart_tol = opts.restart_tol_growth * max(restart_tol, floor)
                t = state.truncate(t, restart_tol)
                continue
            termination = "stagnated"
            break

    # trim nonpositive and rounding-level modes so the returned core is PD
    # on its range; this perturbs C at rounding level only
    cv = state.cv
    lam, u = _eigen_trim(t, 0.0)
    if lam.size < t.shape[0]:
        cv, t = cv @ u, np.diag(lam)
    sol = LowRankSolution(state.w @ cv, t)

    report.converged = bool(conv_now)
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
