"""Residual-driven low-rank solver for large generalized Lyapunov equations.

Given actions of A and M and a tall noise factor B, the solver maintains an
orthonormal search space V and the projected small equation

    (V'AV) T (V'MV)' + (V'MV) T (V'AV)' + (V'B)(V'B)' = 0,

solved densely each sweep. The residual

    R = A C M' + M C A' + B B',  C = V T V',

is never formed: its dominant eigenpairs come from Lanczos on the implicit
action R x = (AV) T (MV)'x + (MV) T (AV)'x + B (B'x), using cached products
AV and MV (with an identity mass, MV is V itself). The space grows by the
top residual eigenvectors (or their inverse images under A for the inverse
variant) until the relative spectral norm ||R||_2 / ||B||_2^2, estimated by
a converged Lanczos run, drops below the tolerance twice, with a
rank-trimming restart in between; periodic restarts every
``restart_period`` sweeps keep the space from growing without bound on hard
problems. Trims keep the eigenmodes of the core above the retention
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
from .matrices import as_matrix, check_sparse, lanczos_topk, orthonormalize

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

# Residual-norm estimation inside the solve loop. Tighter than the
# lanczos_topk defaults: the convergence certificate leans on it.
_RESIDUAL_LANCZOS_STEPS = 30
_RESIDUAL_LANCZOS_TOL = 1e-6


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
    """Tuning knobs. The defaults are the always-expand-by-3 configuration
    with a loose 1e-2 relative residual target and lossless restarts every
    50 sweeps."""

    expand_m: int = 3
    max_iters: int = 1000
    tol: float = 1e-2
    restart_period: int = 50
    restart_tol: float = 0.0
    restart_tol_growth: float = 1.0
    variant: str = "standard"  # or "inverse"
    initial_space: str = "random"  # random | given | columns_of_b | inverse_applied_to_b
    initial_v: np.ndarray | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.expand_m < 1:
            raise ValueError("expand_m must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.restart_period < 1:
            raise ValueError("restart_period must be >= 1")
        if self.restart_tol < 0:
            raise ValueError("restart_tol must be >= 0")
        if self.restart_tol_growth < 1:
            raise ValueError("restart_tol_growth must be >= 1")
        if self.variant not in ("standard", "inverse"):
            raise ValueError(f"unknown variant {self.variant!r}")
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
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    lanczos_converged: bool


def _lanczos_residual(av, mv, t, b, m, rng_seed):
    """Top-|lambda| eigenpairs of R = A C M' + M C A' + B B' by Lanczos on
    its implicit action, from the cached products AV and MV."""

    def matvec(x):
        y = b @ (b.T @ x)
        if t.shape[0]:
            y += av @ (t @ (mv.T @ x))
            y += mv @ (t @ (av.T @ x))
        return y

    n = b.shape[0]
    res = lanczos_topk(
        spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64),
        min(m, n),
        max_steps=_RESIDUAL_LANCZOS_STEPS,
        tol=_RESIDUAL_LANCZOS_TOL,
        rng_seed=rng_seed,
    )
    norm2 = float(np.abs(res.eigenvalues).max())
    return ResidualEstimate(norm2, res.eigenvalues, res.eigenvectors, res.converged)


def residual_norm_and_vectors(problem, sol, m):
    """Estimate ||R||_2 and the top-|lambda| residual eigenpairs.

    Forms A V and M V once (2 d applications), then runs Lanczos (seed 0)
    on the implicit residual action, which costs no further sparse
    products. Non-convergence of the Lanczos sweep is flagged on the
    estimate, not raised.
    """
    if sol.dimension != problem.dimension:
        raise ValueError("solution and problem dimensions differ")
    av = problem.apply_a(sol.v)
    mv = problem.apply_m(sol.v)
    return _lanczos_residual(av, mv, sol.t, problem.b, m, 0)


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


class _State:
    """Search space with cached A V / M V and incrementally grown
    projections. Keeping AV and MV current costs memory but makes both
    the projection updates and every residual Lanczos sweep free of
    sparse products."""

    def __init__(self, problem):
        n = problem.dimension
        s = problem.b.shape[1]
        self.problem = problem
        self.v = np.zeros((n, 0))
        self.av = np.zeros((n, 0))
        self.mv = np.zeros((n, 0))
        self.at = np.zeros((0, 0))
        self.mt = np.zeros((0, 0))
        self.bt = np.zeros((0, s))

    @property
    def dim(self):
        return self.v.shape[1]

    def extend(self, q):
        """Append orthonormal columns and grow the projections by their
        new blocks only."""
        if q.shape[1] == 0:
            return
        p = self.problem
        aq = p.apply_a(q)
        mq = p.apply_m(q)
        d0 = self.dim
        k = q.shape[1]
        at = np.empty((d0 + k, d0 + k))
        mt = np.empty((d0 + k, d0 + k))
        at[:d0, :d0] = self.at
        mt[:d0, :d0] = self.mt
        at[:d0, d0:] = self.v.T @ aq
        mt[:d0, d0:] = self.v.T @ mq
        v_new = np.concatenate([self.v, q], axis=1)
        av_new = np.concatenate([self.av, aq], axis=1)
        if p.identity_mass:
            mv_new = v_new
        else:
            mv_new = np.concatenate([self.mv, mq], axis=1)
        at[d0:, :] = q.T @ av_new
        mt[d0:, :] = q.T @ mv_new
        self.v, self.av, self.mv = v_new, av_new, mv_new
        self.at, self.mt = at, mt
        self.bt = np.concatenate([self.bt, q.T @ p.b], axis=0)

    def truncate(self, t, restart_tol):
        """Keep the eigenmodes of ``t`` above restart_tol; rotate the basis
        and congruence-update the projections instead of recomputing them.
        Returns the core diag(kept eigenvalues) matching the new basis."""
        lam, u = _eigen_trim(t, restart_tol)
        self.v = self.v @ u
        self.av = self.av @ u
        self.mv = self.v if self.problem.identity_mass else self.mv @ u
        self.at = u.T @ self.at @ u
        self.mt = u.T @ self.mt @ u
        self.bt = u.T @ self.bt
        return np.diag(lam)


def _initial_space(problem, opts):
    n = problem.dimension
    kind = opts.initial_space
    if kind == "random":
        rng = np.random.default_rng(opts.rng_seed)
        w = rng.standard_normal((n, min(opts.expand_m, n)))
    elif kind == "given":
        w = as_matrix(opts.initial_v)
        if w.shape[0] != n:
            raise ValueError(
                f"initial space has {w.shape[0]} rows, problem has {n}"
            )
    elif kind == "columns_of_b":
        w = problem.b
    else:  # inverse_applied_to_b
        w = problem.apply_a_inverse(problem.b)
    q, kept = orthonormalize(w)
    if kept == 0 and kind != "given":
        raise ValueError(f"initial space {kind!r} produced no independent columns")
    return q


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
    trimmed on exit. ``converged`` is True when the final residual
    estimate met the tolerance and its Lanczos run converged, even if the
    budget ended the run before the confirming second pass.
    """
    if opts is None:
        opts = SolverOptions()
    mvps0, imvps0 = problem.mvps, problem.imvps
    report = SolveReport()
    state = _State(problem)
    q = _initial_space(problem, opts)

    bb_floor = max(np.linalg.norm(problem.b, 2) ** 2, np.finfo(float).tiny)
    restart_tol = opts.restart_tol
    converged_once = False
    t = np.zeros((0, 0))
    rho = np.inf
    termination = "max_iters"
    conv_now = False

    for it in range(1, opts.max_iters + 1):
        if state.dim + q.shape[1] > DIMENSION_CAP:
            termination = "space_cap"
            break
        state.extend(q)
        report.max_space_dim = max(report.max_space_dim, state.dim)

        t = solve_projected(ProjectedSystem(state.at, state.mt, state.bt))
        est = _lanczos_residual(
            state.av, state.mv, t, problem.b, opts.expand_m,
            opts.rng_seed + 7919 * it,
        )
        rho = est.norm2 / bb_floor
        report.residual_history.append((it, rho))
        report.iterations = it
        if callback is not None:
            callback(it, rho, state.dim)

        conv_now = rho < opts.tol and est.lanczos_converged
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

        vecs = est.eigenvectors
        if opts.variant == "inverse":
            vecs = problem.apply_a_inverse(vecs)
        q, kept = orthonormalize(vecs, against=state.v)
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
    sol = LowRankSolution(state.v, t)
    lam, u = _eigen_trim(sol.t, 0.0)
    if lam.size < sol.rank:
        sol = LowRankSolution(sol.v @ u, np.diag(lam))

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
    report.final_rank = full.rank
    report.mvp_count += sol.rank
    report.imvp_count += sol.rank
    return full, report
