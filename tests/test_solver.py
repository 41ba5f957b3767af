
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from rails.analysis import eofs, sample_stationary
from rails.dae import partition
from rails.dense_lyap import solve_projected
from rails.errors import ForcingOnConstraintError, SingularMatrixError
from rails.lowrank import LowRankSolution
from rails.matrices import orthonormalize
from rails.oracles import SimulationConfig, kron_solve, kron_solve_dae, residual_matrix
import rails.dae
import rails.solver
from conftest import rho_rounding_level
from rails.solver import (
    LyapunovProblem,
    SolverOptions,
    residual_norm_and_vectors,
    _State,
    restart,
    solve,
    solve_dae,
)
from rails.testproblems import gen_dae, gen_diffusion, gen_forcing


def _csr(a):
    return sparse.csr_matrix(np.asarray(a, dtype=float))


def _dense_error(sol, a, m, b):
    c = sol.to_dense()
    ad = a.toarray() if sparse.issparse(a) else np.asarray(a)
    if m is None:
        md = np.eye(ad.shape[0])
    else:
        md = m.toarray() if sparse.issparse(m) else np.asarray(m)
    ref = kron_solve(ad, md, b)
    return np.linalg.norm(c - ref) / max(np.linalg.norm(ref), 1e-300)


class TestSolveBasics:
    def test_diagonal_identity_forcing(self):
        # -C - C + I = 0, so C = I/2; the first sweep already spans
        # everything when seeded with the forcing columns.
        problem = LyapunovProblem(_csr(-np.eye(4)), None, np.eye(4))
        opts = SolverOptions(initial_space="columns_of_b", tol=1e-10)
        sol, report = solve(problem, opts)
        assert report.converged
        assert report.iterations <= 2
        assert np.allclose(sol.to_dense(), 0.5 * np.eye(4), atol=1e-12)

    def test_hand_solved_two_by_two(self):
        a = _csr([[-2.0, 1.0], [0.0, -1.0]])
        b = np.array([[1.0], [1.0]])
        problem = LyapunovProblem(a, None, b)
        opts = SolverOptions(initial_space="columns_of_b", tol=1e-12,
                             expand_m=2)
        sol, report = solve(problem, opts)
        assert report.converged
        assert np.allclose(sol.to_dense(), 0.5 * np.ones((2, 2)), atol=1e-10)

    def test_diffusion_matches_oracle(self):
        a, _, _ = gen_diffusion(30)
        b = gen_forcing(np.arange(30), 30, "uncorrelated_columns", 0.1).b[:, :3]
        problem = LyapunovProblem(a, None, b)
        opts = SolverOptions(tol=1e-9, initial_space="columns_of_b",
                             rng_seed=4)
        sol, report = solve(problem, opts)
        assert report.converged
        assert report.termination_reason == "converged"
        assert _dense_error(sol, a, None, b) < 1e-7

    def test_nontrivial_mass(self):
        rng = np.random.default_rng(20)
        n = 25
        d = np.abs(rng.standard_normal(n)) + 0.5
        m = _csr(np.diag(d))
        a, _, _ = gen_diffusion(n)
        b = rng.standard_normal((n, 2))
        problem = LyapunovProblem(a, m, b)
        sol, report = solve(problem, SolverOptions(tol=1e-9, rng_seed=0))
        assert report.converged
        assert _dense_error(sol, a, m, b) < 1e-7

    def test_report_fields(self):
        a, _, _ = gen_diffusion(20)
        b = np.eye(20)[:, :2]
        sol, report = solve(
            LyapunovProblem(a, None, b),
            SolverOptions(tol=1e-8, initial_space="columns_of_b"),
        )
        assert report.mvp_count > 0
        assert report.imvp_count == 0
        assert report.max_space_dim >= sol.rank
        assert report.final_rank == sol.rank
        hist = report.residual_history
        assert hist[0][0] == 1
        assert len(hist) == report.iterations
        assert all(r >= 0 for _, r in hist)
        d = report.to_json_dict()
        assert d["converged"] is True
        assert d["termination_reason"] == "converged"

    def test_callback_sees_every_sweep(self):
        a, _, _ = gen_diffusion(20)
        b = np.eye(20)[:, :1]
        seen = []
        solve(
            LyapunovProblem(a, None, b),
            SolverOptions(tol=1e-8),
            callback=lambda it, rho, dim: seen.append((it, rho, dim)),
        )
        assert [it for it, _, _ in seen] == list(range(1, len(seen) + 1))
        assert all(dim > 0 for _, _, dim in seen)

    def test_core_is_positive_definite_on_range(self):
        a, _, _ = gen_diffusion(40)
        b = np.eye(40)[:, ::13]
        sol, _ = solve(LyapunovProblem(a, None, b),
                       SolverOptions(tol=1e-8, rng_seed=3))
        lam = np.linalg.eigvalsh(sol.t)
        assert lam.min() > 0

    @pytest.mark.parametrize("b, m, opts", [
        (np.eye(40)[:, ::13], None, SolverOptions(tol=1e-8, rng_seed=3)),
        # a partial iterate, whose exit trim drops no mode
        (np.eye(40)[:, :1], None, SolverOptions(tol=1e-12, max_iters=2)),
        (np.ones((40, 2)), _csr(np.diag(np.linspace(0.5, 2.0, 40))),
         SolverOptions(tol=1e-8, variant="inverse")),
    ], ids=["converged", "partial", "mass-inverse"])
    def test_core_is_diagonal_and_descending(self, b, m, opts):
        # a solve ends with the loop's own trim, so its core is the
        # restart form: diagonal, positive, largest first
        a, _, _ = gen_diffusion(40)
        sol, _ = solve(LyapunovProblem(a, m, b), opts)
        lam = np.diag(sol.t)
        assert sol.rank > 0
        assert np.array_equal(sol.t, np.diag(lam))
        assert lam.min() > 0
        assert np.all(lam[:-1] >= lam[1:])

    def test_default_options(self):
        a, _, _ = gen_diffusion(40)
        b = np.ones((40, 1))
        sol, report = solve(LyapunovProblem(a, None, b))
        ref, ref_report = solve(LyapunovProblem(a, None, b), SolverOptions())
        assert np.array_equal(sol.v, ref.v)
        assert np.array_equal(sol.t, ref.t)
        assert report == ref_report

    def test_max_iters_reason(self):
        a, _, _ = gen_diffusion(60)
        b = np.eye(60)[:, :1]
        sol, report = solve(
            LyapunovProblem(a, None, b),
            SolverOptions(tol=1e-12, max_iters=2, expand_m=1),
        )
        assert not report.converged
        assert report.termination_reason == "max_iters"
        assert report.iterations == 2

    def test_stagnation_detected(self):
        # An unreachable tolerance on a space that already spans
        # everything leaves no directions to add.
        a = _csr(-np.eye(3) + 0.1 * np.eye(3, k=1))
        b = np.eye(3)
        sol, report = solve(
            LyapunovProblem(a, None, b),
            SolverOptions(tol=1e-30, expand_m=3,
                          initial_space="columns_of_b"),
        )
        assert not report.converged
        assert report.termination_reason == "stagnated"

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            SolverOptions(expand_m=0)
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(variant="newton")
        with pytest.raises(ValueError):
            SolverOptions(initial_space="given")
        with pytest.raises(ValueError):
            SolverOptions(restart_tol=-1e-3)
        with pytest.raises(ValueError):
            SolverOptions(restart_tol_growth=0.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iters": 0}, "max_iters"),
        ({"restart_period": 0}, "restart_period"),
        ({"initial_space": "eigenvectors"}, "unknown initial space"),
    ])
    def test_out_of_range_options_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SolverOptions(**kwargs)

    def test_inverse_variant_starts_from_inverse_image(self):
        assert SolverOptions().initial_space == "random"
        assert SolverOptions(variant="inverse").initial_space == "inverse_applied_to_b"
        opts = SolverOptions(variant="inverse", initial_space="columns_of_b")
        assert opts.initial_space == "columns_of_b"

    def test_initial_space_without_columns_rejected(self):
        problem = LyapunovProblem(_csr(-np.eye(2)), None, np.ones((2, 1)))
        wrong_rows = SolverOptions(initial_space="given", initial_v=np.ones((3, 1)))
        with pytest.raises(ValueError, match="initial space has 3 rows"):
            solve(problem, wrong_rows)
        problem = LyapunovProblem(_csr(-np.eye(2)), None, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="no independent columns"):
            solve(problem, SolverOptions(initial_space="columns_of_b"))

    def test_initial_v_is_a_warm_start(self):
        # Continuation starts each solve from the previous point's V; with
        # initial_space unset, initial_v alone selects it.
        a, _, sites = gen_diffusion(40)
        b = gen_forcing(sites, 40, "row_sum_vector").b
        first, cold = solve(LyapunovProblem(a, None, b), SolverOptions(tol=1e-6))
        opts = SolverOptions(tol=1e-6, initial_v=first.v)
        assert opts.initial_space == "given"
        _, warm = solve(LyapunovProblem(a, None, b), opts)
        assert warm.converged
        assert warm.iterations <= 2 < cold.iterations

    @pytest.mark.parametrize("space", ["random", "columns_of_b", "inverse_applied_to_b"])
    def test_initial_v_with_another_space_rejected(self, space):
        with pytest.raises(ValueError, match=f"initial_v.*initial_space={space!r}"):
            SolverOptions(initial_space=space, initial_v=np.ones((3, 1)))


# Each must raise ValueError naming finiteness, as an out-of-range value does:
# NaN fails every comparison and infinity passes the one-sided ones.
_NON_FINITE = {
    "tol=inf": lambda: SolverOptions(tol=np.inf),
    "restart_tol=nan": lambda: SolverOptions(restart_tol=np.nan),
    "restart_tol_growth=nan": lambda: SolverOptions(restart_tol_growth=np.nan),
    "dt=nan": lambda: SimulationConfig(dt=np.nan, n_steps=10),
    "scale=nan": lambda: gen_diffusion(5, scale=np.nan),
    "shift=nan": lambda: gen_dae(5, 2, shift=np.nan),
    "coupling=nan": lambda: gen_dae(5, 2, coupling=np.nan),
    "magnitude=nan": lambda: gen_forcing([0], 2, "row_sum_vector", magnitude=np.nan),
    "magnitude=inf": lambda: gen_forcing([0], 2, "row_sum_vector", magnitude=np.inf),
    "weights=nan": lambda: gen_forcing([0, 1], 2, "uncorrelated_columns",
                                       weights=[1.0, np.nan]),
}


@pytest.mark.parametrize("make", _NON_FINITE.values(), ids=list(_NON_FINITE))
def test_non_finite_values_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


# A count must be an integer as well as in range: a fractional one fails
# deep inside the computation (TypeError) or runs with a fractional period
# or stride. A seed is a count from 0, checked also where no random start
# draws from it. Each raises ValueError naming the argument.
_SOLUTION = LowRankSolution(np.eye(3)[:, :2], np.diag([2.0, 1.0]))
_NON_INTEGER = [
    pytest.param("expand_m", lambda: SolverOptions(expand_m=2.5), id="expand_m"),
    pytest.param("max_iters", lambda: SolverOptions(max_iters=2.5), id="max_iters"),
    pytest.param("restart_period", lambda: SolverOptions(restart_period=1.5),
                 id="restart_period"),
    pytest.param("n_steps", lambda: SimulationConfig(dt=1e-2, n_steps=100.5), id="n_steps"),
    pytest.param("burn_in", lambda: SimulationConfig(dt=1e-2, n_steps=100, burn_in=1.5),
                 id="burn_in"),
    pytest.param("sample_stride",
                 lambda: SimulationConfig(dt=1e-2, n_steps=100, sample_stride=2.5),
                 id="sample_stride"),
    pytest.param("k", lambda: eofs(_SOLUTION, 2.5), id="k"),
    pytest.param("count", lambda: sample_stationary(_SOLUTION, np.zeros(3), 2.5), id="count"),
    pytest.param("rng_seed", lambda: SolverOptions(rng_seed=1.5), id="options-seed-fractional"),
    pytest.param("rng_seed", lambda: SolverOptions(rng_seed=-1), id="options-seed-negative"),
    pytest.param("rng_seed", lambda: SolverOptions(initial_space="columns_of_b", rng_seed=-1),
                 id="options-seed-negative-unused"),
    pytest.param("rng_seed", lambda: SimulationConfig(dt=1e-2, n_steps=100, rng_seed=1.5),
                 id="simulation-seed-fractional"),
    pytest.param("rng_seed", lambda: SimulationConfig(dt=1e-2, n_steps=100, rng_seed=-1),
                 id="simulation-seed-negative"),
    pytest.param("rng_seed", lambda: sample_stationary(_SOLUTION, np.zeros(3), 2, rng_seed=1.5),
                 id="sample-seed-fractional"),
    pytest.param("rng_seed", lambda: sample_stationary(_SOLUTION, np.zeros(3), 2, rng_seed=-1),
                 id="sample-seed-negative"),
]


@pytest.mark.parametrize("name, make", _NON_INTEGER)
def test_non_integer_counts_rejected(name, make):
    with pytest.raises(ValueError, match=f"^{name} must be .*integer"):
        make()


class TestDoubleRange:
    """Norms that leave the double range raise LinAlgError: a column whose
    squared norm overflows or vanishes cannot be judged dependent, and
    dropping it would make rho read a false convergence."""

    @pytest.mark.parametrize("scale_a, scale_b", [
        (1e155, 1.0), (1e-170, 1.0), (1.0, 1e-160), (1.0, 1e160),
    ], ids=["a-overflows", "a-underflows", "b-underflows", "b-overflows"])
    def test_out_of_range_scale_raises(self, scale_a, scale_b):
        a, _, sites = gen_diffusion(40)
        b = gen_forcing(sites, 40, "row_sum_vector").b
        problem = LyapunovProblem(a * scale_a, None, b * scale_b)
        with pytest.raises(np.linalg.LinAlgError, match="rescale"):
            solve(problem, SolverOptions(tol=1e-6))

    @pytest.mark.parametrize("variant, rho", [
        ("standard", 1.094e-7), ("inverse", 1.143e-7),
    ])
    def test_negligible_column_of_b_is_zeroed(self, variant, rho):
        # the second column adds about 1e-340 to BB': its squared norm
        # underflows, so the problem zeroes it in a copy of B, and the solve
        # is that of B with the column 0
        a, _, _ = gen_diffusion(40)
        b = np.zeros((40, 2))
        b[:, 0] = 1.0
        b[4, 1] = 1e-170
        given = b.copy()
        zeroed = b.copy()
        zeroed[:, 1] = 0.0
        opts = SolverOptions(tol=1e-6, variant=variant)
        (sol, report), (ref, _) = (solve(LyapunovProblem(a, None, x), opts)
                                   for x in (b, zeroed))
        np.testing.assert_array_equal(b, given)
        assert report.converged and sol.rank == 8
        assert report.residual_history[-1][1] == pytest.approx(rho, rel=1e-3)
        assert np.array_equal(sol.v, ref.v) and np.array_equal(sol.t, ref.t)

    def test_zero_forcing_converges_at_rank_zero(self):
        a, _, _ = gen_diffusion(40)
        sol, report = solve(LyapunovProblem(a, None, np.zeros((40, 1))),
                            SolverOptions(tol=1e-6))
        assert report.converged
        assert sol.rank == 0


class TestProblemValidation:
    @pytest.mark.parametrize("a, m, b, message", [
        (np.ones((2, 3)), None, np.ones((2, 1)), "A must be square"),
        (-np.eye(2), np.eye(3), np.ones((2, 1)), "M must match A"),
        (-np.eye(2), None, np.ones((3, 1)), "B has 3 rows"),
        (-np.eye(2), None, np.ones((2, 0)), "at least one column"),
    ], ids=["a-not-square", "m-size", "b-rows", "b-no-columns"])
    def test_shapes_rejected(self, a, m, b, message):
        with pytest.raises(ValueError, match=message):
            LyapunovProblem(_csr(a), None if m is None else _csr(m), b)

    def test_complex_input_rejected(self):
        a, _, _ = gen_diffusion(10)
        b = np.ones((10, 1))
        for args in ((a.astype(complex), None, b), (a, a.astype(complex), b),
                     (a, None, b + 0j)):
            with pytest.raises(ValueError, match="must be real"):
                LyapunovProblem(*args)
        with pytest.raises(ValueError, match="must be real"):
            solve_dae(a, sparse.identity(10, format="csr"), b * 1j)

    def test_singular_sparse_a_has_no_inverse_products(self):
        problem = LyapunovProblem(_csr(np.ones((2, 2))), None, np.ones((2, 1)))
        with pytest.raises(SingularMatrixError):
            problem.apply_a_inverse(np.ones(2))
        assert problem.imvps == 0


class TestResidualEstimate:
    def test_empty_solution_gives_forcing_norm(self):
        # With C = 0 the residual is exactly B B'; for B = [1, 1]' the
        # spectral norm is 2.
        b = np.array([[1.0], [1.0]])
        problem = LyapunovProblem(_csr(-np.eye(2)), None, b)
        empty = LowRankSolution(np.zeros((2, 0)), np.zeros((0, 0)))
        est = residual_norm_and_vectors(problem, empty, 1)
        assert abs(est.norm2 - 2.0) < 1e-12

    def test_exact_solution_has_tiny_residual(self):
        a = _csr([[-2.0, 1.0], [0.0, -1.0]])
        b = np.array([[1.0], [1.0]])
        problem = LyapunovProblem(a, None, b)
        c = 0.5 * np.ones((2, 2))
        lam, u = np.linalg.eigh(c)
        keep = lam > 1e-14
        sol = LowRankSolution(u[:, keep], np.diag(lam[keep]))
        est = residual_norm_and_vectors(problem, sol, 2)
        assert est.norm2 <= 1e-12

    def test_matches_dense_spectral_norm(self):
        # The exact residual norm must agree with the dense one on
        # a partially converged solution whose residual sits well above
        # rounding noise.
        rng = np.random.default_rng(8)
        a, _, _ = gen_diffusion(30)
        b = rng.standard_normal((30, 2))
        problem = LyapunovProblem(a, None, b)
        sol, _ = solve(
            problem, SolverOptions(max_iters=3, expand_m=1, tol=1e-12,
                                   rng_seed=8)
        )
        est = residual_norm_and_vectors(problem, sol, 3)
        dense_r = residual_matrix(a.toarray(), np.eye(30), b, sol.to_dense())
        dense_norm = np.linalg.norm(dense_r, 2)
        assert dense_norm > 1e-8  # construction really is partial
        assert abs(est.norm2 - dense_norm) <= 1e-6 * dense_norm

    def test_eigenvector_count(self):
        # min(m, D) pairs, D = dim span[V, AV, B] = 3 here: V = e_0 with
        # A e_0 = -e_0 + e_1, and B = e_2.
        a = _csr(-np.eye(6) + np.eye(6, k=-1))
        problem = LyapunovProblem(a, None, np.eye(6)[:, [2]])
        sol = LowRankSolution(np.eye(6)[:, :1], np.eye(1))
        for m in (0, 2, 3, 10):
            est = residual_norm_and_vectors(problem, sol, m)
            assert est.eigenvalues.shape == (min(m, 3),)
            assert est.eigenvectors.shape == (6, min(m, 3))

    def test_rank_zero_one_column_gives_one_pair(self):
        # C = 0 leaves R = b b', and D = 1: one pair (||b||^2, b / ||b||)
        b = np.array([[3.0], [0.0], [4.0], [0.0]])
        problem = LyapunovProblem(_csr(-np.eye(4)), None, b)
        empty = LowRankSolution(np.zeros((4, 0)), np.zeros((0, 0)))
        est = residual_norm_and_vectors(problem, empty, 3)
        assert est.eigenvalues == pytest.approx([25.0], rel=1e-14)
        assert np.allclose(np.abs(est.eigenvectors), np.abs(b) / 5.0, atol=1e-15)

    def test_dimension_mismatch(self):
        problem = LyapunovProblem(_csr(-np.eye(3)), None, np.ones((3, 1)))
        sol = LowRankSolution(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            residual_norm_and_vectors(problem, sol, 1)

    @pytest.mark.parametrize("m", [-1, 2.5, None])
    def test_pair_count_must_be_a_non_negative_integer(self, m):
        problem = LyapunovProblem(_csr(-np.eye(20)), None, np.ones((20, 1)))
        sol = LowRankSolution(np.eye(20)[:, :3], np.eye(3))
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            residual_norm_and_vectors(problem, sol, m)

    def test_numpy_integer_pair_count(self):
        # three forcing columns span D = 3, so m = 2 is the binding count
        problem = LyapunovProblem(_csr(-np.eye(5)), None, np.eye(5, 3))
        empty = LowRankSolution(np.zeros((5, 0)), np.zeros((0, 0)))
        est = residual_norm_and_vectors(problem, empty, np.int64(2))
        assert est.eigenvectors.shape == (5, 2)


class TestRestart:
    def test_small_modes_dropped(self):
        sol = LowRankSolution(np.eye(2), np.diag([1.0, 1e-12]))
        out = restart(sol, 1e-6)
        assert out.rank == 1
        assert np.allclose(out.t, [[1.0]])
        assert np.allclose(np.abs(out.v), [[1.0], [0.0]], atol=1e-14)

    def test_zero_tolerance_is_lossless_rotation(self):
        rng = np.random.default_rng(14)
        v = np.linalg.qr(rng.standard_normal((20, 6)))[0]
        w = rng.standard_normal((6, 6))
        sol = LowRankSolution(v, w @ w.T + 0.1 * np.eye(6))
        out = restart(sol, 0.0)
        assert out.rank == 6
        assert np.allclose(out.to_dense(), sol.to_dense(), atol=1e-12)
        # Core comes back diagonal with descending entries.
        assert np.allclose(out.t, np.diag(np.diag(out.t)))
        d = np.diag(out.t)
        assert np.all(d[:-1] >= d[1:])

    def test_nonpositive_modes_dropped_at_zero(self):
        sol = LowRankSolution(np.eye(2), np.diag([1.0, -0.5]))
        out = restart(sol, 0.0)
        assert out.rank == 1
        assert np.allclose(out.t, [[1.0]])

    def test_perturbation_bounded_by_dropped_mass(self):
        rng = np.random.default_rng(9)
        v = np.linalg.qr(rng.standard_normal((15, 5)))[0]
        lam = np.array([2.0, 1.0, 1e-7, 5e-8, 1e-9])
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        sol = LowRankSolution(v, q @ np.diag(lam) @ q.T)
        tol = 1e-6
        out = restart(sol, tol)
        dropped = lam[lam <= tol].sum()
        diff = np.linalg.norm(sol.to_dense() - out.to_dense())
        assert diff <= dropped + 1e-12

    def test_everything_dropped_warns(self):
        sol = LowRankSolution(np.eye(2), np.diag([1e-9, 1e-10]))
        with pytest.warns(RuntimeWarning):
            out = restart(sol, 1.0)
        assert out.rank == 0

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(33)
        v = np.linalg.qr(rng.standard_normal((40, 20)))[0]
        w = rng.standard_normal((20, 20))
        core = w @ w.T
        sol = LowRankSolution(v, core)
        tau = float(np.median(np.linalg.eigvalsh(core)))
        out = restart(sol, tau)
        # Compare against trimming the dense matrix directly.
        lam, u = np.linalg.eigh(v @ core @ v.T)
        keep = lam > tau
        dense_trim = u[:, keep] @ np.diag(lam[keep]) @ u[:, keep].T
        assert out.rank == int(keep.sum())
        assert np.allclose(out.to_dense(), dense_trim, atol=1e-10)

    def test_rounding_level_modes_dropped(self):
        # Modes of +-1e-20 against a largest mode of 1 are rounding noise:
        # neither sign keeps them.
        sol = LowRankSolution(np.eye(3), np.diag([1.0, 1e-20, -1e-20]))
        assert restart(sol, 0.0).rank == 1

    def test_empty_input_passes_through(self):
        sol = LowRankSolution(np.zeros((4, 0)), np.zeros((0, 0)))
        assert restart(sol, 0.5) is sol

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-3])
    def test_tolerance_rule_of_the_options(self, tol):
        # the rule SolverOptions states, also for an empty solution
        for sol in (LowRankSolution(np.eye(11), np.eye(11)),
                    LowRankSolution(np.zeros((4, 0)), np.zeros((0, 0)))):
            with pytest.raises(ValueError, match="restart_tol must be >= 0 and finite"):
                restart(sol, tol)


class TestSearchSpaceStructure:
    def test_krylov_containment(self):
        # With the forcing columns as the initial space, after j sweeps the
        # basis stays inside the order-j Krylov space of (A, B).
        a, _, _ = gen_diffusion(24)
        rng = np.random.default_rng(6)
        b = rng.standard_normal((24, 2))
        ad = a.toarray()
        for j in (1, 2, 3):
            opts = SolverOptions(
                tol=1e-14, max_iters=j, expand_m=2,
                initial_space="columns_of_b", rng_seed=6,
            )
            sol, _ = solve(LyapunovProblem(a, None, b), opts)
            blocks = [b]
            for _ in range(j):
                blocks.append(ad @ blocks[-1])
            k = np.linalg.qr(np.concatenate(blocks, axis=1))[0]
            # Every retained direction lies in the Krylov space.
            outside = sol.v - k @ (k.T @ sol.v)
            assert np.abs(outside).max() <= 1e-8

    def test_invariant_subspace_seed_solves_in_one_sweep(self):
        # Seeding with an exact invariant subspace that contains the
        # forcing makes the first projected solve exact.
        rng = np.random.default_rng(18)
        w = rng.standard_normal((30, 30))
        sym = -(w @ w.T) - 30.0 * np.eye(30)
        lam, u = np.linalg.eigh(sym)
        span = u[:, :4]
        b = span @ rng.standard_normal((4, 2))
        problem = LyapunovProblem(_csr(sym), None, b)
        opts = SolverOptions(
            max_iters=1, initial_space="given", initial_v=span, tol=1e-10,
        )
        sol, report = solve(problem, opts)
        bb = np.linalg.norm(b @ b.T, 2)
        est = residual_norm_and_vectors(problem, sol, 1)
        assert est.norm2 <= 1e-10 * bb
        assert report.converged


class TestSearchSpaceStorage:
    @pytest.mark.parametrize("mass", [False, True], ids=["identity", "mass"])
    def test_state_keeps_one_n_length_array(self, mass):
        n = 100
        a, _, _ = gen_diffusion(n)
        m = _csr(np.diag(np.linspace(1.0, 2.0, n))) if mass else None
        state = _State(LyapunovProblem(a, m, np.eye(n)[:, :1]))

        def n_length():
            return sorted(name for name, x in vars(state).items()
                          if isinstance(x, np.ndarray) and x.shape[0] == n)

        rng = np.random.default_rng(0)
        y, _ = orthonormalize(state.absorb(rng.standard_normal((n, 3))))
        state.extend(y)
        assert n_length() == ["_w_buffer"]
        assert np.shares_memory(state.cm, state.cv) == (not mass)
        state.truncate(np.diag([2.0, 1.0, 0.0]), 0.0)
        assert n_length() == ["_w_buffer"]
        state.extend(np.zeros((state.w.shape[1], 0)))  # recompresses W
        assert n_length() == ["_w_buffer"]
        assert np.shares_memory(state.cm, state.cv) == (not mass)

    def test_basis_is_written_in_place(self):
        # absorb, extend and a recompression write into W's buffer while it
        # has room; past its capacity it grows and keeps W's columns.
        n = 100
        a, _, _ = gen_diffusion(n)
        state = _State(LyapunovProblem(a, None, np.eye(n)[:, :1]))
        before = state.w
        rng = np.random.default_rng(3)
        y, _ = orthonormalize(state.absorb(rng.standard_normal((n, 3))))
        assert np.shares_memory(state.w, before)
        state.extend(y)
        assert state.w.shape[1] == 7 and np.shares_memory(state.w, before)
        state.truncate(np.diag([2.0, 1.0, 0.0]), 0.0)
        state.extend(np.zeros((7, 0)))  # recompresses W
        assert state.w.shape[1] < 7 and np.shares_memory(state.w, before)
        del before  # a live view of the buffer would stop it from growing
        kept = state.w.copy()
        state.absorb(rng.standard_normal((n, 30)))
        w = state.w
        assert w.shape[1] == kept.shape[1] + 30
        assert np.array_equal(w[:, : kept.shape[1]], kept)
        assert np.linalg.norm(w.T @ w - np.eye(w.shape[1]), 2) <= 1e-12

    def test_solve_holds_no_second_basis(self, monkeypatch):
        # At n = 20000 a column is 160 kB. The traced peak of a solve stays
        # within its largest basis W (D_max columns) and a sweep's A-images
        # and their basis columns (2 expand_m); copying W once a sweep would
        # hold it twice, and forming V apart from W's buffer would add rank
        # columns. Here D_max is 31, and so is the width of W's buffer.
        n = 20000
        rng = np.random.default_rng(1)
        a = sparse.diags([np.full(n - 1, 0.6), -2.0 - rng.uniform(0.0, 1.0, n),
                          np.full(n - 1, -0.4)], [-1, 0, 1], format="csr")
        problem = LyapunovProblem(a, None, rng.standard_normal((n, 1)))
        opts = SolverOptions(tol=1e-9)
        widths = []

        def record(state, y, extend=_State.extend):
            extend(state, y)
            widths.append(state.w.shape[1])

        monkeypatch.setattr(_State, "extend", record)
        tracemalloc.start()
        try:
            sol, report = solve(problem, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        d_max = max(widths)
        assert d_max <= 31  # W's buffer: 16 columns, grown to 20, 25, 31
        columns = d_max + 2 * opts.expand_m
        assert peak < columns * n * 8 + (256 << 10)

    @pytest.mark.parametrize("hook", ["trace", "profile"])
    def test_buffer_grows_under_a_hook(self, hook):
        # A trace or profile hook (coverage, pdb, cProfile) holds references
        # that make ndarray.resize refuse; W's buffer is then copied into a
        # wider one, and the solve is bitwise the one without the hook.
        n = 500
        rng = np.random.default_rng(1)
        a = sparse.diags([np.full(n - 1, 0.6), -2.0 - rng.uniform(0.0, 1.0, n),
                          np.full(n - 1, -0.4)], [-1, 0, 1], format="csr")
        b = rng.standard_normal((n, 1))
        opts = SolverOptions(tol=1e-10)
        sol, report = solve(LyapunovProblem(a, None, b), opts)
        assert report.max_space_dim > 16  # past the buffer's first columns
        set_hook = getattr(sys, "set" + hook)
        previous = getattr(sys, "get" + hook)()
        set_hook(lambda *args: None)
        try:
            hooked, hooked_report = solve(LyapunovProblem(a, None, b), opts)
        finally:
            set_hook(previous)
        assert np.array_equal(hooked.v, sol.v)
        assert np.array_equal(hooked.t, sol.t)
        assert hooked_report.to_json_dict() == report.to_json_dict()

    def test_recompression_by_row_blocks(self, monkeypatch):
        # Rotating W in place a few rows at a time gives the W of a
        # one-block rotation, and it stays orthonormal.
        n = 150
        a, _, _ = gen_diffusion(n)
        rng = np.random.default_rng(5)
        b, x = rng.standard_normal((n, 2)), rng.standard_normal((n, 4))

        def recompressed():
            state = _State(LyapunovProblem(a, None, b))
            y, _ = orthonormalize(state.absorb(x))
            state.extend(y)
            state.truncate(np.diag([3.0, 2.0, 1e-3, 0.0]), 0.5)
            state.extend(np.zeros((state.w.shape[1], 0)))
            return state.w.copy()

        whole = recompressed()
        monkeypatch.setattr(rails.solver, "_ROW_BLOCK", 16)
        blocked = recompressed()
        assert blocked.shape == whole.shape and whole.shape[1] < 8
        assert np.abs(blocked - whole).max() <= 1e-14
        assert np.linalg.norm(blocked.T @ blocked - np.eye(blocked.shape[1]), 2) <= 1e-12


def _exact_residual_cases():
    """(name, A, M, B, dense A, dense M, options), all at n <= 200."""
    rng = np.random.default_rng(41)
    a, _, _ = gen_diffusion(60)
    mass = _csr(np.diag(rng.uniform(0.5, 2.0, 60)))
    yield ("mass", a, mass, rng.standard_normal((60, 2)), a.toarray(),
           mass.toarray(),
           SolverOptions(max_iters=4, expand_m=2, tol=1e-16, rng_seed=1))
    am, mm, sites = gen_dae(40, 10, rng_seed=4)
    sys_ = partition(am, mm, gen_forcing(sites, 50, "uncorrelated_columns").b)
    assert sys_.m22_is_identity
    yield ("dae", sys_, None, sys_.b2, sys_.apply(np.eye(40)), np.eye(40),
           SolverOptions(max_iters=4, tol=1e-16, initial_space="columns_of_b"))
    a, _, _ = gen_diffusion(120)
    yield ("inverse", a, None, rng.standard_normal((120, 1)), a.toarray(),
           np.eye(120), SolverOptions(max_iters=5, tol=1e-16, variant="inverse"))
    a, _, _ = gen_diffusion(30)
    yield ("b-fills-space", a, None, rng.standard_normal((30, 30)), a.toarray(),
           np.eye(30), SolverOptions(max_iters=2, tol=1e-16, rng_seed=3))
    a, _, _ = gen_diffusion(200)
    yield ("after-restart", a, None, rng.standard_normal((200, 2)), a.toarray(),
           np.eye(200),
           SolverOptions(max_iters=7, tol=1e-16, restart_period=3,
                         restart_tol=1e-6, rng_seed=4))


_CASES = {case[0]: case[1:] for case in _exact_residual_cases()}


class TestExactResidual:
    @pytest.mark.parametrize("name", list(_CASES))
    def test_matches_dense_norm(self, name):
        # The in-loop rho of the last sweep and residual_norm_and_vectors
        # both agree with the dense spectral norm of a partial iterate.
        a, m, b, ad, md, opts = _CASES[name]
        problem = LyapunovProblem(a, m, b)
        sol, report = solve(problem, opts)
        assert report.termination_reason == "max_iters"
        r = residual_matrix(ad, md, b, sol.to_dense())
        bb = np.linalg.norm(b, 2) ** 2
        dense = np.linalg.norm(r, 2)
        assert dense > 1e-8 * bb  # a genuinely partial iterate
        assert report.residual_history[-1][1] == pytest.approx(dense / bb, rel=1e-10)
        est = residual_norm_and_vectors(problem, sol, 3)
        assert est.norm2 == pytest.approx(dense, rel=1e-10)
        assert est.eigenvectors.shape == (b.shape[0], 3)
        # the pairs are eigenpairs of the dense residual, largest |lambda| first
        assert np.abs(est.eigenvalues[0]) == pytest.approx(dense, rel=1e-10)
        lam = est.eigenvalues
        assert np.all(np.abs(lam[:-1]) >= np.abs(lam[1:]))
        u = est.eigenvectors
        assert np.linalg.norm(r @ u - u * lam, axis=0).max() <= 1e-10 * dense

    def test_forcing_that_fills_the_space(self):
        a, m, b, *_ = _CASES["b-fills-space"]
        state = _State(LyapunovProblem(a, m, b))
        assert state.w.shape == (30, 30)

    @pytest.mark.parametrize("mass", [False, True], ids=["identity", "mass"])
    def test_basis_stays_orthonormal(self, mass):
        # W stays orthonormal, and the coefficient blocks keep representing
        # V, AV and MV, through extensions, a truncation that drops modes,
        # and the recompression at the next extension.
        n = 150
        a, _, _ = gen_diffusion(n)
        rng = np.random.default_rng(12)
        m = _csr(np.diag(rng.uniform(0.5, 2.0, n))) if mass else None
        problem = LyapunovProblem(a, m, rng.standard_normal((n, 2)))
        state = _State(problem)

        def check():
            w = state.w
            assert np.linalg.norm(w.T @ w - np.eye(w.shape[1]), 2) <= 1e-12
            v = w @ state.cv
            av = problem.apply_a(v)
            assert np.linalg.norm(av - w @ state.ca) <= 1e-9 * np.linalg.norm(av)
            if mass:
                mv = problem.apply_m(v)
                assert np.linalg.norm(mv - w @ state.cm) <= 1e-9 * np.linalg.norm(mv)

        y, _ = orthonormalize(state.absorb(rng.standard_normal((n, 3))))
        for _ in range(4):
            state.extend(y)
            check()
            t = solve_projected(state.projected())
            _, _, y = state.residual(t, 3)
            y, _ = state.expansion(y, False)
        d, width = state.dim, state.w.shape[1]
        state.truncate(t, 0.5 * np.abs(t).max())
        assert state.dim < d and state.w.shape[1] == width
        check()
        y = state._recompress(y)  # what the next extension does first
        assert state.w.shape[1] < width
        check()
        state.extend(y)
        check()


class TestOperationCounts:
    def test_counts_columns(self):
        a = sparse.identity(5, format="csr")
        problem = LyapunovProblem(a, None, np.ones((5, 1)))
        problem.apply_a(np.ones((5, 3)))
        assert problem.mvps == 3
        problem.apply_a(np.ones(5))
        assert problem.mvps == 4
        assert problem.imvps == 0

    def test_identity_mass_returns_its_operand_uncounted(self):
        problem = LyapunovProblem(sparse.identity(5, format="csr"), None, np.ones((5, 1)))
        x = np.ones((5, 3))
        assert problem.apply_m(x) is x
        assert problem.mvps == problem.imvps == 0

    def test_solve_counts_inverse_products(self):
        a, m, sites = gen_dae(10, 4, rng_seed=1)
        sys = partition(a, m, np.zeros((14, 0)))
        problem = LyapunovProblem(sys, None, np.ones((10, 1)))
        problem.apply_a_inverse(np.ones((10, 3)))
        assert problem.imvps == 3

    def test_apply_counts_forward_products(self):
        a, m, sites = gen_dae(10, 4, rng_seed=1)
        sys = partition(a, m, np.zeros((14, 0)))
        problem = LyapunovProblem(sys, None, np.ones((10, 1)))
        problem.apply_a(np.ones((10, 2)))
        # One sparse product per column for each of A12, A21, A22 plus the
        # constraint solve; the exact ledger is: 3 forward + 1 inverse each.
        assert problem.mvps == 6
        assert problem.imvps == 2

    def test_unrelated_products_stay_out_of_the_report(self):
        a, m, sites = gen_dae(200, 50, rng_seed=0)
        b = gen_forcing(sites[:3], 250, "uncorrelated_columns").b
        opts = SolverOptions(tol=1e-6)
        other = sparse.identity(10, format="csr")
        _, plain = solve_dae(a, m, b, opts)
        _, busy = solve_dae(
            a, m, b, opts,
            callback=lambda it, rho, dim: other @ np.ones((10, 5)),
        )
        assert plain.mvp_count > 0
        assert (busy.mvp_count, busy.imvp_count) == (
            plain.mvp_count, plain.imvp_count
        )

    def test_reused_problem_reports_per_solve_counts(self):
        a, _, _ = gen_diffusion(30)
        problem = LyapunovProblem(a, None, np.eye(30)[:, :2])
        opts = SolverOptions(tol=1e-6, variant="inverse")
        _, first = solve(problem, opts)
        _, second = solve(problem, opts)
        assert first.mvp_count > 0 and first.imvp_count > 0
        assert (second.mvp_count, second.imvp_count) == (
            first.mvp_count, first.imvp_count
        )
        assert problem.mvps == 2 * first.mvp_count


class TestLapackPath:
    """The projected solve runs on LAPACK alone, without the scipy.linalg
    wrappers."""

    @pytest.fixture(autouse=True)
    def refuse_wrappers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg wrapper called")

        for name in ("schur", "lu_factor", "lu_solve"):
            monkeypatch.setattr(scipy.linalg, name, refuse)

    @pytest.mark.parametrize("variant", ["standard", "inverse"])
    @pytest.mark.parametrize("mass", [False, True], ids=["identity", "mass"])
    def test_solve_converges(self, variant, mass):
        n = 40
        a, _, _ = gen_diffusion(n)
        m = _csr(np.diag(np.linspace(1.0, 2.0, n))) if mass else None
        b = np.eye(n)[:, ::13]
        opts = SolverOptions(tol=1e-9, variant=variant, rng_seed=0)
        sol, report = solve(LyapunovProblem(a, m, b), opts)
        assert report.converged
        assert _dense_error(sol, a, m, b) < 1e-7

    def test_solve_dae_converges(self):
        a, m, sites = gen_dae(25, 8, rng_seed=3)
        b = gen_forcing(sites, 33, "uncorrelated_columns").b
        sol, report = solve_dae(a, m, b, SolverOptions(tol=1e-9, rng_seed=3))
        assert report.converged
        ref = kron_solve_dae(a, m, b)
        assert np.linalg.norm(sol.to_dense() - ref) <= 1e-6 * np.linalg.norm(ref)


class TestDeterminism:
    def test_bitwise_repeatability(self):
        a, _, _ = gen_diffusion(35)
        rng = np.random.default_rng(2)
        b = rng.standard_normal((35, 2))
        opts = SolverOptions(tol=1e-8, rng_seed=99)
        s1, r1 = solve(LyapunovProblem(a, None, b), opts)
        s2, r2 = solve(LyapunovProblem(a, None, b), opts)
        assert np.array_equal(s1.v, s2.v)
        assert np.array_equal(s1.t, s2.t)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_seed_changes_random_start(self):
        a, _, _ = gen_diffusion(35)
        b = np.eye(35)[:, :1]
        s1, _ = solve(LyapunovProblem(a, None, b),
                      SolverOptions(tol=1e-6, rng_seed=1))
        s2, _ = solve(LyapunovProblem(a, None, b),
                      SolverOptions(tol=1e-6, rng_seed=2))
        assert not np.array_equal(s1.v, s2.v)


class TestInverseVariant:
    def test_converges_and_counts_inverse_products(self):
        a, _, _ = gen_diffusion(40)
        b = np.eye(40)[:, ::9]
        opts = SolverOptions(
            tol=1e-9, variant="inverse", initial_space="inverse_applied_to_b",
            rng_seed=0,
        )
        sol, report = solve(LyapunovProblem(a, None, b), opts)
        assert report.converged
        assert report.imvp_count > 0
        assert _dense_error(sol, a, None, b) < 1e-7

    def test_inverse_start_from_forcing(self):
        # The inverse-image initial space alone reproduces A^{-1} B.
        a = _csr(np.diag([-1.0, -2.0, -4.0]))
        b = np.array([[1.0], [1.0], [1.0]])
        opts = SolverOptions(
            max_iters=1, initial_space="inverse_applied_to_b", tol=1e-16,
        )
        sol, _ = solve(LyapunovProblem(a, None, b), opts)
        target = np.linalg.solve(a.toarray(), b)
        target /= np.linalg.norm(target)
        assert np.abs(np.abs(sol.v.T @ target) - 1.0).max() < 1e-12


class TestRestartInsideSolve:
    def test_periodic_restart_bounds_space(self):
        a, _, _ = gen_diffusion(50)
        b = np.eye(50)[:, :1]
        opts = SolverOptions(
            tol=1e-10, restart_period=5, restart_tol=1e-14, expand_m=2,
            rng_seed=11,
        )
        sol, report = solve(LyapunovProblem(a, None, b), opts)
        assert report.converged
        assert _dense_error(sol, a, None, b) < 1e-6

    def test_final_rank_not_above_pre_restart_space(self):
        a, _, _ = gen_diffusion(50)
        b = np.eye(50)[:, :2]
        opts = SolverOptions(tol=1e-6, restart_tol=1e-10, rng_seed=1)
        sol, report = solve(LyapunovProblem(a, None, b), opts)
        assert report.converged
        assert report.termination_reason == "converged"
        assert sol.rank <= report.max_space_dim


    def test_tolerance_growth_gets_past_stagnation(self):
        # With growth 1 the space stops growing; growing the retention
        # tolerance trims it so the solve can go on to convergence.
        a, _, _ = gen_diffusion(20)
        b = np.ones((20, 1))
        runs = {}
        for growth in (1.0, 4.0):
            opts = SolverOptions(tol=1e-14, expand_m=3, rng_seed=0,
                                 max_iters=200, restart_tol_growth=growth)
            runs[growth] = solve(LyapunovProblem(a, None, b), opts)
        stuck, grown = runs[1.0][1], runs[4.0][1]
        assert (stuck.termination_reason, stuck.iterations) == ("stagnated", 9)
        assert (grown.termination_reason, grown.iterations) == ("converged", 12)
        assert grown.converged
        assert _dense_error(runs[4.0][0], a, None, b) < 1e-10

    def test_the_two_passes_need_not_be_consecutive(self):
        # The convergence trim after the first pass pushes rho back above
        # the tolerance; the solve goes on to its second pass, four sweeps on.
        a, _, _ = gen_diffusion(60)
        b = np.eye(60)[:, :1]
        opts = SolverOptions(tol=1e-2, restart_tol=1e-2)
        _, report = solve(LyapunovProblem(a, None, b), opts)
        passes = [it for it, rho in report.residual_history if rho < opts.tol]
        assert passes == [7, 11]
        assert (report.termination_reason, report.iterations) == ("converged", 11)
        assert report.converged


class TestFinalTrim:
    """A converged solve returns the rank its tolerance needs."""

    @pytest.mark.parametrize("variant", ["standard", "inverse"])
    def test_last_rho_is_that_of_the_returned_iterate(self, variant, monkeypatch):
        a, _, _ = gen_diffusion(120)
        b = np.random.default_rng(41).standard_normal((120, 2))
        if variant == "inverse":
            b = b[:, :1]
        opts = SolverOptions(tol=1e-6, variant=variant, rng_seed=1)
        problem = LyapunovProblem(a, None, b)
        sol, report = solve(problem, opts)
        assert report.termination_reason == "converged"
        rho = report.residual_history[-1][1]
        exact = residual_norm_and_vectors(problem, sol, 0).norm2
        floor = rho_rounding_level(problem, sol)
        assert rho == pytest.approx(exact / np.linalg.norm(b, 2) ** 2, rel=1e-10,
                                    abs=floor)
        assert rho < opts.tol
        # without the trim the same sweeps and products end with more modes
        monkeypatch.setattr(_State, "trim", lambda self, t, budget: t)
        full, full_report = solve(LyapunovProblem(a, None, b), opts)
        assert sol.rank < full.rank
        assert full_report.residual_history[:-1] == report.residual_history[:-1]
        for key in ("iterations", "max_space_dim", "mvp_count", "imvp_count"):
            assert getattr(full_report, key) == getattr(report, key)

    @pytest.mark.parametrize("case, termination", [
        ("max_iters", "max_iters"),
        ("converged_at_the_budget", "max_iters"),
        ("stagnated", "stagnated"),
    ])
    def test_other_stops_keep_the_tolerance_0_rank(self, case, termination,
                                                   monkeypatch):
        # Only termination "converged" trims; every other stop returns the
        # tolerance-0 trim of its last iterate and that sweep's rho.
        a, _, _ = gen_diffusion(60)
        b = np.eye(60)[:, :1]
        opts = SolverOptions(tol=1e-12, max_iters=3, expand_m=1)
        if case == "converged_at_the_budget":
            # the budget ends on the first pass below the tolerance
            _, first = solve(LyapunovProblem(a, None, b), SolverOptions(tol=1e-4))
            passes = [it for it, rho in first.residual_history if rho < 1e-4]
            opts = SolverOptions(tol=1e-4, max_iters=passes[0])
        elif case == "stagnated":
            a = _csr(-np.eye(3) + 0.1 * np.eye(3, k=1))
            b = np.eye(3)
            opts = SolverOptions(tol=1e-30, expand_m=3, initial_space="columns_of_b")

        def trim(self, t, budget):
            raise AssertionError("trimmed a solve that did not converge")

        monkeypatch.setattr(_State, "trim", trim)
        seen = []
        sol, report = solve(LyapunovProblem(a, None, b), opts,
                            callback=lambda it, rho, dim: seen.append(rho))
        assert report.termination_reason == termination
        assert report.converged == (case == "converged_at_the_budget")
        assert report.residual_history[-1][1] == seen[-1]
        assert report.iterations == len(report.residual_history) == len(seen)
        assert sol.rank > 0


class TestSpaceCap:
    def test_cap_stops_with_the_current_iterate(self, monkeypatch):
        monkeypatch.setattr(rails.solver, "DIMENSION_CAP", 10)
        a, _, _ = gen_diffusion(200)
        sol, report = solve(LyapunovProblem(a, None, np.ones((200, 1))),
                            SolverOptions(tol=1e-12))
        assert report.termination_reason == "space_cap"
        assert not report.converged
        assert report.iterations == len(report.residual_history)
        assert 0 < sol.rank <= report.max_space_dim <= 10

    def test_initial_space_past_the_cap(self, monkeypatch):
        # 11 forcing columns against a cap of 10: the solve stops before
        # any product with the initial space.
        monkeypatch.setattr(rails.solver, "DIMENSION_CAP", 10)
        a, _, _ = gen_diffusion(200)
        problem = LyapunovProblem(a, None, np.eye(200)[:, :11])
        sol, report = solve(problem, SolverOptions(initial_space="columns_of_b"))
        assert report.termination_reason == "space_cap"
        assert not report.converged
        assert sol.rank == 0
        assert report.iterations == report.max_space_dim == 0
        assert report.residual_history == []
        assert problem.mvps == problem.imvps == 0


class TestSolveDae:
    def test_two_var_closed_form(self):
        a = _csr([[1.0, 0.0], [0.0, -1.0]])
        m = _csr(np.diag([0.0, 1.0]))
        b = np.array([[0.0], [1.0]])
        sol, report = solve_dae(a, m, b, SolverOptions(tol=1e-10, expand_m=1,
                                                       initial_space="columns_of_b"))
        assert report.converged
        assert np.allclose(sol.to_dense(), np.diag([0.0, 0.5]), atol=1e-12)

    def test_matches_constrained_oracle(self):
        a, m, sites = gen_dae(30, 10, rng_seed=9)
        b = gen_forcing(sites, 40, "uncorrelated_columns", 0.5).b
        sol, report = solve_dae(a, m, b, SolverOptions(tol=1e-9, rng_seed=9))
        assert report.converged
        ref = kron_solve_dae(a, m, b)
        err = np.linalg.norm(sol.to_dense() - ref) / np.linalg.norm(ref)
        assert err < 1e-6

    def test_pass_through_bitwise_equal_to_plain_solve(self):
        # With no algebraic rows the DaeSystem is the operator (S is A) and
        # its bordered solve is a plain solve with A; both routes must stay
        # bitwise equal to a plain solve.
        a, _, _ = gen_diffusion(30)
        m = sparse.identity(30, format="csr")
        b = np.eye(30)[:, :2]
        for variant, initial_space in (("standard", "random"),
                                       ("inverse", "inverse_applied_to_b")):
            opts = SolverOptions(tol=1e-8, rng_seed=5, variant=variant,
                                 initial_space=initial_space)
            s_dae, r_dae = solve_dae(a, m, b, opts)
            s_std, r_std = solve(LyapunovProblem(a, None, b), opts)
            assert np.array_equal(s_dae.v, s_std.v)
            assert np.array_equal(s_dae.t, s_std.t)
            assert r_dae.to_json_dict() == r_std.to_json_dict()

    def test_inverse_variant_on_constrained_system(self):
        a, m, sites = gen_dae(25, 8, rng_seed=3)
        b = gen_forcing(sites, 33, "uncorrelated_columns").b
        opts = SolverOptions(
            tol=1e-9, variant="inverse", initial_space="inverse_applied_to_b",
            rng_seed=3,
        )
        sol, report = solve_dae(a, m, b, opts)
        assert report.converged
        assert report.imvp_count > 0
        ref = kron_solve_dae(a, m, b)
        err = np.linalg.norm(sol.to_dense() - ref) / np.linalg.norm(ref)
        assert err < 1e-6

    def test_forcing_on_constraint_rejected(self):
        a = _csr([[1.0, 0.0], [0.0, -1.0]])
        m = _csr(np.diag([0.0, 1.0]))
        b = np.array([[1.0], [1.0]])
        with pytest.raises(ForcingOnConstraintError):
            solve_dae(a, m, b)

    def test_rejected_lapack_argument_is_a_linalg_error(self, monkeypatch):
        # a LAPACK code for an invalid argument (info < 0) in the recovery
        # is a numerical breakdown (exit 4 from ``rails solve``), not a
        # usage error
        def dgeqrf(a, lwork=None, overwrite_a=False):
            return a, np.zeros(1), np.ones(1), -1

        monkeypatch.setattr(rails.dae, "dgeqrf", dgeqrf)
        a, m, sites = gen_dae(20, 6, rng_seed=2)
        b = gen_forcing(sites, 26, "row_sum_vector").b
        with pytest.raises(np.linalg.LinAlgError, match="dgeqrf rejected argument 1"):
            solve_dae(a, m, b, SolverOptions(tol=1e-8, rng_seed=2))

    def test_report_rank_reflects_full_space_factor(self):
        a, m, sites = gen_dae(20, 6, rng_seed=2)
        b = gen_forcing(sites, 26, "row_sum_vector").b
        sol, report = solve_dae(a, m, b, SolverOptions(tol=1e-8, rng_seed=2))
        assert report.final_rank == sol.rank
        assert sol.dimension == 26
