import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import rails.solver
from conftest import rho_rounding_level
from rails.dae import partition, recover_full_covariance, schur_apply
from rails.errors import (
    ForcingOnConstraintError,
    ReductionImpossibleError,
    SingularMatrixError,
)
from rails.lowrank import LowRankSolution
from rails.solver import (
    LyapunovProblem, SolverOptions, residual_norm_and_vectors, solve, solve_dae,
)
from rails.testproblems import gen_dae, gen_forcing


def _csr(a):
    return sparse.csr_matrix(np.asarray(a, dtype=float))


TWO_VAR_A = _csr([[2.0, 1.0], [1.0, -3.0]])
TWO_VAR_M = _csr(np.diag([0.0, 1.0]))
TWO_VAR_B = np.array([[0.0], [1.0]])


class TestPartition:
    def test_rows_split_by_zero_mass_rows(self):
        sys = partition(TWO_VAR_A, TWO_VAR_M, TWO_VAR_B)
        assert np.array_equal(sys.algebraic_rows, [0])
        assert np.array_equal(sys.differential_rows, [1])
        assert sys.n_algebraic == 1
        assert sys.n_differential == 1
        assert sys.a11.toarray() == [[2.0]]
        ad = TWO_VAR_A.toarray()
        schur = ad[1, 1] - ad[1, 0] * ad[0, 1] / ad[0, 0]
        assert np.array_equal(sys.apply(np.ones((1, 1))), [[schur]])
        assert np.array_equal(sys.b2, [[1.0]])

    def test_identity_mass_is_pass_through(self):
        a = _csr(-np.eye(3))
        sys = partition(a, sparse.identity(3, format="csr"), np.ones((3, 1)))
        assert sys.is_pass_through()
        assert sys.n_differential == 3

    def test_interleaved_rows(self):
        # Constraint rows need not come first.
        a = _csr(np.diag([-1.0, 3.0, -2.0]))
        m = _csr(np.diag([1.0, 0.0, 1.0]))
        b = np.array([[1.0], [0.0], [2.0]])
        sys = partition(a, m, b)
        assert np.array_equal(sys.algebraic_rows, [1])
        assert np.array_equal(sys.differential_rows, [0, 2])
        assert np.array_equal(sys.b2, [[1.0], [2.0]])

    def test_forcing_on_constraint_rejected(self):
        b = np.array([[0.5], [1.0]])
        with pytest.raises(ForcingOnConstraintError):
            partition(TWO_VAR_A, TWO_VAR_M, b)

    def test_singular_constraint_block_rejected(self):
        a = _csr([[0.0, 1.0], [1.0, -3.0]])
        a[0, 1] = 0.0
        a.eliminate_zeros()
        m = TWO_VAR_M
        with pytest.raises(ReductionImpossibleError):
            partition(a, m, np.array([[0.0], [1.0]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            partition(TWO_VAR_A, _csr(np.zeros((3, 3))), TWO_VAR_B)

    def test_forcing_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="B has 3 rows"):
            partition(TWO_VAR_A, TWO_VAR_M, np.zeros((3, 1)))

    def test_singular_m22_rejected(self):
        # Rows 1 and 2 of M are nonzero, so both are differential, but
        # M22 = [[1, 1], [1, 1]] is singular.
        a = _csr(np.diag([2.0, -1.0, -1.0]))
        m = _csr([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            partition(a, m, np.array([[0.0], [1.0], [0.0]]))

    def test_keeps_only_the_algebraic_rows_of_a(self):
        # A is held once; of its blocks only A11 and A12 are cut out.
        a, m, sites = gen_dae(20, 8, rng_seed=12)
        sys = partition(a, m, np.zeros((28, 1)))
        assert sys.a11.nnz + sys.a12.nnz == a[sys.algebraic_rows].nnz
        held = {k for k, v in vars(sys).items() if sparse.issparse(v)}
        assert held == {"a_full", "a11", "a12", "m22"}

    def test_m22_identity_flag(self):
        a, m, sites = gen_dae(12, 4, rng_seed=1)
        assert partition(a, m, np.zeros((16, 1))).m22_is_identity
        a = _csr([[-2.0, 1.0], [0.0, -1.0]])
        m = 2.0 * sparse.identity(2, format="csr")
        assert not partition(a, m, np.ones((2, 1))).m22_is_identity


class TestSchurApply:
    def test_hand_solved_complement(self):
        # S = A22 - A21 A11^{-1} A12 = -3 - 1 * (1/2) * 1 = -3.5.
        sys = partition(TWO_VAR_A, TWO_VAR_M, TWO_VAR_B)
        out = schur_apply(sys, np.array([[1.0]]))
        assert np.allclose(out, [[-3.5]], atol=1e-14)

    def test_pass_through_is_plain_product(self):
        a = _csr([[-2.0, 1.0], [0.0, -1.0]])
        sys = partition(a, sparse.identity(2, format="csr"), np.ones((2, 1)))
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(schur_apply(sys, x), a.toarray(), atol=1e-15)

    def test_matches_dense_complement(self):
        rng = np.random.default_rng(12)
        a, m, sites = gen_dae(20, 8, rng_seed=12)
        b = gen_forcing(sites, 28, "uncorrelated_columns").b
        sys = partition(a, m, b)
        ad = a.toarray()
        alg = sys.algebraic_rows
        diff = sys.differential_rows
        s_dense = ad[np.ix_(diff, diff)] - ad[np.ix_(diff, alg)] @ np.linalg.solve(
            ad[np.ix_(alg, alg)], ad[np.ix_(alg, diff)]
        )
        x = rng.standard_normal((20, 3))
        assert np.allclose(schur_apply(sys, x), s_dense @ x, atol=1e-10)


class TestSchurOperator:
    def test_solve_inverts_apply(self):
        a, m, sites = gen_dae(25, 10, rng_seed=7)
        sys = partition(a, m, np.zeros((35, 0)))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((25, 2))
        back = sys.solve(sys.apply(x))
        assert np.allclose(back, x, atol=1e-8)
        back = sys.solve(sys.apply(x[:, 0]))
        assert back.shape == (25,)
        assert np.allclose(back, x[:, 0], atol=1e-8)

    def test_lift_of_either_order_gives_the_same_bits(self):
        a, m, _ = gen_dae(30, 12, rng_seed=3)
        sys = partition(a, m, np.zeros((42, 0)))
        x = np.random.default_rng(3).standard_normal((30, 5))
        by_rows = sys.lift(x)
        by_columns = sys.lift(np.asfortranarray(x), order="F")
        assert by_columns.flags.f_contiguous
        assert np.ascontiguousarray(by_columns).tobytes() == by_rows.tobytes()

    def test_lift_of_fortran_columns_holds_no_copy_of_them(self):
        # 4000 differential rows against 100 algebraic ones: a C-ordered
        # copy of x would nearly double what the lift allocates.
        a, m, _ = gen_dae(4000, 100, rng_seed=0)
        sys = partition(a, m, np.zeros((4100, 0)))
        x = np.asfortranarray(np.random.default_rng(0).standard_normal((4000, 8)))
        tracemalloc.start()
        try:
            full = sys.lift(x, order="F")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full.nbytes + x.nbytes // 2

    def test_singular_full_a_has_no_solve(self):
        # A11 = -1 factors, but S = 0 and so is the full A singular.
        sys = partition(_csr(np.diag([-1.0, 0.0])), TWO_VAR_M, TWO_VAR_B)
        with pytest.raises(SingularMatrixError):
            sys.solve(np.ones(1))


class TestPermutedRows:
    """gen_dae puts the algebraic rows first, one contiguous run. The same
    pencil under a symmetric permutation that interleaves them gives the
    same operator, solve, recovery and solution, permuted."""

    N_DIFF, N_ALG = 20, 8

    def _pencils(self):
        a, m, sites = gen_dae(self.N_DIFF, self.N_ALG, rng_seed=3)
        b = gen_forcing(sites[:2], self.N_DIFF + self.N_ALG, "uncorrelated_columns").b
        p = np.random.default_rng(3).permutation(self.N_DIFF + self.N_ALG)
        plain = partition(a, m, b)
        permuted = partition(a[p][:, p], m[p][:, p], b[p])
        for rows in (permuted.algebraic_rows, permuted.differential_rows):
            assert np.diff(rows).max() > 1  # not one contiguous run
        # the reduced variable j of ``permuted`` is the q[j]-th of ``plain``
        q = p[permuted.differential_rows] - self.N_ALG
        return (a, m, b), p, plain, permuted, q

    @staticmethod
    def _close(x, y):
        return np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_operator_and_solve(self):
        _, _, plain, permuted, q = self._pencils()
        x = np.random.default_rng(4).standard_normal((self.N_DIFF, 3))
        assert self._close(schur_apply(permuted, x[q]), schur_apply(plain, x)[q])
        assert self._close(permuted.solve(x[q]), plain.solve(x)[q])

    def test_recovery(self):
        _, p, plain, permuted, q = self._pencils()
        rng = np.random.default_rng(5)
        v = np.linalg.qr(rng.standard_normal((self.N_DIFF, 4)))[0]
        w = rng.standard_normal((4, 4))
        c = recover_full_covariance(plain, LowRankSolution(v, w @ w.T)).to_dense()
        cp = recover_full_covariance(permuted, LowRankSolution(v[q], w @ w.T)).to_dense()
        assert self._close(cp, c[np.ix_(p, p)])

    def test_solve_dae(self):
        (a, m, b), p, _, _, _ = self._pencils()
        opts = SolverOptions(tol=1e-13, initial_space="columns_of_b")
        sol, report = solve_dae(a, m, b, opts)
        permuted, permuted_report = solve_dae(a[p][:, p], m[p][:, p], b[p], opts)
        assert report.converged and permuted_report.converged
        assert self._close(permuted.to_dense(), sol.to_dense()[np.ix_(p, p)])


class TestRecovery:
    def test_two_var_closed_form(self):
        # The constraint x1 = -0.5 x2 turns the reduced variance 1/7 into
        # a fixed rank-one matrix on the full space.
        sys = partition(TWO_VAR_A, TWO_VAR_M, TWO_VAR_B)
        sol = LowRankSolution(np.array([[1.0]]), np.array([[1.0 / 7.0]]))
        full = recover_full_covariance(sys, sol)
        c = full.to_dense()
        expected = (1.0 / 7.0) * np.array([[0.25, -0.5], [-0.5, 1.0]])
        assert np.allclose(c, expected, atol=1e-14)
        assert full.dimension == 2

    def test_factor_stays_orthonormal(self):
        rng = np.random.default_rng(21)
        a, m, sites = gen_dae(30, 12, rng_seed=21)
        sys = partition(a, m, np.zeros((42, 0)))
        v = np.linalg.qr(rng.standard_normal((30, 5)))[0]
        w = rng.standard_normal((5, 5))
        sol = LowRankSolution(v, w @ w.T)
        full = recover_full_covariance(sys, sol)
        assert np.allclose(full.v.T @ full.v, np.eye(full.rank), atol=1e-12)

    def test_constraint_identities(self):
        # A11 C11 + A12 C21 = 0 and C12 = -A11^{-1} A12 C22 row for row.
        rng = np.random.default_rng(5)
        a, m, sites = gen_dae(18, 6, rng_seed=5)
        sys = partition(a, m, np.zeros((24, 0)))
        v = np.linalg.qr(rng.standard_normal((18, 4)))[0]
        w = rng.standard_normal((4, 4))
        sol = LowRankSolution(v, w @ w.T)
        c = recover_full_covariance(sys, sol).to_dense()
        alg = sys.algebraic_rows
        diff = sys.differential_rows
        ad = a.toarray()
        c22 = sol.to_dense()
        scale = max(np.abs(c22).max(), 1.0)
        # Reduced block is reproduced exactly on the differential rows.
        assert np.allclose(c[np.ix_(diff, diff)], c22, atol=1e-12 * scale)
        # Cross block honors the constraint elimination.
        expected_c12 = -np.linalg.solve(
            ad[np.ix_(alg, alg)], ad[np.ix_(alg, diff)] @ c22
        )
        assert np.allclose(c[np.ix_(alg, diff)], expected_c12, atol=1e-10 * scale)
        # Constraint rows of A C vanish.
        assert np.abs((ad @ c)[alg]).max() <= 1e-10 * scale

    def test_zero_coupling_keeps_algebraic_rows_zero(self):
        # With A12 = 0 the algebraic variables never move.
        a = _csr(np.diag([1.0, -1.0, -2.0]))
        m = _csr(np.diag([0.0, 1.0, 1.0]))
        sys = partition(a, m, np.array([[0.0], [1.0], [1.0]]))
        sol = LowRankSolution(np.eye(2), np.diag([0.3, 0.1]))
        c = recover_full_covariance(sys, sol).to_dense()
        assert np.abs(c[0]).max() == 0.0
        assert np.allclose(c[1:, 1:], np.diag([0.3, 0.1]), atol=1e-14)

    def test_pass_through_returns_same_object(self):
        a = _csr(-np.eye(4))
        sys = partition(a, sparse.identity(4, format="csr"), np.ones((4, 1)))
        sol = LowRankSolution(np.eye(4)[:, :2], np.diag([1.0, 2.0]))
        assert recover_full_covariance(sys, sol) is sol

    def test_rank_zero_lifts_to_empty_basis_and_checks_rows(self):
        sys = partition(TWO_VAR_A, TWO_VAR_M, TWO_VAR_B)
        full = recover_full_covariance(
            sys, LowRankSolution(np.zeros((1, 0)), np.zeros((0, 0)))
        )
        assert full.v.shape == (2, 0) and full.t.shape == (0, 0)
        wrong = LowRankSolution(np.zeros((2, 0)), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="differential rows"):
            recover_full_covariance(sys, wrong)


class TestFinalTrim:
    def test_last_rho_is_that_of_the_returned_reduced_iterate(self):
        a, m, sites = gen_dae(40, 10, rng_seed=4)
        b = gen_forcing(sites, 50, "uncorrelated_columns").b
        opts = SolverOptions(tol=1e-6, rng_seed=2)
        full, report = solve_dae(a, m, b, opts)
        sys = partition(a, m, b)
        problem = LyapunovProblem(sys, None, sys.b2)
        sol, reduced = solve(problem, opts)
        assert report.termination_reason == "converged"
        assert report.residual_history == reduced.residual_history
        assert full.rank == sol.rank == report.final_rank < reduced.max_space_dim
        # the recovery lifts the kept columns only: one A12 product and
        # one A11 solve each
        assert report.mvp_count == reduced.mvp_count + sol.rank
        assert report.imvp_count == reduced.imvp_count + sol.rank
        rho = report.residual_history[-1][1]
        exact = residual_norm_and_vectors(problem, sol, 0).norm2
        assert rho == pytest.approx(exact / np.linalg.norm(sys.b2, 2) ** 2,
                                    rel=1e-10, abs=rho_rounding_level(problem, sol))
        assert rho < opts.tol

    def test_rank_does_not_follow_the_eigensolver(self, monkeypatch):
        # The evr driver rounds otherwise than numpy's evd. The smallest
        # modes of these cores sit near the eps * d floor of the
        # tolerance-0 trim, which kept 8, 9 or 10 of them by rounding; the
        # residual budget decides the rank far from rounding.
        def evr(x):
            return scipy.linalg.eigh(x, driver="evr")

        ranks = {}
        for name, eigh in (("evd", np.linalg.eigh), ("evr", evr)):
            monkeypatch.setattr(rails.solver, "eigh", eigh)
            ranks[name] = []
            for seed in range(1, 11):
                a, m, sites = gen_dae(40, 10, rng_seed=seed)
                b = gen_forcing(sites, 50, "row_sum_vector").b
                sol, report = solve_dae(a, m, b, SolverOptions(tol=1e-8, rng_seed=seed))
                assert report.converged
                ranks[name].append(sol.rank)
        assert ranks["evd"] == ranks["evr"]
