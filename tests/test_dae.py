import numpy as np
import pytest
import scipy.sparse as sparse

from rails.dae import partition, recover_full_covariance, schur_apply
from rails.errors import (
    ForcingOnConstraintError,
    ReductionImpossibleError,
    SingularMatrixError,
)
from rails.lowrank import LowRankSolution
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
        assert sys.a22.toarray() == [[-3.0]]
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

    def test_singular_full_a_has_no_solve(self):
        # A11 = -1 factors, but S = 0 and so is the full A singular.
        sys = partition(_csr(np.diag([-1.0, 0.0])), TWO_VAR_M, TWO_VAR_B)
        with pytest.raises(SingularMatrixError):
            sys.solve(np.ones(1))


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
