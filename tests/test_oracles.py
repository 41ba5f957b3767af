"""Checks for the independent verification routines.

These routines cross-check the iterative solver, so they get their own
hand-verified expected values here rather than relying on any shared code
path with the solver.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from conftest import random_hurwitz
from rails.errors import (
    ForcingOnConstraintError,
    NoUniqueSolutionError,
    OracleSizeError,
    SimulationBlowupError,
)
from rails.dae import partition
from rails.oracles import (
    KRON_SIZE_CAP,
    SimulationConfig,
    _CHUNK_STEPS,
    _covariance,
    _merge_moments,
    _moments,
    empirical_covariance,
    euler_maruyama_covariance,
    kron_solve,
    kron_solve_dae,
    residual_matrix,
)


class TestKronSolve:
    def test_scalar(self):
        # a c + c a + b^2 = 0 with a = -1, b = 2 gives c = 2.
        c = kron_solve(np.array([[-1.0]]), np.array([[1.0]]), np.array([[2.0]]))
        assert c.shape == (1, 1)
        assert abs(c[0, 0] - 2.0) < 1e-14

    def test_hand_solved_two_by_two(self):
        # Solved by hand from the three independent scalar equations:
        # the stationary covariance is the rank-one matrix 0.5 * ones.
        a = np.array([[-2.0, 1.0], [0.0, -1.0]])
        b = np.array([[1.0], [1.0]])
        c = kron_solve(a, np.eye(2), b)
        expected = 0.5 * np.ones((2, 2))
        assert np.allclose(c, expected, atol=1e-14)

    def test_identity_forcing(self):
        # -2C + I = 0 so C = I/2.
        c = kron_solve(-np.eye(3), np.eye(3), np.eye(3))
        assert np.allclose(c, 0.5 * np.eye(3), atol=1e-14)

    def test_nontrivial_mass(self):
        # Diagonal problem with mass 2I: -4C + BB^T = 0.
        b = np.array([[2.0], [0.0]])
        c = kron_solve(-np.eye(2), 2.0 * np.eye(2), b)
        assert np.allclose(c, np.diag([1.0, 0.0]), atol=1e-14)

    def test_sparse_inputs_accepted(self):
        a = sparse.csr_matrix(-np.eye(2))
        b = np.array([[1.0], [1.0]])
        c = kron_solve(a, sparse.identity(2, format="csr"), b)
        expected = kron_solve(a.toarray(), np.eye(2), b)
        assert np.allclose(c, expected, atol=1e-14)

    def test_residual_is_small(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = 8
            a = random_hurwitz(rng, n)
            m = np.eye(n) + 0.1 * rng.standard_normal((n, n))
            b = rng.standard_normal((n, 3))
            c = kron_solve(a, m, b)
            r = residual_matrix(a, m, b, c)
            scale = np.linalg.norm(b @ b.T)
            assert np.linalg.norm(r) <= 1e-8 * scale

    def test_solution_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        a = random_hurwitz(rng, 10)
        b = rng.standard_normal((10, 2))
        c = kron_solve(a, np.eye(10), b)
        assert np.allclose(c, c.T, atol=1e-12)
        w = np.linalg.eigvalsh(c)
        assert w.min() >= -1e-10 * max(w.max(), 1.0)

    def test_imaginary_axis_spectrum_rejected(self):
        # Rotation generator: eigenvalues +-i, the Sylvester operator is
        # singular and no unique stationary covariance exists.
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.array([[1.0], [0.0]])
        with pytest.raises(NoUniqueSolutionError):
            kron_solve(a, np.eye(2), b)

    def test_size_cap(self):
        n = 61
        with pytest.raises(OracleSizeError):
            kron_solve(-np.eye(n), np.eye(n), np.ones((n, 1)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kron_solve(-np.eye(2), np.eye(3), np.ones((2, 1)))
        with pytest.raises(ValueError):
            kron_solve(-np.eye(2), np.eye(2), np.ones((3, 1)))


class TestKronSolveDae:
    def test_hand_solved_constrained_pair(self):
        # One constraint row and one dynamic row.  Eliminating the
        # constraint gives s = -1 and stationary variance 0.5 for the
        # dynamic variable, zero elsewhere.
        a = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        m = sparse.csr_matrix(np.diag([0.0, 1.0]))
        b = np.array([[0.0], [1.0]])
        c = kron_solve_dae(a, m, b)
        assert np.allclose(c, np.diag([0.0, 0.5]), atol=1e-14)

    def test_coupled_constraint(self):
        # x1 = -0.5 x2 through the constraint 2 x1 + x2 = 0, so the full
        # covariance is v * [0.25, -0.5; -0.5, 1] with v the variance of
        # the dynamic variable under the reduced drift.
        a = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, -3.0]]))
        m = sparse.csr_matrix(np.diag([0.0, 1.0]))
        b = np.array([[0.0], [1.0]])
        # Reduced drift s = a22 - a21 a11^{-1} a12 = -3 - 0.5 = -3.5,
        # hence the dynamic variance is 1 / (2 * 3.5) = 1/7.
        c = kron_solve_dae(a, m, b)
        v = 1.0 / 7.0
        expected = v * np.array([[0.25, -0.5], [-0.5, 1.0]])
        assert np.allclose(c, expected, atol=1e-14)

    def test_forcing_on_a_constraint_rejected_as_partition_does(self):
        a = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, -3.0]]))
        m = sparse.csr_matrix(np.diag([0.0, 1.0]))
        b = np.array([[0.5], [1.0]])
        with pytest.raises(ForcingOnConstraintError, match=r"rows \[0\]") as oracle:
            kron_solve_dae(a, m, b)
        with pytest.raises(ForcingOnConstraintError) as solver:
            partition(a, m, b)
        assert str(oracle.value) == str(solver.value)

    def test_matches_plain_kron_without_constraints(self):
        rng = np.random.default_rng(7)
        a = random_hurwitz(rng, 6)
        b = rng.standard_normal((6, 2))
        dense = kron_solve(a, np.eye(6), b)
        via_dae = kron_solve_dae(
            sparse.csr_matrix(a), sparse.identity(6, format="csr"), b
        )
        assert np.allclose(dense, via_dae, atol=1e-12)

    def test_full_residual_on_differential_rows(self):
        # The recovered full covariance must satisfy the original equation
        # restricted to the dynamic rows, and annihilate the constraints.
        from rails.testproblems import gen_dae, gen_forcing

        a, m, sites = gen_dae(12, 4, rng_seed=5)
        b = gen_forcing(sites, 16, "uncorrelated_columns").b
        c = kron_solve_dae(a, m, b)
        r = residual_matrix(a.toarray(), m.toarray(), b, c)
        parts = partition(a, m, b)
        alg = parts.algebraic_rows
        scale = np.linalg.norm(b @ b.T)
        assert np.linalg.norm(r) <= 1e-8 * scale
        # Constraint rows of A C must vanish: A11 C11 + A12 C21 = 0.
        ac = a.toarray() @ c
        assert np.abs(ac[alg]).max() <= 1e-8 * max(np.abs(c).max(), 1.0)

    @pytest.mark.parametrize("oracle", [kron_solve, kron_solve_dae])
    def test_size_cap_precedes_densifying(self, oracle):
        # A sparse pencil past every cap is refused before any n x n array
        # is formed.
        n = 10 * KRON_SIZE_CAP + 1
        a = -sparse.identity(n, format="csr")
        b = np.ones((n, 1))
        tracemalloc.start()
        try:
            with pytest.raises(OracleSizeError):
                oracle(a, sparse.identity(n, format="csr"), b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 20


def _as_system(a, m, b):
    return partition(sparse.csr_matrix(a), sparse.csr_matrix(m), np.asarray(b))


class TestEulerMaruyama:
    def test_scalar_ornstein_uhlenbeck(self):
        # dx = -x dt + sqrt(2) dW has stationary variance exactly 1.
        sys = _as_system([[-1.0]], [[1.0]], [[np.sqrt(2.0)]])
        cfg = SimulationConfig(
            dt=1e-2, n_steps=1_000_000, burn_in=10_000, sample_stride=10,
            rng_seed=42,
        )
        cov, kept = euler_maruyama_covariance(sys, cfg)
        assert kept == (1_000_000 - 10_000) // 10
        assert abs(cov[0, 0] - 1.0) < 0.05

    def test_two_dim_matches_kron(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])
        b = np.array([[1.0, 0.0], [0.5, 1.0]])
        exact = kron_solve(a, np.eye(2), b)
        cfg = SimulationConfig(
            dt=1e-3, n_steps=2_000_000, burn_in=50_000, sample_stride=20,
            rng_seed=1,
        )
        cov, _ = euler_maruyama_covariance(_as_system(a, np.eye(2), b), cfg)
        assert np.abs(cov - exact).max() <= 0.1 * np.abs(exact).max()

    def test_blowup_detected(self):
        # Unstable drift must raise rather than return garbage.
        sys = _as_system([[5.0]], [[1.0]], [[1.0]])
        cfg = SimulationConfig(dt=1.0, n_steps=100_000, rng_seed=0)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(SimulationBlowupError):
                euler_maruyama_covariance(sys, cfg)

    def test_size_cap(self):
        n = 501
        sys = _as_system(
            -sparse.identity(n, format="csr"),
            sparse.identity(n, format="csr"),
            np.ones((n, 1)),
        )
        cfg = SimulationConfig(dt=1e-2, n_steps=10)
        with pytest.raises(OracleSizeError):
            euler_maruyama_covariance(sys, cfg)

    def test_memory_does_not_grow_with_the_samples(self):
        # The bound is five chunks of states: drawn noise, kicks, kept rows
        # and their centred copy. Keeping all 30000 kept states (1.9 MB)
        # and a centred copy of them would pass it.
        nd = 8
        sys = _as_system(-np.diag(np.linspace(1.0, 2.0, nd)), np.eye(nd),
                         np.eye(nd)[:, :2])
        cfg = SimulationConfig(dt=1e-2, n_steps=30_000, rng_seed=3)
        tracemalloc.start()
        try:
            _, kept = euler_maruyama_covariance(sys, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == 30_000
        assert peak < 5 * _CHUNK_STEPS * nd * 8 < 2 * kept * nd * 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(dt=0.0, n_steps=10)
        with pytest.raises(ValueError):
            SimulationConfig(dt=1e-2, n_steps=0)
        with pytest.raises(ValueError):
            SimulationConfig(dt=1e-2, n_steps=10, burn_in=10)
        with pytest.raises(ValueError):
            SimulationConfig(dt=1e-2, n_steps=10, sample_stride=0)


class TestEmpiricalCovariance:
    def test_antipodal_pair(self):
        x = np.array([1.0, 2.0])
        samples = np.vstack([x, -x])
        cov = empirical_covariance(samples)
        # Mean is zero, divisor is n - 1 = 1, so cov = 2 x x^T.
        assert np.allclose(cov, 2.0 * np.outer(x, x), atol=1e-14)

    def test_constant_samples(self):
        samples = np.tile(np.array([3.0, -1.0]), (5, 1))
        assert np.allclose(empirical_covariance(samples), 0.0, atol=1e-14)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            empirical_covariance(np.ones((1, 4)))

    def test_chunked_moments_match_two_pass(self):
        # Merging the moments of uneven chunks (one of a single sample)
        # gives the two-pass covariance of all samples.
        rng = np.random.default_rng(8)
        samples = 3.0 + rng.standard_normal((1000, 6)) @ rng.standard_normal((6, 6))
        moments = (0, 0.0, 0.0)
        for chunk in np.split(samples, [1, 8, 300, 301, 777]):
            moments = _merge_moments(moments, _moments(chunk))
        assert moments[0] == 1000
        expected = empirical_covariance(samples)
        got = _covariance(moments)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
