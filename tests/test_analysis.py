import csv

import numpy as np
import pytest

from rails.analysis import (
    eofs,
    gaussian_logpdf,
    sample_stationary,
    write_eigenvalue_csv,
    write_eof_csv,
)
from rails.errors import InvalidCovarianceError
from rails.lowrank import LowRankSolution

# log(1 / sqrt(2 pi)), the density height of a standard normal at its mean
LOG_INV_SQRT_2PI = -0.9189385332046727


def _diag_solution(values, n=None):
    values = np.asarray(values, dtype=float)
    r = values.size
    n = n or r
    return LowRankSolution(np.eye(n)[:, :r], np.diag(values))


class TestEofs:
    def test_diagonal_core(self):
        out = eofs(_diag_solution([3.0, 1.0]), 2)
        assert np.allclose(out.eigenvalues, [3.0, 1.0])
        assert np.allclose(out.weights, [0.75, 0.25])
        assert np.allclose(np.abs(out.vectors), np.eye(2))
        assert out.total_variance == 4.0

    def test_truncation_keeps_full_trace_weighting(self):
        out = eofs(_diag_solution([3.0, 1.0]), 1)
        assert out.vectors.shape == (2, 1)
        # The weight is still relative to the whole retained spectrum.
        assert np.allclose(out.weights, [0.75])
        assert out.total_variance == 4.0

    def test_ordering_from_shuffled_core(self):
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        lam = np.array([0.5, 4.0, 2.0, 1.0])
        core = q @ np.diag(lam) @ q.T
        sol = LowRankSolution(np.eye(6)[:, :4], core)
        out = eofs(sol, 4)
        assert np.allclose(out.eigenvalues, [4.0, 2.0, 1.0, 0.5], atol=1e-12)
        # EOFs diagonalize the dense covariance.
        c = sol.to_dense()
        for i in range(4):
            v = out.vectors[:, i]
            assert np.linalg.norm(c @ v - out.eigenvalues[i] * v) < 1e-10

    def test_vectors_orthonormal_in_full_space(self):
        rng = np.random.default_rng(3)
        v = np.linalg.qr(rng.standard_normal((12, 5)))[0]
        w = rng.standard_normal((5, 5))
        sol = LowRankSolution(v, w @ w.T)
        out = eofs(sol, 5)
        assert np.allclose(out.vectors.T @ out.vectors, np.eye(5), atol=1e-12)

    def test_scaling_moves_eigenvalues_not_vectors(self):
        sol = _diag_solution([3.0, 1.0])
        doubled = LowRankSolution(sol.v, 2.0 * sol.t)
        a = eofs(sol, 2)
        b = eofs(doubled, 2)
        assert np.allclose(b.eigenvalues, 2.0 * a.eigenvalues)
        assert np.allclose(b.weights, a.weights)
        assert np.allclose(np.abs(b.vectors), np.abs(a.vectors))

    def test_k_bounds(self):
        sol = _diag_solution([1.0])
        with pytest.raises(ValueError):
            eofs(sol, 0)
        with pytest.raises(ValueError):
            eofs(sol, 2)

    def test_materially_negative_core_rejected(self):
        sol = LowRankSolution(np.eye(2), np.diag([1.0, -0.1]))
        with pytest.raises(InvalidCovarianceError):
            eofs(sol, 1)

    def test_rounding_negative_clamped(self):
        sol = LowRankSolution(np.eye(2), np.diag([1.0, -1e-18]))
        out = eofs(sol, 2)
        assert out.eigenvalues[1] == 0.0


class TestGaussianLogpdf:
    def test_standard_normal_height(self):
        sol = _diag_solution([1.0])
        assert abs(gaussian_logpdf(np.zeros(1), np.zeros(1), sol)
                   - LOG_INV_SQRT_2PI) < 1e-14

    def test_quadratic_falloff(self):
        sol = _diag_solution([1.0])
        val = gaussian_logpdf(np.array([2.0]), np.zeros(1), sol)
        assert abs(val - (LOG_INV_SQRT_2PI - 2.0)) < 1e-13

    def test_matches_dense_full_rank(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((4, 4))
        c = w @ w.T + 0.5 * np.eye(4)
        lam, u = np.linalg.eigh(c)
        sol = LowRankSolution(u, np.diag(lam))
        x_star = rng.standard_normal(4)
        x = x_star + rng.standard_normal(4)
        val = gaussian_logpdf(x, x_star, sol)
        d = x - x_star
        ref = -0.5 * (
            4 * np.log(2 * np.pi)
            + np.linalg.slogdet(c)[1]
            + d @ np.linalg.solve(c, d)
        )
        assert abs(val - ref) < 1e-10

    def test_rank_deficient_on_support(self):
        # Covariance supported on the first axis only; a point on that
        # axis gets the 1-d density value.
        sol = _diag_solution([2.0], n=3)
        x = np.array([1.0, 0.0, 0.0])
        val = gaussian_logpdf(x, np.zeros(3), sol)
        ref = -0.5 * (np.log(2 * np.pi) + np.log(2.0) + 0.5)
        assert abs(val - ref) < 1e-13

    def test_off_support_is_minus_infinity(self):
        sol = _diag_solution([2.0], n=3)
        x = np.array([1.0, 0.5, 0.0])
        assert gaussian_logpdf(x, np.zeros(3), sol) == -np.inf

    def test_zero_rank_at_mean(self):
        sol = LowRankSolution(np.zeros((2, 0)), np.zeros((0, 0)))
        assert gaussian_logpdf(np.zeros(2), np.zeros(2), sol) == 0.0
        assert gaussian_logpdf(np.ones(2), np.zeros(2), sol) == -np.inf

    def test_maximized_at_mean(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 3))
        c = w @ w.T + np.eye(3)
        lam, u = np.linalg.eigh(c)
        sol = LowRankSolution(u, np.diag(lam))
        x_star = np.array([1.0, -2.0, 0.5])
        at_mean = gaussian_logpdf(x_star, x_star, sol)
        for _ in range(10):
            probe = x_star + rng.standard_normal(3)
            assert gaussian_logpdf(probe, x_star, sol) <= at_mean

    def test_points_must_have_the_solution_dimension(self):
        sol = _diag_solution([1.0], n=3)
        for x, x_star in [(np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(4))]:
            with pytest.raises(ValueError, match="problem dimension"):
                gaussian_logpdf(x, x_star, sol)

    def test_degenerate_direction_rejected(self):
        sol = LowRankSolution(np.eye(2), np.diag([1.0, 0.0]))
        with pytest.raises(InvalidCovarianceError):
            gaussian_logpdf(np.zeros(2), np.zeros(2), sol)


class TestSampling:
    def test_shape_and_determinism(self):
        sol = _diag_solution([2.0, 0.5], n=4)
        x_star = np.arange(4.0)
        s1 = sample_stationary(sol, x_star, 50, rng_seed=3)
        s2 = sample_stationary(sol, x_star, 50, rng_seed=3)
        assert s1.shape == (50, 4)
        assert np.array_equal(s1, s2)
        s3 = sample_stationary(sol, x_star, 50, rng_seed=4)
        assert not np.array_equal(s1, s3)

    def test_zero_rank_returns_mean(self):
        sol = LowRankSolution(np.zeros((3, 0)), np.zeros((0, 0)))
        x_star = np.array([1.0, 2.0, 3.0])
        s = sample_stationary(sol, x_star, 7)
        assert np.array_equal(s, np.tile(x_star, (7, 1)))

    def test_empirical_moments(self):
        rng = np.random.default_rng(10)
        v = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        sol = LowRankSolution(v, np.diag([3.0, 1.0]))
        x_star = rng.standard_normal(5)
        s = sample_stationary(sol, x_star, 200_000, rng_seed=0)
        assert np.abs(s.mean(axis=0) - x_star).max() < 0.02
        d = s - x_star
        cov = d.T @ d / (len(d) - 1)
        assert np.abs(cov - sol.to_dense()).max() < 0.05

    def test_materially_negative_core_rejected(self):
        # the same core eofs and gaussian_logpdf reject; sampling it as if
        # clamped would draw from a different covariance
        sol = _diag_solution([1.0, -1.0])
        with pytest.raises(InvalidCovarianceError):
            sample_stationary(sol, np.zeros(2), 5)

    def test_argument_errors(self):
        sol = _diag_solution([1.0], n=3)
        with pytest.raises(ValueError, match="count"):
            sample_stationary(sol, np.zeros(3), 0)
        with pytest.raises(ValueError, match="x_star"):
            sample_stationary(sol, np.zeros(2), 5)

    def test_samples_live_on_support(self):
        sol = _diag_solution([1.0], n=3)
        s = sample_stationary(sol, np.zeros(3), 20, rng_seed=1)
        assert np.abs(s[:, 1:]).max() == 0.0


class TestCsv:
    def test_eof_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        v = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        sol = LowRankSolution(v, np.diag([5.0, 2.0, 1.0]))
        out = eofs(sol, 3)
        path = tmp_path / "eofs.csv"
        write_eof_csv(path, out)
        table = np.loadtxt(path, delimiter=",")
        lam, vecs = table[0], table[1:]
        assert np.allclose(lam, out.eigenvalues, atol=0.0)
        assert np.allclose(vecs, out.vectors, atol=0.0)

    def test_eigenvalue_csv_layout(self, tmp_path):
        sol = _diag_solution([3.0, 1.0])
        path = tmp_path / "eig.csv"
        write_eigenvalue_csv(path, sol)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eigenvalue", "weighted"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 3.0
        assert abs(float(rows[1][1]) - 0.75) < 1e-15
        assert abs(float(rows[2][1]) - 0.25) < 1e-15
