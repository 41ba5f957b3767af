import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator

from rails.matrices import lanczos_topk, orthonormalize


class TestOrthonormalize:
    def test_identity_unchanged(self):
        q, kept = orthonormalize(np.eye(3))
        assert kept == 3
        assert np.array_equal(q, np.eye(3))

    def test_duplicate_column_dropped(self):
        e1 = np.array([[1.0], [0.0]])
        q, kept = orthonormalize(np.hstack([e1, e1]))
        assert kept == 1
        assert q.shape == (2, 1)
        assert np.allclose(np.abs(q[:, 0]), [1.0, 0.0])

    def test_zero_column_dropped(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        q, kept = orthonormalize(w)
        assert kept == 1

    def test_span_matches_qr(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((50, 8))
        q, kept = orthonormalize(w)
        assert kept == 8
        assert np.allclose(q.T @ q, np.eye(8), atol=1e-12)
        # Same span as a reference QR: projectors coincide.
        ref = np.linalg.qr(w)[0]
        assert np.allclose(q @ q.T, ref @ ref.T, atol=1e-10)

    def test_against_existing_basis(self):
        rng = np.random.default_rng(5)
        base, _ = orthonormalize(rng.standard_normal((40, 6)))
        w = rng.standard_normal((40, 4))
        q, kept = orthonormalize(w, against=base)
        assert kept == 4
        assert np.abs(base.T @ q).max() <= 1e-10
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)

    def test_column_inside_existing_span_dropped(self):
        base = np.eye(4)[:, :2]
        w = np.array([[1.0], [1.0], [0.0], [0.0]])
        q, kept = orthonormalize(w, against=base)
        assert kept == 0
        assert q.shape == (4, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            orthonormalize(np.eye(3), against=np.eye(4)[:, :1])

    @pytest.mark.parametrize("with_basis", [False, True])
    def test_near_dependent_columns(self, with_basis):
        # Hilbert columns are close to dependent: the kept ones must still
        # be orthonormal and orthogonal to the fixed basis at working
        # precision, and span what was given.
        w = scipy.linalg.hilbert(60)[:, :12]
        base = None
        if with_basis:
            base, _ = orthonormalize(np.random.default_rng(3).standard_normal((60, 5)))
        q, kept = orthonormalize(w, against=base)
        assert 0 < kept < 12
        assert np.abs(q.T @ q - np.eye(kept)).max() <= 1e-12
        full = q if base is None else np.hstack([base, q])
        if base is not None:
            assert np.abs(base.T @ q).max() <= 1e-12
        assert np.linalg.norm(w - full @ (full.T @ w)) <= 1e-6 * np.linalg.norm(w)

    def test_input_unmodified(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((30, 4))
        base, _ = orthonormalize(rng.standard_normal((30, 3)))
        w_copy, base_copy = w.copy(), base.copy()
        orthonormalize(w, against=base)
        assert np.array_equal(w, w_copy)
        assert np.array_equal(base, base_copy)


class TestLanczos:
    def test_diagonal_top_pair(self):
        op = np.diag([3.0, 1.0, 0.0])
        res = lanczos_topk(op, 1)
        assert res.converged
        assert abs(res.eigenvalues[0] - 3.0) < 1e-10
        assert np.allclose(np.abs(res.eigenvectors[:, 0]), [1.0, 0.0, 0.0],
                           atol=1e-8)

    def test_signed_extreme(self):
        # Largest magnitude wins, not largest value.
        op = np.diag([-5.0, 2.0])
        res = lanczos_topk(op, 1)
        assert abs(res.eigenvalues[0] + 5.0) < 1e-10

    def test_identity_early_stop(self):
        op = np.eye(5)
        res = lanczos_topk(op, 1)
        assert res.converged
        assert res.steps <= 2
        assert abs(res.eigenvalues[0] - 1.0) < 1e-12

    def test_zero_operator(self):
        op = LinearOperator((4, 4), matvec=lambda x: np.zeros_like(x), dtype=float)
        res = lanczos_topk(op, 2)
        assert np.allclose(res.eigenvalues, 0.0, atol=1e-14)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((40, 40))
        sym = (w + w.T) / 2
        res = lanczos_topk(sym, 3, max_steps=40)
        assert res.converged
        dense = np.linalg.eigvalsh(sym)
        top3 = dense[np.argsort(np.abs(dense))[::-1][:3]]
        assert np.allclose(np.sort(res.eigenvalues), np.sort(top3), atol=1e-8)
        # Eigenvector residuals back the reported eigenvalues.
        for i in range(3):
            v = res.eigenvectors[:, i]
            lam = res.eigenvalues[i]
            assert np.linalg.norm(sym @ v - lam * v) <= 1e-6 * abs(lam)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((25, 25))
        sym = w + w.T
        r1 = lanczos_topk(sym, 2, rng_seed=13)
        r2 = lanczos_topk(sym, 2, rng_seed=13)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)

    def test_unconverged_flagged(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((60, 60))
        sym = w + w.T
        res = lanczos_topk(sym, 3, max_steps=3, tol=1e-14)
        assert not res.converged
        assert res.eigenvalues.shape == (3,)

    def test_rank_deficient_operator(self):
        # Rank-one operator: Lanczos hits an invariant subspace after one
        # step and must recover rather than divide by zero.
        u = np.zeros(10)
        u[0] = 1.0
        mat = 4.0 * np.outer(u, u)
        res = lanczos_topk(mat, 2, max_steps=10)
        assert abs(res.eigenvalues[0] - 4.0) < 1e-10

    def test_large_diagonal_operator(self):
        # n = 3000: the top eigenvalues by magnitude are known and well
        # separated from a dense bulk in [-5, 5].
        n = 3000
        d = np.concatenate([[10.0, -9.0, 8.0], np.linspace(-5.0, 5.0, n - 3)])
        d = d[np.random.default_rng(0).permutation(n)]
        op = LinearOperator((n, n), matvec=lambda x: d * x, dtype=float)
        res = lanczos_topk(op, 3, max_steps=60, tol=1e-10)
        assert res.converged
        assert np.allclose(res.eigenvalues, [10.0, -9.0, 8.0], atol=1e-8)
        for i in range(3):
            v = res.eigenvectors[:, i]
            lam = res.eigenvalues[i]
            assert np.linalg.norm(d * v - lam * v) <= 1e-6 * abs(lam)

    def test_k_validation(self):
        op = np.eye(2)
        with pytest.raises(ValueError):
            lanczos_topk(op, 0)
        with pytest.raises(ValueError):
            lanczos_topk(op, 3)
