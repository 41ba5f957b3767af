import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import random_hurwitz, random_spd
from rails.dense_lyap import DIMENSION_CAP, ProjectedSystem, solve_projected
from rails.errors import SingularMatrixError, StabilityError
from rails.oracles import kron_solve, residual_matrix


def _standard(f, g):
    """Solve F T + T F' + G G' = 0: the projected solve with M = I."""
    return solve_projected(ProjectedSystem(f, np.eye(len(f)), g))


class TestStandardForm:
    def test_zero_forcing(self):
        f = np.diag([-1.0, -2.0])
        c = _standard(f, np.zeros((2, 1)))
        assert np.array_equal(c, np.zeros((2, 2)))

    def test_diagonal(self):
        # f c + c f + q = 0 with f = -I: c = q / 2.
        q = np.diag([4.0, 2.0])
        c = _standard(-np.eye(2), np.diag([2.0, np.sqrt(2.0)]))
        assert np.allclose(c, q / 2.0, atol=1e-14)

    def test_hand_solved_pair(self):
        a = np.array([[-2.0, 1.0], [0.0, -1.0]])
        b = np.array([[1.0], [1.0]])
        c = _standard(a, b)
        assert np.allclose(c, 0.5 * np.ones((2, 2)), atol=1e-13)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            n = 12
            f = random_hurwitz(rng, n)
            b = rng.standard_normal((n, 4))
            q = b @ b.T
            c = _standard(f, b)
            ref = kron_solve(f, np.eye(n), b)
            assert np.allclose(c, ref, atol=1e-9 * np.linalg.norm(q))

    def test_complex_spectrum(self):
        # Spiral sink: a 2x2 Schur block exercises the quasi-triangular
        # path inside the back substitution.
        f = np.array([[-0.5, 4.0], [-4.0, -0.5]])
        q = np.eye(2)
        c = _standard(f, q)
        r = f @ c + c @ f.T + q
        assert np.abs(r).max() < 1e-12

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            _standard(np.diag([-1.0, 0.5]), np.eye(2))

    def test_marginal_rejected(self):
        # Pure rotation sits on the imaginary axis.
        f = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(StabilityError):
            _standard(f, np.eye(2))

    def test_many_rotation_blocks_match_kron(self):
        # Twenty 2x2 rotation blocks, coupled above the block diagonal and
        # hidden by an orthogonal similarity: the Schur factor is all 2x2
        # blocks.
        rng = np.random.default_rng(41)
        blocks = [np.array([[-s, w], [-w, -s]])
                  for s, w in zip(rng.uniform(0.1, 2.0, 20),
                                  rng.uniform(0.5, 5.0, 20))]
        upper = np.kron(np.triu(rng.standard_normal((20, 20)), 1),
                        np.ones((2, 2)))
        q0, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        f = q0 @ (scipy.linalg.block_diag(*blocks) + 0.2 * upper) @ q0.T
        b = rng.standard_normal((40, 3))
        c = _standard(f, b)
        ref = kron_solve(f, np.eye(40), b)
        assert np.linalg.norm(c - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_clustered_eigenvalues_residual(self):
        # Near-equal eigenvalues, real and as complex pairs with a
        # non-normal coupling, make the Sylvester blocks nearly singular.
        rng = np.random.default_rng(43)
        n = 30
        w = rng.standard_normal((n, n))
        real = w @ np.diag(-1.0 + 1e-9 * rng.standard_normal(n)) @ np.linalg.inv(w)
        pairs = scipy.linalg.block_diag(*[
            np.array([[s, 3.0], [-3.0, s]])
            for s in -0.5 + 1e-8 * rng.standard_normal(n // 2)
        ]) + 0.3 * np.kron(np.triu(np.ones((n // 2, n // 2)), 1), np.ones((2, 2)))
        q0, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = rng.standard_normal((n, 2))
        q = b @ b.T
        for f in (real, q0 @ pairs @ q0.T):
            c = _standard(f, b)
            r = f @ c + c @ f.T + q
            scale = 2.0 * np.linalg.norm(f) * np.linalg.norm(c) + np.linalg.norm(q)
            assert np.linalg.norm(r) <= 1e-13 * scale

    def test_unstable_complex_pair_named(self):
        # The only unstable eigenvalues are the pair 0.3 +- 2i.
        rng = np.random.default_rng(47)
        d = np.diag(-rng.uniform(0.5, 3.0, 8))
        d[:2, :2] = [[0.3, 2.0], [-2.0, 0.3]]
        q0, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        f = q0 @ d @ q0.T
        with pytest.raises(StabilityError) as err:
            _standard(f, np.eye(8))
        msg = str(err.value)
        assert "3.000000e-01" in msg
        assert "2.000000e+00j" in msg

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        f = random_hurwitz(rng, 15)
        b = rng.standard_normal((15, 3))
        c = _standard(f, b)
        assert np.array_equal(c, c.T)


class TestProjectedSolve:
    def test_hand_solved_with_mass(self):
        # (-I) T (2I) + (2I) T (-I) + 2 e1 e1' = 0 gives T = e1 e1' / 2.
        a = -np.eye(2)
        m = 2.0 * np.eye(2)
        b = np.array([[np.sqrt(2.0)], [0.0]])
        t = solve_projected(ProjectedSystem(a, m, b))
        assert np.allclose(t, np.diag([0.5, 0.0]), atol=1e-14)

    def test_empty_system(self):
        t = solve_projected(ProjectedSystem(
            np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))
        ))
        assert t.shape == (0, 0)

    def test_matches_kron_with_general_mass(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            n = 10
            m = random_spd(rng, n, floor=1.0)
            # A = -m-spd product keeps the pencil stable.
            a = -random_spd(rng, n, floor=0.5)
            b = rng.standard_normal((n, 2))
            t = solve_projected(ProjectedSystem(a, m, b))
            ref = kron_solve(a, m, b)
            scale = np.linalg.norm(b @ b.T)
            assert np.linalg.norm(t - ref) <= 1e-9 * max(scale, 1.0)

    def test_residual_property(self):
        rng = np.random.default_rng(31)
        for n in (5, 20, 60):
            m = random_spd(rng, n, floor=1.0)
            a = -random_spd(rng, n, floor=0.5)
            b = rng.standard_normal((n, 3))
            t = solve_projected(ProjectedSystem(a, m, b))
            r = residual_matrix(a, m, b, t)
            assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b @ b.T)

    def test_residual_property_large(self):
        rng = np.random.default_rng(37)
        for n in (200, 400):
            m = random_spd(rng, n, floor=1.0)
            a = -random_spd(rng, n, floor=0.5)
            b = rng.standard_normal((n, 3))
            t = solve_projected(ProjectedSystem(a, m, b))
            r = residual_matrix(a, m, b, t)
            assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b @ b.T)

    def test_singular_mass_rejected(self):
        a = -np.eye(2)
        m = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            solve_projected(ProjectedSystem(a, m, np.eye(2)))

    def test_unstable_pencil_rejected(self):
        with pytest.raises(StabilityError):
            solve_projected(ProjectedSystem(np.eye(2), np.eye(2), np.eye(2)))

    def test_dimension_cap(self):
        n = DIMENSION_CAP + 1
        sys = ProjectedSystem(-np.eye(n), np.eye(n), np.ones((n, 1)))
        with pytest.raises(ValueError):
            solve_projected(sys)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ProjectedSystem(np.eye(2), np.eye(3), np.ones((2, 1)))
        with pytest.raises(ValueError):
            ProjectedSystem(np.eye(2), np.eye(2), np.ones((3, 1)))
        with pytest.raises(ValueError):
            ProjectedSystem(np.ones((2, 3)), np.eye(2), np.ones((2, 1)))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a = random_hurwitz(rng, 14)
        b = rng.standard_normal((14, 2))
        sys = ProjectedSystem(a, np.eye(14), b)
        t1 = solve_projected(sys)
        t2 = solve_projected(sys)
        assert np.array_equal(t1, t2)


def _wrapper_reference(a, m, b):
    """The projected solve built from the scipy.linalg wrappers."""
    lu, piv = scipy.linalg.lu_factor(m)
    f = scipy.linalg.lu_solve((lu, piv), a)
    g = scipy.linalg.lu_solve((lu, piv), b)
    r, u = scipy.linalg.schur(f, output="real")
    qh = u.T @ (g @ g.T) @ u
    qh = 0.5 * (qh + qh.T)
    y, scale, info = scipy.linalg.lapack.dtrsyl(r, r, -qh, tranb="T")
    assert info == 0
    y = (0.5 / scale) * (y + y.T)
    t = u @ y @ u.T
    return 0.5 * (t + t.T)


class TestLapackPath:
    @pytest.mark.parametrize("d", [1, 2, 7, 40, 74])
    def test_bitwise_equal_to_wrapper_reference(self, d):
        rng = np.random.default_rng(100 + d)
        f = (np.array([[-1.0, 2.0], [-3.0, -1.0]]) if d == 2
             else random_hurwitz(rng, d))
        if d > 1:
            assert np.iscomplex(np.linalg.eigvals(f)).any()
        b = rng.standard_normal((d, 3))
        for m in (np.eye(d), np.eye(d) + 0.2 * rng.standard_normal((d, d))):
            a = m @ f  # M^{-1} A = F up to rounding
            for arrays in ((a, m, b), (np.asfortranarray(a), m, b)):
                t = solve_projected(ProjectedSystem(*arrays))
                assert np.array_equal(t, _wrapper_reference(*arrays))

    def test_exactly_singular_mass_raises_no_warning(self, monkeypatch):
        # The zero pivot alone gives the error: no warning is issued, and
        # the warning filters, which all threads share, are left alone.
        a = -np.eye(3)
        m = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])

        def refuse(*args, **kwargs):
            raise AssertionError("warning filters changed")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            with monkeypatch.context() as patch:
                for name in ("simplefilter", "filterwarnings", "catch_warnings"):
                    patch.setattr(warnings, name, refuse)
                with pytest.raises(SingularMatrixError):
                    solve_projected(ProjectedSystem(a, m, np.ones((3, 1))))
            assert warnings.filters == filters
        assert caught == []
