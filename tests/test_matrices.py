import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from rails.dae import partition
from rails.dense_lyap import ProjectedSystem
from rails.matrices import (
    _gram_schmidt,
    as_matrix,
    check_sparse,
    orthonormalize,
)
from rails.oracles import kron_solve, kron_solve_dae, residual_matrix
from rails.solver import LyapunovProblem


class TestInputChecks:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            check_sparse(sparse.csr_matrix(np.array([[1.0, value]])))
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, value]])

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="ndim=3"):
            as_matrix(np.zeros((2, 2, 2)))

    def test_complex_values_rejected(self):
        # even with a zero imaginary part: casting would drop it silently
        with pytest.raises(ValueError, match="must be real"):
            check_sparse(sparse.csr_matrix(np.array([[1.0, 2.0j]])))
        with pytest.raises(ValueError, match="must be real"):
            as_matrix(np.array([[1.0 + 0.0j]]))
        with pytest.raises(ValueError, match="must be real"):
            as_matrix([1.0, 1j])

    def test_float64_matrix_returned_uncopied(self):
        m = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        assert as_matrix(m) is m


# Every entry point that takes a pencil (A, M, B), given as dense arrays.
_PENCIL_ENTRY_POINTS = {
    "partition": partition,
    "LyapunovProblem": LyapunovProblem,
    "kron_solve": kron_solve,
    "kron_solve_dae": kron_solve_dae,
    "ProjectedSystem": ProjectedSystem,
    "residual_matrix": lambda a, m, b: residual_matrix(a, m, b, np.eye(3)),
}

# A stable pencil of order 3 with one part malformed, and the one message
# every entry point refuses it with.
_MALFORMED_PENCILS = {
    "a-not-square": ((np.ones((3, 4)), np.eye(3), np.ones((3, 1))), "A must be square"),
    "m-size": ((-np.eye(3), np.eye(2), np.ones((3, 1))), "M must match A in size"),
    "b-too-few-rows": ((-np.eye(3), np.eye(3), np.ones((2, 1))), "B has 2 rows, expected 3"),
    "b-too-many-rows": ((-np.eye(3), np.eye(3), np.ones((4, 1))), "B has 4 rows, expected 3"),
}


class TestPencilContract:
    @pytest.mark.parametrize("entry", list(_PENCIL_ENTRY_POINTS))
    @pytest.mark.parametrize("case", list(_MALFORMED_PENCILS))
    def test_one_contract_one_answer(self, case, entry):
        (a, m, b), message = _MALFORMED_PENCILS[case]
        with pytest.raises(ValueError) as info:
            _PENCIL_ENTRY_POINTS[entry](a, m, b)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    def test_dae_operator_checks_the_mass_size(self):
        # row 0 is algebraic, so the operator S is 2 x 2
        sys = partition(sparse.csr_matrix(-np.eye(3)), sparse.diags([0.0, 1.0, 1.0]),
                        np.array([[0.0], [1.0], [1.0]]))
        assert sys.shape == (2, 2)
        with pytest.raises(ValueError) as info:
            LyapunovProblem(sys, sparse.identity(3, format="csr"), sys.b2)
        assert str(info.value) == "M must match A in size"


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

    @pytest.mark.parametrize("value", [1e155, 1e-170])
    def test_column_norm_out_of_double_range_raises(self, value):
        # the squared norm overflows or underflows to 0: dropping the
        # column as dependent would be a guess
        w = np.array([[1.0, value], [0.0, value]])
        with pytest.raises(np.linalg.LinAlgError, match="rescale"):
            orthonormalize(w)

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


class TestGramSchmidt:
    """The kernel behind ``orthonormalize`` and the solver's basis W."""

    @pytest.mark.parametrize("p", [0, 5])
    def test_coefficients_reconstruct_the_input(self, p):
        rng = np.random.default_rng(11)
        against = np.linalg.qr(rng.standard_normal((40, p)))[0]
        x = rng.standard_normal((40, 6))
        x[:, 3] = x[:, 0] - 2.0 * x[:, 1]  # dependent: dropped
        if p:
            x[:, 4] = against @ rng.standard_normal(p)  # inside against
        out = np.empty((40, 6), order="F")
        kept, c = _gram_schmidt(against, out, x, 1e-10)
        assert kept == (4 if p else 5)
        basis = np.hstack([against, out[:, :kept]])
        assert c.shape == (p + kept, 6)
        assert np.abs(basis.T @ basis - np.eye(p + kept)).max() <= 1e-13
        error = np.linalg.norm(x - basis @ c, axis=0)
        assert np.all(error <= 1e-10 * np.linalg.norm(x, axis=0))

    @pytest.mark.parametrize("drop_tol, kept_expected", [(1e-10, 1), (1e-8, 0)])
    def test_drop_tolerance(self, drop_tol, kept_expected):
        # a column leaving 1e-9 of its norm off ``against``
        rng = np.random.default_rng(12)
        against = np.linalg.qr(rng.standard_normal((30, 4)))[0]
        off = rng.standard_normal(30)
        off -= against @ (against.T @ off)
        off /= np.linalg.norm(off)
        inside = against @ rng.standard_normal(4)
        x = (inside / np.linalg.norm(inside) + 1e-9 * off)[:, None]
        out = np.empty((30, 1), order="F")
        kept, c = _gram_schmidt(against, out, x, drop_tol)
        assert kept == kept_expected
        assert c.shape == (4 + kept_expected, 1)
        if kept:
            assert abs(abs(out[:, 0] @ off) - 1.0) <= 1e-6

    def test_inputs_unmodified(self):
        rng = np.random.default_rng(13)
        against = np.linalg.qr(rng.standard_normal((25, 3)))[0]
        x = rng.standard_normal((25, 4))
        against_copy, x_copy = against.copy(), x.copy()
        _gram_schmidt(against, np.empty((25, 4), order="F"), x, 1e-10)
        assert np.array_equal(against, against_copy)
        assert np.array_equal(x, x_copy)
