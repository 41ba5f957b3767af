import numpy as np
import pytest

from rails.lowrank import LowRankSolution


def test_dense_reconstruction():
    v = np.eye(3)[:, :2]
    t = np.diag([2.0, 1.0])
    sol = LowRankSolution(v, t)
    assert sol.dimension == 3
    assert sol.rank == 2
    assert np.array_equal(sol.to_dense(), np.diag([2.0, 1.0, 0.0]))


def test_zero_rank():
    sol = LowRankSolution(np.zeros((5, 0)), np.zeros((0, 0)))
    assert sol.rank == 0
    assert np.array_equal(sol.to_dense(), np.zeros((5, 5)))


def test_core_symmetrized():
    t = np.array([[1.0, 1e-10], [0.0, 2.0]])
    sol = LowRankSolution(np.eye(2), t)
    assert np.array_equal(sol.t, sol.t.T)


def test_vector_basis_promoted_to_column():
    sol = LowRankSolution(np.array([1.0, 0.0]), np.array([[3.0]]))
    assert sol.v.shape == (2, 1)
    assert sol.rank == 1


def test_validation():
    with pytest.raises(ValueError):
        LowRankSolution(np.eye(3)[:, :2], np.eye(3))
    with pytest.raises(ValueError):
        LowRankSolution(np.eye(3)[:, :2], np.ones((2, 3)))
    with pytest.raises(ValueError):
        LowRankSolution(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
