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


@pytest.mark.parametrize("scale", [0.25, 3.0])
def test_symmetry_tolerance_is_allclose(scale):
    # The core passes exactly when np.allclose(T, T', atol=1e-8 max(1, max|T|))
    # holds, on either side of that tolerance.
    t = scale * np.array([[1.0, 0.5], [0.5, 2.0]])
    atol = 1e-8 * max(1.0, scale * 2.0)
    edge = t[1, 0] + (atol + 1e-5 * t[1, 0])
    verdicts = set()
    for step in range(-6, 7):
        p = t.copy()
        p[0, 1] = edge
        for _ in range(abs(step)):
            p[0, 1] = np.nextafter(p[0, 1], step * np.inf)
        expected = np.allclose(p, p.T, atol=atol)
        verdicts.add(expected)
        if expected:
            sol = LowRankSolution(np.eye(2), p)
            assert np.array_equal(sol.t, sol.t.T)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                LowRankSolution(np.eye(2), p)
    assert verdicts == {True, False}
