import numpy as np
import scipy.sparse as sparse


def random_hurwitz(rng, n, margin=0.5):
    """Dense matrix with spectrum strictly in the left half plane."""
    f = rng.standard_normal((n, n))
    shift = np.abs(np.linalg.eigvals(f).real).max() + margin
    return f - shift * np.eye(n)


def random_spd(rng, n, floor=0.1):
    w = rng.standard_normal((n, n))
    return w @ w.T + floor * np.eye(n)


def sparse_random_stable(rng, n, margin=1.0):
    """Sparse stable matrix with a definite symmetric part."""
    a = sparse.random(n, n, density=min(1.0, 3.0 / n), random_state=rng)
    a = sparse.csr_matrix(a)
    bound = np.abs(a).sum(axis=1).max()  # Gershgorin-ish
    return (a - (bound + margin) * sparse.identity(n)).tocsr()


def rho_rounding_level(problem, sol):
    """The rounding level of rho = ||R||_2 / ||B||_2^2 for ``sol``.

    The residual matrix sums terms of size ||AV|| ||T|| ||MV|| and ||B||^2
    that cancel down to rho, so two computations of rho in different bases
    agree to about eps * D times them, D <= 3 rank + s the order of that
    matrix. Far below the tolerance of a converged solve, it can still be
    far above 1e-10 of rho when ||A|| ||C|| is large against ||B||^2.
    """
    av, mv = problem.apply_a(sol.v), problem.apply_m(sol.v)
    norm = np.linalg.norm
    terms = 2 * norm(av) * norm(sol.t, 2) * norm(mv) + norm(problem.b) ** 2
    order = 3 * sol.rank + problem.b.shape[1]
    return np.finfo(float).eps * order * terms / norm(problem.b, 2) ** 2
