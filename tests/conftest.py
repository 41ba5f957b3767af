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
