"""Reproducible families of test pencils and forcing matrices.

Two pencil families: a 1-d diffusion operator (symmetric, provably stable,
identity mass) and a randomly coupled DAE whose differential block is made
stable by construction and verified densely. Forcing matrices come in
three patterns built from per-site weights: independent columns, their row
sum collapsed to one column, and the diagonal of that row sum.

A DAE pencil is fixed by its seed through the order of the generator's
draws. Each attempt of ``gen_dae`` seeds a generator with
``[rng_seed, attempt]`` and draws A12, A21 and D in that order, row by row:
``choice(n_cols, size=k, replace=False)`` for the columns of a row, then k
``random`` values for its entries. ``tests/test_testproblems.py`` checks the
bytes of every block against a per-row oracle of this order
(``TestRandomSparse``).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import GenerationError
from .matrices import _check_count

__all__ = ["ForcingMatrix", "gen_diffusion", "gen_dae", "gen_forcing"]

PATTERNS = ("uncorrelated_columns", "row_sum_vector", "diagonal_surface")

_HURWITZ_CHECK_CAP = 500
_MAX_SHIFT_DOUBLINGS = 10


@dataclass
class ForcingMatrix:
    b: np.ndarray
    pattern: str
    magnitude: float


def gen_diffusion(n, scale=1.0):
    """Dirichlet diffusion operator on n interior points of (0, 1).

    A = scale * (n+1)^2 * tridiag(1, -2, 1), M = I. The eigenvalues are
    -4 scale (n+1)^2 sin^2(k pi / (2n+2)), all inside
    (-4 scale (n+1)^2, -4 scale], so the pencil is stable at every n in
    exact arithmetic. The largest (k = 1) is checked in floating point:
    it must come out negative, not underflow to zero.

    Returns (A, M, sites) with every row a forcing site.
    """
    _check_count("n", n, 1)
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    h2 = float(scale) * (n + 1) ** 2
    main = np.full(n, -2.0 * h2)
    off = np.full(n - 1, h2)
    a = sparse.diags([off, main, off], [-1, 0, 1], format="csr")
    m = sparse.identity(n, format="csr")
    top = -4.0 * h2 * math.sin(math.pi / (2 * n + 2)) ** 2
    if not top < 0:
        raise GenerationError(f"diffusion operator unstable (max eig {top:.3e})")
    return a, m, np.arange(n)


def _random_sparse(rng, n_rows, n_cols, per_row, amplitude):
    """n_rows x n_cols CSR with min(per_row, n_cols) entries a row, each in
    amplitude * [-1, 1). Row by row, ``choice`` picks the columns and
    ``random`` draws their values (the docstring of the module gives the
    order); ``-1 + 2 u`` is what ``uniform(-1, 1)`` computes from the same
    draw u, and its product with 2 is exact."""
    if amplitude == 0.0 or n_cols == 0:
        return sparse.csr_matrix((n_rows, n_cols))
    k = min(per_row, n_cols)
    cols = np.empty((n_rows, k), dtype=np.int64)
    vals = np.empty((n_rows, k))
    choice, random = rng.choice, rng.random
    for i in range(n_rows):
        cols[i] = choice(n_cols, size=k, replace=False)
        random(out=vals[i])
    vals = amplitude * (-1.0 + 2.0 * vals.ravel())
    rows = np.repeat(np.arange(n_rows), k)
    return sparse.csr_matrix((vals, (rows, cols.ravel())), shape=(n_rows, n_cols))


def gen_dae(n_diff, n_alg, coupling=0.3, shift=1.0, rng_seed=0):
    """Randomly coupled stable DAE pencil.

    Ordering is [algebraic; differential]:

        A = [-I    A12]    M = [0  0]
            [A21   A22]        [0  I]

    with A12, A21 sparse random entries of size ``coupling`` and
    A22 = D - shift * I, D sparse random scaled by ``coupling``. Since
    A11 = -I the reduced operator is S = A22 + A21 A12; its spectrum is
    checked densely (dimension permitting) and the shift doubles until S
    is Hurwitz, up to 10 doublings.

    Returns (A, M, sites): sites are the first ceil(n_diff / 4) rows of
    the differential block, in full-matrix indices.
    """
    _check_count("n_diff", n_diff, 1)
    _check_count("n_alg", n_alg, 0)
    _check_count("rng_seed", rng_seed, 0)
    if not (0 < shift < math.inf and math.isfinite(coupling)):
        raise ValueError("shift must be positive and finite, coupling finite")
    current = float(shift)
    for attempt in range(_MAX_SHIFT_DOUBLINGS + 1):
        rng = np.random.default_rng([rng_seed, attempt])
        a12 = _random_sparse(rng, n_alg, n_diff, 3, coupling)
        a21 = _random_sparse(rng, n_diff, n_alg, 3, coupling)
        d = _random_sparse(rng, n_diff, n_diff, 3, coupling)
        a22 = (d - current * sparse.identity(n_diff)).tocsr()
        if n_diff <= _HURWITZ_CHECK_CAP:
            top = np.linalg.eigvals((a22 + a21 @ a12).toarray()).real.max()
            if top >= 0:
                current *= 2.0
                continue
        a = sparse.bmat([[-sparse.identity(n_alg), a12], [a21, a22]], format="csr")
        m = sparse.block_diag(
            [sparse.csr_matrix((n_alg, n_alg)), sparse.identity(n_diff)],
            format="csr",
        )
        sites = n_alg + np.arange(math.ceil(n_diff / 4))
        return a, m, sites
    raise GenerationError(
        f"no stable pencil after {_MAX_SHIFT_DOUBLINGS} shift doublings "
        f"(final shift {current:.3e})"
    )


def gen_forcing(sites, n, pattern, magnitude=1.0, weights=None):
    """Forcing matrix over the given site rows.

    uncorrelated_columns
        One column per site: B[site_i, i] = magnitude * w_i.
    row_sum_vector
        The single column B @ 1 of the uncorrelated matrix.
    diagonal_surface
        diag(B @ 1) restricted to the site columns. Each row of B holds at
        most one nonzero, so this equals the uncorrelated matrix.

    ``sites`` must be an integer array (or a list of ints); ``weights``
    defaults to all ones, and it and ``magnitude`` must be finite. The
    patterns are deterministic.
    """
    sites = np.asarray(sites).reshape(-1)
    if sites.size == 0:
        raise ValueError("need at least one forcing site")
    if sites.dtype.kind not in "iu":
        raise ValueError(f"forcing sites must be integers, got dtype {sites.dtype}")
    if sites.min() < 0 or sites.max() >= n:
        raise ValueError("forcing site index out of range")
    if np.unique(sites).size != sites.size:
        raise ValueError("forcing sites must be distinct")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    if weights is None:
        weights = np.ones(sites.size)
    else:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if weights.shape != (sites.size,):
            raise ValueError("weights must match the number of sites")
    if not (math.isfinite(magnitude) and np.isfinite(weights).all()):
        raise ValueError("magnitude and weights must be finite")
    if pattern == "row_sum_vector":
        width, columns = 1, 0
    else:
        width, columns = sites.size, np.arange(sites.size)
    b = np.zeros((n, width))
    b[sites, columns] = magnitude * weights
    return ForcingMatrix(b, pattern, float(magnitude))
