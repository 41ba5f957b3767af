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
``random`` values for its entries. ``_random_sparse`` makes no such call:
it reproduces that order from the bit generator's raw 64-bit words, in
vectorized passes (its docstring gives the rule), and leaves the generator
where the per-row calls would. ``tests/test_testproblems.py`` checks the
bytes of every block, and the generator state after it, against a per-row
oracle that makes the calls (``TestRandomSparse``).
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
# rows a vectorized pass of _random_sparse covers; a redraw costs one pass
_PASS_ROWS = 1 << 14
_LOW32 = 0xFFFFFFFF


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
    # row i holds (h2, -2 h2, h2) at columns (i-1, i, i+1), less the two
    # entries of the first and last rows that fall outside the matrix
    cols = np.arange(n, dtype=np.int32)[:, None] + np.arange(-1, 2, dtype=np.int32)
    data = np.tile([h2, -2.0 * h2, h2], n)[1:-1]
    indptr = np.clip(3 * np.arange(n + 1, dtype=np.int32) - 1, 0, 3 * n - 2)
    a = sparse.csr_matrix((data, cols.ravel()[1:-1], indptr), shape=(n, n))
    m = sparse.identity(n, format="csr")
    top = -4.0 * h2 * math.sin(math.pi / (2 * n + 2)) ** 2
    if not top < 0:
        raise GenerationError(f"diffusion operator unstable (max eig {top:.3e})")
    return a, m, np.arange(n)


def _random_sparse(rng, n_rows, n_cols, per_row, amplitude):
    """n_rows x n_cols CSR with k = min(per_row, n_cols) entries a row, each
    in amplitude * [-1, 1): the bytes, and the generator state left behind,
    of a per-row ``choice(n_cols, size=k, replace=False)`` then
    ``random(k)``, taken from the raw 64-bit words of ``rng``'s bit
    generator (PCG64 for ``default_rng``; any one with a cached 32-bit half).

    The rule NumPy's ``choice`` follows, row by row, with N = n_cols:
    - Floyd's method: for j = N-k, ..., N-1, a draw in [0, j] (none for
      j = 0); if it was already chosen in this row, j is taken instead.
    - A shuffle: for i = k-1, ..., 1, a draw in [0, i], and entry i swaps
      with the drawn entry.
    - Each of these draws is Lemire's bounded method on one 32-bit value x:
      m = x (j+1) gives m >> 32, redrawn while the low 32 bits of m fall
      below (2^32 - 1 - j) mod (j+1). A 32-bit value is the low half of a
      fresh word, whose high half is cached for the next one
      (``has_uint32``/``uinteger`` of the state); the cache outlives the
      doubles and the row.
    - Then k doubles, each (w >> 11) 2^-53 of a fresh word w.

    ``_draw_rows`` fills up to ``_PASS_ROWS`` rows at a time in vectorized
    passes that assume no redraw; a row that needs one is drawn by
    ``_draw_row``. ``-1 + 2 u`` is what ``uniform(-1, 1)`` computes from the
    same double u, and its product with 2 is exact."""
    if amplitude == 0.0 or n_cols == 0:
        return sparse.csr_matrix((n_rows, n_cols))
    if n_cols > 1 << 32:
        raise ValueError("n_cols past 2**32 needs 64-bit bounded draws")
    k = min(per_row, n_cols)
    bits = rng.bit_generator
    state = bits.state
    cache = (state["has_uint32"], state["uinteger"])
    cols = np.empty((n_rows, k), dtype=np.int64)
    vals = np.empty((n_rows, k))
    row = 0
    while row < n_rows:
        stop = min(row + _PASS_ROWS, n_rows)
        done, cache = _draw_rows(bits, n_cols, cache, cols[row:stop], vals[row:stop])
        row += done
        if row < stop:
            cols[row], vals[row], cache = _draw_row(bits, n_cols, k, cache)
            row += 1
    state = bits.state
    state["has_uint32"], state["uinteger"] = cache
    bits.state = state
    vals = amplitude * (-1.0 + 2.0 * vals.ravel())
    rows = np.repeat(np.arange(n_rows), k)
    return sparse.csr_matrix((vals, (rows, cols.ravel())), shape=(n_rows, n_cols))


def _period_layout(d, k, has):
    """Where a period of rows takes its words when no draw is redrawn: d
    bounded draws and k doubles a row, starting with the cache ``has``. A
    period is the rows after which the cache returns to ``has``: two when
    d is odd, else one. Returns, relative to the period's first word:
    - the 32-bit half each bounded draw reads (-2k - 1, before the period,
      is the high half the previous row left cached);
    - the word of each double;
    - the half ``uinteger`` holds after each row;
    - the words each row takes."""
    draws, doubles, last, taken = [], [], [], []
    pos, cached = 0, -2 * k - 1
    for _ in range(2 if d % 2 else 1):
        start = pos
        for _ in range(d):
            if has:
                draws.append(cached)
                has = 0
            else:
                draws.append(pos)
                cached, has = pos + 1, 1
                pos += 2
        doubles.extend(range(pos // 2, pos // 2 + k))
        pos += 2 * k
        last.append(cached)
        taken.append((pos - start) // 2)
    return np.array(draws, dtype=np.intp), np.array(doubles), last, taken


def _draw_rows(bits, n_cols, cache, cols, vals):
    """Fill the leading rows of ``cols`` and ``vals`` (k columns each) by
    the rule of ``_random_sparse``, up to the first row whose bounded draws
    need a redraw, in one vectorized pass over the words those rows take
    without one. Returns (rows filled, cache after them); the generator is
    left just past their words."""
    n, k = cols.shape
    has, value = cache
    floyd = np.arange(max(n_cols - k, 1), n_cols)
    bounds = np.concatenate([floyd, np.arange(k - 1, 0, -1)]).astype(np.uint64)
    d = bounds.size
    draws, doubles, last, taken = _period_layout(d, k, has)
    period, length = len(taken), sum(taken)
    before = np.cumsum([0] + taken)

    def words_of(rows):
        return rows // period * length + int(before[rows % period])

    periods = -(-n // period)
    saved = bits.state
    words = np.zeros(periods * length, dtype=np.uint64)
    words[:words_of(n)] = bits.random_raw(words_of(n))
    base = length * np.arange(periods)[:, None]
    # each word's low half first; the first draw of a pass that starts
    # with a cached half reads that half, from before the pass
    halves = words.astype("<u8", copy=False).view("<u4")
    x = halves.take(2 * base + draws, mode="clip").reshape(periods * period, d)[:n]
    if has and d:
        x[0, 0] = value
    m = x * (bounds + 1)
    redraw = np.flatnonzero((m & _LOW32) < (_LOW32 - bounds) % (bounds + 1))
    done = int(redraw[0]) // d if redraw.size else n
    drawn = (m[:done] >> 32).astype(np.int64)
    picked = cols[:done]
    for t, j in enumerate(range(n_cols - k, n_cols)):
        v = drawn[:, t - k + floyd.size] if j else np.zeros(done, dtype=np.int64)
        if t:
            seen = picked[:, 0] == v
            for e in range(1, t):
                seen |= picked[:, e] == v
            v = np.where(seen, j, v)
        picked[:, t] = v
    rows = np.arange(done)
    for q, i in enumerate(range(k - 1, 0, -1)):
        u = drawn[:, floyd.size + q]
        swapped = picked[rows, u]
        picked[rows, u] = picked[:, i]
        picked[:, i] = swapped
    vals[:done] = (words[base + doubles].reshape(-1, k)[:done] >> 11) * 2.0**-53
    if done < n:
        bits.state = saved
        bits.random_raw(words_of(done))
    if d and done:
        p, q = divmod(done - 1, period)
        at = 2 * length * p + last[q]
        if at >= 0:
            value = int(halves[at])
        has = (has + done * d) % 2
    return done, (has, value)


def _draw_row(bits, n_cols, k, cache):
    """One row by the rule of ``_random_sparse``, a word at a time, redraws
    included: (columns, values, cache after the row)."""
    has, value = cache

    def bounded(j):
        nonlocal has, value
        while j:
            if has:
                x, has = value, 0
            else:
                word = bits.random_raw()
                x, has, value = word & _LOW32, 1, word >> 32
            m = x * (j + 1)
            if m & _LOW32 >= (_LOW32 - j) % (j + 1):
                return m >> 32
        return 0

    picked = []
    for j in range(n_cols - k, n_cols):
        v = bounded(j)
        picked.append(j if v in picked else v)
    for i in range(k - 1, 0, -1):
        u = bounded(i)
        picked[i], picked[u] = picked[u], picked[i]
    values = (bits.random_raw(k) >> 11) * 2.0**-53
    return picked, values, (has, value)


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
