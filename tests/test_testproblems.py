import numpy as np
import pytest
import scipy.sparse as sparse

from rails import testproblems
from rails.dae import partition, schur_apply
from rails.errors import GenerationError
from rails.testproblems import PATTERNS, gen_dae, gen_diffusion, gen_forcing


def _per_row_oracle(rng, n_rows, n_cols, per_row, amplitude):
    """Reference for ``_random_sparse``: per row a ``choice`` of columns,
    then ``uniform`` values, gathered in Python lists."""
    rows, cols, vals = [], [], []
    if amplitude == 0.0 or n_cols == 0:
        return sparse.csr_matrix((n_rows, n_cols))
    k = min(per_row, n_cols)
    for i in range(n_rows):
        picked = rng.choice(n_cols, size=k, replace=False)
        rows.extend([i] * k)
        cols.extend(picked.tolist())
        vals.extend((amplitude * rng.uniform(-1.0, 1.0, size=k)).tolist())
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))


def _assert_same_bytes(got, expected):
    assert got.shape == expected.shape
    for field in ("indptr", "indices", "data"):
        g, e = getattr(got, field), getattr(expected, field)
        assert g.dtype == e.dtype, field
        assert g.tobytes() == e.tobytes(), field


class TestRandomSparse:
    @pytest.mark.parametrize("n_rows, n_cols, per_row, amplitude", [
        (6, 2, 3, 0.5),        # k = n_cols < per_row
        (4, 20000, 3, 0.3),    # n_cols > 10000 with few rows
        (5, 8, 3, 0.0),        # amplitude = 0: no draws
        (5, 0, 3, 1.0),        # n_cols = 0: no draws
        (0, 8, 3, 1.0),        # no rows
        (200, 150, 3, 1.0),
    ], ids=["k-is-n_cols", "wide", "zero-amplitude", "no-columns", "no-rows",
            "square"])
    def test_matches_the_per_row_oracle(self, n_rows, n_cols, per_row, amplitude):
        got = testproblems._random_sparse(
            np.random.default_rng(5), n_rows, n_cols, per_row, amplitude)
        expected = _per_row_oracle(
            np.random.default_rng(5), n_rows, n_cols, per_row, amplitude)
        _assert_same_bytes(got, expected)
        assert got.indices.dtype == np.int32

    def test_leaves_the_generator_where_the_oracle_does(self):
        rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        testproblems._random_sparse(rng, 30, 40, 3, 1.0)
        _per_row_oracle(oracle_rng, 30, 40, 3, 1.0)
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached-half"])
    @pytest.mark.parametrize("n_rows", [299, 300], ids=["odd-rows", "even-rows"])
    @pytest.mark.parametrize("n_cols", [3 * 2**30, 10001, 2**32],
                             ids=["redraws", "no-redraws", "full-32-bit-range"])
    def test_bit_stream_and_state_match_the_oracle(self, monkeypatch, n_cols, n_rows,
                                                   cached):
        # Five bounded draws a row, so a row ends with the 32-bit cache
        # flipped and the row count sets the cache a block leaves behind.
        # At 3 * 2**30 columns about 1/4 of the column draws are redrawn,
        # and every row that needs one is drawn by _draw_row.
        redrawn = []

        def draw_row(*args):
            redrawn.append(args)
            return draw_row.wrapped(*args)

        draw_row.wrapped = testproblems._draw_row
        monkeypatch.setattr(testproblems, "_draw_row", draw_row)
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        if cached:
            rng.integers(2**20, dtype=np.uint32)
            oracle_rng.integers(2**20, dtype=np.uint32)
        got = testproblems._random_sparse(rng, n_rows, n_cols, 3, 1.0)
        expected = _per_row_oracle(oracle_rng, n_rows, n_cols, 3, 1.0)
        _assert_same_bytes(got, expected)
        assert (len(redrawn) > n_rows // 4) == (n_cols == 3 * 2**30)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert rng.random() == oracle_rng.random()

    def test_column_counts_past_32_bits_are_refused(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            testproblems._random_sparse(np.random.default_rng(0), 2, 2**32 + 1, 3, 1.0)

    @pytest.mark.parametrize("n_diff, n_alg, coupling", [
        (20, 6, 1.0),    # the shift doubles once: both attempts' draws count
        (8, 0, 0.3),     # no algebraic rows
        (6, 3, 0.0),     # no coupling: no draws
        (600, 100, 0.3),  # past the Hurwitz check's size cap
    ], ids=["shift-doubling", "no-algebraic-rows", "no-coupling", "unchecked"])
    def test_gen_dae_matches_the_oracle(self, monkeypatch, n_diff, n_alg, coupling):
        got = gen_dae(n_diff, n_alg, coupling=coupling, rng_seed=0)
        monkeypatch.setattr(testproblems, "_random_sparse", _per_row_oracle)
        expected = gen_dae(n_diff, n_alg, coupling=coupling, rng_seed=0)
        for g, e in zip(got[:2], expected[:2]):
            _assert_same_bytes(g, e)
        assert np.array_equal(got[2], expected[2])


    def test_gen_dae_at_full_size_matches_the_oracle(self, monkeypatch):
        # The 50000 + 10000-row pencil of the CLI example: several
        # vectorized passes a block, and a redrawn column draw
        got = gen_dae(50000, 10000, rng_seed=0)
        monkeypatch.setattr(testproblems, "_random_sparse", _per_row_oracle)
        expected = gen_dae(50000, 10000, rng_seed=0)
        for g, e in zip(got[:2], expected[:2]):
            _assert_same_bytes(g, e)


class TestGenDiffusion:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 500])
    def test_bytes_match_a_diagonal_construction(self, n):
        a, _, _ = gen_diffusion(n, scale=0.7)
        h2 = 0.7 * (n + 1) ** 2
        off = np.full(n - 1, h2)
        expected = sparse.diags([off, np.full(n, -2.0 * h2), off], [-1, 0, 1],
                                format="csr")
        _assert_same_bytes(a, expected)
        assert a.indices.dtype == np.int32
        assert a.has_canonical_format

    def test_smallest_grid(self):
        a, m, sites = gen_diffusion(2)
        # Grid spacing 1/3 gives the scale factor 9.
        expected = 9.0 * np.array([[-2.0, 1.0], [1.0, -2.0]])
        assert np.array_equal(a.toarray(), expected)
        assert np.array_equal(m.toarray(), np.eye(2))
        assert np.array_equal(sites, [0, 1])

    def test_scale_factor(self):
        a1, _, _ = gen_diffusion(5, scale=1.0)
        a3, _, _ = gen_diffusion(5, scale=3.0)
        assert np.allclose(a3.toarray(), 3.0 * a1.toarray(), atol=0.0)

    def test_spectrum_bracket(self):
        n = 40
        scale = 2.0
        a, _, _ = gen_diffusion(n, scale=scale)
        lam = np.linalg.eigvalsh(a.toarray())
        h2 = scale * (n + 1) ** 2
        assert lam.max() <= -4.0 * scale + 1e-9
        assert lam.min() > -4.0 * h2
        # Exact closed form for the whole spectrum.
        k = np.arange(1, n + 1)
        exact = -4.0 * h2 * np.sin(k * np.pi / (2 * (n + 1))) ** 2
        assert np.allclose(np.sort(exact), lam, atol=1e-8)

    def test_sparsity(self):
        a, _, _ = gen_diffusion(100)
        assert a.nnz == 3 * 100 - 2

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_diffusion(0)
        with pytest.raises(ValueError):
            gen_diffusion(5, scale=0.0)

    def test_fractional_size_is_refused_by_name(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            gen_diffusion(10.5)


class TestGenDae:
    def test_shapes_and_mass_layout(self):
        a, m, sites = gen_dae(20, 8, rng_seed=0)
        assert a.shape == (28, 28)
        assert m.shape == (28, 28)
        md = m.toarray()
        assert np.array_equal(md, np.diag([0.0] * 8 + [1.0] * 20))

    def test_constraint_block_is_negated_identity(self):
        a, m, _ = gen_dae(15, 6, rng_seed=4)
        assert np.array_equal(a.toarray()[:6, :6], -np.eye(6))

    def test_sites_are_differential_prefix(self):
        a, m, sites = gen_dae(10, 4, rng_seed=1)
        # ceil(10 / 4) = 3 sites, offset past the 4 algebraic rows.
        assert np.array_equal(sites, [4, 5, 6])
        sys = partition(a, m, np.zeros((14, 0)))
        assert not np.isin(sites, sys.algebraic_rows).any()

    def test_zero_coupling_decouples(self):
        a, m, sites = gen_dae(6, 3, coupling=0.0, shift=2.0, rng_seed=0)
        assert np.array_equal(a.toarray(),
                              np.diag([-1.0] * 3 + [-2.0] * 6))

    def test_reduced_operator_is_stable(self):
        for seed in (0, 1, 2, 3, 4):
            a, m, sites = gen_dae(30, 10, rng_seed=seed)
            sys = partition(a, m, np.zeros((40, 0)))
            s = schur_apply(sys, np.eye(30))
            assert np.linalg.eigvals(s).real.max() < 0

    def test_deterministic(self):
        a1, m1, s1 = gen_dae(12, 5, rng_seed=7)
        a2, m2, s2 = gen_dae(12, 5, rng_seed=7)
        assert (a1 != a2).nnz == 0
        assert (m1 != m2).nnz == 0
        assert np.array_equal(s1, s2)

    def test_seed_matters(self):
        a1, _, _ = gen_dae(12, 5, rng_seed=7)
        a2, _, _ = gen_dae(12, 5, rng_seed=8)
        assert (a1 != a2).nnz > 0

    def test_no_algebraic_rows(self):
        a, m, sites = gen_dae(8, 0, rng_seed=0)
        assert a.shape == (8, 8)
        assert (m != sparse.identity(8, format="csr")).nnz == 0
        assert np.array_equal(sites, [0, 1])

    def test_unstable_draw_doubles_the_shift(self):
        # At coupling 1 the first draw (seed [0, 0], shift 1) is not
        # Hurwitz; the second (seed [0, 1]) is, with the shift doubled to 2.
        a, m, _ = gen_dae(20, 6, coupling=1.0, shift=1.0, rng_seed=0)
        rng = np.random.default_rng([0, 1])
        a12 = testproblems._random_sparse(rng, 6, 20, 3, 1.0)
        a21 = testproblems._random_sparse(rng, 20, 6, 3, 1.0)
        d = testproblems._random_sparse(rng, 20, 20, 3, 1.0)
        dense = a.toarray()
        assert np.array_equal(dense[6:, 6:], d.toarray() - 2.0 * np.eye(20))
        assert np.array_equal(dense[:6, 6:], a12.toarray())
        assert np.array_equal(dense[6:, :6], a21.toarray())
        sys = partition(a, m, np.zeros((26, 0)))
        assert np.linalg.eigvals(schur_apply(sys, np.eye(20))).real.max() < 0

    def test_no_stable_draw_raises_after_ten_doublings(self):
        with pytest.raises(GenerationError, match="10 shift doublings"):
            gen_dae(10, 4, coupling=1e4, rng_seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_dae(0, 5)
        with pytest.raises(ValueError):
            gen_dae(5, -1)
        with pytest.raises(ValueError):
            gen_dae(5, 2, shift=0.0)

    @pytest.mark.parametrize("args, kwargs, name", [
        ((10.5, 3), {}, "n_diff"),
        ((10, 3.5), {}, "n_alg"),
        ((10, 3), {"rng_seed": 1.5}, "rng_seed"),
        ((10, 3), {"rng_seed": -1}, "rng_seed"),
    ], ids=["n_diff", "n_alg", "rng_seed", "negative-seed"])
    def test_counts_are_refused_by_name(self, args, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            gen_dae(*args, **kwargs)

    def test_numpy_integer_counts_are_accepted(self):
        a, _, _ = gen_dae(np.int64(10), np.int32(3), rng_seed=np.uint8(1))
        expected, _, _ = gen_dae(10, 3, rng_seed=1)
        assert (a != expected).nnz == 0


class TestGenForcing:
    def test_uncorrelated_columns(self):
        f = gen_forcing([0, 2], 3, "uncorrelated_columns", magnitude=0.1)
        expected = np.array([[0.1, 0.0], [0.0, 0.0], [0.0, 0.1]])
        assert np.array_equal(f.b, expected)
        assert f.pattern == "uncorrelated_columns"
        assert f.magnitude == 0.1

    def test_row_sum_vector(self):
        f = gen_forcing([0, 2], 3, "row_sum_vector", magnitude=0.1)
        assert np.array_equal(f.b, np.array([[0.1], [0.0], [0.1]]))

    def test_diagonal_surface(self):
        f = gen_forcing([0, 2], 3, "diagonal_surface", magnitude=0.1)
        expected = np.array([[0.1, 0.0], [0.0, 0.0], [0.0, 0.1]])
        assert np.array_equal(f.b, expected)

    def test_diagonal_differs_from_uncorrelated_under_weights(self):
        w = np.array([1.0, 2.0])
        unc = gen_forcing([0, 1], 2, "uncorrelated_columns", weights=w).b
        diag = gen_forcing([0, 1], 2, "diagonal_surface", weights=w).b
        assert np.array_equal(unc, np.diag([1.0, 2.0]))
        assert np.array_equal(diag, np.diag([1.0, 2.0]))
        # The two coincide for site-diagonal bases; the row sums do not.
        rs = gen_forcing([0, 1], 2, "row_sum_vector", weights=w).b
        assert np.array_equal(rs, np.array([[1.0], [2.0]]))

    def test_column_counts(self):
        sites = np.arange(5)
        assert gen_forcing(sites, 9, "uncorrelated_columns").b.shape == (9, 5)
        assert gen_forcing(sites, 9, "row_sum_vector").b.shape == (9, 1)
        assert gen_forcing(sites, 9, "diagonal_surface").b.shape == (9, 5)

    def test_patterns_registry(self):
        assert set(PATTERNS) == {
            "uncorrelated_columns", "row_sum_vector", "diagonal_surface"
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_forcing([], 3, "row_sum_vector")
        with pytest.raises(ValueError):
            gen_forcing([3], 3, "row_sum_vector")
        with pytest.raises(ValueError):
            gen_forcing([-1], 3, "row_sum_vector")
        with pytest.raises(ValueError):
            gen_forcing([1, 1], 3, "row_sum_vector")
        with pytest.raises(ValueError):
            gen_forcing([0], 3, "checkerboard")
        with pytest.raises(ValueError):
            gen_forcing([0, 1], 3, "uncorrelated_columns", weights=[1.0])

    @pytest.mark.parametrize("sites", [[0.7, 2.2], np.array([0.0, 2.0]), [True, False]],
                             ids=["fractional", "float-integral", "bool"])
    def test_non_integer_sites_are_refused(self, sites):
        with pytest.raises(ValueError, match="must be integers"):
            gen_forcing(sites, 3, "uncorrelated_columns")

    def test_unsigned_sites_are_accepted(self):
        f = gen_forcing(np.array([0, 2], dtype=np.uint8), 3, "uncorrelated_columns")
        assert np.array_equal(f.b, [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
