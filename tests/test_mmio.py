import gzip
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sparse

from rails.lowrank import LowRankSolution
from rails.mmio import (
    load_dense,
    load_sparse,
    load_solution,
    read_header,
    save_dense,
    save_sparse,
    save_solution,
)

HAND_WRITTEN = """%%MatrixMarket matrix coordinate real general
% comment lines and blank-ish entries must be tolerated
3 3 4
1 1 2.0
2 3 -1.5e-2
3 1 4E+1
3 3 1
"""


def test_reads_hand_written_coordinate_file(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text(HAND_WRITTEN)
    a = load_sparse(path)
    dense = a.toarray()
    expected = np.zeros((3, 3))
    expected[0, 0] = 2.0
    expected[1, 2] = -0.015
    expected[2, 0] = 40.0
    expected[2, 2] = 1.0
    assert np.array_equal(dense, expected)


def test_reads_symmetric_kind(tmp_path):
    text = """%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 3.0
2 1 -1.0
"""
    path = tmp_path / "s.mtx"
    path.write_text(text)
    a = load_sparse(path).toarray()
    assert np.array_equal(a, np.array([[3.0, -1.0], [-1.0, 0.0]]))


def test_sparse_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    a = sparse.random(20, 14, density=0.15, random_state=rng, format="csr")
    path = tmp_path / "m.mtx"
    save_sparse(path, a)
    back = load_sparse(path)
    assert back.shape == (20, 14)
    assert np.allclose(back.toarray(), a.toarray(), atol=0.0)


def test_dense_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    b = rng.standard_normal((7, 3))
    path = tmp_path / "b.mtx"
    save_dense(path, b)
    back = load_dense(path)
    assert np.array_equal(back, b)


def test_dense_reader_accepts_coordinate_file(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(HAND_WRITTEN)
    dense = load_dense(path)
    assert dense.shape == (3, 3)
    assert dense[2, 0] == 40.0


def test_sparse_reader_accepts_array_file(tmp_path):
    path = tmp_path / "a.mtx"
    dense = np.array([[1.0, 0.0], [-2.0, 3.0]])
    save_dense(path, dense)
    a = load_sparse(path)
    assert sparse.issparse(a) and a.format == "csr"
    assert np.array_equal(a.toarray(), dense)


def test_zero_column_matrix_round_trip(tmp_path):
    # Rank-zero solutions produce factors with no columns; these must
    # survive a save/load cycle.
    path = tmp_path / "empty.mtx"
    save_dense(path, np.zeros((5, 0)))
    back = load_dense(path)
    assert back.shape == (5, 0)


def test_solution_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    v = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    core = np.diag([4.0, 2.0, 1.0, 0.5])
    sol = LowRankSolution(v, core)
    save_solution(tmp_path, sol)
    assert (tmp_path / "V.mtx").exists()
    assert (tmp_path / "T.mtx").exists()
    back = load_solution(tmp_path)
    assert np.array_equal(back.v, sol.v)
    assert np.array_equal(back.t, sol.t)


def test_header_gives_the_declared_shape(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text(HAND_WRITTEN.replace("3 3 4", "3 5 4"))
    assert read_header(path).shape == (3, 5)
    save_dense(path, np.ones((7, 2)))
    assert read_header(path).shape == (7, 2)


def test_header_refuses_a_file_too_short_for_its_entries(tmp_path):
    # 400 entries need at least 1600 bytes; the file has four entries
    path = tmp_path / "a.mtx"
    path.write_text(HAND_WRITTEN.replace("3 3 4", "3 3 400"))
    with pytest.raises(ValueError, match="Truncated file"):
        read_header(path)


@pytest.mark.parametrize("symmetry, stored", [
    ("general", 100 * 100), ("symmetric", 100 * 101 // 2), ("skew-symmetric", 100 * 99 // 2),
])
def test_header_sizes_array_files_by_stored_values(tmp_path, symmetry, stored):
    # every stored value takes at least 2 bytes; a symmetric array stores
    # its lower triangle, a skew-symmetric one its strict lower triangle
    path = tmp_path / "a.mtx"
    banner = f"%%MatrixMarket matrix array real {symmetry}\n100 100\n"
    path.write_text(banner + "0\n" * stored)
    assert read_header(path).shape == (100, 100)
    path.write_text(banner + "0\n" * (stored - 50))
    with pytest.raises(ValueError, match=f"declares {stored} entries"):
        read_header(path)


def test_solution_rows_checked_against_n(tmp_path):
    save_solution(tmp_path, LowRankSolution(np.eye(3)[:, :2], np.eye(2)))
    assert load_solution(tmp_path, 3).rank == 2
    with pytest.raises(ValueError, match="solution dimension 3 does not match problem size 4"):
        load_solution(tmp_path, 4)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_sparse(tmp_path / "nope.mtx")
    with pytest.raises(OSError):
        read_header(tmp_path / "nope.mtx")
    with pytest.raises(OSError):
        load_solution(tmp_path)


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("this is not a matrix market file\n")
    with pytest.raises(ValueError):
        load_sparse(path)


# A three-line coordinate file that declares 900000000 entries (71 bytes),
# its gzipped copy, and a two-line array file that declares 2000000000 x 1
# values (58 bytes), each with the refusal its header earns.
_HUGE_A = "%%MatrixMarket matrix coordinate real general\n50 50 900000000\n1 1 -1.0\n"
_HUGE_FILES = {
    "A.mtx": (_HUGE_A, "Truncated file"),
    "A.mtx.gz": (_HUGE_A, "Compressed file"),
    "V.mtx": ("%%MatrixMarket matrix array real general\n2000000000 1\n1.0\n", "Truncated file"),
}


@pytest.mark.parametrize("name", sorted(_HUGE_FILES))
@pytest.mark.parametrize("reader", ["load_sparse", "load_dense"])
def test_reader_checks_the_header_before_allocating(reader, name, tmp_path):
    # The read runs in a child process under a 2 GiB address-space limit,
    # so a reader that allocates what the header declares raises
    # MemoryError there instead of taking the machine's memory.
    text, message = _HUGE_FILES[name]
    path = tmp_path / name
    path.write_bytes(gzip.compress(text.encode()) if name.endswith(".gz") else text.encode())
    probe = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from rails import mmio\n"
        "try:\n"
        "    getattr(mmio, sys.argv[1])(sys.argv[2])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('read without error')\n"
    )
    env = dict(os.environ, RAILS_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", probe, reader, str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(message)
