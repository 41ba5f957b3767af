"""Matrix Market readers and writers.

Sparse operators travel as coordinate files, dense factors as array files.
Readers are lenient about which of the two kinds they receive; writers are
strict so that identical inputs produce byte-identical files. The checked
loaders (``load_problem``, ``load_solution``) refuse compressed files
(.gz, .bz2), whose byte size says nothing of what they hold.
"""

import os
from types import SimpleNamespace

import numpy as np
import scipy.io
import scipy.sparse as sparse

from .lowrank import LowRankSolution
from .matrices import _check_pencil, as_matrix, check_sparse

__all__ = [
    "read_header",
    "load_problem",
    "load_sparse",
    "save_sparse",
    "load_dense",
    "save_dense",
    "load_solution",
    "save_solution",
]


def _existing(path):
    # scipy's reader reports a missing file as a parse error; surface it
    # as the I/O failure it really is.
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return path


def read_header(path):
    """The shape a Matrix Market file declares, read from its header alone
    (``scipy.io.mminfo``), as an object with a ``shape``, so that
    ``_check_pencil`` can check a pencil before its data is read. A file
    too short for what it declares is a truncated file (ValueError): a
    coordinate file needs 4 bytes an entry (the shortest is "1 1" and a
    newline), an array file 2 bytes a stored value (a digit and a newline),
    and a symmetric or skew-symmetric array stores only its lower triangle,
    n(n+1)/2 or n(n-1)/2 values. A compressed file (.gz, .bz2) cannot be
    sized so and is refused (ValueError) before its header is read."""
    path = _existing(path)
    if path.endswith((".gz", ".bz2")):
        raise ValueError(f"Compressed file: {path}; decompress it first")
    rows, cols, entries, layout, _, symmetry = scipy.io.mminfo(path)
    width = 4 if layout == "coordinate" else 2
    if layout == "array":
        diagonal = {"symmetric": 1, "hermitian": 1, "skew-symmetric": -1}.get(symmetry)
        entries = rows * cols if diagonal is None else rows * (rows + diagonal) // 2
    size = os.path.getsize(path)
    if size < width * entries:
        raise ValueError(f"Truncated file: {path} declares {entries} entries in {size} bytes")
    return SimpleNamespace(shape=(rows, cols))


def load_problem(a, m, b):
    """A, M and B from the files ``a``, ``m`` and ``b``, with the shapes and
    sizes their headers declare checked first (``_check_pencil``): a
    mismatch, a truncated file or a compressed one is refused before
    anything is allocated for its data."""
    _check_pencil(*map(read_header, (a, m, b)))
    return load_sparse(a), load_sparse(m), load_dense(b)


def load_sparse(path):
    """Read a Matrix Market file as a validated CSR matrix."""
    a = scipy.io.mmread(_existing(path))
    if not sparse.issparse(a):
        a = sparse.csr_matrix(np.atleast_2d(a))
    return check_sparse(a)


def save_sparse(path, a):
    """Write a sparse matrix in coordinate format."""
    scipy.io.mmwrite(os.fspath(path), sparse.coo_matrix(a))


def load_dense(path):
    """Read a Matrix Market file as a dense float64 matrix."""
    a = scipy.io.mmread(_existing(path))
    if sparse.issparse(a):
        a = a.toarray()
    return as_matrix(np.atleast_2d(a))


def save_dense(path, a):
    """Write a dense matrix in array format."""
    scipy.io.mmwrite(os.fspath(path), as_matrix(a))


def save_solution(directory, sol):
    """Store a low-rank factorization as V.mtx and T.mtx in ``directory``."""
    os.makedirs(directory, exist_ok=True)
    save_dense(os.path.join(directory, "V.mtx"), sol.v)
    save_dense(os.path.join(directory, "T.mtx"), sol.t)


def load_solution(directory, n=None):
    """Read the V.mtx and T.mtx that ``save_solution`` wrote, with their
    headers checked first: V must be n x r (any n when ``n`` is None) and
    T r x r, and neither file may be truncated (``read_header``), else
    ValueError before their data is read."""
    v, t = (os.path.join(directory, name) for name in ("V.mtx", "T.mtx"))
    rows, rank = scipy.io.mminfo(_existing(v))[:2]
    if n is not None and rows != n:
        raise ValueError(f"solution dimension {rows} does not match problem size {n}")
    core = scipy.io.mminfo(_existing(t))[:2]
    if core != (rank, rank):
        raise ValueError(f"core is {core[0]} x {core[1]}, expected {rank} x {rank}")
    read_header(v)
    read_header(t)
    return LowRankSolution(load_dense(v), load_dense(t))
