"""Matrix Market readers and writers.

Sparse operators travel as coordinate files, dense factors as array files.
Readers are lenient about which of the two kinds they receive; writers are
strict so that identical inputs produce byte-identical files.
"""

import os
from types import SimpleNamespace

import numpy as np
import scipy.io
import scipy.sparse as sparse

from .lowrank import LowRankSolution
from .matrices import as_matrix, check_sparse

__all__ = [
    "read_header",
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
    ``_check_pencil`` can check a pencil before its data is read. A
    coordinate file of fewer than 4 bytes a declared entry (the shortest
    entry is "1 1" and a newline) is a truncated file: ValueError.
    Compressed files (.gz, .bz2) are not sized."""
    path = _existing(path)
    rows, cols, entries, layout, _, _ = scipy.io.mminfo(path)
    size = os.path.getsize(path)
    if layout == "coordinate" and not path.endswith((".gz", ".bz2")) and size < 4 * entries:
        raise ValueError(f"Truncated file: {path} declares {entries} entries in {size} bytes")
    return SimpleNamespace(shape=(rows, cols))


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


def load_solution(directory):
    """Read the V.mtx and T.mtx that ``save_solution`` wrote."""
    v = load_dense(os.path.join(directory, "V.mtx"))
    t = load_dense(os.path.join(directory, "T.mtx"))
    return LowRankSolution(v, t)
