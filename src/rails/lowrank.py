"""Low-rank symmetric factorizations C = V T V'."""

import numpy as np

from .matrices import as_matrix

__all__ = ["LowRankSolution"]


class LowRankSolution:
    """Holds an orthonormal basis ``v`` (n x d) and a small symmetric core
    ``t`` (d x d) representing C = v @ t @ v.T without ever forming C.

    The basis columns are expected orthonormal and ``t`` symmetric. The
    constructor checks only the symmetry of ``t``, up to roundoff, and
    stores its symmetric part; orthonormality of ``v`` is the caller's
    promise (checking it would cost O(n d^2)).
    """

    def __init__(self, v, t):
        v = as_matrix(v)
        t = as_matrix(t)
        if t.shape[0] != t.shape[1]:
            raise ValueError(f"core must be square, got {t.shape}")
        if v.shape[1] != t.shape[0]:
            raise ValueError(
                f"basis has {v.shape[1]} columns but core is {t.shape[0]} x {t.shape[0]}"
            )
        if not np.allclose(t, t.T, atol=1e-8 * max(1.0, np.abs(t).max(initial=0.0))):
            raise ValueError("core matrix must be symmetric")
        self.v = v
        self.t = 0.5 * (t + t.T)

    @property
    def dimension(self):
        return self.v.shape[0]

    @property
    def rank(self):
        return self.v.shape[1]

    def to_dense(self):
        """Materialize C (only sensible at small n)."""
        c = self.v @ self.t @ self.v.T
        return 0.5 * (c + c.T)
