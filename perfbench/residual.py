"""Independent check of a returned factorization C = V T V'.

rho = ||A C M' + M C A' + B B'||_2 / ||B||_2^2 on the full pencil, from
plain scipy sparse products and ARPACK (``eigsh`` with a fixed start
vector), sharing no code with ``rails.matrices`` or the solver's own
Lanczos estimate.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla


def residual_rel(a, m, b, v, t):
    a = sparse.csr_matrix(a)
    m = sparse.csr_matrix(m)
    at = a.T.tocsr()
    mt = m.T.tocsr()
    b = np.asarray(b, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    n = a.shape[0]
    if v.shape[0] != n or b.shape[0] != n:
        raise ValueError(f"factor rows {v.shape[0]} / B rows {b.shape[0]} != n={n}")

    def matvec(x):
        x = np.ravel(x)
        y = b @ (b.T @ x)
        if v.shape[1]:
            y = y + a @ (v @ (t @ (v.T @ (mt @ x))))
            y = y + m @ (v @ (t @ (v.T @ (at @ x))))
        return y

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.cos(np.arange(n) * 0.7) + 1.5
    lam = spla.eigsh(
        op, k=1, which="LM", v0=v0, tol=1e-8, ncv=min(n, 40),
        maxiter=10 * n, return_eigenvectors=False,
    )
    return float(abs(lam[0]) / np.linalg.norm(b, 2) ** 2)
