"""Test-side Hermitian solve through a full eigendecomposition: the route that
``opkern.core.solve_hermitian`` replaced with a Gershgorin certificate and an
LU solve, kept as its oracle."""

import numpy as np

from opkern.core import _require_hermitian
from opkern.exceptions import ConditioningError, ShapeMismatchError


def eigh_solve_hermitian(m, rhs):
    """Solve m x = rhs for each matrix of a Hermitian stack (..., k, k) by
    np.linalg.eigh, refusing the first matrix whose eigenvalues w fail
    w[-1] > 0 and w[0] > 1e-12 w[-1]."""
    w, v = np.linalg.eigh(_require_hermitian(m))
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != w.shape:
        raise ShapeMismatchError(f"right-hand side of shape {rhs.shape} for matrices of shape {v.shape}")
    bad = (w[..., -1] <= 0) | (w[..., 0] <= 1e-12 * w[..., -1])
    if np.any(bad):
        lo, hi = w[bad][0, [0, -1]]
        raise ConditioningError(
            f"matrix not safely positive definite (eigs in [{lo:.3e}, {hi:.3e}])",
            min_eig=float(lo),
            max_eig=float(hi),
        )
    x = v @ ((np.conj(np.swapaxes(v, -2, -1)) @ rhs[..., None]) / w[..., None])
    return x[..., 0]
