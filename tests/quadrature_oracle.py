"""Test-side quadrature routes: the dense chunked Fourier sum that
``opkern.core.uniform_fourier_sum`` is checked against, the pointwise
translation-invariant kernel, and the trapezoid transform of an average
profile that the closed forms in ``opkern.families`` replaced, kept as their
oracles."""

import numpy as np

from opkern.core import uniform_fourier_sum

#: most entries of exp(i outer(freqs, nodes)) that fourier_sum holds at once
_FOURIER_BLOCK = 4_000_000


def fourier_sum(freqs, nodes, weighted, sign=-1.0):
    """Fourier sum  exp(sign i outer(freqs, nodes)) @ weighted.

    ``weighted`` holds quadrature-weighted samples at ``nodes``, shape (n,) or
    (n, k); ``freqs`` is flattened. The exponential matrix is built in row
    blocks of at most 4,000,000 entries, so memory stays bounded for any
    number of frequencies. Returns shape (freqs.size,) or (freqs.size, k).
    """
    w = np.ravel(np.asarray(freqs, dtype=float))
    t = np.ravel(np.asarray(nodes, dtype=float))
    weighted = np.asarray(weighted)
    out = np.empty((w.size,) + weighted.shape[1:], dtype=complex)
    rows = max(1, _FOURIER_BLOCK // max(t.size, 1))
    for s in range(0, w.size, rows):
        out[s : s + rows] = np.exp(sign * 1j * np.outer(w[s : s + rows], t)) @ weighted
    return out


def translation_invariant_kernel(varphi, x, y):
    """Pointwise kernel values \\int exp(i(x-y)t) varphi(t) dt by quadrature."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    weighted = varphi.values[:, 0] * varphi.grid.weights()
    return fourier_sum(x - y, varphi.grid.points(), weighted, sign=1.0)


def quadrature_transform(u, w0, dw, nw, sign=-1.0, quad_n=4097):
    """\\int u(s) exp(sign i w_j s) ds at w_j = w0 + j dw (j < nw), by the
    trapezoid rule on the quad_n-point grid over the support of u."""
    g = u.quad_grid(quad_n)
    return uniform_fourier_sum(w0, dw, nw, g.a, g.h, u.evaluate(g.points()) * g.weights(), sign)
