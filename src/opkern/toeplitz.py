"""Spectra and inverses of Hermitian Toeplitz matrices: the extreme
eigenvalues by Lanczos on a matrix-vector product, and the inverse from its
first column by Trench's recurrence. ``lattice.LatticeFrame`` imports it
when its spectrum or dual matrix is read, so no other run compiles it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import rng, uniform

__all__ = ["lanczos_extremes", "trench_inverse"]

#: width, relative to the largest eigenvalue, within which Lanczos brackets both
#: extremes before it stops short of the whole Krylov space: at M = 2047 and
#: delta <= 1/2 it takes 33-162 steps, where 1e-7 took 365-1671 (the top of the
#: spectrum clusters within 1e-7 of the Grenander-Szegő bound)
_LANCZOS_TOL = 1e-6
#: most Lanczos steps (518 at most over M = 33 to 2047, delta <= 1/2); extremes
#: not bracketed by then take dense eigvalsh
_LANCZOS_STEPS = 640


def _sturm_count(alpha: list, beta2: list, x: float) -> int:
    """Eigenvalues below x of the symmetric tridiagonal matrix with diagonal
    alpha and squared off-diagonal beta2[1:]: the negative pivots of the
    LDL^T factorization of T - x I (beta2[0] = 0)."""
    count, d = 0, 1.0
    for a, b2 in zip(alpha, beta2):
        d = (a - x - b2 / d) or -1e-300
        count += d < 0.0
    return count


def _tridiagonal_extreme(alpha: list, beta2: list, index: int, lo: float, hi: float, width: float) -> tuple:
    """[lo, hi] halved by Sturm counts until it is no wider than ``width``
    and holds eigenvalue ``index`` (0 the smallest, len(alpha) - 1 the largest)."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _sturm_count(alpha, beta2, mid) > index:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _last_component(alpha: list, beta: list, shift: float) -> float:
    """|s_k| of the unit eigenvector s of T nearest ``shift``, a shift just
    outside the spectrum: two steps of inverse iteration from ones, each an
    LDL^T solve of T - shift I (beta[i] joins rows i and i + 1)."""
    k = len(alpha)
    z = [1.0] * k
    for _ in range(2):
        d, ell = [alpha[0] - shift], []
        for i in range(1, k):
            ell.append(beta[i - 1] / d[-1])
            d.append((alpha[i] - shift - ell[-1] * beta[i - 1]) or -1e-300)
        for i in range(1, k):
            z[i] -= ell[i - 1] * z[i - 1]
        z[-1] /= d[-1]
        for i in range(k - 2, -1, -1):
            z[i] = z[i] / d[i] - ell[i] * z[i + 1]
        scale = math.sqrt(math.fsum(v * v for v in z))
        z = [v / scale for v in z]
    return abs(z[-1])


def lanczos_extremes(times: Callable, m: int, symbol: np.ndarray, ceiling: float = math.inf):
    """Brackets (lo, value, hi) of the smallest and largest eigenvalues of the
    Hermitian M x M matrix G that ``times`` applies to a vector, by Lanczos
    with full reorthogonalisation. The fixed start is a ``uniform`` draw,
    which reaches every eigenvector (a real symmetric Toeplitz Gram's
    skew-symmetric ones too), plus the plane waves at the largest and
    smallest of ``symbol``, the eigenvalues of a circulant embedding of G,
    near which a Toeplitz section's extremes lie (Grenander & Szegő). T's
    extremes come from Sturm-count bisection, with no LAPACK call. The
    smallest eigenvalue lies within its Ritz residual below its Ritz value,
    the largest within its residual above its own and at most ``ceiling``,
    a bound on G's spectrum, each up to a round-off slack. The residuals are read at
    step 32, then after every eighth of the steps so far: it stops once
    both widths are within ``_LANCZOS_TOL`` of the largest, or, exact, when
    the Krylov space is exhausted; None if ``_LANCZOS_STEPS`` steps leave a
    bracket wider."""
    eps, steps = np.finfo(float).eps, min(m, _LANCZOS_STEPS)
    waves = 2j * np.pi / len(symbol) * np.arange(m)
    start = uniform(rng(0), m) - 0.5 + np.exp(waves * np.argmax(symbol)) + np.exp(waves * np.argmin(symbol))
    basis = np.empty((min(steps, 32), m), dtype=complex)  # doubled as it fills
    basis[0] = start / math.sqrt(np.vdot(start, start).real)
    alpha, beta, beta2, check = [], [], [0.0], 32
    for k in range(1, steps + 1):
        w = times(basis[k - 1])
        alpha.append(float(np.vdot(basis[k - 1], w).real))
        for _ in range(2):  # w minus its projection on the basis, twice
            w -= np.conj(basis[:k] @ np.conj(w)) @ basis[:k]
        b = math.sqrt(float(np.vdot(w, w).real))
        bound = max(map(abs, alpha)) + 2.0 * max(beta, default=0.0)  # |T| at most (Gershgorin)
        width, slack = 4 * eps * bound, 4 * k * eps * bound
        exhausted = k == m or b <= slack
        if exhausted or k in (check, steps):
            check = k + max(1, k // 8)
            low = _tridiagonal_extreme(alpha, beta2, 0, -bound, bound, width)
            high = _tridiagonal_extreme(alpha, beta2, k - 1, -bound, bound, width)
            r_low = r_high = 0.0
            if not exhausted:
                r_low = b * _last_component(alpha, beta, low[0] - width)
                r_high = min(b * _last_component(alpha, beta, high[1] + width), max(ceiling - high[1], 0.0))
            if exhausted or max(r_low, r_high) + slack <= _LANCZOS_TOL * abs(high[1]):
                return ((low[0] - r_low - slack, sum(low) / 2, low[1] + slack),
                        (high[0] - slack, sum(high) / 2, high[1] + r_high + slack))
        if k < steps:
            if k == len(basis):
                basis = np.concatenate((basis, np.empty((min(k, steps - k), m), dtype=complex)))
            beta.append(b)
            beta2.append(b * b)
            basis[k] = w / b
    return None


def trench_inverse(x: np.ndarray) -> np.ndarray:
    """The inverse B of a Hermitian Toeplitz matrix from its first column
    x = B e_0, by Trench's recurrence (J. SIAM 12, 1964): B[0] = conj(x) and
    B[i + 1, j + 1] = B[i, j] + (x_{i+1} conj(x_{j+1}) - conj(x_{M-1-i})
    x_{M-1-j}) / x_0, O(M^2) in all."""
    m = len(x)
    inv, head, tail = np.empty((m, m), dtype=complex), x[1:] / x[0].real, np.conj(x[:0:-1]) / x[0].real
    inv[0], inv[1:, 0] = np.conj(x), x[1:]
    for i in range(m - 1):
        inv[i + 1, 1:] = inv[i, :-1] + (head[i] * np.conj(x[1:]) - tail[i] * x[:0:-1])
    return inv
