"""Test-side shift-space routes that ``opkern.shift_invariant`` replaced with
one windowed coefficient matrix and one alias loop, kept as their oracle:
each functional's coefficients over an explicit shift list or over its own
window, and each functional's periodized frequency sum on its own."""

import math

import numpy as np

from opkern.core import Grid, uniform_fourier_sum

TWO_PI = 2.0 * math.pi


def full_range_coefficients(gen, u, ks, quad_n=4097):
    """c_k = int u(t) conj(phi(t - k)) dt for every shift k of ks, by the
    trapezoid rule on quad_n points of the support of u."""
    g = u.quad_grid(quad_n)
    t = g.points()
    return (u.evaluate(t) * np.conj(gen.evaluate(t - np.asarray(ks)[:, None]))) @ g.weights()


def window_coefficients(gen, u, quad_n=4097):
    """The shifts whose support meets that of u, and their coefficients."""
    lo, hi = u.support
    r = gen.support_radius
    ks = np.arange(math.floor(lo - r), math.ceil(hi + r) + 1)
    return ks, full_range_coefficients(gen, u, ks, quad_n)


def g_alpha_values(gen, u, xi, j_trunc):
    """g_u(xi) = sum_{|l| <= J} u^(xi + 2 pi l) conj(phi_hat(xi + 2 pi l)),
    with u^(w) = exp(-i w x) m(w), summed over blocks of at most 4,000,000
    frequencies."""
    out = np.zeros(xi.shape, dtype=complex)
    ls = np.arange(-j_trunc, j_trunc + 1)
    chunk = max(1, 4_000_000 // max(xi.size, 1))
    for s in range(0, ls.size, chunk):
        om = xi[:, None] + TWO_PI * ls[None, s : s + chunk]
        uhat = np.exp(-1j * om * u.x) * u.centered_transform(om)
        out += np.sum(uhat * np.conj(gen.transform(om)), axis=1)
    return out


def identity_deviation(gen, u, k_range, quad_n=4097, xi_n=1025):
    """``fourier_coefficient_identity_check`` with the time side taken over
    the full shift range |k| <= k_range."""
    ks = np.arange(-k_range, k_range + 1)
    grid_xi = Grid(-math.pi, math.pi, int(xi_n))
    weighted = g_alpha_values(gen, u, grid_xi.points(), gen.j_trunc) * grid_xi.weights()
    freq_side = uniform_fourier_sum(-k_range, 1.0, ks.size, grid_xi.a, grid_xi.h, weighted, sign=1.0) / TWO_PI
    return float(np.max(np.abs(full_range_coefficients(gen, u, ks, quad_n) - freq_side)))
