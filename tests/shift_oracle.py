"""Test-side shift-space routes that ``opkern.shift_invariant`` replaced with
one windowed coefficient matrix and one blocked alias pass, kept as their
oracle: each functional's coefficients over an explicit shift list or over
its own window; the spline transform as numpy's power of the sinc; and the
bracket and each functional's periodized frequency sum on its own, over
blocks of 4,000,000 frequencies with one complex exponential per alias;
the features g_u of a list of functionals in one alias block, as the
library took them before it sized its blocks by the result; the dual
coefficients b_k by the chirp-z sum that one FFT replaced; and the dual
synthesized on a fine grid, which the exact biorthogonality residual
replaced. Also the point-kernel section, the limit the average-functional
sections approach as their width shrinks."""

import math

import numpy as np

from opkern.core import Grid, GridFunction, uniform_fourier_sum
from opkern.exceptions import DomainError
from opkern.shift_invariant import PHI_STEP, _shift_sum, bracket_function

TWO_PI = 2.0 * math.pi


def full_range_coefficients(gen, u, ks, quad_n=4097):
    """c_k = int u(t) conj(phi(t - k)) dt for every shift k of ks, by the
    trapezoid rule on quad_n points of the support of u, each summed
    pairwise (a BLAS product over 4,097 nodes once strayed 66 eps sum|terms|
    from the exact sum, beyond the 64 eps that the tests allow)."""
    g = u.quad_grid(quad_n)
    t = g.points()
    return np.sum(u.evaluate(t) * np.conj(gen.evaluate(t - np.asarray(ks)[:, None])) * g.weights(), axis=1)


def window_coefficients(gen, u, quad_n=4097):
    """The shifts whose support meets that of u, and their coefficients."""
    lo, hi = u.support
    r = gen.support_radius
    ks = np.arange(math.floor(lo - r), math.ceil(hi + r) + 1)
    return ks, full_range_coefficients(gen, u, ks, quad_n)


def spline_transform_pow(order):
    """The closed-form spline transform (sin(w/2)/(w/2))**order, the power
    taken by numpy (libm pow for an order above 2)."""
    return lambda w: np.sinc(np.asarray(w, dtype=float) / TWO_PI) ** order


def aliases(xi, j_trunc):
    """The aliases xi + 2 pi l, |l| <= j_trunc, l ascending, as blocks of
    shape (xi.size, b) holding at most 4,000,000 frequencies each."""
    ls = np.arange(-j_trunc, j_trunc + 1)
    chunk = max(1, 4_000_000 // max(xi.size, 1))
    for s in range(0, ls.size, chunk):
        yield xi[:, None] + TWO_PI * ls[None, s : s + chunk]


def bracket_values(phi_hat, xi, j_trunc):
    """sum_{|l| <= J} |phi_hat(xi + 2 pi l)|^2 on complex transform values."""
    out = np.zeros(xi.shape)
    for om in aliases(xi, j_trunc):
        out += np.sum(np.abs(np.asarray(phi_hat(om), dtype=complex)) ** 2, axis=1)
    return out


def g_alpha_values(phi_hat, u, xi, j_trunc):
    """g_u(xi) = sum_{|l| <= J} u^(xi + 2 pi l) conj(phi_hat(xi + 2 pi l)),
    with u^(w) = exp(-i w x) m(w) evaluated on every alias."""
    out = np.zeros(xi.shape, dtype=complex)
    for om in aliases(xi, j_trunc):
        uhat = np.exp(-1j * om * u.x) * u.centered_transform(om)
        out += np.sum(uhat * np.conj(phi_hat(om)), axis=1)
    return out


def g_values_one_block(gen, u_list, xi, j_trunc):
    """``shift_invariant._g_values`` over all aliases |l| <= J in one block:
    phi_hat once, m once per (delta, profile), each functional's terms times
    its phases exp(-2 pi i l x) by one matrix-vector product, and the factor
    exp(-i xi x) once at the end."""
    ls = np.arange(-j_trunc, j_trunc + 1)
    om = xi[:, None] + TWO_PI * ls
    phi_conj = np.conj(gen.transform(om))
    sums = np.zeros((len(u_list), xi.size), dtype=complex)
    terms = {}
    for row, u in zip(sums, u_list):
        key = (u.delta, u.profile_name)
        if key not in terms:
            terms[key] = u.centered_transform(om) * phi_conj
        row += terms[key] @ np.exp(-2j * math.pi * u.x * ls)
    return np.exp(-1j * np.outer([u.x for u in u_list], xi)) * sums


def identity_deviation(gen, u, k_range, quad_n=4097, xi_n=1025):
    """``fourier_coefficient_identity_check`` with the time side taken over
    the full shift range |k| <= k_range."""
    ks = np.arange(-k_range, k_range + 1)
    grid_xi = Grid(-math.pi, math.pi, int(xi_n))
    weighted = g_alpha_values(gen.transform, u, grid_xi.points(), gen.j_trunc) * grid_xi.weights()
    freq_side = uniform_fourier_sum(-k_range, 1.0, ks.size, grid_xi.a, grid_xi.h, weighted, sign=1.0) / TWO_PI
    return float(np.max(np.abs(full_range_coefficients(gen, u, ks, quad_n) - freq_side)))


def chirp_dual_coefficients(gen, k_max):
    """b_k = (1/2pi) int_{-pi}^{pi} exp(-i k xi)/bracket(xi) for |k| <= k_max
    by the trapezoid rule on 2049 points, as one chirp-z sum over the
    weighted reciprocal bracket; returns it and sum|weighted|/2pi."""
    grid_xi = Grid(-math.pi, math.pi, 2049)
    weighted = 1.0 / bracket_function(gen, grid_xi.points()) * grid_xi.weights()
    b = uniform_fourier_sum(-k_max, 1.0, 2 * k_max + 1, grid_xi.a, grid_xi.h, weighted) / TWO_PI
    return b, float(np.sum(np.abs(weighted))) / TWO_PI


def dual_on_grid(dual):
    """phi~ = sum_k b_k phi(. - k) on the integer-aligned grid of step
    PHI_STEP over |x| <= R + k_max, as ``dual_generator`` once sampled it."""
    r = dual.source.support_radius + dual.k_max
    grid = Grid(-float(r), float(r), int(round(2 * r / PHI_STEP)) + 1)
    return GridFunction(grid, _shift_sum(dual.source, -dual.k_max, dual.b_coeffs, grid))


def per_shift_sum(gen, k0, coeffs, out_grid):
    """sum_i coeffs[i] phi(. - (k0 + i)) on the grid, evaluating phi afresh
    on the support window of every shift."""
    y = out_grid.points()
    r = gen.support_radius
    out = np.zeros(out_grid.n, dtype=complex)
    for k, c in enumerate(coeffs, start=k0):
        w = slice(np.searchsorted(y, k - r, side="left"), np.searchsorted(y, k + r, side="right"))
        out[w] += c * gen.evaluate(y[w] - k)
    return out


def si_reproducing_kernel(gen, dual, x, out_grid):
    """Point-kernel section K(x, .) = sum_k conj(phi(x-k)) phi~(.-k); the sum
    runs over the at most 2R+1 shifts whose support contains x."""
    margin = gen.support_radius + dual.k_max
    if not (out_grid.a + margin <= x <= out_grid.b - margin):
        raise DomainError(f"x={x} closer than the support margin {margin} to the grid boundary")
    r = gen.support_radius
    k0 = math.ceil(x - r)
    c = np.conj(gen.evaluate(x - np.arange(k0, math.floor(x + r) + 1)))
    vals = _shift_sum(gen, k0 - dual.k_max, np.convolve(c, dual.b_coeffs), out_grid)
    return GridFunction(out_grid, vals)
