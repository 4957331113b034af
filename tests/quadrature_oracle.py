"""Test-side quadrature transform of an average profile: the trapezoid route
that the closed forms in ``opkern.families`` replaced, kept as their oracle."""

from opkern.core import uniform_fourier_sum


def quadrature_transform(u, w0, dw, nw, sign=-1.0, quad_n=4097):
    """\\int u(s) exp(sign i w_j s) ds at w_j = w0 + j dw (j < nw), by the
    trapezoid rule on the quad_n-point grid over the support of u."""
    g = u.quad_grid(quad_n)
    return uniform_fourier_sum(w0, dw, nw, g.a, g.h, u.evaluate(g.points()) * g.weights(), sign)
