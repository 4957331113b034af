"""Test-side per-section builders: the lists of ``KernelSection``s that the
stacked frame builders replaced, kept as their oracle. Each section is built
on its own from the paper's formula, and ``truncated_frame`` stacks them."""

import math

import numpy as np

from opkern.core import GridFunction, fourier_sum
from opkern.families import AverageFunctional, FourierCoefficientFamily
from opkern.kernels import KernelSection
from opkern.paley_wiener import psi_feature

ONE = np.array([1.0 + 0j])


def fourier_sections(indices, grid):
    """K(j) = exp(i j x)/sqrt(2pi) on [0, 2pi], its own feature vector."""
    fam = FourierCoefficientFamily()
    out = []
    for j in indices:
        basis = fam.basis_function(int(j), grid)
        out.append(KernelSection(alpha=int(j), xi=ONE, h_repr=basis, w_repr=basis))
    return out


def average_features(centers, delta, w_grid, profile="box"):
    """Psi(x) = sqrt(2pi) u_x^v on w_grid from ``psi_feature``, one per centre."""
    return [psi_feature(AverageFunctional(float(x), delta, profile), w_grid) for x in centers]


def average_sections(centers, delta, out_grid, w_grid, profile="box"):
    """K(x)(y) = \\int exp(-i y t) u_x^v(t) dt by a dense trapezoid sum over
    w_grid, each carrying its ``average_features`` vector."""
    t = w_grid.points()
    out = []
    for x, psi in zip(centers, average_features(centers, delta, w_grid, profile)):
        udual = psi.values[:, 0] / math.sqrt(2.0 * math.pi)
        h = fourier_sum(out_grid.points(), t, udual * w_grid.weights())
        out.append(KernelSection(alpha=float(x), xi=ONE, h_repr=GridFunction(out_grid, h), w_repr=psi))
    return out


def sinc_sections(points, window, w_grid=None):
    """Point-evaluation sections sinc(. - x) on the window; with a w_grid they
    carry the plane waves exp(i x t)/sqrt(2pi) as feature vectors, without
    one their Gram comes from the window's grid inner products."""
    x_axis = window.points()
    out = []
    for x in points:
        h = GridFunction(window, np.sinc(x_axis - float(x)).astype(complex))
        w = None
        if w_grid is not None:
            w = GridFunction(w_grid, np.exp(1j * float(x) * w_grid.points()) / math.sqrt(2.0 * math.pi))
        out.append(KernelSection(alpha=float(x), xi=ONE, h_repr=h, w_repr=w))
    return out
