"""Test-side per-section builders: the lists of ``KernelSection``s that the
frame builders replaced, kept as their oracle. Each section is built on its
own from the paper's formula, and ``truncated_frame`` stacks them into a
stack-backed frame. ``stacked_frame`` is the route the library's frames
replaced: the sections held as one (m, n, dim) stack, synthesized by one
product over it. ``fourier_stacked_frame`` is the stacked Fourier frame that
the stackless ``FourierFrame`` replaced."""

import math
from dataclasses import dataclass

import numpy as np

from opkern.core import GridFunction, hermitian_eig, inner_product, solve_hermitian, uniform_fourier_sum
from opkern.exceptions import IndependenceError, ShapeMismatchError
from opkern.families import AverageFunctional, fourier_indices, fourier_rows
from opkern.kernels import GramMatrix, TruncatedFrame, _hermitian, feature_gram
from opkern.paley_wiener import pw_features
from quadrature_oracle import fourier_sum

ONE = np.array([1.0 + 0j])


@dataclass(frozen=True)
class KernelSection:
    """K(alpha)xi as a grid function, tagged with its index and Y-vector.

    ``w_repr`` optionally carries the feature-space vector Psi(alpha)xi used
    to build the section; Grams assembled from these vectors are numerically
    exact Gram matrices and hence positive semi-definite by construction.
    """

    alpha: object
    xi: np.ndarray
    h_repr: GridFunction
    w_repr: GridFunction | None = None

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=complex)))


def _stack_values(functions):
    """The values of grid functions on one grid, stacked: (m, n, dim)."""
    if not functions:
        raise ShapeMismatchError("empty section list")
    first = functions[0]
    if any(not f.same_layout(first) for f in functions):
        raise ShapeMismatchError("sections live on different grids")
    return np.stack([f.values for f in functions]), first.grid


def stack_backed_frame(alphas, h, h_grid, gram):
    """A ``TruncatedFrame`` whose synthesis is one product over the section
    stack h, shape (m, n) for m scalar sections or (m, n, dim). A stack of
    another rank, off the grid, with another count than the indices or with
    non-finite values is refused."""
    h = np.asarray(h)
    if h.ndim not in (2, 3) or h.shape[1] != h_grid.n:
        raise ShapeMismatchError(f"section stack of shape {h.shape} does not fit {h_grid.n} points")
    if h.shape[0] != len(alphas):
        raise ShapeMismatchError(f"{h.shape[0]} sections with {len(alphas)} indices")
    if not np.all(np.isfinite(h)):
        raise ShapeMismatchError("kernel section contains non-finite values")
    h = h.reshape(h.shape[0], h_grid.n, -1)
    return TruncatedFrame(tuple(alphas), h_grid, gram, lambda c: np.tensordot(c, h, axes=1))


def stacked_frame(alphas, h, h_grid, w, w_grid):
    """The stack-backed frame of sections h[j] on h_grid with feature vectors
    w[j] on w_grid; the Gram is the exact Gram of the features."""
    return stack_backed_frame(alphas, h, h_grid, _hermitian(feature_gram(w, w_grid), tuple(alphas)))


def section_stack(frame):
    """The sections of any frame, one ``section(j)`` each, stacked: (m, n, dim)."""
    return np.stack([frame.section(j).values for j in range(len(frame))])


def truncated_frame(sections):
    """Stack single sections into a stack-backed frame.

    The Gram comes from the sections' feature vectors when every section
    carries one, else from the grid inner products of the sections
    themselves; it is the section-list Gram without a family."""
    h, h_grid = _stack_values([s.h_repr for s in sections])
    if all(s.w_repr is not None for s in sections):
        w, w_grid = _stack_values([s.w_repr for s in sections])
    else:
        w, w_grid = h, h_grid
    return stacked_frame([s.alpha for s in sections], h, h_grid, w, w_grid)


def feature_section(phi, psi, alpha, xi, h_grid):
    """K(alpha)xi = Phi(.)* Psi(alpha)xi, one feature evaluation and one
    ``inner_product`` per grid point and Y component."""
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    w = GridFunction(psi.w_grid, psi.evaluate([alpha], xi)[0])
    vals = np.empty((h_grid.n, phi.dim_y), dtype=complex)
    basis = np.eye(phi.dim_y, dtype=complex)
    for i, x in enumerate(h_grid.points()):
        for l in range(phi.dim_y):
            vals[i, l] = inner_product(w, GridFunction(phi.w_grid, phi.evaluate([float(x)], basis[l])[0]))
    return KernelSection(alpha=alpha, xi=xi, h_repr=GridFunction(h_grid, vals), w_repr=w)


def finite_dim_section(basis, functionals, alpha, xi):
    """K(alpha)xi = sum_{j,k} B[j,k] <xi, L_alpha(phi_k)> phi_j with B the
    inverse of A[j,k] = <phi_k, phi_j>, one basis-Gram solve per index."""
    n = len(basis)
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    a = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            a[j, k] = inner_product(basis[k], basis[j])
    w, _ = hermitian_eig((a + a.conj().T) / 2.0)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise IndependenceError("basis functions are numerically linearly dependent")
    r = np.array([complex(np.sum(xi * np.conj(functionals.apply(alpha, phi_k)))) for phi_k in basis])
    c = solve_hermitian((a + a.conj().T) / 2.0, r)
    vals = sum(c[j] * basis[j].values for j in range(n))
    return KernelSection(alpha=alpha, xi=xi, h_repr=GridFunction(basis[0].grid, vals))


def fourier_sections(indices, grid):
    """K(j) = exp(i j x)/sqrt(2pi) on [0, 2pi], its own feature vector, each
    row from np.exp, independent of the library's table of roots of unity."""
    x = grid.points()
    out = []
    for j in indices:
        basis = GridFunction(grid, np.exp(1j * int(j) * x) / math.sqrt(2.0 * math.pi))
        out.append(KernelSection(alpha=int(j), xi=ONE, h_repr=basis, w_repr=basis))
    return out


def fourier_stacked_frame(indices, grid):
    """The rows of ``fourier_rows`` as a stack-backed frame with the
    closed-form Gram, 1 where j = k mod (n - 1) and 0 elsewhere: its
    ``synthesize`` is one product over the (m, n) stack, and the
    ``dual_frame`` of it takes the SVD of the Gram."""
    js = fourier_indices(indices)
    r = np.array([j % (grid.n - 1) for j in js], dtype=np.int64)
    gram = GramMatrix(matrix=(r[:, None] == r[None, :]).astype(complex), indices=tuple(js), asymmetry=0.0)
    return stack_backed_frame(js, fourier_rows(js, grid), grid, gram)


def average_stacked_frame(centers, delta, out_grid, w_grid, profile="box"):
    """The stacked route that ``pw_average_sections`` replaced: every section
    by its own chirp-z sum of its u_x^v = Psi(x)/sqrt(2pi), held as an (m, n)
    stack, and the Gram of the same ``pw_features`` Psi(x)."""
    centers = [float(c) for c in centers]
    psi = pw_features(centers, w_grid, delta, profile)
    h = np.stack([
        uniform_fourier_sum(out_grid.a, out_grid.h, out_grid.n, w_grid.a, w_grid.h, row)
        for row in psi * (w_grid.weights() / math.sqrt(2.0 * math.pi))
    ])
    return stacked_frame(centers, h, out_grid, psi, w_grid)


def average_feature(u, w_grid):
    """Psi(x) = sqrt(2pi) u_x^v on w_grid for one functional, from its own
    closed-form ``inverse_transform``: the per-functional route that
    ``pw_features`` replaced."""
    return GridFunction(w_grid, math.sqrt(2.0 * math.pi) * u.inverse_transform(w_grid.points()))


def average_features(centers, delta, w_grid, profile="box"):
    """The ``average_feature`` of each centre's functional."""
    return [average_feature(AverageFunctional(float(x), delta, profile), w_grid) for x in centers]


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
