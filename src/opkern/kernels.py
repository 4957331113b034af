"""Kernels from feature maps, Gram assembly and positivity diagnostics.

A kernel section K(alpha)xi is the element of the sample space that
reproduces the functional with index alpha against the output-space vector
xi. A finite family of sections is held as one ``TruncatedFrame``: the
sections stacked on one grid, with their Gram. Frames are built either from
a feature-map pair (phi for points, psi for the functional family) or from
concrete constructions in the companion modules. Grams of sections are
Hermitian positive semi-definite; this module assembles them, symmetrizes
with a reported asymmetry, and checks positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    Grid,
    GridFunction,
    complex_unit_disc,
    hermitian_eig,
    integrate_values,
    rng,
    uniform_fourier_sum,
)
from .exceptions import (
    IndependenceError,
    KernelConsistencyError,
    ShapeMismatchError,
    ValidationError,
)
from .families import FunctionalFamily, fourier_indices, fourier_rows

__all__ = [
    "FeatureMap",
    "xi_rows",
    "GramMatrix",
    "PsdReport",
    "TruncatedFrame",
    "stacked_frame",
    "kernel_from_features",
    "gram",
    "feature_gram",
    "psd_check",
    "finite_dim_kernel",
    "translation_invariant_section",
    "integral_kernel_psd_test",
    "fourier_feature_map",
    "fourier_point_feature_map",
    "fourier_frame",
]


@dataclass(frozen=True)
class FeatureMap:
    """Evaluates Phi(alpha)xi in the discretized feature space for a list of
    indices at once: ``evaluate(alphas, xis)``, linear in xi, returns the
    features on ``w_grid`` as one array of shape (len(alphas), w_grid.n, d_w),
    d_w the feature space's components. ``xis`` is one (dim_y,) vector
    shared by every index or a (len(alphas), dim_y) array, one row each."""

    w_grid: Grid
    dim_y: int
    evaluate: Callable


def xi_rows(xis, count: int) -> np.ndarray:
    """The Y-vectors of ``count`` indices as a (count, dim) array: one shared
    vector (a scalar is a vector of length 1), or one row per index."""
    xis = np.asarray(xis, dtype=complex)
    if xis.ndim < 2:
        return np.broadcast_to(np.atleast_1d(xis), (count, xis.size))
    if xis.shape != (count, xis.shape[-1]):
        raise ShapeMismatchError(f"Y-vectors of shape {xis.shape} for {count} indices")
    return xis


def _feature_stack(fm: FeatureMap, alphas, xis, d_w: int | None = None) -> np.ndarray:
    """fm.evaluate(alphas, xis), refused unless it is one feature of
    fm.w_grid.n points per index, with d_w components when given."""
    stack = np.asarray(fm.evaluate(alphas, xis))
    if stack.ndim != 3 or stack.shape[:2] != (len(alphas), fm.w_grid.n) or d_w not in (None, stack.shape[2]):
        raise ShapeMismatchError(f"feature map returned shape {stack.shape} for {len(alphas)} indices")
    return stack


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix F[j,k] = L_{alpha_k}(K_j) of a family of sections,
    with the index values alpha_j and the symmetrization defect that was
    removed."""

    matrix: np.ndarray = field(repr=False)
    indices: tuple
    asymmetry: float = 0.0

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PsdReport:
    min_eig: float
    max_eig: float
    passed: bool


@dataclass(frozen=True)
class TruncatedFrame:
    """A finite kernel family stacked once: h[j] holds the grid values of
    section K_j on h_grid, gram the section Gram. A stack of shape (m, n)
    is read as m scalar sections."""

    alphas: tuple
    h: np.ndarray = field(repr=False)
    h_grid: Grid
    gram: GramMatrix

    def __post_init__(self):
        h = self.h
        if h.ndim not in (2, 3) or h.shape[1] != self.h_grid.n:
            raise ShapeMismatchError(f"section stack of shape {h.shape} does not fit {self.h_grid.n} points")
        m = h.shape[0]
        if len(self.alphas) != m or self.gram.matrix.shape != (m, m):
            raise ShapeMismatchError(
                f"{m} sections with {len(self.alphas)} indices and a Gram of shape {self.gram.matrix.shape}"
            )
        if h.ndim == 2:
            object.__setattr__(self, "h", h[:, :, None])
        if not np.all(np.isfinite(self.h)):
            raise ShapeMismatchError("kernel section contains non-finite values")

    def __len__(self) -> int:
        return self.h.shape[0]

    def synthesize(self, c) -> GridFunction:
        """sum_j c_j K_j, one product over the stacked sections."""
        c = np.asarray(c, dtype=complex)
        if c.shape != (len(self),):
            raise ShapeMismatchError(f"expected {len(self)} coefficients, got shape {c.shape}")
        return GridFunction(self.h_grid, np.tensordot(c, self.h, axes=1))


#: most entries of the scaled column block feature_gram holds at once
_GRAM_BLOCK = 2**15


def feature_gram(stack: np.ndarray, grid: Grid) -> np.ndarray:
    """Exact Gram of stacked feature vectors under the quadrature inner product.

    ``stack`` holds one feature per row on ``grid``, shape (m, n) or
    (m, n, dim). The Gram is A A^H with A the weight-scaled stack, summed
    over column blocks that are scaled as they go, so no scaled copy of the
    stack is held; the result is Hermitian positive semi-definite to machine
    precision.
    """
    if stack.ndim not in (2, 3) or stack.shape[0] == 0 or stack.shape[1] != grid.n:
        raise ShapeMismatchError(f"feature stack of shape {stack.shape} does not fit {grid.n} grid points")
    a = stack.reshape(stack.shape[0], -1)
    sqw = np.repeat(np.sqrt(grid.weights()), a.shape[1] // grid.n)
    g = np.zeros((a.shape[0], a.shape[0]), dtype=complex)
    step = max(1, _GRAM_BLOCK // a.shape[0])
    for s in range(0, a.shape[1], step):
        block = a[:, s : s + step] * sqw[s : s + step]
        g += block @ block.conj().T
    return g


def _hermitian_gram(stack: np.ndarray, grid: Grid, indices: tuple) -> GramMatrix:
    """feature_gram of the stack, Hermitian-symmetrized, with the removed
    defect reported as the asymmetry."""
    m = feature_gram(stack, grid)
    asym = float(np.linalg.norm(m - m.conj().T))
    return GramMatrix(matrix=(m + m.conj().T) / 2.0, indices=indices, asymmetry=asym)


def stacked_frame(alphas, h: np.ndarray, h_grid: Grid, w: np.ndarray, w_grid: Grid) -> TruncatedFrame:
    """The frame of sections h[j] on h_grid with feature vectors w[j] on
    w_grid; the Gram is the exact Gram of the features, hence positive
    semi-definite."""
    alphas = tuple(alphas)
    return TruncatedFrame(alphas=alphas, h=h, h_grid=h_grid, gram=_hermitian_gram(w, w_grid, alphas))


#: most entries of point features and partial sums kernel_from_features holds at once
_PHI_BLOCK = 2**18


def _chunked_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T with each sum of K terms split into about sqrt(K) partial sums
    of about sqrt(K) terms. A single row times a matrix is one running sum
    of K terms: on point features with K = 513 or 1026 it was off by up to
    1.2e-14 of the largest entry, the partial sums by up to 8.3e-16."""
    size = math.isqrt(a.shape[1])
    main = a.shape[1] - a.shape[1] % size
    a3 = a[:, :main].reshape(len(a), -1, size).transpose(1, 0, 2)
    b3 = b[:, :main].reshape(len(b), -1, size).transpose(1, 2, 0)
    return np.sum(a3 @ b3, axis=0) + a[:, main:] @ b[:, main:].T


def kernel_from_features(
    phi: FeatureMap,
    psi: FeatureMap,
    alphas: Sequence,
    xi,
    h_grid: Grid,
) -> TruncatedFrame:
    """The frame of sections K(alpha)xi of the kernel K(alpha) = Phi(.)* Psi(alpha),
    one per index, all against the same xi.

    Componentwise, h[j](x)_l = <Psi(alpha_j)xi, Phi(x)e_l> in the feature
    space: the weight-scaled stack of the Psi(alpha_j)xi, from one
    evaluation of the index list, times the conjugated Phi(x)e_l, one
    evaluation per block of h_grid points, each point repeated once per
    unit vector e_l. The Gram is the exact Gram of the Psi stack.
    """
    if phi.w_grid != psi.w_grid or phi.dim_y != psi.dim_y:
        raise ShapeMismatchError("phi and psi must share feature grid and dim_y")
    alphas = tuple(alphas)
    if not alphas:
        raise ShapeMismatchError("empty index list")
    w_grid, dim = psi.w_grid, phi.dim_y
    w = _feature_stack(psi, alphas, xi)
    scaled = np.conj(w * w_grid.weights()[:, None]).reshape(len(alphas), -1)
    points = h_grid.points()
    units = np.eye(dim, dtype=complex)
    h = np.empty((len(alphas), h_grid.n * dim), dtype=complex)
    step = max(1, _PHI_BLOCK // (dim * (scaled.shape[1] + math.isqrt(scaled.shape[1]) * len(alphas))))
    for s in range(0, h_grid.n, step):
        chunk = points[s : s + step]
        block = _feature_stack(phi, np.repeat(chunk, dim), np.tile(units, (len(chunk), 1)), w.shape[2])
        h[:, s * dim : (s + step) * dim] = np.conj(_chunked_products(scaled, block.reshape(len(block), -1)))
    return stacked_frame(alphas, h.reshape(len(alphas), h_grid.n, dim), h_grid, w, w_grid)


def gram(frame: TruncatedFrame, functionals: FunctionalFamily) -> GramMatrix:
    """Gram of a frame's sections under a scalar functional family:
    F[j,k] = L_{alpha_k}(K_j).

    Row j applies every index's functional to section j in one ``apply_all``
    call; the result is Hermitian-symmetrized, reporting the asymmetry, and
    refused when the asymmetry shows sections and functionals disagree.
    The Gram of the features themselves is ``frame.gram``.
    """
    values = np.stack([functionals.apply_all(frame.alphas, GridFunction(frame.h_grid, h)) for h in frame.h])
    if values.shape[2] != 1:
        raise ShapeMismatchError(f"the family returns {values.shape[2]} values per index, a Gram needs one")
    m = values[:, :, 0]
    scale = max(np.linalg.norm(m), 1e-30)
    asym = float(np.linalg.norm(m - m.conj().T) / scale)
    if asym > 1e-6:
        raise KernelConsistencyError(
            f"kernel/functional asymmetry {asym:.3e} exceeds tolerance; "
            "sections and functionals are inconsistent"
        )
    return GramMatrix(matrix=(m + m.conj().T) / 2.0, indices=frame.alphas, asymmetry=asym)


def psd_check(g: GramMatrix) -> PsdReport:
    """Positive semi-definiteness report for a Hermitian Gram: passes iff
    the smallest eigenvalue is at least -1e-8 max(|max_eig|, 1)."""
    w, _ = hermitian_eig(g.matrix)
    min_eig, max_eig = float(w[0]), float(w[-1])
    passed = min_eig >= -1e-8 * max(abs(max_eig), 1.0)
    return PsdReport(min_eig=min_eig, max_eig=max_eig, passed=passed)


def finite_dim_kernel(
    basis: Sequence[GridFunction],
    functionals: FunctionalFamily,
    alphas: Sequence,
    xi,
) -> TruncatedFrame:
    """The frame of kernel sections K(alpha)xi of the finite-dimensional
    space spanned by the basis, one per index.

    With A[j,k] = <phi_k, phi_j> and R[k, alpha] = <xi, L_alpha(phi_k)>, the
    coefficients C = A^{-1} R of every index come from one eigendecomposition
    of A, and K(alpha)xi = sum_j C[j, alpha] phi_j reproduces every
    functional of the family exactly on the span.
    """
    if not basis:
        raise ShapeMismatchError("empty basis")
    if any(not f.same_layout(basis[0]) for f in basis):
        raise ShapeMismatchError("basis functions live on different grids")
    alphas = tuple(alphas)
    if not alphas:
        raise ShapeMismatchError("empty index list")
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    grid = basis[0].grid
    stack = np.stack([f.values for f in basis])
    a = feature_gram(stack, grid).conj()
    w, v = hermitian_eig((a + a.conj().T) / 2.0)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise IndependenceError(
            "basis functions are numerically linearly dependent",
            min_eig=float(w[0]),
            max_eig=float(w[-1]),
        )
    r = np.conj(np.stack([functionals.apply_all(alphas, phi) @ np.conj(xi) for phi in basis]))
    c = v @ ((v.conj().T @ r) / w[:, None])
    h = np.tensordot(c.T, stack, axes=1)
    return stacked_frame(alphas, h, grid, h, grid)


def translation_invariant_section(
    varphi: GridFunction,
    u_alpha: GridFunction,
    out_grid: Grid,
) -> GridFunction:
    """Kernel section of the translation-invariant construction:

    K(alpha)(x) = 2pi \\int exp(-i x t) varphi(t) u_alpha^v(t) dt, where
    u_alpha^v(t) = (1/2pi) \\int u_alpha(s) exp(i s t) ds. Both integrals are
    evaluated by trapezoid quadrature on the given grids, as chirp-z sums.
    """
    if varphi.dim != 1 or u_alpha.dim != 1:
        raise ShapeMismatchError("translation-invariant construction is scalar (dim 1)")
    tg, ug = varphi.grid, u_alpha.grid
    u_weighted = u_alpha.values[:, 0] * ug.weights()
    inv = uniform_fourier_sum(tg.a, tg.h, tg.n, ug.a, ug.h, u_weighted, sign=1.0) / (2.0 * math.pi)
    weighted = varphi.values[:, 0] * inv * tg.weights()
    vals = 2.0 * math.pi * uniform_fourier_sum(out_grid.a, out_grid.h, out_grid.n, tg.a, tg.h, weighted)
    return GridFunction(out_grid, vals)


def fourier_feature_map(w_grid: Grid) -> FeatureMap:
    """Feature map of the scalar Fourier-coefficient space on [0, 2pi]:
    Psi(j)xi = exp(i j t) xi / sqrt(2pi), the rows of ``fourier_rows``."""

    def evaluate(js, xis):
        return fourier_rows(js, w_grid)[:, :, None] * xi_rows(xis, len(js))[:, None, :]

    return FeatureMap(w_grid=w_grid, dim_y=1, evaluate=evaluate)


def fourier_point_feature_map(w_grid: Grid, max_mode: int) -> FeatureMap:
    """Point-side feature map of the scalar span of Fourier modes
    |j| <= max_mode: Phi(x)xi = sum_j conj(u_j(x)) u_j xi, the projected
    point evaluator, one chirp-z column per point."""
    modes = np.arange(-max_mode, max_mode + 1)

    def evaluate(xs, xis):
        xs = np.asarray(xs, dtype=float)
        coeffs = np.exp(-1j * modes[:, None] * xs)
        waves = uniform_fourier_sum(w_grid.a, w_grid.h, w_grid.n, -max_mode, 1.0, coeffs, sign=1.0).T
        waves /= 2.0 * math.pi
        return waves[:, :, None] * xi_rows(xis, len(xs))[:, None, :]

    return FeatureMap(w_grid=w_grid, dim_y=1, evaluate=evaluate)


def fourier_frame(indices, grid: Grid) -> TruncatedFrame:
    """The frame of the basis K(j) = exp(i j x)/sqrt(2pi) on [0, 2pi], its
    own feature vector, with rows from ``fourier_rows``. The trapezoid Gram
    of these rows is exactly 1 where j = k mod (n - 1) and 0 elsewhere (the
    periodic trapezoid rule), so it is written in closed form with
    asymmetry 0.0."""
    js = fourier_indices(indices)
    h = fourier_rows(js, grid)
    r = np.array([j % (grid.n - 1) for j in js], dtype=np.int64)
    gram = GramMatrix(matrix=(r[:, None] == r[None, :]).astype(complex), indices=tuple(js), asymmetry=0.0)
    return TruncatedFrame(alphas=tuple(js), h=h, h_grid=grid, gram=gram)


@dataclass(frozen=True)
class IntegralPsdReport:
    passed: bool
    worst_real: float
    worst_imag: float
    trials: int


def integral_kernel_psd_test(
    kappa: Callable,
    u_family: Sequence[GridFunction],
    trials: int,
    seed: int = 0,
) -> IntegralPsdReport:
    """Double-quadrature positivity test of a continuous kernel rule.

    For random combinations u = sum c_j u_j with coefficients uniform in the
    complex unit disc, evaluates Q(u) = \\int\\int u(s) kappa(s,t) conj(u(t))
    and passes iff Re Q >= -tol*|u|_1^2 and |Im Q| <= tol*|u|_1^2 throughout,
    tol = 1e-8.
    """
    if not u_family:
        raise ShapeMismatchError("empty u family")
    if int(trials) < 1:
        raise ValidationError(f"a positivity test needs at least one trial, got {trials}")
    g0 = u_family[0]
    if any(not u.same_layout(g0) for u in u_family):
        raise ShapeMismatchError("u family members live on different grids")
    pts = g0.grid.points()
    s_mesh, t_mesh = np.meshgrid(pts, pts, indexing="ij")
    kmat = np.asarray(kappa(s_mesh, t_mesh), dtype=complex)
    w = g0.grid.weights()
    gen = rng(seed)
    stack = np.stack([u.values[:, 0] for u in u_family])
    worst_real = math.inf
    worst_imag = 0.0
    passed = True
    for _ in range(int(trials)):
        c = complex_unit_disc(gen, len(u_family))
        u = c @ stack
        l1 = float(integrate_values(g0.grid, np.abs(u)).real)
        q = complex((w * u) @ kmat @ (w * np.conj(u)))
        bound = 1e-8 * max(l1 * l1, 1e-30)
        worst_real = min(worst_real, q.real)
        worst_imag = max(worst_imag, abs(q.imag))
        if q.real < -bound or abs(q.imag) > bound:
            passed = False
    return IntegralPsdReport(
        passed=passed, worst_real=float(worst_real), worst_imag=float(worst_imag), trials=int(trials)
    )
