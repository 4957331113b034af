"""Kernels from feature maps, Gram assembly and positivity diagnostics.

A kernel section K(alpha)xi is the element of the sample space that
reproduces the functional with index alpha against the output-space vector
xi. Sections are built either from a feature-map pair (phi for points, psi
for the functional family) or from concrete constructions in the companion
modules. Grams of sections are Hermitian positive semi-definite; this module
assembles them, symmetrizes with a reported asymmetry, and checks positivity.
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
    fourier_sum,
    hermitian_eig,
    inner_product,
    integrate_values,
    rng,
    solve_hermitian,
    uniform_fourier_sum,
)
from .exceptions import (
    IndependenceError,
    KernelConsistencyError,
    ShapeMismatchError,
)
from .families import FunctionalFamily

__all__ = [
    "FeatureMap",
    "KernelSection",
    "GramMatrix",
    "PsdReport",
    "kernel_from_features",
    "gram",
    "feature_gram",
    "psd_check",
    "finite_dim_kernel",
    "translation_invariant_section",
    "translation_invariant_kernel",
    "integral_kernel_psd_test",
    "check_feature_linearity",
    "fourier_feature_map",
    "fourier_point_feature_map",
]


@dataclass(frozen=True)
class FeatureMap:
    """Evaluates Phi(alpha)xi as an element of the discretized feature space.

    ``evaluate(alpha, xi)`` must be linear in xi and return a GridFunction on
    ``w_grid`` whose dim matches the feature space layout.
    """

    w_grid: Grid
    dim_y: int
    evaluate: Callable

    def __call__(self, alpha, xi=None) -> GridFunction:
        if xi is None:
            xi = np.ones(self.dim_y, dtype=complex) if self.dim_y > 1 else np.array([1.0 + 0j])
        return self.evaluate(alpha, np.asarray(xi, dtype=complex))


def check_feature_linearity(fm: FeatureMap, alphas: Sequence, seed: int = 0) -> float:
    """Max deviation of Phi(alpha)(xi+eta) from Phi(alpha)xi + Phi(alpha)eta
    over random xi, eta draws, refused above 1e-10; used to validate
    user-supplied feature rules."""
    gen = rng(seed)
    worst = 0.0
    for alpha in alphas:
        xi = complex_unit_disc(gen, fm.dim_y)
        eta = complex_unit_disc(gen, fm.dim_y)
        lhs = fm.evaluate(alpha, xi + eta)
        rhs = fm.evaluate(alpha, xi) + fm.evaluate(alpha, eta)
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    if worst > 1e-10:
        raise KernelConsistencyError(f"feature map not linear in xi (deviation {worst:.3e})")
    return worst


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


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix F[j,k] = <L_{alpha_k}(K(alpha_j)xi_j), xi_k> with the
    index list and the symmetrization defect that was removed."""

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


def _inner_y(u: np.ndarray, v: np.ndarray) -> complex:
    """C^k inner product, linear in the first argument."""
    return complex(np.sum(np.asarray(u) * np.conj(np.asarray(v))))


def kernel_from_features(
    phi: FeatureMap,
    psi: FeatureMap,
    alpha,
    xi,
    h_grid: Grid,
) -> KernelSection:
    """Section of the kernel K(alpha) = Phi(.)* Psi(alpha).

    Componentwise, h_repr(x)_l = <Psi(alpha)xi, Phi(x)e_l> in the feature
    space, evaluated for every x in h_grid.
    """
    if phi.w_grid != psi.w_grid or phi.dim_y != psi.dim_y:
        raise ShapeMismatchError("phi and psi must share feature grid and dim_y")
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    w = psi.evaluate(alpha, xi)
    points = h_grid.points()
    vals = np.empty((h_grid.n, phi.dim_y), dtype=complex)
    basis = np.eye(phi.dim_y, dtype=complex)
    for i, x in enumerate(points):
        for l in range(phi.dim_y):
            vals[i, l] = inner_product(w, phi.evaluate(float(x), basis[l]))
    return KernelSection(alpha=alpha, xi=xi, h_repr=GridFunction(h_grid, vals), w_repr=w)


#: most entries of the scaled column block feature_gram holds at once
_GRAM_BLOCK = 2**15


def _stack_values(functions: Sequence[GridFunction]) -> tuple[np.ndarray, Grid]:
    """The values of grid functions on one grid, stacked: (m, n, dim)."""
    if not functions:
        raise ShapeMismatchError("empty section list")
    first = functions[0]
    if any(not f.same_layout(first) for f in functions):
        raise ShapeMismatchError("sections live on different grids")
    return np.stack([f.values for f in functions]), first.grid


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


def gram(
    sections: Sequence[KernelSection],
    functionals: FunctionalFamily | None = None,
) -> GramMatrix:
    """Gram of kernel sections: F[j,k] = <L_{alpha_k}(K(alpha_j)xi_j), xi_k>.

    Without a family the Gram comes from the sections' feature vectors
    (exact PSD Gram, valid by the feature identity
    L_beta(K(alpha)xi) = Psi(beta)* Psi(alpha)xi). With a family, row j
    applies every section's functional to section j in one ``apply_all``
    call and pairs the results with the stacked xi; the result is
    Hermitian-symmetrized, reporting the asymmetry.
    """
    if not sections:
        raise ShapeMismatchError("empty section list")
    indices = tuple((s.alpha, s.xi) for s in sections)
    if functionals is None:
        if any(s.w_repr is None for s in sections):
            raise ShapeMismatchError("a Gram without a family needs w_repr on every section")
        return _hermitian_gram(*_stack_values([s.w_repr for s in sections]), indices)
    alphas = [s.alpha for s in sections]
    xi_conj = np.conj(np.stack([s.xi for s in sections]))
    m = np.stack([np.sum(functionals.apply_all(alphas, s.h_repr) * xi_conj, axis=1) for s in sections])
    scale = max(np.linalg.norm(m), 1e-30)
    asym = float(np.linalg.norm(m - m.conj().T) / scale)
    if asym > 1e-6:
        raise KernelConsistencyError(
            f"kernel/functional asymmetry {asym:.3e} exceeds tolerance; "
            "sections and functionals are inconsistent"
        )
    return GramMatrix(matrix=(m + m.conj().T) / 2.0, indices=indices, asymmetry=asym)


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
    alpha,
    xi,
) -> KernelSection:
    """Kernel section of the finite-dimensional space spanned by the basis.

    With A[j,k] = <phi_k, phi_j> and B = A^{-1}, the section is
    K(alpha)xi = sum_{j,k} B[j,k] <xi, L_alpha(phi_k)> phi_j, which
    reproduces every functional of the family exactly on the span.
    """
    n = len(basis)
    if n == 0:
        raise ShapeMismatchError("empty basis")
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    a = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            a[j, k] = inner_product(basis[k], basis[j])
    w, _ = hermitian_eig((a + a.conj().T) / 2.0)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise IndependenceError(
            "basis functions are numerically linearly dependent",
            min_eig=float(w[0]),
            max_eig=float(w[-1]),
        )
    r = np.array([_inner_y(xi, functionals.apply(alpha, phi_k)) for phi_k in basis])
    c = solve_hermitian((a + a.conj().T) / 2.0, r)
    vals = sum(c[j] * basis[j].values for j in range(n))
    return KernelSection(alpha=alpha, xi=xi, h_repr=GridFunction(basis[0].grid, vals))


def translation_invariant_kernel(varphi: GridFunction, x, y) -> np.ndarray:
    """Pointwise kernel values \\int exp(i(x-y)t) varphi(t) dt by quadrature."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    weighted = varphi.values[:, 0] * varphi.grid.weights()
    return fourier_sum(x - y, varphi.grid.points(), weighted, sign=1.0)


def translation_invariant_section(
    varphi: GridFunction,
    u_alpha: GridFunction,
    out_grid: Grid,
) -> KernelSection:
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
    return KernelSection(
        alpha=None,
        xi=np.array([1.0 + 0j]),
        h_repr=GridFunction(out_grid, vals),
    )


def fourier_feature_map(w_grid: Grid) -> FeatureMap:
    """Feature map of the scalar Fourier-coefficient space on [0, 2pi]:
    Psi(j)xi = exp(i j t) xi / sqrt(2pi)."""
    t = w_grid.points()

    def evaluate(j, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=complex))
        wave = np.exp(1j * int(j) * t) / math.sqrt(2.0 * math.pi)
        return GridFunction(w_grid, np.outer(wave, xi))

    return FeatureMap(w_grid=w_grid, dim_y=1, evaluate=evaluate)


def fourier_point_feature_map(w_grid: Grid, max_mode: int) -> FeatureMap:
    """Point-side feature map of the scalar span of Fourier modes
    |j| <= max_mode: Phi(x)xi = sum_j conj(u_j(x)) u_j xi, the projected
    point evaluator."""
    modes = np.arange(-max_mode, max_mode + 1)

    def evaluate(x, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=complex))
        coeffs = np.exp(-1j * modes * float(x))
        wave = uniform_fourier_sum(w_grid.a, w_grid.h, w_grid.n, -max_mode, 1.0, coeffs, sign=1.0)
        wave /= 2.0 * math.pi
        return GridFunction(w_grid, np.outer(wave, xi))

    return FeatureMap(w_grid=w_grid, dim_y=1, evaluate=evaluate)


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
