"""Kernels from feature maps, Gram assembly and positivity diagnostics.

A kernel section K(alpha)xi is the element of the sample space that
reproduces the functional with index alpha against the output-space vector
xi. A perfect ORKHS is characterized by its features, K(alpha) =
Phi(.)* Psi(alpha), so sum_j c_j K_j = Phi(.)* (sum_j c_j Psi_j): a finite
family of sections is held as one ``TruncatedFrame``, its indices, the Gram
of its features and one synthesis rule for sum_j c_j K_j, and no section is
stored. Frames are built either from a feature-map pair (phi for points,
psi for the functional family) or from concrete constructions in the
companion modules; the Fourier-coefficient frame (``FourierFrame``) is
held by its residue classes, and a frame at equally spaced centres
(``lattice.LatticeFrame``) by its Toeplitz Gram's row. Grams of features are
Hermitian positive semi-definite; this module assembles them, symmetrizes
with a reported asymmetry, and checks positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import (
    Grid, GridFunction, _require_hermitian, hermitian_eig, integrate_values, pseudoinverse, rng, uniform,
    uniform_fourier_sum,
)
from .exceptions import (
    DegenerateFrameError,
    IndependenceError,
    KernelConsistencyError,
    ShapeMismatchError,
    ValidationError,
)
from .families import FunctionalFamily, fourier_indices, fourier_residues, fourier_rows, fourier_synthesis

__all__ = [
    "FeatureMap",
    "xi_rows",
    "GramMatrix",
    "PsdReport",
    "TruncatedFrame",
    "FourierFrame",
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


@dataclass(frozen=True)
class PsdReport:
    min_eig: float
    max_eig: float
    passed: bool


@dataclass(frozen=True)
class TruncatedFrame:
    """A finite kernel family held by its features: the indices, the Gram of
    the features, and ``synthesis``, the rule that maps coefficients c of
    shape (m,) to the values of sum_j c_j K_j on h_grid, shape (n,) or
    (n, dim). No section is stored; ``section(j)`` is the synthesis of the
    j-th unit vector."""

    alphas: tuple
    h_grid: Grid
    gram: GramMatrix = field(repr=False)
    synthesis: Callable = field(repr=False)

    def __post_init__(self):
        m = len(self.alphas)
        if self.gram.matrix.shape != (m, m):
            raise ShapeMismatchError(f"{m} indices with a Gram of shape {self.gram.matrix.shape}")

    def __len__(self) -> int:
        return len(self.alphas)

    def section(self, j: int) -> GridFunction:
        """Section K_j on h_grid, the synthesis of the j-th unit vector."""
        unit = np.zeros(len(self), dtype=complex)
        unit[j] = 1.0
        return self.synthesize(unit)

    def synthesize(self, c) -> GridFunction:
        """sum_j c_j K_j on h_grid, by the frame's synthesis rule."""
        c = np.asarray(c, dtype=complex)
        if c.shape != (len(self),):
            raise ShapeMismatchError(f"expected {len(self)} coefficients, got shape {c.shape}")
        return GridFunction(self.h_grid, self.synthesis(c))

    @property
    def asymmetry(self) -> float:
        """The defect removed in making the Gram Hermitian."""
        return self.gram.asymmetry

    def dual_rule(self) -> Callable:
        """v -> v . pinv(G) on sample rows v, shape (m,) or (k, m), by one SVD
        taken now, dropping singular values <= PINV_CUTOFF times the largest."""
        if not np.any(self.gram.matrix):
            raise DegenerateFrameError("the section Gram is exactly zero", min_eig=0.0, max_eig=0.0)
        pinv = pseudoinverse(self.gram.matrix)
        return lambda v: v @ pinv

    def dual_coeffs(self, rule: Callable) -> np.ndarray:
        """pinv(G) as the dual ``rule`` of the identity, one row per unit vector."""
        return rule(np.eye(len(self), dtype=complex))

    def spectrum(self, cut: Callable) -> np.ndarray:
        """Eigenvalues of the Gram, ascending, enough to read its largest and
        its smallest, and which of them lie above cut(largest): here all of
        them, by dense eigvalsh."""
        return np.linalg.eigvalsh(self.gram.matrix)


class FourierFrame(TruncatedFrame):
    """The frame of the basis K(j) = exp(i j x)/sqrt(2pi) on [0, 2pi], each
    section its own feature vector, held by the class q_j of each residue
    r_j = j mod (n - 1) of ``fourier_residues`` and the class sizes b. The
    trapezoid Gram, 1 where r_j = r_k and 0 elsewhere (the periodic trapezoid
    rule), is formed only when read; sum_j c_j K_j is one ``fourier_synthesis``."""

    def __init__(self, alphas: tuple, h_grid: Grid):
        r = fourier_residues(alphas, h_grid)
        b = np.bincount(r)  # np.unique would add 0.5 MB of peak RSS
        self.__dict__.update(alphas=alphas, h_grid=h_grid, classes=np.cumsum(b > 0)[r] - 1, sizes=b[b > 0],
                             synthesis=lambda c: fourier_synthesis(alphas, c, h_grid))

    @cached_property
    def gram(self) -> GramMatrix:
        q = self.classes
        return GramMatrix(matrix=(q[:, None] == q[None, :]).astype(complex), indices=self.alphas, asymmetry=0.0)

    def dual_rule(self) -> Callable:
        """v -> v . pinv(G) by the class sums S_q of v, c_j = S_{q_j} / b_{q_j}^2:
        a block's singular value is its size b >= 1, above PINV_CUTOFF max(b)
        for fewer than 1e10 indices, so no class is dropped."""
        if not len(self):
            raise DegenerateFrameError("the section Gram is exactly zero", min_eig=0.0, max_eig=0.0)
        q, scale = self.classes, 1.0 / self.sizes**2

        def rule(v):
            sums = np.zeros((*np.shape(v)[:-1], len(scale)), dtype=complex)
            np.add.at(sums, (..., q), v)
            return (sums * scale)[..., q]

        return rule


#: most entries of the scaled column block feature_gram holds at once
_GRAM_BLOCK = 2**15


def feature_gram(stack: np.ndarray, grid: Grid) -> np.ndarray:
    """Exact Gram of stacked feature vectors under the quadrature inner product.

    ``stack`` holds one feature per row on ``grid``, shape (m, n) or
    (m, n, dim). The Gram is A A^H with A the weight-scaled stack, summed
    over column blocks that are scaled as they go, so no scaled copy of the
    stack is held; the result is Hermitian positive semi-definite to machine
    precision. A stack with a non-finite value is refused.
    """
    if stack.ndim not in (2, 3) or stack.shape[0] == 0 or stack.shape[1] != grid.n:
        raise ShapeMismatchError(f"feature stack of shape {stack.shape} does not fit {grid.n} grid points")
    if not np.all(np.isfinite(stack)):
        raise ShapeMismatchError("a feature holds non-finite values")
    a = stack.reshape(stack.shape[0], -1)
    sqw = np.repeat(np.sqrt(grid.weights()), a.shape[1] // grid.n)
    g = np.zeros((a.shape[0], a.shape[0]), dtype=complex)
    step = max(1, _GRAM_BLOCK // a.shape[0])
    for s in range(0, a.shape[1], step):
        block = a[:, s : s + step] * sqw[s : s + step]
        g += block @ block.conj().T
    return g


def _hermitian(m: np.ndarray, indices: tuple) -> GramMatrix:
    """The Gram m, as from ``feature_gram``, Hermitian-symmetrized, with the
    removed defect reported as the asymmetry."""
    asym = float(np.linalg.norm(m - m.conj().T))
    return GramMatrix(matrix=(m + m.conj().T) / 2.0, indices=indices, asymmetry=asym)


#: most entries of point features and partial sums a kernel_from_features synthesis holds at once
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

    The Psi(alpha_j)xi come from one evaluation of the index list, and the
    Gram is their exact Gram. Componentwise, (sum_j c_j K_j)(x)_l =
    <sum_j c_j Psi(alpha_j)xi, Phi(x)e_l> in the feature space: the
    synthesis forms the one combined feature, weight-scales it, and pairs it
    with the conjugated Phi(x)e_l, one evaluation per block of h_grid
    points, each point repeated once per unit vector e_l.
    """
    if phi.w_grid != psi.w_grid or phi.dim_y != psi.dim_y:
        raise ShapeMismatchError("phi and psi must share feature grid and dim_y")
    alphas = tuple(alphas)
    if not alphas:
        raise ShapeMismatchError("empty index list")
    w_grid, dim = psi.w_grid, phi.dim_y
    w = _feature_stack(psi, alphas, xi)
    weights, points, units = w_grid.weights()[:, None], h_grid.points(), np.eye(dim, dtype=complex)
    size = w.shape[1] * w.shape[2]
    step = max(1, _PHI_BLOCK // (dim * (size + math.isqrt(size))))

    def synthesis(c):
        scaled = np.conj(np.tensordot(c, w, axes=1) * weights).reshape(1, -1)
        out = np.empty(h_grid.n * dim, dtype=complex)
        for s in range(0, h_grid.n, step):
            chunk = points[s : s + step]
            block = _feature_stack(phi, np.repeat(chunk, dim), np.tile(units, (len(chunk), 1)), w.shape[2])
            out[s * dim : (s + step) * dim] = np.conj(_chunked_products(scaled, block.reshape(len(block), -1))[0])
        return out.reshape(h_grid.n, dim)

    return TruncatedFrame(alphas, h_grid, _hermitian(feature_gram(w, w_grid), alphas), synthesis)


def gram(frame: TruncatedFrame, functionals: FunctionalFamily) -> GramMatrix:
    """Gram of a frame's sections under a scalar functional family:
    F[j,k] = L_{alpha_k}(K_j).

    Row j applies every index's functional to section j in one ``apply_all``
    call; the result is Hermitian-symmetrized, reporting the asymmetry, and
    refused when the asymmetry shows sections and functionals disagree.
    The Gram of the features themselves is ``frame.gram``.
    """
    values = np.stack([functionals.apply_all(frame.alphas, frame.section(j)) for j in range(len(frame))])
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


def psd_check(g: GramMatrix | TruncatedFrame) -> PsdReport:
    """Positive semi-definiteness report for a Hermitian Gram, or for a
    frame's Gram by its ``spectrum``: passes iff the smallest eigenvalue is at
    least -1e-8 max(|max_eig|, 1). A Gram's eigenvalues are dense eigvalsh of
    it once it is seen to be Hermitian; a ``LatticeFrame`` brackets its extremes
    by Lanczos and takes eigvalsh only where a bracket meets the threshold."""
    cut = lambda top: -1e-8 * max(abs(top), 1.0)  # noqa: E731
    w = np.linalg.eigvalsh(_require_hermitian(g.matrix)) if isinstance(g, GramMatrix) else g.spectrum(cut)
    min_eig, max_eig = float(w[0]), float(w[-1])
    return PsdReport(min_eig=min_eig, max_eig=max_eig, passed=min_eig >= cut(max_eig))


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
    functional of the family exactly on the span. The synthesis of c is the
    basis stack against C c, and the Gram is C^T conj(A) conj(C).
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
    g = _hermitian(c.T @ a.conj() @ c.conj(), alphas)
    return TruncatedFrame(alphas, grid, g, lambda coeffs: np.tensordot(c @ coeffs, stack, axes=1))


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
    """Point-side feature map of the scalar span of Fourier modes |j| <=
    max_mode on [0, 2pi]: Phi(x)xi = sum_j conj(u_j(x)) u_j xi, the projected
    point evaluator, one ``fourier_synthesis`` of the conj(u_j(x)) per point."""
    modes = np.arange(-max_mode, max_mode + 1)

    def evaluate(xs, xis):
        waves = np.empty((len(xs), w_grid.n), dtype=complex)
        for row, x in zip(waves, np.asarray(xs, dtype=float)):
            row[:] = fourier_synthesis(modes, np.exp(-1j * modes * x) / math.sqrt(2.0 * math.pi), w_grid)
        return waves[:, :, None] * xi_rows(xis, len(xs))[:, None, :]

    return FeatureMap(w_grid=w_grid, dim_y=1, evaluate=evaluate)


def fourier_frame(indices, grid: Grid) -> FourierFrame:
    """The frame of the basis K(j) = exp(i j x)/sqrt(2pi) on [0, 2pi], one
    section per index, as a ``FourierFrame``: no section is formed."""
    return FourierFrame(alphas=tuple(fourier_indices(indices)), h_grid=grid)


@dataclass(frozen=True)
class IntegralPsdReport:
    passed: bool
    worst_real: float


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
    # a trial's row: k doubles r, then k doubles v; c = sqrt(r) exp(2 pi i v)
    k = len(u_family)
    r = uniform(rng(seed), (int(trials), 2 * k))
    coeffs = np.sqrt(r[:, :k]) * np.exp(1j * (2.0 * np.pi * r[:, k:]))
    stack = np.stack([f.values[:, 0] for f in u_family])
    worst_real = math.inf
    passed = True
    for c in coeffs:
        u = c @ stack
        l1 = float(integrate_values(g0.grid, np.abs(u)).real)
        q = complex((w * u) @ kmat @ (w * np.conj(u)))
        bound = 1e-8 * max(l1 * l1, 1e-30)
        worst_real = min(worst_real, q.real)
        if q.real < -bound or abs(q.imag) > bound:
            passed = False
    return IntegralPsdReport(passed=passed, worst_real=float(worst_real))
