"""Integer-shift space machinery: B-spline generators, dual generators,
functional kernel sections for local averages, their Gram, and the
frequency-side density diagnostic.

Generators are real, continuous, compactly supported and held by closed
forms; their integer shifts form a Riesz basis when the bracket, the finite
cosine sum of their autocorrelation, is bounded away from zero. The dual
generator synthesizes the biorthogonal basis and everything downstream
(kernels, Grams) is built from the two.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Grid, GridFunction
from .exceptions import RieszConditionError, ShapeMismatchError, ValidationError
from .families import AverageFunctional, fourier_coefficients, fourier_period
from .kernels import GramMatrix, _hermitian

__all__ = [
    "bspline",
    "bspline_transform",
    "Generator",
    "DualGenerator",
    "make_generator",
    "bracket_function",
    "dual_generator",
    "biorthogonality_residual",
    "si_functional_kernel",
    "si_gram",
    "density_diagnostic",
    "fourier_coefficient_identity_check",
]

TWO_PI = 2.0 * math.pi

#: step of the band beyond the support that the support check samples
PHI_STEP = 1.0 / 1024

# order, support radius R and autocorrelation a_k = <phi, phi(. - k)>, k < 2R:
# the B-spline of twice the order at the integers (Euler-Frobenius)
_SPLINES = {
    "box": (1, 1, (1.0,)),
    "hat": (2, 1, (2 / 3, 1 / 6)),
    "cubic": (4, 2, (151 / 315, 397 / 1680, 1 / 42, 1 / 5040)),
}
# Frequencies per alias block, at least and at most; between, the result's size.
_ALIAS_BLOCK = (2**12, 2**15)


def _count(name: str, value) -> int:
    """value as a non-negative int, refused by name when it is negative or
    not integral."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}") from None
    if n < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {n}")
    return n


def bspline(order: int, x) -> np.ndarray:
    """Centered B-spline of the given order, sampled exactly from the
    piecewise-polynomial formulas. Order 1 is the unit box, 2 the hat, 4 the
    cubic."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if order == 1:
        return np.where(ax < 0.5, 1.0, np.where(ax == 0.5, 0.5, 0.0))
    if order == 2:
        return np.maximum(1.0 - ax, 0.0)
    if order == 4:
        ax2 = ax * ax
        inner = 2.0 / 3.0 - ax2 + ax2 * ax / 2.0
        outer = _power(2.0 - ax, 3) / 6.0
        return np.where(ax <= 1.0, inner, np.where(ax <= 2.0, outer, 0.0))
    raise ValidationError(f"unsupported spline order {order}; use 1, 2 or 4")


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n for an integer n by repeated squaring when n >= 1. numpy hands
    an exponent above 2 to libm pow, which is some 40 times slower than the
    multiplications and agrees with them to a few ulp."""
    if n < 1:
        return x**n
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


def bspline_transform(order: int, omega) -> np.ndarray:
    """Closed-form transform (sin(w/2)/(w/2))**order of the centered spline,
    real and even; the power is taken by multiplication."""
    return _power(np.sinc(np.asarray(omega, dtype=float) / TWO_PI), order)


@dataclass(frozen=True)
class Generator:
    """Shift-space generator by its closed forms: ``phi_fn`` evaluates phi,
    ``phi_hat`` its Fourier transform, and ``autocorrelation`` holds
    a_k = <phi, phi(. - k)> for 0 <= k < 2R (it vanishes beyond). ``j_trunc``
    bounds the aliases of the density diagnostic and the identity check."""

    support_radius: int
    phi_fn: Callable = field(repr=False)
    phi_hat: Callable = field(repr=False)
    autocorrelation: tuple
    j_trunc: int = 64
    name: str = "custom"

    def __post_init__(self):
        _count("j_trunc", self.j_trunc)
        # 1024 steps of PHI_STEP: a band of width one beyond the support on each side
        beyond = self.support_radius + PHI_STEP * np.arange(1, 1025)
        if np.any(self.evaluate(np.concatenate((-beyond, beyond))) != 0.0):
            raise ValidationError(f"generator is nonzero beyond support_radius={self.support_radius}")

    def evaluate(self, x) -> np.ndarray:
        return self.phi_fn(np.asarray(x, dtype=float))

    def transform(self, omega) -> np.ndarray:
        """phi_hat at omega in the dtype phi_hat returns: real for the even
        splines."""
        return np.asarray(self.phi_hat(np.asarray(omega, dtype=float)))


def make_generator(kind: str) -> Generator:
    """Named B-spline generator: the centred spline, its transform and its
    autocorrelation in closed form, with the aliases of the density
    diagnostic taken over |j| <= 64."""
    if kind not in _SPLINES:
        raise ValidationError(f"unknown generator {kind!r}; choose from {sorted(_SPLINES)}")
    order, radius, autocorrelation = _SPLINES[kind]
    return Generator(
        support_radius=radius,
        phi_fn=lambda x: bspline(order, x),
        phi_hat=lambda w: bspline_transform(order, w),
        autocorrelation=autocorrelation,
        name=kind,
    )


def _aliases(xi: np.ndarray, j_trunc: int, rows: int):
    """The aliases xi + 2 pi l, |l| <= j_trunc, l ascending, as blocks
    (ls, om): the b alias indices ls and the (xi.size, b) frequencies om,
    at most max(2**12, rows * xi.size) of them, never over 2**15 (one column
    when xi alone is longer): a block's temporaries scale with the rows x xi
    result it feeds, and below 2**15 all rows take about 2 j_trunc + 1 products."""
    ls = np.arange(-j_trunc, j_trunc + 1)
    chunk = max(1, min(max(_ALIAS_BLOCK[0], rows * xi.size), _ALIAS_BLOCK[1]) // max(xi.size, 1))
    for s in range(0, ls.size, chunk):
        block = ls[s : s + chunk]
        yield block, xi[:, None] + TWO_PI * block


def bracket_function(gen: Generator, xi) -> np.ndarray:
    """The bracket sum_l |phi_hat(xi + 2 pi l)|^2 as its Poisson sum
    a_0 + 2 sum_{k >= 1} a_k cos(k xi) over the autocorrelation: exact, as
    a real generator of compact support has finitely many a_k.

    Raises RieszConditionError when any value fails positivity.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    a = np.asarray(gen.autocorrelation, dtype=float)
    vals = a[0] + 2.0 * (np.cos(np.multiply.outer(xi, np.arange(1, a.size))) @ a[1:])
    if np.any(vals <= 0.0):
        raise RieszConditionError(f"bracket nonpositive (min {vals.min():.3e}); integer shifts are no Riesz basis")
    return vals


def _shift_window(gen: Generator, y: np.ndarray, k: int) -> slice:
    """Slice of the sorted points y inside the support [k - R, k + R] of
    phi(. - k)."""
    r = gen.support_radius
    return slice(np.searchsorted(y, k - r, side="left"), np.searchsorted(y, k + r, side="right"))


def _shift_sum(gen: Generator, k0: int, coeffs: np.ndarray, out_grid: Grid) -> np.ndarray:
    """sum_i coeffs[i] phi(. - (k0 + i)) on the grid, evaluating each shift
    only on its support window. A window whose offsets y - k equal the
    previous window's reuses its phi values: on a grid aligned with the
    integers that is every shift after the first."""
    y = out_grid.points()
    out = np.zeros(out_grid.n, dtype=complex)
    offsets = vals = None
    for k, c in enumerate(coeffs, start=k0):
        w = _shift_window(gen, y, k)
        t = y[w] - k
        if offsets is None or not np.array_equal(t, offsets):
            offsets, vals = t, gen.evaluate(t)
        out[w] += c * vals
    return out


@dataclass(frozen=True)
class DualGenerator:
    """Dual generator phi~ = sum_k b_k phi(.-k), |k| <= k_max, with b_k the
    Fourier coefficients of the reciprocal periodization. A shift-space
    element sum_i c_i phi~(. - (k0 + i)) has the phi-shift coefficients
    np.convolve(c, b_coeffs), starting at shift k0 - k_max."""

    b_coeffs: np.ndarray = field(repr=False)
    k_max: int
    source: Generator = field(repr=False)


def dual_generator(gen: Generator, k_max: int) -> DualGenerator:
    """Dual coefficients b_k = (1/2pi) int_{-pi}^{pi} exp(-i k xi)/bracket(xi),
    by the periodic trapezoid rule, one FFT that converges geometrically as
    the bracket is a positive trigonometric polynomial. It takes 2049 points,
    or 2 k_max + 2 when more: n points resolve n - 1 residues, and b_k for
    |k| <= k_max must not alias."""
    k_max = _count("k_max", k_max)
    grid_xi = Grid(-math.pi, math.pi, max(2049, 2 * k_max + 2))
    signs, period = fourier_period(ks := range(-k_max, k_max + 1), grid_xi)
    b = fourier_coefficients(ks, 1.0 / bracket_function(gen, grid_xi.points()), period) * signs / math.sqrt(TWO_PI)
    return DualGenerator(b_coeffs=b, k_max=k_max, source=gen)


def biorthogonality_residual(dual: DualGenerator, shifts: Sequence[int]) -> float:
    """max_j |<phi~, phi(. - j)> - [j == 0]| over the shifts, each pairing
    the exact finite sum sum_k b_k a_{j - k} over the autocorrelation a of
    the real generator: one convolution, no quadrature."""
    a = np.asarray(dual.source.autocorrelation, dtype=float)
    pairs = np.convolve(dual.b_coeffs, np.concatenate((a[:0:-1], a)))
    lo = -dual.k_max - (a.size - 1)
    worst = 0.0
    for j in shifts:
        pair = pairs[j - lo] if 0 <= j - lo < pairs.size else 0.0
        worst = max(worst, abs(pair - (1.0 if j == 0 else 0.0)))
    return float(worst)


def _average_coefficients(
    gen: Generator, u_list: Sequence[AverageFunctional], quad_n: int = 4097
) -> tuple[np.ndarray, np.ndarray]:
    """Shift range ks of the whole list and the (shifts x functionals)
    matrix C[k, i] = int u_i(t) conj(phi(t - k)) dt, by trapezoid quadrature
    on quad_n points of the support of u_i. Each column is computed only on
    the about 2R+1 shifts whose support meets that of u_i, each as one
    pairwise sum over its nodes in [k - R, k + R]; the rest stay exactly 0."""
    r = gen.support_radius
    firsts = [math.floor(u.support[0] - r) for u in u_list]
    lasts = [math.ceil(u.support[1] + r) for u in u_list]
    ks = np.arange(min(firsts), max(lasts) + 1)
    cmat = np.zeros((ks.size, len(u_list)), dtype=complex)
    for i, (u, first, last) in enumerate(zip(u_list, firsts, lasts)):
        g = u.quad_grid(quad_n)
        t, w = g.points(), g.weights()
        ut = u.evaluate(t)
        for k in range(first, last + 1):
            s = _shift_window(gen, t, k)
            cmat[k - ks[0], i] = np.sum(ut[s] * np.conj(gen.evaluate(t[s] - k)) * w[s])
    return ks, cmat


def si_functional_kernel(
    gen: Generator,
    dual: DualGenerator,
    u: AverageFunctional,
    out_grid: Grid,
) -> GridFunction:
    """Kernel section of the average functional on the shift space:
    K(u)(x) = sum_k (int u(t) conj(phi(t-k)) dt) phi~(x-k), each coefficient
    by trapezoid quadrature on 4097 points of the support of u."""
    ks, c = _average_coefficients(gen, [u])
    vals = _shift_sum(gen, int(ks[0]) - dual.k_max, np.convolve(c[:, 0], dual.b_coeffs), out_grid)
    return GridFunction(out_grid, vals)


def si_gram(
    gen: Generator,
    dual: DualGenerator,
    u_list: Sequence[AverageFunctional],
) -> GramMatrix:
    """Gram of average-functional sections, assembled as C^H B C where
    B[m, m'] = b_{m'-m} is the (positive) dual-coefficient Toeplitz matrix,
    each coefficient by trapezoid quadrature on 4097 points of the support
    of u. The structure keeps the matrix Hermitian PSD to machine precision."""
    if not u_list:
        raise ShapeMismatchError("empty functional list")
    ks, cmat = _average_coefficients(gen, u_list)
    # lags beyond k_max carry exponentially small coefficients; pad zero
    pad = max(ks.size - 1 - dual.k_max, 0)
    b = np.pad(dual.b_coeffs, pad)
    mid = dual.k_max + pad  # b[mid + lag] = b_lag
    d = np.arange(ks.size)
    bmat = b[mid + d - d[:, None]]
    return _hermitian(cmat.conj().T @ bmat @ cmat, tuple(u.x for u in u_list))


@dataclass(frozen=True)
class DensityReport:
    rank: int
    smallest_singular: float
    family_size: int

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.family_size


def _g_values(gen: Generator, u_list: Sequence[AverageFunctional], xi: np.ndarray, j_trunc: int) -> np.ndarray:
    """One row per functional: g_u(xi) = sum_{|l| <= J} u^(xi + 2 pi l)
    conj(phi_hat(xi + 2 pi l)), with u^(w) = exp(-i w x) m(w) from the closed
    form m of the centred profile. Since exp(-i (xi + 2 pi l) x) =
    exp(-i xi x) exp(-2 pi i l x), each alias block takes phi_hat once for
    all functionals and m once per (delta, profile); a functional then adds
    the block's terms times its b phases exp(-2 pi i l x), one matrix-vector
    product; the row takes exp(-i xi x) once at the end. ``_aliases`` sizes the blocks."""
    sums = np.zeros((len(u_list), xi.size), dtype=complex)
    for ls, om in _aliases(xi, j_trunc, len(u_list)):
        phi_conj = np.conj(gen.transform(om))
        terms = {}
        for row, u in zip(sums, u_list):
            key = (u.delta, u.profile_name)
            if key not in terms:
                terms[key] = u.centered_transform(om) * phi_conj
            row += terms[key] @ np.exp(-2j * math.pi * u.x * ls)
    return np.exp(-1j * np.outer([u.x for u in u_list], xi)) * sums


def density_diagnostic(
    gen: Generator,
    u_family: Sequence[AverageFunctional],
    xi_grid: Grid,
) -> DensityReport:
    """Necessary-condition diagnostic for the functional family to span the
    shift space: numerical rank (singular values above 1e-10 of the largest)
    and smallest singular value of the family {g_u} on the frequency
    interval, periodized over the generator's j_trunc. A finite family can
    never certify density; the report only refutes it (rank deficiency)."""
    if not u_family:
        raise ShapeMismatchError("empty functional family")
    xs = xi_grid.points()
    sqw = np.sqrt(xi_grid.weights())
    a = _g_values(gen, u_family, xs, gen.j_trunc) * sqw
    s = np.linalg.svd(a, compute_uv=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-10 * max(smax, 1e-300)))
    return DensityReport(rank=rank, smallest_singular=float(s[-1]) if s.size else 0.0, family_size=len(u_family))


def fourier_coefficient_identity_check(
    gen: Generator,
    u: AverageFunctional,
    k_range: int,
    j_trunc: int | None = None,
    quad_n: int = 4097,
    xi_n: int = 1025,
) -> float:
    """Max deviation between the time-side coefficients int u conj(phi(.-k))
    and the frequency-side coefficients (1/2pi) int_{-pi}^{pi} g_u(xi)
    exp(i k xi) d xi (one periodic FFT, read at -k), over |k| <= k_range. The
    deviation is dominated by the periodization truncation and the quadrature
    steps; it contracts by at least a factor two when both resolutions are doubled."""
    j = gen.j_trunc if j_trunc is None else _count("j_trunc", j_trunc)
    k_range = _count("k_range", k_range)
    ks_u, c = _average_coefficients(gen, [u], quad_n)
    inside = np.abs(ks_u) <= k_range
    time_side = np.zeros(2 * k_range + 1, dtype=complex)
    time_side[ks_u[inside] + k_range] = c[inside, 0]
    grid_xi = Grid(-math.pi, math.pi, int(xi_n))
    g = _g_values(gen, [u], grid_xi.points(), j)[0]
    signs, period = fourier_period(ks := range(k_range, -k_range - 1, -1), grid_xi)
    freq_side = fourier_coefficients(ks, g, period) * signs / math.sqrt(TWO_PI)
    return float(np.max(np.abs(time_side - freq_side)))
