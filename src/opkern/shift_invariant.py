"""Integer-shift space machinery: B-spline generators, dual generators,
functional kernel sections for local averages, their Gram, and the
frequency-side density diagnostic.

Generators are real, continuous and compactly supported; their integer
shifts form a Riesz basis when the periodized transform energy is bounded
away from zero. The dual generator synthesizes the biorthogonal basis and
everything downstream (kernels, Grams) is built from the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Grid, GridFunction, integrate_values, uniform_fourier_sum
from .exceptions import RieszConditionError, ShapeMismatchError, ValidationError
from .families import AverageFunctional
from .kernels import GramMatrix

__all__ = [
    "bspline",
    "bspline_transform",
    "Generator",
    "DualGenerator",
    "make_generator",
    "bracket_function",
    "bracket_tail_estimate",
    "dual_generator",
    "biorthogonality_residual",
    "si_functional_kernel",
    "si_gram",
    "density_diagnostic",
    "fourier_coefficient_identity_check",
]

TWO_PI = 2.0 * math.pi

_SPLINE_ORDERS = {"box": 1, "hat": 2, "cubic": 4}
_SPLINE_RADII = {"box": 1, "hat": 1, "cubic": 2}


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
        inner = 2.0 / 3.0 - ax**2 + ax**3 / 2.0
        outer = (2.0 - ax) ** 3 / 6.0
        return np.where(ax <= 1.0, inner, np.where(ax <= 2.0, outer, 0.0))
    raise ValidationError(f"unsupported spline order {order}; use 1, 2 or 4")


def bspline_transform(order: int, omega) -> np.ndarray:
    """Closed-form transform (sin(w/2)/(w/2))**order of the centered spline."""
    return np.sinc(np.asarray(omega, dtype=float) / TWO_PI) ** order


@dataclass(frozen=True)
class Generator:
    """Shift-space generator: sampled values, exact evaluator, transform rule.

    ``phi_fn`` evaluates phi and ``phi_hat`` its Fourier transform; for the
    named splines both are closed forms. ``decay_order`` feeds the
    periodization tail estimate |phi_hat(w)| <~ (2/|w|)^decay_order.
    """

    phi: GridFunction = field(repr=False)
    support_radius: int
    phi_fn: Callable = field(repr=False)
    phi_hat: Callable = field(repr=False)
    j_trunc: int = 64
    decay_order: int = 1
    name: str = "custom"

    def __post_init__(self):
        outside = np.abs(self.phi.grid.points()) > self.support_radius + 1e-12
        if np.any(self.phi.values[outside] != 0.0):
            raise ValidationError(f"generator samples are nonzero beyond support_radius={self.support_radius}")

    def evaluate(self, x) -> np.ndarray:
        return self.phi_fn(np.asarray(x, dtype=float))

    def transform(self, omega) -> np.ndarray:
        return np.asarray(self.phi_hat(np.asarray(omega, dtype=float)), dtype=complex)


def make_generator(kind: str, h: float = 1.0 / 1024.0) -> Generator:
    """Named B-spline generator on an integer-aligned grid over its support,
    periodized over |j| <= 64."""
    if kind not in _SPLINE_ORDERS:
        raise ValidationError(f"unknown generator {kind!r}; choose from {sorted(_SPLINE_ORDERS)}")
    order = _SPLINE_ORDERS[kind]
    radius = _SPLINE_RADII[kind]
    n = int(round(2 * radius / h)) + 1
    grid = Grid(-float(radius), float(radius), n)
    fn = lambda x: bspline(order, x)  # noqa: E731
    return Generator(
        phi=GridFunction(grid, fn(grid.points()).astype(complex)),
        support_radius=radius,
        j_trunc=64,
        decay_order=order,
        name=kind,
        phi_fn=fn,
        phi_hat=lambda w: bspline_transform(order, w),
    )


def _aliases(xi: np.ndarray, j_trunc: int):
    """The aliases xi + 2 pi l, |l| <= j_trunc, l ascending, as blocks of
    shape (xi.size, b) holding at most 4,000,000 frequencies each."""
    ls = np.arange(-j_trunc, j_trunc + 1)
    chunk = max(1, 4_000_000 // max(xi.size, 1))
    for s in range(0, ls.size, chunk):
        yield xi[:, None] + TWO_PI * ls[None, s : s + chunk]


def bracket_function(gen: Generator, xi) -> np.ndarray:
    """Truncated periodization sum_{|j| <= j_trunc} |phi_hat(xi + 2 pi j)|^2.

    Raises RieszConditionError when any truncated value fails positivity.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    vals = sum((np.sum(np.abs(gen.transform(om)) ** 2, axis=1) for om in _aliases(xi, gen.j_trunc)), np.zeros(xi.shape))
    if np.any(vals <= 0.0):
        raise RieszConditionError(
            f"periodized generator energy nonpositive (min {vals.min():.3e}); "
            "integer shifts do not form a Riesz basis at this truncation"
        )
    return vals


def bracket_tail_estimate(gen: Generator) -> float:
    """Tail of the periodization beyond j_trunc, from the decay-order bound
    |phi_hat(w)| <= ||phi||_1 (2/|w|)^k."""
    k = max(int(gen.decay_order), 1)
    l1 = float(integrate_values(gen.phi.grid, np.abs(gen.phi.values[:, 0])).real)
    j = gen.j_trunc
    return 2.0 * l1**2 / (math.pi ** (2 * k) * (2 * k - 1) * (j - 0.5) ** (2 * k - 1))


def _shift_window(gen: Generator, y: np.ndarray, k: int) -> slice:
    """Slice of the sorted points y inside the support [k - R, k + R] of
    phi(. - k)."""
    r = gen.support_radius
    return slice(np.searchsorted(y, k - r, side="left"), np.searchsorted(y, k + r, side="right"))


def _shift_sum(gen: Generator, k0: int, coeffs: np.ndarray, out_grid: Grid) -> np.ndarray:
    """sum_i coeffs[i] phi(. - (k0 + i)) on the grid, evaluating each shift
    only on its support window."""
    y = out_grid.points()
    out = np.zeros(out_grid.n, dtype=complex)
    for k, c in enumerate(coeffs, start=k0):
        w = _shift_window(gen, y, k)
        out[w] += c * gen.evaluate(y[w] - k)
    return out


@dataclass(frozen=True)
class DualGenerator:
    """Dual generator phi~ = sum_k b_k phi(.-k), |k| <= k_max, with b_k the
    Fourier coefficients of the reciprocal periodization. A shift-space
    element sum_i c_i phi~(. - (k0 + i)) has the phi-shift coefficients
    np.convolve(c, b_coeffs), starting at shift k0 - k_max."""

    b_coeffs: np.ndarray = field(repr=False)
    k_max: int
    phi_tilde: GridFunction = field(repr=False)
    source: Generator = field(repr=False)


def dual_generator(gen: Generator, k_max: int) -> DualGenerator:
    """Dual coefficients b_k = (1/2pi) int_{-pi}^{pi} exp(-i k xi)/bracket(xi),
    by trapezoid quadrature on 2049 points, and the synthesized dual on the
    generator grid extended by k_max."""
    grid_xi = Grid(-math.pi, math.pi, 2049)
    xs = grid_xi.points()
    recip = 1.0 / bracket_function(gen, xs)
    weighted = recip * grid_xi.weights()
    b = uniform_fourier_sum(-k_max, 1.0, 2 * k_max + 1, grid_xi.a, grid_xi.h, weighted) / TWO_PI
    r = gen.support_radius
    h = gen.phi.grid.h
    ext = Grid(-(r + k_max), float(r + k_max), int(round(2 * (r + k_max) / h)) + 1)
    vals = _shift_sum(gen, -k_max, b, ext)
    return DualGenerator(b_coeffs=b, k_max=int(k_max), phi_tilde=GridFunction(ext, vals), source=gen)


def biorthogonality_residual(dual: DualGenerator, shifts: Sequence[int]) -> float:
    """max_j |<phi~, phi(. - j)> - [j == 0]| over the shifts, each pairing
    integrated over the support window of phi(. - j)."""
    grid = dual.phi_tilde.grid
    y, w = grid.points(), grid.weights()
    worst = 0.0
    for j in shifts:
        s = _shift_window(dual.source, y, j)
        overlap = np.conj(dual.source.evaluate(y[s] - j)) * dual.phi_tilde.values[s, 0]
        worst = max(worst, abs(np.sum(w[s] * overlap) - (1.0 if j == 0 else 0.0)))
    return float(worst)


def _average_coefficients(
    gen: Generator, u_list: Sequence[AverageFunctional], quad_n: int = 4097
) -> tuple[np.ndarray, np.ndarray]:
    """Shift range ks of the whole list and the (shifts x functionals)
    matrix C[k, i] = int u_i(t) conj(phi(t - k)) dt, by trapezoid quadrature
    on quad_n points of the support of u_i. Each column is computed only on
    the about 2R+1 shifts whose support meets that of u_i; phi vanishes
    there on the rest, which stay exactly 0."""
    r = gen.support_radius
    firsts = [math.floor(u.support[0] - r) for u in u_list]
    lasts = [math.ceil(u.support[1] + r) for u in u_list]
    ks = np.arange(min(firsts), max(lasts) + 1)
    cmat = np.zeros((ks.size, len(u_list)), dtype=complex)
    for i, (u, first, last) in enumerate(zip(u_list, firsts, lasts)):
        g = u.quad_grid(quad_n)
        t = g.points()
        window = np.arange(first, last + 1)[:, None]
        cmat[first - ks[0] : last - ks[0] + 1, i] = (u.evaluate(t) * np.conj(gen.evaluate(t - window))) @ g.weights()
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


def _toeplitz(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Toeplitz matrix T[i, j] = col[i - j] for i >= j and row[j - i] for
    j > i; row[0] is ignored."""
    diagonals = np.concatenate((row[:0:-1], col))
    return diagonals[np.arange(col.size)[:, None] - np.arange(row.size) + row.size - 1]


def si_gram(
    gen: Generator,
    dual: DualGenerator,
    u_list: Sequence[AverageFunctional],
    quad_n: int = 4097,
) -> GramMatrix:
    """Gram of average-functional sections, assembled as C^H B C where
    B[m, m'] = b_{m'-m} is the (positive) dual-coefficient Toeplitz matrix.
    The structure keeps the matrix Hermitian PSD to machine precision."""
    if not u_list:
        raise ShapeMismatchError("empty functional list")
    ks, cmat = _average_coefficients(gen, u_list, quad_n)
    # lags beyond k_max carry exponentially small coefficients; pad zero
    pad = max(ks.size - 1 - dual.k_max, 0)
    b = np.pad(dual.b_coeffs, pad)
    mid = dual.k_max + pad  # b[mid + lag] = b_lag
    bmat = _toeplitz(b[mid::-1][: ks.size], b[mid:][: ks.size])
    m = cmat.conj().T @ bmat @ cmat
    asym = float(np.linalg.norm(m - m.conj().T))
    m = (m + m.conj().T) / 2.0
    return GramMatrix(matrix=m, indices=tuple(u.x for u in u_list), asymmetry=asym)


@dataclass(frozen=True)
class DensityReport:
    rank: int
    smallest_singular: float
    singular_values: np.ndarray
    family_size: int

    @property
    def rank_deficient(self) -> bool:
        return self.rank < self.family_size


def _g_values(gen: Generator, u_list: Sequence[AverageFunctional], xi: np.ndarray, j_trunc: int) -> np.ndarray:
    """One row per functional: g_u(xi) = sum_{|l| <= J} u^(xi + 2 pi l)
    conj(phi_hat(xi + 2 pi l)), with u^(w) = exp(-i w x) m(w) from the closed
    form m of the centred profile. Each alias block is evaluated functional
    by functional, so only one functional's terms are held at a time."""
    out = np.zeros((len(u_list), xi.size), dtype=complex)
    for om in _aliases(xi, j_trunc):
        for row, u in zip(out, u_list):
            row += np.sum(np.exp(-1j * om * u.x) * u.centered_transform(om) * np.conj(gen.transform(om)), axis=1)
    return out


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
    return DensityReport(
        rank=rank,
        smallest_singular=float(s[-1]) if s.size else 0.0,
        singular_values=s,
        family_size=len(u_family),
    )


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
    exp(i k xi) d xi, over |k| <= k_range. The deviation is dominated by the
    periodization truncation and the quadrature steps; it contracts by at
    least a factor two when both resolutions are doubled."""
    j = gen.j_trunc if j_trunc is None else int(j_trunc)
    ks_u, c = _average_coefficients(gen, [u], quad_n)
    inside = np.abs(ks_u) <= k_range
    time_side = np.zeros(2 * k_range + 1, dtype=complex)
    time_side[ks_u[inside] + k_range] = c[inside, 0]
    grid_xi = Grid(-math.pi, math.pi, int(xi_n))
    g = _g_values(gen, [u], grid_xi.points(), j)[0]
    weighted = g * grid_xi.weights()
    freq_side = uniform_fourier_sum(-k_range, 1.0, time_side.size, grid_xi.a, grid_xi.h, weighted, sign=1.0) / TWO_PI
    return float(np.max(np.abs(time_side - freq_side)))
