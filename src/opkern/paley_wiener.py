"""Bandlimited signal machinery: sinc kernels, synthesis, average sampling,
functional kernel sections, feature maps, admissibility checks for perturbed
integer frequencies, and vector-valued sampling sets.

The bandlimited space is discretized on a window [-T, T]; sinc tails beyond
the window are dropped and the induced L2 tail is available as an estimate.
Frequency-side computations live on a grid over [-pi, pi]; they are free of
domain truncation and are the accurate route for inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Grid, GridFunction, uniform_fourier_sum
from .core import complex_pairs, complex_values, integral, json_number, json_numbers, json_object
from .exceptions import AdmissibilityError, DomainError, ShapeMismatchError, ValidationError
from .families import AverageFunctional, fourier_period, fourier_synthesis
from .kernels import FeatureMap, GramMatrix, TruncatedFrame, _hermitian, feature_gram, xi_rows

__all__ = [
    "sinc_kernel",
    "BandlimitedSignal",
    "synthesize",
    "pw_window",
    "w_grid_default",
    "pw_features",
    "pw_average_sections",
    "pw_point_sections",
    "pw_feature_gram",
    "point_feature_map",
    "fourier_series",
    "kadec_bounds",
    "generalized_kadec_check",
    "VectorSamplingSet",
    "build_vector_sampling_set",
    "vector_features",
]

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)

#: default frequency-grid size for L2([-pi, pi]). The trapezoid rule of step
#: h = 2pi/(n - 1) errs by O(h^2 |s|) on an integrand exp(i s t) g(t), and it
#: sees an integer s only modulo n - 1: centres spread over n - 1 or more
#: alias. At 1025 points the Gram of 81 box averages (delta 0.2) at jittered
#: integer centres was measured 6.7e-5 off the exact one.
DEFAULT_W_N = 1025


def sinc_kernel(x, y):
    """sin(pi(x-y))/(pi(x-y)) with the removable singularity equal to 1."""
    return np.sinc(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))


def pw_window(m_range: int, points_per_unit: int = 128) -> Grid:
    """Evaluation window [-T, T] with T = m_range + 16, a truncation pad."""
    t = int(m_range) + 16
    return Grid(-float(t), float(t), 2 * t * int(points_per_unit) + 1)


def w_grid_default(n: int = DEFAULT_W_N) -> Grid:
    return Grid(-math.pi, math.pi, int(n))


@dataclass(frozen=True)
class BandlimitedSignal:
    """Shannon synthesis coefficients over integer shifts k in {offset, ...}.

    signal(x) = sum_k coeffs[k] * sinc(x - k); coeffs has shape (count,) for
    scalar signals or (count, dim) for vector-valued ones.
    """

    coeffs: np.ndarray = field(repr=False)
    offset: int
    window: Grid
    dim: int = 1

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 1:
            c = c[:, None]
        if c.ndim != 2 or c.shape[1] != self.dim:
            raise ShapeMismatchError(f"coeff shape {c.shape} incompatible with dim {self.dim}")
        if not c.shape[0]:
            raise ValidationError("a signal needs at least one coefficient")
        if not np.all(np.isfinite(c)):
            raise ValidationError("signal coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def symmetric(cls, coeffs, window: Grid) -> "BandlimitedSignal":
        """Coefficients centred on shift 0; shape (count,) is scalar and
        (count, dim) vector-valued."""
        c = np.asarray(coeffs, dtype=complex)
        count = c.shape[0]
        if count % 2 == 0:
            raise ValidationError("symmetric coefficient array must have odd length")
        return cls(coeffs=c, offset=-(count // 2), window=window, dim=1 if c.ndim == 1 else c.shape[1])

    @property
    def shifts(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.coeffs.shape[0])

    def evaluate(self, x) -> np.ndarray:
        """Exact pointwise synthesis; returns (len(x), dim)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mat = np.sinc(x[:, None] - self.shifts[None, :])
        return mat @ self.coeffs

    def truncation_tail_estimate(self) -> float:
        """Upper estimate of the L2 mass dropped outside the window, from the
        1/|x| sinc decay: int_{|x|>T} sinc^2(x-k) dx <= 2/(pi^2 (T-|k|))."""
        t_edge = min(abs(self.window.a), abs(self.window.b))
        gaps = np.maximum(t_edge - np.abs(self.shifts), 1.0)
        mass = np.sum(np.abs(self.coeffs) ** 2, axis=1)
        return float(np.sqrt(np.sum(mass * 2.0 / (math.pi**2 * gaps))))

    def to_json(self) -> dict:
        return {
            "coeffs": complex_pairs(self.coeffs.T.reshape(-1)),
            "offset": int(self.offset),
            "dim": int(self.dim),
            "window": {"a": self.window.a, "b": self.window.b, "n": self.window.n},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BandlimitedSignal":
        obj = json_object(obj, "signal", ("coeffs", "offset", "window"))
        dim = integral(obj.get("dim", 1), "signal dim")
        raw = complex_values(obj["coeffs"], "signal coeffs", 1)
        if dim < 1 or raw.size % dim:
            raise ValidationError(f"{raw.size} signal coeffs do not split into dim={dim} components")
        w = json_object(obj["window"], "signal window", ("a", "b", "n"))
        window = Grid(json_number(w["a"], "window a"), json_number(w["b"], "window b"), integral(w["n"], "window n"))
        return cls(raw.reshape(dim, -1).T, integral(obj["offset"], "signal offset"), window, dim)


def synthesize(signal: BandlimitedSignal, grid: Grid | None = None) -> GridFunction:
    """Sample the Shannon synthesis on a grid (default: the signal window)."""
    grid = grid or signal.window
    return GridFunction(grid, signal.evaluate(grid.points()))


# ---------------------------------------------------------------------------
# frequency-side objects
# ---------------------------------------------------------------------------

def pw_features(xs, w_grid: Grid, delta: float | None = None, profile: str = "box") -> np.ndarray:
    """The features on ``w_grid``, one row per x: the plane wave
    Phi(x) = exp(i x t)/sqrt(2pi) of the point evaluation, and with ``delta``
    that of the average, Psi(x) = sqrt(2pi) u_x^v = Phi(x) m(t), m the closed
    form of the centred profile's transform: shifting the profile modulates
    its frequency side. The rows are exponentiated and scaled in their own
    buffer: they are the only array of their size. A grid other than
    [-pi, pi] to the bit, as ``fourier_period`` takes it, is refused."""
    if (w_grid.a, w_grid.b) != (-math.pi, math.pi):
        raise DomainError(f"feature grid must span exactly [-pi, pi], not [{w_grid.a}, {w_grid.b}]")
    t = w_grid.points()
    rows = np.multiply.outer(1j * np.asarray(xs, dtype=float), t)
    np.divide(np.exp(rows, out=rows), SQRT_TWO_PI, out=rows)
    if delta is not None:
        rows *= AverageFunctional(0.0, delta, profile).centered_transform(t)
    return rows


def pw_average_sections(
    centers,
    delta: float,
    out_grid: Grid,
    profile: str = "box",
    w_grid: Grid | None = None,
) -> TruncatedFrame:
    """The frame of the average functionals centred at ``centers``: section
    K(x)(y) = \\int_{-pi}^{pi} exp(-i y t) Psi(x)(t) dt / sqrt(2pi) on
    ``out_grid``, with the ``pw_features`` Psi(x) on ``w_grid`` as its feature
    vectors and their Gram. No section is formed: both grids are uniform, so
    the synthesis of sum_j c_j K_j is one chirp-z sum of (c @ Psi) w/sqrt(2pi),
    w the trapezoid weights.
    """
    w_grid = w_grid or w_grid_default()
    centers = tuple(float(c) for c in centers)
    psi = pw_features(centers, w_grid, delta, profile)
    weights = w_grid.weights() / SQRT_TWO_PI

    def synthesis(c):
        return uniform_fourier_sum(out_grid.a, out_grid.h, out_grid.n, w_grid.a, w_grid.h, (c @ psi) * weights)

    return TruncatedFrame(centers, out_grid, _hermitian(feature_gram(psi, w_grid), centers), synthesis)


def point_feature_map(w_grid: Grid, dim_y: int = 1) -> FeatureMap:
    """Point-evaluation feature map Phi(x)xi = exp(i x t) xi / sqrt(2pi), the
    ``pw_features`` of a list of points times their Y-vectors."""

    def evaluate(xs, xis):
        return pw_features(xs, w_grid)[:, :, None] * xi_rows(xis, len(xs))[:, None, :]

    return FeatureMap(w_grid=w_grid, dim_y=dim_y, evaluate=evaluate)


#: most entries of the sinc block that a pw_point_sections synthesis holds at once
_SINC_BLOCK = 2**16


def pw_point_sections(points, out_grid: Grid, w_grid: Grid) -> TruncatedFrame:
    """The frame of the point evaluations at ``points``: the exact sinc
    sections on ``out_grid``, with the plane waves of ``point_feature_map``
    on ``w_grid`` as their feature vectors. The synthesis sums the sinc
    values over blocks of ``out_grid`` points; no (n, m) array is held."""
    points = tuple(float(x) for x in points)
    gram, y = pw_feature_gram(points, w_grid), out_grid.points()
    step = max(1, _SINC_BLOCK // len(points))

    def synthesis(c):
        return np.concatenate([sinc_kernel(y[s : s + step, None], points) @ c for s in range(0, out_grid.n, step)])

    return TruncatedFrame(points, out_grid, gram, synthesis)


def pw_feature_gram(points, w_grid: Grid, delta: float | None = None, profile: str = "box") -> GramMatrix:
    """The Gram of ``pw_average_sections`` (``delta`` given) or
    ``pw_point_sections`` (no ``delta``) at ``points`` on any window: that of
    their ``pw_features`` alone, as K(x) = Phi(.)* Psi(x); no section is formed."""
    points = tuple(float(x) for x in points)
    return _hermitian(feature_gram(pw_features(points, w_grid, delta, profile), w_grid), points)


def fourier_series(signal: BandlimitedSignal, grid: Grid) -> GridFunction:
    """The scalar signal's coefficients read as Fourier modes on the period
    [0, 2pi] or [-pi, pi]: (1/sqrt(2pi)) sum_k c_k exp(i k t), one
    ``fourier_synthesis`` times the signs of ``fourier_period``. On [-pi, pi]
    it is the signal's frequency-side representation w_f: <f, g>_{L2(R)} is
    the [-pi, pi] inner product of the representations."""
    if signal.dim != 1:
        raise ShapeMismatchError("a Fourier series needs a scalar signal")
    signs, period = fourier_period(signal.shifts, grid)
    return GridFunction(grid, fourier_synthesis(signal.shifts, signal.coeffs[:, 0] * signs, period))


# ---------------------------------------------------------------------------
# admissibility checks for perturbed integer frequencies
# ---------------------------------------------------------------------------

def kadec_bounds(delta: float) -> tuple[float, float]:
    """Frame bounds for exponentials at points within delta of the integers:
    A = 2pi (cos(delta pi) - sin(delta pi))^2,
    B = 2pi (2 - cos(delta pi) + sin(delta pi))^2, valid for delta < 1/4."""
    if not 0.0 <= delta < 0.25:
        raise AdmissibilityError(f"delta must lie in [0, 1/4), got {delta}")
    c, s = math.cos(delta * math.pi), math.sin(delta * math.pi)
    return TWO_PI * (c - s) ** 2, TWO_PI * (2.0 - c + s) ** 2


@dataclass(frozen=True)
class KadecCheck:
    passed: bool
    margin: float
    lhs: float


def generalized_kadec_check(a: float, b: float, delta: float) -> KadecCheck:
    """Perturbation admissibility for a general exponential frame with bounds
    A <= B: passes iff 1 - cos(delta pi) + sin(delta pi) < sqrt(A/B)."""
    if not 0.0 < a <= b:
        raise ValidationError(f"need 0 < A <= B, got A={a}, B={b}")
    if not 0.0 <= delta <= 0.25:
        raise DomainError(f"delta must lie in [0, 1/4], got {delta}")
    lhs = 1.0 - math.cos(delta * math.pi) + math.sin(delta * math.pi)
    ratio = math.sqrt(a / b)
    return KadecCheck(passed=lhs < ratio, margin=ratio - lhs, lhs=lhs)


# ---------------------------------------------------------------------------
# vector-valued sampling sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorSamplingSet:
    """Sampling set for C^n-valued bandlimited functions: node x_{nm+l} pairs
    with direction xi_{nm+l} = column l of a unitary matrix U."""

    n: int
    m_range: int
    x: np.ndarray = field(repr=False)
    u_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.u_matrix, dtype=complex)
        if u.shape != (self.n, self.n):
            raise ShapeMismatchError(f"U must be {self.n}x{self.n}")
        if np.linalg.norm(u @ u.conj().T - np.eye(self.n)) > 1e-10:
            raise ValidationError("U is not unitary within 1e-10")
        x = np.asarray(self.x, dtype=float)
        if x.shape != ((2 * self.m_range + 1) * self.n,):
            raise ShapeMismatchError("x length must be n*(2*m_range+1)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u_matrix", u)

    def xi(self, j: int) -> np.ndarray:
        return self.u_matrix[:, j % self.n]

    def entries(self):
        """Yield (j, x_j, xi_j) in index order j = n*m + l."""
        for j in range(len(self.x)):
            yield j, float(self.x[j]), self.xi(j)

    def to_json(self) -> dict:
        return {"n": self.n, "m_range": self.m_range, "x": self.x.tolist(), "U": complex_pairs(self.u_matrix)}

    @classmethod
    def from_json(cls, obj: dict) -> "VectorSamplingSet":
        obj = json_object(obj, "vector sampling set", ("n", "m_range", "x", "U"))
        n, m_range = integral(obj["n"], "sampling set n"), integral(obj["m_range"], "sampling set m_range")
        x = json_numbers(obj["x"], "sampling set x", 1)
        return cls(n, m_range, x, complex_values(obj["U"], "sampling set U", 2))


def build_vector_sampling_set(n: int, m_range: int, perturb=None) -> VectorSamplingSet:
    """Nodes x_{nm+l} = m + perturb(m)[l] for m in {-m_range..m_range} and
    l in {0..n-1}; directions cycle through the columns of the unitary
    discrete Fourier matrix U."""
    ms = np.arange(-m_range, m_range + 1)
    x = np.empty(n * len(ms))
    for i, m in enumerate(ms):
        offsets = np.zeros(n) if perturb is None else np.asarray(perturb(int(m)), dtype=float)
        if offsets.shape != (n,):
            raise ShapeMismatchError("perturbation must produce n offsets per m")
        x[i * n : (i + 1) * n] = m + offsets
    return VectorSamplingSet(n=n, m_range=m_range, x=x, u_matrix=np.fft.fft(np.eye(n), axis=0, norm="ortho"))


def vector_features(vss: VectorSamplingSet, w_grid: Grid) -> np.ndarray:
    """Feature vectors Phi(x_j, xi_j)(t) = exp(i x_j t) xi_j / sqrt(2pi) in
    L2([-pi, pi], C^n), stacked in index order: shape (len(x), w_grid.n, n)."""
    directions = vss.u_matrix[:, np.arange(len(vss.x)) % vss.n].T
    return point_feature_map(w_grid, vss.n).evaluate(vss.x, directions)
