"""Numerical substrate: uniform grids, trapezoid quadrature, discrete Fourier
integrals, Hermitian eigensolvers, dense solves and pseudoinverses, and the
readers and writers of the JSON files that carry complex data.

All function spaces in this package are discretized on uniform grids over
bounded intervals; functions are stored as complex vectors per grid point
(dim = 1 for scalar spaces). Every operation here is a pure function on
immutable inputs with a deterministic summation order, so results are
bit-reproducible across runs.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import ConditioningError, ShapeMismatchError, ValidationError

__all__ = [
    "Grid",
    "GridFunction",
    "inner_product",
    "norm",
    "uniform_fourier_sum",
    "hermitian_eig",
    "solve_hermitian",
    "pseudoinverse",
    "rng",
    "uniform",
]


#: most points a Grid may hold; larger requests are refused before allocation
MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid on [a, b] with n points inclusive of both endpoints."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValidationError(f"grid requires finite a < b, got [{self.a}, {self.b}]")
        if self.n < 2:
            raise ValidationError(f"grid requires n >= 2, got n={self.n}")
        if self.n > MAX_GRID_POINTS:
            raise ValidationError(f"grid of {self.n} points exceeds the cap of {MAX_GRID_POINTS}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    def weights(self) -> np.ndarray:
        """Composite trapezoid weights (h at interior points, h/2 at ends)."""
        w = np.full(self.n, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def spans(self, lo: float, hi: float) -> bool:
        """[lo, hi] lies inside the grid, within 1e-9."""
        return self.a - 1e-9 <= lo and hi <= self.b + 1e-9


@dataclass(frozen=True)
class GridFunction:
    """A (possibly vector-valued) complex function sampled on a uniform grid.

    ``values`` has shape (grid.n, dim); dim = 1 represents scalar functions.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n:
            raise ShapeMismatchError(
                f"values shape {v.shape} incompatible with grid of {self.grid.n} points"
            )
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        """The scalar function fn sampled at the grid points; a constant
        broadcasts to every point."""
        vals = np.asarray(fn(grid.points()), dtype=complex).reshape(-1, 1)
        return cls(grid, np.broadcast_to(vals, (grid.n, 1)).copy())

    def same_layout(self, other: "GridFunction") -> bool:
        return self.grid == other.grid and self.dim == other.dim

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if not self.same_layout(other):
            raise ShapeMismatchError("grid/dim mismatch in addition")
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if not self.same_layout(other):
            raise ShapeMismatchError("grid/dim mismatch in subtraction")
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c) -> "GridFunction":
        return GridFunction(self.grid, self.values * complex(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def to_json(self) -> dict:
        """Shared serialization format: values flattened component-major."""
        flat = self.values.T.reshape(-1)
        return {"a": self.grid.a, "b": self.grid.b, "dim": self.dim, "values": complex_pairs(flat)}

    @classmethod
    def from_json(cls, obj: dict) -> "GridFunction":
        obj = json_object(obj, "function", ("a", "b", "dim", "values"))
        dim = integral(obj["dim"], "function dim")
        raw = complex_values(obj["values"], "function values", 1)
        if dim < 1 or raw.size % dim:
            raise ValidationError(f"{raw.size} function values do not split into dim={dim} components")
        grid = Grid(json_number(obj["a"], "function a"), json_number(obj["b"], "function b"), raw.size // dim)
        return cls(grid, raw.reshape(dim, -1).T)

    def dump(self, path) -> None:
        """Write json.dumps(self.to_json(), indent=2, sort_keys=True) and a
        newline, the [re, im] pairs streamed by ``write_table`` with one %r
        template each; json writes NaN where %r writes nan, so a non-finite
        function goes through json."""
        flat = self.values.T.reshape(-1)
        if np.all(np.isfinite(flat)):
            doc = {"a": self.grid.a, "b": self.grid.b, "dim": self.dim, "values": []}
            head, tail = json.dumps(doc, indent=2, sort_keys=True).split("[]")
            pairs = np.ascontiguousarray(flat).view(float).reshape(-1, 2)
            return write_table(path, head + "[\n", _JSON_PAIR, len(pairs), lambda lo, hi: pairs[lo:hi], ",\n",
                               "\n  ]" + tail + "\n")
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


def integrate_values(grid: Grid, values: np.ndarray) -> complex | np.ndarray:
    """Trapezoid integral of raw samples (1-D array or (n, k) columns)."""
    return grid.weights() @ values


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """L2 inner product via quadrature, summed over components.

    Linear in the first argument, conjugate-linear in the second.
    """
    if not f.same_layout(g):
        raise ShapeMismatchError("grid/dim mismatch in inner product")
    integrand = np.sum(f.values * np.conj(g.values), axis=1)
    return complex(f.grid.weights() @ integrand)


def norm(f: GridFunction) -> float:
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


def restrict(f: GridFunction, lo: float, hi: float) -> GridFunction:
    """Slice a grid function to the points inside [lo, hi] (uniformity kept)."""
    x = f.grid.points()
    mask = (x >= lo - 1e-12) & (x <= hi + 1e-12)
    idx = np.nonzero(mask)[0]
    if idx.size < 2:
        raise ShapeMismatchError("restriction window contains fewer than two grid points")
    sub = Grid(float(x[idx[0]]), float(x[idx[-1]]), int(idx.size))
    return GridFunction(sub, f.values[idx])


def _exp_i_times(c: float, q: np.ndarray) -> np.ndarray:
    """exp(i c q) for integer-valued q >= 0. c is split as c_hi + c_lo with
    c_hi q exact in floating point, so the phase carries no round-off of
    order eps |c q|."""
    keep = max(53 - int(np.max(q, initial=0)).bit_length(), 0)
    m, e = math.frexp(c)
    hi = math.ldexp(round(math.ldexp(m, keep)), e - keep)
    return np.exp(1j * (hi * q)) * np.exp(1j * ((c - hi) * q))


def uniform_fourier_sum(y0, dy, ny, t0, dt, weighted, sign: float = -1.0) -> np.ndarray:
    """Fourier sum between uniform grids, sum_k weighted[k] exp(sign i y_j t_k)
    for y_j = y0 + j dy (j < ny) and t_k = t0 + k dt (k < n), ``weighted``
    one column of shape (n,) and the result of shape (ny,). A sum over a
    full period is one FFT instead (``families.fourier_synthesis`` and
    ``families.fourier_coefficients``).

    The sum is taken in Bluestein's chirp-z form (Rabiner, Schafer & Rader
    1969). With j, k counted from the middle
    of each grid, jk = (j^2 + k^2 - (k - j)^2)/2 turns the sum into a
    pre-chirp, a convolution with the chirp exp(-i theta m^2/2), theta =
    sign dy dt, done by FFT, and a post-chirp. The chirp phases grow like
    theta n^2; they are formed without that round-off (``_exp_i_times``).
    """
    a = np.asarray(weighted)
    nt, ny = a.size, int(ny)
    jc, kc = (ny - 1) // 2, (nt - 1) // 2
    yc, tc = y0 + jc * dy, t0 + kc * dt
    half = 0.5 * sign * dy * dt
    j = np.arange(ny, dtype=float) - jc
    k = np.arange(nt, dtype=float) - kc
    post = np.exp(1j * sign * tc * (yc + dy * j)) * _exp_i_times(half, j * j)
    pre = np.exp(1j * sign * yc * dt * k) * _exp_i_times(half, k * k)
    # chirp at lag d = j - k, laid out circularly over d in [-(nt - 1), ny - 1]
    size = 1 << (ny + nt - 2).bit_length()
    d = np.concatenate((np.arange(ny), np.arange(1 - nt, 0))) - float(jc - kc)
    chirp = np.zeros(size, dtype=complex)
    chirp[np.concatenate((np.arange(ny), np.arange(size + 1 - nt, size)))] = _exp_i_times(-half, d * d)
    conv = np.fft.fft(a * pre, size) * np.fft.fft(chirp)
    return np.fft.ifft(conv)[:ny] * post


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """m as a complex array, refused unless it is one square matrix or a
    stack (..., k, k) of them, each Hermitian within 1e-12 relative:
    |m - m^H|_F <= 1e-12 max(|m|_F, 1). The real and imaginary parts of
    m - m^H go through one real buffer, so no complex copy of m is made."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    re, im = m.real, m.imag
    gap = np.subtract(re, np.swapaxes(re, -2, -1))
    gap_sq = _frobenius_sq(gap)
    gap_sq += _frobenius_sq(np.add(im, np.swapaxes(im, -2, -1), out=gap))
    scale_sq = np.maximum(_frobenius_sq(re) + _frobenius_sq(im), 1.0)
    if np.any(gap_sq > 1e-24 * scale_sq):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return m


def _frobenius_sq(x: np.ndarray) -> np.ndarray:
    """Sum of squares over the last two axes of a real array."""
    return np.einsum("...ij,...ij->...", x, x)


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (..., k, k), eigenvalues ascending."""
    return np.linalg.eigh(_require_hermitian(m))


def solve_hermitian(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve m x = rhs for Hermitian positive definite m.

    m may be a stack (..., k, k), solved matrix by matrix with one right-hand
    side each, rhs of shape (..., k). A matrix is refused iff its eigenvalues
    w (ascending) fail w[-1] > 0 and w[0] > 1e-12 w[-1]; ConditioningError
    then carries the extreme eigenvalues of the first refused matrix.

    Most matrices pass without an eigensolve. The Gershgorin discs of the
    Hermitian matrix that the eigensolver reads (the lower triangle) hold
    every eigenvalue in [lo, hi], lo = min_i(d_i - r_i), hi = max_i(d_i +
    r_i), d the real diagonal and r_i the sum of |off-diagonal| of row i
    (Golub & Van Loan, Matrix Computations, 7.2.1). lo > (1e-12 + 4 k eps) hi
    proves the test with room for the round-off of the bound and of the
    eigensolver. Only the matrices it does not certify go to eigvalsh, in
    stack order; the stack is then solved by LU (np.linalg.solve).
    """
    m = _require_hermitian(m)
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.shape != m.shape[:-1]:
        raise ShapeMismatchError(f"right-hand side of shape {rhs.shape} for matrices of shape {m.shape}")
    k = m.shape[-1]
    off = np.abs(m)
    off *= np.tri(k, k, -1)
    radius = off.sum(axis=-1) + off.sum(axis=-2)
    d = np.diagonal(m, axis1=-2, axis2=-1).real
    lo = np.min(d - radius, axis=-1, initial=np.inf)
    hi = np.max(d + radius, axis=-1, initial=-np.inf)
    uncertain = ~(lo > (1e-12 + 4 * k * np.finfo(float).eps) * hi)
    if np.any(uncertain):
        w = np.linalg.eigvalsh(m[uncertain])
        bad = (w[:, -1] <= 0) | (w[:, 0] <= 1e-12 * w[:, -1])
        if np.any(bad):
            w_lo, w_hi = w[bad][0, [0, -1]]
            raise ConditioningError(
                f"matrix not safely positive definite (eigs in [{w_lo:.3e}, {w_hi:.3e}])",
                min_eig=float(w_lo),
                max_eig=float(w_hi),
            )
    return np.linalg.solve(m, rhs[..., None])[..., 0]


#: singular values at or below this fraction of the largest are dropped by ``pseudoinverse``
PINV_CUTOFF = 1e-10


def pseudoinverse(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse, singular values at or below
    PINV_CUTOFF * sigma_max treated as zero (all of them for a zero matrix)."""
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > PINV_CUTOFF * s[:1])
    return (vh.conj().T * inv) @ u.conj().T


def rng(seed: int) -> random.Random:
    """The stdlib Mersenne Twister (MT19937); random.Random would fold -s onto s."""
    if (seed := operator.index(seed)) < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def uniform(gen: random.Random, shape) -> np.ndarray:
    """Doubles uniform in [0, 1) on the 2**-53 lattice: the bits of one
    ``getrandbits`` call, read as little-endian 64-bit words w, each giving
    (w >> 11) * 2**-53. A call continues the stream where the last one
    stopped, so a draw split into blocks is the same draw."""
    n = int(np.prod(shape))
    words = np.frombuffer(gen.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8")
    return ((words >> 11) * 2.0**-53).reshape(shape)


# ---------------------------------------------------------------------------
# JSON files: each reader refuses a malformed field with a ValidationError
# ---------------------------------------------------------------------------

#: one [re, im] pair of a .function.json as json.dump(indent=2) lays it out
_JSON_PAIR = "    [\n      %r,\n      %r\n    ]"

#: most cells ``write_table`` formats by one %: a block's ~100 kB of text reuses
#: freed heap, where 2**13 cells raised a 4097-row reconstruct's peak RSS by 0.6 MB
_BLOCK_CELLS = 2**12


def write_table(path, head: str, row: str, n: int, cells: Callable, sep: str = "\n", tail: str = "\n") -> None:
    """Write head, n rows of the % template ``row`` joined by sep, and tail,
    a block of at most _BLOCK_CELLS cells (one row at least) by one %;
    ``cells(lo, hi)`` is the array of rows lo..hi - 1, a cell a column."""
    step = max(1, _BLOCK_CELLS // row.count("%"))
    with open(path, "w") as fh:
        fh.write(head)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            fh.write(((sep if lo else "") + sep.join([row] * (hi - lo))) % tuple(cells(lo, hi).ravel().tolist()))
        fh.write(tail)


def complex_pairs(values) -> list:
    """The [re, im] pairs of a complex array as nested lists, in its shape."""
    z = np.asarray(values, dtype=complex)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def json_object(obj, what: str, keys=()) -> dict:
    """A JSON value, refused unless it is an object holding all of ``keys``."""
    if not isinstance(obj, dict) or not obj.keys() >= set(keys):
        raise ValidationError(f"{what} must be a JSON object with the keys {list(keys)}")
    return obj


def json_numbers(obj, what: str, ndim: int | None) -> np.ndarray:
    """The floats of a rectangular nest of JSON numbers ``ndim`` lists deep
    (None: any depth). A bool, string, null or object, a ragged nest and an
    integer beyond float range are refused; 1e400 reads as inf."""
    raw = np.array(obj, dtype=object)
    # reshape, not .flat: numpy iterates over at most 32 axes, a nest holds 64
    if (ndim is not None and raw.ndim != ndim) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw.reshape(-1)
    ):
        raise ValidationError(f"{what} must be {'a JSON number' if ndim == 0 else 'rectangular lists of JSON numbers'}")
    try:
        return raw.astype(float)
    except OverflowError:
        raise ValidationError(f"{what} holds an integer beyond float range") from None


def json_number(obj, what: str) -> float:
    return float(json_numbers(obj, what, 0))


def complex_values(obj, what: str, ndim: int | None) -> np.ndarray:
    """The complex array of ``ndim`` axes (None: any) that ``complex_pairs``
    wrote, bit for bit: the pairs are read as floats and viewed as complex,
    so -0.0 survives. An empty list reads as no values."""
    if isinstance(obj, list) and not obj and ndim in (1, None):
        return np.empty(0, dtype=complex)
    raw = json_numbers(obj, what, None if ndim is None else ndim + 1)
    if raw.shape[-1:] != (2,):
        raise ValidationError(f"{what} must be [re, im] pairs")
    return raw.view(complex)[..., 0]


def integral(value, what: str) -> int:
    """An integral value as a Python int of any size; anything else (1.5,
    inf, nan, a bool, a string) is refused rather than truncated."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ValidationError(f"{what} {value!r} is not an integer")
    return operator.index(value)
