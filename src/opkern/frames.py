"""Frame operator, dual kernel sections, and reconstruction from functional
values for truncated kernel families.

The dual of the infinite family is not computable at desk scale; this module
computes the canonical dual of the truncated family through the Gram
pseudoinverse and reports truncation diagnostics. Reconstruction error is
therefore measured on an interior window away from the truncation boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Grid, GridFunction, norm, pseudoinverse, restrict
from .exceptions import AlignmentError, DegenerateFrameError, ShapeMismatchError
from .families import SampleSet
from .kernels import GramMatrix, KernelSection, _hermitian_gram, _stack_values

__all__ = [
    "TruncatedFrame",
    "DualFrame",
    "stacked_frame",
    "truncated_frame",
    "frame_operator_apply",
    "dual_frame",
    "reconstruct",
    "frame_bounds_estimate",
    "dual_inner_product",
    "interior_relative_error",
]


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
        if self.h.ndim == 2:
            object.__setattr__(self, "h", self.h[:, :, None])
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


def stacked_frame(alphas, h: np.ndarray, h_grid: Grid, w: np.ndarray, w_grid: Grid) -> TruncatedFrame:
    """The frame of scalar sections h[j] on h_grid with feature vectors w[j]
    on w_grid; the Gram is the exact Gram of the features, hence positive
    semi-definite."""
    alphas = tuple(alphas)
    gram = _hermitian_gram(w, w_grid, tuple((a, np.ones(1, dtype=complex)) for a in alphas))
    return TruncatedFrame(alphas=alphas, h=h, h_grid=h_grid, gram=gram)


def truncated_frame(sections: Sequence[KernelSection]) -> TruncatedFrame:
    """Stack single sections into a frame.

    The Gram comes from the sections' feature vectors when every section
    carries one (exact on the frequency side, no window truncation), else
    from the grid inner products of the sections themselves. Either way it
    is an exact Gram of discretized vectors, hence positive semi-definite.
    """
    h, h_grid = _stack_values([s.h_repr for s in sections])
    if all(s.w_repr is not None for s in sections):
        w, w_grid = _stack_values([s.w_repr for s in sections])
    else:
        w, w_grid = h, h_grid
    gram = _hermitian_gram(w, w_grid, tuple((s.alpha, s.xi) for s in sections))
    return TruncatedFrame(alphas=tuple(s.alpha for s in sections), h=h, h_grid=h_grid, gram=gram)


def frame_operator_apply(frame: TruncatedFrame, f: GridFunction) -> GridFunction:
    """T f = sum_j <f, K_j> K_j over the truncated index set."""
    if f.grid != frame.h_grid or f.dim != frame.h.shape[2]:
        raise ShapeMismatchError("f does not live on the frame's grid")
    weighted = f.values * frame.h_grid.weights()[:, None]
    return frame.synthesize(frame.h.reshape(len(frame), -1).conj() @ weighted.reshape(-1))


@dataclass(frozen=True)
class DualFrame:
    """Canonical dual of a truncated family: dual section j is
    source.synthesize(coeffs[j]) = sum_k pinv(G)[j, k] K_k, biorthogonal to
    the sections on their span."""

    coeffs: np.ndarray = field(repr=False)
    source: TruncatedFrame
    rel_cutoff: float

    def __len__(self) -> int:
        return len(self.source)


def dual_frame(frame: TruncatedFrame, rel_cutoff: float = 1e-10) -> DualFrame:
    g = frame.gram.matrix
    if not np.any(g):
        raise DegenerateFrameError("the section Gram is exactly zero", min_eig=0.0, max_eig=0.0)
    return DualFrame(coeffs=pseudoinverse(g, rel_cutoff), source=frame, rel_cutoff=rel_cutoff)


def _alphas_match(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        if not (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)):
            return False
        return all(_alphas_match(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float, np.floating, np.integer)) and isinstance(
        b, (int, float, np.floating, np.integer)
    ):
        return abs(float(a) - float(b)) <= 1e-12
    return bool(np.all(np.asarray(a) == np.asarray(b)))


def reconstruct(dual: DualFrame, samples: SampleSet) -> GridFunction:
    """f_hat = sum_j L_{alpha_j}(f) K~_j = (values . pinv(G)) . H from a
    sample set aligned with the dual's index order."""
    frame_alphas = dual.source.alphas
    if len(samples) != len(frame_alphas):
        raise AlignmentError(
            f"sample count {len(samples)} does not match frame size {len(frame_alphas)}"
        )
    for got, want in zip(samples.alphas, frame_alphas):
        if not _alphas_match(got, want):
            raise AlignmentError(f"sample index {got!r} does not match frame index {want!r}")
    return dual.source.synthesize(samples.value_array() @ dual.coeffs)


def frame_bounds_estimate(frame: TruncatedFrame, rel_cutoff: float = 1e-10) -> tuple[float, float]:
    """Extreme nonzero eigenvalues of the section Gram; on the span of a
    truncated Riesz-regime family these bracket its frame bounds."""
    w = np.linalg.eigvalsh(frame.gram.matrix)
    top = float(w[-1])
    if top <= 0.0:
        raise DegenerateFrameError("section Gram has no positive spectrum", max_eig=top)
    nonzero = w[w > rel_cutoff * top]
    return float(nonzero[0]), float(nonzero[-1])


def dual_inner_product(dual: DualFrame, f_coeffs: np.ndarray, g_coeffs: np.ndarray) -> complex:
    """Inner product <T f, g> in coefficient space for f, g expanded in the
    dual sections; the dual family is orthonormal under this product."""
    a = np.asarray(f_coeffs, dtype=complex)
    b = np.asarray(g_coeffs, dtype=complex)
    n = len(dual)
    if a.shape != (n,) or b.shape != (n,):
        raise ShapeMismatchError("coefficient arrays must match the frame size")
    p = dual.coeffs @ dual.source.gram.matrix
    return complex(a @ p @ np.conj(b))


@dataclass(frozen=True)
class ReconstructionError:
    rel_l2: float
    window: tuple[float, float]
    abs_l2: float
    ref_l2: float


def interior_relative_error(
    f_hat: GridFunction,
    reference: GridFunction,
    margin: float = 4.0,
    window: tuple[float, float] | None = None,
) -> ReconstructionError:
    """Relative L2 error on an interior window (default: the common grid with
    a margin stripped at both ends, keeping truncation artifacts out)."""
    if not f_hat.same_layout(reference):
        raise ShapeMismatchError("reconstruction and reference live on different grids")
    if window is None:
        window = (f_hat.grid.a + margin, f_hat.grid.b - margin)
    lo, hi = window
    a = restrict(f_hat, lo, hi)
    b = restrict(reference, lo, hi)
    err = norm(a - b)
    ref = norm(b)
    return ReconstructionError(
        rel_l2=err / ref if ref > 0 else math.inf,
        window=(lo, hi),
        abs_l2=err,
        ref_l2=ref,
    )
