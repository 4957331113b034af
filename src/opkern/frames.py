"""Dual kernel sections, reconstruction from functional values and
frame-bound estimates for truncated kernel families, held as the
``TruncatedFrame``s that the kernel constructions return: no section stored.

The dual of the infinite family is not computable at desk scale; this module
computes the canonical dual of the truncated family through the Gram
pseudoinverse that the frame supplies as a rule on sample rows (one SVD, the
Fourier frame's residue-class sums, or the lattice frame's conjugate
gradients), whose coefficients the frame synthesizes, and reports truncation
diagnostics. Reconstruction error is therefore measured on an interior
window away from the truncation boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .core import GridFunction, norm, restrict
from .exceptions import AlignmentError, DegenerateFrameError, ShapeMismatchError
from .families import SampleSet
from .kernels import TruncatedFrame

__all__ = [
    "DualFrame",
    "dual_frame",
    "reconstruct",
    "frame_bounds_estimate",
    "interior_relative_error",
]


@dataclass(frozen=True)
class DualFrame:
    """Canonical dual of a truncated family: sum_j v_j K~_j is
    source.synthesize(apply(v)), apply(v) = v . pinv(G) by the frame's rule.
    Dual section j, biorthogonal to the sections on their span, is the
    synthesis of row j of ``coeffs`` = pinv(G), formed only when read by the
    frame's ``dual_coeffs``: the rule of the identity, or for a lattice
    frame Trench's recurrence from one column of G^-1."""

    source: TruncatedFrame
    apply: Callable = field(repr=False)

    def __len__(self) -> int:
        return len(self.source)

    @cached_property
    def coeffs(self) -> np.ndarray:
        return self.source.dual_coeffs(self.apply)


def dual_frame(frame: TruncatedFrame) -> DualFrame:
    """The canonical dual by the frame's ``dual_rule``; a zero Gram is refused."""
    return DualFrame(source=frame, apply=frame.dual_rule())


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


def _require_aligned(samples: SampleSet, frame: TruncatedFrame) -> None:
    """Refuse samples whose indices are not the frame's, in the frame's order."""
    if len(samples) != len(frame.alphas):
        raise AlignmentError(f"sample count {len(samples)} does not match frame size {len(frame.alphas)}")
    for got, want in zip(samples.alphas, frame.alphas):
        if not _alphas_match(got, want):
            raise AlignmentError(f"sample index {got!r} does not match frame index {want!r}")


def reconstruct(dual: DualFrame, samples: SampleSet) -> GridFunction:
    """f_hat = sum_j L_{alpha_j}(f) K~_j, one synthesis of the coefficients
    values . pinv(G) by the dual's rule, for samples in the dual's index order."""
    _require_aligned(samples, dual.source)
    return dual.source.synthesize(dual.apply(samples.value_array()))


def frame_bounds_estimate(frame: TruncatedFrame) -> tuple[float, float]:
    """Extreme nonzero eigenvalues of the section Gram, those above 1e-10 of
    the largest; on the span of a truncated Riesz-regime family these
    bracket its frame bounds. They are read from the frame's ``spectrum``:
    dense eigvalsh, or a lattice frame's Lanczos extremes where the smallest
    one's bracket clears the 1e-10 cutoff."""
    cut = lambda top: 1e-10 * top  # noqa: E731
    w = frame.spectrum(cut)
    top = float(w[-1])
    if top <= 0.0:
        raise DegenerateFrameError("section Gram has no positive spectrum", max_eig=top)
    nonzero = w[w > cut(top)]
    return float(nonzero[0]), float(nonzero[-1])


@dataclass(frozen=True)
class ReconstructionError:
    rel_l2: float
    window: tuple[float, float]
    abs_l2: float
    ref_l2: float


def interior_relative_error(
    f_hat: GridFunction,
    reference: GridFunction,
    window: tuple[float, float],
) -> ReconstructionError:
    """Relative L2 error on an interior window of the common grid, chosen to
    keep truncation artifacts out."""
    if not f_hat.same_layout(reference):
        raise ShapeMismatchError("reconstruction and reference live on different grids")
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
