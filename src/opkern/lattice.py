"""Frames at equally spaced centres, held by the row of their Hermitian
Toeplitz Gram, and read from that row alone: the dual by conjugate gradients
on its circulant embedding, and through ``toeplitz`` the extreme eigenvalues
and the inverse.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .core import Grid
from .exceptions import ShapeMismatchError
from .kernels import GramMatrix, TruncatedFrame

__all__ = ["LatticeFrame"]

#: relative residual where a LatticeFrame's conjugate gradients stop: 8-24 steps
#: for delta <= 1/2, and y within 2.7e-15 of a dense LU solve (17 to 2047 centres)
_CG_TOL = 1e-15
#: most entries of the (rows, FFT length) block that conjugate gradients hold; more take the SVD
_CG_BLOCK = 2**17


class LatticeFrame(TruncatedFrame):
    """A frame at centres x_j = x_0 + j s held by the row c(d) = G[j, k], d =
    j - k, of its Toeplitz Gram: made Hermitian, the defect reported as the
    asymmetry, and refused if not finite. ``ceiling``, where given, bounds
    the Gram's spectrum above. The Gram is formed only when read. G p is
    the circulant embedding of the row, two FFTs (Feichtinger, Groechenig &
    Strohmer, Numer. Math. 69, 1995): the dual is conjugate gradients on it
    (or the Gram's SVD where they stall), ``dual_coeffs`` G^-1 from one of
    their columns, and ``spectrum`` the extremes by Lanczos on it (or dense
    eigvalsh where they are not bracketed)."""

    #: set per frame in __init__, in place of the TruncatedFrame property that reads the Gram
    asymmetry = 0.0

    def __init__(self, alphas: tuple, h_grid: Grid, row: np.ndarray, synthesis: Callable, ceiling: float = math.inf):
        if not np.all(np.isfinite(row)):
            raise ShapeMismatchError("a feature holds non-finite values")
        defect, weight = row - np.conj(row[::-1]), len(alphas) - np.abs(np.arange(1 - len(alphas), len(alphas)))
        self.__dict__.update(alphas=alphas, h_grid=h_grid, synthesis=synthesis, row=row - defect / 2.0,
                             asymmetry=float(np.sqrt(weight @ np.abs(defect) ** 2)), ceiling=ceiling)

    @cached_property
    def gram(self) -> GramMatrix:
        d = np.arange(len(self))
        return GramMatrix(self.row[d[:, None] - d + len(self) - 1], self.alphas, self.asymmetry)

    @cached_property
    def _circulant(self) -> np.ndarray:
        """The FFT of the row's circulant embedding, of length 2**ceil(log2(2M - 1))."""
        m, size = len(self), 1 << (2 * len(self) - 2).bit_length()
        return np.fft.fft(np.concatenate((self.row[m - 1 :], np.zeros(size + 1 - 2 * m), self.row[: m - 1])))

    def _times(self, p: np.ndarray) -> np.ndarray:
        """G p for each row p of a stack, by the circulant embedding."""
        return np.fft.ifft(np.fft.fft(p, len(self._circulant)) * self._circulant)[..., : len(self)]

    def _solve(self, r: np.ndarray):
        """y with G y = r for each row r of a stack, by conjugate gradients to
        ``_CG_TOL``; None if M + 32 steps leave a row short of it."""
        y, p, rs = np.zeros_like(r), r, np.sum(np.abs(r) ** 2, axis=1)
        goal = _CG_TOL**2 * rs
        for _ in range(len(self) + 32):
            if np.all(rs <= goal):
                return y
            gp = self._times(p)
            curv = np.sum(np.conj(p) * gp, axis=1).real
            alpha = np.divide(rs, curv, out=np.zeros_like(rs), where=curv > 0)[:, None]
            y, r, old = y + alpha * p, r - alpha * gp, rs
            rs = np.sum(np.abs(r) ** 2, axis=1)
            p = r + np.divide(rs, old, out=np.zeros_like(rs), where=old > 0)[:, None] * p
        return None

    def dual_rule(self) -> Callable:
        """v -> v . G^-1 = conj(y), G y = conj(v) solved by ``_solve``. Rows
        it leaves short (a profile transform that vanishes in the band), or a
        block of rows above ``_CG_BLOCK`` entries, take the SVD rule of
        ``TruncatedFrame``, and once it is formed every row does."""
        svd = cache(lambda: TruncatedFrame.dual_rule(self))

        def rule(v):
            rows = np.atleast_2d(np.asarray(v, dtype=complex))
            too_many = len(rows) * len(self._circulant) > _CG_BLOCK
            if too_many or svd.cache_info().currsize or (y := self._solve(np.conj(rows))) is None:
                return svd()(v)
            return np.conj(y).reshape(np.shape(v))

        return rule

    def dual_coeffs(self, rule: Callable) -> np.ndarray:
        """G^-1 by ``toeplitz.trench_inverse`` from its first column G^-1 e_0,
        one ``_solve``; where conjugate gradients stall on e_0, ``rule`` of
        the identity: the SVD's pinv(G)."""
        from .toeplitz import trench_inverse

        if (x := self._solve(np.eye(1, len(self), dtype=complex))) is None:
            return rule(np.eye(len(self), dtype=complex))
        return trench_inverse(x[0])

    def extremes(self):
        """Brackets (lo, value, hi) of the Gram's smallest and largest
        eigenvalues by ``toeplitz.lanczos_extremes`` on ``_times``, or None."""
        from .toeplitz import lanczos_extremes

        return lanczos_extremes(self._times, len(self), self._circulant.real, self.ceiling)

    def spectrum(self, cut: Callable) -> np.ndarray:
        """The extreme values [a, b] of ``extremes`` where the smallest
        eigenvalue's bracket lies above cut(largest) at both ends of the
        largest's; else, or where they are not bracketed, ``TruncatedFrame``'s
        dense eigvalsh."""
        if (found := self.extremes()) is not None:
            (lo, a, _), (_, b, hi) = found
            if lo > max(cut(b), cut(hi)):
                return np.array([a, b])
        return TruncatedFrame.spectrum(self, cut)
