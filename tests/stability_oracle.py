"""The stability sweeps as two loops over single trials: the reference that
``opkern.learning.stability_reports`` is checked against.

``truncated_reconstruction_stability`` and ``stability_sweep`` each draw their
own trials from ``rng(seed)``, one at a time, with one Hermitian solve per
damped trial. A trial draws one row ``uniform(gen, 3 * m)``: m doubles u and
m doubles v give its span element sqrt(u) exp(2 pi i v), and the last m are
keys: its subset is ``np.sort(np.argsort(keys)[:size])``, the indices of the
``size`` smallest keys. Called with the same seed and sizes the two loops see
the same draws, which the blocked pass draws once for both reports.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from opkern.core import rng, solve_hermitian, uniform
from opkern.frames import DualFrame, frame_bounds_estimate
from opkern.kernels import TruncatedFrame
from opkern.learning import SweepReport, TruncatedStabilityReport, _check_sweep


def _quad_form(m: np.ndarray, c: np.ndarray) -> float:
    return float(np.real(np.conj(c) @ m @ c))


def _trial(gen, m: int, size: int) -> tuple:
    """One trial's span coefficients and sorted subset, from one row of 3m doubles."""
    row = uniform(gen, 3 * m)
    return np.sqrt(row[:m]) * np.exp(1j * (2.0 * np.pi * row[m:2 * m])), np.sort(np.argsort(row[2 * m:])[:size])


def truncated_reconstruction_stability(
    frame: TruncatedFrame,
    dual: DualFrame,
    trials: int,
    subset_sizes: Sequence[int],
    seed: int,
) -> TruncatedStabilityReport:
    """Empirical norm ratios of the truncated reconstruction operator.

    For random span elements f and random sub-index sets S, measures
    |sum_{j in S} <f, K_j> K~_j| / |f| in the space norm (coefficient space);
    passes iff the maximum stays below (B_est/A_est)(1 + 0.1).
    """
    m = len(frame)
    _check_sweep(trials, subset_sizes, m)
    g = frame.gram.matrix
    gp = dual.coeffs
    a_est, b_est = frame_bounds_estimate(frame)
    gen = rng(seed)
    per_size: dict[int, float] = {}
    c_emp = 0.0
    for size in subset_sizes:
        size = int(size)
        worst = 0.0
        for _ in range(int(trials)):
            a, subset = _trial(gen, m, size)
            f_norm = math.sqrt(max(_quad_form(g, a), 1e-300))
            c = (a @ g)[subset]
            rec_sq = float(np.real(np.conj(c) @ gp[np.ix_(subset, subset)] @ c))
            worst = max(worst, math.sqrt(max(rec_sq, 0.0)) / f_norm)
        per_size[size] = worst
        c_emp = max(c_emp, worst)
    envelope = (b_est / a_est) * 1.1
    return TruncatedStabilityReport(
        per_size=per_size,
        c_emp=c_emp,
        envelope=envelope,
        a_est=a_est,
        b_est=b_est,
        passed=c_emp <= envelope,
        trials=int(trials),
    )


def stability_sweep(
    frame: TruncatedFrame,
    lam: float,
    trials: int,
    seed: int,
    subset_sizes: Sequence[int] = (4, 8, 16),
) -> SweepReport:
    """Damped-reconstruction ratios |f0|/|f| across nested subset sizes and
    random span elements; passes iff the global maximum is within twice the
    largest-size maximum (no blow-up as the index set shrinks)."""
    m = len(frame)
    _check_sweep(trials, subset_sizes, m)
    g = frame.gram.matrix
    gl = g.conj()
    gen = rng(seed)
    per_size: dict[int, float] = {}
    for size in subset_sizes:
        size = int(size)
        worst = 0.0
        for _ in range(int(trials)):
            a, subset = _trial(gen, m, size)
            f_norm = math.sqrt(max(_quad_form(g, a), 1e-300))
            xi = (a @ g)[subset]
            gl_ss = gl[np.ix_(subset, subset)]
            eta = solve_hermitian(gl_ss + lam * np.eye(size), xi)
            rec = math.sqrt(max(_quad_form(gl_ss, eta), 0.0))
            worst = max(worst, rec / f_norm)
        per_size[size] = worst
    c_emp = max(per_size.values())
    largest = per_size[max(per_size)]
    passed = c_emp <= 2.0 * largest
    return SweepReport(per_size=per_size, c_emp=c_emp, lam=float(lam), passed=passed, trials=int(trials))
