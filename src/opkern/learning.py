"""Regularized learning from functional samples and the stability harness
for truncated and damped reconstruction operators.

The quadratic-loss problem is solved in closed form through the kernel
linear system; general convex losses go through a reduced-space projected
gradient with backtracking, justified because the minimizer always lies in
the span of the sampled kernel sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import GridFunction, norm, rng, solve_hermitian, uniform
from .exceptions import ConditioningError, ShapeMismatchError, ValidationError
from .families import FunctionalFamily, SampleSet, family_from_descriptor
from .frames import DualFrame, TruncatedFrame, _require_aligned, frame_bounds_estimate

__all__ = [
    "LearningProblem",
    "RepresenterSolution",
    "learning_problem",
    "regnet_solve",
    "objective_value",
    "sampling_operator",
    "perturb_samples",
    "reduced_space_minimize",
    "stability_reports",
]


def _check_damping(lam: float) -> None:
    if not 0.0 < lam < math.inf:
        raise ValidationError(f"damping weight must be finite and positive, got {lam}")


@dataclass(frozen=True)
class LearningProblem:
    """The frame, held by its Gram and synthesis rule, a sample set aligned
    with its indices, and the damping weight."""

    frame: TruncatedFrame
    samples: SampleSet
    lam: float

    def __post_init__(self):
        _check_damping(self.lam)
        _require_aligned(self.samples, self.frame)

    @property
    def gram_l(self) -> np.ndarray:
        """The applied-functional Gram G_L[j,k] = L_{alpha_j}(K_k) =
        <K_k, K_j>, the conjugate of the frame's section Gram."""
        return self.frame.gram.matrix.conj()

    @property
    def family(self) -> FunctionalFamily:
        return family_from_descriptor(self.samples.family)

    @property
    def values(self) -> np.ndarray:
        return self.samples.value_array()


def _misfits(problem: LearningProblem, f: GridFunction) -> np.ndarray:
    """L_{alpha_j}(f) - xi_j for every sample, shape (k, out_dim)."""
    applied = problem.family.apply_all(problem.samples.alphas, f)
    return applied - problem.samples.values.reshape(applied.shape)


def learning_problem(frame: TruncatedFrame, samples: SampleSet, lam: float) -> LearningProblem:
    """The problem of the frame's sections, samples and damping weight."""
    return LearningProblem(frame, samples, float(lam))


@dataclass(frozen=True)
class RepresenterSolution:
    eta: np.ndarray = field(repr=False)
    f0: GridFunction = field(repr=False)
    residual: float


def regnet_solve(problem: LearningProblem) -> RepresenterSolution:
    """Closed-form quadratic-loss solve: (G_L + lam I) eta = xi, then
    synthesize f0 = sum_j eta_j K_j."""
    m = len(problem.frame)
    g = problem.gram_l + problem.lam * np.eye(m)
    xi = problem.values
    eta = solve_hermitian(g, xi)
    residual = float(np.linalg.norm(g @ eta - xi))
    # written so that a NaN residual is refused too
    if not residual <= 1e-8 * max(np.linalg.norm(xi), 1e-300):
        raise ConditioningError(f"solver residual {residual:.3e} exceeds tolerance")
    return RepresenterSolution(eta=eta, f0=problem.frame.synthesize(eta), residual=residual)


def objective_value(
    problem: LearningProblem,
    f: GridFunction | None = None,
    eta: np.ndarray | None = None,
) -> float:
    """Sum of squared sample misfits plus lam times the squared space norm.

    Functionals are applied by quadrature to the grid function; the space
    norm is computed in kernel coefficient space when a span representation
    is supplied, otherwise by the grid inner product.
    """
    if f is None:
        if eta is None:
            raise ShapeMismatchError("provide a grid function or span coefficients")
        f = problem.frame.synthesize(eta)
    misfit = float(np.sum(np.abs(_misfits(problem, f)) ** 2))
    if eta is not None:
        h_norm_sq = float(np.real(np.conj(eta) @ problem.gram_l @ eta))
    else:
        h_norm_sq = norm(f) ** 2
    return misfit + problem.lam * h_norm_sq


def sampling_operator(family: FunctionalFamily, indices: Sequence, f: GridFunction) -> SampleSet:
    """Apply each functional of the family to f, in index order."""
    return SampleSet(family.descriptor(), tuple(indices), family.apply_all(indices, f))


def perturb_samples(samples: SampleSet, sigma: float, seed: int) -> SampleSet:
    """Additive circular complex Gaussian noise on every sampled value,
    sigma * sqrt(-ln(1 - u)) * exp(2 pi i v): |z|**2 is exponential with mean
    sigma**2, the law of sigma * (n1 + i n2) / sqrt(2). The draws run value by
    value, the u of its entries then their v."""
    v = samples.values
    u = uniform(rng(seed), (v.shape[0], 2) + v.shape[1:])
    noise = sigma * np.sqrt(-np.log1p(-u[:, 0])) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
    return SampleSet(samples.family, samples.alphas, v + noise)


def reduced_space_minimize(
    gram_l: np.ndarray,
    xi: np.ndarray,
    lam: float,
    loss: Callable | None = None,
    loss_grad: Callable | None = None,
    iters: int = 100_000,
) -> np.ndarray:
    """Projected gradient descent over span coefficients, from eta = 0.

    Minimizes loss(G_L eta - xi) + lam * Re(eta^H G_L eta); the default loss
    is the squared norm. Each step starts at 1 / (2 (|G_L|_2 + lam)) and
    backtracking halves it until the objective decreases, which keeps
    general convex losses safe.
    """
    g = np.asarray(gram_l, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if loss is None:
        loss = lambda r: float(np.sum(np.abs(r) ** 2))  # noqa: E731
        loss_grad = lambda r: 2.0 * r  # noqa: E731
    if loss_grad is None:
        raise ShapeMismatchError("custom losses need an explicit gradient")
    eta = np.zeros_like(xi)
    gnorm = float(np.linalg.norm(g, 2))
    tau = 1.0 / (2.0 * (gnorm + lam) + 1e-30)

    def objective(e):
        return loss(g @ e - xi) + lam * float(np.real(np.conj(e) @ g @ e))

    current = objective(eta)
    xi_scale = max(float(np.linalg.norm(xi)), 1.0)
    for _ in range(int(iters)):
        r = g @ eta - xi
        grad = 0.5 * (g.conj().T @ loss_grad(r)) + lam * (g @ eta)
        if np.linalg.norm(grad) <= 1e-13 * xi_scale:
            break
        t = tau
        while True:
            trial = eta - t * grad
            val = objective(trial)
            if val <= current or t < 1e-18:
                break
            t *= 0.5
        if val > current:
            break
        progress = current - val
        eta, current = trial, val
        # objective progress below float resolution: converged
        if progress <= 1e-15 * max(current, 1e-30):
            break
    return eta


def _quad_forms(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Re(c^H m c) for each row vector of a stack c of shape (n, 1, k)."""
    return np.real(np.conj(c) @ m @ np.swapaxes(c, -2, -1))[:, 0, 0]


def _check_sweep(trials: int, subset_sizes: Sequence[int], m: int) -> None:
    """Refuse sweeps that would report on no evidence or on clipped or
    repeated sizes."""
    if int(trials) < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    for size in subset_sizes:
        if not 1 <= int(size) <= m:
            raise ValidationError(f"subset size {size} outside 1..{m} (the frame size)")
    if len({int(size) for size in subset_sizes}) != len(subset_sizes):
        raise ValidationError(f"subset sizes repeat: {list(subset_sizes)}")


@dataclass(frozen=True)
class TruncatedStabilityReport:
    per_size: dict
    c_emp: float
    envelope: float
    a_est: float
    b_est: float
    passed: bool
    trials: int


@dataclass(frozen=True)
class SweepReport:
    per_size: dict
    c_emp: float
    lam: float
    passed: bool
    trials: int


#: a block is 2**14 // (m * size) trials (at least one): its (block, 3m)
#: draws hold at most 3 * 2**14 // size entries, and its (block, size, size)
#: submatrices at most 2**14 * size // m <= 2**14
_TRIAL_BLOCK = 2**14


def stability_reports(
    frame: TruncatedFrame,
    dual: DualFrame,
    lam: float,
    trials: int,
    seed: int,
    subset_sizes: Sequence[int],
) -> tuple[TruncatedStabilityReport, SweepReport]:
    """Truncated and damped reconstruction ratios over one set of random
    trials: for each subset size, ``trials`` random span elements f with
    random sub-index sets S.

    - Truncated: |sum_{j in S} <f, K_j> K~_j| / |f| in the space norm
      (coefficient space); passes iff the maximum stays below
      (B_est/A_est)(1 + 0.1).
    - Damped: |f0|/|f| for the damped solve on S with weight lam; passes iff
      the global maximum is within twice the largest-size maximum (no
      blow-up as the index set shrinks).

    Each block of trials is one ``uniform`` draw of shape (block, 3m), and
    its rows fill in trial order, so the random stream does not depend on
    the blocking. A trial's row holds m doubles u and m doubles v, for its
    coefficients sqrt(u) exp(2 pi i v) in the unit disc, then m keys: S is the
    ``size`` indices of the smallest keys, in increasing order, a uniform subset.
    Products and solves run on the stacked block, one matrix-vector product
    per trial as in a single-trial loop.
    """
    m, trials = len(frame), int(trials)
    _check_sweep(trials, subset_sizes, m)
    _check_damping(lam)
    g = frame.gram.matrix
    gl = g.conj()
    a_est, b_est = frame_bounds_estimate(frame)
    gen = rng(seed)
    truncated: dict[int, float] = {}
    damped: dict[int, float] = {}
    for size in map(int, subset_sizes):
        block = max(1, _TRIAL_BLOCK // (m * size))
        worst_t = worst_d = 0.0
        for start in range(0, trials, block):
            n = min(block, trials - start)
            u = uniform(gen, (n, 3 * m))
            subsets = np.sort(np.argsort(u[:, 2 * m:], axis=1)[:, :size], axis=1)
            a = (np.sqrt(u[:, :m]) * np.exp(1j * (2.0 * np.pi * u[:, m:2 * m])))[:, None]
            f_norm = np.sqrt(np.maximum(_quad_forms(g, a), 1e-300))
            c = np.take_along_axis((a @ g)[:, 0], subsets, axis=1)[:, None]
            rows, cols = subsets[:, :, None], subsets[:, None, :]
            rec_sq = _quad_forms(dual.coeffs[rows, cols], c)
            gl_ss = gl[rows, cols]
            eta = solve_hermitian(gl_ss + lam * np.eye(size), c[:, 0])[:, None]
            worst_t = max(worst_t, float(np.max(np.sqrt(np.maximum(rec_sq, 0.0)) / f_norm)))
            worst_d = max(worst_d, float(np.max(np.sqrt(np.maximum(_quad_forms(gl_ss, eta), 0.0)) / f_norm)))
        truncated[size], damped[size] = worst_t, worst_d
    c_t, c_d, envelope = max(truncated.values()), max(damped.values()), (b_est / a_est) * 1.1
    return (
        TruncatedStabilityReport(per_size=truncated, c_emp=c_t, envelope=envelope, a_est=a_est,
                                 b_est=b_est, passed=c_t <= envelope, trials=trials),
        SweepReport(per_size=damped, c_emp=c_d, lam=float(lam), passed=c_d <= 2.0 * damped[max(damped)],
                    trials=trials),
    )
