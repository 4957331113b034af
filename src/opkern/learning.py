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

from .core import (
    GridFunction,
    complex_unit_disc,
    hermitian_eig,
    norm,
    rng,
    solve_hermitian,
)
from .exceptions import ConditioningError, ShapeMismatchError, ValidationError
from .families import FunctionalFamily, SampleSet, family_from_descriptor
from .frames import DualFrame, TruncatedFrame, frame_bounds_estimate

__all__ = [
    "LearningProblem",
    "RepresenterSolution",
    "learning_problem",
    "regnet_solve",
    "objective_value",
    "interpolation_limit",
    "sampling_operator",
    "perturb_samples",
    "reduced_space_minimize",
    "tikhonov_operator_apply",
    "truncated_reconstruction_stability",
    "stability_sweep",
]


@dataclass(frozen=True)
class LearningProblem:
    """The stacked frame, the applied-functional Gram
    G_L[j,k] = L_{alpha_j}(K_k), the sample set, and the damping weight."""

    frame: TruncatedFrame
    gram_l: np.ndarray = field(repr=False)
    samples: SampleSet
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ConditioningError(f"damping weight must be positive, got {self.lam}")
        m = len(self.frame)
        if self.gram_l.shape != (m, m):
            raise ShapeMismatchError("gram size does not match section count")
        scale = max(np.linalg.norm(self.gram_l), 1.0)
        if np.linalg.norm(self.gram_l - self.gram_l.conj().T) > 1e-10 * scale:
            raise ShapeMismatchError("applied-functional Gram is not Hermitian")

    @property
    def family(self) -> FunctionalFamily:
        return family_from_descriptor(self.samples.family)

    @property
    def values(self) -> np.ndarray:
        return self.samples.value_array()


def learning_problem(
    frame: TruncatedFrame,
    samples: SampleSet,
    lam: float,
    gram_l: np.ndarray | None = None,
) -> LearningProblem:
    """Assemble a problem; G_L defaults to the conjugate of the frame's
    section Gram (L_{alpha_j}(K_k) = <Psi_k, Psi_j>)."""
    if gram_l is None:
        gram_l = frame.gram.matrix.conj()
    return LearningProblem(frame, np.asarray(gram_l, dtype=complex), samples, float(lam))


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
    if residual > 1e-8 * max(np.linalg.norm(xi), 1e-300):
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
    fam = problem.family
    misfit = 0.0
    for applied, value in zip(fam.apply_all(problem.samples.alphas, f), problem.samples.values):
        misfit += float(np.sum(np.abs(np.atleast_1d(applied) - np.atleast_1d(value)) ** 2))
    if eta is not None:
        h_norm_sq = float(np.real(np.conj(eta) @ problem.gram_l @ eta))
    else:
        h_norm_sq = norm(f) ** 2
    return misfit + problem.lam * h_norm_sq


def interpolation_limit(problem: LearningProblem) -> float:
    """Residual max_j |L_{alpha_j}(f0) - xi_j| of the vanishing-damping solve;
    refuses when the Gram is numerically singular."""
    w, _ = hermitian_eig(problem.gram_l)
    if w[0] <= 1e-8 * max(w[-1], 1e-300):
        raise ConditioningError(
            "Gram too ill-conditioned for the interpolation limit",
            min_eig=float(w[0]),
            max_eig=float(w[-1]),
        )
    tiny = LearningProblem(problem.frame, problem.gram_l, problem.samples, 1e-12)
    sol = regnet_solve(tiny)
    fam = problem.family
    worst = 0.0
    for applied, value in zip(fam.apply_all(problem.samples.alphas, sol.f0), problem.samples.values):
        worst = max(worst, float(np.linalg.norm(np.atleast_1d(applied) - np.atleast_1d(value))))
    return worst


def sampling_operator(family: FunctionalFamily, indices: Sequence, f: GridFunction) -> SampleSet:
    """Apply each functional of the family to f, in index order."""
    values = []
    for applied in family.apply_all(indices, f):
        applied = np.atleast_1d(applied)
        values.append(complex(applied[0]) if applied.size == 1 else applied)
    return SampleSet(family.descriptor(), tuple(indices), tuple(values))


def perturb_samples(samples: SampleSet, sigma: float, seed: int) -> SampleSet:
    """Additive circular complex Gaussian noise on every sampled value."""
    gen = rng(seed)
    noisy = []
    for v in samples.values:
        arr = np.atleast_1d(np.asarray(v, dtype=complex))
        noise = sigma * (gen.standard_normal(arr.shape) + 1j * gen.standard_normal(arr.shape))
        noise /= math.sqrt(2.0)
        out = arr + noise
        noisy.append(complex(out[0]) if out.size == 1 else out)
    return SampleSet(samples.family, samples.alphas, tuple(noisy))


def reduced_space_minimize(
    gram_l: np.ndarray,
    xi: np.ndarray,
    lam: float,
    loss: Callable | None = None,
    loss_grad: Callable | None = None,
    iters: int = 100_000,
    step: float | None = None,
    eta0: np.ndarray | None = None,
    backtracking: bool = True,
) -> np.ndarray:
    """Projected gradient descent over span coefficients.

    Minimizes loss(G_L eta - xi) + lam * Re(eta^H G_L eta); the default loss
    is the squared norm. Backtracking halves the step until the objective
    decreases, which keeps general convex losses safe.
    """
    g = np.asarray(gram_l, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if loss is None:
        loss = lambda r: float(np.sum(np.abs(r) ** 2))  # noqa: E731
        loss_grad = lambda r: 2.0 * r  # noqa: E731
    if loss_grad is None:
        raise ShapeMismatchError("custom losses need an explicit gradient")
    eta = np.zeros_like(xi) if eta0 is None else np.asarray(eta0, dtype=complex)
    gnorm = float(np.linalg.norm(g, 2))
    tau = step if step is not None else 1.0 / (2.0 * (gnorm + lam) + 1e-30)

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
            if val <= current or not backtracking or t < 1e-18:
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


def tikhonov_operator_apply(
    indices: Sequence,
    lam: float,
    samples: SampleSet,
    frame: TruncatedFrame,
    gram_l: np.ndarray | None = None,
) -> GridFunction:
    """Damped reconstruction from (possibly noisy) functional values; by the
    representer structure this is the closed-form quadratic-loss solution on
    the truncated index set."""
    if list(indices) != list(samples.alphas):
        raise ShapeMismatchError("indices and samples are misaligned")
    problem = learning_problem(frame, samples, lam, gram_l=gram_l)
    return regnet_solve(problem).f0


def _quad_form(m: np.ndarray, c: np.ndarray) -> float:
    return float(np.real(np.conj(c) @ m @ c))


def _check_sweep(trials: int, subset_sizes: Sequence[int], m: int) -> None:
    """Refuse sweeps that would report on no evidence or on clipped sizes."""
    if int(trials) < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    for size in subset_sizes:
        if not 1 <= int(size) <= m:
            raise ValidationError(f"subset size {size} outside 1..{m} (the frame size)")


@dataclass(frozen=True)
class TruncatedStabilityReport:
    per_size: dict
    c_emp: float
    envelope: float
    a_est: float
    b_est: float
    passed: bool
    trials: int


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
            a = complex_unit_disc(gen, m)
            f_norm = math.sqrt(max(_quad_form(g, a), 1e-300))
            subset = np.sort(gen.choice(m, size=size, replace=False))
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


@dataclass(frozen=True)
class SweepReport:
    per_size: dict
    c_emp: float
    lam: float
    passed: bool
    trials: int


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
            a = complex_unit_disc(gen, m)
            f_norm = math.sqrt(max(_quad_form(g, a), 1e-300))
            subset = np.sort(gen.choice(m, size=size, replace=False))
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
