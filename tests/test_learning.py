import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, cg

from opkern import core, learning
from opkern.core import Grid, GridFunction, norm
from opkern.exceptions import AlignmentError, ConditioningError, ShapeMismatchError, ValidationError
from opkern.families import (
    AverageSamplingFamily,
    FourierCoefficientFamily,
    SampleSet,
)
from opkern.frames import dual_frame, frame_bounds_estimate
from opkern.learning import (
    _TRIAL_BLOCK,
    learning_problem,
    objective_value,
    perturb_samples,
    reduced_space_minimize,
    regnet_solve,
    sampling_operator,
    stability_reports,
)
from opkern.paley_wiener import (
    BandlimitedSignal,
    pw_average_sections,
    pw_window,
    synthesize,
    w_grid_default,
)
from draws import complex_unit_disc, rng
from section_oracle import KernelSection, fourier_sections as _fourier_sections, section_stack, stacked_frame
from section_oracle import truncated_frame
from stability_oracle import stability_sweep, truncated_reconstruction_stability

TWO_PI = 2.0 * math.pi


def _fourier_problem(indices, values, lam, n=257):
    grid = Grid(0.0, TWO_PI, n)
    secs = _fourier_sections(indices, grid)
    samples = SampleSet(FourierCoefficientFamily().descriptor(), tuple(indices), tuple(values))
    return learning_problem(truncated_frame(secs), samples, lam)


def _average_problem(centers, values, lam, delta=0.2):
    window = pw_window(int(max(abs(c) for c in centers)) + 2, points_per_unit=32)
    frame = pw_average_sections(centers, delta, window, w_grid=w_grid_default(2049))
    samples = SampleSet(
        AverageSamplingFamily(delta=delta).descriptor(),
        tuple(float(c) for c in centers),
        tuple(values),
    )
    return learning_problem(frame, samples, lam)


# -------------------------------------------------------------------- regnet

def test_regnet_scalar_closed_form():
    prob = _fourier_problem([3], [0.7 + 0.2j], lam=0.5)
    sol = regnet_solve(prob)
    assert sol.eta[0] == pytest.approx((0.7 + 0.2j) / 1.5, abs=1e-12)


def test_regnet_heavy_damping_kills_solution():
    gen = rng(0)
    values = complex_unit_disc(gen, 5)
    prob = _fourier_problem(list(range(-2, 3)), values, lam=1e6)
    sol = regnet_solve(prob)
    assert np.max(np.abs(sol.eta)) < 2e-6
    assert norm(sol.f0) < 1e-5


def test_regnet_matches_gradient_descent_oracle():
    gen = rng(1)
    centers = [-1.0, 0.0, 1.0, 2.0, 3.0]
    values = complex_unit_disc(gen, 5)
    prob = _average_problem(centers, values, lam=0.1)
    sol = regnet_solve(prob)
    eta_gd = reduced_space_minimize(prob.gram_l, prob.values, prob.lam, iters=100_000)
    j_direct = objective_value(prob, eta=sol.eta)
    j_gd = objective_value(prob, eta=eta_gd)
    assert abs(j_direct - j_gd) <= 1e-5 * max(j_gd, 1e-12)


def test_reduced_space_minimize_explicit_squared_loss_matches_the_default():
    """The custom-loss route, given the squared loss and its gradient, runs
    the default route's iteration."""
    gen = rng(1)
    prob = _average_problem([-1.0, 0.0, 1.0, 2.0, 3.0], complex_unit_disc(gen, 5), lam=0.1)
    calls = []

    def loss(r):
        calls.append(1)
        return float(np.sum(np.abs(r) ** 2))

    eta = reduced_space_minimize(prob.gram_l, prob.values, prob.lam, loss=loss, loss_grad=lambda r: 2.0 * r)
    assert calls
    assert np.max(np.abs(eta - reduced_space_minimize(prob.gram_l, prob.values, prob.lam))) <= 1e-10


def test_reduced_space_minimize_converges_on_a_huber_loss():
    """Huber loss, |r|^2 up to |r| = d and 2d|r| - d^2 beyond, with most
    residuals in the linear zone at the minimizer. The objective is
    lam min eig(G_L)-strongly convex, so a small gradient bounds the
    distance to the minimizer. The loop stops on its objective-progress rule
    (relative 1e-15), which leaves the gradient near sqrt(eps) |xi| (1.7e-7
    here), not at its 1e-13 |xi| gradient threshold."""
    gen = rng(1)
    prob = _average_problem([-1.0, 0.0, 1.0, 2.0, 3.0], 10.0 * complex_unit_disc(gen, 5), lam=0.1)
    g, xi, lam, d = prob.gram_l, prob.values, prob.lam, 0.5

    def huber(r):
        t = np.abs(r)
        return float(np.sum(np.where(t <= d, t**2, 2.0 * d * t - d * d)))

    def huber_grad(r):
        t = np.abs(r)
        return np.where(t <= d, 2.0 * r, 2.0 * d * r / np.maximum(t, d))

    def grad(e):
        return 0.5 * (g.conj().T @ huber_grad(g @ e - xi)) + lam * (g @ e)

    eta = reduced_space_minimize(g, xi, lam, loss=huber, loss_grad=huber_grad)
    assert np.sum(np.abs(g @ eta - xi) > d) >= 3
    # |eta - eta*| <= |grad| / (lam min eig(G_L)), about 2e-6 here
    assert np.linalg.norm(grad(eta)) <= 1e-7 * np.linalg.norm(xi)


def test_reduced_space_minimize_refuses_a_loss_without_its_gradient():
    prob = _fourier_problem([0, 1], [1.0 + 0j, 0.5j], lam=0.1)
    with pytest.raises(ShapeMismatchError):
        reduced_space_minimize(prob.gram_l, prob.values, prob.lam, loss=lambda r: float(np.sum(np.abs(r))))


def test_regnet_f0_matches_per_section_sum():
    gen = rng(15)
    centers = [-1.5, -0.5, 0.5, 1.0, 2.0]
    window = pw_window(4, points_per_unit=32)
    frame = pw_average_sections(centers, 0.2, window, w_grid=w_grid_default(1025))
    samples = SampleSet(
        AverageSamplingFamily(delta=0.2).descriptor(), tuple(centers), tuple(complex_unit_disc(gen, 5))
    )
    sol = regnet_solve(learning_problem(frame, samples, lam=0.1))
    want = np.zeros_like(frame.section(0).values)
    for eta, h in zip(sol.eta, section_stack(frame)):
        want += eta * h
    assert np.max(np.abs(sol.f0.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_regnet_lam_validation():
    with pytest.raises(ValidationError):
        _fourier_problem([0], [1.0 + 0j], lam=0.0)


# ----------------------------------------------------------------- objective

def test_objective_zero_function():
    gen = rng(2)
    values = complex_unit_disc(gen, 3)
    prob = _fourier_problem([0, 1, 2], values, lam=0.3)
    grid = prob.frame.h_grid
    zero = GridFunction(grid, np.zeros((grid.n, 1)))
    assert objective_value(prob, f=zero) == pytest.approx(float(np.sum(np.abs(values) ** 2)))


def test_objective_interpolation_with_tiny_lambda():
    # exact-interpolation coefficients at (effectively) zero damping
    gen = rng(3)
    values = complex_unit_disc(gen, 3)
    prob = _fourier_problem([0, 1, 2], values, lam=1e-12)
    sol = regnet_solve(prob)
    assert objective_value(prob, eta=sol.eta) < 1e-10


def test_objective_minimality_against_random_probes():
    gen = rng(4)
    centers = [-1.0, 0.5, 2.0]
    values = complex_unit_disc(gen, 3)
    prob = _average_problem(centers, values, lam=0.5)
    sol = regnet_solve(prob)
    base = objective_value(prob, eta=sol.eta)
    for _ in range(100):
        direction = complex_unit_disc(gen, 3)
        for eps in (1e-3, -1e-3):
            probe = objective_value(prob, eta=sol.eta + eps * direction)
            assert probe >= base - 1e-9


def test_representer_gradient_vanishes():
    gen = rng(5)
    values = complex_unit_disc(gen, 4)
    prob = _fourier_problem([-1, 0, 1, 2], values, lam=0.05)
    sol = regnet_solve(prob)
    grad = (prob.gram_l + prob.lam * np.eye(4)) @ sol.eta - prob.values
    assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(prob.values)


# -------------------------------------------------------- interpolation limit

def _interpolation_residual(problem):
    """max_j |L_{alpha_j}(f0) - xi_j| of the solve at vanishing damping."""
    f0 = regnet_solve(learning_problem(problem.frame, problem.samples, 1e-12)).f0
    applied = problem.family.apply_all(problem.samples.alphas, f0)
    return float(np.max(np.abs(applied[:, 0] - problem.values)))


def test_interpolation_limit_orthonormal():
    gen = rng(6)
    values = complex_unit_disc(gen, 5)
    prob = _fourier_problem(list(range(-2, 3)), values, lam=1.0)
    assert _interpolation_residual(prob) < 1e-8


def test_interpolation_limit_rejects_duplicates():
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections([0], grid)
    samples = SampleSet(FourierCoefficientFamily().descriptor(), (0, 0), (1 + 0j, 1 + 0j))
    prob = learning_problem(truncated_frame([secs[0], secs[0]]), samples, lam=1.0)
    with pytest.raises(ConditioningError):
        _interpolation_residual(prob)


def test_interpolation_limit_average_family():
    gen = rng(7)
    centers = [float(c) for c in range(-4, 5)]
    window = pw_window(6, points_per_unit=64)
    frame = pw_average_sections(centers, 0.2, window, w_grid=w_grid_default(4097))
    sig = BandlimitedSignal.symmetric(complex_unit_disc(gen, 9), window)
    f = synthesize(sig)
    fam = AverageSamplingFamily(delta=0.2)
    samples = sampling_operator(fam, centers, f)
    prob = learning_problem(frame, samples, lam=1.0)
    assert _interpolation_residual(prob) < 1e-6


# ----------------------------------------------------------- sampling operator

def test_sampling_operator_zero_signal():
    grid = Grid(0.0, TWO_PI, 129)
    zero = GridFunction(grid, np.zeros((129, 1)))
    ss = sampling_operator(FourierCoefficientFamily(), [0, 1, 2], zero)
    assert np.max(np.abs(ss.value_array())) == 0.0


def test_sampling_operator_fourier_orthonormality():
    grid = Grid(0.0, TWO_PI, 257)
    f = GridFunction.from_callable(grid, lambda x: np.exp(3j * x) / math.sqrt(TWO_PI))
    ss = sampling_operator(FourierCoefficientFamily(), [2, 3, 4], f)
    vals = ss.value_array()
    assert abs(vals[0]) < 1e-8
    assert vals[1] == pytest.approx(1.0, abs=1e-8)
    assert abs(vals[2]) < 1e-8


def test_sampling_operator_average_matches_per_sample_quadrature():
    gen = rng(8)
    window = pw_window(4, points_per_unit=64)
    sig = BandlimitedSignal.symmetric(complex_unit_disc(gen, 5), window)
    f = synthesize(sig)
    fam = AverageSamplingFamily(delta=0.3, profile="triangle")
    centers = [-1.0, 0.25, 1.5]
    ss = sampling_operator(fam, centers, f)
    from opkern.families import AverageFunctional, average_sample

    for alpha, got in zip(ss.alphas, ss.value_array()):
        oracle = average_sample(f, AverageFunctional(alpha, 0.3, "triangle"))
        assert got == pytest.approx(oracle, abs=1e-12)


# ------------------------------------------------------------------ stability

def test_truncated_stability_orthonormal():
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections(range(-4, 4), grid)
    frame = truncated_frame(secs)
    dual = dual_frame(frame)
    rep, _ = stability_reports(frame, dual, lam=0.1, trials=50, seed=0, subset_sizes=[2, 4, 8])
    assert rep.passed
    assert rep.c_emp <= 1.0 + 1e-8  # orthogonal projection never expands


def test_truncated_stability_single_subsets_cauchy_schwarz():
    window = pw_window(6, points_per_unit=32)
    frame = pw_average_sections(range(-6, 7), 0.1, window, w_grid=w_grid_default(2049))
    dual = dual_frame(frame)
    rep, _ = stability_reports(frame, dual, lam=0.1, trials=100, seed=1, subset_sizes=[1])
    g = frame.gram.matrix
    gp = dual.coeffs
    bound = max(
        math.sqrt(g[j, j].real) * math.sqrt(gp[j, j].real) for j in range(len(frame))
    )
    assert rep.c_emp <= bound + 1e-9


def test_truncated_stability_average_family():
    window = pw_window(16, points_per_unit=32)
    frame = pw_average_sections(range(-16, 17), 0.1, window, w_grid=w_grid_default(2049))
    dual = dual_frame(frame)
    rep, _ = stability_reports(frame, dual, lam=0.1, trials=200, seed=3, subset_sizes=[4, 8, 16])
    assert rep.passed


# ------------------------------------------------------------------- tikhonov

def test_tikhonov_interpolation_limit_recovers_span_element():
    grid = Grid(0.0, TWO_PI, 257)
    indices = list(range(-2, 3))
    secs = _fourier_sections(indices, grid)
    gen = rng(9)
    coeff = complex_unit_disc(gen, 5)
    f = GridFunction(grid, sum(c * s.h_repr.values for c, s in zip(coeff, secs)))
    fam = FourierCoefficientFamily()
    samples = sampling_operator(fam, indices, f)
    errs = []
    for lam in (1e-2, 1e-6, 1e-10):
        f0 = regnet_solve(learning_problem(truncated_frame(secs), samples, lam)).f0
        errs.append(norm(f0 - f))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_tikhonov_zero_samples():
    grid = Grid(0.0, TWO_PI, 129)
    indices = [0, 1]
    secs = _fourier_sections(indices, grid)
    samples = SampleSet(FourierCoefficientFamily().descriptor(), tuple(indices), (0j, 0j))
    f0 = regnet_solve(learning_problem(truncated_frame(secs), samples, 0.1)).f0
    assert norm(f0) == 0.0


def test_tikhonov_noise_response_spectral_bound():
    """Damped noise response obeys |response| <= |noise| / (2 sqrt(lam))."""
    grid = Grid(0.0, TWO_PI, 257)
    indices = list(range(-3, 4))
    secs = _fourier_sections(indices, grid)
    fam = FourierCoefficientFamily()
    lam = 0.04
    frame = truncated_frame(secs)
    clean = SampleSet(fam.descriptor(), tuple(indices), tuple(np.zeros(7, dtype=complex)))
    gen = rng(10)
    for _ in range(100):
        noisy = perturb_samples(clean, sigma=0.01, seed=int(gen.integers(0, 2**31)))
        f0 = regnet_solve(learning_problem(frame, noisy, lam)).f0
        noise_vec = noisy.value_array()
        assert norm(f0) <= np.linalg.norm(noise_vec) / (2.0 * math.sqrt(lam)) + 1e-12


def test_tikhonov_filter_factors_along_spectrum():
    """In the Gram eigenbasis the solve multiplies coefficients by
    g/(g+lam), increasing in g and decreasing in lam."""
    window = pw_window(6, points_per_unit=32)
    g_l = pw_average_sections(range(-6, 7), 0.2, window, w_grid=w_grid_default(2049)).gram.matrix.conj()
    w, v = np.linalg.eigh(g_l)
    gen = rng(11)
    xi = complex_unit_disc(gen, len(g_l))
    previous = None
    for lam in (0.01, 0.1, 1.0):
        eta = np.linalg.solve(g_l + lam * np.eye(len(g_l)), xi)
        # sample values of the solution in the eigenbasis: L(f0) = G_L eta
        fitted = v.conj().T @ (g_l @ eta)
        data = v.conj().T @ xi
        factors = (fitted / data).real
        expect = w / (w + lam)
        assert np.max(np.abs(factors - expect)) < 1e-8
        assert np.all(np.diff(expect) >= -1e-12)  # increasing in g
        if previous is not None:
            assert np.all(expect <= previous + 1e-12)  # decreasing in lam
        previous = expect


def test_stability_sweep_heavy_damping():
    window = pw_window(8, points_per_unit=32)
    centers = [float(c) for c in range(-8, 9)]
    frame = pw_average_sections(centers, 0.2, window, w_grid=w_grid_default(2049))
    _, rep = stability_reports(frame, dual_frame(frame), lam=1e3, trials=50, seed=0, subset_sizes=(4, 8, 16))
    assert rep.passed
    assert rep.c_emp < 0.01


def test_stability_sweep_orthonormal_filter_bound():
    grid = Grid(0.0, TWO_PI, 257)
    indices = list(range(-4, 4))
    secs = _fourier_sections(indices, grid)
    frame = truncated_frame(secs)
    _, rep = stability_reports(frame, dual_frame(frame), lam=0.1, trials=100, seed=2, subset_sizes=(4, 8))
    assert rep.passed
    assert rep.c_emp <= 1.0 / 1.1 + 1e-9  # unit spectrum: factor g/(g+lam)


def test_stability_sweep_average_family_bounded():
    window = pw_window(8, points_per_unit=32)
    centers = [float(c) for c in range(-8, 9)]
    frame = pw_average_sections(centers, 0.2, window, w_grid=w_grid_default(2049))
    _, rep = stability_reports(frame, dual_frame(frame), lam=0.1, trials=100, seed=4, subset_sizes=(4, 8, 16))
    assert rep.passed
    assert max(rep.per_size.values()) <= 1.0 + 1e-9


def _random_frame(m, seed, repeat=0):
    """m scalar sections with random complex features on a 48-point grid;
    the last ``repeat`` sections duplicate the first ones."""
    gen = np.random.default_rng(seed)
    grid = Grid(0.0, 1.0, 48)
    w = gen.standard_normal((m - repeat, grid.n)) + 1j * gen.standard_normal((m - repeat, grid.n))
    w = np.concatenate((w, w[:repeat]))
    return stacked_frame(range(m), w, grid, w, grid)


def _oracle_reports(frame, dual, lam, trials, seed, sizes):
    return (
        truncated_reconstruction_stability(frame, dual, trials, sizes, seed),
        stability_sweep(frame, lam, trials, seed, sizes),
    )


@st.composite
def _sweeps(draw):
    """(trial block, m, sizes, trials, lam, seed): a small block, so that a
    trial count one below, at or one above a block costs little."""
    trial_block = draw(st.sampled_from([2**8, 2**10]))
    m = draw(st.integers(1, 40))
    middle = draw(st.lists(st.integers(1, m), max_size=3, unique=True))
    sizes = draw(st.permutations(sorted({1, m, *middle})))
    block = max(1, trial_block // (m * draw(st.sampled_from(sizes))))
    trials = draw(st.sampled_from([1, max(1, block - 1), block, block + 1]) | st.integers(1, 200))
    return trial_block, m, sizes, trials, draw(st.floats(1e-6, 1e3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=20, deadline=None)
@given(sweep=_sweeps())
# the library's own block: two blocks at size 4, the second of one trial
@example(sweep=(_TRIAL_BLOCK, 17, [1, 4, 17], _TRIAL_BLOCK // (17 * 4) + 1, 0.1, 11))
def test_stability_reports_match_the_single_trial_loops(sweep):
    trial_block, m, sizes, trials, lam, seed = sweep
    frame = _random_frame(m, seed)
    dual = dual_frame(frame)
    with mock.patch.object(learning, "_TRIAL_BLOCK", trial_block):
        got = stability_reports(frame, dual, lam, trials, seed, sizes)
    wants = _oracle_reports(frame, dual, lam, trials, seed, sizes)
    # the truncated ratios need no solve: the same draws give the same bits
    assert got[0] == wants[0]
    for rep, want in zip(got, wants):
        assert list(rep.per_size) == list(want.per_size)
        np.testing.assert_allclose(list(rep.per_size.values()), list(want.per_size.values()), rtol=1e-14, atol=0)
        assert rep.c_emp == pytest.approx(want.c_emp, rel=1e-14, abs=0)
        assert rep.passed == want.passed
        assert rep.trials == want.trials


def test_stability_reports_refuse_like_the_single_trial_loops():
    # section 5 repeats section 0: a trial whose subset holds both is singular
    # up to lam, so the damped solve refuses it partway through a block
    frame = _random_frame(6, seed=7, repeat=1)
    dual = dual_frame(frame)
    with pytest.raises(ConditioningError) as want:
        _oracle_reports(frame, dual, 1e-14, 60, 4, [3])
    with pytest.raises(ConditioningError) as got:
        stability_reports(frame, dual, 1e-14, 60, 4, [3])
    assert str(got.value) == str(want.value)
    assert (got.value.min_eig, got.value.max_eig) == (want.value.min_eig, want.value.max_eig)


@pytest.mark.parametrize("profile", ["box", "triangle", "cosine"])
@pytest.mark.parametrize("w_n,points_per_unit", [(257, 16), (2049, 32)], ids=["benchmark-grids", "default-grids"])
def test_stability_reports_of_the_pw_frames_solve_without_eigensolves(monkeypatch, profile, w_n, points_per_unit):
    """At lam = 0.1 every damped matrix of the CLI's 17-section frames is
    certified by its Gershgorin discs, and frame_bounds_estimate reads the
    lattice Gram's extremes by Lanczos: the pass makes no eigensolve."""
    frame = pw_average_sections(
        [float(c) for c in range(-8, 9)], 0.2, pw_window(8, points_per_unit=points_per_unit), profile,
        w_grid_default(w_n),
    )
    dual = dual_frame(frame)
    calls = []

    def recording(name):
        solver = getattr(np.linalg, name)

        def run(m, *args, **kwargs):
            calls.append((name, np.shape(m)))
            return solver(m, *args, **kwargs)

        return run

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    stability_reports(frame, dual, 0.1, 20, 3, [1, 4, 8, 16, 17])
    assert calls == []


def test_stability_reports_memory_does_not_grow_with_trials():
    # size 4 has the largest block of the benchmark's sizes, so two full
    # blocks of it are compared with 20,000 trials
    frame = _random_frame(17, seed=5)
    dual = dual_frame(frame)
    stability_reports(frame, dual, 0.1, 1, 0, [4])  # lazy imports out of the way
    peaks = []
    for trials in (2 * (_TRIAL_BLOCK // (17 * 4)), 20_000):
        tracemalloc.start()
        try:
            stability_reports(frame, dual, 0.1, trials, 0, [4])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks


def test_stability_reports_draw_one_random_call_per_block(monkeypatch):
    """At 17 sections, sizes 4, 8, 16 and 1,000 trials the blocks hold 240,
    120 and 60 trials: 5 + 9 + 17 = 31 ``uniform`` draws, each one
    ``getrandbits`` call. Drawn trial by trial, with a ``random`` and a
    ``choice`` each, the pass made 6,000 generator calls."""
    calls = []

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            method = getattr(self._gen, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return call

    monkeypatch.setattr(learning, "rng", lambda seed, make=learning.rng: Counting(make(seed)))
    frame = _random_frame(17, seed=6)
    stability_reports(frame, dual_frame(frame), 0.1, 1000, 0, (4, 8, 16))
    assert calls == ["getrandbits"] * 31


def test_sampling_operator_continuity_surrogate():
    window = pw_window(8, points_per_unit=32)
    centers = [float(c) for c in range(-8, 9)]
    frame = pw_average_sections(centers, 0.2, window, w_grid=w_grid_default(2049))
    _, b_est = frame_bounds_estimate(frame)
    g = frame.gram.matrix
    gen = rng(12)
    for _ in range(25):
        a = complex_unit_disc(gen, len(frame))
        f_norm_sq = float(np.real(np.conj(a) @ g @ a))
        samples_sq = float(np.linalg.norm(a @ g) ** 2)
        assert samples_sq <= b_est * f_norm_sq + 1e-9


def test_direct_and_iterative_solvers_agree():
    gen = rng(13)
    centers = [-2.0, -1.0, 0.0, 1.0, 2.0]
    values = complex_unit_disc(gen, 5)
    prob = _average_problem(centers, values, lam=0.3)
    direct = regnet_solve(prob).eta
    m = prob.gram_l + prob.lam * np.eye(5)
    op = LinearOperator((5, 5), matvec=lambda x: m @ x, dtype=complex)
    iterative, info = cg(op, prob.values, rtol=1e-12, maxiter=500)
    assert info == 0
    assert np.linalg.norm(direct - iterative) <= 1e-8 * np.linalg.norm(prob.values)


def test_vector_valued_problem_via_scalarized_samples():
    """C^2-valued signals: inner-product point samples scalarize the operator
    data, and the flattened system recovers a span element as damping
    vanishes."""
    from opkern.families import PointInnerFamily
    from opkern.paley_wiener import build_vector_sampling_set, vector_features

    window = Grid(-12.0, 12.0, 769)
    wg = w_grid_default(1025)
    vss = build_vector_sampling_set(2, 2)  # 10 node/direction pairs
    feats = vector_features(vss, wg)
    x_axis = window.points()
    secs = []
    for (j, xj, xij), w in zip(vss.entries(), feats):
        h = GridFunction(window, np.outer(np.sinc(x_axis - xj), xij))
        secs.append(KernelSection(alpha=(xj, tuple(xij)), xi=xij, h_repr=h, w_repr=GridFunction(wg, w)))
    frame = truncated_frame(secs)
    g = frame.gram.matrix
    gen = rng(14)
    coeff = complex_unit_disc(gen, len(secs))
    exact = coeff @ g  # <f, K_j> for f = sum coeff_j K_j
    fam = PointInnerFamily()
    samples = SampleSet(fam.descriptor(), frame.alphas, tuple(complex(v) for v in exact))
    prob = learning_problem(frame, samples, lam=1e-10)
    sol = regnet_solve(prob)
    f_target = frame.synthesize(coeff)
    assert norm(sol.f0 - f_target) <= 1e-6 * norm(f_target)


def test_perturb_samples_deterministic():
    fam = FourierCoefficientFamily()
    ss = SampleSet(fam.descriptor(), (0, 1), (1 + 0j, 2 + 0j))
    a = perturb_samples(ss, 0.1, seed=7).value_array()
    b = perturb_samples(ss, 0.1, seed=7).value_array()
    assert np.allclose(a, b)
    assert not np.allclose(a, ss.value_array())


@pytest.mark.parametrize("shape", [(7,), (1,), (5, 3), (40, 2)])
def test_perturb_samples_equals_the_per_value_loop(shape):
    gen = rng(21)
    values = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    ss = SampleSet(FourierCoefficientFamily().descriptor(), tuple(range(shape[0])), values)
    got = perturb_samples(ss, 0.3, seed=5).values
    draws = core.rng(5)
    want = []
    for v in values:
        arr = np.atleast_1d(v)
        u, w = core.uniform(draws, (2,) + arr.shape)
        want.append(arr + 0.3 * np.sqrt(-np.log1p(-u)) * np.exp(1j * (2.0 * np.pi * w)))
    assert np.array_equal(got, np.reshape(want, got.shape))


def test_perturb_samples_draw_the_circular_gaussian_law():
    """sigma (n1 + i n2) / sqrt(2) has |z|**2 exponential with mean sigma**2,
    no mean and no pseudo-variance E z**2. Over 40,000 values each bound is
    5 or more standard errors of its sample moment (2.4e-3 to 7.1e-3)."""
    n = 40_000
    ss = SampleSet(FourierCoefficientFamily().descriptor(), tuple(range(n)), np.zeros(n, dtype=complex))
    z = perturb_samples(ss, 0.5, seed=11).values / 0.5
    power = np.abs(z) ** 2
    assert abs(np.mean(power) - 1.0) < 0.03
    assert abs(np.mean(power > 1.0) - math.exp(-1.0)) < 0.015
    assert abs(np.mean(z)) < 0.03
    assert abs(np.mean(z**2)) < 0.04


def test_tikhonov_misaligned_indices_rejected():
    grid = Grid(0.0, TWO_PI, 129)
    secs = _fourier_sections([0, 1], grid)
    samples = SampleSet(FourierCoefficientFamily().descriptor(), (1, 0), (0j, 0j))
    with pytest.raises(AlignmentError):
        regnet_solve(learning_problem(truncated_frame(secs), samples, 0.1))
