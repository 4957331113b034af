import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opkern.core import Grid, GridFunction, complex_unit_disc, inner_product, rng
from opkern.exceptions import AdmissibilityError, DomainError, ShapeMismatchError, ValidationError
from opkern.families import AverageFunctional, average_sample
from opkern.kernels import feature_gram
from opkern.paley_wiener import (
    BandlimitedSignal,
    VectorSamplingSet,
    build_vector_sampling_set,
    fourier_series,
    generalized_kadec_check,
    kadec_bounds,
    point_feature_map,
    pw_average_sections,
    pw_features,
    pw_point_sections,
    pw_window,
    sinc_kernel,
    synthesize,
    vector_features,
    w_grid_default,
)
from section_oracle import average_feature, average_sections, section_stack, sinc_sections, truncated_frame

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def _average_feature(x, delta, w_grid, profile="box"):
    """The library's Psi(x) as a grid function, for the inner products."""
    return GridFunction(w_grid, pw_features([x], w_grid, delta, profile)[0])


# ----------------------------------------------------------------------- sinc

def test_sinc_kernel_values():
    assert sinc_kernel(0.7, 0.7) == pytest.approx(1.0)
    assert sinc_kernel(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert sinc_kernel(0.0, 0.5) == pytest.approx(2.0 / math.pi, abs=1e-12)


# ------------------------------------------------------------------ synthesis

def test_synthesize_single_shift_is_sinc():
    window = pw_window(2, points_per_unit=16)
    sig = BandlimitedSignal.symmetric(np.array([0, 0, 1.0, 0, 0]), window)
    f = synthesize(sig)
    assert np.max(np.abs(f.values[:, 0] - np.sinc(window.points()))) < 1e-14


def test_synthesize_zero():
    window = pw_window(2, points_per_unit=16)
    sig = BandlimitedSignal.symmetric(np.zeros(5), window)
    assert np.max(np.abs(synthesize(sig).values)) == 0.0


def test_synthesize_integer_readoff():
    gen = rng(9)
    window = pw_window(8, points_per_unit=8)
    coeffs = complex_unit_disc(gen, 17)
    sig = BandlimitedSignal.symmetric(coeffs, window)
    vals = sig.evaluate(np.arange(-8.0, 9.0))
    assert np.allclose(vals[:, 0], coeffs, atol=1e-12)


def test_signal_json_roundtrip_and_tail():
    gen = rng(1)
    window = pw_window(4)
    sig = BandlimitedSignal.symmetric(complex_unit_disc(gen, 9), window)
    back = BandlimitedSignal.from_json(sig.to_json())
    assert np.allclose(back.coeffs, sig.coeffs)
    assert back.window == sig.window
    assert 0.0 < sig.truncation_tail_estimate() < 1.0


# ------------------------------------------------------------ kernel sections

def test_pw_section_quadratic_convergence_to_sinc():
    out = Grid(-4.0, 4.0, 257)
    wg = w_grid_default(2049)
    devs = []
    for d in (0.1, 0.05, 0.025):
        h = pw_average_sections([0.0], d, out, w_grid=wg).section(0).values[:, 0]
        devs.append(np.max(np.abs(h - np.sinc(out.points()))))
    assert devs[0] / devs[1] > 3.0
    assert devs[1] / devs[2] > 3.0


def test_pw_section_real_for_real_profile():
    out = Grid(-6.0, 6.0, 257)
    h = pw_average_sections([1.0], 0.2, out, w_grid=w_grid_default(2049)).section(0).values
    assert np.max(np.abs(h.imag)) < 1e-8


def test_pw_section_reproduces_average_samples():
    """<f, K(x)> against the independent local-average quadrature."""
    window = pw_window(8, points_per_unit=128)
    gen = rng(3)
    sig = BandlimitedSignal.symmetric(complex_unit_disc(gen, 9), window)
    f = synthesize(sig)
    wg = w_grid_default(8193)
    w_f = fourier_series(sig, wg)
    for x in (-1.3, 0.25, 2.0):
        u = AverageFunctional(x, 0.2)
        lhs = average_sample(f, u, refine=16)
        rhs = inner_product(w_f, _average_feature(x, 0.2, wg))
        assert abs(lhs - rhs) < 2e-6
        # grid-side inner product carries the window-truncation error only
        rhs_grid = inner_product(f, pw_average_sections([x], 0.2, window, w_grid=w_grid_default(2049)).section(0))
        assert abs(lhs - rhs_grid) < 2e-2


@pytest.mark.parametrize("profile", ["box", "triangle", "cosine"])
def test_batched_sections_match_single_calls(profile):
    """The modulated batch against the per-centre oracle: each centre's own
    transform, then an explicit dense synthesis sum; the Gram carries the
    feature vectors."""
    window = pw_window(2, points_per_unit=32)
    wg = w_grid_default(513)
    batch = pw_average_sections([-1.0, 0.5], 0.15, window, profile=profile, w_grid=wg)
    oracle = truncated_frame(average_sections([-1.0, 0.5], 0.15, window, wg, profile))
    assert batch.alphas == oracle.alphas
    assert np.max(np.abs(section_stack(batch) - section_stack(oracle))) < 1e-13
    assert np.max(np.abs(batch.gram.matrix - oracle.gram.matrix)) < 1e-13


# ------------------------------------------------------------------- features

@pytest.mark.parametrize("profile", ["box", "triangle", "cosine"])
def test_pw_features_hold_one_array_of_their_size(profile):
    """The rows are exponentiated and scaled in their own buffer.
    np.exp(1j * np.outer(centers, t)) * base held two more arrays of their
    size: at m = 512 and w_n = 2049 its peak was 64.3 MiB for a 32.0 MiB
    result. The rows equal the plane waves exp(i x t)/sqrt(2pi) times the
    profile transform m bit for bit."""
    w_grid = w_grid_default(2049)
    centers = [float(c) for c in range(-128, 129)]
    tracemalloc.start()
    try:
        rows = pw_features(centers, w_grid, 0.2, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * rows.nbytes
    t = w_grid.points()
    m = AverageFunctional(0.0, 0.2, profile).centered_transform(t)
    want = np.exp(1j * np.outer(centers, t)) / math.sqrt(TWO_PI) * m
    assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))


_centres = st.one_of(
    st.integers(-1000, 1000).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(_centres, min_size=1, max_size=6),
    delta=st.floats(0.001, 0.25, exclude_max=True),
    profile=st.sampled_from(["box", "triangle", "cosine"]),
    w_n=st.integers(17, 2049),
)
@example(xs=[-1000.0, 0.5, 999.75], delta=0.001, profile="box", w_n=2049)
@example(xs=[0.0], delta=0.2499, profile="cosine", w_n=17)
def test_pw_features_match_the_per_functional_oracle(xs, delta, profile, w_n):
    """Each average row against the functional's own closed-form transform,
    sqrt(2pi) u.inverse_transform(t). Both take the same phase x t, so they
    differ only in the rounding of the scale: measured at most 2.0 eps
    |m(t)|/sqrt(2pi) over 1,600 rows, held to 4 eps. The average rows are the
    point rows times m, Psi = Phi m, bit for bit, and the point rows are the
    plane waves of the sinc oracle, exp(i x t)/sqrt(2pi), bit for bit."""
    wg = w_grid_default(w_n)
    t = wg.points()
    rows, waves = pw_features(xs, wg, delta, profile), pw_features(xs, wg)
    assert rows.shape == waves.shape == (len(xs), w_n)
    m = AverageFunctional(0.0, delta, profile).centered_transform(t)
    assert np.array_equal(rows, waves * m)
    for x, row, wave in zip(xs, rows, waves):
        oracle = average_feature(AverageFunctional(x, delta, profile), wg).values[:, 0]
        assert np.all(np.abs(row - oracle) <= 4 * EPS * np.abs(m) / math.sqrt(TWO_PI))
        assert np.array_equal(wave, np.exp(1j * x * t) / math.sqrt(TWO_PI))


def test_psi_norm_approaches_one_as_delta_shrinks():
    wg = w_grid_default(4097)
    gaps = []
    for d in (0.2, 0.1, 0.05):
        psi = _average_feature(0.0, d, wg)
        gaps.append(abs(inner_product(psi, psi).real - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[2] > 3.0  # quadratic shrinkage


def test_psi_cross_equals_applied_kernel():
    """<Psi(x), Psi(y)> equals the y-average of the x-section."""
    wg = w_grid_default(8193)
    out = pw_window(6, points_per_unit=128)
    x, y = 0.5, 1.25
    uy = AverageFunctional(y, 0.2)
    w_side = inner_product(_average_feature(x, 0.2, wg), _average_feature(y, 0.2, wg))
    applied = average_sample(pw_average_sections([x], 0.2, out, w_grid=wg).section(0), uy, refine=16)
    assert abs(w_side - applied) < 1e-6


def test_psi_modulation_identity():
    """Shifting the profile modulates its frequency side, the identity that
    ``pw_features`` builds on, taken on the per-functional transforms."""
    wg = w_grid_default(1025)
    psi0 = average_feature(AverageFunctional(0.0, 0.2), wg)
    psix = average_feature(AverageFunctional(1.7, 0.2), wg)
    t = wg.points()
    assert np.max(np.abs(psix.values[:, 0] - np.exp(1.7j * t) * psi0.values[:, 0])) < 1e-12


def test_section_matches_point_feature_pairing():
    """K(x)(y) agrees with <Psi(x), Phi(y)> for the plane-wave point feature."""
    wg = w_grid_default(8193)
    out = Grid(-3.0, 3.0, 65)
    h = pw_average_sections([0.4], 0.2, out, w_grid=wg).section(0).values[:, 0]
    waves = point_feature_map(wg).evaluate(out.points(), np.array([1.0 + 0j]))
    psi = _average_feature(0.4, 0.2, wg)
    for i, wave in enumerate(waves):
        pair = inner_product(psi, GridFunction(wg, wave))
        assert abs(h[i] - pair) < 1e-6


@pytest.mark.parametrize("points", [[-6, -5.5, 0, 0.25, 3, 6], [0.5], list(range(-8, 9))])
def test_pw_point_sections_match_the_sinc_oracle(points):
    """The point-evaluation frame against the per-point sinc sections with
    their plane waves: the same arithmetic, bit for bit."""
    window, wg = Grid(-12.0, 12.0, 385), w_grid_default(513)
    frame = pw_point_sections(points, window, wg)
    oracle = truncated_frame(sinc_sections(points, window, wg))
    assert frame.alphas == oracle.alphas
    assert np.array_equal(section_stack(frame), section_stack(oracle))
    assert np.array_equal(frame.gram.matrix, oracle.gram.matrix)
    assert frame.gram.asymmetry == oracle.gram.asymmetry


def test_vector_features_are_the_plane_waves_times_the_directions():
    """exp(i x_j t)/sqrt(2pi) xi_j, entry by entry, as it was formed before
    the plane waves came from ``pw_features``."""
    gen = rng(5)
    offsets = {m: gen.uniform(-0.2, 0.2, size=3) for m in range(-4, 5)}
    vss = build_vector_sampling_set(3, 4, perturb=lambda m: offsets[m])
    wg = w_grid_default(257)
    t = wg.points()
    want = np.stack([np.outer(np.exp(1j * x * t) / math.sqrt(TWO_PI), xi) for _, x, xi in vss.entries()])
    assert np.array_equal(vector_features(vss, wg), want)


def test_fourier_series_is_the_w_representation():
    """One sum serves the Fourier-mode signal on [0, 2pi] and the
    frequency-side representation w_f on [-pi, pi], where the trapezoid
    pairing with the point feature Phi(j) reads off the coefficient c_j: on a
    full period the rule is exact for these trigonometric polynomials."""
    gen = rng(9)
    sig = BandlimitedSignal.symmetric(complex_unit_disc(gen, 9), pw_window(4))
    wg = w_grid_default(129)
    w_f = fourier_series(sig, wg)
    for j, c in zip(sig.shifts, sig.coeffs[:, 0]):
        assert abs(inner_product(w_f, GridFunction(wg, pw_features([float(j)], wg)[0])) - c) <= 1e-14
    grid = Grid(0.0, TWO_PI, 65)
    want = sum(c * np.exp(1j * k * grid.points()) for k, c in zip(sig.shifts, sig.coeffs[:, 0])) / math.sqrt(TWO_PI)
    assert np.max(np.abs(fourier_series(sig, grid).values[:, 0] - want)) <= 1e-13
    vector = BandlimitedSignal.symmetric(complex_unit_disc(gen, (9, 2)), pw_window(4))
    with pytest.raises(ShapeMismatchError):
        fourier_series(vector, grid)


# ----------------------------------------------------------- admissibility

def test_kadec_bounds_formulas():
    a0, b0 = kadec_bounds(0.0)
    assert a0 == pytest.approx(TWO_PI)
    assert b0 == pytest.approx(TWO_PI)
    a, b = kadec_bounds(0.1)
    c, s = math.cos(0.1 * math.pi), math.sin(0.1 * math.pi)
    assert a == pytest.approx(TWO_PI * (c - s) ** 2, rel=1e-15)
    assert b == pytest.approx(TWO_PI * (2 - c + s) ** 2, rel=1e-15)
    assert a == pytest.approx(2.5900216461986734, abs=1e-12)
    # bound collapses at the quarter-shift threshold
    assert kadec_bounds(0.2499)[0] < 1e-5
    with pytest.raises(AdmissibilityError):
        kadec_bounds(0.25)


def test_generalized_kadec_check():
    ok = generalized_kadec_check(1.0, 1.0, 0.1)
    assert ok.passed
    assert ok.lhs == pytest.approx(0.35796047807979386, abs=1e-12)
    assert ok.margin == pytest.approx(1.0 - ok.lhs)
    # at a quarter shift the inequality closes exactly: zero margin, and any
    # bound gap makes it fail outright
    boundary = generalized_kadec_check(1.0, 1.0, 0.25)
    assert abs(boundary.margin) < 1e-12
    assert not generalized_kadec_check(0.9, 1.0, 0.25).passed
    assert generalized_kadec_check(1e-9, 1.0, 0.1).passed is False
    # no perturbation: lhs 0 and the margin is sqrt(A/B), 1.0 at kadec_bounds(0)
    unperturbed = generalized_kadec_check(*kadec_bounds(0.0), 0.0)
    assert (unperturbed.passed, unperturbed.lhs, unperturbed.margin) == (True, 0.0, 1.0)
    with pytest.raises(ValidationError):
        generalized_kadec_check(2.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        generalized_kadec_check(1.0, 1.0, 0.3)


# ------------------------------------------------------ vector sampling sets

def test_vector_set_scalar_case_is_integers():
    vss = build_vector_sampling_set(1, 4)
    assert np.allclose(vss.x, np.arange(-4, 5))
    assert np.allclose(vss.u_matrix, [[1.0]])


def test_vector_set_dft_directions():
    vss = build_vector_sampling_set(2, 2)
    root2 = math.sqrt(2.0)
    assert np.allclose(vss.xi(0), [1 / root2, 1 / root2])
    assert np.allclose(vss.xi(1), [1 / root2, -1 / root2])
    assert np.allclose(vss.xi(2), vss.xi(0))


def test_vector_set_rejects_nonunitary():
    with pytest.raises(ValidationError):
        VectorSamplingSet(2, 2, np.repeat(np.arange(-2.0, 3.0), 2), np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_vector_set_json_roundtrip():
    vss = build_vector_sampling_set(2, 3, perturb=lambda m: np.array([0.1, -0.1]))
    back = VectorSamplingSet.from_json(vss.to_json())
    assert np.allclose(back.x, vss.x)
    assert np.allclose(back.u_matrix, vss.u_matrix)


def test_vector_set_block_diagonal_gram_zero_perturbation():
    vss = build_vector_sampling_set(2, 6)
    wg = w_grid_default(1025)
    g = feature_gram(vector_features(vss, wg), wg)
    n = 2
    for j in range(g.shape[0]):
        for k in range(g.shape[1]):
            if j % n != k % n:
                assert abs(g[j, k]) < 1e-8


def test_vector_set_perturbed_gram_stays_riesz():
    # eigenvalue oracle for one frozen perturbation draw with |offset| <= 0.2
    gen = rng(3)
    offsets = {m: gen.uniform(-0.2, 0.2, size=2) for m in range(-16, 17)}
    vss = build_vector_sampling_set(2, 16, perturb=lambda m: offsets[m])
    wg = w_grid_default(1025)
    g = feature_gram(vector_features(vss, wg), wg)
    eig = np.linalg.eigvalsh(g)
    assert eig[0] >= 0.3 * eig[-1]


def test_unitary_dft_matrix_is_unitary():
    """The directions U are numpy's orthonormal FFT of the identity, within
    4 eps of the explicit exp(-2 pi i j k / n)/sqrt(n) (measured 3.2e-16 at
    n = 5, 5.6e-16 at n = 3)."""
    for n in (2, 3, 5):
        u = build_vector_sampling_set(n, 0).u_matrix
        k = np.arange(n)
        assert np.max(np.abs(u - np.exp(-2j * math.pi * np.outer(k, k) / n) / math.sqrt(n))) <= 4 * EPS
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-12


def test_perturbed_exponential_spot_check():
    """The plane waves exp(i t_j t)/sqrt(2pi) at t_j within delta of the
    integers, at both extreme shifts and six random draws, keep their Gram
    spectrum inside the admissibility bounds scaled to the feature
    normalization."""
    x = np.arange(-8, 9, dtype=float)
    wg = w_grid_default(1025)
    gen = np.random.default_rng(2)
    offsets = [np.full(x.shape, -0.1), np.full(x.shape, 0.1)]
    offsets += [gen.uniform(-0.1, 0.1, size=x.shape) for _ in range(6)]
    waves = point_feature_map(wg).evaluate
    eigs = [np.linalg.eigvalsh(feature_gram(waves(x + off, np.ones(1)), wg)) for off in offsets]
    a_bound, b_bound = kadec_bounds(0.1)
    assert min(e[0] for e in eigs) >= (a_bound / TWO_PI) * 0.9
    assert max(e[-1] for e in eigs) <= (b_bound / TWO_PI) * 1.1


# --------------------------------------------------------- frame-bound sandwich

def test_integer_average_features_respect_admissibility_envelope():
    """Empirical spectrum of the shifted-average feature Gram sits inside the
    admissibility envelope scaled to the feature normalization, with slack for
    truncation and the profile's frequency attenuation."""
    delta = 0.1
    a_bound, b_bound = kadec_bounds(delta)
    wg = w_grid_default(2049)
    feats = pw_features(range(-16, 17), wg, delta)
    eig = np.linalg.eigvalsh(feature_gram(feats, wg))
    attenuation = np.sinc(delta) ** 2  # worst-case |profile transform|^2 on the band
    lower = (a_bound / TWO_PI) * attenuation * 0.9
    upper = (b_bound / TWO_PI) * 1.1
    assert eig[0] >= lower
    assert eig[-1] <= upper
