import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opkern.core import Grid, GridFunction, complex_unit_disc, inner_product, norm, rng
from opkern.exceptions import AlignmentError, DegenerateFrameError, ShapeMismatchError
from opkern.families import (
    AverageSamplingFamily,
    FourierCoefficientFamily,
    PointEvaluationFamily,
    SampleSet,
)
from opkern.frames import (
    dual_frame,
    frame_bounds_estimate,
    interior_relative_error,
    reconstruct,
)
from opkern.kernels import GramMatrix, TruncatedFrame, stacked_frame
from opkern.learning import sampling_operator
from opkern.paley_wiener import (
    BandlimitedSignal,
    pw_average_sections,
    pw_window,
    synthesize,
    w_grid_default,
)
from section_oracle import KernelSection, average_features, average_sections, truncated_frame
from section_oracle import fourier_sections as _fourier_sections, sinc_sections as _sinc_sections

TWO_PI = 2.0 * math.pi


def _dual_features(dual, feats):
    """Dual feature vectors sum_k pinv(G)[j, k] Psi_k, stacked by the test."""
    stack = np.tensordot(dual.coeffs, np.stack([w.values for w in feats]), axes=1)
    return [GridFunction(feats[0].grid, w) for w in stack]


# ----------------------------------------------------------------- dual frame

def test_dual_of_orthonormal_family_is_itself():
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections(range(-2, 3), grid)
    dual = dual_frame(truncated_frame(secs))
    for j, s in enumerate(secs):
        d = dual.source.synthesize(dual.coeffs[j])
        assert np.max(np.abs(d.values - s.h_repr.values)) < 1e-10


def test_duals_scale_inversely():
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections(range(-1, 2), grid)
    scaled = [
        KernelSection(alpha=s.alpha, xi=s.xi, h_repr=2.0 * s.h_repr, w_repr=2.0 * s.w_repr)
        for s in secs
    ]
    dual = dual_frame(truncated_frame(secs))
    dual_scaled = dual_frame(truncated_frame(scaled))
    for j in range(len(secs)):
        d = dual.source.synthesize(dual.coeffs[j])
        d2 = dual_scaled.source.synthesize(dual_scaled.coeffs[j])
        assert np.max(np.abs(d2.values - 0.5 * d.values)) < 1e-10


def test_dual_biorthogonality_riesz_average_family():
    window = pw_window(8, points_per_unit=32)
    wg = w_grid_default(2049)
    frame = pw_average_sections(range(-8, 9), 0.1, window, w_grid=wg)
    feats = average_features(range(-8, 9), 0.1, wg)
    a_est, b_est = frame_bounds_estimate(frame)
    assert a_est >= 1e-3 * b_est  # Riesz regime precondition
    dual = dual_frame(frame)
    for j, dw in enumerate(_dual_features(dual, feats)):
        for k, w in enumerate(feats):
            val = inner_product(dw, w)
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-7


def test_dual_frame_degenerate_raises():
    grid = Grid(0.0, TWO_PI, 65)
    zero = KernelSection(
        alpha=0, xi=np.array([1.0 + 0j]), h_repr=GridFunction(grid, np.zeros((65, 1)))
    )
    with pytest.raises(DegenerateFrameError):
        dual_frame(truncated_frame([zero]))


def test_frame_refuses_non_finite_sections():
    grid = Grid(0.0, TWO_PI, 65)
    h = np.ones((2, 65), dtype=complex)
    h[1, 7] = np.nan
    with pytest.raises(ShapeMismatchError):
        stacked_frame([0, 1], h, grid, np.ones((2, 65), dtype=complex), grid)


def _frame(alphas, h, grid, gram_size):
    gram = GramMatrix(matrix=np.eye(gram_size, dtype=complex), indices=tuple(range(gram_size)))
    return TruncatedFrame(alphas=tuple(alphas), h=h, h_grid=grid, gram=gram)


@pytest.mark.parametrize("shape", [(11,), (2, 11, 1, 1)])
def test_frame_refuses_a_stack_of_the_wrong_rank(shape):
    with pytest.raises(ShapeMismatchError):
        _frame([0, 1], np.ones(shape, dtype=complex), Grid(0.0, 1.0, 11), 2)


def test_frame_refuses_sections_off_its_grid():
    """21 points per section on an 11-point grid: refused when the frame is
    built, not later in ``synthesize``."""
    with pytest.raises(ShapeMismatchError):
        _frame([0, 1], np.ones((2, 21), dtype=complex), Grid(0.0, 1.0, 11), 2)


def test_frame_refuses_an_index_count_off_its_sections():
    with pytest.raises(ShapeMismatchError):
        _frame([0, 1, 2], np.ones((2, 11), dtype=complex), Grid(0.0, 1.0, 11), 2)


@pytest.mark.parametrize("gram_size", [1, 3, 5])
def test_frame_refuses_a_gram_off_its_sections(gram_size):
    """A 5 x 5 Gram for 2 sections would give ``dual_frame`` 5 x 5 coefficients."""
    with pytest.raises(ShapeMismatchError):
        _frame([0, 1], np.ones((2, 11), dtype=complex), Grid(0.0, 1.0, 11), gram_size)


# -------------------------------------------------------------- reconstruction

def test_fourier_reconstruction_exact():
    grid = Grid(0.0, TWO_PI, 257)
    indices = list(range(-2, 3))
    secs = _fourier_sections(indices, grid)
    dual = dual_frame(truncated_frame(secs))
    gen = rng(8)
    coeff = complex_unit_disc(gen, len(secs))
    f = GridFunction(grid, sum(c * s.h_repr.values for c, s in zip(coeff, secs)))
    samples = sampling_operator(FourierCoefficientFamily(), indices, f)
    f_hat = reconstruct(dual, samples)
    assert norm(f_hat - f) <= 1e-10 * norm(f)


def test_reconstruct_zero_samples():
    grid = Grid(0.0, TWO_PI, 129)
    indices = [0, 1]
    secs = _fourier_sections(indices, grid)
    dual = dual_frame(truncated_frame(secs))
    samples = SampleSet(FourierCoefficientFamily().descriptor(), tuple(indices), (0j, 0j))
    assert np.max(np.abs(reconstruct(dual, samples).values)) == 0.0


def test_reconstruct_alignment_error():
    grid = Grid(0.0, TWO_PI, 129)
    secs = _fourier_sections([0, 1], grid)
    dual = dual_frame(truncated_frame(secs))
    bad = SampleSet(FourierCoefficientFamily().descriptor(), (0, 2), (0j, 0j))
    with pytest.raises(AlignmentError):
        reconstruct(dual, bad)


def test_average_sampling_reconstruction_small():
    window = pw_window(8, points_per_unit=32)
    centers = list(range(-8, 9))
    dual = dual_frame(pw_average_sections(centers, 0.2, window, w_grid=w_grid_default(2049)))
    gen = rng(7)
    sig = BandlimitedSignal.symmetric(complex_unit_disc(gen, 9), window)
    f = synthesize(sig)
    fam = AverageSamplingFamily(delta=0.2)
    samples = sampling_operator(fam, [float(c) for c in centers], f)
    f_hat = reconstruct(dual, samples)
    err = interior_relative_error(f_hat, f, window=(-4.0, 4.0))
    assert err.rel_l2 < 1e-2


# ----------------------------------------------------------------- estimates

def test_frame_bounds_orthonormal():
    grid = Grid(0.0, TWO_PI, 257)
    frame = truncated_frame(_fourier_sections(range(-2, 3), grid))
    a, b = frame_bounds_estimate(frame)
    assert a == pytest.approx(1.0, abs=1e-10)
    assert b == pytest.approx(1.0, abs=1e-10)


def test_frame_bounds_with_duplicate_section():
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections([0], grid)
    frame = truncated_frame([secs[0], secs[0]])
    a, b = frame_bounds_estimate(frame)
    # duplicate contributes eigenvalue 2; the zero eigenvalue is excluded
    assert b == pytest.approx(2.0, abs=1e-10)
    assert a == pytest.approx(2.0, abs=1e-10)


def test_sinc_family_bounds_tighten_with_window():
    def spread(t_half, n):
        window = Grid(-t_half, t_half, n)
        frame = truncated_frame(_sinc_sections(range(-4, 5), window))
        a, b = frame_bounds_estimate(frame)
        return max(abs(a - 1.0), abs(b - 1.0))

    s24 = spread(24.0, 1537)
    s96 = spread(96.0, 6145)
    assert s96 < s24
    assert s96 < 0.05


# ----------------------------------------------------------- dual inner product

def _dual_inner_product(dual, a, b):
    """<T f, g> in coefficient space for f, g expanded in the dual sections:
    a pinv(G) G b^H, the identity on the span of a Riesz family."""
    return complex(a @ dual.coeffs @ dual.source.gram.matrix @ np.conj(b))


def test_dual_inner_product_orthonormal():
    grid = Grid(0.0, TWO_PI, 257)
    dual = dual_frame(truncated_frame(_fourier_sections(range(-2, 3), grid)))
    e1 = np.eye(5)[1].astype(complex)
    e2 = np.eye(5)[2].astype(complex)
    assert _dual_inner_product(dual, e1, e1) == pytest.approx(1.0, abs=1e-10)
    assert abs(_dual_inner_product(dual, e1, e2)) < 1e-10


def test_dual_family_orthonormal_under_dual_product():
    window = pw_window(6, points_per_unit=32)
    dual = dual_frame(pw_average_sections(range(-6, 7), 0.1, window, w_grid=w_grid_default(2049)))
    m = len(dual)
    eye = np.eye(m, dtype=complex)
    for j in range(0, m, 3):
        for k in range(0, m, 3):
            val = _dual_inner_product(dual, eye[j], eye[k])
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-7


# ------------------------------------------------------------- invariants

def test_reconstruction_on_span():
    window = pw_window(6, points_per_unit=32)
    centers = list(range(-6, 7))
    wg = w_grid_default(2049)
    frame = pw_average_sections(centers, 0.2, window, w_grid=wg)
    feats = average_features(centers, 0.2, wg)
    dual = dual_frame(frame)
    gen = rng(13)
    coeff = complex_unit_disc(gen, len(feats))
    f = frame.synthesize(coeff)
    # exact samples of a span element, through the frequency-side pairing
    values = []
    for k in range(len(feats)):
        values.append(complex(sum(c * inner_product(w, feats[k]) for c, w in zip(coeff, feats))))
    samples = SampleSet(
        AverageSamplingFamily(delta=0.2).descriptor(),
        tuple(float(c) for c in centers),
        tuple(values),
    )
    f_hat = reconstruct(dual, samples)
    assert norm(f_hat - f) <= 1e-7 * norm(f)


def test_norm_equivalence_on_span():
    window = Grid(-24.0, 24.0, 1537)
    secs = _sinc_sections(range(-6, 7), window)
    frame = truncated_frame(secs)
    a_est, b_est = frame_bounds_estimate(frame)
    gen = rng(21)
    for _ in range(10):
        coeff = complex_unit_disc(gen, len(secs))
        f = GridFunction(window, sum(c * s.h_repr.values for c, s in zip(coeff, secs)))
        # <T f, f> = sum_j |<f, K_j>|^2 for the frame operator T
        quad = sum(abs(inner_product(f, s.h_repr)) ** 2 for s in secs)
        nf = norm(f) ** 2
        assert a_est * nf - 1e-8 <= quad <= b_est * nf + 1e-8


def test_dual_of_dual_recovers_sections():
    window = pw_window(4, points_per_unit=32)
    wg = w_grid_default(2049)
    frame = pw_average_sections(range(-4, 5), 0.1, window, w_grid=wg)
    feats = average_features(range(-4, 5), 0.1, wg)
    dual = dual_frame(frame)
    dual_secs = [
        KernelSection(alpha=a, xi=np.array([1.0 + 0j]), h_repr=frame.synthesize(dual.coeffs[j]), w_repr=w)
        for j, (a, w) in enumerate(zip(frame.alphas, _dual_features(dual, feats)))
    ]
    dual2 = dual_frame(truncated_frame(dual_secs))
    for j, orig in enumerate(frame.h):
        back = dual2.source.synthesize(dual2.coeffs[j])
        assert np.max(np.abs(back.values - orig)) < 1e-6


def test_feature_side_spectrum_matches_section_spectrum():
    # when the sample space is the feature space itself the two Gram routes
    # coincide to machine precision
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections(range(-4, 5), grid)
    frame_w = truncated_frame(secs)
    frame_h = truncated_frame([KernelSection(s.alpha, s.xi, s.h_repr) for s in secs])
    aw, bw = frame_bounds_estimate(frame_w)
    ah, bh = frame_bounds_estimate(frame_h)
    assert aw == pytest.approx(ah, abs=1e-10)
    assert bw == pytest.approx(bh, abs=1e-10)


def test_truncated_frame_refuses_sections_on_different_intervals():
    # equal point counts and a shared feature grid, but different windows
    wg = w_grid_default(129)
    left = average_sections([0.0], 0.2, Grid(-10.0, 10.0, 321), wg)
    right = average_sections([1.0], 0.2, Grid(-12.0, 12.0, 321), wg)
    with pytest.raises(ShapeMismatchError):
        truncated_frame(left + right)


# ------------------------------------------- stacked products vs section loops

def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["fourier", "sinc"]),
    st.integers(min_value=4, max_value=24),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_products_match_per_section_loops(m, kind, density, seed):
    """reconstruct and dual synthesis agree with the per-section sums over
    KernelSection objects that they replace."""
    gen = rng(seed)
    indices = list(range(-(m // 2), m - m // 2))
    if kind == "fourier":
        grid = Grid(0.0, TWO_PI, 8 * density + 1)
        secs = _fourier_sections(indices, grid)
        descriptor = FourierCoefficientFamily().descriptor()
    else:
        t_half = m + 8.0
        grid = Grid(-t_half, t_half, int(2 * t_half) * density + 1)
        secs = _sinc_sections(indices, grid)
        descriptor = PointEvaluationFamily().descriptor()
    frame = truncated_frame(secs)
    dual = dual_frame(frame)

    duals = []
    for j in range(m):
        want = np.zeros_like(secs[0].h_repr.values)
        for k, s in enumerate(secs):
            want += dual.coeffs[j, k] * s.h_repr.values
        _assert_close(frame.synthesize(dual.coeffs[j]).values, want)
        duals.append(want)

    values = complex_unit_disc(gen, m)
    samples = SampleSet(descriptor, tuple(s.alpha for s in secs), tuple(values))
    want = np.zeros_like(secs[0].h_repr.values)
    for v, d in zip(values, duals):
        want += v * d
    _assert_close(reconstruct(dual, samples).values, want)
