import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opkern import toeplitz
from opkern.lattice import LatticeFrame
from opkern.core import Grid, GridFunction, inner_product, norm, pseudoinverse
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
from opkern.kernels import (
    FeatureMap, GramMatrix, TruncatedFrame, fourier_frame, fourier_point_feature_map, kernel_from_features, psd_check,
)
from opkern.learning import sampling_operator
from opkern.paley_wiener import (
    BandlimitedSignal,
    lattice_spacing,
    point_feature_map,
    pw_average_sections,
    pw_features,
    pw_window,
    synthesize,
    w_grid_default,
)
from draws import complex_unit_disc, rng
from section_oracle import KernelSection, average_features, average_sections, section_stack, truncated_frame
from section_oracle import average_stacked_frame, feature_section, stack_backed_frame, stacked_frame
from section_oracle import fourier_sections as _fourier_sections, fourier_stacked_frame
from section_oracle import sinc_sections as _sinc_sections

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
    """A frame whose feature holds nan or inf is refused when it is built,
    before its Gram or any section is formed; the stack-backed oracle
    refuses a non-finite section the same way."""
    grid = Grid(0.0, TWO_PI, 65)
    for bad in (np.nan, np.inf):

        def features(alphas, xis, bad=bad):
            w = np.ones((len(alphas), grid.n, 1), dtype=complex)
            w[-1, 7] = bad
            return w

        with pytest.raises(ShapeMismatchError, match="non-finite"):
            kernel_from_features(fourier_point_feature_map(grid, 4), FeatureMap(grid, 1, features), [0, 1], 1.0, grid)
    h = np.ones((2, 65), dtype=complex)
    h[1, 7] = np.nan
    with pytest.raises(ShapeMismatchError):
        stacked_frame([0, 1], h, grid, np.ones((2, 65), dtype=complex), grid)


def _frame(alphas, h, grid, gram_size):
    gram = GramMatrix(matrix=np.eye(gram_size, dtype=complex), indices=tuple(range(gram_size)))
    return stack_backed_frame(alphas, h, grid, gram)


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
    for j, orig in enumerate(section_stack(frame)):
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


EPS = np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-70, 70), st.integers(-(10**15), 10**15)), min_size=1, max_size=40),
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([0, 8, 16, 3], 9, 0)
@example([5, -3, 5, 0, 1], 2, 1)
@example([7, 7 + 63 * 10**12, -56, 3, 66, 3], 64, 2)
@example([*range(-128, 129), 10**15, 3 - 10**15, 4096 * 5 + 17], 4097, 3)
def test_fourier_frame_matches_the_stacked_oracle(indices, n, seed):
    """The stackless Fourier frame against the stacked rows of
    ``fourier_rows`` with the SVD dual, on unsorted, repeated, negative and
    aliasing index lists with |j| up to 1e15. Over 700 random cases (n
    2..64 and 4097, up to 400 indices, coefficients over six decades) the
    syntheses differed by at most 2.7 eps sum|c| (against a long-double
    reference the FFT erred by 0.84 eps sum|c|, the rows by 2.6), and over
    800 the duals by at most 40 eps; the bounds are 8 eps sum|c| and 128
    eps. Every class is kept: its size is at least 1, far above the
    pseudoinverse cutoff 1e-10 of the largest."""
    grid = Grid(0.0, TWO_PI, n)
    frame, oracle = fourier_frame(indices, grid), fourier_stacked_frame(indices, grid)
    assert not hasattr(frame, "h")
    assert frame.alphas == oracle.alphas
    assert np.array_equal(frame.gram.matrix, oracle.gram.matrix)
    gen = rng(seed)
    c = complex_unit_disc(gen, len(indices)) * np.exp(gen.uniform(-7.0, 7.0, len(indices)))
    gap = np.max(np.abs(frame.synthesize(c).values - oracle.synthesize(c).values))
    assert gap <= 8 * EPS * np.sum(np.abs(c))
    classes = len(set(j % (n - 1) for j in indices))
    dual, dual_oracle = dual_frame(frame), dual_frame(oracle)
    assert np.max(np.abs(dual.coeffs - dual_oracle.coeffs)) <= 128 * EPS
    for d in (dual, dual_oracle):
        assert abs(np.trace(d.coeffs @ frame.gram.matrix) - classes) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-80, 80), st.integers(-(10**15), 10**15)), min_size=1, max_size=60),
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([0, 8, 16, 3], 9, 0)
@example(list(range(-128, 129)), 9, 1)
@example([5, -3, 5, 0, 1, 1, 9, 13], 5, 2)
def test_fourier_class_sum_dual_matches_the_svd_dual(indices, n, seed):
    """The Fourier dual applied to a sample vector, c_j = S_{r_j}/b_{r_j}^2
    from the class sums S_r of v, and the reconstruction synthesized from
    it, against the SVD dual of the stacked oracle. The draws hold residue
    collisions (n - 1 classes at most) of unequal sizes, and samples over
    fourteen decades. Over 3,000 random cases the coefficients differed by
    at most 9.7 eps sum|v| and the reconstructions by 6.5 eps sum|v|; the
    bound is 32 eps sum|v|."""
    grid = Grid(0.0, TWO_PI, n)
    frame, oracle = fourier_frame(indices, grid), fourier_stacked_frame(indices, grid)
    dual, dual_oracle = dual_frame(frame), dual_frame(oracle)
    gen = rng(seed)
    v = complex_unit_disc(gen, len(indices)) * np.exp(gen.uniform(-7.0, 7.0, len(indices)))
    bound = 32 * EPS * np.sum(np.abs(v))
    assert np.max(np.abs(dual.apply(v) - dual_oracle.apply(v))) <= bound
    samples = SampleSet(FourierCoefficientFamily().descriptor(), frame.alphas, v)
    assert np.max(np.abs(reconstruct(dual, samples).values - reconstruct(dual_oracle, samples).values)) <= bound


def test_the_fourier_dual_forms_no_gram():
    """Building the Fourier dual and reconstructing with it reads only the
    residues and class sizes: the Gram is formed when ``gram`` is read."""
    frame = fourier_frame(range(-3, 4), Grid(0.0, TWO_PI, 33))
    dual = dual_frame(frame)
    reconstruct(dual, SampleSet(FourierCoefficientFamily().descriptor(), frame.alphas, np.ones(7)))
    assert "gram" not in vars(frame) and "coeffs" not in vars(dual)
    assert np.array_equal(dual.coeffs, frame.gram.matrix)
    with pytest.raises(DegenerateFrameError):
        dual_frame(fourier_frame([], Grid(0.0, TWO_PI, 33)))


_centres = st.one_of(
    st.lists(st.integers(-6, 6), min_size=1, max_size=10),
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=10),
)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["average", "point", "features"]),
    profile=st.sampled_from(["box", "triangle", "cosine"]),
    delta=st.floats(0.001, 0.25, exclude_max=True),
    centres=_centres,
    w_n=st.integers(17, 700),
    points_per_unit=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
@example("average", "box", 0.2, list(range(-6, 7)), 2049, 16, 0)
@example("features", "box", 0.2, [0.0, 0.5, 0.5], 17, 2, 1)
def test_stackless_frames_match_the_stacked_oracle(kind, profile, delta, centres, w_n, points_per_unit, seed):
    """The average, point and feature-built frames hold no section stack; the
    stacked oracle holds one. Each unit vector and one random combination
    synthesize within 1e-14 sum|c| max|K_j| of the product over the stack,
    so every section(j) does too, and the Grams are the same features'
    Gram bit for bit. Points and averages at lattice centres x_0 + j s take
    the Toeplitz row instead, within the bound of
    ``test_lattice_frame_matches_the_feature_and_svd_oracle``."""
    gen = rng(seed)
    xs = [float(x) for x in centres]
    t = math.ceil(max(abs(x) for x in xs)) + 4
    wg = w_grid_default(w_n)
    if kind == "features":
        hg, xi = Grid(-t, t, 4 * t + 1), complex_unit_disc(gen, 2)
        pfm = point_feature_map(wg, dim_y=2)
        frame = kernel_from_features(pfm, pfm, xs, xi, hg)
        oracle = truncated_frame([feature_section(pfm, pfm, x, xi, hg) for x in xs])
    else:
        window = Grid(-t, t, 2 * t * points_per_unit + 1)
        if kind == "average":
            frame = pw_average_sections(xs, delta, window, profile, wg)
            oracle = average_stacked_frame(xs, delta, window, wg, profile)
        else:
            frame = pw_average_sections(xs, None, window, w_grid=wg)
            oracle = truncated_frame(_sinc_sections(xs, window, wg))
    assert frame.alphas == oracle.alphas
    if isinstance(frame, LatticeFrame):
        bound = 16 * EPS * math.log2(w_n) * oracle.gram.matrix[0, 0].real
        assert np.max(np.abs(frame.gram.matrix - oracle.gram.matrix)) <= bound
        assert frame.gram.asymmetry <= len(xs) * bound
    else:
        assert np.array_equal(frame.gram.matrix, oracle.gram.matrix)
        assert frame.gram.asymmetry == oracle.gram.asymmetry
    top = np.max(np.abs(section_stack(oracle)))
    c = complex_unit_disc(gen, len(xs)) * np.exp(gen.uniform(-3.0, 3.0, len(xs)))
    for coeffs in [*np.eye(len(xs)), c]:
        gap = np.max(np.abs(frame.synthesize(coeffs).values - oracle.synthesize(coeffs).values))
        assert gap <= 1e-14 * np.sum(np.abs(coeffs)) * top


@settings(max_examples=60, deadline=None)
@given(
    profile=st.sampled_from(["box", "triangle", "cosine", "point"]),
    delta=st.floats(0.001, 0.25, exclude_max=True),
    spacing=st.sampled_from([-1, 1]).flatmap(lambda sign: st.integers(64, 192).map(lambda k: sign * k / 64)),
    count=st.integers(2, 40),
    first=st.integers(-384, 384).map(lambda k: k / 64),
    w_n=st.integers(17, 700),
    seed=st.integers(0, 2**32 - 1),
)
@example("box", 0.2, 1.0, 17, -8.0, 257, 0)
@example("cosine", 0.001, -2.5, 2, 3.0, 17, 1)
@example("point", 0.2, 1.0, 17, -8.0, 257, 2)
def test_lattice_frame_matches_the_feature_and_svd_oracle(profile, delta, spacing, count, first, w_n, seed):
    """Averages at centres x_0 + j s form no feature: the Gram is its
    Toeplitz row, the synthesis two chirp-z sums, the dual conjugate
    gradients. Points ("point" draws no delta) take the same row and dual,
    and the exact sinc sum, against the sinc oracle's plane waves and sinc
    sections. Against the features and SVD of the stacked oracle, over 1,345
    random draws of this strategy, the Gram differed by at most 4.0 eps
    log2(w_n) G[0, 0], a synthesis by 1.3 eps (1 + max|x_j|) sum|c| max|K_j|
    (the oracle's phases exp(i x t) err by eps |x t|), and the dual by 11.2
    eps kappa sum|v|, kappa the Gram's condition number (points, over 400
    draws: 3.6, 0.30 and 7.3 times those scales); the bounds are 16, 8 and
    64 times those scales. A spacing of at least 1 keeps the Gram
    definite (Ingham); the spread stays below w_n - 1, where the trapezoid
    rule aliases. The centres and spacings are multiples of 1/64, so that
    every x_0 + j s is exact."""
    xs = [first + spacing * j for j in range(count)]  # multiples of 1/64: exact
    assume(abs(xs[-1] - xs[0]) < w_n - 1)
    assert lattice_spacing(xs) == spacing
    t = math.ceil(max(abs(x) for x in xs)) + 4
    window, wg = Grid(-t, t, 4 * t + 1), w_grid_default(w_n)
    if profile == "point":
        frame = pw_average_sections(xs, None, window, w_grid=wg)
        oracle = truncated_frame(_sinc_sections(xs, window, wg))
    else:
        frame = pw_average_sections(xs, delta, window, profile, wg)
        oracle = average_stacked_frame(xs, delta, window, wg, profile)
    assert isinstance(frame, LatticeFrame) and "gram" not in vars(frame)
    g = oracle.gram.matrix
    assert np.max(np.abs(frame.gram.matrix - g)) <= 16 * EPS * math.log2(w_n) * g[0, 0].real
    gen = rng(seed)
    top = np.max(np.abs(section_stack(oracle)))
    c = complex_unit_disc(gen, count) * np.exp(gen.uniform(-3.0, 3.0, count))
    for coeffs in [*np.eye(count), c]:
        gap = np.max(np.abs(frame.synthesize(coeffs).values - oracle.synthesize(coeffs).values))
        assert gap <= 8 * EPS * (1 + max(abs(x) for x in xs)) * np.sum(np.abs(coeffs)) * top
    eigs = np.linalg.eigvalsh(g)
    v = complex_unit_disc(gen, (2, count)) * np.exp(gen.uniform(-3.0, 3.0, (2, count)))
    gap = np.max(np.abs(dual_frame(frame).apply(v) - dual_frame(oracle).apply(v)))
    assert gap <= 64 * EPS * eigs[-1] / eigs[0] * np.max(np.sum(np.abs(v), axis=1))


def test_the_lattice_dual_forms_no_gram_unless_it_takes_the_svd():
    """Conjugate gradients read the Toeplitz row alone: building the dual and
    reconstructing form no Gram. 128 unit rows of 301 centres, a block of
    2**17 entries at the FFT length 1024, are solved together; against G they
    give the identity within 2.0e-15 (the bound is 1e-14). The 301 rows of
    ``coeffs``, too many for one block, are Trench's G^-1 from one solved
    column, formed with no Gram: against G they give the identity within
    2.0e-15 (the SVD rule of ``TruncatedFrame`` within 2.9e-15). Centres
    a quarter apart oversample the band four times, so the Gram's smallest
    eigenvalue is round-off (-1.9e-15 of 4.0): the residual stalls, and after
    M + 32 steps the rule takes the SVD for that row and every later one."""
    window = Grid(-14.0, 14.0, 57)
    frame = pw_average_sections(range(-4, 5), 0.2, window, w_grid=w_grid_default(129))
    family = AverageSamplingFamily(0.2)
    reconstruct(dual_frame(frame), SampleSet(family.descriptor(), frame.alphas, np.ones(9)))
    assert isinstance(frame, LatticeFrame) and "gram" not in vars(frame)
    wide = pw_average_sections(range(-150, 151), 0.2, Grid(-160.0, 160.0, 641), w_grid=w_grid_default(513))
    dual = dual_frame(wide)
    rows, coeffs = dual.apply(np.eye(301)[:128]), dual.coeffs
    assert "gram" not in vars(wide)
    assert np.max(np.abs(rows @ wide.gram.matrix - np.eye(301)[:128])) <= 1e-14
    assert np.max(np.abs(coeffs @ wide.gram.matrix - np.eye(301))) <= 1e-14
    crowded = pw_average_sections([0.25 * j for j in range(40)], 0.2, window, w_grid=w_grid_default(129))
    rule, v = dual_frame(crowded).apply, np.ones((2, 40), dtype=complex)
    assert np.array_equal(rule(v[0]), TruncatedFrame.dual_rule(crowded)(v[0]))
    assert np.array_equal(rule(v), TruncatedFrame.dual_rule(crowded)(v))


def _lattice(profile, delta, count, w_n):
    """The average frame at centres 0..count - 1 on the w_n grid, and 2 pi |Psi(0)|^2 there."""
    wg = w_grid_default(w_n)
    symbol = TWO_PI * np.abs(pw_features([0.0], wg, delta, profile)[0]) ** 2
    return pw_average_sections(range(count), delta, wg, profile, wg), symbol


_PROFILES = st.sampled_from(["box", "triangle", "cosine"])


@settings(max_examples=40, deadline=None)
@given(
    profile=_PROFILES,
    delta=st.floats(0.01, 0.5),
    count=st.integers(2, 300),
    extra=st.integers(1, 1200),
)
@example("box", 0.2, 256, 1793)
@example("box", 0.5, 300, 1)
def test_lattice_extremes_bracket_the_dense_spectrum(profile, delta, count, extra):
    """Lanczos on the row brackets the Gram's extreme eigenvalues: each dense
    eigvalsh extreme (the oracle) lies in its bracket, within _LANCZOS_TOL of
    the largest from the reported value, and the whole dense spectrum in the
    Grenander-Szegő enclosure [2 pi min |Psi(0)|^2, 2 pi max |Psi(0)|^2], exact
    at integer spacing on a grid of w_n > M points. frame_bounds_estimate and
    psd_check read the reported values; delta reaches the CG limit 1/2."""
    frame, symbol = _lattice(profile, delta, count, count + extra)
    w = np.linalg.eigvalsh(frame.gram.matrix)
    (lo_a, a, hi_a), (lo_b, b, hi_b) = frame.extremes()
    assert lo_a <= w[0] <= hi_a and lo_b <= w[-1] <= hi_b
    assert max(abs(a - w[0]), abs(b - w[-1])) <= toeplitz._LANCZOS_TOL * w[-1]
    assert max(hi_a - lo_a, hi_b - lo_b) <= toeplitz._LANCZOS_TOL * w[-1]
    slack = 4 * count * EPS * w[-1]
    assert symbol.min() - slack <= w[0] and w[-1] <= symbol.max() + slack
    assert frame.ceiling == symbol.max()
    assert frame_bounds_estimate(frame) == (a, b)
    report = psd_check(frame)
    assert (report.min_eig, report.max_eig, report.passed) == (a, b, True)


def test_lattice_extremes_reach_a_skew_symmetric_eigenvector():
    """A symmetric profile's Gram is real symmetric Toeplitz: its eigenvectors
    are symmetric or skew-symmetric, and a Krylov space from a symmetric
    start holds only the symmetric ones. At 256 box averages the smallest
    eigenvector is skew-symmetric, and the symmetric half stops 9.4e-4 above
    the smallest eigenvalue; the ``uniform`` start reaches it."""
    frame, _ = _lattice("box", 0.2, 256, 2049)
    g = frame.gram.matrix
    w, v = np.linalg.eigh(g)
    assert np.max(np.abs(v[:, 0] + v[::-1, 0])) <= 1e-12
    half = np.hstack((np.eye(128), np.eye(128)[:, ::-1])) / math.sqrt(2.0)
    assert np.linalg.eigvalsh(half @ g.real @ half.T)[0] > w[0] + 1e-4
    (lo, a, hi), _ = frame.extremes()
    assert lo <= w[0] <= hi and abs(a - w[0]) <= toeplitz._LANCZOS_TOL * w[-1]


def test_lattice_spectrum_takes_eigvalsh_where_lanczos_cannot_decide(monkeypatch):
    """The dense fallback: where the smallest eigenvalue's bracket does not
    clear the cutoff (a Gram of rank one, row all ones, whose nonzero
    eigenvalue is M), and where _LANCZOS_STEPS steps leave a bracket open."""
    calls = []
    dense = np.linalg.eigvalsh

    def recording(m):
        calls.append(np.shape(m))
        return dense(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    ones = LatticeFrame(tuple(range(5)), Grid(0.0, 1.0, 3), np.ones(9, dtype=complex), lambda c: c)
    a, b = frame_bounds_estimate(ones)
    assert calls == [(5, 5)] and abs(a - 5.0) <= 1e-14 and abs(b - 5.0) <= 1e-14
    frame, _ = _lattice("box", 0.2, 40, 129)
    want = frame_bounds_estimate(frame)
    assert len(calls) == 1
    monkeypatch.setattr(toeplitz, "_LANCZOS_STEPS", 4)
    assert frame.extremes() is None
    got = frame_bounds_estimate(frame)
    assert calls[1:] == [(40, 40)]
    assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-6 * want[1]


@settings(max_examples=40, deadline=None)
@given(profile=_PROFILES, delta=st.floats(0.01, 0.5), count=st.integers(2, 300), extra=st.integers(1, 600))
@example("cosine", 0.2, 17, 240)
@example("triangle", 0.5, 255, 1)
def test_lattice_dual_coeffs_are_trench_s_inverse(profile, delta, count, extra):
    """``coeffs`` of a lattice dual is G^-1 by Trench's recurrence from one
    solved column, with no Gram formed. Against the SVD pseudoinverse it
    was within 15 eps kappa max|pinv(G)| over M = 2 to 300 (three profiles,
    delta 0.05 to 0.5); the bound is 64."""
    frame, _ = _lattice(profile, delta, count, count + extra)
    coeffs = dual_frame(frame).coeffs
    assert "gram" not in vars(frame)
    g = frame.gram.matrix
    w, pinv = np.linalg.eigvalsh(g), pseudoinverse(g)
    assert np.max(np.abs(coeffs - pinv)) <= 64 * EPS * w[-1] / w[0] * np.max(np.abs(pinv))
