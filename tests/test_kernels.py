import math
import tracemalloc

import numpy as np
import pytest

from opkern.core import Grid, GridFunction, complex_unit_disc, inner_product, rng
from opkern.exceptions import (
    IndependenceError,
    KernelConsistencyError,
    ShapeMismatchError,
)
from opkern.families import (
    AverageFunctional,
    AverageSamplingFamily,
    FourierCoefficientFamily,
    PointEvaluationFamily,
)
from opkern.kernels import (
    FeatureMap,
    KernelSection,
    check_feature_linearity,
    feature_gram,
    finite_dim_kernel,
    fourier_feature_map,
    fourier_point_feature_map,
    gram,
    integral_kernel_psd_test,
    kernel_from_features,
    psd_check,
    translation_invariant_kernel,
    translation_invariant_section,
)
from opkern.paley_wiener import point_feature_map, w_grid_default
from section_oracle import fourier_sections as _fourier_sections

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------- kernel_from_features

def test_fourier_kernel_from_features():
    wg = Grid(0.0, TWO_PI, 257)
    phi = fourier_point_feature_map(wg, max_mode=8)
    psi = fourier_feature_map(wg)
    hg = Grid(0.0, TWO_PI, 129)
    sec = kernel_from_features(phi, psi, 3, 1.0, hg)
    expect = np.exp(3j * hg.points()) / math.sqrt(TWO_PI)
    assert np.max(np.abs(sec.h_repr.values[:, 0] - expect)) < 1e-8


def test_zero_psi_gives_zero_section():
    wg = Grid(0.0, TWO_PI, 65)

    def zero_eval(alpha, xi):
        return GridFunction(wg, np.zeros((wg.n, 1)))

    psi = FeatureMap(w_grid=wg, dim_y=1, evaluate=zero_eval)
    phi = fourier_point_feature_map(wg, max_mode=4)
    sec = kernel_from_features(phi, psi, 0, 1.0, Grid(0.0, TWO_PI, 33))
    assert np.max(np.abs(sec.h_repr.values)) == 0.0


def test_sinc_kernel_from_point_features():
    wg = w_grid_default(4097)
    phi = point_feature_map(wg)
    hg = Grid(-4.0, 4.0, 257)
    sec = kernel_from_features(phi, phi, 0.0, 1.0, hg)
    assert np.max(np.abs(sec.h_repr.values[:, 0] - np.sinc(hg.points()))) < 1e-6


def test_feature_map_linearity_checker():
    wg = w_grid_default(129)
    phi = point_feature_map(wg, dim_y=2)
    assert check_feature_linearity(phi, [0.0, 0.5, -1.2], seed=4) < 1e-12

    def broken(alpha, xi):
        return GridFunction(wg, np.outer(np.exp(1j * alpha * wg.points()), xi**2))

    with pytest.raises(KernelConsistencyError):
        check_feature_linearity(FeatureMap(wg, 2, broken), [1.0], seed=4)


# ----------------------------------------------------------------------- gram

def test_fourier_gram_identity():
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections(range(-2, 3), grid)
    g = gram(secs, FourierCoefficientFamily())
    assert np.max(np.abs(g.matrix - np.eye(5))) < 1e-8
    g2 = gram(secs)
    assert np.max(np.abs(g2.matrix - np.eye(5))) < 1e-10


def test_gram_single_section_real_nonnegative():
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections([1], grid)
    g = gram(secs, FourierCoefficientFamily())
    assert g.matrix.shape == (1, 1)
    assert abs(g.matrix[0, 0].imag) < 1e-12
    assert g.matrix[0, 0].real >= 0.0


def test_sinc_point_gram_closed_form():
    window = Grid(-24.0, 24.0, 3073)
    x_axis = window.points()
    secs = []
    for x in (0.0, 0.5, 1.0):
        h = GridFunction(window, np.sinc(x_axis - x).astype(complex))
        secs.append(KernelSection(alpha=x, xi=np.array([1.0 + 0j]), h_repr=h))
    g = gram(secs, PointEvaluationFamily())
    expect = np.array(
        [
            [1.0, 2 / math.pi, 0.0],
            [2 / math.pi, 1.0, 2 / math.pi],
            [0.0, 2 / math.pi, 1.0],
        ]
    )
    assert np.max(np.abs(g.matrix - expect)) < 1e-6
    report = psd_check(g)
    assert report.passed
    # eigenvalues of the tridiagonal closed form: 1, 1 +- a*sqrt(2)
    a = 2 / math.pi
    assert report.min_eig == pytest.approx(1 - a * math.sqrt(2), abs=1e-6)


def test_gram_inconsistent_sections_raise():
    window = Grid(-24.0, 24.0, 1537)
    x_axis = window.points()
    good = KernelSection(
        alpha=0.0,
        xi=np.array([1.0 + 0j]),
        h_repr=GridFunction(window, np.sinc(x_axis).astype(complex)),
    )
    # a section polluted by a foreign component breaks Hermitian symmetry
    polluted = KernelSection(
        alpha=1.0,
        xi=np.array([1.0 + 0j]),
        h_repr=GridFunction(window, (np.sinc(x_axis - 1.0) + 0.3 * np.sinc(x_axis)).astype(complex)),
    )
    with pytest.raises(KernelConsistencyError):
        gram([good, polluted], PointEvaluationFamily())


def test_psd_check_examples():
    idx = ((0, np.array([1.0])), (1, np.array([1.0])))
    from opkern.kernels import GramMatrix

    ok = psd_check(GramMatrix(matrix=np.eye(2, dtype=complex), indices=idx))
    assert ok.passed and ok.min_eig == pytest.approx(1.0)
    bad = psd_check(GramMatrix(matrix=np.diag([1.0, -1.0]).astype(complex), indices=idx))
    assert not bad.passed


def test_gram_functional_vs_feature_routes_agree():
    grid = Grid(0.0, TWO_PI, 257)
    secs = _fourier_sections(range(-3, 4), grid)
    a = gram(secs, FourierCoefficientFamily()).matrix
    b = gram(secs).matrix
    assert np.max(np.abs(a - b)) < 1e-8


# ----------------------------------------------------------- finite_dim_kernel

def test_finite_dim_orthonormal_basis():
    grid = Grid(0.0, TWO_PI, 257)
    fam = FourierCoefficientFamily()
    basis = [fam.basis_function(j, grid) for j in range(-1, 2)]
    sec = finite_dim_kernel(basis, fam, alpha=1, xi=1.0)
    # B = I: section reduces to sum_k <xi, L_alpha(phi_k)> phi_k = phi_{alpha}
    assert np.max(np.abs(sec.h_repr.values - basis[2].values)) < 1e-8


def test_finite_dim_single_function():
    grid = Grid(0.0, TWO_PI, 257)
    fam = FourierCoefficientFamily()
    phi = GridFunction(grid, 2.0 * np.exp(1j * grid.points()) / math.sqrt(TWO_PI))
    c = inner_product(phi, phi).real
    sec = finite_dim_kernel([phi], fam, alpha=1, xi=1.0)
    lval = fam.apply(1, phi)[0]
    expect = (np.conj(lval) / c) * phi.values
    assert np.max(np.abs(sec.h_repr.values - expect)) < 1e-10


def _hat(center, width=1.0):
    def fn(x):
        return np.maximum(1.0 - np.abs(x - center) / width, 0.0).astype(complex)

    return fn


def test_finite_dim_reproducing_on_span():
    grid = Grid(-3.0, 3.0, 6145)
    basis = [
        GridFunction.from_callable(grid, _hat(0.0)),
        GridFunction.from_callable(grid, _hat(0.5)),
    ]
    fam = AverageSamplingFamily(delta=0.3, interp="linear")
    gen = rng(0)
    for beta in (-0.4, 0.1, 0.8):
        sec = finite_dim_kernel(basis, fam, alpha=beta, xi=1.0)
        coeff = complex_unit_disc(gen, 2)
        f = GridFunction(grid, coeff[0] * basis[0].values + coeff[1] * basis[1].values)
        lhs = fam.apply(beta, f)[0]
        rhs = inner_product(f, sec.h_repr)
        assert abs(lhs - rhs) < 1e-8


def test_finite_dim_dependent_basis_rejected():
    grid = Grid(-3.0, 3.0, 257)
    phi = GridFunction.from_callable(grid, _hat(0.0))
    with pytest.raises(IndependenceError):
        finite_dim_kernel([phi, 2.0 * phi], AverageSamplingFamily(delta=0.3), 0.0, 1.0)


# ------------------------------------------------- translation invariant form

def test_translation_invariant_delta_bump_recovers_kernel():
    # a narrow unit-mass bump concentrates the section at the bump location
    freq = Grid(-math.pi, math.pi, 2049)
    varphi = GridFunction.from_callable(
        freq, lambda t: (np.abs(t) <= 2.0).astype(complex) * 0.25 * (1 + np.cos(t))
    )
    x0 = 0.7
    bump = AverageFunctional(x0, 0.005)
    ug = bump.quad_grid(257)
    u = GridFunction(ug, bump.evaluate(ug.points()).astype(complex))
    out = Grid(-4.0, 4.0, 257)
    sec = translation_invariant_section(varphi, u, out)
    direct = translation_invariant_kernel(varphi, x0, out.points())
    assert np.max(np.abs(sec.h_repr.values[:, 0] - direct)) < 5e-4


def test_translation_invariant_sinc_limit():
    freq = Grid(-math.pi, math.pi, 4097)
    varphi = GridFunction.from_callable(
        freq, lambda t: np.full_like(t, 1.0 / TWO_PI, dtype=complex)
    )
    bump = AverageFunctional(0.0, 0.01)
    ug = bump.quad_grid(257)
    u = GridFunction(ug, bump.evaluate(ug.points()).astype(complex))
    out = Grid(-4.0, 4.0, 257)
    sec = translation_invariant_section(varphi, u, out)
    assert np.max(np.abs(sec.h_repr.values[:, 0] - np.sinc(out.points()))) < 1e-3


def test_translation_invariant_zero_u():
    freq = Grid(-math.pi, math.pi, 257)
    varphi = GridFunction.from_callable(freq, lambda t: np.exp(-(t**2)).astype(complex))
    u = GridFunction(Grid(-1.0, 1.0, 65), np.zeros((65, 1)))
    sec = translation_invariant_section(varphi, u, Grid(-2.0, 2.0, 65))
    assert np.max(np.abs(sec.h_repr.values)) == 0.0


# ------------------------------------------------------ double-integral test

def _u_family(grid, centers):
    out = []
    for c in centers:
        u = AverageFunctional(c, 0.4, "triangle")
        out.append(GridFunction(grid, u.evaluate(grid.points()).astype(complex)))
    return out


def test_integral_psd_constant_kernel_passes():
    grid = Grid(-2.0, 2.0, 257)
    fam = _u_family(grid, [-1.0, 0.0, 1.0])
    rep = integral_kernel_psd_test(lambda s, t: np.ones_like(s), fam, trials=20, seed=1)
    assert rep.passed


def test_integral_psd_sinc_kernel_passes():
    grid = Grid(-2.0, 2.0, 257)
    fam = _u_family(grid, [-1.0, 0.0, 1.0])
    rep = integral_kernel_psd_test(lambda s, t: np.sinc(s - t), fam, trials=20, seed=1)
    assert rep.passed
    # cross-check: the fine discretization of the kernel itself is PSD
    pts = grid.points()
    kmat = np.sinc(pts[:, None] - pts[None, :])
    w = np.sqrt(grid.weights())
    eig = np.linalg.eigvalsh(kmat * w[:, None] * w[None, :])
    assert eig[0] >= -1e-10 * eig[-1]


def test_integral_psd_negative_kernel_fails():
    grid = Grid(-2.0, 2.0, 257)
    fam = _u_family(grid, [0.0])
    rep = integral_kernel_psd_test(lambda s, t: -np.ones_like(s), fam, trials=5, seed=0)
    assert not rep.passed


# --------------------------------------------------------- master invariants

def test_reproducing_property_fourier_space():
    """Random span elements against random functional indices."""
    grid = Grid(0.0, TWO_PI, 257)
    fam = FourierCoefficientFamily()
    secs = _fourier_sections(range(-5, 6), grid)
    gen = rng(42)
    for _ in range(25):
        coeff = complex_unit_disc(gen, len(secs))
        f = GridFunction(grid, sum(c * s.h_repr.values for c, s in zip(coeff, secs)))
        beta = int(gen.integers(-6, 7))
        k_beta = fam.basis_function(beta, grid)
        lhs = fam.apply(beta, f)[0]
        rhs = inner_product(f, k_beta)
        assert abs(lhs - rhs) < 1e-10


def test_feature_built_sections_produce_psd_grams():
    """Grams of sections built from feature-map pairs are PSD by construction."""
    wg = Grid(0.0, TWO_PI, 257)
    phi = fourier_point_feature_map(wg, max_mode=6)
    psi = fourier_feature_map(wg)
    hg = Grid(0.0, TWO_PI, 129)
    secs = [kernel_from_features(phi, psi, j, 1.0, hg) for j in range(-3, 4)]
    assert psd_check(gram(secs)).passed

    wgpi = w_grid_default(1025)
    pfm = point_feature_map(wgpi)
    hg2 = Grid(-4.0, 4.0, 129)
    secs2 = [kernel_from_features(pfm, pfm, x, 1.0, hg2) for x in (-1.0, -0.3, 0.4, 1.0)]
    assert psd_check(gram(secs2)).passed


def test_feature_built_sections_gram_matches_functional_route():
    wgpi = w_grid_default(32769)
    pfm = point_feature_map(wgpi)
    hg = Grid(-4.0, 4.0, 257)
    secs = [kernel_from_features(pfm, pfm, x, 1.0, hg) for x in (0.0, 0.5, 1.0)]
    feature_side = gram(secs).matrix
    # functional side: point evaluations are exact sinc values here
    expect = np.array(
        [[np.sinc(a - b) for b in (0.0, 0.5, 1.0)] for a in (0.0, 0.5, 1.0)]
    )
    assert np.max(np.abs(feature_side - expect)) < 1e-8


def test_feature_gram_requires_common_grid():
    f1 = GridFunction(Grid(0.0, 1.0, 11), np.ones((11, 1)))
    f2 = GridFunction(Grid(0.0, 1.0, 21), np.ones((21, 1)))
    with pytest.raises(ShapeMismatchError):
        gram([KernelSection(0, 1.0, f1, f1), KernelSection(1, 1.0, f2, f2)])
    # a stack whose rows do not fit the grid, and an empty stack
    with pytest.raises(ShapeMismatchError):
        feature_gram(np.ones((2, 21), dtype=complex), Grid(0.0, 1.0, 11))
    with pytest.raises(ShapeMismatchError):
        feature_gram(np.ones((0, 11), dtype=complex), Grid(0.0, 1.0, 11))


def _one_shot_feature_gram(stack, grid):
    """The formula feature_gram replaces: the whole weight-scaled stack, then
    A A^H in one product."""
    sqw = np.sqrt(grid.weights())
    a = (stack.reshape(stack.shape[0], grid.n, -1) * sqw[:, None]).reshape(stack.shape[0], -1)
    return a @ a.conj().T


def test_feature_gram_holds_one_stack():
    """The frame of `reconstruct --space fourier --m 128 --grid-n 4097`: 257
    features of 4097 points, a 16.8 MB stack. The one-shot formula peaked at
    34.8 MB; the blocked product scales one column block at a time."""
    grid = Grid(0.0, TWO_PI, 4097)
    stack = np.stack([FourierCoefficientFamily().basis_function(j, grid).values[:, 0] for j in range(-128, 129)])
    want = _one_shot_feature_gram(stack, grid)
    tracemalloc.start()
    try:
        got = feature_gram(stack, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # vector-valued features repeat each weight over the components
    gen = rng(4)
    small = Grid(-1.0, 1.0, 33)
    vec = complex_unit_disc(gen, (5, 33, 3))
    want = _one_shot_feature_gram(vec, small)
    assert np.max(np.abs(feature_gram(vec, small) - want)) <= 1e-13 * np.max(np.abs(want))
