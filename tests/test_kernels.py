import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opkern.core import Grid, GridFunction, inner_product
from opkern.exceptions import (
    IndependenceError,
    KernelConsistencyError,
    ShapeMismatchError,
    ValidationError,
)
from opkern.families import (
    AverageFunctional,
    AverageSamplingFamily,
    FourierCoefficientFamily,
    PointEvaluationFamily,
)
from opkern.kernels import (
    FeatureMap,
    feature_gram,
    finite_dim_kernel,
    fourier_feature_map,
    fourier_frame,
    fourier_point_feature_map,
    gram,
    integral_kernel_psd_test,
    kernel_from_features,
    psd_check,
    translation_invariant_section,
)
from opkern.paley_wiener import point_feature_map, w_grid_default
from draws import complex_unit_disc, rng
from quadrature_oracle import translation_invariant_kernel
from section_oracle import (
    KernelSection,
    feature_section,
    finite_dim_section,
    fourier_sections as _fourier_sections,
    section_stack,
    stacked_frame,
    truncated_frame,
)

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------- kernel_from_features

def test_fourier_kernel_from_features():
    wg = Grid(0.0, TWO_PI, 257)
    phi = fourier_point_feature_map(wg, max_mode=8)
    psi = fourier_feature_map(wg)
    hg = Grid(0.0, TWO_PI, 129)
    frame = kernel_from_features(phi, psi, [3], 1.0, hg)
    expect = np.exp(3j * hg.points()) / math.sqrt(TWO_PI)
    assert np.max(np.abs(frame.section(0).values[:, 0] - expect)) < 1e-8


def test_zero_psi_gives_zero_section():
    wg = Grid(0.0, TWO_PI, 65)

    def zero_eval(alphas, xis):
        return np.zeros((len(alphas), wg.n, 1), dtype=complex)

    psi = FeatureMap(w_grid=wg, dim_y=1, evaluate=zero_eval)
    phi = fourier_point_feature_map(wg, max_mode=4)
    frame = kernel_from_features(phi, psi, [0], 1.0, Grid(0.0, TWO_PI, 33))
    assert np.max(np.abs(section_stack(frame))) == 0.0


def test_sinc_kernel_from_point_features():
    wg = w_grid_default(4097)
    phi = point_feature_map(wg)
    hg = Grid(-4.0, 4.0, 257)
    frame = kernel_from_features(phi, phi, [0.0], 1.0, hg)
    assert np.max(np.abs(frame.section(0).values[:, 0] - np.sinc(hg.points()))) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([("fourier", 1), ("point", 1), ("point", 2)]),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(("point", 2), [0], 16)
def test_kernel_from_features_matches_the_per_section_oracle(case, ints, seed):
    """One product of the weight-scaled Psi stack with blocks of Phi features
    against one inner_product per point and component: the sections agree
    within 1e-14 of max|h|, and the Gram bit for bit, since both come from
    the same Psi stack through feature_gram. The example is one index, whose
    product was one running sum of 1026 terms, 8.3e-15 off against a bound
    of 7.5e-15."""
    kind, dim = case
    xi = complex_unit_disc(rng(seed), dim)
    if kind == "fourier":
        wg = Grid(0.0, TWO_PI, 129)
        phi, psi = fourier_point_feature_map(wg, max_mode=6), fourier_feature_map(wg)
        hg, alphas = Grid(0.0, TWO_PI, 33), ints
    else:
        wg = w_grid_default(513)
        phi = psi = point_feature_map(wg, dim_y=dim)
        hg, alphas = Grid(-4.0, 4.0, 65), [j / 4.0 for j in ints]
    frame = kernel_from_features(phi, psi, alphas, xi, hg)
    oracle = truncated_frame([feature_section(phi, psi, a, xi, hg) for a in alphas])
    assert frame.alphas == oracle.alphas
    h, want = section_stack(frame), section_stack(oracle)
    assert np.max(np.abs(h - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(frame.gram.matrix, oracle.gram.matrix)


def _library_feature_map(kind):
    """One of the library's feature maps with index values it accepts."""
    if kind == "fourier":
        return fourier_feature_map(Grid(0.0, TWO_PI, 129)), lambda ints: ints
    if kind == "fourier_point":
        return fourier_point_feature_map(Grid(0.0, TWO_PI, 129), max_mode=6), lambda ints: [j / 3.0 for j in ints]
    return point_feature_map(w_grid_default(257), dim_y=2), lambda ints: [j / 4.0 for j in ints]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["fourier", "fourier_point", "point"]),
    st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_feature_maps_evaluate_each_row_as_alone(kind, ints, seed):
    """Row j of one evaluation of the list is the evaluation of index j on
    its own, bit for bit, with one Y-vector per index and with one shared."""
    fm, values = _library_feature_map(kind)
    alphas = values(ints)
    xis = complex_unit_disc(rng(seed), (len(alphas), fm.dim_y))
    stack = fm.evaluate(alphas, xis)
    assert stack.shape == (len(alphas), fm.w_grid.n, fm.dim_y)
    shared = fm.evaluate(alphas, xis[0])
    for j, alpha in enumerate(alphas):
        assert np.array_equal(stack[j], fm.evaluate([alpha], xis[j])[0])
        assert np.array_equal(shared[j], fm.evaluate([alpha], xis[0])[0])


def test_fourier_feature_map_of_a_huge_index_is_the_row_of_its_residue():
    fm = fourier_feature_map(Grid(0.0, TWO_PI, 129))
    got = fm.evaluate([10**400, 2**70], np.ones(1))
    assert np.array_equal(got, fm.evaluate([10**400 % 128, 2**70 % 128], np.ones(1)))


def test_feature_maps_refuse_y_vectors_off_their_index_list():
    fm = point_feature_map(w_grid_default(129), dim_y=2)
    with pytest.raises(ShapeMismatchError):
        fm.evaluate([0.0, 1.0, 2.0], np.ones((2, 2)))


@pytest.mark.parametrize("side", ["psi", "phi"])
def test_kernel_from_features_refuses_a_feature_stack_of_the_wrong_shape(side):
    """A feature map that returns one feature for the whole list, or features
    with another number of components than Psi's, is refused."""
    wg = w_grid_default(129)
    good = point_feature_map(wg)
    if side == "psi":
        bad = FeatureMap(wg, 1, lambda alphas, xis: good.evaluate(alphas[:1], xis)[0])
        phi, psi = good, bad
    else:
        bad = FeatureMap(wg, 1, lambda xs, xis: np.concatenate([good.evaluate(xs, xis)] * 2, axis=2))
        phi, psi = bad, good
    with pytest.raises(ShapeMismatchError):
        kernel_from_features(phi, psi, [0.0, 0.5], 1.0, Grid(-2.0, 2.0, 33)).section(0)


def test_kernel_from_features_evaluates_each_map_once_per_list():
    """Psi takes one call for the index list when the frame is built, and
    Phi none; a synthesis takes one Phi call per block of h-grid points, and
    33 points on 129 frequencies fit in one block."""
    wg = w_grid_default(129)
    calls = {"phi": [], "psi": []}

    def counted(name):
        fm = point_feature_map(wg, dim_y=2)
        return FeatureMap(wg, 2, lambda alphas, xis: calls[name].append(len(alphas)) or fm.evaluate(alphas, xis))

    hg = Grid(-2.0, 2.0, 33)
    frame = kernel_from_features(counted("phi"), counted("psi"), [0.0, 0.5, 1.0], np.array([1.0, 1j]), hg)
    assert calls == {"psi": [3], "phi": []}
    frame.synthesize(np.ones(3))
    assert calls == {"psi": [3], "phi": [2 * hg.n]}


# ----------------------------------------------------------------------- gram

def test_fourier_gram_identity():
    grid = Grid(0.0, TWO_PI, 257)
    frame = truncated_frame(_fourier_sections(range(-2, 3), grid))
    g = gram(frame, FourierCoefficientFamily())
    assert np.max(np.abs(g.matrix - np.eye(5))) < 1e-8
    g2 = frame.gram
    assert np.max(np.abs(g2.matrix - np.eye(5))) < 1e-10


def test_gram_single_section_real_nonnegative():
    grid = Grid(0.0, TWO_PI, 257)
    frame = truncated_frame(_fourier_sections([1], grid))
    g = gram(frame, FourierCoefficientFamily())
    assert g.matrix.shape == (1, 1)
    assert abs(g.matrix[0, 0].imag) < 1e-12
    assert g.matrix[0, 0].real >= 0.0


def test_sinc_point_gram_closed_form():
    window = Grid(-24.0, 24.0, 3073)
    x_axis = window.points()
    xs = (0.0, 0.5, 1.0)
    h = np.stack([np.sinc(x_axis - x) for x in xs]).astype(complex)
    g = gram(stacked_frame(xs, h, window, h, window), PointEvaluationFamily())
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
    good = np.sinc(x_axis)
    # a section polluted by a foreign component breaks Hermitian symmetry
    polluted = np.sinc(x_axis - 1.0) + 0.3 * np.sinc(x_axis)
    h = np.stack([good, polluted]).astype(complex)
    with pytest.raises(KernelConsistencyError):
        gram(stacked_frame([0.0, 1.0], h, window, h, window), PointEvaluationFamily())


def test_psd_check_examples():
    idx = (0, 1)
    from opkern.kernels import GramMatrix

    ok = psd_check(GramMatrix(matrix=np.eye(2, dtype=complex), indices=idx))
    assert ok.passed and ok.min_eig == pytest.approx(1.0)
    bad = psd_check(GramMatrix(matrix=np.diag([1.0, -1.0]).astype(complex), indices=idx))
    assert not bad.passed


def _pairwise_gram(sections, family):
    """F[j, k] = <L_{alpha_k}(K_j), xi_k> by one ``apply`` per pair, symmetrized."""
    m = np.array([[np.sum(family.apply(sk.alpha, sj.h_repr) * np.conj(sk.xi)) for sk in sections]
                  for sj in sections])
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("kind", ["fourier", "point", "average"])
def test_gram_applies_each_section_once(kind, monkeypatch):
    from section_oracle import average_sections, sinc_sections

    if kind == "fourier":
        secs = _fourier_sections(range(-4, 5), Grid(0.0, TWO_PI, 257))
        family = FourierCoefficientFamily()
    elif kind == "point":
        secs = sinc_sections([-1.5, -0.25, 0.0, 0.75, 2.0], Grid(-24.0, 24.0, 1537))
        family = PointEvaluationFamily()
    else:
        secs = average_sections([-2.0, -0.5, 0.0, 1.0, 2.5], 0.2, Grid(-12.0, 12.0, 769), w_grid_default(1025))
        family = AverageSamplingFamily(delta=0.2)
    want = _pairwise_gram(secs, family)
    calls = []
    apply_all = type(family).apply_all
    monkeypatch.setattr(type(family), "apply_all", lambda self, *a: calls.append(1) or apply_all(self, *a))
    got = gram(truncated_frame(secs), family).matrix
    assert len(calls) == len(secs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_gram_refuses_a_family_with_several_values_per_index():
    """Point evaluation of C^2-valued sections gives two values per index."""
    pfm = point_feature_map(w_grid_default(257), dim_y=2)
    frame = kernel_from_features(pfm, pfm, (0.0, 0.5), np.array([1.0, 1j]), Grid(-2.0, 2.0, 65))
    with pytest.raises(ShapeMismatchError):
        gram(frame, PointEvaluationFamily())


def test_gram_functional_vs_feature_routes_agree():
    grid = Grid(0.0, TWO_PI, 257)
    frame = truncated_frame(_fourier_sections(range(-3, 4), grid))
    a = gram(frame, FourierCoefficientFamily()).matrix
    b = frame.gram.matrix
    assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("indices,n", [(range(-3, 4), 257), ([0, 8, 16, 3, -2], 9)])
def test_gram_of_the_stackless_fourier_frame_matches_its_closed_form(indices, n):
    """``gram`` takes the Fourier frame's sections one at a time from
    ``section``, as it takes the rows of a stack; the coefficients of each
    are the closed-form Gram's row, aliasing included."""
    frame = fourier_frame(indices, Grid(0.0, TWO_PI, n))
    assert not hasattr(frame, "h")
    assert np.max(np.abs(gram(frame, FourierCoefficientFamily()).matrix - frame.gram.matrix)) < 1e-13


# ----------------------------------------------------------- finite_dim_kernel

def test_finite_dim_orthonormal_basis():
    grid = Grid(0.0, TWO_PI, 257)
    fam = FourierCoefficientFamily()
    basis = [fam.basis_function(j, grid) for j in range(-1, 2)]
    frame = finite_dim_kernel(basis, fam, [1], xi=1.0)
    # B = I: section reduces to sum_k <xi, L_alpha(phi_k)> phi_k = phi_{alpha}
    assert np.max(np.abs(frame.section(0).values - basis[2].values)) < 1e-8


def test_finite_dim_single_function():
    grid = Grid(0.0, TWO_PI, 257)
    fam = FourierCoefficientFamily()
    phi = GridFunction(grid, 2.0 * np.exp(1j * grid.points()) / math.sqrt(TWO_PI))
    c = inner_product(phi, phi).real
    frame = finite_dim_kernel([phi], fam, [1], xi=1.0)
    lval = fam.apply(1, phi)[0]
    expect = (np.conj(lval) / c) * phi.values
    assert np.max(np.abs(frame.section(0).values - expect)) < 1e-10


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
    betas = (-0.4, 0.1, 0.8)
    frame = finite_dim_kernel(basis, fam, betas, xi=1.0)
    for beta, h in zip(betas, section_stack(frame)):
        coeff = complex_unit_disc(gen, 2)
        f = GridFunction(grid, coeff[0] * basis[0].values + coeff[1] * basis[1].values)
        lhs = fam.apply(beta, f)[0]
        rhs = inner_product(f, GridFunction(grid, h))
        assert abs(lhs - rhs) < 1e-8


def test_finite_dim_dependent_basis_rejected():
    grid = Grid(-3.0, 3.0, 257)
    phi = GridFunction.from_callable(grid, _hat(0.0))
    with pytest.raises(IndependenceError):
        finite_dim_kernel([phi, 2.0 * phi], AverageSamplingFamily(delta=0.3), [0.0], 1.0)


@pytest.mark.parametrize("kind", ["fourier", "hat", "modulated-hat"])
def test_finite_dim_kernel_matches_the_per_section_oracle(kind):
    """One eigendecomposition of the basis Gram and one stacked solve for
    every index, against one basis-Gram solve per index, section by section
    and for one complex combination. The hat case is the three-hat space of
    acceptance criterion 1 with 50 centres; modulating each hat makes the
    basis Gram complex and not diagonal."""
    gen = rng(11)
    if kind == "fourier":
        grid = Grid(0.0, TWO_PI, 257)
        fam = FourierCoefficientFamily()
        basis = [fam.basis_function(j, grid) for j in range(-3, 4)]
        alphas = list(range(-5, 6))
    else:
        grid = Grid(-4.0, 4.0, 16385)
        fam = AverageSamplingFamily(delta=0.3, interp="linear")
        freq = 2.0 if kind == "modulated-hat" else 0.0
        x = grid.points()
        basis = [GridFunction(grid, _hat(c)(x) * np.exp(1j * freq * c * x)) for c in (-0.75, 0.0, 0.75)]
        alphas = [float(b) for b in gen.uniform(-1.2, 1.2, size=50)]
    xi = complex_unit_disc(gen, 1)
    frame = finite_dim_kernel(basis, fam, alphas, xi)
    oracle = truncated_frame([finite_dim_section(basis, fam, a, xi) for a in alphas])
    assert frame.alphas == oracle.alphas
    h, want = section_stack(frame), section_stack(oracle)
    assert np.max(np.abs(h - want)) <= 1e-14 * np.max(np.abs(want))
    c = complex_unit_disc(gen, len(alphas))
    gap = np.max(np.abs(frame.synthesize(c).values - oracle.synthesize(c).values))
    assert gap <= 1e-14 * np.sum(np.abs(c)) * np.max(np.abs(want))
    assert np.max(np.abs(frame.gram.matrix - oracle.gram.matrix)) <= 1e-14 * np.max(np.abs(oracle.gram.matrix))


def test_finite_dim_kernel_applies_each_basis_function_once(monkeypatch):
    grid = Grid(-3.0, 3.0, 1025)
    basis = [GridFunction.from_callable(grid, _hat(c)) for c in (-0.5, 0.0, 0.5, 1.0)]
    fam = AverageSamplingFamily(delta=0.3, interp="linear")
    calls = []
    apply_all = AverageSamplingFamily.apply_all
    monkeypatch.setattr(AverageSamplingFamily, "apply_all", lambda self, *a: calls.append(1) or apply_all(self, *a))
    frame = finite_dim_kernel(basis, fam, np.linspace(-1.0, 1.0, 9), 1.0)
    assert len(frame) == 9
    assert len(calls) == len(basis)


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
    assert np.max(np.abs(sec.values[:, 0] - direct)) < 5e-4


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
    assert np.max(np.abs(sec.values[:, 0] - np.sinc(out.points()))) < 1e-3


def test_translation_invariant_zero_u():
    freq = Grid(-math.pi, math.pi, 257)
    varphi = GridFunction.from_callable(freq, lambda t: np.exp(-(t**2)).astype(complex))
    u = GridFunction(Grid(-1.0, 1.0, 65), np.zeros((65, 1)))
    sec = translation_invariant_section(varphi, u, Grid(-2.0, 2.0, 65))
    assert np.max(np.abs(sec.values)) == 0.0


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


@pytest.mark.parametrize("trials", [0, -3])
def test_integral_psd_refuses_a_run_without_trials(trials):
    """Without a trial there is no evidence: a negative kernel would pass."""
    fam = _u_family(Grid(-2.0, 2.0, 257), [0.0])
    with pytest.raises(ValidationError):
        integral_kernel_psd_test(lambda s, t: -np.ones_like(s), fam, trials=trials)


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
    frame = kernel_from_features(phi, psi, range(-3, 4), 1.0, hg)
    assert psd_check(frame.gram).passed

    wgpi = w_grid_default(1025)
    pfm = point_feature_map(wgpi)
    hg2 = Grid(-4.0, 4.0, 129)
    frame2 = kernel_from_features(pfm, pfm, (-1.0, -0.3, 0.4, 1.0), 1.0, hg2)
    assert psd_check(frame2.gram).passed


def test_feature_built_sections_gram_matches_functional_route():
    wgpi = w_grid_default(32769)
    pfm = point_feature_map(wgpi)
    hg = Grid(-4.0, 4.0, 257)
    feature_side = kernel_from_features(pfm, pfm, (0.0, 0.5, 1.0), 1.0, hg).gram.matrix
    # functional side: point evaluations are exact sinc values here
    expect = np.array(
        [[np.sinc(a - b) for b in (0.0, 0.5, 1.0)] for a in (0.0, 0.5, 1.0)]
    )
    assert np.max(np.abs(feature_side - expect)) < 1e-8


def test_feature_gram_requires_common_grid():
    f1 = GridFunction(Grid(0.0, 1.0, 11), np.ones((11, 1)))
    f2 = GridFunction(Grid(0.0, 1.0, 21), np.ones((21, 1)))
    with pytest.raises(ShapeMismatchError):
        truncated_frame([KernelSection(0, 1.0, f1, f1), KernelSection(1, 1.0, f2, f2)])
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
