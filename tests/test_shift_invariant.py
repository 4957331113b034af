import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from opkern.core import Grid, GridFunction, inner_product, integrate_values, norm
from opkern.exceptions import DomainError, RieszConditionError, ValidationError
from opkern.families import AverageFunctional, average_sample
from opkern.kernels import psd_check
from opkern.shift_invariant import (
    Generator,
    _aliases,
    _average_coefficients,
    _g_values,
    biorthogonality_residual,
    bracket_function,
    bspline,
    bspline_transform,
    density_diagnostic,
    dual_generator,
    fourier_coefficient_identity_check,
    make_generator,
    si_functional_kernel,
    si_gram,
)
from draws import rng
from quadrature_oracle import fourier_sum, quadrature_transform
from shift_oracle import (
    bracket_values,
    chirp_dual_coefficients,
    dual_on_grid,
    full_range_coefficients,
    g_alpha_values,
    g_values_one_block,
    identity_deviation,
    per_shift_sum,
    si_reproducing_kernel,
    spline_transform_pow,
    window_coefficients,
)

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps
ORDERS = {"box": 1, "hat": 2, "cubic": 4}
# The a-priori tail of the alias sum at |l| <= 64 that these tolerances once
# read, 2 / (pi^(2n) (2n - 1) 63.5^(2n - 1)) for the spline of order n,
# rounded down: box 3.1913e-3, hat 2.6729e-8.
BOX_TAIL = 3.19e-3
HAT_TAIL = 2.67e-8
# Blocked and one-block alias sums differ by summation order alone: over 340
# random draws the largest gap was 12.9 eps sum_l |m phi_hat|.
ALIAS_ORDER_BOUND = 32


def alias_tail(order, j_trunc):
    """Bound on sum_{|l| > J} |phi_hat(xi + 2 pi l)|^2 over |xi| <= pi for
    the spline of the order, J >= 1, from |phi_hat(w)| <= (2/|w|)^order."""
    k = order
    return 2.0 / (math.pi ** (2 * k) * (2 * k - 1) * (j_trunc - 0.5) ** (2 * k - 1))


# ------------------------------------------------------------------- splines

def test_bspline_values_and_mass():
    x = np.linspace(-3, 3, 6145)
    for order in (1, 2, 4):
        v = bspline(order, x)
        assert np.all(v >= 0)
        g = Grid(-3.0, 3.0, 6145)
        assert integrate_values(g, v).real == pytest.approx(1.0, abs=1e-6)


def test_bspline_transform_matches_quadrature():
    g = Grid(-2.0, 2.0, 8193)
    for order in (1, 2, 4):
        f = GridFunction(g, bspline(order, g.points()).astype(complex))
        w = np.linspace(-20.0, 20.0, 41)
        quad = fourier_sum(w, g.points(), f.values[:, 0] * g.weights())
        closed = bspline_transform(order, w)
        assert np.max(np.abs(quad - closed)) < 1e-6


def test_unknown_spline_order():
    with pytest.raises(ValidationError):
        bspline(3, np.array([0.0]))
    with pytest.raises(ValidationError):
        make_generator("quintic")


def test_generator_refuses_samples_beyond_support_radius():
    """phi_fn is sampled on a band of width one beyond the support radius,
    on each side."""
    hat = make_generator("hat")
    rules = {"phi_hat": hat.phi_hat, "autocorrelation": hat.autocorrelation}

    def wide_hat(x):
        return np.maximum(1.0 - np.abs(x) / 2.0, 0.0)

    def right_bump(x):
        return np.where(np.abs(x - 1.5) < 0.01, 1.0, 0.0)

    for phi_fn in (wide_hat, right_bump, lambda x: right_bump(-x)):
        with pytest.raises(ValidationError, match="nonzero beyond support_radius=1"):
            Generator(support_radius=1, phi_fn=phi_fn, **rules)
    # the unit hat vanishes beyond radius 1, the wide hat beyond radius 2
    Generator(support_radius=1, phi_fn=hat.phi_fn, **rules)
    Generator(support_radius=2, phi_fn=wide_hat, **rules)


# ------------------------------------------------------------------- bracket

def test_box_bracket_is_one_within_tail():
    """Poisson summation: the periodization equals the autocorrelation series
    sum_m <phi, phi(.-m)> e^{-i m xi}; for the unit box the correlations are
    1 at lag zero and 0 at the unit lags, so the bracket is identically one.
    The truncated alias sum of the oracle approaches it as it deepens."""
    box = make_generator("box")
    xi = np.linspace(-math.pi, math.pi, 65)
    assert np.array_equal(bracket_function(box, xi), np.ones(65))
    gap = np.max(np.abs(bracket_values(box.transform, xi, 64) - 1.0))
    assert gap <= 1.5 * BOX_TAIL
    assert np.max(np.abs(bracket_values(box.transform, xi, 512) - 1.0)) < gap / 4.0


def test_hat_bracket_closed_form():
    hat = make_generator("hat")
    assert bracket_function(hat, np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-10)
    assert bracket_function(hat, np.array([math.pi]))[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    xi = np.linspace(-math.pi, math.pi, 129)
    closed = (2.0 + np.cos(xi)) / 3.0
    assert np.max(np.abs(bracket_function(hat, xi) - closed)) <= 4 * EPS
    assert np.max(np.abs(bracket_values(hat.transform, xi, 64) - closed)) <= 1.5 * HAT_TAIL


def test_bracket_rejects_vanishing_generator():
    zero = Generator(
        support_radius=1,
        phi_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        phi_hat=lambda w: np.zeros_like(np.asarray(w, dtype=float)).astype(complex),
        autocorrelation=(0.0,),
    )
    with pytest.raises(RieszConditionError):
        bracket_function(zero, np.array([0.0, 1.0]))
    # a_0 - 2 a_1 < 0: the bracket changes sign before xi = pi
    bad = dataclasses.replace(make_generator("hat"), autocorrelation=(0.5, 0.5))
    with pytest.raises(RieszConditionError):
        bracket_function(bad, np.linspace(-math.pi, math.pi, 9))


def _correlation_by_quadrature(gen, k):
    """<phi, phi(. - k)> by 8-node Gauss-Legendre rules on the half-unit
    cells of [-R, R]: exact for the piecewise-polynomial splines, whose knots
    lie on the half-integers."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    r = gen.support_radius
    total = 0.0
    for lo in np.arange(-r, r, 0.5):
        t = lo + 0.25 * (nodes + 1.0)
        total += 0.25 * float(weights @ (gen.evaluate(t) * gen.evaluate(t - k)))
    return total


@pytest.mark.parametrize("kind", ["box", "hat", "cubic"])
def test_autocorrelation_and_bracket_match_quadrature_and_the_alias_oracle(kind):
    """Each tabulated a_k is the integral of phi phi(. - k), and a_k = 0 from
    k = 2R on. The bracket is the closed form within 4 eps on 257 points of
    [-pi, pi], and the oracle's alias sum at a large truncation: within 4 eps
    for hat and cubic, and within the oracle's own tail for the box."""
    gen = make_generator(kind)
    a = gen.autocorrelation
    for k in range(2 * gen.support_radius + 1):
        assert abs(_correlation_by_quadrature(gen, k) - (a[k] if k < len(a) else 0.0)) <= 4 * EPS

    xi = np.linspace(-math.pi, math.pi, 257)
    closed = {
        "box": np.ones_like(xi),
        "hat": (2.0 + np.cos(xi)) / 3.0,
        "cubic": (1208.0 + 1191.0 * np.cos(xi) + 120.0 * np.cos(2 * xi) + np.cos(3 * xi)) / 2520.0,
    }[kind]
    got = bracket_function(gen, xi)
    assert np.max(np.abs(got - closed)) <= 4 * EPS

    j_trunc = {"box": 2_000, "hat": 100_000, "cubic": 2_000}[kind]
    xi = xi[::4]
    want = bracket_values(spline_transform_pow(ORDERS[kind]), xi, j_trunc)
    tol = alias_tail(ORDERS[kind], j_trunc) if kind == "box" else 4 * EPS
    assert np.max(np.abs(got[::4] - want)) <= tol


# -------------------------------------------------------------- dual generator

def test_box_dual_is_identity_within_tail():
    """The box's bracket is exactly one, so its dual is the box: b is the
    unit vector up to the round-off of the 2049-point rule."""
    box = make_generator("box")
    d = dual_generator(box, k_max=8)
    assert np.max(np.abs(d.b_coeffs - np.eye(17)[8])) <= 1e-15


def test_hat_dual_coefficients_symmetric_decaying():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=20)
    b = d.b_coeffs
    assert b[20].real > 0
    assert np.max(np.abs(b.imag)) < 1e-12
    assert np.max(np.abs(b - b[::-1])) < 1e-12
    # exponential decay: ratio between lags 5 apart
    assert abs(b[20 + 15]) < 1e-3 * abs(b[20 + 5])
    # 1/bracket = 3/(2 + cos xi) has the Fourier coefficients
    # sqrt(3) (sqrt(3) - 2)^|k|; the periodic trapezoid rule on the exact
    # bracket converges to them geometrically
    k = np.arange(-20, 21)
    assert np.max(np.abs(b - math.sqrt(3.0) * (math.sqrt(3.0) - 2.0) ** np.abs(k))) <= 1e-15


@pytest.mark.parametrize("kind", ["box", "hat", "cubic"])
def test_dual_coefficients_beyond_1023_do_not_alias(kind):
    """2049 frequencies resolve 2048 residues, so b_2049 read off them is
    b_1: a dual_coefficient_tail of 0.464 for the hat and 3.09 for the cubic
    at k_max 2049. The rule takes 2 k_max + 2 points when that is more: the
    central b_k stay those of k_max 20 (measured within 4.2 eps), and the
    tail falls to round-off (0.27 eps)."""
    gen = make_generator(kind)
    small = dual_generator(gen, 20).b_coeffs
    b = dual_generator(gen, 2049).b_coeffs
    assert np.max(np.abs(b[2029:2070] - small)) <= 4 * EPS * np.max(np.abs(small))
    assert max(abs(b[0]), abs(b[-1])) <= EPS


@pytest.mark.parametrize("kind", ["box", "hat", "cubic"])
@pytest.mark.parametrize("k_max", [0, 1, 20, 300])
def test_dual_coefficients_by_one_fft_match_the_chirp_z_sum(kind, k_max):
    """The b_k of one FFT over the period against the chirp-z sum they
    replaced, on the same 2049-point trapezoid: both sum the same weighted
    reciprocal bracket. Over these cases they were at most 0.85 eps
    sum|weighted|/2pi apart; the bound allows 4 times that."""
    gen = make_generator(kind)
    want, scale = chirp_dual_coefficients(gen, k_max)
    got = dual_generator(gen, k_max).b_coeffs
    assert got.shape == (2 * k_max + 1,)
    assert np.max(np.abs(got - want)) <= 4 * EPS * scale


@pytest.mark.parametrize("kind", ["box", "cubic"])
def test_average_coefficients_evaluate_each_shift_on_its_own_nodes(kind):
    """At delta = 100 the coefficients of one functional span about 200
    shifts. Evaluating phi on the whole (shifts x 4097) window peaked at
    26.4 MiB (box) and 46.0 MiB (cubic) under tracemalloc; each shift now
    reads only the nodes inside [k - R, k + R], 0.16 MiB in all."""
    import tracemalloc

    gen = make_generator(kind)
    us = [AverageFunctional(0.25, 100.0, "triangle")]
    tracemalloc.start()
    try:
        ks, cmat = _average_coefficients(gen, us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert ks.size > 200
    want = _exact_coefficients(gen, us[0], ks, 4097)
    assert np.all(np.abs(cmat[:, 0] - want) <= _round_off_bound(gen, us[0], ks, 4097))


def test_hat_biorthogonality():
    """The hat's dual sampled on its fine grid and paired with the hats by
    the trapezoid rule, and the exact pairing of the coefficients."""
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=20)
    dual = dual_on_grid(d)
    pts = dual.grid.points()
    worst = 0.0
    for j in range(-4, 5):
        val = integrate_values(dual.grid, np.conj(hat.evaluate(pts - j)) * dual.values[:, 0])
        worst = max(worst, abs(val - (1.0 if j == 0 else 0.0)))
    assert worst < 1e-6
    assert biorthogonality_residual(d, range(-4, 5)) <= 1e-15


@pytest.mark.parametrize("kind", ["box", "cubic"])
def test_box_and_cubic_duals_are_biorthogonal_up_to_the_pairing_quadrature(kind):
    """With the exact bracket and the exact pairing sum_k b_k a_{j - k}, what
    remains of <phi~, phi(. - j)> - [j == 0] is round-off: 2.2e-16 (box) and
    1.2e-16 (cubic) measured. The trapezoid pairing on the dual's grid of
    step 2**-10 reported 4.9e-4 for the box, h/2 at its jumps. A wrong a_k
    moves the dual off biorthogonality by far more."""
    gen = make_generator(kind)
    assert biorthogonality_residual(dual_generator(gen, k_max=20), range(-4, 5)) <= 1e-15


@pytest.mark.parametrize("value", [-1, 2.5])
@pytest.mark.parametrize("route", ["dual_generator", "identity_check", "identity_check_j", "generator"])
def test_negative_or_fractional_sizes_are_refused_by_name(route, value):
    gen, u = make_generator("hat"), AverageFunctional(0.25, 0.2, "triangle")
    name, call = {
        "dual_generator": ("k_max", lambda: dual_generator(gen, value)),
        "identity_check": ("k_range", lambda: fourier_coefficient_identity_check(gen, u, value)),
        "identity_check_j": ("j_trunc", lambda: fourier_coefficient_identity_check(gen, u, 2, j_trunc=value)),
        "generator": ("j_trunc", lambda: dataclasses.replace(gen, j_trunc=value)),
    }[route]
    with pytest.raises(ValidationError, match=f"^{name} must be a non-negative integer"):
        call()


# ---------------------------------------------------------- reproducing kernel

def test_box_kernel_is_same_cell_indicator():
    box = make_generator("box")
    d = dual_generator(box, k_max=6)
    out = Grid(-8.0, 8.0, 4097)
    k = si_reproducing_kernel(box, d, 0.2, out)
    y = out.points()
    # x = 0.2 lives in the unit cell around 0; the kernel is that cell's
    # indicator (up to the dual's truncation-tail ripple)
    same_cell = (np.abs(y) < 0.5).astype(float)
    inside = np.abs(np.abs(y) - 0.5) > 1e-2  # skip the jump neighborhood
    tol = 5.0 * BOX_TAIL
    assert np.max(np.abs(k.values[inside, 0] - same_cell[inside])) < tol


def test_si_kernel_reproduces_span_values():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=20)
    out = Grid(-26.0, 26.0, 53249)
    gen = rng(2)
    shifts = np.arange(-3, 4)
    coeff = gen.standard_normal(shifts.size) + 1j * gen.standard_normal(shifts.size)
    pts = out.points()
    f_vals = np.zeros(out.n, dtype=complex)
    for c, j in zip(coeff, shifts):
        f_vals += c * hat.evaluate(pts - j)
    f = GridFunction(out, f_vals)
    for x in (-0.75, 0.0, 1.3):
        k = si_reproducing_kernel(hat, d, x, out)
        got = inner_product(f, k)
        expect = complex(np.sum(coeff * hat.evaluate(x - shifts)))
        assert abs(got - expect) < 1e-5


def test_si_kernel_piecewise_linear_structure():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=12)
    out = Grid(-16.0, 16.0, 1025)  # h = 1/32: several points per unit cell
    k = si_reproducing_kernel(hat, d, 0.5, out)
    vals = k.values[:, 0].real
    x = out.points()
    # second differences vanish away from the integer knots
    frac = x[1:-1] - np.floor(x[1:-1])
    interior = np.abs(frac - 0.5) < 0.4
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.max(np.abs(second[interior])) < 1e-10


def test_si_kernel_margin_check():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=10)
    with pytest.raises(DomainError):
        si_reproducing_kernel(hat, d, 7.0, Grid(-8.0, 8.0, 257))


# ---------------------------------------------------------- functional kernel

def test_si_functional_kernel_point_mass_limit():
    box = make_generator("box")
    d = dual_generator(box, k_max=6)
    out = Grid(-8.0, 8.0, 4097)
    u = AverageFunctional(2.0, 0.01)
    sec = si_functional_kernel(box, d, u, out)
    y = out.points()
    expect = bspline(1, y - 2.0)
    inside = np.abs(np.abs(y - 2.0) - 0.5) > 0.05
    tol = 5.0 * BOX_TAIL + 1e-3
    assert np.max(np.abs(sec.values[inside, 0] - expect[inside])) < tol


def test_si_functional_kernel_reproduces_averages():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=20)
    out = Grid(-26.0, 26.0, 53249)
    gen = rng(6)
    shifts = np.arange(-4, 5)
    coeff = gen.standard_normal(shifts.size) + 1j * gen.standard_normal(shifts.size)
    pts = out.points()
    f_vals = np.zeros(out.n, dtype=complex)
    for c, j in zip(coeff, shifts):
        f_vals += c * hat.evaluate(pts - j)
    f = GridFunction(out, f_vals)
    for x in (-1.2, 0.4):
        u = AverageFunctional(x, 0.3, "triangle")
        sec = si_functional_kernel(hat, d, u, out)
        got = inner_product(f, sec)
        expect = average_sample(f, u, refine=8, interp="linear")
        assert abs(got - expect) < 1e-6


def test_si_functional_kernel_disjoint_support_is_zero():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=4)
    out = Grid(-8.0, 8.0, 1025)
    sec = si_functional_kernel(hat, d, AverageFunctional(40.0, 0.2), out)
    assert np.max(np.abs(sec.values)) == 0.0


def test_si_functional_kernel_delta_limit_approaches_point_kernel():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=16)
    out = Grid(-20.0, 20.0, 8193)
    # the averaging window must straddle a generator kink for the widths to
    # matter; on a straight segment the symmetric average is already exact
    x0 = 0.0
    point = si_reproducing_kernel(hat, d, x0, out)
    gaps = []
    for delta in (0.2, 0.1, 0.05):
        sec = si_functional_kernel(hat, d, AverageFunctional(x0, delta), out)
        gaps.append(norm(sec - point))
    assert gaps[0] > gaps[1] > gaps[2]

    # away from every kink the box average of a piecewise-linear generator
    # reproduces the point kernel exactly
    exact = si_functional_kernel(hat, d, AverageFunctional(0.3, 0.15), out)
    point3 = si_reproducing_kernel(hat, d, 0.3, out)
    assert norm(exact - point3) < 1e-10


# ------------------------------------------------------------ density & gram

def test_density_rank_one_for_single_functional():
    hat = make_generator("hat")
    rep = density_diagnostic(hat, [AverageFunctional(0.0, 0.2)], Grid(-math.pi, math.pi, 257))
    assert rep.rank == 1
    assert not rep.rank_deficient


def test_density_rank_two_for_shifted_pair():
    hat = make_generator("hat")
    fam = [AverageFunctional(0.0, 0.2), AverageFunctional(0.5, 0.2)]
    rep = density_diagnostic(hat, fam, Grid(-math.pi, math.pi, 257))
    assert rep.rank == 2


def test_density_flags_duplicates():
    hat = make_generator("hat")
    u = AverageFunctional(0.25, 0.2)
    rep = density_diagnostic(hat, [u, u], Grid(-math.pi, math.pi, 257))
    assert rep.rank == 1
    assert rep.rank_deficient


def test_si_gram_is_psd_and_matches_direct_pairing():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=20)
    us = [AverageFunctional(x, 0.25, "triangle") for x in (-1.0, -0.3, 0.4, 1.1)]
    g = si_gram(hat, d, us)
    assert psd_check(g).passed
    # direct pairing oracle: L_beta applied to the synthesized section
    out = Grid(-26.0, 26.0, 53249)
    sec0 = si_functional_kernel(hat, d, us[0], out)
    direct = average_sample(sec0, us[2], refine=8, interp="linear")
    assert abs(g.matrix[0, 2] - direct) < 1e-7


def _toeplitz_gram(dual, ks, cmat):
    """C^H B C over the shifts ks with B from scipy's Toeplitz, the
    assembly that ``si_gram`` replaced."""

    def b_of_lag(lag):
        return dual.b_coeffs[lag + dual.k_max] if abs(lag) <= dual.k_max else 0.0

    bmat = toeplitz([b_of_lag(-i) for i in range(ks.size)], [b_of_lag(i) for i in range(ks.size)])
    m = cmat.conj().T @ bmat @ cmat
    return (m + m.conj().T) / 2.0


def _round_off_bound(gen, u, ks, quad_n):
    """64 eps sum |u phi(. - k)| w for each shift k: the round-off of one
    trapezoid sum of the coefficient in any summation order."""
    g = u.quad_grid(quad_n)
    t = g.points()
    return 64 * np.finfo(float).eps * (np.abs(u.evaluate(t)[None, :] * gen.evaluate(t - ks[:, None])) @ g.weights())


def _exact_coefficients(gen, u, ks, quad_n):
    """The trapezoid sums of ``full_range_coefficients`` with the rounded
    products u(t) conj(phi(t - k)) w summed exactly by ``math.fsum``: a
    reference that each summation order meets within one sum's round-off."""
    g = u.quad_grid(quad_n)
    t = g.points()
    terms = u.evaluate(t) * np.conj(gen.evaluate(t - np.asarray(ks)[:, None])) * g.weights()
    return np.array([complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist())) for row in terms])


@pytest.mark.parametrize("kind", ["box", "hat", "cubic"])
def test_windowed_coefficients_match_full_range_route(kind):
    """Each coefficient is within one sum's round-off of the exactly summed
    trapezoid over the shift range of the whole list, and the Gram is the
    Toeplitz assembly C^H B C of those coefficients."""
    gen = make_generator(kind)
    d = dual_generator(gen, k_max=8)
    pick = np.random.default_rng(7)
    us = [
        AverageFunctional(float(x), float(pick.uniform(0.01, 0.5)), str(pick.choice(["box", "triangle", "cosine"])))
        for x in pick.uniform(-12.0, 12.0, 20)
    ]
    ks, cmat = _average_coefficients(gen, us)
    r = gen.support_radius
    lo, hi = min(u.support[0] for u in us), max(u.support[1] for u in us)
    assert np.array_equal(ks, np.arange(math.floor(lo - r), math.ceil(hi + r) + 1))
    for i, u in enumerate(us):
        exact = _exact_coefficients(gen, u, ks, 4097)
        assert np.all(np.abs(cmat[:, i] - exact) <= _round_off_bound(gen, u, ks, 4097))
    g_want = _toeplitz_gram(d, ks, cmat)
    g = si_gram(gen, d, us)
    assert np.max(np.abs(g.matrix - g_want)) <= 1e-15 * np.max(np.abs(g_want))


_functionals = st.lists(
    st.builds(
        AverageFunctional,
        st.floats(-8.0, 8.0),
        st.floats(0.01, 1.5),
        st.sampled_from(["box", "triangle", "cosine"]),
    ),
    min_size=1,
    max_size=6,
)


_RECORDED_DRAWS = [
    [AverageFunctional(0.0, 1.5, "box"), AverageFunctional(7.999999999999999, delta, "box")]
    for delta in (0.0164, 0.01639)
] + [[AverageFunctional(2.0, 1.0, "box"), AverageFunctional(4.0, 0.01, "box")]]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["box", "hat", "cubic"]),
    us=_functionals,
    quad_n=st.sampled_from([129, 513, 4097]),
    xi_n=st.integers(1, 300),
    j_trunc=st.integers(0, 64),
    k_range=st.integers(0, 12),
)
@example(kind="hat", us=_RECORDED_DRAWS[0], quad_n=4097, xi_n=1, j_trunc=0, k_range=0)
@example(kind="hat", us=_RECORDED_DRAWS[1], quad_n=4097, xi_n=1, j_trunc=0, k_range=0)
@example(kind="box", us=_RECORDED_DRAWS[2], quad_n=4097, xi_n=1, j_trunc=0, k_range=0)
def test_windowed_matrix_and_alias_loop_match_the_per_functional_oracle(kind, us, quad_n, xi_n, j_trunc, k_range):
    """Each column of the coefficient matrix is exactly 0 off its
    functional's window, where the full-range route is exactly 0 too. The
    library and the per-functional window and full-range routes sum in other
    orders; each is held within one sum's round-off of the exactly summed
    reference. The first example is the draw once recorded failing a direct
    comparison of the two oracle routes, 7.0e-17 apart against a one-sum
    bound of 5.8e-17; the second fails it with single-threaded OpenBLAS,
    6.8e-17 apart against 5.8e-17. The third failed the bound itself when the
    full-range route was a BLAS product over 4,097 nodes (66 against 64 eps
    sum|terms|); it now sums pairwise. The oracle's alias sum of the pow transform is a
    partial sum of the exact bracket: below it within 16 eps relative, and
    short of it by at most the alias tail. The blocked alias pass agrees with
    the per-alias exponentials summed functional by functional: each g_u
    within 64 eps sum_l |m phi_hat| (1 + |w x|), the round-off of the phases
    exp(-i w x) at the aliases w = xi + 2 pi l."""
    gen = make_generator(kind)
    r = gen.support_radius
    ks, cmat = _average_coefficients(gen, us, quad_n)
    lo = math.floor(min(u.support[0] for u in us) - r)
    assert np.array_equal(ks, np.arange(lo, math.ceil(max(u.support[1] for u in us) + r) + 1))
    for i, u in enumerate(us):
        ks_u, c_u = window_coefficients(gen, u, quad_n)
        inside = np.isin(ks, ks_u)
        assert np.all(cmat[~inside, i] == 0.0)
        full = full_range_coefficients(gen, u, ks, quad_n)
        assert np.all(full[~inside] == 0.0)
        exact, bound = _exact_coefficients(gen, u, ks, quad_n), _round_off_bound(gen, u, ks, quad_n)
        assert np.all(np.abs(cmat[:, i] - exact) <= bound)
        assert np.all(np.abs(full - exact) <= bound)
        assert np.all(np.abs(c_u - exact[inside]) <= bound[inside])

    xi = np.linspace(-math.pi, math.pi, xi_n)
    phi_hat = spline_transform_pow(ORDERS[kind])
    want, got = bracket_values(phi_hat, xi, j_trunc), bracket_function(gen, xi)
    assert np.all(want <= got * (1.0 + 16 * EPS))
    if j_trunc:
        assert np.all(got - want <= alias_tail(ORDERS[kind], j_trunc) + 16 * EPS * got)
    rows = _g_values(gen, us, xi, j_trunc)
    assert rows.shape == (len(us), xi_n)
    om = xi[:, None] + TWO_PI * np.arange(-j_trunc, j_trunc + 1)
    for row, u in zip(rows, us):
        scale = np.sum(np.abs(u.centered_transform(om) * phi_hat(om)) * (1.0 + np.abs(om * u.x)), axis=1)
        assert np.all(np.abs(row - g_alpha_values(phi_hat, u, xi, j_trunc)) <= 64 * EPS * scale)

    got = fourier_coefficient_identity_check(gen, us[0], k_range, quad_n=quad_n, xi_n=129)
    want = identity_deviation(gen, us[0], k_range, quad_n=quad_n, xi_n=129)
    assert abs(got - want) <= 64 * np.finfo(float).eps


def test_aliases_come_in_blocks_of_at_most_2_15_frequencies():
    """A block holds whole aliases, one at least, and at most
    max(2**12, rows * xi.size) frequencies, never more than 2**15."""
    xi = np.array([-1.0, 0.0, 2.5])
    blocks = list(_aliases(xi, 6_000, 1))
    # one row of three frequencies: 2**12 // 3 = 1,365 aliases a block
    assert [om.shape for _, om in blocks] == [(3, 1_365)] * 8 + [(3, 1_081)]
    assert np.array_equal(np.concatenate([ls for ls, _ in blocks]), np.arange(-6_000, 6_001))
    for ls, om in blocks:
        assert np.array_equal(om, xi[:, None] + TWO_PI * ls)
    assert blocks[0][1][1, 0] == -TWO_PI * 6_000 and blocks[-1][1][1, -1] == TWO_PI * 6_000
    # between the bounds a block is the size of the result: 2,000 rows x 3
    assert [om.shape for _, om in _aliases(xi, 6_000, 2_000)] == [(3, 2_000)] * 6 + [(3, 1)]
    # si-diagnose's identity check (1 x 1025) and density pass (4 x 257) take
    # blocks of 3 and 15 aliases; 1,024 functionals hit the 2**15 cap, 127
    # aliases of 257 frequencies
    for n, rows, chunk in ((1025, 1, 3), (257, 4, 15), (257, 20, 20), (257, 1_024, 127)):
        sizes = [ls.size for ls, _ in _aliases(np.linspace(-math.pi, math.pi, n), 64, rows)]
        assert sizes == [chunk] * (129 // chunk) + [129 % chunk] * (129 % chunk > 0)
    # one alias per block once xi alone holds more than 2**15 frequencies
    long_xi = np.linspace(-math.pi, math.pi, 2**15 + 1)
    for rows in (1, 300):
        blocks = [(ls.tolist(), om.shape) for ls, om in _aliases(long_xi, 1, rows)]
        assert blocks == [([l], (2**15 + 1, 1)) for l in (-1, 0, 1)]


# 1 to 300 functionals, each of one of up to four (delta, profile) shapes
_SHAPES = st.lists(
    st.tuples(st.floats(0.01, 1.5), st.sampled_from(["box", "triangle", "cosine"])), min_size=1, max_size=4
)
_FAMILIES = _SHAPES.flatmap(
    lambda shapes: st.lists(
        st.builds(lambda x, shape: AverageFunctional(x, *shape), st.floats(-8.0, 8.0), st.sampled_from(shapes)),
        min_size=1,
        max_size=300,
    )
)
_SI_FAMILY = [AverageFunctional(0.25 + 0.5 * i, 0.2, "triangle") for i in range(4)]


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["box", "hat", "cubic"]), us=_FAMILIES, xi_n=st.integers(1, 2**13), j_trunc=st.integers(0, 200)
)
@example(kind="cubic", us=_SI_FAMILY[:1], xi_n=1025, j_trunc=64)
@example(kind="cubic", us=_SI_FAMILY, xi_n=257, j_trunc=64)
def test_blocked_alias_pass_matches_the_one_block_oracle(kind, us, xi_n, j_trunc):
    """Blocks sized by the result take the same terms and phases as one
    block over every alias, bit for bit, and sum them in another order: a
    matrix-vector product per block, then the blocks. Each g_u is held
    within ALIAS_ORDER_BOUND eps sum_l |m phi_hat| of the one-block oracle. The two
    examples are si-diagnose's identity check and density pass."""
    gen = make_generator(kind)
    xi = np.linspace(-math.pi, math.pi, xi_n)
    got, want = _g_values(gen, us, xi, j_trunc), g_values_one_block(gen, us, xi, j_trunc)
    assert got.shape == want.shape == (len(us), xi_n)
    om = xi[:, None] + TWO_PI * np.arange(-j_trunc, j_trunc + 1)
    phi = np.abs(gen.transform(om))
    scales = {}
    for row, want_row, u in zip(got, want, us):
        key = (u.delta, u.profile_name)
        if key not in scales:
            scales[key] = np.sum(np.abs(u.centered_transform(om)) * phi, axis=1)
        assert np.all(np.abs(row - want_row) <= ALIAS_ORDER_BOUND * EPS * scales[key])


@pytest.mark.parametrize("route", ["identity", "density"])
def test_si_diagnose_alias_blocks_stay_small(route):
    """si-diagnose's identity check (one functional, 1025 frequencies) and
    density pass (4 functionals, 257 frequencies) at the benchmark's
    arguments. Blocks of 2**15 frequencies whatever the result peaked at
    2.0 MiB under tracemalloc in each; blocks sized by the result, at
    0.32 and 0.26 MiB."""
    import tracemalloc

    gen = make_generator("cubic")
    run = {
        "identity": lambda: fourier_coefficient_identity_check(gen, _SI_FAMILY[0], k_range=16),
        "density": lambda: density_diagnostic(gen, _SI_FAMILY, Grid(-math.pi, math.pi, 257)),
    }[route]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


# ------------------------------------------------------- coefficient identity

def test_identity_check_box_generator_box_profile():
    box = make_generator("box")
    # support [0.15, 0.45] keeps the profile clear of the generator jumps
    u = AverageFunctional(0.3, 0.15)
    dev = fourier_coefficient_identity_check(box, u, k_range=2, j_trunc=50_000, xi_n=65)
    assert dev < 1e-6


def test_identity_check_zero_profile_trivial():
    hat = make_generator("hat")
    zero_like = AverageFunctional(30.0, 0.2)  # disjoint from the window below
    assert np.max(np.abs(full_range_coefficients(hat, zero_like, np.arange(-2, 3)))) == 0.0
    ks, _ = _average_coefficients(hat, [zero_like])
    assert np.all(np.abs(ks) > 2)


def test_identity_check_hat_triangle_defaults_and_refinement():
    hat = make_generator("hat")
    u = AverageFunctional(0.25, 0.2, "triangle")
    dev = fourier_coefficient_identity_check(hat, u, k_range=4)
    assert dev < 1e-5
    dev2 = fourier_coefficient_identity_check(
        hat, u, k_range=4, j_trunc=128, quad_n=8193, xi_n=2049
    )
    assert dev2 < dev / 2.0


def test_identity_check_quadrature_transform_route():
    # the identity also holds at moderate truncation with the profile transform
    # taken by quadrature in place of the closed form; the frequencies
    # xi + 2 pi l, |l| <= J, form one uniform grid, which the oracle sums at once
    hat = make_generator("hat")
    u = AverageFunctional(0.25, 0.2, "triangle")
    j, ks = hat.j_trunc, np.arange(-2, 3)
    xi_grid = Grid(-math.pi, math.pi, 1025)
    xs, n = xi_grid.points(), xi_grid.n - 1
    uhat = quadrature_transform(u, -math.pi - TWO_PI * j, xi_grid.h, (2 * j + 1) * n + 1)
    ls = np.arange(2 * j + 1)
    om = xs[:, None] + TWO_PI * (ls - j)[None, :]
    g = np.sum(uhat[np.arange(n + 1)[:, None] + n * ls[None, :]] * np.conj(hat.transform(om)), axis=1)
    freq_side = fourier_sum(ks, xs, g * xi_grid.weights(), sign=1.0) / TWO_PI
    time_side = full_range_coefficients(hat, u, ks)
    dev = float(np.max(np.abs(time_side - freq_side)))
    assert dev < 1e-4


# ------------------------------------------- windowed synthesis vs full loops

def _dict_route_synthesis(gen, dual, coeffs, out_grid):
    """The dict-based route the windowed shift sums replace: phi~-shift
    coefficients expanded term by term through b, then accumulated on the
    support window of each phi-shift."""
    expanded = {}
    for k, ck in coeffs.items():
        if ck == 0.0:
            continue
        for l in range(-dual.k_max, dual.k_max + 1):
            b = dual.b_coeffs[l + dual.k_max]
            if b != 0.0:
                expanded[k + l] = expanded.get(k + l, 0.0) + ck * b
    y = out_grid.points()
    out = np.zeros(out_grid.n, dtype=complex)
    r = gen.support_radius
    for m, cm in expanded.items():
        if cm == 0.0:
            continue
        lo = np.searchsorted(y, m - r, side="left")
        hi = np.searchsorted(y, m + r, side="right")
        if lo < hi:
            out[lo:hi] += cm * gen.evaluate(y[lo:hi] - m)
    return out


@pytest.mark.parametrize("kind", ["hat", "cubic"])
def test_shift_sum_evaluates_phi_once_per_distinct_offsets(kind):
    """The dual's grid is aligned with the integers, so every shift's window
    holds the same offsets and phi is evaluated once. Off the lattice every
    window holds its own offsets, and the kernel section is the per-shift
    loop bit for bit."""
    plain = make_generator(kind)
    sizes = []

    def counting(x):
        sizes.append(np.size(x))
        return plain.phi_fn(x)

    gen = dataclasses.replace(plain, phi_fn=counting)
    # the support check samples a band of width one on each side
    assert sizes == [2048]
    sizes.clear()
    d = dual_generator(gen, k_max=6)
    assert sizes == []  # the dual is its coefficients
    assert np.array_equal(dual_on_grid(d).values, dual_on_grid(dual_generator(plain, k_max=6)).values)
    assert sizes == [2048 * plain.support_radius + 1]

    u = AverageFunctional(0.3, 0.4, "cosine")
    out = Grid(-9.0, 9.0, 1001)
    ks, c = _average_coefficients(plain, [u])
    want = per_shift_sum(plain, int(ks[0]) - d.k_max, np.convolve(c[:, 0], d.b_coeffs), out)
    sizes.clear()
    assert np.array_equal(si_functional_kernel(gen, d, u, out).values[:, 0], want)
    # one evaluation per shift of the coefficient window, then one per shift
    # of the synthesis
    assert len(sizes) == 2 * ks.size + 2 * d.k_max


def _assert_rel_close(got, want, rel=1e-13):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["box", "hat", "cubic"]),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=8, max_value=40),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.01, max_value=0.5),
    st.sampled_from(["box", "triangle", "cosine"]),
)
def test_windowed_shift_sums_match_full_grid_loops(kind, k_max, density, x, center, delta, profile):
    """The dual on its grid and both kernels agree with the full-grid and
    dict-based routes that they replace, and the biorthogonality residual
    with the pairings sum_k b_k a_{j - k} summed one term at a time."""
    gen = make_generator(kind)
    r = gen.support_radius
    d = dual_generator(gen, k_max)
    dual = dual_on_grid(d)
    pts = dual.grid.points()
    want = np.zeros(pts.size, dtype=complex)
    for i, k in enumerate(range(-k_max, k_max + 1)):
        want += d.b_coeffs[i] * gen.evaluate(pts - k)
    assert np.array_equal(dual.values[:, 0], want)

    t_half = r + k_max + 4.0
    out = Grid(-t_half, t_half, int(2 * t_half * density) + 1)
    point = {}
    for k in range(math.ceil(x - r), math.floor(x + r) + 1):
        point[k] = complex(np.conj(gen.evaluate(np.array([x - k]))[0]))
    _assert_rel_close(
        si_reproducing_kernel(gen, d, x, out).values[:, 0], _dict_route_synthesis(gen, d, point, out)
    )

    u = AverageFunctional(center, delta, profile)
    g = u.quad_grid(4097)
    t = g.points()
    average = {}
    for k in range(math.floor(center - delta - r), math.ceil(center + delta + r) + 1):
        average[k] = complex(integrate_values(g, u.evaluate(t) * np.conj(gen.evaluate(t - k))))
    _assert_rel_close(
        si_functional_kernel(gen, d, u, out).values[:, 0], _dict_route_synthesis(gen, d, average, out)
    )

    shifts = range(-(k_max + r + 1), k_max + r + 2)
    a = gen.autocorrelation
    worst = scale = 0.0
    for j in shifts:
        terms = [b * a[abs(j - k)] for b, k in zip(d.b_coeffs, range(-k_max, k_max + 1)) if abs(j - k) < len(a)]
        worst = max(worst, abs(sum(terms) - (1.0 if j == 0 else 0.0)))
        scale = max(scale, sum(abs(term) for term in terms))
    assert abs(biorthogonality_residual(d, shifts) - worst) <= 4 * EPS * scale
