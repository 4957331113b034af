import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from opkern.core import Grid, GridFunction, inner_product, integrate_values, norm, rng
from opkern.exceptions import DomainError, RieszConditionError, ValidationError
from opkern.families import AverageFunctional, average_sample
from opkern.kernels import psd_check
from opkern.shift_invariant import (
    Generator,
    _aliases,
    _average_coefficients,
    _g_values,
    _toeplitz,
    biorthogonality_residual,
    bracket_function,
    bracket_tail_estimate,
    bspline,
    bspline_transform,
    density_diagnostic,
    dual_generator,
    fourier_coefficient_identity_check,
    make_generator,
    si_functional_kernel,
    si_gram,
)
from quadrature_oracle import fourier_sum, quadrature_transform
from shift_oracle import (
    full_range_coefficients,
    g_alpha_values,
    identity_deviation,
    si_reproducing_kernel,
    window_coefficients,
)

TWO_PI = 2.0 * math.pi


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
    g = Grid(-2.0, 2.0, 257)
    wide_hat = np.maximum(1.0 - np.abs(g.points()) / 2.0, 0.0)
    hat = make_generator("hat")
    rules = {"phi_fn": hat.phi_fn, "phi_hat": hat.phi_hat}
    with pytest.raises(ValidationError):
        Generator(phi=GridFunction(g, wide_hat.astype(complex)), support_radius=1, **rules)
    # the unit hat vanishes beyond radius 1, so a wider sampling grid is fine
    Generator(phi=GridFunction(g, bspline(2, g.points()).astype(complex)), support_radius=1, **rules)


# ------------------------------------------------------------------- bracket

def test_box_bracket_is_one_within_tail():
    box = make_generator("box")
    xi = np.linspace(-math.pi, math.pi, 65)
    vals = bracket_function(box, xi)
    tail = bracket_tail_estimate(box)
    assert np.max(np.abs(vals - 1.0)) <= 1.5 * tail
    # Poisson-summation oracle: the periodization equals the autocorrelation
    # series sum_m <phi, phi(.-m)> e^{-i m xi}; for the unit box the exact
    # correlations are 1 at lag zero and 0 at the unit lags, so the full
    # periodization is identically one and the truncated values approach it
    # as the truncation deepens
    deep = Generator(
        phi=box.phi,
        support_radius=box.support_radius,
        j_trunc=512,
        decay_order=1,
        phi_fn=box.phi_fn,
        phi_hat=box.phi_hat,
    )
    deep_vals = bracket_function(deep, xi)
    assert np.max(np.abs(deep_vals - 1.0)) < np.max(np.abs(vals - 1.0)) / 4.0


def test_hat_bracket_closed_form():
    hat = make_generator("hat")
    assert bracket_function(hat, np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-10)
    assert bracket_function(hat, np.array([math.pi]))[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
    xi = np.linspace(-math.pi, math.pi, 129)
    closed = (2.0 + np.cos(xi)) / 3.0
    assert np.max(np.abs(bracket_function(hat, xi) - closed)) <= 1.5 * bracket_tail_estimate(hat)


def test_bracket_rejects_vanishing_generator():
    g = Grid(-1.0, 1.0, 257)
    zero = Generator(
        phi=GridFunction(g, np.zeros((257, 1))),
        support_radius=1,
        phi_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        phi_hat=lambda w: np.zeros_like(np.asarray(w, dtype=float)).astype(complex),
    )
    with pytest.raises(RieszConditionError):
        bracket_function(zero, np.array([0.0, 1.0]))


# -------------------------------------------------------------- dual generator

def test_box_dual_is_identity_within_tail():
    box = make_generator("box")
    d = dual_generator(box, k_max=8)
    tol = 3.0 * bracket_tail_estimate(box)
    assert abs(d.b_coeffs[8] - 1.0) < tol
    others = np.delete(d.b_coeffs, 8)
    assert np.max(np.abs(others)) < tol


def test_hat_dual_coefficients_symmetric_decaying():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=20)
    b = d.b_coeffs
    assert b[20].real > 0
    assert np.max(np.abs(b.imag)) < 1e-12
    assert np.max(np.abs(b - b[::-1])) < 1e-12
    # exponential decay: ratio between lags 5 apart
    assert abs(b[20 + 15]) < 1e-3 * abs(b[20 + 5])
    # closed form for the zero lag: (1/2pi) int 3/(2+cos) = sqrt(3);
    # the truncated periodization shifts it by its own tail scale
    assert b[20].real == pytest.approx(math.sqrt(3.0), abs=1e-6)


def test_hat_biorthogonality():
    hat = make_generator("hat")
    d = dual_generator(hat, k_max=20)
    pts = d.phi_tilde.grid.points()
    g = d.phi_tilde.grid
    worst = 0.0
    for j in range(-4, 5):
        val = integrate_values(g, np.conj(hat.evaluate(pts - j)) * d.phi_tilde.values[:, 0])
        worst = max(worst, abs(val - (1.0 if j == 0 else 0.0)))
    assert worst < 1e-6


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
    tol = 5.0 * bracket_tail_estimate(box)
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
    tol = 5.0 * bracket_tail_estimate(box) + 1e-3
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


def _full_range_gram(gen, dual, u_list, quad_n):
    """The route the per-functional windows replace: every functional's
    coefficients over the shift range of the whole list, then C^H B C with
    B from scipy's Toeplitz."""
    r = gen.support_radius
    lo = min(u.support[0] for u in u_list)
    hi = max(u.support[1] for u in u_list)
    ks = np.arange(math.floor(lo - r), math.ceil(hi + r) + 1)
    cmat = np.empty((ks.size, len(u_list)), dtype=complex)
    for i, u in enumerate(u_list):
        cmat[:, i] = full_range_coefficients(gen, u, ks, quad_n)

    def b_of_lag(lag):
        return dual.b_coeffs[lag + dual.k_max] if abs(lag) <= dual.k_max else 0.0

    bmat = toeplitz([b_of_lag(-i) for i in range(ks.size)], [b_of_lag(i) for i in range(ks.size)])
    m = cmat.conj().T @ bmat @ cmat
    return ks, cmat, (m + m.conj().T) / 2.0


def _round_off_bound(gen, u, ks, quad_n):
    """64 eps sum |u phi(. - k)| w for each shift k: the round-off of one
    trapezoid sum of the coefficient in any summation order."""
    g = u.quad_grid(quad_n)
    t = g.points()
    return 64 * np.finfo(float).eps * (np.abs(u.evaluate(t)[None, :] * gen.evaluate(t - ks[:, None])) @ g.weights())


@pytest.mark.parametrize("kind", ["box", "hat", "cubic"])
def test_windowed_coefficients_match_full_range_route(kind):
    gen = make_generator(kind, h=1.0 / 128.0)
    d = dual_generator(gen, k_max=8)
    pick = np.random.default_rng(7)
    us = [
        AverageFunctional(float(x), float(pick.uniform(0.01, 0.5)), str(pick.choice(["box", "triangle", "cosine"])))
        for x in pick.uniform(-12.0, 12.0, 20)
    ]
    ks_want, c_want, g_want = _full_range_gram(gen, d, us, quad_n=513)
    ks, cmat = _average_coefficients(gen, us, quad_n=513)
    assert np.array_equal(ks, ks_want)
    # the per-window products may sum in another BLAS order
    for i, u in enumerate(us):
        assert np.all(np.abs(cmat[:, i] - c_want[:, i]) <= _round_off_bound(gen, u, ks, 513))
    g = si_gram(gen, d, us, quad_n=513)
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


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["box", "hat", "cubic"]),
    us=_functionals,
    quad_n=st.sampled_from([129, 513, 4097]),
    xi_n=st.integers(1, 300),
    j_trunc=st.integers(0, 64),
    k_range=st.integers(0, 12),
)
def test_windowed_matrix_and_alias_loop_match_the_per_functional_oracle(kind, us, quad_n, xi_n, j_trunc, k_range):
    """Each column of the coefficient matrix is the per-functional window
    route bit for bit and exactly 0 off its window, where the full-range
    route is exactly 0 too; inside the window the full-range route sums in
    another BLAS order, so it agrees within round-off. Each row of the alias
    loop is the per-functional sum bit for bit."""
    gen = make_generator(kind)
    r = gen.support_radius
    ks, cmat = _average_coefficients(gen, us, quad_n)
    lo = math.floor(min(u.support[0] for u in us) - r)
    assert np.array_equal(ks, np.arange(lo, math.ceil(max(u.support[1] for u in us) + r) + 1))
    for i, u in enumerate(us):
        ks_u, c_u = window_coefficients(gen, u, quad_n)
        inside = np.isin(ks, ks_u)
        assert np.array_equal(cmat[inside, i], c_u)
        assert np.all(cmat[~inside, i] == 0.0)
        full = full_range_coefficients(gen, u, ks, quad_n)
        assert np.all(full[~inside] == 0.0)
        assert np.all(np.abs(cmat[:, i] - full) <= _round_off_bound(gen, u, ks, quad_n))

    xi = np.linspace(-math.pi, math.pi, xi_n)
    rows = _g_values(gen, us, xi, j_trunc)
    assert rows.shape == (len(us), xi_n)
    for row, u in zip(rows, us):
        assert np.array_equal(row, g_alpha_values(gen, u, xi, j_trunc))

    got = fourier_coefficient_identity_check(gen, us[0], k_range, quad_n=quad_n, xi_n=129)
    want = identity_deviation(gen, us[0], k_range, quad_n=quad_n, xi_n=129)
    assert abs(got - want) <= 64 * np.finfo(float).eps


def test_aliases_come_in_blocks_of_at_most_4e6_frequencies():
    xi = np.array([-1.0, 0.0, 2.5])
    blocks = list(_aliases(xi, 700_000))
    assert [b.shape for b in blocks] == [(3, 1_333_333), (3, 66_668)]
    for b in blocks:
        assert np.array_equal(b[1], TWO_PI * np.rint(b[1] / TWO_PI))
    assert blocks[0][1, 0] == -TWO_PI * 700_000 and blocks[-1][1, -1] == TWO_PI * 700_000
    assert np.array_equal(blocks[-1][:, -1], xi + TWO_PI * 700_000)


def test_toeplitz_matches_scipy():
    pick = np.random.default_rng(11)
    for n_col, n_row in ((1, 1), (1, 5), (6, 1), (7, 7), (9, 4), (3, 12)):
        col = pick.standard_normal(n_col) + 1j * pick.standard_normal(n_col)
        row = pick.standard_normal(n_row) + 1j * pick.standard_normal(n_row)
        assert np.array_equal(_toeplitz(col, row), toeplitz(col, row))


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
    """The dual, both kernels and the biorthogonality residual agree with the
    full-grid and dict-based routes that they replace."""
    gen = make_generator(kind)
    r = gen.support_radius
    d = dual_generator(gen, k_max)
    pts = d.phi_tilde.grid.points()
    want = np.zeros(pts.size, dtype=complex)
    for i, k in enumerate(range(-k_max, k_max + 1)):
        want += d.b_coeffs[i] * gen.evaluate(pts - k)
    assert np.array_equal(d.phi_tilde.values[:, 0], want)

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
    w = d.phi_tilde.grid.weights()
    worst = 0.0
    for j in shifts:
        overlap = np.conj(gen.evaluate(pts - j)) * d.phi_tilde.values[:, 0]
        val = np.sum(w * overlap)
        worst = max(worst, abs(val - (1.0 if j == 0 else 0.0)))
    assert abs(biorthogonality_residual(d, shifts) - worst) <= 1e-15
