import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from opkern.core import Grid, GridFunction, integrate_values
from opkern.exceptions import DomainError, ShapeMismatchError, ValidationError
from opkern.families import (
    _FAMILY_KINDS,
    PROFILES,
    AverageFunctional,
    AverageSamplingFamily,
    FourierCoefficientFamily,
    PointEvaluationFamily,
    PointInnerFamily,
    SampleSet,
    average_sample,
    family_from_descriptor,
    fourier_coefficients,
    fourier_indices,
    fourier_period,
    fourier_rows,
    fourier_synthesis,
    interpolate_values,
)
from opkern.paley_wiener import BandlimitedSignal, fourier_series, pw_features, pw_window
from quadrature_oracle import fourier_sum, quadrature_transform

TWO_PI = 2.0 * math.pi


def test_profiles_have_unit_mass():
    for name in ("box", "triangle", "cosine"):
        u = AverageFunctional(0.7, 0.3, name)
        g = u.quad_grid(8193)
        mass = integrate_values(g, u.evaluate(g.points()))
        assert mass.real == pytest.approx(1.0, abs=1e-8)
        assert np.all(u.evaluate(g.points()) >= 0.0)


def test_profile_support_is_local():
    u = AverageFunctional(2.0, 0.25)
    t = np.array([1.5, 1.74, 2.26, 3.0])
    assert np.all(u.evaluate(t) == 0.0)


def test_invalid_profile_rejected():
    with pytest.raises(ValidationError):
        AverageFunctional(0.0, 0.2, "gauss")
    with pytest.raises(ValidationError):
        AverageFunctional(0.0, -0.1)


def test_transform_quadrature_matches_closed_form():
    for name in ("box", "triangle", "cosine"):
        u = AverageFunctional(1.3, 0.2, name)
        w = np.linspace(-math.pi, math.pi, 101)
        quad = quadrature_transform(u, -math.pi, TWO_PI / 100, 101)
        closed = u.transform(w)
        assert np.max(np.abs(quad - closed)) < 1e-7
        inv_quad = quadrature_transform(u, -math.pi, TWO_PI / 100, 101, sign=1.0) / TWO_PI
        inv_closed = u.inverse_transform(w)
        assert np.max(np.abs(inv_quad - inv_closed)) < 1e-8


def test_average_sample_constant():
    g = Grid(-4.0, 4.0, 513)
    f = GridFunction.from_callable(g, lambda x: np.full_like(x, 2.5, dtype=complex))
    u = AverageFunctional(0.5, 0.2)
    assert average_sample(f, u) == pytest.approx(2.5, abs=1e-10)


def test_average_sample_linear_symmetric():
    g = Grid(-4.0, 4.0, 513)
    f = GridFunction.from_callable(g, lambda x: x.astype(complex))
    for name in ("box", "triangle", "cosine"):
        u = AverageFunctional(1.25, 0.3, name)
        assert average_sample(f, u) == pytest.approx(1.25, abs=1e-9)


def test_average_sample_sinc_against_highres_oracle():
    # frozen from a 10^6-point trapezoid of sinc against the box profile:
    # (1/0.4) * int_{-0.2}^{0.2} sin(pi t)/(pi t) dt
    oracle = 0.9783255667786774
    g = Grid(-8.0, 8.0, 2049)
    f = GridFunction.from_callable(g, lambda x: np.sinc(x).astype(complex))
    u = AverageFunctional(0.0, 0.2)
    err8 = abs(average_sample(f, u, refine=8).real - oracle)
    err32 = abs(average_sample(f, u, refine=32).real - oracle)
    assert err8 < 5e-7
    assert err32 < err8 / 8.0  # second-order local quadrature


def test_average_sample_domain_error():
    g = Grid(-1.0, 1.0, 65)
    f = GridFunction.from_callable(g, lambda x: x.astype(complex))
    with pytest.raises(DomainError):
        average_sample(f, AverageFunctional(0.95, 0.2))


def test_average_sample_mean_value_bracketing():
    # real signal, symmetric profile: the average stays between the local
    # extrema of the signal over the support window
    g = Grid(-6.0, 6.0, 1537)
    f = GridFunction.from_callable(g, lambda x: np.cos(1.3 * x).astype(complex))
    rngx = np.random.default_rng(2)
    for _ in range(20):
        x0 = float(rngx.uniform(-4, 4))
        u = AverageFunctional(x0, 0.3, "triangle")
        val = average_sample(f, u).real
        t = np.linspace(x0 - 0.3, x0 + 0.3, 513)
        assert np.min(np.cos(1.3 * t)) - 1e-9 <= val <= np.max(np.cos(1.3 * t)) + 1e-9


def _per_centre_average_sample(f, u, refine=8, interp="cubic"):
    """The per-centre route that average_samples replaces: a spline over the
    whole signal grid for every centre."""
    lo, hi = u.support
    sub = Grid(lo, hi, max(int(math.ceil((hi - lo) / f.grid.h * refine)), 16) + 1)
    t = sub.points()
    return integrate_values(sub, interpolate_values(f, t, method=interp) * u.evaluate(t)[:, None])


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["box", "triangle", "cosine"]),
    st.sampled_from(["cubic", "linear"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.01, max_value=0.5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_average_samples_equal_per_centre_loop(profile, interp, dim, count, delta, seed):
    """One spline for all centres gives the very samples of one spline per
    centre: spline evaluation is elementwise."""
    gen = np.random.default_rng(seed)
    g = Grid(-3.0, 3.0, int(gen.integers(65, 800)))
    f = GridFunction(g, gen.standard_normal((g.n, dim)) + 1j * gen.standard_normal((g.n, dim)))
    centres = gen.uniform(-3.0 + delta, 3.0 - delta, count)
    fam = AverageSamplingFamily(delta=delta, profile=profile, interp=interp)
    want = np.stack([_per_centre_average_sample(f, fam.functional(c), interp=interp) for c in centres])
    assert np.array_equal(fam.apply_all(centres, f), want)
    assert np.array_equal(fam.apply(centres[-1], f), want[-1])


def test_fourier_family_orthonormal_coefficients():
    fam = FourierCoefficientFamily()
    g = Grid(0.0, TWO_PI, 257)
    f = GridFunction.from_callable(g, lambda x: np.exp(3j * x) / math.sqrt(TWO_PI))
    assert fam.apply(3, f)[0] == pytest.approx(1.0, abs=1e-8)
    assert abs(fam.apply(2, f)[0]) < 1e-8


def _per_index_fourier_coefficient(j, f):
    """The per-index formula apply_all replaced: (1/sqrt(2pi)) sum_k w_k f(x_k)
    exp(-i j x_k), one dense exponential per index."""
    x = f.grid.points()
    return (np.exp(-1j * j * x) * f.grid.weights()) @ f.values / math.sqrt(TWO_PI)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-300, max_value=300), min_size=1, max_size=40),
    st.integers(min_value=2, max_value=1200),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([5, -3, 5, 0, 240, -17], 257, 1, 0)
def test_fourier_apply_all_matches_per_index_formula(indices, n, dim, seed):
    """One FFT over the residues against the per-index loop, for unsorted,
    repeated and gapped index lists."""
    gen = np.random.default_rng(seed)
    g = Grid(0.0, TWO_PI, n)
    f = GridFunction(g, gen.standard_normal((n, dim)) + 1j * gen.standard_normal((n, dim)))
    fam = FourierCoefficientFamily()
    want = np.stack([_per_index_fourier_coefficient(j, f) for j in indices])
    got = fam.apply_all(indices, f)
    scale = np.sum(np.abs(f.values) * g.weights()[:, None], axis=0) / math.sqrt(TWO_PI)
    assert got.shape == (len(indices), dim)
    assert np.all(np.abs(got - want) <= 1e-11 * scale)
    assert np.all(np.abs(fam.apply(indices[0], f) - want[0]) <= 1e-11 * scale)


def test_fourier_apply_all_takes_a_wide_span_without_allocating_it():
    """A span of 2**20 integers was refused, since the chirp-z sum over it
    would have needed a buffer of its size; the FFT over residues takes it
    in the memory of the grid."""
    import tracemalloc

    g = Grid(0.0, TWO_PI, 65)
    f = GridFunction(g, np.exp(1j * np.arange(65.0)))
    fam = FourierCoefficientFamily()
    indices = [-1, 2**20 - 1]
    assert fam.apply_all([], f).shape == (0, 1)
    tracemalloc.start()
    try:
        got = fam.apply_all(indices, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the oracle's phase j x_k is rounded at |j x_k| ~ 6.6e6, so it is taken
    # at the residue, which gives the same exp(-i j x_k) on this grid
    want = np.stack([_per_index_fourier_coefficient(j % 64, f) for j in indices])
    scale = np.sum(np.abs(f.values) * g.weights()[:, None], axis=0) / math.sqrt(TWO_PI)
    assert np.all(np.abs(got - want) <= 1e-11 * scale)


def test_fourier_apply_all_reduces_a_sparse_wide_span_on_the_periodic_grid():
    """On [0, 2pi] the trapezoid sum is (n - 1)-periodic in j, so two
    indices 2**20 - 1 apart take one FFT of n - 1 points instead of one
    chirp-z sum over the whole span (176 MiB before)."""
    import tracemalloc

    n = 4097
    g = Grid(0.0, TWO_PI, n)
    gen = np.random.default_rng(7)
    f = GridFunction(g, gen.standard_normal((n, 1)) + 1j * gen.standard_normal((n, 1)))
    indices = [0, 2**20 - 1]
    fam = FourierCoefficientFamily()
    tracemalloc.start()
    try:
        got = fam.apply_all(indices, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    want = np.stack([_per_index_fourier_coefficient(j, f) for j in indices])
    scale = np.sum(np.abs(f.values) * g.weights()[:, None], axis=0) / math.sqrt(TWO_PI)
    assert np.all(np.abs(got - want) <= 1e-11 * scale)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-300, 300), st.integers(-(2**70), 2**70), st.sampled_from([2**20, -(2**20), 10**400])),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=2, max_value=1500),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([0, 2**21, 2**20 - 1, -1, 10**400], 129, 2, 0)
@example([7, 7, 3], 2, 1, 1)
def test_fourier_sampling_is_the_adjoint_of_synthesis(indices, n, dim, seed):
    """For any integer indices (beyond 2**20, beyond int64, repeated) and
    any f: c^H apply_all(f) = <f, sum_j c_j K_j> under the trapezoid
    weights, each column of f; apply_all matches the per-index formula;
    and on distinct residues sampling undoes synthesis within
    4 eps sum|c_j|. The chirp-z sum refused spans above 2**20, and its
    round trip was off by up to 9.0e-13 sum|c_j| on spans of 5(n - 1)."""
    gen = np.random.default_rng(seed)
    g = Grid(0.0, TWO_PI, n)
    f = GridFunction(g, gen.standard_normal((n, dim)) + 1j * gen.standard_normal((n, dim)))
    c = gen.standard_normal(len(indices)) + 1j * gen.standard_normal(len(indices))
    fam = FourierCoefficientFamily()
    got = fam.apply_all(indices, f)
    assert got.shape == (len(indices), dim)
    scale = np.sum(np.abs(f.values) * g.weights()[:, None], axis=0) / math.sqrt(TWO_PI)
    oracle_indices = [j % (n - 1) for j in indices]
    want = np.stack([_per_index_fourier_coefficient(j, f) for j in oracle_indices])
    assert np.all(np.abs(got - want) <= 1e-11 * scale)
    synth = fourier_synthesis(indices, c, g)
    pairing = (synth.conj() * g.weights()) @ f.values
    assert np.all(np.abs(c.conj() @ got - pairing) <= 1e-12 * np.sum(np.abs(c)) * scale)
    residues = {j % (n - 1) for j in indices}
    if len(residues) == len(indices):
        back = fam.apply_all(indices, GridFunction(g, synth))[:, 0]
        assert np.all(np.abs(back - c) <= 4 * np.finfo(float).eps * np.sum(np.abs(c)))


_PERIODS = {"0..2pi": (0.0, TWO_PI), "-pi..pi": (-math.pi, math.pi)}


@settings(max_examples=80, deadline=None)
@given(
    period=st.sampled_from(sorted(_PERIODS)),
    indices=st.lists(st.one_of(st.integers(-300, 300), st.integers(-(2**70), 2**70)), min_size=1, max_size=20),
    offset=st.one_of(st.integers(-300, 300), st.integers(-(2**62), 2**62)),
    n=st.integers(2, 600),
    seed=st.integers(0, 2**32 - 1),
)
@example(period="-pi..pi", indices=[2**63, 2**63 + 1, -(2**64) - 1, 10**400 + 1, 5, 0], offset=2**62 + 1, n=129, seed=0)
@example(period="-pi..pi", indices=[1, 2, 3], offset=-3, n=2, seed=1)
@example(period="-pi..pi", indices=[0], offset=0, n=279, seed=0)  # one mode, FFT round-off alone
def test_periodic_fourier_routes_match_the_dense_sum(period, indices, offset, n, seed):
    """``fourier_coefficients`` times the signs of ``fourier_period``, and
    ``fourier_series``, on both periods against the dense sum of
    ``quadrature_oracle.fourier_sum`` over the grid's own points. On either
    period exp(i j x_k) is 2(n - 1)-periodic in j, and the reduction keeps
    the parity that the signs on [-pi, pi] read, so the oracle takes
    j mod 2(n - 1) (beyond n - 1, beyond int64, odd and even). The oracle
    rounds its phases j x_k and the FFT of length n - 1 rounds like
    log2(n): over 1,198 random draws (n 2..600, both periods, a third of the
    series a single mode) the routes were within 0.33 (coefficients) and
    1.65 (series) times eps (max|j x_k| + log2 n) sum|a| of the oracle; the
    bound allows 4 times that."""
    a, b = _PERIODS[period]
    grid = Grid(a, b, n)
    x, p = grid.points(), n - 1
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    signs, base = fourier_period(indices, grid)
    assert base == Grid(0.0, TWO_PI, n)
    got = fourier_coefficients(indices, v, base) * signs
    reduced = np.array([j % (2 * p) for j in indices], dtype=float)
    want = fourier_sum(reduced, x, v * grid.weights()) / math.sqrt(TWO_PI)
    scale = np.sum(np.abs(v) * grid.weights()) / math.sqrt(TWO_PI)
    bound = 4 * np.finfo(float).eps * (reduced.max() * np.abs(x).max() + math.log2(n))
    assert np.all(np.abs(got - want) <= bound * scale)

    c = gen.standard_normal(len(indices)) + 1j * gen.standard_normal(len(indices))
    signal = BandlimitedSignal(c, offset, pw_window(1))
    got = fourier_series(signal, grid).values[:, 0]
    modes = np.array([k % (2 * p) for k in range(offset, offset + len(c))], dtype=float)
    want = fourier_sum(x, modes, c, sign=1.0) / math.sqrt(TWO_PI)
    bound = 4 * np.finfo(float).eps * (modes.max() * np.abs(x).max() + math.log2(n))
    assert np.all(np.abs(got - want) <= bound * np.sum(np.abs(c)) / math.sqrt(TWO_PI))


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-math.pi, math.pi * (1.0 + 1e-15)), (math.pi, 3 * math.pi)])
def test_a_fourier_period_is_0_to_2pi_or_minus_pi_to_pi(a, b):
    """Only the two periods that the library passes carry the periodic
    trapezoid sums; any other grid is refused by ``fourier_period``, and so
    by ``fourier_series``. The [-pi, pi] check of the Paley-Wiener features
    has the same exact endpoints: it took any grid within 1e-9 of them, which
    ``fourier_period`` then refused."""
    grid = Grid(a, b, 65)
    signal = BandlimitedSignal.symmetric(np.ones(3), pw_window(1))
    with pytest.raises(DomainError):
        fourier_period([0, 1], grid)
    with pytest.raises(DomainError):
        fourier_series(signal, grid)
    with pytest.raises(DomainError, match="feature grid must span exactly"):
        pw_features([0.0], grid)


@pytest.mark.parametrize("bad", [1.5, -0.25, math.inf, math.nan, "2"], ids=["1.5", "-0.25", "inf", "nan", "string"])
def test_fourier_indices_that_are_not_integers_are_refused(bad):
    """A fractional index was truncated: apply_all([1.5], f) returned the
    j = 1 coefficient, and basis_function(inf) raised OverflowError."""
    g = Grid(0.0, TWO_PI, 65)
    fam = FourierCoefficientFamily()
    with pytest.raises(ValidationError):
        fam.apply_all([0, bad], GridFunction(g, np.ones(65)))
    with pytest.raises(ValidationError):
        fam.basis_function(bad, g)
    with pytest.raises(ValidationError):
        fourier_rows([bad], g)
    with pytest.raises(ValidationError):
        fourier_synthesis([bad], [1.0], g)


def test_fourier_indices_keep_integral_values_of_any_type():
    assert fourier_indices([3, np.int64(-2), 4.0, np.float64(-7.0), 10**400]) == [3, -2, 4, -7, 10**400]
    g = Grid(0.0, TWO_PI, 65)
    assert np.array_equal(fourier_rows([3.0, np.int64(3)], g), fourier_rows([3, 3], g))


def test_basis_function_of_a_huge_index_is_the_row_of_its_residue():
    """exp(i j x_k) depends on j only mod n - 1 on [0, 2pi]; 10**400 raised
    OverflowError when it was cast to a float."""
    g = Grid(0.0, TWO_PI, 257)
    fam = FourierCoefficientFamily()
    for j in (10**400, -(10**400), 2**70, 2**63):
        got = fam.basis_function(j, g).values
        assert np.array_equal(got, fam.basis_function(j % 256, g).values)


@pytest.mark.parametrize(
    "a,b", [(-math.pi, math.pi), (0.0, TWO_PI * (1.0 + 1e-15)), (0.0, 1.0)], ids=["band", "round-off", "unit"]
)
def test_fourier_rows_refuse_a_grid_other_than_0_to_2pi(a, b):
    """The table of roots of unity holds only on [0, 2pi] exactly."""
    g = Grid(a, b, 65)
    with pytest.raises(DomainError):
        FourierCoefficientFamily().basis_function(0, g)
    with pytest.raises(DomainError):
        fourier_rows([0, 1], g)
    with pytest.raises(DomainError):
        fourier_synthesis([0, 1], [1.0, 1.0], g)
    with pytest.raises(DomainError):
        fourier_coefficients([0, 1], np.ones(65), g)
    with pytest.raises(DomainError):
        FourierCoefficientFamily().apply_all([0, 1], GridFunction(g, np.ones(65)))


def test_fourier_synthesis_sums_by_residue_and_repeats_the_first_point():
    """On two points every index is one residue class, so the synthesis is
    the coefficient sum at both ends; an index beyond int64 is reduced
    mod n - 1 like any other, and a coefficient count that does not match
    the indices is refused."""
    two = Grid(0.0, TWO_PI, 2)
    got = fourier_synthesis([5, -3, 10**400], [1.0, 2j, -0.5], two)
    assert np.allclose(got, (0.5 + 2j) / math.sqrt(TWO_PI), rtol=0.0, atol=1e-16)
    g = Grid(0.0, TWO_PI, 257)
    c = np.array([0.3 - 1j, 2.0, 1j])
    big = fourier_synthesis([10**400, -(2**70), 7], c, g)
    assert np.array_equal(big, fourier_synthesis([10**400 % 256, -(2**70) % 256, 7], c, g))
    assert big[-1] == big[0]
    with pytest.raises(ShapeMismatchError):
        fourier_synthesis([0, 1], [1.0], g)


@pytest.mark.filterwarnings("error")
def test_average_functional_refuses_an_overflowing_peak_and_a_nan_mass(monkeypatch):
    """A width whose peak 1/delta is not finite is refused before the
    profile is evaluated, and the mass test fails a NaN mass."""
    for delta in (5e-324, 1e-310, math.nan, -0.0):
        with pytest.raises(ValidationError, match="finite profile peak"):
            AverageFunctional(0.0, delta, "triangle")
    assert AverageFunctional(0.0, 1e-308, "triangle").delta == 1e-308
    monkeypatch.setitem(PROFILES, "box", lambda delta: lambda t: np.full(np.shape(t), math.nan))
    with pytest.raises(ValidationError, match="mass nan"):
        AverageFunctional(0.0, 0.2, "box")


def test_average_functional_mass_check_resolves_the_centre():
    """The unit-mass check runs on the profile's own 4097-point grid around
    its centre, so at a large centre the grid's round-off moves the mass: the
    box at x = 1e9 has mass 0.99976 and is refused. A mass cached per
    (profile, delta) would accept it."""
    with pytest.raises(ValidationError, match="mass"):
        AverageFunctional(1e9, 0.2, "box")
    AverageFunctional(1e6, 0.2, "box")


def test_point_families():
    g = Grid(-2.0, 2.0, 513)
    f = GridFunction.from_callable(g, lambda x: (x**2).astype(complex))
    pt = PointEvaluationFamily()
    assert pt.apply(0.5, f)[0] == pytest.approx(0.25, abs=1e-8)
    g2 = Grid(-2.0, 2.0, 513)
    vec = GridFunction(g2, np.stack([g2.points() + 0j, 2 * g2.points() + 0j], axis=1))
    pin = PointInnerFamily()
    xi = np.array([1.0, 1j])
    got = pin.apply((0.5, xi), vec)[0]
    assert got == pytest.approx(0.5 * 1 + 1.0 * np.conj(1j), abs=1e-8)


def test_family_descriptor_roundtrip():
    """The average descriptor left out interp, so a linear family came back
    cubic."""
    for fam in (
        FourierCoefficientFamily(),
        AverageSamplingFamily(delta=0.2, profile="triangle"),
        AverageSamplingFamily(delta=0.3, profile="cosine", interp="linear"),
        PointEvaluationFamily(),
        PointEvaluationFamily(interp="linear"),
        PointInnerFamily(),
        PointInnerFamily(interp="linear"),
    ):
        back = family_from_descriptor(fam.descriptor())
        assert back == fam
        assert back.descriptor() == fam.descriptor()


@pytest.mark.parametrize(
    "desc",
    [
        {"family": "point", "params": {"bogus": 1}},
        {"family": "average", "params": {}},
        {"family": "average", "params": {"delta": "0.2"}},
        {"family": "average", "params": {"delta": 0.2, "profile": ["box"]}},
        {"family": "average", "params": {"delta": True}},
        {"family": "fourier", "params": {"a": 0.0, "b": TWO_PI}},
        {"family": "fourier", "params": None},
        {"family": "fourier", "params": [1]},
        {"family": ["fourier"]},
        {"family": None},
        {"params": {}},
        ["fourier"],
    ],
    ids=[
        "unknown-param", "missing-param", "string-number", "list-string", "bool-number", "fourier-interval",
        "params-null", "params-list", "kind-list", "kind-null", "kind-missing", "not-an-object",
    ],
)
def test_family_descriptors_with_bad_params_are_refused(desc):
    """An unknown param raised TypeError, a missing delta KeyError, and a
    param of the wrong JSON type was passed to the family as it was. The
    Fourier family takes no interval: [0, 2pi] is the only one it held."""
    with pytest.raises(ValidationError):
        family_from_descriptor(desc)


def test_readme_family_table_matches_the_descriptor_readers():
    """The README's table of family kinds names each kind's class and
    params as ``family_from_descriptor`` reads them, the required ones as
    required, so a param is not added or dropped in one place only."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in text[text.index("| kind | class | params |") :].splitlines()[2:]:
        if not line.startswith("| "):
            break
        kind, cls, params = (c.strip() for c in line.strip().strip("|").split("|"))
        names = re.findall(r"(?:^|\), )`(\w+)`", params)
        required = set(re.findall(r"`(\w+)` \([^)]*required", params))
        rows[kind.strip("`")] = (cls.strip("`"), set(names), required)
    want = {
        kind: (cls.__name__, set(readers), {f.name for f in fields(cls) if f.default is MISSING})
        for kind, (cls, readers) in _FAMILY_KINDS.items()
    }
    assert rows == want


def test_sample_set_json_roundtrip():
    fam = AverageSamplingFamily(delta=0.2)
    ss = SampleSet(fam.descriptor(), (0.0, 1.5), (1.0 + 2.0j, -0.5j))
    back = SampleSet.from_json(ss.to_json())
    assert back.alphas == ss.alphas
    assert np.allclose(back.value_array(), ss.value_array())


def test_sample_set_value_array_refuses_vector_values():
    fam = PointEvaluationFamily()
    ss = SampleSet(fam.descriptor(), (0.0, 1.0), (np.array([1, 2]), np.array([3, 4])))
    with pytest.raises(ShapeMismatchError):
        ss.value_array()


def test_sample_set_holds_one_array():
    fam = PointEvaluationFamily()
    scalar = SampleSet(fam.descriptor(), (0.0, 1.0), (1.0 + 2.0j, 3.0))
    assert scalar.values.shape == (2,) and scalar.values.dtype == complex
    assert scalar.value_array() is scalar.values
    # a scalar family's (k, 1) output is stored as (k,)
    column = SampleSet(fam.descriptor(), (0.0, 1.0), np.array([[1.0 + 2.0j], [3.0]]))
    assert np.array_equal(column.values, scalar.values)
    assert column.to_json() == scalar.to_json()
    assert scalar.to_json()["entries"][0]["value"] == [1.0, 2.0]
    vector = SampleSet(fam.descriptor(), (0.0, 1.0), (np.array([1, 2]), np.array([3, 4j])))
    assert vector.values.shape == (2, 2)
    assert vector.to_json()["entries"][1]["value"] == [[3.0, 0.0], [0.0, 4.0]]
    assert np.array_equal(SampleSet.from_json(vector.to_json()).values, vector.values)


@pytest.mark.parametrize(
    "values",
    [
        (1.0 + 0j, np.array([1.0, 2.0])),
        (np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])),
        (complex(math.nan, 0.0), 0j),
        (0j, complex(0.0, math.inf)),
        (np.array([0j, 0j]), np.array([0j, -math.inf])),
        (0j,),
    ],
    ids=["scalar-and-vector", "vectors-of-two-lengths", "nan", "inf", "vector-inf", "length-mismatch"],
)
def test_sample_set_refuses_ragged_and_nonfinite_values(values):
    with pytest.raises(ValidationError):
        SampleSet(PointEvaluationFamily().descriptor(), (0.0, 1.0), values)


def test_sample_set_point_inner_roundtrip():
    fam = PointInnerFamily()
    alpha = (0.5, np.array([1.0 + 0j, -1j]))
    ss = SampleSet(fam.descriptor(), (alpha,), (0.25 + 0.5j,))
    back = SampleSet.from_json(ss.to_json())
    x, xi = back.alphas[0]
    assert x == pytest.approx(0.5)
    assert np.allclose(xi, alpha[1])


# ------------------------------------------------------- cubic interpolation

@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=200),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-2, max_value=50.0),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=20),
    st.sampled_from(["cubic", "linear"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_point_families_apply_all_equal_per_point_interpolation(n, a, width, dim, k, interp, seed):
    """One interpolation call for all points gives, bit for bit, what one
    ``interpolate_values`` call per point gives, grid ends included."""
    gen = np.random.default_rng(seed)
    g = Grid(a, a + width, n)
    f = GridFunction(g, gen.standard_normal((n, dim)) + 1j * gen.standard_normal((n, dim)))
    pts = np.concatenate(([g.a, g.b], gen.uniform(g.a, g.b, k)))
    gen.shuffle(pts)
    want = np.array([interpolate_values(f, np.array([x]), method=interp)[0] for x in pts])
    assert np.array_equal(PointEvaluationFamily(interp).apply_all(list(pts), f), want)
    xis = gen.standard_normal((pts.size, dim)) + 1j * gen.standard_normal((pts.size, dim))
    want_inner = np.array([[np.sum(fx * np.conj(xi))] for fx, xi in zip(want, xis)])
    assert np.array_equal(PointInnerFamily(interp).apply_all(list(zip(pts, xis)), f), want_inner)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=600),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=1e-2, max_value=100.0),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=2, a=-1.0, width=2.0, dim=1, seed=0)
@example(n=3, a=0.5, width=3.0, dim=2, seed=1)
@example(n=4, a=-7.0, width=0.3, dim=3, seed=2)
def test_cubic_spline_matches_scipy_not_a_knot(n, a, width, dim, seed):
    """The numpy spline is scipy's default (not-a-knot) CubicSpline, the line
    at two nodes and the parabola at three, at every node, both endpoints and
    random points in between."""
    gen = np.random.default_rng(seed)
    g = Grid(a, a + width, n)
    vals = gen.standard_normal((n, dim)) + 1j * gen.standard_normal((n, dim))
    x = g.points()
    pts = np.concatenate((x, [g.a, g.b], gen.uniform(g.a, g.b, 200)))
    want = CubicSpline(x, vals)(pts)
    got = interpolate_values(GridFunction(g, vals), pts)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(vals))


def test_cubic_spline_converges_at_fourth_order():
    pts = np.linspace(0.0, 2.0, 2001)
    errors = []
    for n in (17, 33, 65):
        f = GridFunction.from_callable(Grid(0.0, 2.0, n), lambda x: np.sin(3.0 * x))
        errors.append(np.max(np.abs(interpolate_values(f, pts)[:, 0] - np.sin(3.0 * pts))))
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] / errors[2] >= 12.0
