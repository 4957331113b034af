import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opkern.core import (
    Grid,
    GridFunction,
    complex_unit_disc,
    dft,
    fourier_sum,
    hermitian_eig,
    inner_product,
    norm,
    pseudoinverse_apply,
    quadrature,
    restrict,
    rng,
    solve_hermitian,
    uniform_fourier_sum,
)
from opkern.exceptions import ConditioningError, ShapeMismatchError, ValidationError

TWO_PI = 2.0 * math.pi


def _gf(a, b, n, fn, dim=1):
    return GridFunction.from_callable(Grid(a, b, n), fn, dim=dim)


# ----------------------------------------------------------------- quadrature

def test_quadrature_constant_exact():
    f = _gf(0.0, 1.0, 101, lambda x: np.ones_like(x, dtype=complex))
    assert quadrature(f)[0] == pytest.approx(1.0, abs=1e-14)


def test_quadrature_odd_symmetric():
    f = _gf(-1.0, 1.0, 101, lambda x: x.astype(complex))
    assert abs(quadrature(f)[0]) < 1e-14


def test_quadrature_parabola():
    f = _gf(0.0, 1.0, 1001, lambda x: (x**2).astype(complex))
    assert quadrature(f)[0].real == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_quadrature_second_order_convergence():
    def err(n):
        f = _gf(0.0, 1.0, n, lambda x: (x**3).astype(complex))
        return abs(quadrature(f)[0] - 0.25)

    assert err(2001) <= err(201) / 50.0


# -------------------------------------------------------------- inner product

def test_inner_product_constant():
    f = _gf(0.0, TWO_PI, 201, lambda x: np.ones_like(x, dtype=complex))
    assert inner_product(f, f) == pytest.approx(TWO_PI, abs=1e-10)


def test_inner_product_orthogonal_modes():
    g = Grid(0.0, TWO_PI, 201)
    f = GridFunction.from_callable(g, lambda x: np.exp(1j * x))
    h = GridFunction.from_callable(g, lambda x: np.exp(2j * x))
    assert abs(inner_product(f, h)) < 1e-6
    assert inner_product(f, f) == pytest.approx(TWO_PI, abs=1e-6)


def test_inner_product_shape_error():
    f = _gf(0.0, 1.0, 11, lambda x: x.astype(complex))
    g = _gf(0.0, 1.0, 21, lambda x: x.astype(complex))
    with pytest.raises(ShapeMismatchError):
        inner_product(f, g)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_inner_product_conjugate_symmetry(seed):
    gen = rng(seed)
    g = Grid(-1.0, 2.0, 33)
    f = GridFunction(g, complex_unit_disc(gen, (33, 2)))
    h = GridFunction(g, complex_unit_disc(gen, (33, 2)))
    assert inner_product(f, h) == pytest.approx(np.conj(inner_product(h, f)), abs=1e-13)
    assert inner_product(f, f).real >= 0.0


# ----------------------------------------------------------------- eig/solve

def test_hermitian_eig_identity():
    w, _ = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])


def test_hermitian_eig_diagonal_sorted():
    w, _ = hermitian_eig(np.diag([5.0, 2.0]))
    assert np.allclose(w, [2.0, 5.0])


def test_hermitian_eig_hand_case():
    w, v = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0])
    m = v @ np.diag(w) @ v.conj().T
    assert np.allclose(m, [[2, 1], [1, 2]])


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_reconstruction_random():
    gen = rng(11)
    for n in (4, 16, 64):
        a = complex_unit_disc(gen, (n, n))
        m = a + a.conj().T
        w, v = hermitian_eig(m)
        rebuilt = (v * w) @ v.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-8 * np.linalg.norm(m)


def test_solve_hermitian_cases():
    assert np.allclose(solve_hermitian(np.eye(2), [1.0, 2.0]), [1, 2])
    assert np.allclose(solve_hermitian(np.diag([2.0, 4.0]), [2.0, 4.0]), [1, 1])
    assert np.allclose(solve_hermitian(np.array([[2.0, 1], [1, 2]]), [3.0, 3.0]), [1, 1])


def test_solve_hermitian_roundtrip_random():
    gen = rng(3)
    a = complex_unit_disc(gen, (12, 12))
    m = a @ a.conj().T + 0.5 * np.eye(12)
    x = complex_unit_disc(gen, 12)
    got = solve_hermitian(m, m @ x)
    assert np.linalg.norm(got - x) <= 1e-8 * np.linalg.norm(x)


def test_solve_hermitian_rejects_indefinite():
    with pytest.raises(ConditioningError) as exc:
        solve_hermitian(np.diag([1.0, -1.0]), [1.0, 1.0])
    assert exc.value.min_eig is not None


def test_pseudoinverse_apply_cases():
    assert np.allclose(pseudoinverse_apply(np.eye(2), [3.0, 4.0], 1e-10), [3, 4])
    assert np.allclose(pseudoinverse_apply(np.zeros((2, 2)), [1.0, 1.0], 1e-10), [0, 0])
    got = pseudoinverse_apply(np.ones((2, 2)), [2.0, 2.0], 1e-10)
    assert np.allclose(got, [1.0, 1.0])


def test_pseudoinverse_cutoff_validation():
    with pytest.raises(ValidationError):
        pseudoinverse_apply(np.eye(2), [1.0, 1.0], 1.5)


# ------------------------------------------------------------------------ dft

def test_dft_values():
    g = Grid(-math.pi, math.pi, 257)
    one = GridFunction.from_callable(g, lambda x: np.ones_like(x, dtype=complex))
    assert dft(one, [0.0])[0] == pytest.approx(TWO_PI, abs=1e-10)
    assert abs(dft(one, [1.0])[0]) < 1e-6
    mode = GridFunction.from_callable(g, lambda x: np.exp(1j * x))
    assert dft(mode, [1.0])[0] == pytest.approx(TWO_PI, abs=1e-6)


def test_fourier_sum_matches_one_shot_formula_across_blocks():
    """8001 frequencies on 1000 nodes span three row blocks (4000, 4000, 1)
    of the chunked sum; the one-shot formula builds the whole matrix."""
    g = Grid(-1.0, 2.0, 1000)
    f = GridFunction(g, complex_unit_disc(rng(12), (g.n, 2)))
    w = np.linspace(-300.0, 300.0, 8001)
    kernel = np.outer(w, g.points()) * -1j
    np.exp(kernel, out=kernel)
    kernel *= g.weights()
    one_shot = kernel @ f.values
    del kernel
    got = dft(f, w)
    assert got.shape == one_shot.shape
    assert np.max(np.abs(got - one_shot)) <= 1e-12 * np.max(np.abs(one_shot))
    # the +i sign on a 1-D weighted vector
    v = f.values[:, 0] * g.weights()
    direct = np.exp(1j * np.outer(w[:50], g.points())) @ v
    assert np.max(np.abs(fourier_sum(w[:50], g.points(), v, sign=1.0) - direct)) < 1e-13


_offsets = st.floats(-100.0, 100.0, allow_nan=False)
_steps = st.floats(1e-3, 1.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    ny=st.integers(1, 600),
    nt=st.integers(1, 600),
    y0=_offsets,
    dy=_steps,
    t0=_offsets,
    dt=_steps,
    sign=st.sampled_from([-1.0, 1.0]),
    cols=st.sampled_from([0, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(ny=37, nt=1, y0=-3.0, dy=0.25, t0=-4.0, dt=1.0, sign=1.0, cols=0, seed=1)  # a 1-term signal
@example(ny=2, nt=2, y0=-math.pi, dy=TWO_PI, t0=-2.5, dt=0.5, sign=-1.0, cols=3, seed=2)  # 2-point grids
@example(ny=400, nt=400, y0=-7.0, dy=0.05, t0=-math.pi, dt=0.01, sign=-1.0, cols=300, seed=3)  # two column blocks
def test_uniform_fourier_sum_matches_fourier_sum(ny, nt, y0, dy, t0, dt, sign, cols, seed):
    gen = np.random.default_rng(seed)
    shape = (nt,) if cols == 0 else (nt, cols)
    a = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    got = uniform_fourier_sum(y0, dy, ny, t0, dt, a, sign)
    want = fourier_sum(y0 + dy * np.arange(ny), t0 + dt * np.arange(nt), a, sign)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-11 * np.sum(np.abs(a), axis=0))


# ------------------------------------------------------------- serialization

def test_gridfunction_json_roundtrip():
    gen = rng(5)
    g = Grid(-2.0, 3.0, 17)
    f = GridFunction(g, complex_unit_disc(gen, (17, 3)))
    back = GridFunction.from_json(f.to_json())
    assert back.grid == f.grid
    assert np.allclose(back.values, f.values)


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid(1.0, 0.0, 10)
    with pytest.raises(ValidationError):
        Grid(0.0, 1.0, 1)


def test_restrict_keeps_uniform_slice():
    g = Grid(-4.0, 4.0, 81)
    f = GridFunction.from_callable(g, lambda x: x.astype(complex))
    sub = restrict(f, -1.0, 1.0)
    assert sub.grid.a == pytest.approx(-1.0)
    assert sub.grid.b == pytest.approx(1.0)
    assert norm(sub) > 0
