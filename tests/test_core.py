import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opkern import core
from opkern.core import (
    Grid,
    GridFunction,
    hermitian_eig,
    inner_product,
    integrate_values,
    norm,
    pseudoinverse,
    restrict,
    solve_hermitian,
    uniform_fourier_sum,
)
from opkern.exceptions import ConditioningError, ShapeMismatchError, ValidationError
from draws import complex_unit_disc, rng
from quadrature_oracle import fourier_sum
from solve_oracle import eigh_solve_hermitian

TWO_PI = 2.0 * math.pi


def _gf(a, b, n, fn):
    return GridFunction.from_callable(Grid(a, b, n), fn)


# ----------------------------------------------------------------- quadrature

def test_quadrature_constant_exact():
    f = _gf(0.0, 1.0, 101, lambda x: np.ones_like(x, dtype=complex))
    assert integrate_values(f.grid, f.values)[0] == pytest.approx(1.0, abs=1e-14)


def test_quadrature_odd_symmetric():
    f = _gf(-1.0, 1.0, 101, lambda x: x.astype(complex))
    assert abs(integrate_values(f.grid, f.values)[0]) < 1e-14


def test_quadrature_parabola():
    f = _gf(0.0, 1.0, 1001, lambda x: (x**2).astype(complex))
    assert integrate_values(f.grid, f.values)[0].real == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_quadrature_second_order_convergence():
    def err(n):
        f = _gf(0.0, 1.0, n, lambda x: (x**3).astype(complex))
        return abs(integrate_values(f.grid, f.values)[0] - 0.25)

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
    with pytest.raises(ValidationError):  # one bad matrix in a stack
        hermitian_eig(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)]))


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


def test_solve_hermitian_stack_equals_single_calls():
    gen = rng(5)
    for k in (1, 3, 16):
        a = complex_unit_disc(gen, (9, k, k))
        m = a @ np.conj(np.swapaxes(a, -2, -1)) + 0.1 * np.eye(k)
        m = (m + np.conj(np.swapaxes(m, -2, -1))) / 2.0
        rhs = complex_unit_disc(gen, (9, k))
        single = np.array([solve_hermitian(mi, ri) for mi, ri in zip(m, rhs)])
        assert np.array_equal(solve_hermitian(m, rhs), single)
        assert np.array_equal(solve_hermitian(m.reshape(3, 3, k, k), rhs.reshape(3, 3, k)), single.reshape(3, 3, k))


def test_solve_hermitian_stack_refuses_at_the_first_failing_matrix():
    m = np.array([np.eye(2), np.diag([1.0, 1e-13]), np.diag([-2.0, 1.0]), np.eye(2)])
    with pytest.raises(ConditioningError) as exc:
        solve_hermitian(m, np.ones((4, 2)))
    assert (exc.value.min_eig, exc.value.max_eig) == (1e-13, 1.0)
    with pytest.raises(ShapeMismatchError):
        solve_hermitian(m, np.ones(2))


def _hermitian_of_kind(kind: str, k: int, diagonal: bool, gen) -> np.ndarray:
    """A k x k Hermitian matrix: "certified" has Gershgorin discs inside
    [0.5, 2.5]; the others have the spectrum of their kind, rotated by a
    random unitary unless ``diagonal``."""
    if kind == "certified":
        off = np.tril(complex_unit_disc(gen, (k, k)), -1) * (0.0 if diagonal else 0.5 / k)
        return np.diag(1.0 + gen.random(k)) + off + off.conj().T
    w = {
        "positive": lambda: 10.0 ** gen.uniform(-6.0, 0.0, k),
        "near-singular": lambda: np.append(10.0 ** gen.uniform(-16.0, -9.0, 1), 10.0 ** gen.uniform(-9.0, 0.0, k - 1)),
        "indefinite": lambda: np.append(-gen.random(1), gen.uniform(-1.0, 1.0, k - 1)),
    }[kind]()
    if diagonal:
        return np.diag(gen.permutation(w)).astype(complex)
    q, _ = np.linalg.qr(gen.standard_normal((k, k)) + 1j * gen.standard_normal((k, k)))
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2.0


def _outcome(solve, m, rhs):
    try:
        return solve(m, rhs), None
    except ConditioningError as exc:
        return None, exc


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["certified", "positive", "near-singular", "indefinite"]), min_size=1, max_size=6),
    k=st.integers(1, 12),
    diagonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_hermitian_matches_the_eigh_oracle(kinds, k, diagonal, seed):
    """The Gershgorin route refuses what the eigendecomposition refuses, at
    the same matrix, away from the 1e-12 threshold, and its solutions agree
    within round-off scaled by the condition number."""
    gen = rng(seed)
    m = np.array([_hermitian_of_kind(kind, k, diagonal, gen) for kind in kinds])
    rhs = complex_unit_disc(gen, (len(kinds), k))
    w = np.linalg.eigvalsh(m)
    assume(not np.any((w[:, 0] >= 0.5e-12 * w[:, -1]) & (w[:, 0] <= 2e-12 * w[:, -1])))
    want, want_err = _outcome(eigh_solve_hermitian, m, rhs)
    got, got_err = _outcome(solve_hermitian, m, rhs)
    assert (got_err is None) == (want_err is None)
    if want_err is not None:
        got_eigs = np.array([got_err.min_eig, got_err.max_eig])
        want_eigs = np.array([want_err.min_eig, want_err.max_eig])
        if diagonal:
            assert np.array_equal(got_eigs, want_eigs)
        else:
            assert np.max(np.abs(got_eigs - want_eigs)) <= 1e-12 * np.max(np.abs(want_eigs))
        return
    cond = w[:, -1] / w[:, 0]
    gap = np.linalg.norm(got - want, axis=-1)
    assert np.all(gap <= 16 * k * cond * np.finfo(float).eps * np.linalg.norm(want, axis=-1))


def test_solve_hermitian_certified_stack_runs_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve on a certified stack")

    gen = rng(9)
    m = np.array([_hermitian_of_kind("certified", 12, False, gen) for _ in range(20)])
    x = complex_unit_disc(gen, (20, 12))
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    got = solve_hermitian(m, (m @ x[..., None])[..., 0])
    assert np.linalg.norm(got - x) <= 1e-13 * np.linalg.norm(x)


def test_pseudoinverse_apply_cases():
    assert np.allclose(pseudoinverse(np.eye(2)) @ [3.0, 4.0], [3, 4])
    assert np.allclose(pseudoinverse(np.zeros((2, 2))) @ [1.0, 1.0], [0, 0])
    got = pseudoinverse(np.ones((2, 2))) @ [2.0, 2.0]
    assert np.allclose(got, [1.0, 1.0])


# ------------------------------------------------------------------------ dft

def test_dft_values():
    """Quadrature Fourier integrals \\int f(t) exp(-i w t) dt at w = 0, 1."""
    g = Grid(-math.pi, math.pi, 257)
    one = uniform_fourier_sum(0.0, 1.0, 2, g.a, g.h, g.weights().astype(complex))
    assert one[0] == pytest.approx(TWO_PI, abs=1e-10)
    assert abs(one[1]) < 1e-6
    mode = uniform_fourier_sum(1.0, 1.0, 1, g.a, g.h, np.exp(1j * g.points()) * g.weights())
    assert mode[0] == pytest.approx(TWO_PI, abs=1e-6)


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
    got = fourier_sum(w, g.points(), f.values * g.weights()[:, None])
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
    seed=st.integers(0, 2**32 - 1),
)
@example(ny=37, nt=1, y0=-3.0, dy=0.25, t0=-4.0, dt=1.0, sign=1.0, seed=1)  # a 1-term signal
@example(ny=2, nt=2, y0=-math.pi, dy=TWO_PI, t0=-2.5, dt=0.5, sign=-1.0, seed=2)  # 2-point grids
@example(ny=557, nt=1, y0=0.0, dy=0.99999, t0=66.0, dt=1.0, sign=-1.0, seed=0)  # |y t| up to 3.7e4
def test_uniform_fourier_sum_matches_fourier_sum(ny, nt, y0, dy, t0, dt, sign, seed):
    """Both routes round the grid points and the phases y_j t_k, so each is
    off the exact sum by about eps max|y_j t_k| sum|a|: at most 1.14 times
    that, for either route, against a 30-digit mpmath sum over 282 draws
    like these. The bound allows 4 times it on top of 1e-11 sum|a|."""
    gen = np.random.default_rng(seed)
    a = gen.standard_normal(nt) + 1j * gen.standard_normal(nt)
    got = uniform_fourier_sum(y0, dy, ny, t0, dt, a, sign)
    want = fourier_sum(y0 + dy * np.arange(ny), t0 + dt * np.arange(nt), a, sign)
    assert got.shape == want.shape
    phase = max(abs(y0), abs(y0 + dy * (ny - 1))) * max(abs(t0), abs(t0 + dt * (nt - 1)))
    bound = 1e-11 + 4.0 * np.finfo(float).eps * phase
    assert np.all(np.abs(got - want) <= bound * np.sum(np.abs(a)))


# ------------------------------------------------------------------- draws

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.integers(1, 8), st.integers(0, 300), st.integers(0, 2**80))
@example(rows=0, cols=1, b=0, seed=0)  # nothing drawn
@example(rows=1, cols=1, b=1, seed=2**80)  # a seed beyond 64 bits
def test_uniform_continues_one_stream_on_the_lattice(rows, cols, b, seed):
    """Drawing (rows, cols) doubles and then b more is drawing rows*cols + b
    from a fresh generator, so a draw split into blocks is the same draw.
    Each double is (w >> 11) * 2**-53 of the generator's next 64-bit word w,
    the word getrandbits(64) returns: in [0, 1) and on the 2**-53 lattice."""
    gen = core.rng(seed)
    first, second = core.uniform(gen, (rows, cols)), core.uniform(gen, b)
    whole = core.uniform(core.rng(seed), rows * cols + b)
    assert (first.shape, second.shape) == ((rows, cols), (b,))
    assert np.array_equal(np.concatenate([first.ravel(), second]), whole)
    words = core.rng(seed)
    assert whole.tolist() == [(words.getrandbits(64) >> 11) * 2.0**-53 for _ in range(whole.size)]
    assert np.all((whole >= 0.0) & (whole < 1.0))
    assert np.array_equal(whole * 2.0**53, np.floor(whole * 2.0**53))


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
    # Grid(-inf, inf, 5) was accepted
    for a, b in [(-math.inf, math.inf), (-math.inf, 0.0), (0.0, math.nan)]:
        with pytest.raises(ValidationError):
            Grid(a, b, 5)


def test_restrict_keeps_uniform_slice():
    g = Grid(-4.0, 4.0, 81)
    f = GridFunction.from_callable(g, lambda x: x.astype(complex))
    sub = restrict(f, -1.0, 1.0)
    assert sub.grid.a == pytest.approx(-1.0)
    assert sub.grid.b == pytest.approx(1.0)
    assert norm(sub) > 0
