"""The JSON formats of grid functions, signals, sample sets and vector
sampling sets: round trips are bit for bit, and a field of the wrong JSON
type is refused with a ValidationError."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opkern.core import Grid, GridFunction, complex_pairs, complex_values
from opkern.exceptions import ValidationError
from opkern.families import (
    AverageSamplingFamily,
    FourierCoefficientFamily,
    PointEvaluationFamily,
    PointInnerFamily,
    SampleSet,
)
from opkern.paley_wiener import BandlimitedSignal, VectorSamplingSet, build_vector_sampling_set

_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308, 1e308, -1e308, 1 / 3]
_FLOAT = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
_INTERP = st.sampled_from(["cubic", "linear"])


def _complex(shape) -> st.SearchStrategy:
    return arrays(np.float64, (*shape, 2), elements=_FLOAT).map(lambda a: a.view(complex)[..., 0])


@st.composite
def _grids(draw, max_n=12) -> Grid:
    a, b = sorted(draw(st.lists(_FLOAT, min_size=2, max_size=2, unique=True)))
    if not a < b:  # -0.0 and 0.0
        a, b = -1.0, 1.0
    return Grid(a, b, draw(st.integers(2, max_n)))


@st.composite
def _functions(draw) -> GridFunction:
    grid = draw(_grids())
    return GridFunction(grid, draw(_complex((grid.n, draw(st.integers(1, 3))))))


@st.composite
def _signals(draw) -> BandlimitedSignal:
    dim = draw(st.sampled_from([1, 2]))
    coeffs = draw(_complex((draw(st.integers(1, 8)), dim)))
    offset = draw(st.integers(-(2**70), 2**70))
    return BandlimitedSignal(coeffs, offset, draw(_grids(max_n=2**20)), dim)


@st.composite
def _sample_sets(draw, kind=None) -> SampleSet:
    kind = kind or draw(st.sampled_from(["fourier", "average", "point", "point_inner"]))
    k = draw(st.integers(0, 5))
    dim = draw(st.sampled_from([1, 2, 3]))
    shape = (k,) if kind == "fourier" or dim == 1 or k == 0 else (k, dim)
    if kind == "fourier":
        a, b = draw(st.lists(_FLOAT, min_size=2, max_size=2))
        family = FourierCoefficientFamily(a, b)
        alphas = draw(st.lists(st.integers(-(2**70), 2**70), min_size=k, max_size=k))
    elif kind == "point_inner":
        family = PointInnerFamily(draw(_INTERP))
        xs = draw(st.lists(_FLOAT, min_size=k, max_size=k))
        alphas = [(x, draw(_complex((dim,)))) for x in xs]
        shape = (k,)
    else:
        delta = draw(st.floats(min_value=1e-3, max_value=0.25))
        profile = draw(st.sampled_from(["box", "triangle", "cosine"]))
        interp = draw(_INTERP)
        family = AverageSamplingFamily(delta, profile, interp) if kind == "average" else PointEvaluationFamily(interp)
        alphas = draw(st.lists(_FLOAT, min_size=k, max_size=k))
    return SampleSet(family.descriptor(), tuple(alphas), draw(_complex(shape)))


@st.composite
def _vector_sets(draw) -> VectorSamplingSet:
    n, m_range = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    offsets = st.one_of(st.sampled_from([-0.0, 5e-324, -1.5e-310]), st.floats(-0.24, 0.24))
    perturb = {m: draw(st.lists(offsets, min_size=n, max_size=n)) for m in range(-m_range, m_range + 1)}
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    u = np.linalg.qr(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))[0]
    return build_vector_sampling_set(n, m_range, perturb=lambda m: perturb[m], u_matrix=u)


def _through_text(obj):
    return json.loads(json.dumps(obj))


def _bits(values) -> bytes:
    return np.asarray(values).tobytes()


def test_complex_values_reads_complex_pairs_bit_for_bit():
    z = np.array([[-0.0 + 5e-324j, 1e308 - 0.0j], [complex(-1e308, -5e-324), 1 / 3]])
    for shape in [(), (2,), (2, 2)]:
        part = z.reshape(-1)[: max(1, np.prod(shape, dtype=int))].reshape(shape)
        back = complex_values(_through_text(complex_pairs(part)), "z", len(shape))
        assert back.shape == shape
        assert _bits(back) == _bits(part)
    assert complex_values([], "z", 1).shape == (0,)
    assert complex_values([[2**53 + 1, 10**20]], "z", 1)[0] == complex(2**53, 1e20)


@pytest.mark.parametrize(
    "obj,ndim",
    [
        ([[1, "2"]], 1),
        ([[True, 0]], 1),
        ([[1, None]], 1),
        ([[1, 2, 3]], 1),
        ([[1, 2], [3]], 1),
        ([1, 2], 1),
        ([[[1, 2]]], 1),
        ([[10**400, 0]], 1),
        ({"re": 1, "im": 2}, 0),
        ("1+2j", 0),
        ([], 0),
    ],
    ids=[
        "string", "bool", "null", "triple", "ragged", "flat", "too-deep", "int-beyond-float",
        "object", "python-literal", "empty-scalar",
    ],
)
def test_complex_values_refuses_what_is_not_nested_pairs_of_numbers(obj, ndim):
    with pytest.raises(ValidationError):
        complex_values(obj, "z", ndim)


@settings(max_examples=30, deadline=None)
@given(f=_functions())
def test_grid_function_round_trips_bit_for_bit(tmp_path_factory, f):
    back = GridFunction.from_json(_through_text(f.to_json()))
    assert back.grid == f.grid
    assert back.values.shape == f.values.shape
    assert _bits(back.values) == _bits(f.values)
    path = tmp_path_factory.mktemp("dump") / "f.function.json"
    f.dump(path)
    assert _bits(GridFunction.from_json(json.loads(path.read_text())).values) == _bits(f.values)


@settings(max_examples=30, deadline=None)
@given(_signals())
def test_signal_round_trips_bit_for_bit(sig):
    back = BandlimitedSignal.from_json(_through_text(sig.to_json()))
    assert (back.offset, back.window, back.dim) == (sig.offset, sig.window, sig.dim)
    assert back.coeffs.shape == sig.coeffs.shape
    assert _bits(back.coeffs) == _bits(sig.coeffs)


@settings(max_examples=50, deadline=None)
@given(_sample_sets())
def test_sample_set_round_trips_bit_for_bit(ss):
    back = SampleSet.from_json(_through_text(ss.to_json()))
    assert back.family == ss.family
    assert back.values.shape == ss.values.shape
    assert _bits(back.values) == _bits(ss.values)
    assert len(back.alphas) == len(ss.alphas)
    for got, want in zip(back.alphas, ss.alphas):
        if ss.family["family"] == "point_inner":
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        elif ss.family["family"] == "fourier":
            assert type(got) is int and got == want
        else:
            assert type(got) is float and _bits(got) == _bits(want)


@settings(max_examples=25, deadline=None)
@given(_vector_sets())
def test_vector_sampling_set_round_trips_bit_for_bit(vss):
    back = VectorSamplingSet.from_json(_through_text(vss.to_json()))
    assert (back.n, back.m_range) == (vss.n, vss.m_range)
    assert _bits(back.x) == _bits(vss.x)
    assert _bits(back.u_matrix) == _bits(vss.u_matrix)


# ---------------------------------------------------------------------------
# mutations: one field or nested leaf replaced by a value of another JSON type
# ---------------------------------------------------------------------------

#: a value of each JSON type; the numbers replace only what is not a number
_REPLACEMENTS = [None, True, False, "x", "1", [], [1.0], {}, {"a": 1.0}, 2.0]
_JSON_TYPES = {
    type(None): "null", bool: "bool", int: "number", float: "number", str: "string", list: "list", dict: "object",
}

_READERS = {
    "function": (_functions(), GridFunction),
    "signal": (_signals(), BandlimitedSignal),
    "fourier samples": (_sample_sets("fourier"), SampleSet),
    "average samples": (_sample_sets("average"), SampleSet),
    "point samples": (_sample_sets("point"), SampleSet),
    "point_inner samples": (_sample_sets("point_inner"), SampleSet),
    "vector sampling set": (_vector_sets(), VectorSamplingSet),
}


def _integral(kind: str, path: tuple) -> bool:
    """The fields that hold integers: dims, counts, offsets, Fourier indices."""
    if kind == "fourier samples":
        return len(path) == 3 and path[2] == "alpha"
    return path in {("dim",), ("offset",), ("window", "n"), ("n",), ("m_range",)}


def _nodes(doc, path=()):
    """Every (path, value) below the root, fields and nested leaves alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_field_of_another_json_type_is_refused(data):
    """Replacing any one field or nested leaf of a valid document by null, a
    bool, a string, a list, an object or a number of another type, or by
    1.5 where an integer belongs, raises ValidationError and nothing else."""
    kind = data.draw(st.sampled_from(sorted(_READERS)), label="kind")
    strategy, cls = _READERS[kind]
    doc = _through_text(data.draw(strategy).to_json())
    path, old = data.draw(st.sampled_from(list(_nodes(doc))), label="path")
    choices = [v for v in _REPLACEMENTS if _JSON_TYPES[type(v)] != _JSON_TYPES[type(old)]]
    if _integral(kind, path):
        choices.append(1.5)
    new = data.draw(st.sampled_from(choices), label="replacement")
    mutated = copy.deepcopy(doc)
    target = mutated
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    with pytest.raises(ValidationError):
        cls.from_json(mutated)


@pytest.mark.parametrize("cls", [GridFunction, BandlimitedSignal, SampleSet, VectorSamplingSet])
@pytest.mark.parametrize("doc", [None, [], "x", 1.0, {}], ids=["null", "list", "string", "number", "empty"])
def test_a_document_that_is_not_an_object_with_its_keys_is_refused(cls, doc):
    with pytest.raises(ValidationError):
        cls.from_json(doc)


def test_integers_of_any_size_keep_their_value():
    """A Fourier index or a signal offset beyond int64 is read as the Python
    int it is, and an integral float as its integer."""
    ss = SampleSet(FourierCoefficientFamily().descriptor(), (10**400, -(2**70)), (1j, -0.0))
    assert SampleSet.from_json(_through_text(ss.to_json())).alphas == (10**400, -(2**70))
    doc = BandlimitedSignal(np.ones(1), 0, Grid(-1.0, 1.0, 3)).to_json()
    for offset, want in [(2**70, 2**70), (3.0, 3), (-(10**30), -(10**30))]:
        assert BandlimitedSignal.from_json({**doc, "offset": offset}).offset == want
    window = {**doc["window"], "b": 1e400}  # json reads 1e400 as inf, which a grid refuses
    with pytest.raises(ValidationError):
        BandlimitedSignal.from_json({**doc, "window": window})
    assert math.isinf(json.loads("1e400"))
