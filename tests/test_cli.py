import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from opkern import cli
from opkern.cli import main
from opkern.core import Grid, GridFunction
from opkern.kernels import GramMatrix, feature_gram, fourier_feature_map, fourier_frame, psd_check
from opkern.families import FourierCoefficientFamily, SampleSet
from opkern.paley_wiener import (
    BandlimitedSignal, pw_average_sections, pw_point_sections, pw_window, w_grid_default,
)


@pytest.fixture()
def signal_file(tmp_path):
    gen = np.random.default_rng(1)
    coeffs = (gen.standard_normal(9) + 1j * gen.standard_normal(9)) / math.sqrt(2)
    sig = BandlimitedSignal.symmetric(coeffs, pw_window(8))
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(sig.to_json()))
    return path


def test_gram_fourier_identity_csv(tmp_path):
    out = tmp_path / "gram"
    assert main(["gram", "--family", "fourier", "--indices=-2..2", "--out", str(out)]) == 0
    lines = (tmp_path / "gram.csv").read_text().strip().splitlines()
    assert lines[0] == "index,-2,-1,0,1,2"
    row0 = lines[1].split(",")
    assert complex(row0[1]) == pytest.approx(1.0, abs=1e-8)
    assert abs(complex(row0[2])) < 1e-8
    manifest = json.loads((tmp_path / "gram.manifest.json").read_text())
    assert manifest["command"] == "gram"
    assert "version" in manifest


def test_psd_report(tmp_path):
    out = tmp_path / "psd"
    assert main(["psd", "--family", "average", "--indices=-4..4", "--delta", "0.2", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "psd.json").read_text())
    assert rep["pass"]
    assert rep["min_eig"] >= -1e-8 * max(rep["max_eig"], 1.0)


def test_kadec_json(tmp_path):
    out = tmp_path / "kadec"
    assert main(["kadec", "--delta", "0.1", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "kadec.json").read_text())
    assert rep["A"] == pytest.approx(2.5900216461986734, abs=1e-12)
    assert rep["pass"]


@pytest.mark.parametrize("space", ["pw", "fourier"])
def test_reconstruct_and_rerun_is_byte_identical(signal_file, tmp_path, space):
    out = tmp_path / "rec"
    argv = [
        "reconstruct", "--space", space, "--signal", str(signal_file),
        "--m", "8", "--delta", "0.2", "--out", str(out),
    ]
    assert main(argv) == 0
    rep = json.loads((tmp_path / "rec.json").read_text())
    assert rep["rel_l2_interior"] < 1e-2
    names = ("rec.csv", "rec.function.json", "rec.json")
    first = {name: (tmp_path / name).read_bytes() for name in names}
    first_fn = first["rec.function.json"].decode()
    assert main(argv) == 0
    assert {name: (tmp_path / name).read_bytes() for name in names} == first
    # the function artifact reloads through the shared format
    from opkern.core import GridFunction

    back = GridFunction.from_json(json.loads(first_fn))
    assert back.grid.n > 0


def test_reconstruct_pw_default_grids_stays_small(signal_file, tmp_path):
    """At the default grids (w_n 2049, 32 points per unit) the closed-form
    transforms and the chirp-z synthesis build no frequency-by-node matrix;
    the dense quadrature route peaked at 122 MB here."""
    argv = ["reconstruct", "--space", "pw", "--m", "8", "--signal", str(signal_file), "--out", str(tmp_path / "r")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**24


def test_reconstruct_pw_holds_features_and_no_section_stack(signal_file, tmp_path):
    """At --m 64 and the default grids the frame holds its 129 features of
    2049 points and their Gram, and synthesizes the reconstruction once:
    8.3 MiB peak. The stack of 129 sections of 5121 points peaked at
    21.6 MiB."""
    argv = ["reconstruct", "--space", "pw", "--m", "64", "--signal", str(signal_file), "--out", str(tmp_path / "r")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10 * 2**20


def test_the_fourier_size_cap_counts_the_gram_alone(signal_file, tmp_path):
    """601 Fourier sections on 60001 points were refused as a stack of
    3.6e7 entries, which the frame never holds; its Gram has 361201."""
    argv = [
        "reconstruct", "--space", "fourier", "--m", "300", "--grid-n", "60001",
        "--signal", str(signal_file), "--out", str(tmp_path / "r"),
    ]
    assert main(argv) == 0
    assert json.loads((tmp_path / "r.json").read_text())["rel_l2_interior"] < 1e-10


def test_reconstruct_fourier_exact(signal_file, tmp_path):
    out = tmp_path / "recf"
    argv = [
        "reconstruct", "--space", "fourier", "--signal", str(signal_file),
        "--m", "6", "--grid-n", "257", "--out", str(out),
    ]
    assert main(argv) == 0
    rep = json.loads((tmp_path / "recf.json").read_text())
    assert rep["rel_l2_interior"] < 1e-10


def test_reconstruct_fourier_holds_no_stack(tmp_path):
    """The fourier-reconstruct benchmark size: 257 sections of 4097 points.
    The frame holds its Gram and no section stack, and synthesizes by one
    inverse FFT; the 16.8 MB stack and its SVD dual peaked at 22.6 MiB, the
    per-section list before it at 38.5 MiB."""
    gen = np.random.default_rng(101)
    coeffs = (gen.standard_normal(193) + 1j * gen.standard_normal(193)) / math.sqrt(2)
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps(BandlimitedSignal.symmetric(coeffs, pw_window(0)).to_json()))
    argv = [
        "reconstruct", "--space", "fourier", "--m", "128", "--grid-n", "4097",
        "--signal", str(sig), "--out", str(tmp_path / "r"),
    ]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads((tmp_path / "r.json").read_text())["rel_l2_interior"] < 1e-10
    assert peak < 2**23


@pytest.mark.parametrize(
    "family,profile",
    [("fourier", "box"), ("average", "box"), ("average", "triangle"), ("average", "cosine"), ("point", "box")],
)
def test_stacked_frames_match_section_oracle(family, profile):
    """The frames of reconstruct and regnet against truncated_frame of the
    per-section oracle lists, section by section. The sinc points are the
    same arithmetic row by row, so they agree bit for bit. The average
    oracle takes each centre's own transform and a dense synthesis sum, so
    it agrees at round-off. The Fourier frame's synthesis of each unit
    vector, and of one random combination, by one inverse FFT meets the
    oracle's np.exp rows at round-off, and its closed-form Gram the oracle's
    quadrature Gram."""
    from opkern.paley_wiener import w_grid_default
    from section_oracle import average_sections, fourier_sections, section_stack, sinc_sections, truncated_frame

    args = cli.build_parser().parse_args([
        "reconstruct", "--signal", "sig.json", "--profile", profile, "--delta", "0.2",
        "--m", "6", "--grid-n", "257", "--w-n", "513", "--points-per-unit", "16",
    ])
    window = cli._window_grid(args)
    indices = list(range(-6, 7))
    frame = cli._frame_of(cli._family(family, args), indices, args)[0]
    if family == "fourier":
        oracle = truncated_frame(fourier_sections(indices, cli._fourier_grid(257)))
    elif family == "average":
        oracle = truncated_frame(average_sections(indices, 0.2, window, w_grid_default(513), profile))
    else:
        oracle = truncated_frame(sinc_sections(indices, window, w_grid_default(513)))
    assert frame.alphas == oracle.alphas
    assert [type(a) for a in frame.alphas] == [type(a) for a in oracle.alphas]
    assert frame.h_grid == oracle.h_grid
    h, want = section_stack(frame), section_stack(oracle)
    if family == "average":
        assert np.max(np.abs(h - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.max(np.abs(frame.gram.matrix - oracle.gram.matrix)) <= 1e-15
        assert max(frame.gram.asymmetry, oracle.gram.asymmetry) <= 1e-15
    elif family == "fourier":
        coeffs = np.vstack([np.eye(len(indices)), np.random.default_rng(5).standard_normal(len(indices))])
        for c in coeffs:
            gap = np.max(np.abs(frame.synthesize(c).values - oracle.synthesize(c).values))
            assert gap <= 1e-14 * np.sum(np.abs(c)) * np.max(np.abs(want))
        assert np.max(np.abs(frame.gram.matrix - oracle.gram.matrix)) <= 1e-15
        assert frame.gram.asymmetry == 0.0
    else:
        assert np.array_equal(h, want)
        assert np.array_equal(frame.gram.matrix, oracle.gram.matrix)
        assert frame.gram.asymmetry == oracle.gram.asymmetry


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=24),
    st.integers(min_value=2, max_value=64),
)
@example([0, 8, 16, 3], 9)
@example([5, -3, 5, 0, 1], 2)
def test_fourier_frame_gram_matches_feature_gram_of_the_oracle(indices, n):
    """The closed-form Gram, 1 where j = k mod (n - 1) and 0 elsewhere, is
    the trapezoid Gram of the np.exp oracle stack, for unsorted, repeated,
    negative and aliasing index lists."""
    from section_oracle import fourier_sections

    grid = cli._fourier_grid(n)
    frame = fourier_frame(indices, grid)
    oracle = np.stack([s.h_repr.values[:, 0] for s in fourier_sections(indices, grid)])
    assert frame.alphas == tuple(indices)
    assert np.max(np.abs(frame.gram.matrix - feature_gram(oracle, grid))) <= 1e-13
    assert frame.gram.asymmetry == 0.0


def test_fourier_sections_match_a_long_double_reference():
    """Rows read from the table of roots of unity against exp(i j x) in long
    double; np.exp(1j*j*x) in double misses it by about 5e-14 here. The
    family's basis functions and the feature map read the same table; the
    frame synthesizes each unit coefficient vector by one inverse FFT."""
    grid = cli._fourier_grid(4097)
    indices = list(range(-128, 129))
    frame = fourier_frame(indices, grid)
    sources = {
        "frame": np.stack([frame.synthesize(e).values[:, 0] for e in np.eye(len(indices))]),
        "basis_function": np.stack([FourierCoefficientFamily().basis_function(j, grid).values[:, 0] for j in indices]),
        "fourier_feature_map": fourier_feature_map(grid).evaluate(indices, np.ones(1))[:, :, 0],
    }
    pi = np.longdouble("3.14159265358979323846264338327950288")
    x = 2 * pi * np.arange(grid.n, dtype=np.longdouble) / (grid.n - 1)
    phase = np.array(indices, dtype=np.longdouble)[:, None] * x
    norm = np.sqrt(2 * pi)
    for name, h in sources.items():
        assert np.max(np.abs(h.real - np.cos(phase) / norm)) <= 2e-15, name
        assert np.max(np.abs(h.imag - np.sin(phase) / norm)) <= 2e-15, name


def test_gram_fourier_index_beyond_int64_is_reduced(tmp_path):
    """An index beyond int64 is reduced mod n - 1 before any numpy product;
    its Gram row is the row of its residue, and off-residue entries are
    exact zeros."""
    big = 2**70
    residue = big % 512  # the default --grid-n 513
    rows = {}
    for name, indices in (("big", f"0,3,{big}"), ("residue", f"0,3,{residue}")):
        assert main(["gram", "--family", "fourier", f"--indices={indices}", "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == f"index,{indices}"
        rows[name] = [line.split(",", 1)[1] for line in lines[1:]]
    assert rows["big"] == rows["residue"]
    assert rows["big"][0] == "1+0j,0+0j,1+0j"


def _old_function_csv(f: GridFunction) -> str:
    """The per-cell writer the row template replaced."""
    x = f.grid.points()
    lines = ["x," + ",".join(f"re{l},im{l}" for l in range(f.dim))]
    for i in range(f.grid.n):
        cells = [cli.FMT % x[i]]
        for l in range(f.dim):
            z = f.values[i, l]
            cells += [cli.FMT % z.real, cli.FMT % z.imag]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _old_gram_csv(g: GramMatrix) -> str:
    """The per-entry writer the row template replaced."""

    def fmt_complex(z):
        return f"{cli.FMT % z.real}{'+' if z.imag >= 0 else '-'}{cli.FMT % abs(z.imag)}j"

    labels = [str(a) for a in g.indices]
    lines = ["index," + ",".join(labels)]
    for lab, row in zip(labels, g.matrix):
        lines.append(lab + "," + ",".join(fmt_complex(z) for z in row))
    return "\n".join(lines) + "\n"


_SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e308, -1e308, 1 / 3, -2.5e-7])
_VALUE = st.one_of(_SPECIAL, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=1, max_value=3),
    st.lists(_VALUE, min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
@example(2, 1, [-0.0, 5e-324, 1e16, 1e308], 0, False)
@example(5, 2, [math.nan, -0.0], 1, True)
def test_function_writers_keep_the_old_bytes(tmp_path, n, dim, specials, seed, with_nan):
    """Row templates write the bytes of the per-cell CSV loop and of
    json.dump(f.to_json(), indent=2, sort_keys=True); a NaN takes the
    json.dump route, which writes NaN where %r would write nan."""
    gen = np.random.default_rng(seed)
    v = gen.standard_normal((n, dim)) + 1j * gen.standard_normal((n, dim))
    pos = gen.integers(0, 2 * n * dim, size=len(specials))
    flat = v.reshape(-1).view(float)
    flat[pos] = specials
    if with_nan:
        flat[gen.integers(0, flat.size)] = math.nan
    f = GridFunction(Grid(-1.5, 2.25, n), v)
    cli._write_function_csv(tmp_path / "f.csv", f)
    assert (tmp_path / "f.csv").read_text() == _old_function_csv(f)
    f.dump(tmp_path / "f.function.json")
    assert (tmp_path / "f.function.json").read_text() == json.dumps(f.to_json(), indent=2, sort_keys=True) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(min_value=1, max_value=20),
    st.lists(_SPECIAL, min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gram_csv_keeps_the_old_bytes(tmp_path, m, specials, seed):
    """One template per row, with the old sign rule: "+" when imag >= 0,
    which includes -0.0, then |imag|."""
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
    flat = a.reshape(-1).view(float)
    flat[gen.integers(0, flat.size, size=len(specials))] = specials
    g = GramMatrix(matrix=a, indices=tuple(j - m // 2 for j in range(m)))
    cli._write_gram_csv(tmp_path / "g.csv", g)
    assert (tmp_path / "g.csv").read_text() == _old_gram_csv(g)


@pytest.mark.parametrize(
    "family,indices",
    [("fourier", "-6..6"), ("fourier", "0,8,16,3"), ("average", "-3..3"), ("point", "-3..3")],
)
def test_gram_csv_of_each_family_keeps_the_old_bytes(tmp_path, family, indices):
    argv = ["gram", "--family", family, f"--indices={indices}", "--grid-n", "9", "--w-n", "257"]
    assert main([*argv, "--out", str(tmp_path / "g")]) == 0
    g = cli._gram_of(cli.build_parser().parse_args(argv))
    assert (tmp_path / "g.csv").read_text() == _old_gram_csv(g)


_CENTRE = st.one_of(
    st.integers(min_value=-40, max_value=40).map(str),
    st.integers(min_value=-4000, max_value=4000).map(lambda k: f"{k / 100:.2f}"),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([("average", "box"), ("average", "triangle"), ("average", "cosine"), ("point", "box")]),
    st.lists(_CENTRE, min_size=1, max_size=10),
    st.sampled_from(["0.05", "0.2", "0.45"]),
    st.integers(min_value=2, max_value=700),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=1, max_value=12),
)
@example(("average", "box"), ["-3", "0", "2"], "0.2", 2049, 16, 32)
@example(("point", "box"), ["0.50", "-3.70", "12"], "0.2", 2, 0, 1)
def test_gram_and_psd_write_the_gram_of_the_frame_route(tmp_path, kind, centres, delta, w_n, m, ppu):
    """gram and psd take the Gram from the features on the --w-n grid alone.
    It is the Gram of the frame that pw_average_sections or pw_point_sections
    build on any window, bit for bit, for integer and non-integer centres."""
    family, profile = kind
    argv = ["--family", family, f"--indices={','.join(centres)}", "--profile", profile, "--delta", delta]
    argv += ["--w-n", str(w_n)]
    assert main(["gram", *argv, "--out", str(tmp_path / "g")]) == 0
    assert main(["psd", *argv, "--out", str(tmp_path / "p")]) == 0
    indices = cli._parse_indices(",".join(centres), "--indices")
    window, w_grid = pw_window(m, points_per_unit=ppu), w_grid_default(w_n)
    if family == "average":
        frame = pw_average_sections(indices, float(delta), window, profile, w_grid)
    else:
        frame = pw_point_sections(indices, window, w_grid)
    g = cli._gram_of(cli.build_parser().parse_args(["gram", *argv]))
    assert g.indices == frame.alphas
    assert np.array_equal(g.matrix, frame.gram.matrix)
    assert g.asymmetry == frame.gram.asymmetry
    assert (tmp_path / "g.csv").read_text() == _old_gram_csv(frame.gram)
    report = psd_check(frame.gram)
    assert json.loads((tmp_path / "p.json").read_text()) == {
        "min_eig": report.min_eig, "max_eig": report.max_eig, "pass": report.passed, "asymmetry": frame.gram.asymmetry,
    }


@pytest.mark.parametrize("family", ["average", "point"])
def test_psd_forms_no_section_stack(tmp_path, family):
    """psd --indices=-64..64 holds the 129 features on the 2049-point
    frequency grid (4 MiB) and their product, and no section: the frame
    route, which also synthesized 129 sections on the default 2049-point
    window, peaked at 15.7-15.9 MiB (average) and 12.2-12.4 MiB (point);
    the feature route peaks at 8.3-8.5 MiB."""
    tracemalloc.start()
    try:
        code = main(["psd", "--family", family, "--indices=-64..64", "--out", str(tmp_path / "p")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads((tmp_path / "p.json").read_text())["pass"]
    assert peak < 10 * 2**20


def test_fourier_indices_beyond_2_to_the_20_are_read_by_their_residues(signal_file, tmp_path):
    """Indices [0, 2**21] were refused, since their chirp-z span passed the
    2**20 cap. At --grid-n 129 both have residue 0, so the problem is the
    [0, 0] problem, bit for bit."""
    etas = []
    for name, indices in (("wide", [0, 2**21]), ("zero", [0, 0])):
        problem = {
            "family": {"family": "fourier", "params": {}},
            "indices": indices,
            "lambda": 0.1,
            "signal": json.loads(signal_file.read_text()),
        }
        ppath = tmp_path / f"{name}.problem.json"
        ppath.write_text(json.dumps(problem))
        assert main(["regnet", "--problem", str(ppath), "--grid-n", "129", "--out", str(tmp_path / name)]) == 0
        etas.append(json.loads((tmp_path / f"{name}.json").read_text())["eta"])
    assert etas[0] == etas[1]


@pytest.mark.parametrize("command,flag", [
    ("avg-sample", "--signal"), ("reconstruct", "--signal"), ("regnet", "--problem"), ("gram", "--config"),
])
@pytest.mark.parametrize("kind", ["empty", "binary"])
def test_an_input_file_that_is_not_json_is_refused_by_flag_and_path(tmp_path, capsys, command, flag, kind):
    """An empty or binary input file exited 2 with a bare JSONDecodeError or
    UnicodeDecodeError that named neither the flag nor the file."""
    path = os.devnull
    if kind == "binary":
        path = str(tmp_path / "input.bin")
        Path(path).write_bytes(bytes(range(256)))
    extra = ["--x=0"] if command == "avg-sample" else []
    code = main([command, flag, path, *extra, "--out", str(tmp_path / "x")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ValidationError"
    assert f"{flag} {path}" in err["message"]
    assert not list(tmp_path.glob("x.*"))


def _signal_text(**fields) -> str:
    """A one-coefficient signal file with the given fields replaced."""
    signal = {"coeffs": [[1.0, 0.0]], "offset": 0, "dim": 1, "window": {"a": -8.0, "b": 8.0, "n": 257}}
    return json.dumps({**signal, **fields})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command,text",
    [
        ("regnet", "{}"),
        ("regnet", "[1, 2]"),
        ("regnet", '{"family": [1], "indices": [0], "lambda": 0.1}'),
        ("regnet", '{"family": {"family": "fourier"}, "indices": 3, "lambda": 0.1}'),
        (
            "regnet",
            '{"family": {"family": "fourier", "params": {"a": 1.0, "b": 2.0}}, "indices": [0], "lambda": 0.1,'
            ' "samples": [[1, 0]]}',
        ),
        ("reconstruct", "{}"),
        ("reconstruct", "[1, 2]"),
        ("avg-sample", "{}"),
        ("avg-sample", "[1, 2]"),
        ("gram", "[1, 2]"),
        ("reconstruct", _signal_text(window={})),
        ("reconstruct", _signal_text(window=[1, 2, 3])),
        ("reconstruct", _signal_text(coeffs=5)),
        ("reconstruct", _signal_text(coeffs=[[1, "a"]])),
        ("reconstruct", _signal_text(coeffs=[None])),
        ("reconstruct", _signal_text(dim=0)),
        ("reconstruct", _signal_text(coeffs=[])),
        ("reconstruct", _signal_text(coeffs=[[True, False]])),
        ("reconstruct", _signal_text(offset=0.5)),
        ("avg-sample", _signal_text(window={"a": -8.0, "b": 8.0, "n": 257.5})),
        ("reconstruct", "[" * 5000 + "]" * 5000),
        ("regnet", "[" * 5000 + "]" * 5000),
        ("gram", "[" * 5000 + "]" * 5000),
        ("reconstruct", _signal_text(coeffs=json.loads("[" * 900 + "]" * 900))),
    ],
    ids=[
        "regnet-empty", "regnet-list", "regnet-family-list", "regnet-indices-number", "regnet-fourier-interval",
        "reconstruct-empty", "reconstruct-list", "avg-sample-empty", "avg-sample-list", "gram-config-list",
        "signal-window-empty", "signal-window-list", "signal-coeffs-number", "signal-coeffs-string",
        "signal-coeffs-null", "signal-dim-zero", "signal-coeffs-empty", "signal-coeffs-bool", "signal-offset-fraction",
        "signal-window-n-fraction", "signal-nested-5000-deep", "regnet-nested-5000-deep", "config-nested-5000-deep",
        "signal-coeffs-nested-900-deep",
    ],
)
def test_malformed_input_files_exit_2(tmp_path, capsys, command, text):
    """A problem, signal or config file that is not an object with the
    expected keys, or a field of the wrong JSON type, is refused where it is
    read, with one JSON line on stderr. The top-level cases ended in a
    KeyError, TypeError or AttributeError traceback, and so did a signal's
    window {} or [1, 2, 3], coeffs 5, [[1, "a"]] or [null] and dim 0.
    Empty coeffs ran and reported an infinite error, [[true, false]] ran as
    [[1, 0]] and offset 0.5 ran as 0. A Fourier family with the params
    a = 1, b = 2 ran on [0, 2pi]. Lists nested 5,000 deep ended in a
    RecursionError traceback from the JSON decoder, and coeffs nested 900
    deep in a RuntimeError from numpy's iterator, which takes 32 axes."""
    path = tmp_path / "input.json"
    path.write_text(text)
    flag = {"regnet": "--problem", "reconstruct": "--signal", "avg-sample": "--signal", "gram": "--config"}[command]
    extra = ["--x=0,1"] if command == "avg-sample" else []
    code = main([command, flag, str(path), *extra, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("x.*"))


def test_gram_fourier_refuses_a_fractional_index(tmp_path, capsys):
    """--indices=1.5,2 exited 0 with 1.5 labelled 1."""
    code = main(["gram", "--family", "fourier", "--indices=1.5,2", "--out", str(tmp_path / "g")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not (tmp_path / "g.csv").exists()


def test_avg_sample_roundtrip(signal_file, tmp_path):
    out = tmp_path / "samples"
    assert main([
        "avg-sample", "--signal", str(signal_file), "--x=-4..4",
        "--delta", "0.2", "--window", "24", "--out", str(out),
    ]) == 0
    ss = SampleSet.from_json(json.loads((tmp_path / "samples.json").read_text()))
    assert len(ss) == 9


def test_regnet_from_problem_file(signal_file, tmp_path):
    problem = {
        "family": {"family": "average", "params": {"delta": 0.2, "profile": "box"}},
        "indices": [-2, -1, 0, 1, 2],
        "lambda": 0.1,
        "signal": json.loads(signal_file.read_text()),
        "noise": {"sigma": 0.01, "seed": 3},
    }
    ppath = tmp_path / "prob.json"
    ppath.write_text(json.dumps(problem))
    out = tmp_path / "regnet"
    assert main(["regnet", "--problem", str(ppath), "--window", "24", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "regnet.json").read_text())
    assert len(rep["eta"]) == 5
    assert rep["residual"] < 1e-8


@pytest.mark.parametrize("family", [{"family": "average", "params": {"delta": 0.2}}, {"family": "point", "params": {}}])
def test_regnet_samples_may_index_sections_outside_the_window(tmp_path, family):
    """The window check guards the sampling of a signal; a problem that
    brings its own samples may index sections centred outside --window."""
    ppath = tmp_path / "prob.json"
    ppath.write_text(json.dumps({"family": family, "indices": [0, 40], "lambda": 0.1, "samples": [[1.0, 0.0], [0.5, 0.0]]}))
    assert main(["regnet", "--problem", str(ppath), "--out", str(tmp_path / "r")]) == 0
    assert len(json.loads((tmp_path / "r.json").read_text())["eta"]) == 2


def test_si_diagnose(tmp_path):
    out = tmp_path / "si"
    assert main(["si-diagnose", "--generator", "hat", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "si.json").read_text())
    assert rep["biorthogonality_residual"] < 1e-6
    assert rep["coefficient_identity_deviation"] < 1e-5
    assert rep["density_rank"] == rep["density_family_size"]


def test_si_diagnose_dual_coefficient_tail_decays(tmp_path):
    tails = []
    for k_max in ("8", "16"):
        out = tmp_path / f"si{k_max}"
        assert main(["si-diagnose", "--generator", "hat", "--k-max", k_max, "--out", str(out)]) == 0
        tails.append(json.loads(out.with_suffix(".json").read_text())["dual_coefficient_tail"])
    assert 0.0 < tails[1] < 1e-3 * tails[0]


def test_stability_report(tmp_path):
    out = tmp_path / "stab"
    assert main([
        "stability", "--m", "8", "--sizes", "4,8", "--trials", "25",
        "--lambda", "0.1", "--out", str(out),
    ]) == 0
    rep = json.loads((tmp_path / "stab.json").read_text())
    assert rep["truncated"]["pass"]
    assert rep["tikhonov"]["pass"]
    table = (tmp_path / "stab.csv").read_text().strip().splitlines()
    assert table[0] == "size,truncated_ratio,damped_ratio"
    assert len(table) == 3


def test_vector_sampling_report(tmp_path):
    out = tmp_path / "vs"
    assert main(["vector-sampling", "--n", "2", "--m-range", "8", "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "vs.json").read_text())
    assert rep["cross_block_max"] < 1e-8
    assert len(rep["x"]) == 2 * 17


def test_window_flag_controls_evaluation_width(signal_file, tmp_path):
    out = tmp_path / "recw"
    assert main([
        "reconstruct", "--space", "pw", "--signal", str(signal_file),
        "--m", "8", "--delta", "0.2", "--window", "20", "--out", str(out),
    ]) == 0
    fn = json.loads((tmp_path / "recw.function.json").read_text())
    assert fn["a"] == -20.0 and fn["b"] == 20.0


@pytest.mark.parametrize(
    "argv,want",
    [
        (["reconstruct", "--signal=s.json", "--m=8"], pw_window(8, points_per_unit=32)),
        (["stability", "--m=3", "--points-per-unit=4"], pw_window(3, points_per_unit=4)),
        (["reconstruct", "--signal=s.json", "--m=8", "--window=20", "--points-per-unit=4"], Grid(-20.0, 20.0, 161)),
        (["avg-sample", "--signal=s.json", "--x=0"], pw_window(16, points_per_unit=32)),
        (["regnet", "--problem=p.json", "--points-per-unit=7"], pw_window(16, points_per_unit=7)),
    ],
    ids=["reconstruct-m", "stability-m", "reconstruct-window", "avg-sample-default", "regnet-default"],
)
def test_the_window_is_the_given_half_width_else_m_plus_16(argv, want):
    """T is --window when it is given, else --m + 16. avg-sample and regnet
    take no --m; their --window defaults to 32, the window of the old
    default --m 16."""
    assert cli._window_grid(cli.build_parser().parse_args(argv)) == want


@pytest.mark.parametrize("window", ["0", "0.01"], ids=["zero", "below-one-step"])
def test_window_without_a_grid_step_is_refused_by_flag(signal_file, tmp_path, capsys, window):
    """A --window that rounds to no grid step at --points-per-unit exits 2
    naming --window. Before, the grid refused it: --window 0 with "grid
    requires finite a < b" and --window 0.01 with "grid requires n >= 2"."""
    code = main([
        "reconstruct", "--signal", str(signal_file), "--window", window, "--out", str(tmp_path / "x"),
    ])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ValidationError"
    assert "--window" in err["message"]
    assert not list(tmp_path.glob("x.*"))


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.05}))
    out = tmp_path / "kadec"
    assert main(["kadec", "--delta", "0.2", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "kadec.manifest.json").read_text())
    assert manifest["config"]["delta"] == 0.05


def test_config_values_convert_like_flags(signal_file, tmp_path):
    base = ["reconstruct", "--space", "fourier", "--signal", str(signal_file), "--grid-n", "129"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": "4"}))
    assert main(base + ["--m", "4", "--out", str(tmp_path / "flag")]) == 0
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    assert json.loads((tmp_path / "file.manifest.json").read_text())["config"]["m"] == 4
    cfg.write_text(json.dumps({"delta": "0.1"}))
    assert main(["kadec", "--delta", "0.2", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 0
    assert json.loads((tmp_path / "k.json").read_text())["A"] == pytest.approx(2.5900216461986734, abs=1e-12)


@pytest.mark.parametrize(
    "override",
    [{"m": "four"}, {"profile": "hexagon"}, {"window": "inf"}, {"bogus": 1}, {"win": 20}, {"config": "other.json"}],
    ids=["not-an-int", "not-a-choice", "not-finite", "unknown-key", "abbreviated-key", "config-key"],
)
def test_config_values_are_refused_like_flags(signal_file, tmp_path, capsys, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    code = main([
        "reconstruct", "--space", "pw", "--signal", str(signal_file),
        "--config", str(cfg), "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--space", "pw", "--points-per-unit", "10000000"],
        ["reconstruct", "--space", "pw", "--w-n", "1000000", "--m", "100"],
        ["vector-sampling", "--m-range", "20000"],
        ["gram", "--family", "fourier", "--indices=-4000..4000", "--grid-n", "2"],
    ],
    ids=["grid-cap", "stack-cap", "vector-sampling-cap", "gram-cap"],
)
def test_size_caps_refuse_before_allocating(signal_file, tmp_path, capsys, argv):
    if argv[0] == "reconstruct":
        argv = argv + ["--signal", str(signal_file)]
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert peak < 2**24  # no grid or section stack was built


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--k-max", "600000"), ("--k-range", "600000"), ("--n-centers", "200000"),
        ("--delta", "1000000.0"), ("--delta", "1e+300"),
    ],
    ids=["k-max", "k-range", "n-centers", "delta", "delta-overflow"],
)
def test_si_diagnose_size_caps_name_the_flag(tmp_path, capsys, flag, value):
    """--k-max 600 once computed the dual coefficients and then exited 2
    with "grid of 1230849 points exceeds the cap of 1048576", naming no
    flag. The dual is now its 2 k_max + 1 coefficients, and the cap counts
    them: --k-max 600000 asks for more. --k-range 600000 ran to completion over 1200001 coefficients, and
    --n-centers had no bound. --delta 1e6 ended in a numpy MemoryError
    traceback at exit 1, from a (shifts x 4097) window matrix of 61 GiB, and
    --delta 1e300 in numpy's "Maximum allowed size exceeded". Each is now
    refused by name before any array it sizes is built."""
    tracemalloc.start()
    try:
        code = main(["si-diagnose", flag, value, "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ValidationError"
    assert err["message"].startswith(f"{flag} {value} needs ")
    assert peak < 2**24
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("profile", ["box", "triangle", "cosine"])
@pytest.mark.parametrize("delta", ["5e-324", "1e-310"])
def test_subnormal_widths_are_refused_before_any_profile_is_evaluated(tmp_path, capsys, profile, delta):
    """The box at 5e-324 printed RuntimeWarnings and exited 0 with a NaN
    mass let through; triangle and cosine at 1e-310 exited 2 only after
    numpy's overflow warnings. A width whose peak 1/delta overflows is now
    refused first; 1e-308, whose peak is finite, still runs."""
    argv = ["psd", "--family", "average", "--profile", profile, "--out", str(tmp_path / "x")]
    assert main([*argv, "--delta", delta]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["message"].startswith("delta must be positive with a finite profile peak")
    assert not list(tmp_path.glob("x.*"))
    assert main([*argv, "--delta", "1e-308"]) == 0


def test_validation_error_exit_code(tmp_path, capsys):
    # admissibility violation: delta beyond the quarter-shift threshold
    code = main(["kadec", "--delta", "0.3", "--out", str(tmp_path / "bad")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "AdmissibilityError"


def test_missing_signal_exit_code(tmp_path):
    code = main([
        "reconstruct", "--space", "pw", "--signal", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_input_path_that_is_a_directory_exits_2(tmp_path, capsys):
    """Only FileNotFoundError was caught, so a directory ended in an
    IsADirectoryError traceback."""
    code = main(["reconstruct", "--signal", str(tmp_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"


def test_conditioning_error_exit_code(signal_file, tmp_path, capsys):
    # a repeated index makes G_L singular, and lambda 1e-14 leaves
    # G_L + lambda I beyond the solver's 1e-12 conditioning floor
    problem = {
        "family": {"family": "average", "params": {"delta": 0.2}},
        "indices": [0, 0],
        "lambda": 1e-14,
        "signal": json.loads(signal_file.read_text()),
    }
    ppath = tmp_path / "prob.json"
    ppath.write_text(json.dumps(problem))
    code = main(["regnet", "--problem", str(ppath), "--window", "24", "--out", str(tmp_path / "x")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConditioningError"


def _regnet_problem(signal_file, **fields) -> dict:
    """A Fourier problem on the signal file; a "signal" dict among the fields
    replaces fields of that signal."""
    signal = json.loads(signal_file.read_text())
    problem = {
        "family": {"family": "fourier", "params": {}},
        "indices": [-1, 0, 1],
        "lambda": 0.1,
        "signal": signal,
    }
    if isinstance(fields.get("signal"), dict):
        fields["signal"] = {**signal, **fields["signal"]}
    problem.update(fields)
    return problem


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fields",
    [
        {"lambda": -1},
        {"lambda": 0},
        {"lambda": "nan"},
        {"lambda": math.nan},
        {"lambda": math.inf},
        {"lambda": "1e400"},
        {"signal": None, "samples": [[math.nan, 0], [0, 0], [1, 0]]},
        {"noise": {"sigma": math.nan, "seed": 3}},
        {"indices": [0, 1.5]},
        {"indices": [0, "1e400"]},
        {"signal": None, "samples": [1, 2, 3]},
        {"signal": None, "samples": 5},
        {"signal": None, "samples": [[1, "a"], [0, 0], [1, 0]]},
        {"noise": {"sigma": 0.1}},
        {"noise": 5},
        {"noise": {"sigma": 0.1, "seed": 1.5}},
        {"lambda": [1]},
        {"signal": {"window": {}}},
        {"family": {"family": "average", "params": {"delta": "x"}}},
        {"family": {"family": "average", "params": {}}},
        {"family": {"family": "average", "params": {"delta": 0.2, "bogus": 1}}},
        {"indices": [], "signal": None, "samples": []},
        {"family": {"family": "average", "params": {"delta": 0.2}}, "indices": [0, 40]},
        {"family": {"family": "point", "params": {}}, "indices": [-40, 0]},
    ],
    ids=[
        "lambda-negative", "lambda-zero", "lambda-nan-string", "lambda-nan", "lambda-infinity",
        "lambda-overflow", "samples-nan", "noise-sigma-nan", "fourier-index-fractional", "fourier-index-overflow",
        "samples-numbers", "samples-number", "samples-string", "noise-without-seed", "noise-number",
        "noise-seed-fractional", "lambda-list", "signal-window-empty", "family-delta-string",
        "family-delta-missing", "family-param-unknown", "indices-empty", "average-index-outside-the-window",
        "point-index-outside-the-window",
    ],
)
def test_regnet_bad_inputs_are_refused(signal_file, tmp_path, capsys, fields):
    """A lambda that is not finite and positive, a non-finite sample, noise
    that makes one, a Fourier index that is not an integer and a field of
    the wrong JSON type exit 2, with one JSON object on stderr, no numpy
    warning and no report. The index 1.5 ran as j = 1, 1e400 ended in an
    OverflowError traceback, and so did each malformed samples, noise,
    lambda and signal field in a TypeError or KeyError; a noise seed of 1.5
    ran as 1, and empty indices ended in an IndexError. An average or point
    index outside --window, with a signal to sample, ended in a DomainError
    that named neither the index nor --window."""
    ppath = tmp_path / "prob.json"
    ppath.write_text(json.dumps(_regnet_problem(signal_file, **fields)))
    if "1e400" in json.dumps(fields):  # a JSON number beyond float range, read as inf
        ppath.write_text(ppath.read_text().replace('"1e400"', "1e400"))
    code = main(["regnet", "--problem", str(ppath), "--grid-n", "129", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "ValidationError"
    assert err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()
    if fields.get("family", {}).get("family") in ("average", "point") and "indices" in fields:
        assert "index" in err and "40" in err and "--window" in err


@pytest.mark.parametrize("cutoff", ["1.5", "1.0"])
def test_rel_cutoff_out_of_range_is_validation_error(signal_file, tmp_path, capsys, cutoff):
    code = main([
        "reconstruct", "--space", "fourier", "--signal", str(signal_file),
        "--m", "4", "--grid-n", "129", "--rel-cutoff", cutoff, "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


@pytest.mark.parametrize(
    "flags",
    [
        ["--m", "8", "--sizes", "4,8", "--trials", "0"],
        ["--m", "8", "--sizes", "0", "--trials", "5"],
        ["--m", "4", "--sizes", "4,8,16", "--trials", "5"],
        ["--m", "8", "--sizes", "4,4", "--trials", "5"],
        ["--m", "8", "--sizes", "4", "--trials", "5", "--lambda", "0"],
        ["--m", "8", "--sizes", "4", "--trials", "5", "--lambda", "-1"],
        ["--m", "8", "--sizes", "4", "--trials", "5", "--lambda", "nan"],
        ["--m", "8", "--sizes", "4", "--trials", "5", "--lambda", "inf"],
        ["--m", "8", "--sizes", "4", "--trials", "5", "--delta", "inf"],
    ],
    ids=[
        "no-trials", "size-zero", "size-beyond-frame", "duplicate-size",
        "lambda-zero", "lambda-negative", "lambda-nan", "lambda-inf", "delta-inf",
    ],
)
@pytest.mark.filterwarnings("error")
def test_stability_bad_inputs_are_refused(tmp_path, capsys, flags):
    """--delta inf printed numpy RuntimeWarnings and then named a
    ShapeMismatchError."""
    code = main([
        "stability", *flags, "--w-n", "129", "--points-per-unit", "4",
        "--out", str(tmp_path / "stab"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "ValidationError"
    assert err.count("\n") == 1
    assert not (tmp_path / "stab.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--m", "four"],
        ["reconstruct", "--window", "inf"],
        ["reconstruct", "--window", "0"],
        ["reconstruct", "--window", "1e308"],
        ["stability", "--m", "9" * 400],
        ["reconstruct", "--space", "fourier", "--m", "9" * 400],
        ["reconstruct", "--rel-cutoff", "nan"],
        ["vector-sampling", "--perturb", "inf"],
        ["avg-sample", "--x=0,1", "--delta", "inf"],
        ["stability", "--delta", "-inf"],
        ["kadec"],
        ["no-such-command"],
        ["avg-sample", "--x", "abc"],
        ["avg-sample", "--x", "0,1e400"],
        ["gram", "--indices", "a..3"],
        ["gram", "--indices", "0..99999999999"],
    ],
    ids=[
        "m-not-an-int", "window-inf", "window-zero", "window-overflow", "m-overflow",
        "fourier-m-overflow", "rel-cutoff-nan", "perturb-inf", "avg-sample-delta-inf",
        "stability-delta-inf", "required-flag-missing", "unknown-command", "x-not-a-number",
        "x-overflow", "indices-range-not-a-number", "indices-range-overflow",
    ],
)
def test_bad_flag_values_exit_2(signal_file, tmp_path, capsys, argv):
    """A flag argparse refuses exits 2 with one JSON line on stderr, like a
    malformed file, and every float flag refuses nan and +-inf. --m four
    printed argparse's usage text, --window inf and --perturb inf ended in
    OverflowError tracebacks, --delta inf printed numpy RuntimeWarnings, and
    --window 0 ran on the default window and exited 0. --window 1e308 and a
    400-digit --m ended in OverflowError tracebacks at exit 1; a window above
    the grid cap, or more indices than the stack cap, is now refused by the
    flag that set it, before any float or index list is formed from it.
    --x abc and --indices a..3 exited 2 with a bare "invalid literal for
    int()"."""
    if argv[0] in ("reconstruct", "avg-sample"):
        argv = [*argv, "--signal", str(signal_file)]
    code = main([*argv, "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"] == "ValidationError"
    assert captured.err.count("\n") == 1
    assert not captured.out
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv,flag",
    [
        (["gram", "--indices="], "--indices"),
        (["psd", "--family", "average", "--indices=1..0"], "--indices"),
        (["avg-sample", "--x="], "--x"),
        (["reconstruct", "--m", "-1"], "--m"),
        (["reconstruct", "--points-per-unit", "0"], "--points-per-unit"),
        (["reconstruct", "--space", "fourier", "--grid-n", "-1"], "--grid-n"),
        (["stability", "--w-n", "1"], "--w-n"),
        (["vector-sampling", "--n", "-1"], "--n"),
        (["vector-sampling", "--m-range", "-1"], "--m-range"),
        (["vector-sampling", "--perturb", "-0.1"], "--perturb"),
        (["si-diagnose", "--k-max", "-1"], "--k-max"),
        (["si-diagnose", "--k-range", "-1"], "--k-range"),
        (["si-diagnose", "--n-centers", "0"], "--n-centers"),
        (["stability", "--sizes="], "--sizes"),
        (["avg-sample", "--x", "0.5,abc"], "--x"),
        (["si-diagnose", "--center", "1e300"], "--center"),
        (["si-diagnose", "--center", "1e16"], "--center"),
        (["si-diagnose", "--center", "1e12"], "--center"),
        (["reconstruct", "--window", "3"], "--window"),
        (["reconstruct", "--window", "4.01", "--m", "2"], "--window"),
        (["reconstruct", "--delta", "20"], "--m"),
        (["avg-sample", "--x", "0,40"], "--x 40"),
        (["avg-sample", "--x", "31.9", "--window", "32"], "--window"),
    ],
    ids=[
        "indices-empty", "indices-reversed", "x-empty", "m-negative", "points-per-unit-zero", "grid-n-negative",
        "w-n-one", "n-negative", "m-range-negative", "perturb-negative", "k-max-negative", "k-range-negative",
        "n-centers-zero", "sizes-empty", "x-not-a-number", "center-1e300", "center-1e16", "center-1e12",
        "window-below-the-supports", "window-without-an-interior", "delta-beyond-the-default-window",
        "x-outside-the-window", "x-support-beyond-the-window",
    ],
)
def test_empty_or_negative_sizes_are_refused_by_flag(signal_file, tmp_path, capsys, argv, flag):
    """A size flag below its least value, or a list flag that names no index,
    exits 2 with a ValidationError that names the flag. Before, --indices=
    failed in a numpy reshape, --n -1 with "math domain error", --k-max -1
    with "negative dimensions are not allowed", --m -1 with a
    ShapeMismatchError, --sizes= with "invalid literal for int()", and
    avg-sample --x= exited 0 with no samples, vector-sampling --perturb -0.1
    with an unperturbed set. --x 0.5,abc failed in int() too, and
    si-diagnose --center 1e300 or 1e16 with "grid requires finite a < b",
    1e12 with "profile mass ... deviates from 1", naming no flag.
    reconstruct --window 3 at --m 16 ended in a DomainError on a support
    that escapes the window, --window 4.01 --m 2 in a ShapeMismatchError
    on an interior window of one point, and --delta 20 like --window 3.
    avg-sample --x 40 (or 31.9, whose support reaches 32.1) ended in a
    DomainError on a support that escapes the signal grid, naming neither
    --x nor --window."""
    if argv[0] in ("reconstruct", "avg-sample"):
        argv = [*argv, "--signal", str(signal_file)]
    code = main([*argv, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"
    assert flag in json.loads(err)["message"]
    assert not list(tmp_path.glob("x.*"))


def test_list_flags_read_exponent_floats(signal_file, tmp_path, capsys):
    """--x 2e-1 samples at 0.2 as --x 0.2 does; it failed in int() before.
    A token that is no number is refused with the flag and the token."""
    outputs = []
    for name, x in (("decimal", "0.2,1"), ("exponent", "2e-1,1")):
        argv = ["avg-sample", "--x", x, "--signal", str(signal_file), "--out", str(tmp_path / name)]
        assert main(argv) == 0
        outputs.append((tmp_path / f"{name}.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert main(["avg-sample", "--x", "0.5,abc", "--signal", str(signal_file), "--out", str(tmp_path / "x")]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "--x" in message and "'abc'" in message


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["reconstruct", "--help"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_linalg_error_exits_numerical(signal_file, tmp_path, capsys, monkeypatch):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    code = main([
        "reconstruct", "--space", "pw", "--signal", str(signal_file),
        "--m", "4", "--w-n", "257", "--points-per-unit", "8", "--out", str(tmp_path / "x"),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LinAlgError"


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--family", "fourier", "--indices=-2..2", "--grid-n", "65"],
        ["reconstruct", "--space", "pw", "--m", "2", "--w-n", "65", "--points-per-unit", "4"],
        ["stability", "--m", "4", "--sizes", "2,4", "--trials", "5", "--w-n", "65", "--points-per-unit", "4"],
    ],
    ids=["gram-fourier", "reconstruct-pw", "stability"],
)
def test_tracer_runs_the_cli(signal_file, tmp_path, argv):
    """perfbench/tracer.py looks each traced method up in its own class body
    (each family's ``apply``, ``transform`` and ``inverse_transform``) and
    binds the arguments ``centers``, ``out_grid`` and ``w_grid`` of
    ``pw_average_sections`` by name; a moved method or a renamed argument
    would crash the traced run."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    spans = tmp_path / "spans.json"
    if argv[0] == "reconstruct":
        argv = [*argv, "--signal", str(signal_file)]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(spans), *argv, "--out", str(tmp_path / "x")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())["spans"]


def test_cli_holds_no_frame_arithmetic():
    """cli.py parses, checks sizes, calls the library's builders and writes
    artifacts; rows, sections and Grams are formed in the library."""
    import ast

    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "opkern" / "cli.py").read_text())
    banned = {"exp", "uniform_fourier_sum", "stacked_frame", "GramMatrix", "TruncatedFrame", "sinc_kernel"}
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            called.add(fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None))
    assert not called & banned


def test_cli_import_loads_no_scipy():
    """The runtime imports only numpy; scipy is a test oracle, and importing
    it would add most of a second to every CLI invocation. numpy.fft and
    numpy.random are loaded on first use only (numpy 2 defers them; numpy 1
    loads them with numpy itself, so only what opkern adds is counted): at
    import they would add about 34 ms and 55 ms (python -X importtime) to
    every invocation. opkern.shift_invariant is imported by si-diagnose
    alone, when it runs."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import json, sys, numpy; bare = set(sys.modules); import opkern.cli; "
        "print(json.dumps(sorted(m for m in set(sys.modules) - bare if m.split('.')[0] == 'scipy' "
        "or m.startswith(('numpy.fft', 'numpy.random', 'opkern.shift_invariant')))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
