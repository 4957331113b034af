"""Every flag the CLI declares is one its subcommand reads, the benchmark's
workloads and the README's examples parse, and the README's flag table is
the parser's.

A flag is read when changing its value changes the run's outcome: its exit
code, its stderr or the bytes of an artifact other than the manifest, which
echoes every flag. Some flags are read under one family only (``--grid-n``
under ``--family fourier``), so each subcommand runs from one or more small
base configurations. One changes only what the handler refuses:
``stability`` reports on the Gram of the features and synthesizes no
section, so the evaluation window does not enter, and its
``--points-per-unit`` shows only in the window-cap refusal.
"""

import importlib.util
import json
import math
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from opkern import cli
from opkern.cli import main
from opkern.paley_wiener import BandlimitedSignal, pw_window

ROOT = Path(__file__).resolve().parents[1]

#: flags main reads itself, for every subcommand
_MAIN_FLAGS = {"--out", "--config"}


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if a.choices and a.dest == "command").choices


def _declared(p) -> dict:
    """option -> default of the subcommand's flags, --help excluded."""
    return {a.option_strings[-1]: a.default for a in p._actions if a.option_strings and a.dest != "help"}


_DECLARED = [
    (name, flag)
    for name, p in _subparsers(cli.build_parser()).items()
    for flag in _declared(p)
    if flag not in _MAIN_FLAGS
]


def _signal(path: Path, seed: int) -> str:
    coeffs = np.random.default_rng(seed).standard_normal((3, 2)) @ [1.0, 1j] / math.sqrt(2)
    path.write_text(json.dumps(BandlimitedSignal.symmetric(coeffs, pw_window(1, points_per_unit=4)).to_json()))
    return str(path)


def _problem(path: Path, family: dict, lam: float, signal: str) -> str:
    payload = {"family": family, "indices": [-1, 0, 1], "lambda": lam, "signal": json.loads(Path(signal).read_text())}
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The base configurations of each subcommand, the values each flag is
    changed to, tried in order, and a run that returns the outcome."""
    root = tmp_path_factory.mktemp("flags")
    sig, sig2 = _signal(root / "sig.json", 1), _signal(root / "sig2.json", 2)
    average = {"family": "average", "params": {"delta": 0.2}}
    fourier_problem = _problem(root / "fourier.json", {"family": "fourier", "params": {}}, 0.1, sig)
    average_problem = _problem(root / "average.json", average, 0.1, sig)
    small = ["--m=1", "--w-n=65", "--points-per-unit=4"]
    window = ["--window=17", "--w-n=65", "--points-per-unit=4"]
    families = [["--family=fourier", "--indices=-1..1", "--grid-n=33"], ["--family=average", "--indices=-1..1", "--w-n=65"]]
    bases = {
        "gram": families,
        "psd": families,
        "kadec": [["--delta=0.1"]],
        "reconstruct": [
            ["--space=pw", f"--signal={sig}", *small],
            ["--space=fourier", f"--signal={sig}", "--m=1", "--grid-n=33"],
        ],
        "avg-sample": [[f"--signal={sig}", "--x=-1..1", "--window=17", "--points-per-unit=4"]],
        "regnet": [[f"--problem={fourier_problem}", "--grid-n=33"], [f"--problem={average_problem}", *window]],
        # the functional centred at 2.25 meets the hat's shifts 2 and 3 only
        "si-diagnose": [["--k-max=4", "--k-range=2", "--center=2.25"]],
        "stability": [["--sizes=1,2", "--trials=4", *small]],
        "vector-sampling": [["--n=2", "--m-range=1", "--perturb=0.1", "--w-n=65"]],
    }
    variants = {
        "--family": ["point"],
        "--indices": ["-1..0"],
        "--delta": ["0.15"],
        "--profile": ["cosine"],
        # the second value of each window flag exceeds the grid cap or
        # spans no grid step
        "--m": ["2", "300000"],
        "--points-per-unit": ["3", "100000"],
        "--window": ["6", "0.01"],
        # the Fourier Gram of -1..1 is the identity on 17 points; 2 aliases them
        "--grid-n": ["17", "2"],
        "--w-n": ["33"],
        "--seed": ["5"],
        "--space": ["fourier"],
        "--signal": [sig2],
        "--x": ["-1..0"],
        "--problem": [_problem(root / "lambda.json", average, 0.5, sig)],
        "--generator": ["cubic"],
        "--k-max": ["3"],
        "--k-range": ["1"],
        "--center": ["0.75"],
        "--n-centers": ["2"],
        "--sizes": ["1"],
        "--trials": ["3"],
        "--lambda": ["0.5"],
        "--n": ["1"],
        "--m-range": ["2"],
        "--perturb": ["0.2"],
    }
    outcomes = {}

    def run(argv: list, capsys) -> tuple:
        key = tuple(argv)
        if key not in outcomes:
            out = root / f"run{len(outcomes)}"
            code = main([*argv, f"--out={out / 'r'}"])
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if not p.name.endswith(".manifest.json")}
            outcomes[key] = (code, capsys.readouterr().err, files)
        return outcomes[key]

    return bases, variants, run


@pytest.mark.parametrize("name,flag", _DECLARED, ids=[f"{name}:{flag}" for name, flag in _DECLARED])
def test_every_declared_flag_changes_the_outcome(runs, capsys, name, flag):
    """Each flag a subcommand declares changes the outcome of at least one
    of its base configurations. A flag that no handler reads is accepted,
    echoed into the manifest and then ignored."""
    bases, variants, run = runs
    assert flag in variants, f"give {flag} a value to change to"
    assert any(
        run([name, *base, f"{flag}={value}"], capsys) != run([name, *base], capsys)
        for base in bases[name]
        for value in variants[flag]
    ), f"{name} {flag} changes no artifact, exit code or message"


#: the window flags with a value each, which gram and psd do not take
_WINDOW_FLAGS = [("--m", "8"), ("--points-per-unit", "16"), ("--window", "24")]
_REMOVED = [
    *[(name, "--seed", "3") for name in ("gram", "psd", "kadec", "reconstruct", "avg-sample", "regnet", "si-diagnose")],
    ("avg-sample", "--grid-n", "17"),
    ("avg-sample", "--w-n", "33"),
    ("stability", "--grid-n", "17"),
    ("regnet", "--delta", "0.5"),
    ("regnet", "--profile", "cosine"),
    *[(name, flag, value) for name in ("gram", "psd") for flag, value in _WINDOW_FLAGS],
    ("avg-sample", "--m", "8"),
    ("regnet", "--m", "8"),
    ("stability", "--window", "24"),
    ("reconstruct", "--rel-cutoff", "0.5"),
]
_REQUIRED = {
    "kadec": ["--delta=0.1"],
    "reconstruct": ["--signal=sig.json"],
    "avg-sample": ["--signal=sig.json", "--x=0"],
    "regnet": ["--problem=problem.json"],
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("name,flag,value", _REMOVED, ids=[f"{n}:{f}" for n, f, _ in _REMOVED])
def test_a_flag_the_subcommand_does_not_take_is_refused(tmp_path, capsys, name, flag, value, via):
    """The flags no handler read exit 2, as a flag and as a --config key,
    with one JSON line on stderr and no report. regnet takes its family,
    delta and profile included, from the problem file; gram and psd form no
    window; the window of avg-sample and regnet is set by --window alone;
    and the duals of reconstruct take the default cutoff."""
    if via == "flag":
        extra = [f"{flag}={value}"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({flag[2:]: value}))
        extra = [f"--config={tmp_path / 'cfg.json'}"]
    code = main([name, *_REQUIRED.get(name, []), *extra, f"--out={tmp_path / 'x'}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ValidationError"
    assert not list(tmp_path.glob("x*"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
@pytest.mark.parametrize("workload", sorted(_WORKLOADS.WORKLOADS))
def test_benchmark_workloads_parse(tmp_path, workload, smoke):
    """The arguments of each benchmark workload, at both sizes, pass the
    parser, so a flag removed from a subcommand fails here before it fails
    the benchmark."""
    argv = _WORKLOADS.WORKLOADS[workload].cli_args(0, tmp_path, smoke) + ["--out", str(tmp_path / "run")]
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def _readme_table() -> dict:
    """subcommand -> {flag: default text, or None} from the README's flag
    table; the "every subcommand" row is merged into each."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## CLI") : text.index("### File formats")]
    rows, common = {}, {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or len(cells) != 2 or cells[0] in ("subcommand", "---"):
            continue
        flags = {f: d or None for f, d in re.findall(r"`(--[\w-]+)(?: ([^`]+))?`", cells[1])}
        if cells[0] == "every subcommand":
            common = flags
        for name in re.findall(r"`([\w-]+)`", cells[0]):
            assert name not in rows, f"{name} has two rows"
            rows[name] = flags
    return {name: {**common, **flags} for name, flags in rows.items()}


def test_readme_flag_table_matches_the_parser():
    """The README lists each subcommand's flags with their defaults, as
    build_parser declares them; a flag with no default is listed bare."""
    table = _readme_table()
    parsers = _subparsers(cli.build_parser())
    assert sorted(table) == sorted(parsers)
    for name, p in parsers.items():
        want = {flag: None if default is None else str(default) for flag, default in _declared(p).items()}
        assert table[name] == want, name


def _readme_examples() -> list:
    """The ``opkern ...`` command lines of the README's code blocks, each
    split as a shell would, without the program name."""
    examples, fenced = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("opkern "):
            examples.append(shlex.split(line)[1:])
    return examples


_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv", _EXAMPLES, ids=[argv[0] for argv in _EXAMPLES])
def test_readme_examples_parse(argv):
    """Each README example passes the parser, as the benchmark workloads do,
    so an example that names a removed flag fails here."""
    assert cli.build_parser().parse_args(argv).command == argv[0]


def test_readme_has_an_example_per_subcommand():
    assert sorted({argv[0] for argv in _EXAMPLES}) == sorted(_subparsers(cli.build_parser()))
