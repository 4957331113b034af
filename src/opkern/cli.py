"""Command-line driver for reproducible experiments.

One subcommand per construction: Gram/positivity checks, bandlimited and
Fourier-coefficient reconstruction, average sampling, regularized learning,
perturbation admissibility, shift-space diagnostics, stability sweeps and
vector-valued sampling sets. Every run writes a manifest echoing the fully
resolved configuration, so reruns are byte-reproducible.

Exit codes: 0 success, 2 validation error, 3 numerical/conditioning error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    MAX_GRID_POINTS, Grid, GridFunction, complex_pairs, complex_values, integral, json_number, json_object, rng,
)
from .exceptions import ConditioningError, OpkernError, ValidationError
from .families import AverageFunctional, SampleSet, family_from_descriptor
from .frames import dual_frame, interior_relative_error, reconstruct
from .kernels import GramMatrix, feature_gram, fourier_frame, psd_check
from .learning import learning_problem, perturb_samples, regnet_solve, sampling_operator, stability_reports
from .paley_wiener import (
    BandlimitedSignal, build_vector_sampling_set, fourier_series, generalized_kadec_check, kadec_bounds,
    pw_average_sections, pw_feature_gram, pw_point_sections, synthesize, vector_features, w_grid_default,
)

FMT = "%.15g"

#: most entries a stack of features (count x feature points) or a Gram
#: (count x count) may hold
MAX_STACK_ENTRIES = 2**25


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_gram_csv(path: Path, g: GramMatrix) -> None:
    """Entries as re+|im|j, or re-|im|j when im < 0 (so -0.0 takes "+"),
    each row rendered by one template."""
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = [str(a) for a in g.indices]
    m = g.matrix
    cells = np.empty(m.shape + (3,), dtype=object)
    cells[..., 0] = m.real
    cells[..., 1] = np.where(m.imag >= 0, "+", "-")
    cells[..., 2] = np.abs(m.imag)
    row = ",".join([FMT + "%s" + FMT + "j"] * m.shape[1])
    lines = ["index," + ",".join(labels)]
    lines += [lab + "," + row % tuple(r) for lab, r in zip(labels, cells.reshape(m.shape[0], -1).tolist())]
    path.write_text("\n".join(lines) + "\n")


def _write_function_csv(path: Path, f: GridFunction) -> None:
    """x, then re and im of each component, one template per row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = [f.grid.points()] + [part for z in f.values.T for part in (z.real, z.imag)]
    row = ",".join([FMT] * len(cols))
    lines = ["x," + ",".join(f"re{l},im{l}" for l in range(f.dim))]
    lines += [row % r for r in zip(*(c.tolist() for c in cols))]
    path.write_text("\n".join(lines) + "\n")


def _index(token: str, flag: str) -> int | float:
    """A token of a list flag: an int if it reads as one, else a float in
    decimal or exponent form ('0.5', '2e-1'). A token that is not a finite
    number is refused by the flag."""
    try:
        value = finite(token)
    except ValueError:
        raise ValidationError(f"{flag} cannot read {token!r} as a finite number") from None
    try:
        return int(token)
    except ValueError:
        return value


def _parse_indices(text: str, flag: str) -> list:
    """The indices of a list flag, 'lo..hi' with integer bounds or
    comma-separated; a list that names none (--x= or --indices=1..0), or a
    range above MAX_STACK_ENTRIES indices, is refused before it is formed."""
    text = text.strip()
    if ".." in text:
        lo, hi = (_index(tok, flag) for tok in text.split("..", 1))
        if not (isinstance(lo, int) and isinstance(hi, int)):
            raise ValidationError(f"{flag} range {text!r} needs integer bounds")
        if hi - lo + 1 > MAX_STACK_ENTRIES:
            raise ValidationError(f"{flag} range {text!r} names {hi - lo + 1} indices, above {MAX_STACK_ENTRIES}")
        indices = list(range(lo, hi + 1))
    else:
        indices = [_index(tok, flag) for tok in text.split(",") if tok]
    if not indices:
        raise ValidationError(f"{flag} names no index")
    return indices


def _read_json(path: str, flag: str):
    """The JSON value of the file a flag names; a file that is not JSON text
    (empty, binary, nested too deep) is refused naming the flag and path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{flag} {path} is not JSON the decoder can read: {exc}") from None


def _load_signal(path: str) -> BandlimitedSignal:
    return BandlimitedSignal.from_json(_read_json(path, "--signal"))


def _window_grid(args) -> Grid:
    """Evaluation window [-T, T]: T is --window if it is given, else the
    index half-width --m plus a truncation pad of 16. A T that spans no grid
    step, or a window above MAX_GRID_POINTS (--window 1e308, a 400-digit
    --m), is refused by the flag that set it before the grid is formed."""
    window = getattr(args, "window", None)
    flag, value, t_half = ("--m", args.m, args.m + 16) if window is None else ("--window", window, window)
    ppu = args.points_per_unit
    steps = round(min(t_half * ppu, MAX_GRID_POINTS))
    if 2 * steps + 1 > MAX_GRID_POINTS:
        raise ValidationError(f"{flag} {value} at {ppu} points per unit needs a window above {MAX_GRID_POINTS} points")
    if steps < 1:
        raise ValidationError(f"--window {window} spans no grid step at {ppu} points per unit")
    return Grid(-float(t_half), float(t_half), 2 * steps + 1)


def _check_stack(count: int, w_n: int = 0) -> None:
    """Refuse count features of w_n points, or their count x count Gram, too
    large to hold, before building any of it."""
    if count * max(count, w_n) > MAX_STACK_ENTRIES:
        raise ValidationError(f"{count} indices need {count * max(count, w_n)} feature or Gram entries, above {MAX_STACK_ENTRIES}")


def _check_size(flag: str, value: int, size: int, cap: int, what: str) -> None:
    """Refuse a size flag whose value asks for more than the cap, by name."""
    if size > cap:
        raise ValidationError(f"{flag} {value} needs {size} {what}, above the cap of {cap}")


def _check_centres(centres, delta: float, grid: Grid, what: str) -> None:
    """Refuse by name, before sampling, a centre whose support [x - delta, x + delta] leaves the window."""
    for x in centres:
        if not grid.spans(x - delta, x + delta):
            raise ValidationError(f"{what} {x} with delta {delta} reaches beyond the --window [{grid.a}, {grid.b}]")


def _fourier_grid(n: int) -> Grid:
    return Grid(0.0, 2.0 * math.pi, n)


def _family(kind: str, args):
    """The family of the kind; an average family takes --delta and --profile."""
    params = {"delta": args.delta, "profile": args.profile} if kind == "average" else {}
    return family_from_descriptor({"family": kind, "params": params})


def _frame_of(family, indices, args):
    """The frame of the family at the indices and the map that puts a signal
    on the frame's grid: [0, 2pi] for Fourier coefficients, the evaluation
    window otherwise, once each support [x - delta, x + delta] is seen to lie
    in it. What the frame holds is checked before anything is built: the
    Fourier Gram, or the features on the --w-n grid and their Gram."""
    if family.kind == "fourier":
        _check_stack(len(indices))
        return fourier_frame(indices, _fourier_grid(args.grid_n)), fourier_series
    if family.kind not in ("average", "point"):
        raise OpkernError(f"unsupported family {family.kind!r}")
    grid = _window_grid(args)
    _check_stack(len(indices), args.w_n)
    delta = family.delta if family.kind == "average" else 0.0  # a point is an average of width 0

    def on_grid(signal, grid):
        _check_centres(indices, delta, grid, "index")
        return synthesize(signal, grid)

    if family.kind == "point":
        return pw_point_sections(indices, grid, w_grid_default(args.w_n)), on_grid
    return pw_average_sections(indices, family.delta, grid, family.profile, w_grid_default(args.w_n)), on_grid


def _gram_of(args) -> GramMatrix:
    """The Gram of --family at --indices from the features alone: the Fourier
    frame's closed form, else the features on the --w-n grid. No section or
    window is formed; the sizes are checked first, as in ``_frame_of``."""
    family = _family(args.family, args)
    indices = _parse_indices(args.indices, "--indices")
    if family.kind == "fourier":
        return _frame_of(family, indices, args)[0].gram
    _check_stack(len(indices), args.w_n)
    params = (family.delta, family.profile) if family.kind == "average" else ()
    return pw_feature_gram(indices, w_grid_default(args.w_n), *params)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gram(args, prefix: Path) -> None:
    _write_gram_csv(prefix.with_suffix(".csv"), _gram_of(args))


def _cmd_psd(args, prefix: Path) -> None:
    g = _gram_of(args)
    report = psd_check(g)
    _write_json(
        prefix.with_suffix(".json"),
        {
            "min_eig": report.min_eig,
            "max_eig": report.max_eig,
            "pass": report.passed,
            "asymmetry": g.asymmetry,
        },
    )


def _cmd_kadec(args, prefix: Path) -> None:
    a, b = kadec_bounds(args.delta)
    check = generalized_kadec_check(a, b, args.delta)
    _write_json(prefix.with_suffix(".json"), {"A": a, "B": b, "pass": check.passed, "margin": check.margin})


def _cmd_reconstruct(args, prefix: Path) -> None:
    signal = _load_signal(args.signal)
    family = _family({"pw": "average", "fourier": "fourier"}[args.space], args)
    _check_size("--m", args.m, 2 * args.m + 1, MAX_STACK_ENTRIES, "indices")
    if family.kind == "average":
        # the supports reach m + delta, and the error window [-T + 4, T - 4] needs two grid points
        grid, reach = _window_grid(args), args.m + args.delta
        if not grid.spans(-reach, reach) or np.count_nonzero(np.abs(grid.points()) <= grid.b - 4.0 + 1e-12) < 2:
            flag = f"--m {args.m}" if args.window is None else f"--window {args.window}"
            raise ValidationError(
                f"{flag} sets the window [-T, T] = [{grid.a}, {grid.b}], which cannot hold the supports out to "
                f"m + delta = {reach} and two grid points in [-T + 4, T - 4]"
            )
    frame, on_grid = _frame_of(family, range(-args.m, args.m + 1), args)
    grid = frame.h_grid
    f_grid = on_grid(signal, grid)
    window = (grid.a + 4.0, grid.b - 4.0) if family.kind == "average" else (grid.a, grid.b)
    dual = dual_frame(frame, rel_cutoff=args.rel_cutoff)
    f_hat = reconstruct(dual, sampling_operator(family, frame.alphas, f_grid))
    err = interior_relative_error(f_hat, f_grid, window=window)
    _write_function_csv(prefix.with_suffix(".csv"), f_hat)
    f_hat.dump(prefix.with_suffix(".function.json"))
    _write_json(
        prefix.with_suffix(".json"),
        {
            "rel_l2_interior": err.rel_l2,
            "window": list(err.window),
            "abs_l2": err.abs_l2,
            "ref_l2": err.ref_l2,
            "frame_size": len(frame),
        },
    )


def _cmd_avg_sample(args, prefix: Path) -> None:
    signal = _load_signal(args.signal)
    grid = _window_grid(args)
    family = _family("average", args)
    xs = [float(v) for v in _parse_indices(args.x, "--x")]
    _check_centres(xs, family.delta, grid, "--x")
    samples = sampling_operator(family, xs, synthesize(signal, grid))
    _write_json(prefix.with_suffix(".json"), samples.to_json())


def _cmd_regnet(args, prefix: Path) -> None:
    payload = json_object(_read_json(args.problem, "--problem"), "problem", ("family", "indices", "lambda"))
    family = family_from_descriptor(payload["family"])
    if not isinstance(payload["indices"], list) or not payload["indices"]:
        raise ValidationError(f"problem indices must be a non-empty list, not {payload['indices']!r:.40}")
    lam = json_number(payload["lambda"], "problem lambda")
    frame, on_grid = _frame_of(family, [family.decode_alpha(a) for a in payload["indices"]], args)
    if payload.get("samples") is not None:
        samples = SampleSet(family.descriptor(), frame.alphas, complex_values(payload["samples"], "problem samples", 1))
    elif payload.get("signal") is not None:
        signal = BandlimitedSignal.from_json(payload["signal"])
        samples = sampling_operator(family, frame.alphas, on_grid(signal, frame.h_grid))
    else:
        raise OpkernError("problem file needs either samples or a signal")
    if payload.get("noise"):
        noise = json_object(payload["noise"], "problem noise", ("sigma", "seed"))
        sigma, seed = json_number(noise["sigma"], "noise sigma"), integral(noise["seed"], "noise seed")
        samples = perturb_samples(samples, sigma, seed)
    problem = learning_problem(frame, samples, lam)
    solution = regnet_solve(problem)
    _write_json(
        prefix.with_suffix(".json"),
        {
            "eta": complex_pairs(solution.eta),
            "residual": solution.residual,
            "lambda": lam,
        },
    )
    _write_function_csv(prefix.with_suffix(".csv"), solution.f0)


def _cmd_si_diagnose(args, prefix: Path) -> None:
    # imported here: no other subcommand pays for the shift-space module
    from .shift_invariant import (
        biorthogonality_residual,
        bracket_function,
        density_diagnostic,
        dual_generator,
        fourier_coefficient_identity_check,
        make_generator,
    )

    gen = make_generator(args.generator)
    r = gen.support_radius
    _check_size("--k-max", args.k_max, 2 * args.k_max + 1, MAX_GRID_POINTS, "coefficients")
    # a functional's window: at most 2 delta + 2R + 3 shifts, each a sum over 4097 nodes at most
    shifts = math.ceil(min(2.0 * args.delta, MAX_STACK_ENTRIES)) + 2 * r + 3
    _check_size("--delta", args.delta, shifts * 4097, MAX_STACK_ENTRIES, "window entries")
    _check_size("--k-range", args.k_range, 2 * args.k_range + 1, MAX_GRID_POINTS, "coefficients")
    _check_size("--n-centers", args.n_centers, 257 * args.n_centers, MAX_STACK_ENTRIES, "density entries")
    try:
        family = [AverageFunctional(args.center + i * 0.5, args.delta, args.profile) for i in range(args.n_centers)]
    except ValidationError as exc:
        # a centre whose profile grid or mass round-off fails (--center 1e16)
        raise ValidationError(f"--center {args.center} with --delta {args.delta}: {exc}") from None
    xi = np.linspace(-math.pi, math.pi, 257)
    bracket = bracket_function(gen, xi)
    dual = dual_generator(gen, args.k_max)
    deviation = fourier_coefficient_identity_check(gen, family[0], k_range=args.k_range)
    density = density_diagnostic(gen, family, Grid(-math.pi, math.pi, 257))
    _write_json(
        prefix.with_suffix(".json"),
        {
            "generator": args.generator,
            "bracket_min": float(bracket.min()),
            "bracket_max": float(bracket.max()),
            "biorthogonality_residual": biorthogonality_residual(dual, range(-4, 5)),
            "dual_coefficient_tail": float(max(abs(dual.b_coeffs[0]), abs(dual.b_coeffs[-1]))),
            "coefficient_identity_deviation": deviation,
            "density_rank": density.rank,
            "density_family_size": density.family_size,
            "density_smallest_singular": density.smallest_singular,
        },
    )


def _cmd_stability(args, prefix: Path) -> None:
    frame = _frame_of(_family("average", args), range(-args.m, args.m + 1), args)[0]
    dual = dual_frame(frame)
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise ValidationError(f"--sizes must list integers, got {args.sizes!r}") from None
    trunc, sweep = stability_reports(frame, dual, args.lam, args.trials, args.seed, sizes)
    _write_json(
        prefix.with_suffix(".json"),
        {
            "truncated": {
                "per_size": {str(k): v for k, v in trunc.per_size.items()},
                "c_emp": trunc.c_emp,
                "envelope": trunc.envelope,
                "pass": trunc.passed,
            },
            "tikhonov": {
                "per_size": {str(k): v for k, v in sweep.per_size.items()},
                "c_emp": sweep.c_emp,
                "lambda": sweep.lam,
                "pass": sweep.passed,
            },
            "frame_bounds": [trunc.a_est, trunc.b_est],
            "trials": args.trials,
            "seed": args.seed,
        },
    )
    # the report above made the output directory
    lines = ["size,truncated_ratio,damped_ratio"]
    lines += [f"{size},{FMT % trunc.per_size[size]},{FMT % sweep.per_size[size]}" for size in sizes]
    prefix.with_suffix(".csv").write_text("\n".join(lines) + "\n")


def _cmd_vector_sampling(args, prefix: Path) -> None:
    n = args.n
    _check_stack(n * (2 * args.m_range + 1), args.w_n * n)
    # the set asks for each m's offsets once, m ascending
    gen = rng(args.seed)
    perturb = (lambda m: gen.uniform(-args.perturb, args.perturb, size=n)) if args.perturb > 0 else None
    vss = build_vector_sampling_set(n, args.m_range, perturb)
    wg = w_grid_default(args.w_n)
    g = feature_gram(vector_features(vss, wg), wg)
    idx = np.arange(g.shape[0]) % n
    offblock = float(np.max(np.abs(g[idx[:, None] != idx[None, :]]), initial=0.0))
    payload = vss.to_json()
    payload["cross_block_max"] = offblock
    _write_json(prefix.with_suffix(".json"), payload)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ValidationError, as a bad input file is."""

    def error(self, message):
        raise ValidationError(message)


def finite(text: str) -> float:
    """The type of every float flag: nan and +-inf are refused."""
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


def _at_least(low, cast=int):
    """The type of a size flag, or of a float flag with a least value
    (``cast=finite``): refused below ``low`` with the flag's name (argparse
    prefixes it)."""

    def parse(text: str):
        if (value := cast(text)) < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    parse.__name__ = cast.__name__
    return parse


def _subcommand(sub, name: str, func, help_text: str, *shared: str) -> argparse.ArgumentParser:
    """A subcommand parser with --out, --config and the named shared flags."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--out", default="opkern_out/run", help="output path prefix")
    p.add_argument("--config", default=None, help="JSON file overriding flags")
    for flag in shared:
        p.add_argument("--" + flag, dest=flag.replace("-", "_"), **_SHARED_FLAGS[flag])
    p.set_defaults(func=func, parser=p)
    return p


#: flags that several subcommands take, each added only where its handler reads it
_SHARED_FLAGS = {
    "seed": dict(type=int, default=0),
    "delta": dict(type=finite, default=0.2),
    "profile": dict(default="box", choices=["box", "triangle", "cosine"]),
    "m": dict(type=_at_least(0), default=16, help="index half-width / window half-size"),
    "grid-n": dict(type=_at_least(2), default=513),
    "w-n": dict(type=_at_least(2), default=2049),
    "points-per-unit": dict(type=_at_least(1), default=32),
    "window": dict(type=finite, default=None, help="evaluation half-width T (default: m + 16, or 32 without --m)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opkern", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("gram", _cmd_gram, "assemble a kernel Gram matrix"),
        ("psd", _cmd_psd, "positivity report for a kernel Gram"),
    ):
        p = _subcommand(sub, name, func, help_text, "delta", "profile", "grid-n", "w-n")
        p.add_argument("--family", default="fourier", choices=["fourier", "average", "point"])
        p.add_argument("--indices", default="-2..2")

    p = _subcommand(sub, "kadec", _cmd_kadec, "perturbation admissibility bounds")
    p.add_argument("--delta", type=finite, required=True)

    p = _subcommand(
        sub, "reconstruct", _cmd_reconstruct, "reconstruct a signal from functional samples",
        "delta", "profile", "m", "points-per-unit", "window", "grid-n", "w-n",
    )
    p.add_argument("--space", default="pw", choices=["pw", "fourier"])
    p.add_argument("--signal", required=True, help="signal JSON path")
    p.add_argument("--rel-cutoff", dest="rel_cutoff", type=finite, default=1e-10)

    p = _subcommand(
        sub, "avg-sample", _cmd_avg_sample, "apply average functionals to a signal",
        "delta", "profile", "points-per-unit", "window",
    )
    p.add_argument("--signal", required=True)
    p.add_argument("--x", required=True, help="centers, e.g. '-4..4' or '0.5,1.5'")
    p.set_defaults(window=32.0)

    # the problem file names the family, and with it delta and profile
    p = _subcommand(
        sub, "regnet", _cmd_regnet, "regularized learning from functional samples",
        "points-per-unit", "window", "grid-n", "w-n",
    )
    p.add_argument("--problem", required=True, help="problem JSON path")
    p.set_defaults(window=32.0)

    p = _subcommand(sub, "si-diagnose", _cmd_si_diagnose, "shift-space generator diagnostics", "delta")
    p.add_argument("--generator", default="hat", choices=["box", "hat", "cubic"])
    p.add_argument("--k-max", dest="k_max", type=_at_least(0), default=20)
    p.add_argument("--k-range", dest="k_range", type=_at_least(0), default=4)
    p.add_argument("--profile", default="triangle", choices=["box", "triangle", "cosine"])
    p.add_argument("--center", type=finite, default=0.25)
    p.add_argument("--n-centers", dest="n_centers", type=_at_least(1), default=3)

    p = _subcommand(
        sub, "stability", _cmd_stability, "stability sweep of reconstruction operators",
        "seed", "delta", "profile", "m", "points-per-unit", "w-n",
    )
    p.add_argument("--sizes", default="4,8,16")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--lambda", dest="lam", type=finite, default=0.1)

    p = _subcommand(sub, "vector-sampling", _cmd_vector_sampling, "build a vector-valued sampling set", "seed")
    p.add_argument("--n", type=_at_least(1), default=2)
    p.add_argument("--m-range", dest="m_range", type=_at_least(0), default=16)
    p.add_argument("--perturb", type=_at_least(0.0, finite), default=0.0)
    p.add_argument("--w-n", dest="w_n", type=_at_least(2), default=1025)

    return parser


def _parse(argv: list) -> argparse.Namespace:
    """The flags, parsed again with the values of a --config file appended
    as flags: they override the flags and pass the same types and choices."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        overrides = json_object(_read_json(args.config, "--config"), "config")
        options = {a.dest: a.option_strings[-1] for a in args.parser._actions if a.dest != "config"}
        # a key that names no flag becomes one that argparse refuses
        flags = [f"{options.get(k.replace('-', '_'), '--unknown-config-key-' + k)}={v}" for k, v in overrides.items()]
        args = parser.parse_args(argv + flags)
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        config = {k: v for k, v in vars(args).items() if k not in {"func", "config", "parser"}}
        prefix = Path(args.out)
        args.func(args, prefix)
        _write_json(
            prefix.with_suffix(".manifest.json"),
            {"command": args.command, "config": config, "version": __version__},
        )
        return 0
    except (ConditioningError, np.linalg.LinAlgError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except (OpkernError, OSError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
