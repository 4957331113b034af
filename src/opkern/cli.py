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
from .core import Grid, GridFunction, rng, uniform_fourier_sum
from .exceptions import ConditioningError, OpkernError, ValidationError
from .families import AverageSamplingFamily, FourierCoefficientFamily
from .frames import TruncatedFrame, dual_frame, interior_relative_error, reconstruct, stacked_frame
from .kernels import GramMatrix, feature_gram, psd_check
from .learning import (
    learning_problem,
    perturb_samples,
    regnet_solve,
    sampling_operator,
    stability_reports,
)
from .paley_wiener import (
    BandlimitedSignal,
    build_vector_sampling_set,
    generalized_kadec_check,
    kadec_bounds,
    pw_average_sections,
    pw_window,
    sinc_kernel,
    synthesize,
    vector_features,
    w_grid_default,
)
from .shift_invariant import (
    biorthogonality_residual,
    bracket_function,
    bracket_tail_estimate,
    dual_generator,
    fourier_coefficient_identity_check,
    make_generator,
    density_diagnostic,
)
from .families import AverageFunctional, SampleSet

FMT = "%.15g"

#: most entries a section stack (sections x points of the larger grid) or its
#: Gram (sections x sections) may hold
MAX_STACK_ENTRIES = 2**25


def _fmt(x: float) -> str:
    return FMT % x


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(prefix: Path, command: str, config: dict) -> None:
    _write_json(
        prefix.with_suffix(".manifest.json"),
        {"command": command, "config": config, "version": __version__},
    )


def _write_gram_csv(path: Path, g: GramMatrix) -> None:
    """Entries as re+|im|j, or re-|im|j when im < 0 (so -0.0 takes "+"),
    each row rendered by one template."""
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = [str(a) for a, _ in g.indices]
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


#: one [re, im] pair of a .function.json as json.dump(indent=2) lays it out
_JSON_PAIR = "    [\n      %r,\n      %r\n    ]"


def _write_function_json(path: Path, f: GridFunction) -> None:
    """The bytes of _write_json(path, f.to_json()), each [re, im] pair
    rendered by one template. json writes NaN and Infinity where %r writes
    nan and inf, so a function with a non-finite value goes through json."""
    if not np.all(np.isfinite(f.values)):
        _write_json(path, f.to_json())
        return
    head, tail = json.dumps(
        {"a": f.grid.a, "b": f.grid.b, "dim": f.dim, "values": []}, indent=2, sort_keys=True
    ).split("[]")
    flat = f.values.T.reshape(-1)
    body = ",\n".join(_JSON_PAIR % pair for pair in zip(flat.real.tolist(), flat.imag.tolist()))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(head + "[\n" + body + "\n  ]" + tail + "\n")


def _parse_indices(text: str) -> list:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [float(tok) if "." in tok else int(tok) for tok in text.split(",") if tok]


def _apply_config_file(args: argparse.Namespace) -> dict:
    """Resolve the effective config: file values override flags, and go
    through the same type conversion and choices as the flag would."""
    config = {k: v for k, v in vars(args).items() if k not in {"func", "config", "parser"}}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            overrides = json.load(fh)
        actions = {a.dest: a for a in args.parser._actions}
        for key, value in overrides.items():
            key = key.replace("-", "_")
            if key not in config or key not in actions:
                raise OpkernError(f"unknown config key {key!r}")
            action = actions[key]
            try:
                value = (action.type or str)(str(value))
            except ValueError:
                raise ValidationError(f"config value {value!r} is not valid for {key!r}") from None
            if action.choices is not None and value not in action.choices:
                raise ValidationError(f"config value {value!r} for {key!r} not in {list(action.choices)}")
            config[key] = value
            setattr(args, key, value)
    return config


def _load_signal(path: str) -> BandlimitedSignal:
    with open(path) as fh:
        return BandlimitedSignal.from_json(json.load(fh))


def _window_grid(args) -> Grid:
    """Evaluation window [-T, T]: T defaults to the index half-width plus a
    truncation pad of 16, overridable through --window."""
    if getattr(args, "window", None):
        t_half = float(args.window)
        n = 2 * int(round(t_half * args.points_per_unit)) + 1
        return Grid(-t_half, t_half, n)
    return pw_window(args.m, points_per_unit=args.points_per_unit)


def _check_stack(count: int, *grid_sizes: int) -> None:
    """Refuse a section stack, or its Gram, too large to hold, before
    building any of it."""
    if count * max(count, *grid_sizes) > MAX_STACK_ENTRIES:
        raise ValidationError(
            f"{count} sections of {max(grid_sizes)} points, or their Gram, exceed {MAX_STACK_ENTRIES} entries"
        )


def _pw_sections(centers, delta, profile, window_grid, w_n):
    _check_stack(len(centers), window_grid.n, w_n)
    return pw_average_sections(centers, delta, window_grid, profile=profile, w_grid=w_grid_default(w_n))


def _fourier_grid(n: int) -> Grid:
    return Grid(0.0, 2.0 * math.pi, n)


def _fourier_signal(signal: BandlimitedSignal, grid: Grid) -> GridFunction:
    """The signal's coefficients read as Fourier modes on [0, 2pi]:
    f(x) = (1/sqrt(2pi)) sum_k c_k exp(i k x)."""
    vals = uniform_fourier_sum(grid.a, grid.h, grid.n, signal.offset, 1.0, signal.coeffs[:, 0], sign=1.0)
    return GridFunction(grid, vals / math.sqrt(2.0 * math.pi))


def _fourier_sections(indices, grid: Grid) -> TruncatedFrame:
    """The frame of the basis K(j) = exp(i j x)/sqrt(2pi) on [0, 2pi], its
    own feature vector. With p = n - 1 equal steps, exp(i j x_k) =
    omega^(jk mod p) for omega = exp(2 pi i/p), so each row is read from one
    table of roots of unity, and the trapezoid Gram is exactly 1 where
    j = k mod p and 0 elsewhere (the periodic trapezoid rule). Indices are
    reduced mod p as Python ints first, so none overflows."""
    _check_stack(len(indices), grid.n)
    indices = [int(j) for j in indices]
    p = grid.n - 1
    r = np.array([j % p for j in indices], dtype=np.int64)
    roots = np.exp(2j * math.pi * np.arange(p) / p) / math.sqrt(2.0 * math.pi)
    k = np.arange(grid.n)
    h = np.empty((len(indices), grid.n), dtype=complex)
    for row, rj in zip(h, r):
        np.take(roots, (rj * k) % p, out=row)
    gram = GramMatrix(
        matrix=(r[:, None] == r[None, :]).astype(complex),
        indices=tuple((j, np.ones(1, dtype=complex)) for j in indices),
        asymmetry=0.0,
    )
    return TruncatedFrame(alphas=tuple(indices), h=h, h_grid=grid, gram=gram)


def _sinc_point_sections(points, window_grid: Grid, w_n: int):
    """The frame of the point evaluations: sinc sections on the window, plane
    waves exp(i x t)/sqrt(2pi) as their feature vectors."""
    _check_stack(len(points), window_grid.n, w_n)
    points = [float(x) for x in points]
    wg = w_grid_default(w_n)
    t = wg.points()
    x_axis = window_grid.points()
    h = np.empty((len(points), window_grid.n), dtype=complex)
    w = np.empty((len(points), wg.n), dtype=complex)
    for i, x in enumerate(points):
        h[i] = sinc_kernel(x_axis, x)
        w[i] = np.exp(1j * x * t)
    w /= math.sqrt(2.0 * math.pi)
    return stacked_frame(points, h, window_grid, w, wg)


def _sections_for_family(args, window_grid):
    if args.family == "fourier":
        grid = _fourier_grid(args.grid_n)
        return _fourier_sections(_parse_indices(args.indices), grid)
    if args.family == "average":
        return _pw_sections(
            _parse_indices(args.indices), args.delta, args.profile, window_grid, args.w_n
        )
    if args.family == "point":
        return _sinc_point_sections(_parse_indices(args.indices), window_grid, args.w_n)
    raise OpkernError(f"unsupported family {args.family!r}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gram(args, config: dict) -> int:
    frame = _sections_for_family(args, _window_grid(args))
    prefix = Path(args.out)
    _write_gram_csv(prefix.with_suffix(".csv"), frame.gram)
    _write_manifest(prefix, "gram", config)
    return 0


def _cmd_psd(args, config: dict) -> int:
    g = _sections_for_family(args, _window_grid(args)).gram
    report = psd_check(g)
    prefix = Path(args.out)
    _write_json(
        prefix.with_suffix(".json"),
        {
            "min_eig": report.min_eig,
            "max_eig": report.max_eig,
            "pass": report.passed,
            "asymmetry": g.asymmetry,
        },
    )
    _write_manifest(prefix, "psd", config)
    return 0


def _cmd_kadec(args, config: dict) -> int:
    a, b = kadec_bounds(args.delta)
    if args.delta > 0:
        check = generalized_kadec_check(a, b, args.delta)
        passed, margin = check.passed, check.margin
    else:
        passed, margin = True, 1.0
    prefix = Path(args.out)
    _write_json(prefix.with_suffix(".json"), {"A": a, "B": b, "pass": passed, "margin": margin})
    _write_manifest(prefix, "kadec", config)
    return 0


def _cmd_reconstruct(args, config: dict) -> int:
    signal = _load_signal(args.signal)
    prefix = Path(args.out)
    if args.space == "pw":
        grid = _window_grid(args)
        indices = [float(c) for c in range(-args.m, args.m + 1)]
        frame = _pw_sections(indices, args.delta, args.profile, grid, args.w_n)
        f_grid = synthesize(signal, grid)
        family = AverageSamplingFamily(delta=args.delta, profile=args.profile)
        window = (grid.a + 4.0, grid.b - 4.0)
    elif args.space == "fourier":
        grid = _fourier_grid(args.grid_n)
        indices = list(range(-args.m, args.m + 1))
        frame = _fourier_sections(indices, grid)
        f_grid = _fourier_signal(signal, grid)
        family = FourierCoefficientFamily()
        window = (grid.a, grid.b)
    else:
        raise OpkernError(f"unknown space {args.space!r}")
    dual = dual_frame(frame, rel_cutoff=args.rel_cutoff)
    f_hat = reconstruct(dual, sampling_operator(family, indices, f_grid))
    err = interior_relative_error(f_hat, f_grid, window=window)
    _write_function_csv(prefix.with_suffix(".csv"), f_hat)
    _write_function_json(prefix.with_suffix(".function.json"), f_hat)
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
    _write_manifest(prefix, "reconstruct", config)
    return 0


def _cmd_avg_sample(args, config: dict) -> int:
    signal = _load_signal(args.signal)
    window_grid = _window_grid(args)
    f_grid = synthesize(signal, window_grid)
    family = AverageSamplingFamily(delta=args.delta, profile=args.profile)
    xs = [float(v) for v in _parse_indices(args.x)]
    samples = sampling_operator(family, xs, f_grid)
    prefix = Path(args.out)
    _write_json(prefix.with_suffix(".json"), samples.to_json())
    _write_manifest(prefix, "avg-sample", config)
    return 0


def _cmd_regnet(args, config: dict) -> int:
    with open(args.problem) as fh:
        payload = json.load(fh)
    fam_desc = payload["family"]
    indices = payload["indices"]
    lam = float(payload["lambda"])
    window_grid = _window_grid(args)
    if fam_desc["family"] == "fourier":
        grid = _fourier_grid(args.grid_n)
        frame = _fourier_sections(indices, grid)
        family = FourierCoefficientFamily()
        indices = [int(j) for j in indices]
    elif fam_desc["family"] == "average":
        delta = float(fam_desc["params"]["delta"])
        profile = fam_desc["params"].get("profile", "box")
        indices = [float(x) for x in indices]
        frame = _pw_sections(indices, delta, profile, window_grid, args.w_n)
        family = AverageSamplingFamily(delta=delta, profile=profile)
    else:
        raise OpkernError(f"unsupported learning family {fam_desc['family']!r}")
    if payload.get("samples") is not None:
        values = [complex(re, im) for re, im in payload["samples"]]
        samples = SampleSet(family.descriptor(), tuple(indices), values)
    elif payload.get("signal") is not None:
        signal = BandlimitedSignal.from_json(payload["signal"])
        target = (
            synthesize(signal, window_grid)
            if fam_desc["family"] == "average"
            else _fourier_signal(signal, _fourier_grid(args.grid_n))
        )
        samples = sampling_operator(family, indices, target)
    else:
        raise OpkernError("problem file needs either samples or a signal")
    noise = payload.get("noise")
    if noise:
        samples = perturb_samples(samples, float(noise["sigma"]), int(noise["seed"]))
    problem = learning_problem(frame, samples, lam)
    solution = regnet_solve(problem)
    prefix = Path(args.out)
    _write_json(
        prefix.with_suffix(".json"),
        {
            "eta": [[float(z.real), float(z.imag)] for z in solution.eta],
            "residual": solution.residual,
            "lambda": lam,
        },
    )
    _write_function_csv(prefix.with_suffix(".csv"), solution.f0)
    _write_manifest(prefix, "regnet", config)
    return 0


def _cmd_si_diagnose(args, config: dict) -> int:
    gen = make_generator(args.generator)
    xi = np.linspace(-math.pi, math.pi, 257)
    bracket = bracket_function(gen, xi)
    dual = dual_generator(gen, args.k_max)
    u = AverageFunctional(args.center, args.delta, args.profile)
    deviation = fourier_coefficient_identity_check(gen, u, k_range=args.k_range)
    centers = [args.center + i * 0.5 for i in range(args.n_centers)]
    family = [AverageFunctional(c, args.delta, args.profile) for c in centers]
    density = density_diagnostic(gen, family, Grid(-math.pi, math.pi, 257))
    prefix = Path(args.out)
    _write_json(
        prefix.with_suffix(".json"),
        {
            "generator": args.generator,
            "bracket_min": float(bracket.min()),
            "bracket_max": float(bracket.max()),
            "bracket_tail_estimate": bracket_tail_estimate(gen),
            "biorthogonality_residual": biorthogonality_residual(dual, range(-4, 5)),
            "dual_coefficient_tail": float(max(abs(dual.b_coeffs[0]), abs(dual.b_coeffs[-1]))),
            "coefficient_identity_deviation": deviation,
            "density_rank": density.rank,
            "density_family_size": density.family_size,
            "density_smallest_singular": density.smallest_singular,
        },
    )
    _write_manifest(prefix, "si-diagnose", config)
    return 0


def _cmd_stability(args, config: dict) -> int:
    window_grid = _window_grid(args)
    centers = list(range(-args.m, args.m + 1))
    frame = _pw_sections(centers, args.delta, args.profile, window_grid, args.w_n)
    dual = dual_frame(frame)
    sizes = [int(s) for s in args.sizes.split(",")]
    trunc, sweep = stability_reports(frame, dual, args.lam, args.trials, args.seed, sizes)
    prefix = Path(args.out)
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
    lines = ["size,truncated_ratio,damped_ratio"]
    for size in sizes:
        lines.append(f"{size},{_fmt(trunc.per_size[size])},{_fmt(sweep.per_size[size])}")
    csv_path = prefix.with_suffix(".csv")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text("\n".join(lines) + "\n")
    _write_manifest(prefix, "stability", config)
    return 0


def _cmd_vector_sampling(args, config: dict) -> int:
    n = args.n
    _check_stack(n * (2 * args.m_range + 1), args.w_n * n)
    if args.perturb > 0:
        gen = rng(args.seed)
        offsets = {
            m: gen.uniform(-args.perturb, args.perturb, size=args.n)
            for m in range(-args.m_range, args.m_range + 1)
        }
        vss = build_vector_sampling_set(args.n, args.m_range, perturb=lambda m: offsets[m])
    else:
        vss = build_vector_sampling_set(args.n, args.m_range)
    wg = w_grid_default(args.w_n)
    g = feature_gram(vector_features(vss, wg), wg)
    idx = np.arange(g.shape[0]) % n
    offblock = float(np.max(np.abs(g[idx[:, None] != idx[None, :]]), initial=0.0))
    prefix = Path(args.out)
    payload = vss.to_json()
    payload["cross_block_max"] = offblock
    _write_json(prefix.with_suffix(".json"), payload)
    _write_manifest(prefix, "vector-sampling", config)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="opkern_out/run", help="output path prefix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON file overriding flags")
    p.set_defaults(parser=p)


def _add_pw_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--profile", default="box", choices=["box", "triangle", "cosine"])
    p.add_argument("--m", type=int, default=16, help="index half-width / window half-size")
    p.add_argument("--grid-n", dest="grid_n", type=int, default=513)
    p.add_argument("--w-n", dest="w_n", type=int, default=2049)
    p.add_argument("--points-per-unit", dest="points_per_unit", type=int, default=32)
    p.add_argument(
        "--window", dest="window", type=float, default=None,
        help="evaluation half-width T (default: m + 16)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opkern", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="assemble a kernel Gram matrix")
    p.add_argument("--family", default="fourier", choices=["fourier", "average", "point"])
    p.add_argument("--indices", default="-2..2")
    _add_pw_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("psd", help="positivity report for a kernel Gram")
    p.add_argument("--family", default="fourier", choices=["fourier", "average", "point"])
    p.add_argument("--indices", default="-2..2")
    _add_pw_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_psd)

    p = sub.add_parser("kadec", help="perturbation admissibility bounds")
    p.add_argument("--delta", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_kadec)

    p = sub.add_parser("reconstruct", help="reconstruct a signal from functional samples")
    p.add_argument("--space", default="pw", choices=["pw", "fourier"])
    p.add_argument("--signal", required=True, help="signal JSON path")
    p.add_argument("--rel-cutoff", dest="rel_cutoff", type=float, default=1e-10)
    _add_pw_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("avg-sample", help="apply average functionals to a signal")
    p.add_argument("--signal", required=True)
    p.add_argument("--x", required=True, help="centers, e.g. '-4..4' or '0.5,1.5'")
    _add_pw_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_avg_sample)

    p = sub.add_parser("regnet", help="regularized learning from functional samples")
    p.add_argument("--problem", required=True, help="problem JSON path")
    _add_pw_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_regnet)

    p = sub.add_parser("si-diagnose", help="shift-space generator diagnostics")
    p.add_argument("--generator", default="hat", choices=["box", "hat", "cubic"])
    p.add_argument("--k-max", dest="k_max", type=int, default=20)
    p.add_argument("--k-range", dest="k_range", type=int, default=4)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--profile", default="triangle", choices=["box", "triangle", "cosine"])
    p.add_argument("--center", type=float, default=0.25)
    p.add_argument("--n-centers", dest="n_centers", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=_cmd_si_diagnose)

    p = sub.add_parser("stability", help="stability sweep of reconstruction operators")
    p.add_argument("--sizes", default="4,8,16")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    _add_pw_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("vector-sampling", help="build a vector-valued sampling set")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m-range", dest="m_range", type=int, default=16)
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--w-n", dest="w_n", type=int, default=1025)
    _add_common(p)
    p.set_defaults(func=_cmd_vector_sampling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _apply_config_file(args))
    except (ConditioningError, np.linalg.LinAlgError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except (OpkernError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
