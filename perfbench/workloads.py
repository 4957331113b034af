"""The four seeded opkern CLI workloads: inputs, arguments and output checks.

Each workload writes its input files from the seed, returns the CLI
arguments, and checks the report the CLI wrote. The bounds of the checks come
from ``tests/test_cli.py``. Sizes are scaled so that one invocation takes a
few seconds on a 2-core host, which leaves several invocations per timed run;
``SMOKE`` sizes exercise the same code paths in about a second each.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FULL = {
    # 17 sections with the default delta and profile, on coarser grids than
    # the CLI defaults (w_n 2049, 32 points per unit) so that one invocation
    # takes about two seconds instead of ten and a run holds ten of them. The
    # signal has 9 Shannon coefficients (|k| <= 4), as in tests/test_cli.py:
    # with 17, rel_l2_interior reaches 8.8e-3 on some seeds even on the
    # default grids, too close to the 1e-2 check for every seed to pass.
    "pw-reconstruct": {"m": 8, "modes": 4, "w_n": 257, "points_per_unit": 16},
    "fourier-reconstruct": {"m": 128, "grid_n": 4097, "modes": 96},
    "pw-stability": {"m": 8, "w_n": 257, "points_per_unit": 16, "trials": 1000},
    "si-diagnose": {"k_max": 32, "k_range": 16},
}
SMOKE = {
    "pw-reconstruct": {"m": 4, "modes": 2, "w_n": 257, "points_per_unit": 4},
    "fourier-reconstruct": {"m": 8, "grid_n": 257, "modes": 6},
    "pw-stability": {"m": 8, "w_n": 129, "points_per_unit": 4, "trials": 20},
    "si-diagnose": {"k_max": 8, "k_range": 4},
}
STABILITY_SIZES = (4, 8, 16)


def _signal_json(seed: int, half_width: int, window_half: int) -> dict:
    """A BandlimitedSignal in the CLI's JSON layout: 2*half_width+1 Shannon
    coefficients centred on 0, complex Gaussian with unit variance."""
    gen = random.Random(seed)
    scale = 1.0 / math.sqrt(2.0)
    return {
        "coeffs": [[gen.gauss(0.0, scale), gen.gauss(0.0, scale)] for _ in range(2 * half_width + 1)],
        "offset": -half_width,
        "dim": 1,
        "window": {"a": -float(window_half), "b": float(window_half), "n": 2 * window_half * 32 + 1},
    }


def _write_signal(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _report(prefix: Path) -> dict:
    return json.loads(prefix.with_suffix(".json").read_text())


def _pw_reconstruct_args(seed: int, inputs: Path, p: dict) -> list:
    sig = _write_signal(inputs / "signal.json", _signal_json(seed, p["modes"], p["m"] + 16))
    return [
        "reconstruct", "--space", "pw", "--m", str(p["m"]), "--delta", "0.2", "--profile", "box",
        "--w-n", str(p["w_n"]), "--points-per-unit", str(p["points_per_unit"]), "--signal", sig,
    ]


def _fourier_reconstruct_args(seed: int, inputs: Path, p: dict) -> list:
    sig = _write_signal(inputs / "signal.json", _signal_json(seed, p["modes"], 16))
    return [
        "reconstruct", "--space", "fourier", "--m", str(p["m"]), "--grid-n", str(p["grid_n"]),
        "--signal", sig,
    ]


def _pw_stability_args(seed: int, inputs: Path, p: dict) -> list:
    return [
        "stability", "--m", str(p["m"]), "--sizes", ",".join(map(str, STABILITY_SIZES)),
        "--trials", str(p["trials"]), "--profile", "cosine", "--w-n", str(p["w_n"]),
        "--points-per-unit", str(p["points_per_unit"]), "--seed", str(seed),
    ]


def _si_diagnose_args(seed: int, inputs: Path, p: dict) -> list:
    # si-diagnose has no random input; the seed only names the run
    return [
        "si-diagnose", "--generator", "cubic", "--k-max", str(p["k_max"]),
        "--k-range", str(p["k_range"]), "--n-centers", "4",
    ]


def _rel_l2_below(bound: float) -> Callable[[Path], list]:
    def check(prefix: Path) -> list:
        err = _report(prefix)["rel_l2_interior"]
        return [] if err < bound else [f"rel_l2_interior {err:.3e} is not below {bound:g}"]

    return check


def _check_stability(prefix: Path) -> list:
    rep = _report(prefix)
    failures = []
    want = sorted(str(s) for s in STABILITY_SIZES)
    for part in ("truncated", "tikhonov"):
        if rep[part]["pass"] is not True:
            failures.append(f"{part}.pass is {rep[part]['pass']!r}")
        got = sorted(rep[part]["per_size"])
        if got != want:
            failures.append(f"{part}.per_size keys {got} differ from the requested sizes {want}")
    return failures


def _check_si(prefix: Path) -> list:
    rep = _report(prefix)
    failures = []
    if not rep["biorthogonality_residual"] < 1e-6:
        failures.append(f"biorthogonality_residual {rep['biorthogonality_residual']:.3e} is not below 1e-6")
    if not rep["coefficient_identity_deviation"] < 1e-5:
        failures.append(
            f"coefficient_identity_deviation {rep['coefficient_identity_deviation']:.3e} is not below 1e-5"
        )
    if rep["density_rank"] != rep["density_family_size"]:
        failures.append(f"density_rank {rep['density_rank']} != family size {rep['density_family_size']}")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: Callable[[int, Path, dict], list]
    check: Callable[[Path], list]
    reports_rel_l2: bool = False

    def cli_args(self, seed: int, inputs: Path, smoke: bool) -> list:
        """Write the seeded inputs under ``inputs`` and return the CLI arguments."""
        return self.args(seed, inputs, (SMOKE if smoke else FULL)[self.name])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pw-reconstruct",
            "the paper's headline experiment; nearly all time is profile transforms and section synthesis",
            _pw_reconstruct_args,
            _rel_l2_below(1e-2),
            reports_rel_l2=True,
        ),
        Workload(
            "fourier-reconstruct",
            "closed-form sections and a large frame; time goes to the dual frame, Gram and sampling",
            _fourier_reconstruct_args,
            _rel_l2_below(1e-10),
            reports_rel_l2=True,
        ),
        Workload(
            "pw-stability",
            "the pw section builder with a non-box profile, plus many small Hermitian solves and RNG draws",
            _pw_stability_args,
            _check_stability,
        ),
        Workload(
            "si-diagnose",
            "the only workload for shift_invariant; time goes to dual-generator B-spline synthesis",
            _si_diagnose_args,
            _check_si,
        ),
    )
}
