"""Outside-in span tracer for the opkern CLI.

Run as a script, it imports ``opkern``, rebinds the public functions of each
library module (and the heavy public methods) to timing wrappers, runs
``opkern.cli.main`` on the remaining arguments and writes the recorded spans
to a JSON file:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json reconstruct --space pw ...

Nothing under ``src/`` is edited. A wrapper is installed in the defining
module and in every ``opkern`` module that imported the function by value, so
``from .x import f`` call sites are traced too.

Imported as a module (by ``run.py``), it only turns a span file into the
per-layer metrics; it imports neither ``opkern`` nor numpy then, which is why
the numpy imports below are local.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LIBRARY_MODULES = ("core", "families", "kernels", "paley_wiener", "shift_invariant", "frames", "learning")
LAYERS = LIBRARY_MODULES + ("cli",)

# Public methods that do heavy work; they are not listed in any __all__.
HEAVY_METHODS = {
    "families": [
        ("AverageFunctional", "transform"),
        ("AverageFunctional", "inverse_transform"),
        ("FourierCoefficientFamily", "apply"),
        ("AverageSamplingFamily", "apply"),
        ("PointEvaluationFamily", "apply"),
        ("PointInnerFamily", "apply"),
    ],
    "shift_invariant": [("Generator", "transform")],
}

TRANSFORMS = ("families.AverageFunctional.transform", "families.AverageFunctional.inverse_transform")
APPLIES = tuple(f"families.{cls}.apply" for cls, meth in HEAVY_METHODS["families"] if meth == "apply")
SYNTHESIS = ("paley_wiener.synthesize_from_w", "paley_wiener.pw_average_sections")
SECTION_BUILDERS = ("paley_wiener.pw_kernel_section", "paley_wiener.pw_average_sections")
GRAMS = ("kernels.gram", "kernels.feature_gram")
LINALG = ("core.hermitian_eig", "core.solve_hermitian", "core.pseudoinverse", "core.pseudoinverse_apply")
STABILITY = ("learning.truncated_reconstruction_stability", "learning.stability_sweep")


# ---------------------------------------------------------------------------
# computed work counts, derived from call arguments only
# ---------------------------------------------------------------------------

def _transform_work(name: str, b) -> dict:
    import numpy as np

    u = b.arguments["self"]
    om = np.atleast_1d(np.asarray(b.arguments["omega"], dtype=float))
    closed = b.arguments["closed_form"]
    evals = om.size if closed else om.size * int(b.arguments["quad_n"])
    # the centre x is left out: transforms that differ only by a shift are one
    key = (name, u.delta, u.profile_name, int(b.arguments["quad_n"]), bool(closed),
           om.size, hash(om.tobytes()))
    return {"evals": evals, "key": repr(key)}


def _synthesize_from_w_work(_name: str, b) -> dict:
    return {"evals": b.arguments["out_grid"].n * b.arguments["w_fun"].grid.n}


def _pw_average_sections_work(_name: str, b) -> dict:
    from opkern.paley_wiener import DEFAULT_W_N

    w_grid = b.arguments["w_grid"]
    w_n = w_grid.n if w_grid is not None else DEFAULT_W_N
    m = len(list(b.arguments["centers"]))
    return {"evals": b.arguments["out_grid"].n * w_n + w_n * m, "sections": m}


def _stability_work(_name: str, b) -> dict:
    return {"trials": int(b.arguments["trials"]) * len(list(b.arguments["subset_sizes"]))}


def _bspline_work(_name: str, b) -> dict:
    import numpy as np

    return {"evals": int(np.size(b.arguments["x"]))}


WORK = {
    "families.AverageFunctional.transform": _transform_work,
    "families.AverageFunctional.inverse_transform": _transform_work,
    "paley_wiener.synthesize_from_w": _synthesize_from_w_work,
    "paley_wiener.pw_kernel_section": lambda _name, b: {"sections": 1},
    "paley_wiener.pw_average_sections": _pw_average_sections_work,
    "learning.truncated_reconstruction_stability": _stability_work,
    "learning.stability_sweep": _stability_work,
    "shift_invariant.bspline": _bspline_work,
}


# ---------------------------------------------------------------------------
# recording side (child process)
# ---------------------------------------------------------------------------

class Tracer:
    """Keeps spans ``[name, start, end, parent, work]`` in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, fn, name: str):
        work_fn = WORK.get(name)
        sig = inspect.signature(fn) if work_fn else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = None
            if work_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                work = work_fn(name, bound)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, work]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every traced function and heavy method to its wrapper."""
        import importlib

        modules = {m: importlib.import_module(f"opkern.{m}") for m in LIBRARY_MODULES}
        modules["cli"] = importlib.import_module("opkern.cli")
        opkern_modules = [mod for key, mod in sys.modules.items() if key == "opkern" or key.startswith("opkern.")]
        for short, mod in modules.items():
            names = ["main"] if short == "cli" else list(getattr(mod, "__all__", ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                new = self.wrap(fn, f"{short}.{attr}")
                for other in opkern_modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, new)
            for cls_name, meth in HEAVY_METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(fn, f"{short}.{cls_name}.{meth}"))


def _main(argv: list) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <opkern cli arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import opkern.cli

    try:
        return opkern.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


# ---------------------------------------------------------------------------
# analysis side (parent process)
# ---------------------------------------------------------------------------

def _outermost(spans: list, names: tuple) -> list:
    """Spans named in ``names`` that have no ancestor also named there."""
    out = []
    for rec in spans:
        if rec[0] not in names:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(rec)
    return out


def _total(recs: list) -> float:
    return sum(r[2] - r[1] for r in recs)


def _work(recs: list, field: str) -> int:
    return sum(int((r[4] or {}).get(field, 0)) for r in recs)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "1"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def layer_metrics(spans: list, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation, by metric name."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    self_time = defaultdict(float)
    calls = defaultdict(int)
    by_name = defaultdict(list)
    name_self = defaultdict(float)
    for i, rec in enumerate(spans):
        module = rec[0].split(".", 1)[0]
        own = (rec[2] - rec[1]) - child_time[i]
        self_time[module] += own
        calls[module] += 1
        by_name[rec[0]].append(rec)
        name_self[rec[0]] += own

    transforms = [r for n in TRANSFORMS for r in by_name[n]]
    distinct = len({r[4]["key"] for r in transforms})
    linalg = _outermost(spans, LINALG)
    stability = _outermost(spans, STABILITY)

    m = {
        "families.profile_transform_s": _total(_outermost(spans, TRANSFORMS)),
        "families.profile_transform_exp_evals": _work(transforms, "evals"),
        "families.distinct_transform_ratio": distinct / len(transforms) if transforms else 0.0,
        "paley_wiener.synthesis_s": sum(name_self[n] for n in SYNTHESIS),
        "paley_wiener.synthesis_exp_evals": _work([r for n in SYNTHESIS for r in by_name[n]], "evals"),
        "paley_wiener.sections_built": _work(_outermost(spans, SECTION_BUILDERS), "sections"),
        "frames.dual_frame_s": _total(by_name["frames.dual_frame"]),
        "frames.truncated_frame_s": _total(by_name["frames.truncated_frame"]),
        "frames.reconstruct_s": _total(by_name["frames.reconstruct"]),
        "kernels.gram_s": _total(_outermost(spans, GRAMS)),
        "families.apply_s": _total(_outermost(spans, APPLIES)),
        "families.apply_calls": sum(len(by_name[n]) for n in APPLIES),
        "learning.sampling_s": _total(by_name["learning.sampling_operator"]),
        "learning.stability_s": _total(stability),
        "learning.trials": _work(stability, "trials"),
        "core.linalg_s": _total(linalg),
        "core.linalg_calls": len(linalg),
        "shift_invariant.dual_generator_s": _total(by_name["shift_invariant.dual_generator"]),
        "shift_invariant.bspline_evals": _work(by_name["shift_invariant.bspline"], "evals"),
        "cli.artifact_bytes": artifact_bytes,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
        m[f"{layer}.calls"] = calls[layer]
    return m


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
