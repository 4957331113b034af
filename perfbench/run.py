"""opkern end-to-end benchmark.

Runs one seeded workload (or all four) as a closed loop of fresh
``python -m opkern.cli`` processes, with ``src/`` on PYTHONPATH: one client,
and the next invocation starts only after the previous one has exited. Every
invocation's outputs are checked. See README.md in this directory.

    python3 perfbench/run.py --workload pw-reconstruct --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py                # all four workloads, one after the other
    python3 perfbench/run.py --smoke        # tiny sizes, checks and tracer, seconds

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# One BLAS thread in every child: the reconstruct CSV differs between 1 and 2
# OpenBLAS threads, so byte-identity checks and timings compare only at one
# recorded setting, and a single thread leaves the second core of a 2-core
# host to everything else.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracer import layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"
SETUP_REPEATS = 3
DEFAULT_SECONDS = 26
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def _spawn(cmd: list, stdout: Path, stderr: Path) -> tuple:
    """Run ``cmd`` to completion; returns (exit code, wall s, CPU s, peak RSS MB).

    The child is reaped with ``wait4`` for its own resource usage, and killed
    if it outlives ``CHILD_TIMEOUT_S``. Its peak RSS can read no lower than
    this process's own peak, which stays far below any CLI's because this
    process imports neither numpy nor opkern."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Calibrator:
    """The calibration helper process (calibrate.py), open for one run.

    ``kernel_seconds`` times a fixed numpy kernel beside each invocation, to
    tell a slow host from slow code; the time is recorded, never a metric."""

    def __enter__(self) -> "Calibrator":
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            env=_child_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.numpy = json.loads(self._proc.stdout.readline() or "null")
        if self.numpy is None:
            self.__exit__()
            raise BenchError("the calibration helper did not start")
        return self

    def kernel_seconds(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def machine_record(numpy_info: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "scipy": metadata.version("scipy"),
        **numpy_info,
        "blas_threads": BLAS_THREADS,
    }


def _artifacts(out_dir: Path) -> dict:
    """Size and SHA-256 of every file the invocation wrote."""
    return {
        p.name: (p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def measure_setup(work: Path, repeats: int) -> list:
    """Wall time of ``import opkern.cli`` in fresh interpreters."""
    times = []
    for _ in range(repeats):
        code, wall, _, _ = _spawn([sys.executable, "-c", "import opkern.cli"], work / "setup.out", work / "setup.err")
        if code != 0:
            raise BenchError("import opkern.cli failed: " + (work / "setup.err").read_text()[-2000:])
        times.append(wall)
    return times


def invoke(workload, cli_args: list, work: Path, traced: bool, reference: dict | None, calibrator) -> dict:
    """One CLI process; returns its sample with the failed checks listed."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    prefix = out_dir / "run"
    spans_path = work / "spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
    else:
        cmd = [sys.executable, "-m", "opkern.cli"]
    calib = calibrator.kernel_seconds()
    code, wall, cpu, rss = _spawn(cmd + cli_args + ["--out", str(prefix)], work / "cli.out", work / "cli.err")
    sample = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "calibration_s": calib, "exit": code}
    failures = []
    stderr = (work / "cli.err").read_text()
    if code != 0:
        failures.append(f"exit code {code}")
    if stderr:
        failures.append("stderr not empty: " + stderr[-500:])
    if code == 0:
        try:
            failures += workload.check(prefix)
            if workload.reports_rel_l2:
                sample["rel_l2_interior"] = json.loads(prefix.with_suffix(".json").read_text())["rel_l2_interior"]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            failures.append(f"report unreadable: {exc!r}")
        artifacts = _artifacts(out_dir)
        if reference is not None and artifacts != reference:
            failures.append("artifacts differ from the first repeat's")
        sample["artifacts"] = artifacts
        if traced:
            spans = json.loads(spans_path.read_text())["spans"]
            sample["layers"] = layer_metrics(spans, sum(size for size, _ in artifacts.values()))
    sample["failures"] = failures
    return sample


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    work = RUNS / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    cli_args = workload.cli_args(seed, work / "inputs", smoke)

    setup = measure_setup(work, 1 if smoke else SETUP_REPEATS)

    # A traced run alternates untraced and traced invocations, so the overhead
    # is measured under the same host conditions as the layer times.
    kinds = [False, True] if trace else [False]
    samples, reference = [], None
    with Calibrator() as calibrator:
        start = time.perf_counter()
        while True:
            for traced in kinds:
                sample = invoke(workload, cli_args, work, traced, reference, calibrator)
                if reference is None and not sample["failures"]:
                    reference = sample["artifacts"]
                samples.append(sample)
            # stop before an invocation that would run past the deadline
            per_round = statistics.median(s["wall_s"] for s in samples) * len(kinds)
            if smoke or time.perf_counter() - start + per_round > seconds:
                break
        machine = machine_record(calibrator.numpy)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "cli_args": cli_args,
        "machine": machine,
        "setup_s": setup,
        "samples": samples,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def _median(values: list) -> float:
    return float(statistics.median(values))


def end_to_end(record: dict) -> dict:
    plain = [s for s in record["samples"] if not s["traced"]]
    return {
        "wall_s": {"value": _median([s["wall_s"] for s in plain]), "unit": "s"},
        "setup_s": {"value": _median(record["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": _median([s["peak_rss_mb"] for s in plain]), "unit": "MB"},
    }


def per_layer(record: dict) -> dict:
    traced = [s for s in record["samples"] if s["traced"] and "layers" in s]
    plain = [s for s in record["samples"] if not s["traced"]]
    if not traced:
        return {}
    out = {k: {"value": _median([s["layers"][k] for s in traced]), "unit": unit_of(k)} for k in traced[0]["layers"]}
    overhead = _median([s["wall_s"] for s in traced]) - _median([s["wall_s"] for s in plain])
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def summary_lines(record: dict, metrics: dict) -> list:
    samples = record["samples"]
    plain = [s for s in samples if not s["traced"]]
    failed = sum(1 for s in samples if s["failures"])
    name = record["workload"]
    lines = [f"[{name}] seed {record['seed']}, {len(samples)} invocations, closed loop, 1 client"]
    counts = {"wall_s": len(plain), "setup_s": len(record["setup_s"]), "peak_rss_mb": len(plain)}
    for key, m in metrics.items():
        n = counts.get(key, sum(1 for s in samples if s["traced"]))
        lines.append(f"[{name}]   {key:40s} {m['value']:.6g} {m['unit']} (median of {n})")
    errs = [s["rel_l2_interior"] for s in plain if "rel_l2_interior" in s]
    if errs:
        lines.append(f"[{name}]   {'rel_l2_interior':40s} {_median(errs):.6g} 1 (median of {len(errs)})")
    lines.append(f"[{name}]   {'fail_rate':40s} {failed / len(samples):.6g} 1 ({failed} failed of {len(samples)})")
    calib = [s["calibration_s"] for s in samples]
    lines.append(f"[{name}]   host calibration kernel: median {_median(calib):.4f} s, "
                 f"range {min(calib):.4f}-{max(calib):.4f} s")
    for s in samples:
        for f in s["failures"]:
            lines.append(f"[{name}]   FAILED: {f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one plain and one traced invocation")
    args = parser.parse_args(argv)

    if not (SRC / "opkern" / "cli.py").is_file():
        print(f"perfbench: no opkern sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace) or args.smoke
    results = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, trace, args.smoke)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        metrics = {} if args.trace else end_to_end(record)
        if trace:
            metrics.update(per_layer(record))
        for line in summary_lines(record, metrics):
            print(line)
        results[name] = (record, metrics)

    attempted = sum(len(r["samples"]) for r, _ in results.values())
    failed = sum(1 for r, _ in results.values() for s in r["samples"] if s["failures"])
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if args.smoke and failed else 0


if __name__ == "__main__":
    sys.exit(main())
