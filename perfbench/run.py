"""eqm-lab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload corpus-suite --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory and nowhere else; without it the run exits with code 2
and prints no result.

A run times the package import in fresh interpreters, sets the workload up
SETUP_REPEATS times (input generation or config build, and one untimed
warm-up call), then runs whole passes over the workload's fixed calls, one
call in flight, until the next pass would overrun ``--seconds``.  Every output is checked after its pass,
outside the timed region.  With ``--trace 1`` half the time runs untraced
passes and half runs passes with the span tracer installed, and the result
holds the per-layer metrics.  The last line of standard output is the result
object; the lines before it record the environment and every metric with
its unit.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One BLAS thread, at or below nproc; set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
HARD_LIMIT_S = 150.0  # stop starting passes past this, to exit well within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_ms_p50": "ms",
                    "call_ms_p90": "ms", "peak_rss_mb": "MB"}


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import eqm_lab; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": vendor, "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


class Runner:
    """Runs passes of one workload and keeps the tallies."""

    def __init__(self, workload, calibration):
        self.workload = workload
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None) -> tuple[list, list]:
        """Run every call once; returns each call's raw seconds and speed factor."""
        with tracer.installed() if tracer else contextlib.nullcontext():
            calls, outputs, raw, factors = self._timed(self.workload.calls(tracer))
        for call, out in zip(calls, outputs):
            self.attempted += 1
            if isinstance(out, BaseException):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                problems = call.check(out)
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"# FAILED {call.label}: {problem}", file=sys.stderr)
        return raw, factors

    def _timed(self, calls):
        outputs, raw, factors = [], [], []
        for call in calls:
            start = time.perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # a failed operation is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                out = exc
            raw.append(time.perf_counter() - start)
            outputs.append(out)
            factors.append(self.calibration.follow(raw[-1]))
        return calls, outputs, raw, factors

    def passes(self, budget: float, started: float, tracer=None) -> list:
        """(raw seconds, speed factors) of whole passes, run until the next
        would overrun budget."""
        passes, spent = [], []
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.one_pass(tracer))
            spent.append(time.perf_counter() - t0)
            now = time.perf_counter()
            if (now - begin + statistics.median(spent) > budget
                    or now - started > HARD_LIMIT_S):
                return passes


def scaled(passes: list) -> list:
    """Each pass's per-call seconds, each times its call's speed factor."""
    return [[r * f for r, f in zip(raw, factors)] for raw, factors in passes]


def pass_wall(latencies: list) -> float:
    """A typical pass: the sum over calls of each call's median latency.

    Taking the median per call keeps a burst of load from another process
    on the machine out of the figure, as long as it hits one pass of a call.
    """
    return sum(statistics.median(call) for call in zip(*latencies))


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eqm_lab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'eqm_lab'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]

    import layers
    from calibrate import Calibration
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        import_s = statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        calibration = Calibration()
        run = Runner(workload, calibration)
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run.passes(budget, started)
        latencies = [seconds for one in scaled(untraced) for seconds in one]
        p50, above50 = percentile(latencies, 50)
        p90, above90 = percentile(latencies, 90)
        end_to_end = {
            "setup_s": setup_s,
            "wall_s": pass_wall(scaled(untraced)),
            "call_ms_p50": p50 * 1e3,
            "call_ms_p90": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = [f"set-up: import {import_s:.4f} s (median of {IMPORT_REPEATS}), then "
                 + ", ".join(f"{t:.4f}" for t in setups) + " s",
                 f"{len(untraced)} untraced passes, {len(latencies)} requests; "
                 f"p50 has {above50} samples above it, p90 has {above90}",
                 f"raw (unscaled): wall_s {pass_wall([raw for raw, _ in untraced]):.6g} s, "
                 "pass walls " + ", ".join(f"{sum(raw):.4f}" for raw, _ in untraced) + " s"]
        probe = workload.probe()

        per_layer = None
        if args.trace:
            counts = workload.layer_counts()
            tracer = Tracer()
            remaining = args.seconds - (time.perf_counter() - started)
            traced = run.passes(max(remaining, 0.0), started, tracer)
            per_layer = layers.per_layer(tracer, len(traced), sum(sum(raw) for raw, _ in traced))
            per_layer.update(counts)
            per_layer.update(probe)
            per_layer["bench.trace_overhead_ratio"] = (pass_wall(scaled(traced))
                                                       / end_to_end["wall_s"])
            notes.append(f"{len(traced)} traced passes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass

    print("# environment " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for note in notes:
        print(f"# {note}")
    for name, value in end_to_end.items():
        print(f"# {name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"# fail_ratio {run.failed / run.attempted:.6g} ({run.failed} failed of "
          f"{run.attempted} attempted)")
    for name, value in probe.items():
        print(f"# {name} {value} count (known defect probe, not counted as failed)")
    if per_layer is None:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    else:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in layers.UNITS.items()}
        for name, entry in metrics.items():
            print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
