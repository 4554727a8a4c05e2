"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload verify-all --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics: the median
set-up time of fresh interpreters, the median wall time of a pass, and the
peak resident memory of this process.  With ``--trace 1`` it wraps
symlab's public functions in spans and reports the per-layer metrics and
the tracing overhead; the spans go to ``bench/out/``.  The last line of
standard output is the result; failed checks are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_program() -> None:
    """Put ``src`` first on the path and import symlab from there."""
    if not (SRC / "symlab" / "__init__.py").is_file():
        sys.exit(f"error: no symlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import symlab

    if not Path(symlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported symlab from {symlab.__file__}, not from {SRC}")


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    ``verify`` runs its nine GIL-bound checks on four threads.  Spread over
    two CPUs, every hand-off of the interpreter lock waits for a thread on
    the other CPU: on a 2-vCPU VM a pass took 7.3-9.4 s against 6.1-7.3 s
    on one CPU (13 of 13 alternating pairs), and over ten unpinned runs
    ``wall_s`` on verify-all spread by 34% of its median as the host's load
    on the second CPU came and went.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_seconds() -> float:
    """One cold import and catalog build, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.split()[-1])


class Passes:
    """Wall times, integrator steps and operation counts of timed passes."""

    def __init__(self):
        self.walls: list = []
        self.steps: list = []
        self.attempted = 0
        self.failed = 0

    def run(self, workload, problems: list) -> float:
        """One pass; its outputs are checked after its clock has stopped."""
        t0 = time.perf_counter()
        result = workload.run_pass()
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.steps.append(result.steps)
        self.attempted += result.attempted
        self.failed += result.failed
        problems += workload.check_pass(result)
        return wall


def untraced_run(workload_cls, seed: int, seconds: float, problems: list):
    from symlab import catalog

    for tag in catalog.TAGS:  # the build every command starts with
        catalog.get_model(tag)
    setup = statistics.median(setup_seconds() for _ in range(SETUP_PROBES))
    workload = workload_cls(seed)
    passes = Passes()
    start = time.perf_counter()
    while True:  # whole passes until the next one would end after `seconds`
        wall = passes.run(workload, problems)
        if time.perf_counter() - start + wall > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems += workload.check_once()
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(passes.walls),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return metrics, passes


def traced_run(workload_cls, seed: int, seconds: float, problems: list):
    import layers
    from spans import Tracer
    from symlab import catalog

    tracer = Tracer(layers.MODULES)
    origin = time.perf_counter()
    layers.install(tracer)
    try:
        for tag in catalog.TAGS:
            catalog.get_model(tag)
    finally:
        tracer.uninstall()
    n_setup = len(tracer.spans)

    workload = workload_cls(seed)
    serial = workload.serial_pass() if hasattr(workload, "serial_pass") else {}
    # rounds of one untraced and one traced pass, in alternating order, so
    # that the overhead compares passes made at the same time
    passes = Passes()
    plain, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for with_trace in (False, True) if rounds % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(passes.run(workload, problems))
                continue
            layers.install(tracer)
            try:
                traced.append(passes.run(workload, problems))
            finally:
                tracer.uninstall()
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    problems += workload.check_once()

    overhead_pct = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
    metrics = layers.per_layer(
        tracer.spans[:n_setup], tracer.spans[n_setup:], len(traced), passes.steps[0], serial, overhead_pct
    )
    OUT.mkdir(exist_ok=True)
    tracer.dump(str(OUT / f"spans-{workload_cls.name}.jsonl"), origin)
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 0 for verify-all and solve-errata, 2026 for conserve)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    import_program()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    seed = workload_cls.default_seed if args.seed is None else args.seed
    problems: list = []
    if args.trace:
        metrics, passes = traced_run(workload_cls, seed, args.seconds, problems)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics, passes = untraced_run(workload_cls, seed, args.seconds, problems)
        units = {name: unit for name, unit, _ in END_TO_END}

    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    print("  timed passes: " + " ".join(f"{w:.3f}" for w in passes.walls) + " s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
