"""Benchmark harness for ckplab: one workload per process, gated.

    python3 bench/harness/run.py --workload trial-ct --seed 1 --seconds 20
    python3 bench/harness/run.py --workload all --trace 1

A run compiles the kernel from ``src/ckplab/_kernel.cpp`` (cached by
hash), measures set-up time in fresh interpreters, runs the workload's
jobs with their correctness gates, and prints every metric by name with
its unit.  Timings are corrected for the machine's momentary speed with
a calibration loop (see ``workloads.reported``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; ``--trace 1`` runs the same jobs under :mod:`tracing`
and reports the per-layer ones.  The exit code is non-zero when any
gate fails, and then no metric is reported.  ``--workload all`` runs
each workload in its own process, one after another.
"""

from __future__ import annotations

import os

# one thread per process: keep numpy's BLAS pool from starting more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import kernel

HERE = Path(__file__).resolve().parent
WORKLOADS = ("trial-ct", "trial-cf", "drift", "sweep")
SETUP_PROBES = 2          # per round of the workload's jobs
PROBE_MARK = "setup-done"

# name -> unit; the same names and units are in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "compiled_step_ns": "ns",
    "python_step_ns": "ns",
    "peak_rss_mb": "MB",
    "exact_drift_s": "s",
    "mc_drift_samples_per_s": "1/s",
    "sweep_trials_per_s": "1/s",
}
HIGHER_IS_BETTER = {"mc_drift_samples_per_s", "sweep_trials_per_s"}
PER_LAYER = {
    "rand.draws": "count",
    "rand.draw_us": "us",
    "attachment.select_calls": "count",
    "attachment.select_us": "us",
    "attachment.update_calls": "count",
    "attachment.update_us": "us",
    "attachment.regrows": "count",
    "attachment.select_fallbacks": "count",
    "state.add_node_us": "us",
    "state.mark_pf_calls": "count",
    "state.marked_nodes": "count",
    "state.mark_pf_us": "us",
    "state.copy_calls": "count",
    "state.copy_us": "us",
    "checking.checks": "count",
    "checking.performed": "count",
    "checking.visited": "count",
    "checking.found": "count",
    "checking.find_ratio": "ratio",
    "checking.run_check_us": "us",
    "evolution.self_us": "us",
    "potentials.leaves": "count",
    "potentials.leaf_us": "us",
    "potentials.potential_us": "us",
    "potentials.check_us": "us",
    "engine.kernel_init_ms": "ms",
    "engine.export_s": "s",
    "engine.grow_step_ns": "ns",
    "engine.check_step_ns": "ns",
    "engine.cheap_audit_step_ns": "ns",
    "engine.deep_audit_s": "s",
    "audits.cheap_us": "us",
    "audits.full_audit_s": "s",
    "thresholds.verdict_us": "us",
    "thresholds.false_fraction_us": "us",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting rounds of the jobs until then")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _forwarded(args, workload: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]


def measure_setup(args) -> list[tuple]:
    """Interpreter start to inputs ready, in fresh processes: imports of
    ckplab and the built kernel plus input generation, not the build.
    Returns (seconds, speed) samples."""
    from workloads import Timer
    samples = []
    for _ in range(SETUP_PROBES):
        with Timer() as timer:
            start = time.monotonic()
            proc = subprocess.run(_forwarded(args, args.workload)
                                  + ["--setup-probe"],
                                  capture_output=True, text=True, check=True)
        mark, value = proc.stdout.strip().splitlines()[-1].split()
        if mark != PROBE_MARK:
            raise RuntimeError(f"set-up probe printed {proc.stdout!r}")
        samples.append((float(value) - start, timer.speed))
    return samples


def end_to_end(out) -> dict:
    from workloads import reported
    metrics = {"peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    print(f"peak_rss_mb: {metrics['peak_rss_mb']!r} MB")
    for name, unit in END_TO_END.items():
        if name == "peak_rss_mb":
            continue
        rounds = out.samples.get(name)
        if not rounds:
            out.gate(False, f"no sample of {name}")
            continue
        metrics[name] = reported(rounds, name in HIGHER_IS_BETTER)
        raw = statistics.median(v for r in rounds for v, _ in r)
        print(f"{name}: {metrics[name]!r} {unit} ({len(rounds)} rounds of "
              f"{len(rounds[0])} samples; uncorrected median sample "
              f"{raw!r})")
    return metrics


def per_layer(inp, seconds: float) -> tuple:
    import tracing
    out, metrics = tracing.traced_run(inp, seconds)
    for name, unit in PER_LAYER.items():
        if name not in metrics:
            out.gate(False, f"no value for {name}")
            continue
        print(f"{name}: {metrics[name]!r} {unit}")
    return out, metrics


def run_one(args) -> int:
    so, build_s, cached = kernel.ensure_built()
    word = "cached" if cached else "compiled"
    print(f"kernel build: {build_s:.2f} s ({word}, {so.name}); "
          "not part of setup_s")
    kernel.import_package()
    import workloads
    inp = workloads.prepare(args.workload, args.seed)
    if args.trace:
        out, values = per_layer(inp, args.seconds)
        units = PER_LAYER
    else:
        out = workloads.run(inp, args.seconds, lambda out: out.record(
            "setup_s", *measure_setup(args)))
        values = end_to_end(out)
        units = END_TO_END
    failed = len(out.failures)
    metrics = {} if failed else {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": out.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_probe(args) -> int:
    kernel.import_package()
    import workloads
    workloads.prepare(args.workload, args.seed)
    print(f"{PROBE_MARK} {time.monotonic()!r}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(_forwarded(args, name), capture_output=True,
                              text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        status = status or proc.returncode or (not result["correct"])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return 1 if status else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return run_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
