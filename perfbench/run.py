#!/usr/bin/env python3
"""The repository's standing benchmark: host time of the paper's workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tpch --seed 1 --seconds 20 --trace 0

Each *pass* runs in a fresh single-threaded Python process (one closed-loop
client issuing operations back to back) with ``REPRO_RACE_CHECK`` cleared
and its own ``PYTHONHASHSEED``.  With ``--trace 0`` the run makes passes
until ``--seconds`` is spent (at least two), checks every output, requires
every pass to produce the same digest of simulated outcomes, and reports the
end-to-end metrics as medians over passes, host times in calibrated
seconds (see calibrate.py).  With ``--trace 1`` it makes one
untraced and one traced pass (same digest required) and reports the
per-layer metrics of the traced one.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output was correct.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traced passes write their spans (relative to the repository root).
SPAN_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("tpch", "scan_mixed", "fleet_storm", "scan_observed")
MIN_PASSES = 2
MAX_PASSES = 9
PASS_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_s_per_wall_s": "sim_s/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "paper_error_pct": "%",
    "storm_goodput": "ratio",
}


# ------------------------------------------------------------------ child
def run_pass(workload: str, seed: int, trace: bool, check: bool,
             spawned_at: float) -> int:
    """One pass in this process; prints its report as one JSON line."""
    sys.path[:0] = [HERE, SRC]
    import importlib

    from tracer import Tracer
    from workloads import SETUP_FUNCTIONS, WORKLOADS, Recorder

    setup_clock = Tracer()
    for module_name, class_name, attr in SETUP_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        setup_clock.wrap(owner, attr, "setup")
    tracer = None
    if trace:
        import layers
        tracer = Tracer()
        layers.install(tracer)
    rec = Recorder(setup_clock, tracer, check)
    result = WORKLOADS[workload](seed, rec)
    report: Dict[str, Any] = {
        "setup_s": rec.first_op_epoch - spawned_at + rec.setup_inside_s,
        "wall_s": sum(rec.op_walls),
        "ops": len(rec.op_walls),
        "sim_s": result.sim_ns / 1e9,
        "peak_rss_mb": rec.peak_rss_mb,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "paper_error_pct": result.paper_error_pct(),
        "storm_goodput": result.storm_goodput,
        "digest": result.digest(),
    }
    if tracer is not None:
        tracer.restore()
        report["per_layer"] = layers.metrics(tracer, result.counts)
        report["spans"] = len(tracer)
        tracer.write(SPAN_DIR, "%s-seed%d" % (workload, seed))
    setup_clock.restore()
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------- parent
def _kernel_s(env: Dict[str, str]) -> float:
    """Host seconds of the calibration kernel, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "calibrate.py")], env=env,
        capture_output=True, text=True, check=True, timeout=PASS_TIMEOUT_S)
    return float(done.stdout)


def spawn(workload: str, seed: int, trace: bool, hash_seed: int,
          check: bool) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter; returns its report.

    The calibration kernel runs in its own interpreter right before and
    right after the pass (``kernel_s``).
    """
    env = dict(os.environ)
    env.pop("REPRO_RACE_CHECK", None)
    env["PYTHONHASHSEED"] = str(hash_seed)
    kernel_s = _kernel_s(env)
    command = [sys.executable, os.path.abspath(__file__), "--pass",
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0",
               "--spawned-at", repr(time.time())]
    if check:
        command.append("--check")
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError("%s pass exited with %d" % (workload,
                                                       done.returncode))
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["kernel_s"] = [kernel_s, _kernel_s(env)]
    return report


def _median(passes: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _verdict(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print("FAILED: %s" % failure)
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        print("FAILED: simulated outcomes differ between passes: %s"
              % ", ".join(digests))
        failed += 1
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def _scale(passes: List[Dict[str, Any]]) -> float:
    """Host seconds -> calibrated seconds, from every kernel run of a run.

    Host speed drifts over tens of seconds, slower than a run lasts, and
    short bursts from neighbours only ever slow a kernel run down, so the
    fastest kernel run of the whole run tracks the host's speed best.
    """
    return calibrate.REFERENCE_S / min(k for p in passes
                                       for k in p["kernel_s"])


def run_untraced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    started = time.perf_counter()
    passes: List[Dict[str, Any]] = []
    while True:
        passes.append(spawn(workload, seed, False, hash_seed=len(passes) + 1,
                            check=not passes))
        elapsed = time.perf_counter() - started
        per_pass = elapsed / len(passes)
        if len(passes) >= MAX_PASSES or (
                len(passes) >= MIN_PASSES and elapsed + per_pass > seconds):
            break
    for index, p in enumerate(passes):
        print("pass %d: setup %.3fs wall %.3fs (%d ops) kernel %s "
              "rss %.0fMB digest %s"
              % (index, p["setup_s"], p["wall_s"], p["ops"],
                 "/".join("%.3fs" % k for k in p["kernel_s"]),
                 p["peak_rss_mb"], p["digest"][:12]))
    verdict = _verdict(passes)
    attempted = verdict["attempted"]
    scale = _scale(passes)
    values = {
        "setup_s": scale * _median(passes, "setup_s"),
        "wall_s": scale * _median(passes, "wall_s"),
        "sim_s_per_wall_s": statistics.median(
            p["sim_s"] / p["wall_s"] for p in passes) / scale,
        "peak_rss_mb": _median(passes, "peak_rss_mb"),
        "success_rate": (attempted - verdict["failed"]) / attempted,
        "paper_error_pct": passes[0]["paper_error_pct"],
        "storm_goodput": passes[0]["storm_goodput"],
    }
    print("passes: %d (medians over passes), calibration scale %.4f"
          % (len(passes), scale))
    verdict["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END_UNITS.items()}
    return verdict


def run_traced(workload: str, seed: int) -> Dict[str, Any]:
    sys.path.insert(0, HERE)
    import layers
    untraced = spawn(workload, seed, False, hash_seed=1, check=True)
    traced = spawn(workload, seed, True, hash_seed=2, check=False)
    passes = [untraced, traced]
    verdict = _verdict(passes)
    values = dict(traced["per_layer"])
    values["sim.ns_per_event"] = (untraced["wall_s"] * _scale(passes) * 1e9
                                  / max(1.0, values["sim.events"]))
    values["bench.trace_overhead"] = traced["wall_s"] / untraced["wall_s"]
    print("traced pass: %d spans, wall %.3fs vs %.3fs untraced"
          % (traced["spans"], traced["wall_s"], untraced["wall_s"]))
    verdict["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in layers.PER_LAYER}
    return verdict


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: %s has no src/repro; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so subprocess.run kills the running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.one_pass:
        return run_pass(args.workload, args.seed, bool(args.trace),
                        args.check, args.spawned_at)
    if args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
