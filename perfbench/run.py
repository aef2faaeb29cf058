#!/usr/bin/env python3
"""Benchmark of the chmc sampler: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each measurement runs perfbench/workloads.py in
a fresh process with BLAS and OpenMP pinned to one thread.

--trace 0 reports the end-to-end metrics. Set-up time is the median over
SETUP_PROBES extra processes that stop where sampling would start, plus the
measured run itself.

--trace 1 reports the per-layer metrics. It splits --seconds between an
untraced run and a traced run of the same spec, whose output digests and
target-call counts must agree.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it give the full records.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("table-d40", "separation-d2560")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PER_METHOD = ("hmc-lf", "chmc-j0", "chmc-j1", "chmc-jfull")

UNITS = {
    "setup_s": "s", "steps_per_s": "1/s", "ess_per_s": "1/s", "ess_per_kcall": "1/kcall",
    "unconverged_frac": "fraction", "peak_rss_mb": "MB",
    "targets.evaluate_calls_per_step": "count", "targets.force_calls_per_step": "count",
    "targets.gradient_calls_per_step": "count", "targets.us_per_step": "us",
    "integrators.dmm_step.self_us_per_step": "us",
    "integrators.trajectory.self_us_per_step": "us",
    "integrators.leapfrog.self_us_per_step": "us", "integrators.fpi_per_step": "count",
    "integrators.unconverged_step_frac": "fraction",
    "phase.self_us_per_step": "us", "phase.states_per_step": "count",
    "jacobian.probe_force_calls_per_step": "count",
    "jacobian.force_jacobians.self_us_per_step": "us",
    "jacobian.step_jacobian.self_us_per_step": "us",
    "samplers.self_us_per_iter": "us", "samplers.accept_pct": "%",
    **{f"samplers.us_per_step.{m}": "us" for m in PER_METHOD},
    "diagnostics.tracker_us_per_iter": "us", "cli.sink_us_per_iter": "us",
    "cli.artifacts_ms": "ms", "cli.validate_ms": "ms", "cli.worker_busy_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def child(workload: str, seed: int, seconds: float, mode: str, tag: str) -> dict:
    """Run one workload process; returns its record with ``setup_s`` filled in."""
    out = os.path.join(OUT, f"{workload}-seed{seed}-{tag}")
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", out]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        # Also stops pool workers the process may have left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise RuntimeError(f"{workload} {mode} process exited with code {code}")
    with open(os.path.join(out, "record.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["t_call"] - t_spawn
    return record


def unconverged_frac(counts: dict) -> float:
    """Rule-of-succession estimate (k + 1)/(n + 2) over retained iterations.

    k counts retained iterations whose trajectory failed or had a step that did
    not converge; the estimate is never 0 and is within 1/n of k/n.
    """
    return (counts["unconverged_retained"] + 1) / (counts["retained"] + 2)


def end_to_end(rec: dict, setups: list) -> dict:
    c = rec["counts"]
    wall = rec["sampling_wall_s"]
    calls = sum(c["target_calls"].values())
    return {
        "setup_s": statistics.median(setups),
        "steps_per_s": c["steps"] / wall,
        "ess_per_s": c["ess"] / wall,
        "ess_per_kcall": c["ess"] / (calls / 1000.0),
        "unconverged_frac": unconverged_frac(c),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def per_layer(traced: dict, plain: dict) -> tuple[dict, list]:
    """Per-layer metrics of the traced record; plain is the untraced run of the same spec."""
    t = traced["trace"]
    spans, leaves, missing = t["spans"], t["leaves"], set(t["missing"])
    c = traced["counts"]
    steps = c["steps"]
    iters = c["attempted"]
    retained = c["retained"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def needs(*points):
        return not any(p in missing for p in points)

    target_s = sum(v["seconds"] for call, by_parent in leaves.items()
                   if call.startswith("target.") for v in by_parent.values())
    mass_s = sum(v["seconds"] for call, by_parent in leaves.items()
                 if call.startswith("mass.") for v in by_parent.values())
    probes = leaves.get("target.closed_form_force", {}).get(
        "jacobian.force_jacobians", {}).get("count", 0)
    solver = t["solver"]
    dmm = "chmc.integrators.dmm_step"
    plain_sps = plain["counts"]["steps"] / plain["counts"]["chain_wall_s"]
    traced_sps = steps / c["chain_wall_s"]
    busy = plain["counts"].get("summary_chain_wall_s", plain["counts"]["chain_wall_s"])
    metrics = {
        "targets.evaluate_calls_per_step": c["target_calls"]["evaluate"] / steps,
        "targets.force_calls_per_step": c["target_calls"]["closed_form_force"] / steps,
        "targets.gradient_calls_per_step": c["target_calls"]["gradient"] / steps,
        "targets.us_per_step": 1e6 * target_s / steps,
        "integrators.dmm_step.self_us_per_step":
            1e6 * self_s("integrators.dmm_step") / steps if needs(dmm) else None,
        "integrators.trajectory.self_us_per_step":
            1e6 * self_s("integrators.trajectory") / steps
            if needs("chmc.samplers.trajectory") else None,
        "integrators.leapfrog.self_us_per_step":
            1e6 * self_s("integrators.leapfrog") / steps
            if needs("chmc.samplers.leapfrog_trajectory") else None,
        "integrators.fpi_per_step":
            (solver["fpi"] / solver["steps"] if solver["steps"] else 0.0)
            if needs(dmm) and solver["measured"] else None,
        "integrators.unconverged_step_frac":
            (solver["unconverged"] / solver["steps"] if solver["steps"] else 0.0)
            if needs(dmm) and solver["measured"] else None,
        "phase.self_us_per_step":
            1e6 * (self_s("phase.state") + self_s("phase.hamiltonian") + mass_s) / steps
            if needs("chmc.phase.PhaseState.__post_init__", "chmc.integrators.hamiltonian",
                     "chmc.phase.MassMatrix") else None,
        "phase.states_per_step": spans.get("phase.state", {}).get("count", 0) / steps
            if needs("chmc.phase.PhaseState.__post_init__") else None,
        "jacobian.probe_force_calls_per_step": probes / steps
            if needs("chmc.jacobian.force_jacobians") else None,
        "jacobian.force_jacobians.self_us_per_step":
            1e6 * self_s("jacobian.force_jacobians") / steps
            if needs("chmc.jacobian.force_jacobians") else None,
        "jacobian.step_jacobian.self_us_per_step":
            1e6 * self_s("jacobian.step_jacobian") / steps
            if needs("chmc.jacobian.step_jacobian") else None,
        "samplers.self_us_per_iter":
            1e6 * (self_s("samplers.iteration") + self_s("samplers.run_chain")) / iters
            if needs("chmc.samplers.chmc_iteration", "chmc.samplers.hmc_iteration") else None,
        "samplers.accept_pct": 100.0 * c["accepted"] / iters,
        "diagnostics.tracker_us_per_iter": 1e6 * total_s("diagnostics.tracker") / retained
            if needs("chmc.diagnostics.CovarianceTracker.update") else None,
        "cli.sink_us_per_iter": 1e6 * total_s("cli.sink") / iters,
        "cli.artifacts_ms": 1e3 * self_s("cli.run_experiment")
            if needs("chmc.cli.run_experiment") else None,
        "cli.validate_ms": 1e3 * total_s("cli.validate")
            if needs("chmc.cli.validate_spec") else None,
        "cli.worker_busy_frac":
            busy / (plain["workers_used"] * plain["sampling_wall_s"]),
        "trace.overhead_frac": plain_sps / traced_sps - 1.0,
    }
    methods = t["methods"]
    for m in PER_METHOD:
        slot = methods.get(m)
        per_step = 1e6 * slot["seconds"] / slot["steps"] if slot else 0.0
        metrics[f"samplers.us_per_step.{m}"] = per_step
    unmeasured = sorted(k for k, v in metrics.items() if v is None)
    return metrics, unmeasured


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    run = child(args.workload, args.seed, seconds, "run", "run")
    errors = list(run["checks"]["errors"])
    if args.trace == 0:
        setups = [child(args.workload, args.seed, seconds, "setup", f"setup{i}")["setup_s"]
                  for i in range(SETUP_PROBES)]
        setups.append(run["setup_s"])
        values = end_to_end(run, setups)
        extra = {"setup_samples_s": setups}
        records = [run]
    else:
        traced = child(args.workload, args.seed, seconds, "trace", "trace")
        errors += [f"traced: {e}" for e in traced["checks"]["errors"]]
        if traced["digest"] != run["digest"]:
            errors.append("traced run's output digest differs from the untraced run's")
        if traced["counts"]["target_calls"] != run["counts"]["target_calls"]:
            errors.append("traced run's target-call counts differ from the untraced run's")
        values, unmeasured = per_layer(traced, run)
        extra = {"unmeasured": unmeasured, "traced_workers": traced["workers_used"],
                 "spans_file": traced["trace"]["spans_file"],
                 "span_count": traced["trace"]["span_count"],
                 "missing_wrap_points": traced["trace"]["missing"]}
        records = [run, traced]
    for rec in records:
        print(json.dumps({"record": rec}, sort_keys=True))
    print(json.dumps({"errors": errors, **extra}, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": run["counts"]["attempted"],
        "failed": run["counts"]["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
