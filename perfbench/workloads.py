"""One benchmark workload in one fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --mode {setup,run,trace} --out DIR

``setup`` stops where sampling would start and records that instant, so the
caller can time set-up from process start. ``run`` samples untraced; ``trace``
samples the same spec with every layer wrapped (see spans.py). Both write a
JSON record (DIR/record.json) with the run's counts, timings, correctness
checks and output digest. perfbench/run.py drives this script and turns
records into metrics.

Every workload samples the quartic target U = sum q^4 with tau = 0.1,
T = 4 (40 steps), identity mass and delta = 1e-8. The spec is a function of
(seed, seconds) only: iteration counts come from fixed nominal per-step
costs, so the same arguments always give the same chains, counts and ESS.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import yaml  # noqa: E402

import chmc  # noqa: E402
import chmc.cli  # noqa: E402
import chmc.samplers  # noqa: E402
from chmc import (  # noqa: E402
    CovarianceTracker,
    DmmSolverConfig,
    JacobianMode,
    MassMatrix,
    QuarticGeneralizedGaussian,
    SamplerConfig,
    quartic_target_variance,
)

from spans import TARGET_CALLS, Tracer, bind_arguments  # noqa: E402
from stats import Digest, MomentCheck, cov_error_limit, geyer_ess  # noqa: E402

TAU, TOTAL_TIME, DELTA, DD_GUARD = 0.1, 4.0, 1e-8, 1e-8
N_STEPS = 40

# Single-core microseconds per trajectory step, measured on a 2-core Intel
# Xeon at the commit that defined this benchmark. They only size the spec so
# that a run lasts about --seconds there and every method gets a similar
# share of it; they are constants so that the spec never depends on the
# machine.
NOMINAL_US_PER_STEP = {
    ("table-d40", "hmc-lf"): 22.0,
    ("table-d40", "chmc-j0"): 220.0,
    ("table-d40", "chmc-j1"): 1400.0,
    ("table-d40", "chmc-jfull"): 1450.0,
    ("separation-d2560", "hmc-lf"): 45.0,
    ("separation-d2560", "chmc-j0"): 340.0,
}

# Methods whose chains target the distribution exactly; the others are checked
# against a relative limit (see stats.APPROX_RELATIVE_LIMIT).
EXACT_METHODS = ("hmc-lf",)

METHOD_KEYS = {
    "hmc-lf": ("hmc-leapfrog", None),
    "chmc-j0": ("chmc", "J0"),
    "chmc-j1": ("chmc", "J1"),
    "chmc-jfull": ("chmc", "JFull"),
}

WORKLOADS = {
    "table-d40": {"d": 40, "methods": ("hmc-lf", "chmc-j0", "chmc-j1", "chmc-jfull"),
                  "chains": 2, "workers": 2, "max_fpi": 10, "shares": "equal time",
                  "init": "standard-normal"},
    "separation-d2560": {"d": 2560, "methods": ("hmc-lf", "chmc-j0"),
                         "chains": 4, "workers": 1, "max_fpi": 5, "shares": "equal iterations",
                         "init": "exact target draw"},
}


def plan(workload: str, seconds: float) -> dict:
    """Per-method chains, iterations and burn-in for a run of about ``seconds``."""
    w = WORKLOADS[workload]
    methods = w["methods"]
    # Seconds of all chains of one method doing one iteration each.
    cost = {m: NOMINAL_US_PER_STEP[(workload, m)] * 1e-6 * N_STEPS * w["chains"]
            for m in methods}
    budget = seconds * w["workers"]
    if w["shares"] == "equal time":
        iters = {m: budget / len(methods) / cost[m] for m in methods}
    else:
        iters = dict.fromkeys(methods, budget / sum(cost.values()))
    out = []
    for m in methods:
        n = max(8, int(round(iters[m])))
        # Standard-normal starts need a transient, in which the solver can hit
        # its cap for a dozen iterations; exact draws need none.
        burn = max(25, n // 20) if w["init"] == "standard-normal" else 0
        out.append({"name": m, "method": METHOD_KEYS[m][0], "jacobian": METHOD_KEYS[m][1],
                    "chains": w["chains"], "iterations": n + burn, "burn_in": burn})
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        why = {x["name"]: x["why"] for x in json.load(fh)["workloads"]}[workload]
    return {"workload": workload, "why": why, "d": w["d"], "max_fpi": w["max_fpi"],
            "workers": w["workers"], "init": w["init"], "tau": TAU,
            "total_time": TOTAL_TIME, "delta": DELTA, "methods": out}


# -- targets ---------------------------------------------------------------


class CountingTarget:
    """Proxy that counts every call into the target's capabilities."""

    def __init__(self, inner):
        self.dim = inner.dim
        self.counts = dict.fromkeys(TARGET_CALLS, 0)
        for call in TARGET_CALLS:
            fn = getattr(inner, call, None)
            setattr(self, call, None if fn is None else self._counted(call, fn))

    def _counted(self, call, fn):
        counts = self.counts

        def counted(*args):
            counts[call] += 1
            return fn(*args)

        return counted


def exact_quartic_draws(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Independent draws from the density proportional to exp(-sum q^4).

    |q|^4 is Gamma(1/4, 1) distributed and the sign is a fair coin.
    """
    mag = rng.gamma(0.25, 1.0, size=(n, d)) ** 0.25
    return np.where(rng.random((n, d)) < 0.5, -mag, mag)


# -- observing chains from outside -----------------------------------------


class _Recorder:
    """run_chain sink: per-iteration flags and the retained positions."""

    def __init__(self, iterations: int, burn_in: int, dim: int):
        self.converged = np.zeros(iterations, dtype=bool)
        self.failed = np.zeros(iterations, dtype=bool)
        self.accepted = np.zeros(iterations, dtype=bool)
        self.positions = np.empty((iterations - burn_in, dim))
        self.kept = 0

    def __call__(self, i, outcome, theta):
        self.converged[i] = outcome.all_steps_converged
        self.failed[i] = outcome.delta_H == math.inf
        self.accepted[i] = outcome.accepted
        if theta is not None:
            self.positions[self.kept] = theta
            self.kept += 1


class ChainObserver:
    """Wraps ``run_chain``: counts target calls and records every chain's draws.

    With ``out_dir`` set (the pool workers of table-d40) each chain is saved
    to ``obs_<method>_<chain>.npz`` there; otherwise chains stay in
    ``self.chains``.
    """

    def __init__(self, names: dict, out_dir=None, tracer: Tracer | None = None):
        self.names = names
        self.out_dir = out_dir
        self.tracer = tracer
        self.chains: list[dict] = []

    def run(self, run_chain, *args, **kwargs):
        b = bind_arguments(run_chain, args, kwargs)
        cfg = b.arguments["cfg"]
        chain = b.arguments["chain_index"]
        kind = cfg.jacobian_mode.kind if cfg.method == "chmc" else None
        name = self.names[(cfg.method, kind)]
        counted = CountingTarget(b.arguments["target"])
        rec = _Recorder(cfg.iterations, cfg.burn_in, counted.dim)
        sinks = list(b.arguments["sinks"])
        tracer = self.tracer
        if tracer is not None:
            b.arguments["target"] = tracer.target_proxy(counted)
            sinks = [tracer.wrap(s, "cli.sink") for s in sinks]
            sinks.append(tracer.wrap(rec, "bench.observe"))
            span = tracer.chain_span(name, chain, cfg.iterations * cfg.n_steps)
        else:
            b.arguments["target"] = counted
            sinks.append(rec)
            span = nullcontext()
        b.arguments["sinks"] = sinks
        t0 = perf_counter()
        with span:
            summary = run_chain(*b.args, **b.kwargs)
        wall = perf_counter() - t0
        obs = {"name": name, "chain": chain, "wall": wall, "n_steps": cfg.n_steps,
               "burn_in": cfg.burn_in, "positions": rec.positions[:rec.kept],
               "converged": rec.converged, "failed": rec.failed, "accepted": rec.accepted,
               "counts": counted.counts,
               "summary": [summary.mean_acceptance_pct, summary.mean_energy_error,
                           summary.mean_force_evals]}
        if self.out_dir is not None:
            np.savez(os.path.join(self.out_dir, f"obs_{name}_{chain}.npz"),
                     meta=np.array(json.dumps({k: obs[k] for k in
                                               ("name", "chain", "wall", "n_steps", "burn_in",
                                                "counts", "summary")})),
                     positions=obs["positions"], converged=rec.converged,
                     failed=rec.failed, accepted=rec.accepted)
        else:
            self.chains.append(obs)
        return summary


def load_observations(out_dir: str) -> list[dict]:
    chains = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("obs_") and fname.endswith(".npz"):
            with np.load(os.path.join(out_dir, fname)) as z:
                obs = json.loads(str(z["meta"]))
                for key in ("positions", "converged", "failed", "accepted"):
                    obs[key] = z[key]
            chains.append(obs)
    return chains


# -- per-run reduction -----------------------------------------------------


class Tally:
    """Iteration counts, target calls, ESS and the second-moment check over chains."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.retained = 0
        self.unconverged_retained = 0
        self.unconverged_burn_in = 0
        self.accepted = 0
        self.steps = 0
        self.calls = dict.fromkeys(TARGET_CALLS, 0)
        self.ess = 0.0
        self.ess_by_method: dict[str, float] = {}
        self.chain_wall = 0.0
        self.moments: dict[str, MomentCheck] = {}
        self.stuck: list[str] = []
        self.chain_min_ess: dict[tuple, float] = {}
        self.by_method: dict[str, list] = {}

    def add(self, obs: dict) -> None:
        burn = obs["burn_in"]
        bad = ~obs["converged"] | obs["failed"]
        self.attempted += obs["converged"].size
        self.failed += int(obs["failed"].sum())
        self.retained += obs["converged"].size - burn
        self.unconverged_retained += int(bad[burn:].sum())
        self.unconverged_burn_in += int(bad[:burn].sum())
        self.accepted += int(obs["accepted"].sum())
        self.steps += (obs["converged"].size - int(obs["failed"].sum())) * obs["n_steps"]
        for call, n in obs["counts"].items():
            self.calls[call] = self.calls.get(call, 0) + int(n)
        self.chain_wall += obs["wall"]
        sq = obs["positions"] ** 2
        ess = geyer_ess(sq)
        chain_ess = float(ess.mean())
        self.chain_min_ess[(obs["name"], obs["chain"])] = float(ess.min())
        self.ess += chain_ess
        self.ess_by_method[obs["name"]] = self.ess_by_method.get(obs["name"], 0.0) + chain_ess
        slot = self.by_method.setdefault(obs["name"], [0.0, 0])
        slot[0] += obs["wall"]
        slot[1] += obs["converged"].size * obs["n_steps"]
        name = obs["name"]
        if name not in self.moments:
            self.moments[name] = MomentCheck(quartic_target_variance(), name in EXACT_METHODS)
        self.moments[name].add_chain(sq, ess)
        if not obs["accepted"].any():
            self.stuck.append(f"{name}/{obs['chain']}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "retained": self.retained,
                "unconverged_retained": self.unconverged_retained,
                "unconverged_burn_in": self.unconverged_burn_in,
                "accepted": self.accepted, "steps": self.steps, "target_calls": self.calls,
                "ess": self.ess, "ess_by_method": self.ess_by_method,
                "us_per_step_by_method": {m: 1e6 * t / n for m, (t, n) in self.by_method.items()},
                "chain_wall_s": self.chain_wall}


def chain_digest(digest: Digest, obs: dict) -> None:
    label = f"{obs['name']}/{obs['chain']}"
    digest.add(label + "/positions", obs["positions"])
    for key in ("converged", "failed", "accepted"):
        digest.add(f"{label}/{key}", obs[key].astype(np.float64))
    digest.add(label + "/summary", " ".join("%.17g" % v for v in obs["summary"]))


# -- workloads -------------------------------------------------------------


def table_yaml(p: dict, out_dir: str) -> str:
    methods = []
    for m in p["methods"]:
        entry = {"name": m["name"], "method": m["method"], "iterations": m["iterations"],
                 "burn_in": m["burn_in"]}
        if m["jacobian"] is not None:
            entry["jacobian"] = m["jacobian"]
        methods.append(entry)
    spec = {
        "target": {"kind": "quartic", "dimension": p["d"]},
        "chains": p["methods"][0]["chains"],
        "seed": p["seed"],
        "output_dir": out_dir,
        "covariance_mode": "auto",
        "record_stride": 10,
        "workers": p["workers"],
        "defaults": {"tau": TAU, "total_time": TOTAL_TIME, "delta": DELTA,
                     "max_fpi": p["max_fpi"], "dd_guard": DD_GUARD,
                     "init_mode": "position-euler", "jacobian_source": "finite-difference"},
        "methods": methods,
    }
    return yaml.safe_dump(spec, sort_keys=False)


SUMMARY_REQUIRED = ("method", "chain", "mean_acceptance_pct", "wall_time_s")
TRACE_REQUIRED = ("iteration", "delta_H", "accepted", "all_converged")


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def check_table_artifacts(p: dict, out_dir: str, digest: Digest, errors: list) -> dict:
    """Artifact layout, iteration counts from the traces, and the output digest."""
    chains = p["methods"][0]["chains"]
    found = {"attempted": 0, "failed": 0, "steps": 0, "unconverged_retained": 0,
             "unconverged_burn_in": 0, "accepted": 0, "summary_chain_wall_s": 0.0}
    header, rows = _read_csv(os.path.join(out_dir, "summary.csv"))
    missing = [c for c in SUMMARY_REQUIRED if c not in header]
    if missing:
        errors.append(f"summary.csv lacks columns {missing}")
        return found
    col = {c: header.index(c) for c in header}
    expected = chains * len(p["methods"]) + len(p["methods"])
    if len(rows) != expected:
        errors.append(f"summary.csv has {len(rows)} rows, expected {expected}")
    wall = col["wall_time_s"]
    body = [",".join(v for j, v in enumerate(r) if j != wall) for r in [header] + rows]
    digest.add("summary.csv", "\n".join(body))
    found["summary_chain_wall_s"] = math.fsum(
        float(r[wall]) for r in rows if r[col["chain"]] != "mean")
    for m in p["methods"]:
        for c in range(chains):
            name = f"trace_{m['name']}_{c}.csv"
            path = os.path.join(out_dir, name)
            if not os.path.exists(path):
                errors.append(f"missing {name}")
                continue
            with open(path, "rb") as fh:
                digest.add(name, fh.read().decode("utf-8"))
            theader, trows = _read_csv(path)
            tmissing = [k for k in TRACE_REQUIRED if k not in theader]
            if tmissing:
                errors.append(f"{name} lacks columns {tmissing}")
                continue
            if len(trows) != m["iterations"]:
                errors.append(f"{name} has {len(trows)} rows, expected {m['iterations']}")
            tc = {k: theader.index(k) for k in TRACE_REQUIRED}
            for r in trows:
                failed = float(r[tc["delta_H"]]) == math.inf
                bad = failed or r[tc["all_converged"]] != "1"
                found["attempted"] += 1
                found["failed"] += failed
                found["steps"] += 0 if failed else N_STEPS
                found["accepted"] += r[tc["accepted"]] == "1"
                key = "unconverged_retained" if int(r[tc["iteration"]]) >= m["burn_in"] \
                    else "unconverged_burn_in"
                found[key] += bad
    try:
        with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("seed") != p["seed"]:
            errors.append("meta.json seed differs from the spec")
    except (OSError, ValueError) as exc:
        errors.append(f"meta.json: {exc}")
    return found


def run_table(p: dict, seed: int, out_dir: str, mode: str, tracer) -> dict:
    p = dict(p, seed=seed)
    text = table_yaml(p, out_dir)
    spec = chmc.cli.validate_spec(text)
    names = {METHOD_KEYS[m["name"]]: m["name"] for m in p["methods"]}
    obs_dir = os.path.join(out_dir, "obs")
    os.makedirs(obs_dir)
    observer = ChainObserver(names, out_dir=obs_dir, tracer=tracer)
    chmc.cli.run_chain = functools.partial(observer.run, chmc.cli.run_chain)
    if mode == "setup":
        return {"t_call": time.clock_gettime(time.CLOCK_MONOTONIC)}
    # Pool workers inherit the patched module by fork; spans need one process.
    workers = 1 if tracer is not None else None
    t_call = time.clock_gettime(time.CLOCK_MONOTONIC)
    t0 = perf_counter()
    manifest = chmc.cli.run_experiment(spec, workers=workers)
    wall = perf_counter() - t0

    digest = Digest()
    errors: list[str] = []
    found = check_table_artifacts(p, out_dir, digest, errors)
    observations = load_observations(obs_dir)
    shutil.rmtree(obs_dir)
    if len(observations) != sum(m["chains"] for m in p["methods"]):
        raise RuntimeError(f"observed {len(observations)} chains in {obs_dir}; the pool "
                           "workers did not run the benchmark's run_chain wrapper")
    tally = Tally()
    cov_checks = []
    var = quartic_target_variance()
    for obs in observations:
        tally.add(obs)
    errors += [f"{c}: no proposal accepted" for c in tally.stuck]
    for (m_idx, c), res in sorted(manifest["results"].items()):
        method = spec.methods[m_idx]
        name = method.name
        draws = method.iterations - method.burn_in
        recorded = draws - draws % spec.record_stride
        limit = cov_error_limit(tally.chain_min_ess[(name, c)], draws, recorded, var)
        ok = res["final_cov_error"] <= limit
        cov_checks.append({"chain": f"{name}/{c}", "final_cov_error": res["final_cov_error"],
                           "limit": limit, "ok": ok})
        if not ok:
            errors.append(f"{name}/{c}: final_cov_error {res['final_cov_error']:.4g} > {limit:.4g}")
    counts = tally.as_dict()
    for key in ("attempted", "failed", "accepted", "unconverged_retained", "unconverged_burn_in"):
        if counts[key] != found[key]:
            errors.append(f"trace CSVs give {key}={found[key]}, observed chains {counts[key]}")
    counts.update(found)
    return {"t_call": t_call, "sampling_wall_s": wall,
            "counts": counts, "digest": digest.hexdigest(),
            "checks": {"errors": errors, "cov_error": cov_checks},
            "workers_used": 1 if workers == 1 else p["workers"]}


def run_chains(p: dict, seed: int, mode: str, tracer) -> dict:
    d = p["d"]
    diagonal = d > chmc.cli.DIAGONAL_ONLY_ABOVE
    target = QuarticGeneralizedGaussian(d)
    mass = MassMatrix.identity(d)
    var = quartic_target_variance()
    n_chains = max(m["chains"] for m in p["methods"])
    starts = exact_quartic_draws(np.random.default_rng([seed, d]), n_chains, d)
    jobs = []
    for m in p["methods"]:
        common = dict(tau=TAU, total_time=TOTAL_TIME, iterations=m["iterations"],
                      burn_in=m["burn_in"], seed=seed, initial_state_mode="explicit")
        for c in range(m["chains"]):
            if m["method"] == "chmc":
                cfg = SamplerConfig(
                    method="chmc", jacobian_mode=JacobianMode(m["jacobian"], "finite-difference"),
                    solver=DmmSolverConfig(tau=TAU, delta=DELTA, max_fpi=p["max_fpi"],
                                           dd_guard=DD_GUARD),
                    initial_state=starts[c], **common)
            else:
                cfg = SamplerConfig(method="hmc-leapfrog", initial_state=starts[c], **common)
            jobs.append((cfg, c))
    names = {METHOD_KEYS[m["name"]]: m["name"] for m in p["methods"]}
    observer = ChainObserver(names, tracer=tracer)
    if mode == "setup":
        return {"t_call": time.clock_gettime(time.CLOCK_MONOTONIC)}
    t_call = time.clock_gettime(time.CLOCK_MONOTONIC)
    tally = Tally()
    digest = Digest()
    for cfg, c in jobs:
        tracker = CovarianceTracker(d, var, diagonal=diagonal, record_stride=10)
        observer.run(chmc.samplers.run_chain, cfg, target, mass, chain_index=c,
                     covariance_tracker=tracker)
        obs = observer.chains.pop()
        tally.add(obs)
        chain_digest(digest, obs)
    errors = [f"{c}: no proposal accepted" for c in tally.stuck]
    moments = {name: m.result() for name, m in tally.moments.items()}
    for name, m in moments.items():
        if not m["ok"]:
            errors.append(f"{name}: pooled q^2 mean {m['pooled_q2_mean']:.5f} is "
                          f"{m['z']:.2f} standard errors ({100 * m['relative_error']:.2f} %) "
                          f"from {var:.5f}")
    return {"t_call": t_call, "sampling_wall_s": tally.chain_wall,
            "counts": tally.as_dict(),
            "digest": digest.hexdigest(), "checks": {"errors": errors, "moments": moments},
            "workers_used": 1}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "chmc": chmc.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "threads": {k: os.environ.get(k) for k in
                                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--out", required=True, help="directory for artifacts and the record")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if os.path.exists(args.out):
        shutil.rmtree(args.out)
    os.makedirs(args.out)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    p = plan(args.workload, args.seconds)
    if args.workload == "table-d40":
        result = run_table(p, args.seed, os.path.join(args.out, "artifacts"), args.mode, tracer)
    else:
        result = run_chains(p, args.seed, args.mode, tracer)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "mode": args.mode, "spec": p, **result}
    if args.mode != "setup":
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        record["peak_rss_mb"] = usage / 1024.0
        record["environment"] = environment()
    if tracer is not None:
        record["trace"] = tracer.summary()
        spans_file = os.path.join(args.out, "spans.npz")
        tracer.save(spans_file)
        record["trace"]["spans_file"] = os.path.relpath(spans_file, ROOT)
    with open(os.path.join(args.out, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
