"""Config-driven experiment runner and command-line interface.

Reads a YAML run specification, executes every (method, chain) pair, and
writes three artifacts into the output directory:

- ``summary.csv``: one row per (method, d, chain) plus one ``chain=mean`` row
  per method (metric columns averaged, wall time summed across chains).
- ``trace_<method>_<chain>.csv``: one row per iteration with the covariance
  error filled at the recording stride.
- ``meta.json``: the fully resolved configuration, seed, covariance mode,
  library version and reporting conventions (schema_version 1).

Floats are serialized with 17 significant digits so every summary value is
recomputable from its trace bit-for-bit; reruns with the same spec and seed
produce byte-identical CSV bodies apart from the wall-time column.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .diagnostics import CovarianceTracker
from .integrators import DmmSolverConfig, INIT_MODES
from .jacobian import DEFAULT_FD_STEP, DERIVATIVE_SOURCES, JACOBIAN_KINDS, JacobianMode
from .phase import MassMatrix
from .samplers import METHODS, SamplerConfig, run_chain
from .targets import MultivariateGaussian, QuarticGeneralizedGaussian, quartic_target_variance

SCHEMA_VERSION = 1

TARGET_KINDS = ("quartic", "gaussian")
COVARIANCE_MODES = ("full", "diagonal", "auto")
DIAGONAL_ONLY_ABOVE = 2048

SUMMARY_COLUMNS = (
    "method", "d", "tau", "T", "delta", "chain",
    "mean_acceptance_pct", "mean_energy_error", "mean_force_evals", "wall_time_s",
)
TRACE_COLUMNS = (
    "iteration", "cov_error", "delta_H", "alpha", "accepted",
    "force_evals", "fpi_iterations", "jacobian_product", "all_converged",
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2


class ConfigError(Exception):
    """Spec validation failure carrying the full accumulated error list."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class MethodSpec:
    """One sampler variant of the experiment, with solver knobs resolved."""

    name: str
    method: str
    tau: float
    total_time: float
    iterations: int
    burn_in: int
    jacobian_kind: str = "J0"
    jacobian_source: str = "finite-difference"
    jacobian_h_fd: float = DEFAULT_FD_STEP
    delta: float = 1e-8
    max_fpi: int = 10
    dd_guard: float = 1e-8
    init_mode: str = "position-euler"
    initial_state: str = "standard-normal"

    def sampler_config(self, seed: int) -> SamplerConfig:
        if self.method == "chmc":
            return SamplerConfig(
                method="chmc",
                tau=self.tau,
                total_time=self.total_time,
                iterations=self.iterations,
                burn_in=self.burn_in,
                seed=seed,
                jacobian_mode=JacobianMode(self.jacobian_kind, self.jacobian_source,
                                           self.jacobian_h_fd),
                solver=DmmSolverConfig(tau=self.tau, delta=self.delta, max_fpi=self.max_fpi,
                                       dd_guard=self.dd_guard, init_mode=self.init_mode),
                initial_state_mode=self.initial_state,
            )
        return SamplerConfig(
            method="hmc-leapfrog",
            tau=self.tau,
            total_time=self.total_time,
            iterations=self.iterations,
            burn_in=self.burn_in,
            seed=seed,
            initial_state_mode=self.initial_state,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully validated experiment: target, method variants, chain layout."""

    target_kind: str
    dimension: int
    methods: tuple
    chains: int
    seed: int
    output_dir: str
    covariance_mode: str = "auto"
    record_stride: int = 10
    workers: int = 1
    mean_path: Optional[str] = None
    cov_path: Optional[str] = None

    def resolved_covariance_mode(self) -> str:
        if self.covariance_mode == "auto":
            return "diagonal" if self.dimension > DIAGONAL_ONLY_ABOVE else "full"
        return self.covariance_mode


def _format_float(x: float) -> str:
    return "%.17g" % float(x)


def _as_int(raw, path, errors, minimum=None):
    if not isinstance(raw, int) or isinstance(raw, bool):
        errors.append(f"{path}: expected an integer, got {raw!r}")
        return None
    if minimum is not None and raw < minimum:
        errors.append(f"{path}: must be >= {minimum}, got {raw}")
        return None
    return raw


def _as_number(raw, path, errors, positive=False):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        errors.append(f"{path}: expected a number, got {raw!r}")
        return None
    value = float(raw)
    if not math.isfinite(value):
        errors.append(f"{path}: must be finite, got {raw!r}")
        return None
    if positive and value <= 0.0:
        errors.append(f"{path}: must be positive, got {raw!r}")
        return None
    return value


def _as_choice(raw, path, errors, choices):
    if raw not in choices:
        errors.append(f"{path}: expected one of {list(choices)}, got {raw!r}")
        return None
    return raw


def _check_unknown(mapping, path, errors, known):
    for key in mapping:
        if key not in known:
            errors.append(f"{path}.{key}: unknown field")


_METHOD_FIELDS = ("name", "method", "tau", "total_time", "iterations", "burn_in",
                  "jacobian", "jacobian_source", "jacobian_h_fd", "delta", "max_fpi",
                  "dd_guard", "init_mode", "initial_state")
_DEFAULT_FIELDS = ("tau", "total_time", "iterations", "burn_in", "jacobian_source",
                   "jacobian_h_fd", "delta", "max_fpi", "dd_guard", "init_mode",
                   "initial_state")
_TOP_FIELDS = ("target", "methods", "defaults", "chains", "iterations", "burn_in",
               "seed", "output_dir", "covariance_mode", "record_stride", "workers")
_TARGET_FIELDS = ("kind", "dimension", "mean_path", "cov_path")


def _validate_method(raw, idx, shared, errors):
    path = f"methods[{idx}]"
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping")
        return None
    _check_unknown(raw, path, errors, _METHOD_FIELDS)
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{path}.name: required non-empty string")
        name = f"method-{idx}"
    method = _as_choice(raw.get("method"), f"{path}.method", errors, METHODS)

    def pick(key, default):
        return raw.get(key, shared.get(key, default))

    tau = _as_number(pick("tau", None), f"{path}.tau", errors, positive=True)
    total_time = _as_number(pick("total_time", None), f"{path}.total_time", errors, positive=True)
    iterations = _as_int(pick("iterations", None), f"{path}.iterations", errors, minimum=1)
    burn_in = _as_int(pick("burn_in", 0), f"{path}.burn_in", errors, minimum=0)
    delta = _as_number(pick("delta", 1e-8), f"{path}.delta", errors, positive=True)
    max_fpi = _as_int(pick("max_fpi", 10), f"{path}.max_fpi", errors, minimum=1)
    dd_guard = _as_number(pick("dd_guard", 1e-8), f"{path}.dd_guard", errors, positive=True)
    init_mode = _as_choice(pick("init_mode", "position-euler"), f"{path}.init_mode",
                           errors, INIT_MODES)
    initial_state = _as_choice(pick("initial_state", "standard-normal"),
                               f"{path}.initial_state", errors,
                               ("zeros", "standard-normal"))
    source = _as_choice(pick("jacobian_source", "finite-difference"),
                        f"{path}.jacobian_source", errors, DERIVATIVE_SOURCES)
    h_fd = _as_number(pick("jacobian_h_fd", DEFAULT_FD_STEP), f"{path}.jacobian_h_fd",
                      errors, positive=True)
    jacobian = raw.get("jacobian", "J0")
    if method == "chmc":
        jacobian = _as_choice(jacobian, f"{path}.jacobian", errors, JACOBIAN_KINDS)
    elif "jacobian" in raw:
        errors.append(f"{path}.jacobian: only applies to chmc")

    if tau is not None and total_time is not None:
        ratio = total_time / tau
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            errors.append(f"{path}: n_steps not integral (total_time/tau = {ratio!r})")
    if iterations is not None and burn_in is not None and iterations <= burn_in:
        errors.append(f"{path}: need iterations > burn_in")

    if errors:
        return None
    return MethodSpec(name=name, method=method, tau=tau, total_time=total_time,
                      iterations=iterations, burn_in=burn_in, jacobian_kind=jacobian or "J0",
                      jacobian_source=source, jacobian_h_fd=h_fd, delta=delta,
                      max_fpi=max_fpi, dd_guard=dd_guard, init_mode=init_mode,
                      initial_state=initial_state)


def validate_spec(text: str) -> ExperimentSpec:
    """Parse and fully validate a YAML run specification.

    Every violation is collected (no fail-fast) and reported through a single
    ConfigError whose ``errors`` list names the offending field paths.
    """
    errors: list[str] = []
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a mapping"])

    _check_unknown(raw, "config", errors, _TOP_FIELDS)

    target = raw.get("target")
    target_kind = None
    dimension = None
    mean_path = cov_path = None
    if not isinstance(target, dict):
        errors.append("target: required mapping with kind and dimension")
    else:
        _check_unknown(target, "target", errors, _TARGET_FIELDS)
        target_kind = _as_choice(target.get("kind"), "target.kind", errors, TARGET_KINDS)
        dimension = _as_int(target.get("dimension"), "target.dimension", errors, minimum=1)
        mean_path = target.get("mean_path")
        cov_path = target.get("cov_path")
        for key, val in (("mean_path", mean_path), ("cov_path", cov_path)):
            if val is not None and not isinstance(val, str):
                errors.append(f"target.{key}: expected a path string")
            if val is not None and target_kind == "quartic":
                errors.append(f"target.{key}: only applies to the gaussian target")

    chains = _as_int(raw.get("chains", 1), "chains", errors, minimum=1)
    seed = _as_int(raw.get("seed", 0), "seed", errors)
    record_stride = _as_int(raw.get("record_stride", 10), "record_stride", errors, minimum=1)
    workers = _as_int(raw.get("workers", 1), "workers", errors, minimum=1)
    covariance_mode = _as_choice(raw.get("covariance_mode", "auto"), "covariance_mode",
                                 errors, COVARIANCE_MODES)
    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir: required non-empty string")

    shared = {}
    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        errors.append("defaults: expected a mapping")
    else:
        _check_unknown(defaults, "defaults", errors, _DEFAULT_FIELDS)
        shared.update(defaults)
    for key in ("iterations", "burn_in"):
        if key in raw:
            shared.setdefault(key, raw[key])

    methods_raw = raw.get("methods")
    methods = []
    if not isinstance(methods_raw, list) or not methods_raw:
        errors.append("methods: required non-empty list")
    else:
        for idx, entry in enumerate(methods_raw):
            method_errors: list[str] = []
            spec = _validate_method(entry, idx, shared, method_errors)
            errors.extend(method_errors)
            if spec is not None:
                methods.append(spec)
        names = [m.name for m in methods]
        if len(set(names)) != len(names):
            errors.append("methods: names must be unique")

    if (covariance_mode == "full" and dimension is not None
            and dimension > DIAGONAL_ONLY_ABOVE):
        errors.append(
            f"covariance_mode: full mode is unavailable above d = {DIAGONAL_ONLY_ABOVE}; "
            "use diagonal or auto")

    if errors:
        raise ConfigError(errors)
    return ExperimentSpec(
        target_kind=target_kind, dimension=dimension, methods=tuple(methods),
        chains=chains, seed=seed, output_dir=output_dir,
        covariance_mode=covariance_mode, record_stride=record_stride,
        workers=workers, mean_path=mean_path, cov_path=cov_path,
    )


def load_spec(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_spec(fh.read())


def _load_vector(path: str, dim: int) -> np.ndarray:
    arr = np.load(path) if path.endswith(".npy") else np.loadtxt(path, delimiter=",")
    arr = np.atleast_1d(np.asarray(arr, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"{path}: expected a length-{dim} vector, got shape {arr.shape}")
    return arr


def _load_matrix(path: str, dim: int) -> np.ndarray:
    arr = np.load(path) if path.endswith(".npy") else np.loadtxt(path, delimiter=",")
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (dim, dim):
        raise ValueError(f"{path}: expected a {dim}x{dim} matrix, got shape {arr.shape}")
    return arr


def build_target(spec: ExperimentSpec):
    """Target distribution plus its covariance description for error traces."""
    if spec.target_kind == "quartic":
        return QuarticGeneralizedGaussian(spec.dimension), quartic_target_variance()
    mean = (np.zeros(spec.dimension) if spec.mean_path is None
            else _load_vector(spec.mean_path, spec.dimension))
    cov = (np.eye(spec.dimension) if spec.cov_path is None
           else _load_matrix(spec.cov_path, spec.dimension))
    return MultivariateGaussian(mean, cov), cov


class _TraceWriter:
    """Per-iteration CSV sink; the covariance column fills at the stride."""

    def __init__(self, writer, tracker: CovarianceTracker):
        self.writer = writer
        self.tracker = tracker

    def __call__(self, iteration, outcome, theta):
        err = self.tracker.last_recorded(iteration)
        self.writer.writerow((
            iteration,
            "" if err is None else _format_float(err),
            _format_float(outcome.delta_H),
            _format_float(outcome.alpha),
            int(outcome.accepted),
            outcome.force_evals,
            outcome.fpi_iterations_total,
            _format_float(outcome.jacobian_product),
            int(outcome.all_steps_converged),
        ))


def _run_task(spec: ExperimentSpec, method_idx: int, chain_idx: int) -> dict:
    method = spec.methods[method_idx]
    target, target_cov = build_target(spec)
    mass = MassMatrix.identity(spec.dimension)
    diagonal = spec.resolved_covariance_mode() == "diagonal"
    tracker = CovarianceTracker(spec.dimension, target_cov, diagonal=diagonal,
                                record_stride=spec.record_stride)
    cfg = method.sampler_config(spec.seed)
    trace_path = os.path.join(spec.output_dir, f"trace_{method.name}_{chain_idx}.csv")
    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        sink = _TraceWriter(writer, tracker)
        summary = run_chain(cfg, target, mass, sinks=[sink], chain_index=chain_idx,
                            covariance_tracker=tracker)
    return {
        "method_idx": method_idx,
        "chain": chain_idx,
        "mean_acceptance_pct": summary.mean_acceptance_pct,
        "mean_energy_error": summary.mean_energy_error,
        "mean_force_evals": summary.mean_force_evals,
        "wall_time_s": summary.wall_time_seconds,
        "final_cov_error": summary.covariance_error_trace[-1][1]
        if summary.covariance_error_trace else math.nan,
        "trace_file": os.path.basename(trace_path),
    }


def _summary_row(method: MethodSpec, d: int, chain, metrics) -> tuple:
    delta = _format_float(method.delta) if method.method == "chmc" else ""
    return (
        method.name, d, _format_float(method.tau), _format_float(method.total_time),
        delta, chain,
        _format_float(metrics["mean_acceptance_pct"]),
        _format_float(metrics["mean_energy_error"]),
        _format_float(metrics["mean_force_evals"]),
        _format_float(metrics["wall_time_s"]),
    )


def run_experiment(spec: ExperimentSpec, workers: Optional[int] = None) -> dict:
    """Execute every (method, chain) task and write the three artifacts.

    Chains are independent units of work; results are identical for any
    degree of parallelism. Returns a manifest with the per-task results and
    output paths.
    """
    os.makedirs(spec.output_dir, exist_ok=True)
    if not os.access(spec.output_dir, os.W_OK):
        raise OSError(f"output directory {spec.output_dir!r} is not writable")
    workers = spec.workers if workers is None else workers

    tasks = [(m, c) for m in range(len(spec.methods)) for c in range(spec.chains)]
    results: dict[tuple, dict] = {}
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_task, spec, m, c): (m, c) for m, c in tasks}
            for fut in concurrent.futures.as_completed(futures):
                res = fut.result()
                results[(res["method_idx"], res["chain"])] = res
    else:
        for m, c in tasks:
            res = _run_task(spec, m, c)
            results[(m, c)] = res

    summary_path = os.path.join(spec.output_dir, "summary.csv")
    metric_keys = ("mean_acceptance_pct", "mean_energy_error", "mean_force_evals")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for m, method in enumerate(spec.methods):
            for c in range(spec.chains):
                writer.writerow(_summary_row(method, spec.dimension, c, results[(m, c)]))
        for m, method in enumerate(spec.methods):
            rows = [results[(m, c)] for c in range(spec.chains)]
            mean_metrics = {k: math.fsum(r[k] for r in rows) / len(rows) for k in metric_keys}
            mean_metrics["wall_time_s"] = math.fsum(r["wall_time_s"] for r in rows)
            writer.writerow(_summary_row(method, spec.dimension, "mean", mean_metrics))

    meta = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "seed": spec.seed,
        "covariance_mode": spec.resolved_covariance_mode(),
        "spec": _spec_as_dict(spec),
        "conventions": {
            "mean_energy_error": "mean |delta H| of the proposal over all iterations, accepted or not",
            "mean_force_evals": "integrator force evaluations / (iterations * n_steps); "
                                "Jacobian finite-difference probes are not included",
            "covariance_error": "l-infinity deviation of the sample covariance from the target; "
                                "diagonal entries only in diagonal mode",
            "wall_time_s": "per-chain monotonic wall time; summed across chains in mean rows",
        },
    }
    meta_path = os.path.join(spec.output_dir, "meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {
        "summary": summary_path,
        "meta": meta_path,
        "results": results,
        "output_dir": spec.output_dir,
    }


def _spec_as_dict(spec: ExperimentSpec) -> dict:
    out = asdict(spec)
    out["methods"] = [asdict(m) for m in spec.methods]
    return out


def format_table(output_dir: str) -> str:
    """Pretty-print the per-method mean rows of a finished run."""
    summary_path = os.path.join(output_dir, "summary.csv")
    with open(summary_path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["chain"] == "mean"]
    if not rows:
        return "no method-mean rows found"
    headers = ("method", "d", "tau", "T", "mean acc %", "mean |dH|", "mean F evals", "time (s)")
    table = [
        (r["method"], r["d"], "%g" % float(r["tau"]), "%g" % float(r["T"]),
         "%.3f" % float(r["mean_acceptance_pct"]),
         "%.3e" % float(r["mean_energy_error"]),
         "%.3f" % float(r["mean_force_evals"]),
         "%.3f" % float(r["wall_time_s"]))
        for r in rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chmc",
        description="Run and inspect conservative-HMC benchmark experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment specification")
    p_run.add_argument("config", help="path to a YAML run specification")
    p_run.add_argument("--workers", type=int, default=None,
                       help="parallel chain workers (default: value from the spec)")
    p_val = sub.add_parser("validate", help="check a specification without running it")
    p_val.add_argument("config")
    p_tab = sub.add_parser("table", help="pretty-print the summary of a finished run")
    p_tab.add_argument("output_dir")
    args = parser.parse_args(argv)

    if args.command in ("run", "validate"):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                spec = validate_spec(fh.read())
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        except ConfigError as exc:
            for err in exc.errors:
                print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        if args.command == "validate":
            print(f"ok: {len(spec.methods)} method(s), {spec.chains} chain(s), "
                  f"target {spec.target_kind} d={spec.dimension}")
            return EXIT_OK
        try:
            manifest = run_experiment(spec, workers=args.workers)
        except Exception as exc:  # noqa: BLE001 - report and signal runtime failure
            print(f"run failed: {exc}", file=sys.stderr)
            return EXIT_RUNTIME_ERROR
        print(f"wrote {manifest['summary']}")
        print(format_table(spec.output_dir))
        return EXIT_OK

    try:
        print(format_table(args.output_dir))
    except OSError as exc:
        print(f"cannot read summary: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
