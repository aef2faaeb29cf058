"""Config-driven experiment runner and command-line interface.

Reads a YAML run specification, executes every (method, chain) pair, and
writes three artifacts into the output directory:

- ``summary.csv``: one row per (method, d, chain) plus one ``chain=mean`` row
  per method (metric columns averaged, wall time summed across chains).
- ``trace_<method>_<chain>.csv``: one row per iteration with the covariance
  error filled at the recording stride.
- ``meta.json``: seed, covariance mode, library version, reporting
  conventions (schema_version 1) and, as ``spec``, the fully resolved run
  spec with the YAML's keys and nesting: ``validate_spec`` loads it back as
  the spec that ran.

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
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Optional

import yaml

from . import __version__
from .diagnostics import CovarianceTracker
from .integrators import DmmSolverConfig
from .jacobian import DERIVATIVE_SOURCES, JACOBIAN_KINDS, JacobianMode
from .phase import MassMatrix
from .samplers import SamplerConfig, run_chain
from .targets import QuarticGeneralizedGaussian, StandardNormal, quartic_target_variance

SCHEMA_VERSION = 1

TARGET_KINDS = ("quartic", "gaussian")
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


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a mapping key given twice, where it keeps the last."""

    def construct_mapping(self, node, deep=False):
        lines = {}
        for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key, line = self.construct_object(key_node), key_node.start_mark.line + 1
            try:
                first = lines.get(key)
            except TypeError:  # unhashable: the base constructor names it
                break
            if first is not None:
                raise ConfigError([f"{key}: duplicate key at line {line} (first at line {first})"])
            lines[key] = line
        return super().construct_mapping(node, deep=deep)


def _default(cls, name: str):
    return next(f.default for f in fields(cls) if f.name == name)


def _chmc_only(default, **metadata):
    """A field only chmc reads: None unless set; a chmc spec fills in ``default``."""
    return field(default=None, metadata=dict(metadata, chmc_only=default))


def _field_errors(spec, prefix: str = "") -> list:
    """Each field's type, minimum and choice violations, named ``prefix`` + YAML key.

    Float fields are stored as floats: YAML 4 reaches meta.json as 4.0.
    """
    errors = []
    for f in fields(spec):
        key, value = prefix + f.name, getattr(spec, f.name)
        if value is None and "chmc_only" in f.metadata:
            continue
        minimum, choices = f.metadata.get("minimum"), f.metadata.get("choices")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if choices is not None and value not in choices:
            errors.append(f"{key}: expected one of {list(choices)}, got {value!r}")
        elif f.type == "int" and not (number and isinstance(value, int)):
            errors.append(f"{key}: expected an integer, got {value!r}")
        elif f.type == "float" and not number:
            errors.append(f"{key}: expected a number, got {value!r}")
        elif f.type == "float" and not math.isfinite(value):
            errors.append(f"{key}: must be finite, got {value!r}")
        elif f.type == "str" and not (isinstance(value, str) and value):
            errors.append(f"{key}: required non-empty string")
        elif minimum is not None and value < minimum:
            errors.append(f"{key}: must be >= {minimum}, got {value}")
        elif f.type == "float":
            object.__setattr__(spec, f.name, float(value))
    return errors


@dataclass(frozen=True)
class MethodSpec:
    """One sampler variant: ``SamplerConfig`` in flat form, with solver knobs resolved.

    Defaults and range checks come from ``SamplerConfig``, ``DmmSolverConfig``
    and ``JacobianMode``; a chmc spec fills each chmc-only field left None
    from them, and a leapfrog spec refuses any other value. Construction
    raises ``ConfigError`` listing every violation; else it keeps the three
    dataclasses it built to check them as one ``SamplerConfig``, which
    ``sampler_config`` hands out with each run's seed.
    """

    name: str
    method: str
    tau: float
    total_time: float
    iterations: int
    burn_in: int = _default(SamplerConfig, "burn_in")
    jacobian: str = _chmc_only("J0", choices=JACOBIAN_KINDS)
    jacobian_source: str = _chmc_only(_default(JacobianMode, "derivative_source"),
                                      choices=DERIVATIVE_SOURCES)
    delta: float = _chmc_only(_default(DmmSolverConfig, "delta"))
    max_fpi: int = _chmc_only(_default(DmmSolverConfig, "max_fpi"))
    dd_guard: float = _chmc_only(_default(DmmSolverConfig, "dd_guard"))
    # a single choice; the key stays so that specs and meta.json keep their shape
    init_mode: str = _chmc_only("position-euler", choices=("position-euler",))

    def __post_init__(self):
        chmc = self.method == "chmc"
        errors = []
        for f in fields(self):
            if "chmc_only" not in f.metadata:
                continue
            if chmc and getattr(self, f.name) is None:
                object.__setattr__(self, f.name, f.metadata["chmc_only"])
            elif self.method == "hmc-leapfrog" and getattr(self, f.name) is not None:
                errors.append(f"{f.name}: only applies to chmc")
        errors += _field_errors(self)
        # the name is part of each trace file's name
        if isinstance(self.name, str) and ("/" in self.name or "\0" in self.name):
            errors.append(f"name: must not contain '/' or NUL, got {self.name!r}")
        if not errors:
            # each dataclass reports its first violated range, and a message
            # two of them share (a bad tau) is kept once; the sampler check
            # leaves out the solver and Jacobian knobs, which a chmc spec checks first
            builds = ((lambda: DmmSolverConfig(tau=self.tau, delta=self.delta,
                                               max_fpi=self.max_fpi, dd_guard=self.dd_guard)),
                      (lambda: JacobianMode(self.jacobian, self.jacobian_source))) if chmc else ()
            builds += (lambda: SamplerConfig(self.method, self.tau, self.total_time,
                                             self.iterations, self.burn_in),)
            built = []
            for build in builds:
                try:
                    built.append(build())
                except ValueError as exc:
                    if str(exc) not in errors:
                        errors.append(str(exc))
        if errors:
            raise ConfigError(errors)
        *knobs, sampler = built
        knobs = dict(zip(("solver", "jacobian_mode"), knobs))
        # the chain's config, built once; no field, so asdict, ==, repr and meta.json leave it out
        object.__setattr__(self, "_sampler", replace(sampler, **knobs))

    def sampler_config(self, seed: int) -> SamplerConfig:
        return replace(self._sampler, seed=seed)


@dataclass(frozen=True)
class TargetSpec:
    """The ``target`` mapping: the quartic well or the standard normal N(0, I),
    both separable, at ``dimension``; construction raises ``ConfigError``
    listing every violation by YAML path."""

    kind: str = field(metadata={"choices": TARGET_KINDS})
    dimension: int = field(metadata={"minimum": 1})

    def __post_init__(self):
        if errors := _field_errors(self, "target."):
            raise ConfigError(errors)


_NO_TARGET = "target: expected a TargetSpec"
_NO_METHODS = "methods: required non-empty list"


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully validated experiment: target, method variants, chain layout.

    Construction raises ``ConfigError`` listing every violation by YAML path.
    The covariance tracker keeps the diagonal alone above ``DIAGONAL_ONLY_ABOVE``.
    """

    target: TargetSpec
    methods: tuple
    output_dir: str
    chains: int = field(default=1, metadata={"minimum": 1})
    seed: int = field(default=0, metadata={"minimum": 0})
    # a single choice; the key stays so that specs and meta.json keep their shape
    covariance_mode: str = field(default="auto", metadata={"choices": ("auto",)})
    record_stride: int = field(default=10, metadata={"minimum": 1})
    workers: int = field(default=1, metadata={"minimum": 1})

    def __post_init__(self):
        errors = _field_errors(self)
        if isinstance(self.output_dir, str) and "\0" in self.output_dir:
            errors.append(f"output_dir: must not contain NUL, got {self.output_dir!r}")
        if not isinstance(self.target, TargetSpec):
            errors.append(_NO_TARGET)
        if not (isinstance(self.methods, tuple) and self.methods
                and all(isinstance(m, MethodSpec) for m in self.methods)):
            errors.append(_NO_METHODS)
        elif len({m.name for m in self.methods}) != len(self.methods):
            errors.append("methods: names must be unique")
        if errors:
            raise ConfigError(errors)


def _format_float(x: float) -> str:
    return "%.17g" % float(x)


_METHOD_KEYS = tuple(f.name for f in fields(MethodSpec))
# keys each methods entry sets for itself; ``defaults`` holds every other
# method key that the entries share, iterations and burn_in included
_ENTRY_KEYS = ("name", "method", "jacobian")


def _mapping(raw, path, errors) -> Optional[dict]:
    """The YAML mapping ``raw`` ({} when absent), or None after reporting anything else."""
    if raw is None or isinstance(raw, dict):
        return raw or {}
    errors.append(f"{path}: expected a mapping")
    return None


def _build(cls, sources: list, errors: list, prefix: str = ""):
    """``cls`` with each field read by its YAML key from the first of ``sources``
    that holds it, else its default; None after adding its violations to ``errors``
    (a missing key named after ``prefix``), or if a source is None (no mapping)."""
    if any(s is None for s in sources):
        return None
    values = {f.name: next((s[f.name] for s in sources if f.name in s), f.default)
              for f in fields(cls)}
    found = [f"{prefix}{n}: required" for n, v in values.items() if v is MISSING]
    if not found:
        try:
            return cls(**values)
        except ConfigError as exc:
            found = exc.errors
    errors.extend(found)
    return None


def validate_spec(text: str) -> ExperimentSpec:
    """Parse and fully validate a YAML run specification.

    The keys, defaults and checks are the fields of ``ExperimentSpec``, its
    ``TargetSpec`` and each ``MethodSpec``; a method value comes from its entry,
    else from ``defaults``, the values every entry shares (its chmc-only keys,
    which may not be null, only for chmc entries), else from the field default.
    Every violation is collected (no fail-fast) and reported through a single
    ConfigError naming the offending field paths; a section that is no mapping
    builds nothing, and a key given twice in one mapping is refused alone.
    """
    errors: list[str] = []
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a mapping"])

    target = _mapping(raw.get("target"), "target", errors)
    defaults = _mapping(raw.get("defaults"), "defaults", errors)
    listed = raw.get("methods")
    entries = {f"methods[{i}]": _mapping(e, f"methods[{i}]", errors)
               for i, e in enumerate(listed if isinstance(listed, list) else [])}
    levels = [
        ("config", raw, {f.name for f in fields(ExperimentSpec)} | {"defaults"}),
        ("target", target, {f.name for f in fields(TargetSpec)}),
        ("defaults", defaults, set(_METHOD_KEYS) - set(_ENTRY_KEYS)),
    ] + [(path, entry, set(_METHOD_KEYS)) for path, entry in entries.items()]
    for path, mapping, known in levels:
        errors.extend(f"{path}.{key}: unknown field" for key in mapping or () if key not in known)

    chmc_only = {f.name for f in fields(MethodSpec) if "chmc_only" in f.metadata}
    chmc_entries = {path: e for path, e in entries.items() if e and e.get("method") == "chmc"}
    if not chmc_entries and None not in entries.values():  # a non-mapping entry may be chmc
        errors.extend(f"defaults.{key}: only applies to chmc, and no method is chmc"
                      for key in defaults or () if key in chmc_only)
    # null stands for "unset" only on a leapfrog entry, where meta.json records it
    chmc_levels = {"defaults": defaults or {}, **chmc_entries} if chmc_entries else {}
    errors.extend(f"{path}.{key}: a chmc method needs a value, got null"
                  for path, mapping in chmc_levels.items()
                  for key in mapping if key in chmc_only and mapping[key] is None)
    methods = []
    for path, entry in entries.items():
        found = []
        shared = None if defaults is None else {
            k: v for k, v in defaults.items() if path in chmc_entries or k not in chmc_only}
        methods.append(_build(MethodSpec, [entry, shared], found))
        # a field's own violation reads path.key: ..., a dataclass's path: ...
        errors.extend(f"{path}.{e}" if e.partition(":")[0] in _METHOD_KEYS else f"{path}: {e}"
                      for e in found)
    built = tuple(m for m in methods if m is not None)
    top = dict(raw, target=_build(TargetSpec, [target], errors, "target."), methods=built)
    spec = _build(ExperimentSpec, [top], errors)
    # a failed target, and a methods list whose every entry failed, have said why
    said = (_NO_TARGET, _NO_METHODS) if methods and not built else (_NO_TARGET,)
    errors = [e for e in errors if e not in said]
    if errors:
        raise ConfigError(errors)
    return spec


def load_spec(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_spec(fh.read())


def build_target(spec: ExperimentSpec):
    """Target distribution plus its per-component variance for error traces."""
    d = spec.target.dimension
    if spec.target.kind == "quartic":
        return QuarticGeneralizedGaussian(d), quartic_target_variance()
    return StandardNormal(d), 1.0


def _run_task(spec: ExperimentSpec, built: tuple, method_idx: int, chain_idx: int) -> dict:
    """One chain of one method; ``built`` is ``build_target(spec)``."""
    method = spec.methods[method_idx]
    target, target_cov = built
    mass = MassMatrix.identity(spec.target.dimension)
    diagonal = spec.target.dimension > DIAGONAL_ONLY_ABOVE
    tracker = CovarianceTracker(spec.target.dimension, target_cov, diagonal=diagonal,
                                record_stride=spec.record_stride)
    cfg = method.sampler_config(spec.seed)
    trace_path = os.path.join(spec.output_dir, f"trace_{method.name}_{chain_idx}.csv")
    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)

        def sink(iteration, outcome, theta):
            """Per-iteration CSV row; the covariance column fills at the stride."""
            err = tracker.last_recorded(iteration)
            writer.writerow((
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

        summary = run_chain(cfg, target, mass, sinks=[sink], chain_index=chain_idx,
                            covariance_tracker=tracker)
    return {
        "mean_acceptance_pct": summary.mean_acceptance_pct,
        "mean_energy_error": summary.mean_energy_error,
        "mean_force_evals": summary.mean_force_evals,
        "wall_time_s": summary.wall_time_seconds,
        "final_cov_error": tracker.trace[-1][1] if tracker.trace else math.nan,
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
    degree of parallelism. ``workers`` overrides ``spec.workers`` under the
    field's own check (ConfigError before any file is written); meta.json
    records the spec's value. Returns a manifest with the per-task results
    and output paths.
    """
    workers = (spec if workers is None else replace(spec, workers=workers)).workers
    built = build_target(spec)
    os.makedirs(spec.output_dir, exist_ok=True)
    if not os.access(spec.output_dir, os.W_OK):
        raise OSError(f"output directory {spec.output_dir!r} is not writable")

    tasks = [(m, c) for m in range(len(spec.methods)) for c in range(spec.chains)]
    task_args = ([spec] * len(tasks), [built] * len(tasks), [m for m, _ in tasks],
                 [c for _, c in tasks])
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(zip(tasks, pool.map(_run_task, *task_args)))
    else:
        results = dict(zip(tasks, map(_run_task, *task_args)))

    summary_path = os.path.join(spec.output_dir, "summary.csv")
    metric_keys = ("mean_acceptance_pct", "mean_energy_error", "mean_force_evals")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for m, method in enumerate(spec.methods):
            for c in range(spec.chains):
                writer.writerow(_summary_row(method, spec.target.dimension, c, results[(m, c)]))
        for m, method in enumerate(spec.methods):
            rows = [results[(m, c)] for c in range(spec.chains)]
            mean_metrics = {k: math.fsum(r[k] for r in rows) / len(rows) for k in metric_keys}
            mean_metrics["wall_time_s"] = math.fsum(r["wall_time_s"] for r in rows)
            writer.writerow(_summary_row(method, spec.target.dimension, "mean", mean_metrics))

    meta = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "seed": spec.seed,
        "covariance_mode": ("diagonal" if spec.target.dimension > DIAGONAL_ONLY_ABOVE
                            else "full"),
        "spec": asdict(spec),
        "conventions": {
            "mean_energy_error": "mean |delta H| of the proposal over all iterations, accepted or not",
            "mean_force_evals": "integrator force evaluations / (iterations * n_steps); "
                                "leapfrog reuses each step's end gradient for the next "
                                "step and the chain carries the first half-kick at its "
                                "position, so it makes n_steps per trajectory after the "
                                "chain's first, which makes n_steps + 1; H_in reuses U "
                                "of the chain state; Jacobian finite-difference probes "
                                "are not included",
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


def format_table(output_dir: str) -> str:
    """Pretty-print the per-method mean rows of a run; ValueError on a summary without any."""
    summary_path = os.path.join(output_dir, "summary.csv")
    with open(summary_path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["chain"] == "mean"]
    if not rows:
        raise ValueError("no method-mean rows")
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


def _config_error(exc: ConfigError) -> int:
    for err in exc.errors:
        print(f"config error: {err}", file=sys.stderr)
    return EXIT_CONFIG_ERROR


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
            spec = load_spec(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        except ConfigError as exc:
            return _config_error(exc)
        if args.command == "validate":
            print(f"ok: {len(spec.methods)} method(s), {spec.chains} chain(s), "
                  f"target {spec.target.kind} d={spec.target.dimension}")
            return EXIT_OK
        try:
            manifest = run_experiment(spec, workers=args.workers)
        except ConfigError as exc:
            return _config_error(exc)
        except Exception as exc:  # noqa: BLE001 - report and signal runtime failure
            print(f"run failed: {exc}", file=sys.stderr)
            return EXIT_RUNTIME_ERROR
        print(f"wrote {manifest['summary']}")
        print(format_table(spec.output_dir))
        return EXIT_OK

    try:
        print(format_table(args.output_dir))
    # no file, a row csv cannot split, no column, or no number
    except (OSError, csv.Error, KeyError, TypeError, ValueError) as exc:
        reason = f"no column {exc}" if isinstance(exc, KeyError) else exc
        print(f"cannot read summary: {reason}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
