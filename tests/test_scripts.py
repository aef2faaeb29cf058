"""The repository's scripts and the benchmark's hooks into the package.

perfbench wraps chmc callables by name and imports chmc names; a renamed or
deleted one would turn its per-layer metrics into "unmeasured" or break the
benchmark without any failing test. These tests only read perfbench.
"""

import ast
import csv
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import chmc
from chmc.integrators import StepRecord, StepScratch, dmm_step
from support import BlackBoxQuartic, MultivariateGaussian

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def src_env():
    """The environment with the package source first on PYTHONPATH, for child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def chmc_references(path):
    """Names imported from chmc and dotted chmc.* attribute chains in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, dotted = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "chmc":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "chmc":
                dotted.add(".".join(reversed(parts)))
    return imported, dotted


class TestPerfbenchHooks:
    def test_every_wrap_point_resolves(self):
        spans = load_perfbench("spans")
        missing = [f"{module}.{path}" for module, path, _ in spans.WRAP_POINTS
                   if spans._resolve(module, path) is None]
        assert missing == []

    def test_run_chain_is_the_only_reader_of_the_mass(self):
        # the steps run on the identity mass without reading one; run_chain
        # keeps its mass argument because workloads.py passes one, checks its
        # dimension and reads nothing else of it
        with_mass, calls = [], []
        for path in sorted((ROOT / "src" / "chmc").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                    if "mass" in {x.arg for x in params if x is not None}:
                        with_mass.append(f"{path.name}:{getattr(node, 'name', 'lambda')}")
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    owner = node.func.value
                    if getattr(owner, "id", getattr(owner, "attr", None)) == "mass":
                        calls.append(f"{path.name}:{node.lineno}")
        assert with_mass == ["samplers.py:run_chain"]
        assert calls == []
        assert [n for n in vars(chmc.MassMatrix) if not n.startswith("_")] == ["identity"]

    def test_the_trajectory_owns_its_jacobian_factor(self):
        # the layers run jacobian <- integrators <- samplers, and none of them
        # imports targets: the trajectory builds the factor over its chain's
        # StepScratch, so no hook, no relayed guard and no J0 branch is left
        # above it, and the factor's route is settled from the scratch alone
        src = ROOT / "src" / "chmc"
        assert [p.name for p in src.glob("*.py")
                if "per_step_hook" in p.read_text(encoding="utf-8")] == []
        trees = {name: ast.parse((src / name).read_text(encoding="utf-8"))
                 for name in ("jacobian.py", "samplers.py")}
        imports = [node.module for node in ast.walk(trees["jacobian.py"])
                   if isinstance(node, ast.ImportFrom)]
        assert "integrators" not in imports and "chmc.integrators" not in imports
        assert "targets" not in imports and "chmc.targets" not in imports
        potential_params = [
            node.name for node in ast.walk(trees["jacobian.py"])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "potential" in {x.arg for x in node.args.posonlyargs + node.args.args
                                + node.args.kwonlyargs}]
        assert potential_params == []
        # the force-Jacobian capabilities are read once per chain, by its
        # StepScratch; targets.py only defines them
        readers = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for fn in node.body:
                        if isinstance(fn, ast.FunctionDef):
                            for inner in ast.walk(fn):
                                scopes.setdefault(inner, f"{node.name}.{fn.name}")
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in (
                        "closed_form_force_jacobian_diag", "closed_form_force_jacobian"):
                    readers.append(f"{path.name}:{scopes.get(node, '-')}:{node.attr}")
        assert readers == ["integrators.py:StepScratch.__init__:closed_form_force_jacobian_diag",
                           "integrators.py:StepScratch.__init__:closed_form_force_jacobian"]
        guard_params, accumulators, j0_tests = [], [], []
        for name, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                    if "dd_guard" in {x.arg for x in params if x is not None}:
                        guard_params.append(f"{name}:{getattr(node, 'name', 'lambda')}")
                if name != "samplers.py":
                    continue
                if "JacobianAccumulator" in (getattr(node, "id", None),
                                             getattr(node, "attr", None),
                                             getattr(node, "name", None)):
                    accumulators.append(node.lineno)
                if isinstance(node, ast.Compare) and any(
                        isinstance(c, ast.Constant) and c.value == "J0"
                        for c in [node.left, *node.comparators]):
                    j0_tests.append(node.lineno)
        assert guard_params == []
        assert accumulators == []
        assert j0_tests == []

    def test_the_chain_settles_the_step_and_the_route_once(self):
        # run_chain builds the chain's StepScratch, whose construction is the
        # one caller of analytic_jacobians; the trajectory takes the scratch,
        # no solver or mode, and has no J0 branch of its own
        src = ROOT / "src" / "chmc"
        callers = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = {}  # each node's module-level function or method
            for top in tree.body:
                members = top.body if isinstance(top, ast.ClassDef) else [top]
                for fn in members:
                    if isinstance(fn, ast.FunctionDef):
                        prefix = f"{top.name}." if top is not fn else ""
                        scopes.update((inner, prefix + fn.name) for inner in ast.walk(fn))
            callers += [f"{path.stem}.{scopes.get(node, '-')}" for node in ast.walk(tree)
                        if isinstance(node, ast.Call)
                        and "analytic_jacobians" in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None))]
        assert callers == ["integrators.StepScratch.__init__"]
        tree = ast.parse((src / "integrators.py").read_text(encoding="utf-8"))
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "trajectory")
        annotations = {ast.unparse(a.annotation) for a in fn.args.args if a.annotation}
        assert not annotations & {"DmmSolverConfig", "JacobianMode"}
        assert [a.arg for a in fn.args.args][:4] == ["state", "potential", "scratch", "n_steps"]
        assert not [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Constant)
                    and node.value == "J0"]

    def test_one_floating_point_policy_per_layer(self):
        # run_chain holds the chain's overflow/invalid policy around every
        # iteration, and the trajectories below it run under it; only the
        # Jacobian factor's log of a zero, a division run_chain's policy
        # leaves alone, sets its own
        setters = []
        for path in sorted((ROOT / "src" / "chmc").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = {}
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for inner in ast.walk(fn):
                        scopes[inner] = fn.name  # the innermost function wins
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                        "errstate", "seterr"):
                    setters.append(f"{path.stem}.{scopes.get(node, '-')}")
        assert setters == ["jacobian.step_jacobian", "samplers.run_chain"]

    def test_workload_chmc_references_exist(self):
        imported, dotted = chmc_references(ROOT / "perfbench" / "workloads.py")
        assert imported, "no names imported from chmc"
        # the benchmark drives the chain API only: the step-level internals
        # may change signature without breaking it
        assert sorted(imported - set(chmc.__all__)) == []
        assert {"cli.run_chain", "cli.DIAGONAL_ONLY_ABOVE"} <= dotted
        for chain in sorted(dotted):
            module, _, attr = chain.rpartition(".")
            owner = importlib.import_module(f"chmc.{module}") if module else chmc
            assert hasattr(owner, attr), f"chmc.{chain}"

    def test_step_record_feeds_solver_metrics(self):
        # spans.py reads these through getattr; a missing one silently turns
        # the solver metrics into "unmeasured"
        assert {"fpi_iterations", "converged"} <= {
            f.name for f in dataclasses.fields(StepRecord)}
        tracer = load_perfbench("spans").Tracer()
        scratch = StepScratch(chmc.QuarticGeneralizedGaussian(2), chmc.DmmSolverConfig(tau=0.1))
        rec = dmm_step(np.array([0.3, -0.2]), np.array([1.0, 0.5]), scratch)
        tracer._on_step(rec)
        assert tracer.solver == {"steps": 1, "fpi": rec.fpi_iterations,
                                 "unconverged": 0 if rec.converged else 1, "measured": True}

    def test_run_chain_names_the_benchmark_reads(self, tmp_path):
        # workloads.py binds run_chain's arguments by name, reads its summary,
        # its sinks' outcomes and run_experiment's results by attribute and key
        from chmc.cli import run_experiment, validate_spec

        bind_arguments = load_perfbench("spans").bind_arguments
        cfg = chmc.SamplerConfig(method="hmc-leapfrog", tau=0.1, total_time=0.5, iterations=3)
        target, mass = chmc.QuarticGeneralizedGaussian(2), chmc.MassMatrix.identity(2)
        tracker = chmc.CovarianceTracker(2, 1.0, record_stride=1)
        b = bind_arguments(chmc.run_chain, (cfg, target, mass),
                           {"chain_index": 0, "covariance_tracker": tracker})
        assert {"cfg", "target", "mass", "sinks", "chain_index",
                "covariance_tracker"} <= set(b.arguments)
        seen = []
        b.arguments["sinks"] = list(b.arguments["sinks"]) + [lambda i, o, th: seen.append(o)]
        summary = chmc.run_chain(*b.args, **b.kwargs)
        for name in ("mean_acceptance_pct", "mean_energy_error", "mean_force_evals"):
            assert isinstance(getattr(summary, name), float), name
        assert len(seen) == 3
        for o in seen:
            assert isinstance(o.accepted, bool) and isinstance(o.all_steps_converged, bool)
            assert isinstance(o.delta_H, float)
        manifest = run_experiment(validate_spec(f"""
target: {{kind: quartic, dimension: 2}}
chains: 2
record_stride: 2
output_dir: {tmp_path / 'o'}
defaults: {{iterations: 4, tau: 0.1, total_time: 0.5}}
methods:
  - {{name: hmc-lf, method: hmc-leapfrog}}
  - {{name: chmc-j0, method: chmc}}
"""))
        assert len(manifest["results"]) == 4
        for res in manifest["results"].values():
            assert isinstance(res["final_cov_error"], float)

    def test_table_workload_yaml_validates(self, monkeypatch):
        # workloads.py imports its sibling modules by their bare names
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = load_perfbench("workloads")
        from chmc.cli import validate_spec

        p = dict(workloads.plan("table-d40", 6.0), seed=11)
        spec = validate_spec(workloads.table_yaml(p, "out"))
        assert [m.name for m in spec.methods] == [m["name"] for m in p["methods"]]
        assert {m.dd_guard for m in spec.methods if m.method == "chmc"} == {workloads.DD_GUARD}

    def test_every_method_runs_through_the_counting_proxy(self, monkeypatch):
        # CountingTarget forwards only dim and the target calls; a sampler
        # that reads any other target attribute would crash the benchmark
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        counting = load_perfbench("workloads").CountingTarget
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, -0.3], [0.2, -0.3, 0.8]])
        quartic, gaussian = chmc.QuarticGeneralizedGaussian(3), MultivariateGaussian(
            np.zeros(3), cov)
        cases = [(quartic, None), (gaussian, None)]
        cases += [(t, chmc.JacobianMode(kind, source)) for t in (quartic, gaussian)
                  for kind in ("J0", "J1", "JFull")
                  for source in ("analytic", "finite-difference")]
        cases += [(BlackBoxQuartic(3), chmc.JacobianMode(kind)) for kind in ("J0", "J1")]

        def outcomes(cfg, target):
            seen = []
            chmc.run_chain(cfg, target, chmc.MassMatrix.identity(3),
                           sinks=[lambda i, o, th: seen.append((repr(o), th.tobytes()))])
            return seen

        for target, mode in cases:
            if mode is None:
                cfg = chmc.SamplerConfig("hmc-leapfrog", 0.1, 0.5, iterations=3, seed=4)
            else:
                cfg = chmc.SamplerConfig("chmc", 0.1, 0.5, iterations=3, seed=4,
                                         jacobian_mode=mode)
            proxy = counting(target)
            assert outcomes(cfg, proxy) == outcomes(cfg, target), (type(target), mode)
            assert sum(proxy.counts.values()) > 0


# Functions on the per-step path, and the operator expressions in them that
# take a float literal. Those work on Python floats or NumPy scalars only: an
# expression cannot be typed from the source, so each is listed here.
HOT_PATH = {
    "integrators.py": {
        "leapfrog_trajectory": {"0.5 * tau"},
        "dmm_step": {"0.5 * float(f @ np.subtract(g, Q, r))"},
        "_chord_scale": {"block.min() > 0.0", "row.min() > 0.0"},
    },
    "jacobian.py": {
        "force_jacobians": set(),
        "step_jacobian": {"1.0 + c * float((d_q - d_Q).sum())"},
    },
    "targets.py": {
        "evaluate": set(),
        "gradient": set(),
        "closed_form_force": set(),
        "closed_form_force_jacobian_diag": set(),
    },
}


def _float_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _ufunc_called(call):
    """The ufunc that ``np.<ufunc>(...)`` or ``np.<ufunc>.<method>(...)`` calls, else None."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
        func = func.value
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "np":
        found = getattr(np, func.attr, None)
        return found if isinstance(found, np.ufunc) else None
    return None


def test_hot_path_ufuncs_take_no_float_literal():
    # a ufunc converts a Python float operand on every call, which adds about
    # half to the call's cost at d = 40 and shows in no pass count; the hot
    # path passes 0-d arrays made once per module or trajectory (``scalar_operand``)
    literal_calls, operators = [], {}
    for name, functions in HOT_PATH.items():
        tree = ast.parse((ROOT / "src" / "chmc" / name).read_text(encoding="utf-8"))
        if name == "targets.py":  # the quartic's capabilities
            tree = next(n for n in tree.body
                        if isinstance(n, ast.ClassDef) and n.name == "QuarticGeneralizedGaussian")
        found = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert set(functions) <= set(found), name
        for fn in functions:
            operators[fn] = set()
            for node in ast.walk(found[fn]):
                if isinstance(node, ast.Call) and _ufunc_called(node) is not None:
                    args = list(node.args) + [k.value for k in node.keywords]
                    if any(map(_float_literal, args)):
                        literal_calls.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
                operands = (
                    [node.left, node.right] if isinstance(node, ast.BinOp)
                    else [node.value] if isinstance(node, ast.AugAssign)
                    else [node.left, *node.comparators] if isinstance(node, ast.Compare)
                    else [])
                if any(map(_float_literal, operands)):
                    operators[fn].add(ast.unparse(node))
    assert literal_calls == []
    assert operators == {fn: expr for functions in HOT_PATH.values()
                         for fn, expr in functions.items()}


def test_tracer_counts_two_probe_forces_per_j1_step():
    # perfbench/run.py reads probes as the target.closed_form_force leaves
    # under the jacobian.force_jacobians span; install() patches chmc for
    # good, so each source runs in a child process. The analytic source
    # makes one Jacobian-diagonal call per step under that span instead
    code = """
import json, sys
sys.path.insert(0, sys.argv[1])
import chmc
from spans import Tracer

tracer = Tracer()
tracer.install()
cfg = chmc.SamplerConfig("chmc", 0.1, 0.5, iterations=3, seed=4,
                         jacobian_mode=chmc.JacobianMode("J1", sys.argv[2]))
chmc.run_chain(cfg, tracer.target_proxy(chmc.QuarticGeneralizedGaussian(4)),
               chmc.MassMatrix.identity(4))
summary = tracer.summary()
print(json.dumps({"leaves": summary["leaves"].get("target.closed_form_force", {}),
                  "diagonals": summary["leaves"].get("target.closed_form_force_jacobian_diag"),
                  "steps": summary["spans"]["jacobian.step_jacobian"]["count"],
                  "solver_steps": summary["solver"]["steps"],
                  "missing": summary["missing"]}))
"""
    out = {}
    for source in ("finite-difference", "analytic"):
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"), source],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        out[source] = json.loads(proc.stdout)
        assert out[source]["missing"] == []
        assert out[source]["steps"] == out[source]["solver_steps"] == 3 * 5
    out, analytic = out["finite-difference"], out["analytic"]
    assert out["leaves"]["jacobian.force_jacobians"]["count"] == 2 * out["steps"]
    assert analytic["diagonals"]["jacobian.force_jacobians"]["count"] == analytic["steps"]
    assert "jacobian.force_jacobians" not in analytic["leaves"]


def test_every_wrap_point_is_reached(tmp_path):
    # a wrap point that still resolves but is no longer called would read 0
    # in its per-layer metrics; install() patches chmc for good, so it runs
    # in a child process
    code = """
import json, sys
sys.path.insert(0, sys.argv[1])
import chmc.cli
from spans import WRAP_POINTS, Tracer

tracer = Tracer()
tracer.install()
spec = chmc.cli.validate_spec('''
target: {kind: quartic, dimension: 3}
chains: 1
output_dir: %s
defaults: {iterations: 3, tau: 0.1, total_time: 0.5}
methods:
  - {name: hmc-lf, method: hmc-leapfrog}
  - {name: chmc-j0, method: chmc, jacobian: J0}
  - {name: chmc-j1, method: chmc, jacobian: J1}
  - {name: chmc-jfull, method: chmc, jacobian: JFull}
''' % sys.argv[2])
chmc.cli.run_experiment(spec, workers=1)
summary = tracer.summary()
print(json.dumps({"missing": summary["missing"],
                  "counts": {span: summary["spans"].get(span, {}).get("count", 0)
                             for _, _, span in WRAP_POINTS}}))
"""
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    assert [span for span, count in out["counts"].items() if count <= 0] == []


@pytest.mark.parametrize("workload", ["table-d40", "separation-d2560"])
def test_short_records_give_every_metric(tmp_path, monkeypatch, workload):
    # a wrap point that no trace reaches, or a record the metrics cannot
    # read, turns metrics into null and the benchmark's last line into
    # malformed output; run.py's own child runner writes into tmp_path
    run = load_perfbench("run")
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    plain = run.child(workload, 5, 0.3, "run", "run")
    traced = run.child(workload, 5, 0.3, "trace", "trace")
    assert traced["trace"]["missing"] == []
    assert traced["digest"] == plain["digest"]
    assert traced["counts"]["target_calls"] == plain["counts"]["target_calls"]
    layers, unmeasured = run.per_layer(traced, plain)
    metrics = {**run.end_to_end(plain, [plain["setup_s"]]), **layers}
    assert unmeasured == []
    assert [k for k, v in metrics.items() if v is None] == []
    json.dumps({"metrics": metrics}, allow_nan=False)


def run_benchmark_table(*flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "benchmark_table.py"), *flags],
        capture_output=True, text=True, env=src_env(), timeout=120)


def summary_rows(out_dir):
    """summary.csv rows without the wall-time column."""
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in csv.DictReader(fh)]


def test_benchmark_table_script_runs_at_toy_scale(tmp_path):
    from chmc.cli import run_experiment, validate_spec

    out = tmp_path / "table"
    proc = run_benchmark_table("--dims", "3", "--chains", "1", "--iterations", "3",
                               "--methods", "hmc-lf", "chmc-j0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = summary_rows(out / "d3")
    assert [(r["method"], r["chain"]) for r in rows] == [
        ("hmc-lf", "0"), ("chmc-j0", "0"), ("hmc-lf", "mean"), ("chmc-j0", "mean")]
    assert "hmc-lf" in proc.stdout and "chmc-j0" in proc.stdout
    # the settings the script used to spell out by hand, now read from the config
    run_experiment(validate_spec(f"""
target: {{kind: quartic, dimension: 3}}
chains: 1
seed: 20240811
output_dir: {tmp_path / 'ref'}
defaults: {{tau: 0.1, total_time: 4.0, iterations: 3, delta: 1.0e-8, max_fpi: 10}}
methods:
  - {{name: hmc-lf, method: hmc-leapfrog}}
  - {{name: chmc-j0, method: chmc, jacobian: J0}}
"""))
    assert rows == summary_rows(tmp_path / "ref")


@pytest.mark.parametrize("flag, error", [
    (("--chains", "0"), "chains: must be >= 1, got 0"),
    (("--iterations", "0"), "iterations must be >= 1, got 0"),
    (("--seed", "-1"), "seed: must be >= 0, got -1"),
])
def test_benchmark_table_bad_flag_is_config_error(tmp_path, flag, error):
    out = tmp_path / "table"
    proc = run_benchmark_table("--dims", "3", "--out", str(out), *flag)
    assert proc.returncode == 1
    assert f"config error: {error}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("name", ["quartic_d40.yaml", "quartic_d2560_separation.yaml"])
def test_shipped_configs_validate(name):
    from chmc.cli import validate_spec

    spec = validate_spec((ROOT / "configs" / name).read_text(encoding="utf-8"))
    assert [m.name for m in spec.methods][0] == "hmc-lf"


def test_annotated_config_names_every_spec_field():
    # README points to quartic_d40.yaml for every key of a run spec
    from chmc.cli import ExperimentSpec, MethodSpec, TargetSpec

    text = (ROOT / "configs" / "quartic_d40.yaml").read_text(encoding="utf-8")
    missing = [f"{spec.__name__}.{f.name}" for spec in (ExperimentSpec, TargetSpec, MethodSpec)
               for f in dataclasses.fields(spec)
               if re.search(rf"(?m)^[ #-]*{f.name}:", text) is None]
    assert missing == []


def readme_block(heading, lang=""):
    """The first fenced code block in the README section ``## heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    # the front-door example, exactly as the README prints it
    namespace = {}
    exec(readme_block("Library API", "python"), namespace)
    assert 0.0 < namespace["summary"].mean_acceptance_pct <= 100.0


def test_ci_workflow_names_what_the_repository_has():
    # read, not run: a renamed config or script, or a changed tier-1 command,
    # would otherwise surface only when the workflow first runs
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml")
                              .read_text(encoding="utf-8"))
    runs = [step["run"].strip() for job in workflow["jobs"].values()
            for step in job["steps"] if "run" in step]
    named = re.findall(r"(?:configs|scripts)/\S+\.(?:yaml|py)", "\n".join(runs))
    assert named and [path for path in named if not (ROOT / path).is_file()] == []
    assert readme_block("Tests").strip() in runs
