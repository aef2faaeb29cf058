"""The repository's scripts and the benchmark's hooks into the package.

perfbench wraps chmc callables by name and imports chmc names; a renamed or
deleted one would turn its per-layer metrics into "unmeasured" or break the
benchmark without any failing test. These tests only read perfbench.
"""

import ast
import csv
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chmc

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        spans = load_perfbench_spans()
        missing = [f"{module}.{path}" for module, path, _ in spans.WRAP_POINTS
                   if spans._resolve(module, path) is None]
        assert missing == []

    def test_workload_chmc_references_exist(self):
        imported, dotted = chmc_references(ROOT / "perfbench" / "workloads.py")
        assert imported, "no names imported from chmc"
        assert [n for n in sorted(imported) if not hasattr(chmc, n)] == []
        assert {"cli.run_chain", "cli.DIAGONAL_ONLY_ABOVE"} <= dotted
        for chain in sorted(dotted):
            module, _, attr = chain.rpartition(".")
            owner = importlib.import_module(f"chmc.{module}") if module else chmc
            assert hasattr(owner, attr), f"chmc.{chain}"


def test_benchmark_table_script_runs_at_toy_scale(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / "table"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "benchmark_table.py"), "--dims", "3",
         "--chains", "1", "--iterations", "3", "--methods", "hmc-lf", "chmc-j0",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out / "d3" / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["chain"]) for r in rows] == [
        ("hmc-lf", "0"), ("chmc-j0", "0"), ("hmc-lf", "mean"), ("chmc-j0", "mean")]
    assert "hmc-lf" in proc.stdout and "chmc-j0" in proc.stdout


@pytest.mark.parametrize("name", ["quartic_d40.yaml", "quartic_d2560_separation.yaml"])
def test_shipped_configs_validate(name):
    from chmc.cli import validate_spec

    spec = validate_spec((ROOT / "configs" / name).read_text(encoding="utf-8"))
    assert [m.name for m in spec.methods][0] == "hmc-lf"
