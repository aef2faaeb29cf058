"""Span tracing of the chmc layers, applied from outside the package.

``Tracer.install`` replaces public callables where their callers look them
up (module globals and class attributes) with wrappers that record a span:
name, start, end, parent span and the chain/iteration being run. Target and
mass-matrix calls are leaves: they are counted and timed per parent span
instead of getting a span each, which keeps finite-difference Jacobian
probes (81 force calls per step at d = 40) to a bounded number of records. A span's
self time is its duration minus the time of its direct children, spans and
leaves alike.

A wrap point that no longer exists is recorded in ``missing`` and every
metric that depends on it is reported as unmeasured; the run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from time import perf_counter

import numpy as np

# (module, attribute path, span name). The module is the one whose callers
# look the name up, so the wrapper is seen by every call site.
WRAP_POINTS = (
    ("chmc.samplers", "chmc_iteration", "samplers.iteration"),
    ("chmc.samplers", "hmc_iteration", "samplers.iteration"),
    ("chmc.samplers", "trajectory", "integrators.trajectory"),
    ("chmc.samplers", "leapfrog_trajectory", "integrators.leapfrog"),
    ("chmc.integrators", "dmm_step", "integrators.dmm_step"),
    ("chmc.integrators", "hamiltonian", "phase.hamiltonian"),
    ("chmc.jacobian", "step_jacobian", "jacobian.step_jacobian"),
    ("chmc.jacobian", "force_jacobians", "jacobian.force_jacobians"),
    ("chmc.jacobian", "JacobianAccumulator.__call__", "jacobian.accumulate"),
    ("chmc.phase", "PhaseState.__post_init__", "phase.state"),
    ("chmc.diagnostics", "CovarianceTracker.update", "diagnostics.tracker"),
    ("chmc.cli", "validate_spec", "cli.validate"),
    ("chmc.cli", "run_experiment", "cli.run_experiment"),
    ("chmc.cli", "_run_task", "cli.task"),
)

TARGET_CALLS = ("evaluate", "gradient", "closed_form_force",
                "closed_form_force_jacobian_diag", "closed_form_force_jacobian")
MASS_CALLS = ("kinetic", "apply", "inverse_apply", "inverse_diagonal",
              "inverse_matmul", "sample_momentum")


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._chain = array("i")
        self._iter = array("i")
        self._start = array("d")
        self._end = array("d")
        self._child = array("d")
        self._stack: list[int] = []
        self.leaves: dict[tuple, list] = {}
        self.chain = -1
        self.iteration = -1
        self.missing: list[str] = []
        self.installed: list[str] = []
        self.solver = {"steps": 0, "fpi": 0, "unconverged": 0, "measured": True}
        self.methods: dict[str, list] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._chain.append(self.chain)
        self._iter.append(self.iteration)
        self._child.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        t = perf_counter()
        self._end[idx] = t
        self._stack.pop()
        if self._stack:
            self._child[self._stack[-1]] += t - self._start[idx]

    def wrap(self, fn, name: str, on_result=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def leaf(self, fn, call: str):
        """Count and time ``fn`` against the innermost open span; no span of its own."""
        stack, name, child, leaves = self._stack, self._name, self._child, self.leaves

        def timed(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            top = stack[-1] if stack else -1
            if top >= 0:
                child[top] += dt
            key = (name[top] if top >= 0 else -1, call)
            slot = leaves.get(key)
            if slot is None:
                leaves[key] = [1, dt]
            else:
                slot[0] += 1
                slot[1] += dt
            return result

        return timed

    def _on_iteration_start(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.iteration += 1
            return fn(*args, **kwargs)

        return counted

    def _on_step(self, rec) -> None:
        fpi = getattr(rec, "fpi_iterations", None)
        converged = getattr(rec, "converged", None)
        if fpi is None or converged is None:
            self.solver["measured"] = False
            return
        self.solver["steps"] += 1
        self.solver["fpi"] += int(fpi)
        self.solver["unconverged"] += 0 if converged else 1

    def install(self) -> None:
        """Wrap every wrap point that exists, and the mass-matrix methods, for good."""
        for module_name, path, span in WRAP_POINTS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, fn = found
            on_result = self._on_step if span == "integrators.dmm_step" else None
            wrapped = self.wrap(fn, span, on_result)
            if span == "samplers.iteration":
                wrapped = self._on_iteration_start(wrapped)
            setattr(owner, attr, wrapped)
            self.installed.append(f"{module_name}.{path}")
        found = _resolve("chmc.phase", "MassMatrix")
        if found is None:
            self.missing.append("chmc.phase.MassMatrix")
            return
        mass_cls = found[2]
        for call in MASS_CALLS:
            fn = getattr(mass_cls, call, None)
            if fn is not None:
                setattr(mass_cls, call, self.leaf(fn, f"mass.{call}"))

    def target_proxy(self, target):
        return _TimedTarget(target, self)

    def chain_span(self, method: str, chain_index: int, steps: int):
        """Context for one run_chain call: sets the chain id and totals time per method."""
        return _ChainSpan(self, method, chain_index, steps)

    # -- reduction -----------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "chain": np.frombuffer(self._chain, dtype=np.int32).copy(),
            "iteration": np.frombuffer(self._iter, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "child": np.frombuffer(self._child, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> int:
        """Write every span to a compressed .npz; returns the span count."""
        arrs = self.arrays()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **arrs)
        return int(arrs["name"].size)

    def summary(self) -> dict:
        """Per span name: count, total and self seconds; per (parent, leaf call): count, seconds."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        spans = {}
        counts = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        self_t = np.bincount(a["name"], weights=dur - a["child"], minlength=k)
        parent_name = np.where(a["parent"] >= 0, a["name"][np.maximum(a["parent"], 0)], -1)
        for nid, name in enumerate(self.names):
            by_parent = {}
            mask = a["name"] == nid
            if counts[nid]:
                for pid, c in zip(*np.unique(parent_name[mask], return_counts=True)):
                    by_parent[self.names[pid] if pid >= 0 else "-"] = int(c)
            spans[name] = {"count": int(counts[nid]), "total_s": float(total[nid]),
                           "self_s": float(self_t[nid]), "parents": by_parent}
        leaves = {}
        for (pid, call), (count, secs) in sorted(self.leaves.items(), key=lambda kv: str(kv[0])):
            parent = self.names[pid] if pid >= 0 else "-"
            leaves.setdefault(call, {})[parent] = {"count": count, "seconds": secs}
        return {"spans": spans, "leaves": leaves, "solver": dict(self.solver),
                "methods": {m: {"seconds": v[0], "steps": v[1]} for m, v in self.methods.items()},
                "missing": list(self.missing), "installed": list(self.installed),
                "span_count": int(a["name"].size)}


class _ChainSpan:
    def __init__(self, tracer: Tracer, method: str, chain_index: int, steps: int):
        self.tracer = tracer
        self.method = method
        self.chain_index = chain_index
        self.steps = steps
        self.nid = tracer._id("samplers.run_chain")

    def __enter__(self):
        self.tracer.chain = self.chain_index
        self.tracer.iteration = -1
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        dur = self.tracer._end[self.idx] - self.tracer._start[self.idx]
        slot = self.tracer.methods.setdefault(self.method, [0.0, 0])
        slot[0] += dur
        slot[1] += self.steps
        self.tracer.chain = -1
        self.tracer.iteration = -1
        return False


class _TimedTarget:
    """Target proxy whose calls are leaves of the calling span."""

    def __init__(self, inner, tracer: Tracer):
        self.dim = inner.dim
        for call in TARGET_CALLS:
            fn = getattr(inner, call, None)
            setattr(self, call, None if fn is None else tracer.leaf(fn, f"target.{call}"))


def bind_arguments(fn, args, kwargs):
    """Bound arguments of a call to ``fn`` with defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound
