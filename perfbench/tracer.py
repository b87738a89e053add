"""Span recorder and timing wrappers for the traced benchmark run.

The wrappers are installed from here, around the calls into each
``crowdflow`` module, and only while a traced run is in progress; the
package's own source is never touched.  A function is wrapped at every
binding a caller can use: ``crowdflow.experiments`` imports
``jko_trajectory`` by name, so wrapping ``crowdflow.jko.jko_trajectory``
alone would miss every call the experiment drivers make.  Methods and
properties are wrapped on their classes.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children, accumulated as each span closes.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name): free functions, wrapped at every binding.
FUNCTIONS = (
    ("crowdflow.experiments", "longtime_decay", "experiments.driver"),
    ("crowdflow.experiments", "crossval", "experiments.driver"),
    ("crowdflow.jko", "jko_trajectory", "jko.jko_trajectory"),
    ("crowdflow.jko", "jko_step", "jko.jko_step"),
    ("crowdflow.jko", "project_spacing", "jko.project_spacing"),
    ("crowdflow.jko", "pav_nondecreasing", "jko.pav_nondecreasing"),
    ("crowdflow.energy", "free_energy", "energy.free_energy"),
    ("crowdflow.transport", "w2_distance", "transport.w2_distance"),
    ("crowdflow.transport", "w2_cost_squared", "transport.w2_cost_squared"),
    ("crowdflow.model", "to_quantile", "model.to_quantile"),
    ("crowdflow.model", "to_grid", "model.to_grid"),
    ("crowdflow.pme", "pme_run", "pme.pme_run"),
    ("crowdflow.pme", "pme_step", "pme.pme_step"),
    ("crowdflow.pme", "stable_dt", "pme.stable_dt"),
    ("crowdflow.pme", "support_set", "pme.support_set"),
    ("crowdflow.heleshaw", "heleshaw_run", "heleshaw.heleshaw_run"),
    ("crowdflow.heleshaw", "hausdorff_distance", "heleshaw.hausdorff_distance"),
    ("crowdflow.oracles", "energy_minimizer_profile",
     "oracles.energy_minimizer_profile"),
)

# (module, class, attribute, span name): methods and properties.
CLASS_MEMBERS = tuple(
    ("crowdflow.potentials", "Potential", meth, f"potentials.{meth}")
    for meth in ("avg", "avg_grad", "avg_hess", "value", "grad")
) + (("crowdflow.model", "GridSpec", "edges", "model.GridSpec.edges"),)

ROOT_SPAN = "bench"


def _crowdflow_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "crowdflow"
                                    or name.startswith("crowdflow."))]


def bindings():
    """Every (owner, attribute, object) the tracer would replace.

    Comparing two snapshots by identity shows whether anything was left
    patched.
    """
    out = []
    modules = _crowdflow_modules()
    for modname, attr, _span in FUNCTIONS:
        original = getattr(sys.modules[modname], attr)
        for mod in modules:
            for key, val in vars(mod).items():
                if val is original:
                    out.append((mod, key, original))
    for modname, clsname, attr, _span in CLASS_MEMBERS:
        cls = getattr(sys.modules[modname], clsname)
        out.append((cls, attr, cls.__dict__[attr]))
    return out


def changed(snapshot):
    """Names of the bindings in ``snapshot`` that no longer hold their object."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, obj in snapshot
            if owner.__dict__.get(attr) is not obj]


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._installed = []
        self.begin_iteration()

    # -- recording -----------------------------------------------------------

    def begin_iteration(self):
        """Drop the spans and counters of the previous iteration."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self._stack = []

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(perf_counter())
        return idx

    def _close(self):
        end = perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def minimum(self, key, value):
        self.counters[key] = min(self.counters.get(key, value), value)

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def wrap(self, name, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close()
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._close()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every binding from ``bindings()`` with a timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        wrapped = {}
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped[id(original)] = self.wrap(span, original,
                                              *hooks.get(span, (None, None)))
        for owner, attr, original in bindings():
            if isinstance(owner, type):
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        for modname, clsname, attr, span in CLASS_MEMBERS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                replacement = property(self.wrap(span, original.fget),
                                       original.fset, original.fdel,
                                       original.__doc__)
            else:
                replacement = self.wrap(span, original)
            self._installed.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _hooks(self):
        """Solver counts read from what the wrapped calls return or raise."""
        from crowdflow.jko import JkoConvergenceError, JkoOptions

        default_tol = JkoOptions().tol_grad

        def jko_result(args, kwargs, res):
            opts = args[4] if len(args) > 4 else kwargs.get("opts")
            tol = default_tol if opts is None else opts.tol_grad
            self.count("jko.accepted")
            self.count("jko.newton_iters", res.iterations)
            self.maximum("jko.newton_iters_max", res.iterations)
            self.maximum("jko.active_max", res.active_count)
            self.maximum("jko.kkt_over_tol_max", res.kkt_residual / tol)
            if res.kkt_residual > tol:
                self.count("jko.over_tol_accepts")

        def jko_error(exc):
            if isinstance(exc, JkoConvergenceError):
                self.count("jko.raised")

        def pme_step_args(args, kwargs, _res):
            self.minimum("pme.dt_min",
                         args[3] if len(args) > 3 else kwargs["dt"])

        def heleshaw_result(_args, _kwargs, res):
            trajectory, volumes = res
            self.count("heleshaw.rk4_steps", len(volumes) - 1)
            self.count("heleshaw.merges", sum(
                len(b.intervals) < len(a.intervals)
                for (_, a), (_, b) in zip(trajectory, trajectory[1:])))

        return {
            "jko.jko_step": (jko_result, jko_error),
            "pme.pme_step": (pme_step_args, None),
            "heleshaw.heleshaw_run": (heleshaw_result, None),
        }

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of the current iteration, by metric name."""
        out = {}
        for *_, name in FUNCTIONS + CLASS_MEMBERS + ((ROOT_SPAN,),):
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        c = self.counters
        steps = out["jko.jko_step.calls"]
        accepted = c.get("jko.accepted", 0)
        for key in ("jko.newton_iters", "jko.newton_iters_max",
                    "jko.active_max", "jko.raised", "jko.over_tol_accepts",
                    "heleshaw.rk4_steps", "heleshaw.merges"):
            out[key] = c.get(key, 0)
        out["jko.kkt_over_tol_max"] = c.get("jko.kkt_over_tol_max", 0.0)
        out["jko.iters_per_step"] = (c.get("jko.newton_iters", 0) / accepted
                                     if accepted else 0.0)
        out["energy.free_energy.per_step"] = (
            out["energy.free_energy.calls"] / steps if steps else 0.0)
        out["pme.dt_min"] = c.get("pme.dt_min", 0.0)
        return out

    def write_spans(self, path, meta):
        """Write the spans of the current iteration as a ``.npz`` archive.

        Arrays ``name`` (index into ``names``), ``parent`` (span index,
        -1 for a root), ``start`` and ``end`` (``perf_counter`` seconds),
        plus ``meta``, a JSON string describing the run.
        """
        import numpy as np
        np.savez(path,
                 name=np.frombuffer(self.span_name, dtype=np.intc),
                 parent=np.frombuffer(self.span_parent, dtype=np.intc),
                 start=np.frombuffer(self.span_start, dtype=float),
                 end=np.frombuffer(self.span_end, dtype=float),
                 names=np.array(self.names),
                 meta=np.array(json.dumps(meta)))
