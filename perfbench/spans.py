"""In-memory span tracing of droopsched's public functions.

``patched`` swaps module attributes for wrappers and restores them on
exit.  Each public function is wrapped both where the closed loop calls it
and in the package modules that import it by name, so calls nested
inside the package (the power flows of the finite-difference H, the
per-unit ``project_gains`` of a primal-dual step, the capability
projection inside ``step_der``) become child spans of their caller.

A span holds a name, start, end, parent span and the step id (period
or simulated second) it ran in.  Self time is the span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np

from droopsched import droop, linmodel, network, scheduler, stability

# (module, attribute) pairs; the span is named after the function's home module
TRACED = (
    (network, "solve_power_flow"),
    (linmodel, "solve_power_flow"),
    (linmodel, "build_rx"),
    (linmodel, "build_pcc_sensitivity"),
    (linmodel, "build_sensitivity_model"),
    (stability, "compute_gamma"),
    (stability, "project_gains"),
    (scheduler, "project_gains"),
    (scheduler, "schedule_step"),
    (scheduler, "primal_dual_step"),
    (scheduler, "draw_samples"),
    (scheduler, "freq_error"),
    (droop, "droop_input"),
    (droop, "step_der"),
    (droop, "project_capability"),
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` for each target."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in targets]
    try:
        for mod, attr, fn in saved:
            setattr(mod, attr, make_wrapper(fn))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _pf_iterations(args, kwargs, out):
    return out.iterations


def _gains_clipped(args, kwargs, out):
    g = kwargs.get("gains", args[0] if args else None)
    return (g.k_pv, g.k_pf, g.k_qv, g.k_qf) != (out.k_pv, out.k_pf, out.k_qv, out.k_qf)


def _point_clipped(args, kwargs, out):
    return (args[1], args[2]) != tuple(out)


# per-call observations kept beside the spans, keyed by span name
OBSERVERS = {
    "network.solve_power_flow": _pf_iterations,
    "stability.project_gains": _gains_clipped,
    "droop.project_capability": _point_clipped,
}


class Tracer:
    """Records spans while ``active``; inactive wrappers only pass through."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.step = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.observed: dict[str, array] = {k: array("d") for k in OBSERVERS}
        self.failures: dict[str, int] = {}
        self.active = False
        self.current_step = 0
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn):
        name = span_name(fn)
        nid = self._id(name)
        observe = OBSERVERS.get(name)
        sink = self.observed.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(self.t0)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.step.append(self.current_step)
            self.t0.append(0.0)
            self.t1.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failures[name] = self.failures.get(name, 0) + 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.t0[i] = t0
                self.t1[i] = t1
            if observe is not None:
                sink.append(float(observe(args, kwargs, out)))
            return out

        return traced

    def install(self):
        """Context manager wrapping every function in ``TRACED``."""
        return patched(TRACED, self.wrap)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "step": np.frombuffer(self.step, dtype=np.int64).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Durations, self times and per-name statistics of a span set."""

    def __init__(self, names: list[str], a: dict[str, np.ndarray]):
        self.names = names
        self.name = a["name"]
        self.parent = a["parent"]
        self.dur = a["t1"] - a["t0"]
        has_parent = self.parent >= 0
        children = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - children
        self.top_level_total = float(self.dur[~has_parent].sum())

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def median(self, name: str) -> float:
        d = self.dur[self._mask(name)]
        return float(np.median(d)) if len(d) else 0.0

    def children_per_call(self, name: str, child: str) -> float:
        """Mean number of direct ``child`` spans under each ``name`` span."""
        parents = np.flatnonzero(self._mask(name))
        if not len(parents):
            return 0.0
        kids = self.parent[self._mask(child)]
        return float(np.isin(kids, parents).sum() / len(parents))
