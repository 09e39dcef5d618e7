"""Measure one workload: repeated set-up, an untraced closed loop and,
when asked, a traced closed loop with its per-layer breakdown.

Timed regions cover the steps only.  Output checks, pass resets and
quality bookkeeping run between steps, outside every timed region and
with tracing paused.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import resource
import statistics
import tracemalloc
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from droopsched import linmodel, network, scheduler

from . import spans
from .checks import Checker
from .reference import SpeedReference
from .workloads import WORKLOADS

# name -> unit; every workload reports every one of these, untraced
END_TO_END = {
    "setup_s": "s",
    "period_ms.p50": "ms",
    "sim_speed": "sim-s/s",
    "peak_rss_mb": "MB",
}

# layers whose self time is reported per step; together with the
# closed loop's own self time (driver.self_ms) they add up to the traced wall time
SELF_TIMED = list(dict.fromkeys(spans.span_name(getattr(mod, attr)) for mod, attr in spans.TRACED))

PF = "network.solve_power_flow"
PCC = "linmodel.build_pcc_sensitivity"
GAINS = "stability.project_gains"
STEP_DER = "droop.step_der"

PER_LAYER = {
    "network.plan.ms": "ms",
    "network.plan.alloc_mb": "MB",
    f"{PF}.calls": "calls/step",
    f"{PF}.ms_p50": "ms",
    f"{PF}.iters_mean": "count",
    f"{PF}.fail": "count",
    f"{PCC}.calls": "calls/step",
    f"{PCC}.pf_calls_per_call": "count",
    "linmodel.build_rx.ms": "ms",
    "stability.compute_gamma.ms": "ms",
    f"{GAINS}.calls": "calls/step",
    f"{GAINS}.us_p50": "us",
    f"{GAINS}.clipped_frac": "ratio",
    "scheduler.draw_samples.ms": "ms",
    f"{STEP_DER}.calls": "calls/step",
    f"{STEP_DER}.us_p50": "us",
    "droop.droop_input.us_p50": "us",
    "droop.project_capability.clipped_frac": "ratio",
    **{f"{name}.self_ms": "ms/step" for name in SELF_TIMED},
    "driver.self_ms": "ms/step",
    "trace.wall_ms": "ms/step",
    "trace.overhead_frac": "ratio",
    "plant.v_violation_frac": "ratio",
    "scheduler.track_err_rms": "pu",
}


@contextlib.contextmanager
def captured_power_flows(sink: list):
    """Keep (args, kwargs, solution) of every power flow for later checking."""

    def make(fn):
        @functools.wraps(fn)
        def capture(*args, **kwargs):
            sol = fn(*args, **kwargs)
            sink.append((args, kwargs, sol))
            return sol

        return capture

    with spans.patched(((network, "solve_power_flow"), (linmodel, "solve_power_flow")), make):
        yield


@dataclass
class Drive:
    """Timings and outcomes of one closed-loop drive of a workload."""

    # compact arrays, so that peak RSS does not grow with the step count
    steps: array = field(default_factory=lambda: array("d"))
    periods: array = field(default_factory=lambda: array("d"))
    # (first step, first period) of every pass started
    pass_starts: list[tuple[int, int]] = field(default_factory=list)
    # SpeedReference.time() at every pass start and at the end of the drive
    refs: list[float] = field(default_factory=list)
    scheduled: int = 0
    digests: list[str] = field(default_factory=list)
    bus_samples: int = 0
    violations: int = 0
    track_errors: list[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return float(sum(self.steps))

    def corrected(self, ref: SpeedReference) -> tuple[np.ndarray, np.ndarray]:
        """Step and period times, each pass scaled by the reference factor around it."""
        bounds = self.pass_starts + [(len(self.steps), len(self.periods))]
        steps = np.array(self.steps)
        periods = np.array(self.periods)
        for i, ((s0, p0), (s1, p1)) in enumerate(zip(bounds, bounds[1:])):
            f = ref.factor(self.refs[i], self.refs[i + 1])
            steps[s0:s1] *= f
            periods[p0:p1] *= f
        return steps, periods

    def pass_sim_speed(self, steps, pass_steps: int, sim_s_per_step: float) -> list[float]:
        """Simulated seconds per second of ``steps`` time, for each completed pass."""
        bounds = [s for s, _ in self.pass_starts] + [len(steps)]
        return [
            (s1 - s0) * sim_s_per_step / float(np.sum(steps[s0:s1]))
            for s0, s1 in zip(bounds, bounds[1:])
            if s1 - s0 == pass_steps
        ]


def _check_outputs(loop, checker: Checker, pf_sink: list):
    """Check every output of the latest step; return the period it ran, if any."""
    for args, kwargs, sol in pf_sink:
        checker.power_flow(args, kwargs, sol)
    pf_sink.clear()
    for unit in loop.der_points:
        checker.der_point(unit)
    loop.der_points.clear()
    period, loop.last_period = loop.last_period, None
    if period is not None:
        sm, rho, stab, gains = period
        for node, g in gains.items():
            checker.gains(node, g, float(loop.tau_p[node - 1]), float(loop.tau_q[node - 1]), stab)
        loop.record_digest(gains)
    return period


def _record_quality(loop, period, d: Drive) -> None:
    """First-pass tracking error and voltage-band violations."""
    if period is not None:
        sm, rho, _, _ = period
        d.track_errors.append(scheduler.freq_error(sm, loop.state, rho))
    if loop.sol is not None:
        v = loop.sol.v[1:]
        d.violations += int(np.count_nonzero((v < loop.cfg.v_min) | (v > loop.cfg.v_max)))
        d.bus_samples += len(v)


def drive(wl, seconds: float, checker: Checker, pf_sink: list, ref: SpeedReference, tracer=None) -> Drive:
    """Run passes of ``wl`` until ``seconds`` have elapsed; the first pass always completes."""
    d = Drive()
    start = perf_counter()
    while True:
        first_pass = not d.digests
        wl.reset()
        _check_outputs(wl.loop, checker, pf_sink)
        d.refs.append(ref.time())
        d.pass_starts.append((len(d.steps), len(d.periods)))
        for k in range(wl.pass_steps):
            if tracer is not None:
                tracer.current_step = len(d.steps)
                tracer.active = True
            t0 = perf_counter()
            try:
                period_s = wl.step(k)
            except Exception as exc:  # a failing step is counted and the loop goes on
                checker.error(exc)
                period_s = None
            t1 = perf_counter()
            if tracer is not None:
                tracer.active = False
            d.steps.append(t1 - t0)
            if period_s is not None:
                d.periods.append(period_s)
            elif wl.period_is_step:
                d.periods.append(t1 - t0)
            period = _check_outputs(wl.loop, checker, pf_sink)
            d.scheduled += period is not None
            if first_pass:
                _record_quality(wl.loop, period, d)
            elif perf_counter() - start >= seconds:
                d.refs.append(ref.time())
                return d
        d.digests.append(wl.loop.final_digest())
        if perf_counter() - start >= seconds:
            d.refs.append(ref.time())
            return d


SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 200
SETUP_MIN_S = 0.5  # total set-up time to repeat for, except at the tiny test size


def set_up(cls, seed: int, tiny: bool, ref: SpeedReference):
    """Build the workload repeatedly for at least ``SETUP_MIN_S``, within the rep limits.

    Returns the last build, the set-up times scaled by the reference
    factor around them, the raw set-up times and the plan build times.
    """
    min_total_s = 0.0 if tiny else SETUP_MIN_S
    setup_times, plan_times = [], []
    before = ref.time()
    while True:
        wl = None
        gc.collect()  # release the previous build (and its plan) before the next
        wl = cls(seed, tiny)
        setup_times.append(wl.setup_s)
        plan_times.append(wl.plan_s)
        if len(setup_times) >= SETUP_MAX_REPS or (
            len(setup_times) >= SETUP_MIN_REPS and sum(setup_times) >= min_total_s
        ):
            f = ref.factor(before, ref.time())
            return wl, [t * f for t in setup_times], setup_times, plan_times


def plan_alloc_mb(cls, seed: int, tiny: bool) -> float:
    """Peak bytes allocated while building the sweep plan, via tracemalloc."""
    tracemalloc.start()
    try:
        return cls(seed, tiny).plan_alloc_mb
    finally:
        tracemalloc.stop()
        gc.collect()


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb(ref: SpeedReference) -> float:
    """Process peak RSS less the reference kernel's buffer, resident for the whole run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - ref.resident_mb


def untraced_metrics(wl, setup_times, setup_wall, d: Drive, ref: SpeedReference, checker: Checker) -> dict:
    """Every end-to-end metric plus the report-only ones, as name -> (value, unit, samples).

    Gated times are scaled to the reference host speed (see
    ``reference.py``); the raw wall-clock figures are reported beside
    them as ``*.wall``.
    """
    steps, periods = d.corrected(ref)
    wall = d.wall
    # median over passes: a pass hit by interference shorter than the
    # speed correction can see does not move the figure
    speeds = d.pass_sim_speed(steps, wl.pass_steps, wl.sim_s_per_step)
    speeds_wall = d.pass_sim_speed(d.steps, wl.pass_steps, wl.sim_s_per_step)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "period_ms.p50": (_pct(periods, 50) * 1e3, "ms", len(periods)),
        "sim_speed": (statistics.median(speeds), "sim-s/s", len(speeds)),
        "peak_rss_mb": (peak_rss_mb(ref), "MB", 1),
        # reported, not gated
        "period_ms.p90": (_pct(periods, 90) * 1e3, "ms", len(periods)),
        "setup_s.wall": (statistics.median(setup_wall), "s", len(setup_wall)),
        "period_ms.p50.wall": (_pct(d.periods, 50) * 1e3, "ms", len(d.periods)),
        "period_ms.p90.wall": (_pct(d.periods, 90) * 1e3, "ms", len(d.periods)),
        "sim_speed.wall": (statistics.median(speeds_wall), "sim-s/s", len(speeds_wall)),
        "reference_ms": (statistics.median(d.refs) * 1e3, "ms", len(d.refs)),
        "reference_nominal_ms": (ref.nominal_s * 1e3, "ms", 1),
        "steps_per_s": (d.scheduled / wall, "1/s", d.scheduled),
        "failed_frac": (checker.failed_frac, "ratio", checker.attempted),
        "v_violation_frac": (d.violations / max(d.bus_samples, 1), "ratio", d.bus_samples),
        "track_err_rms": (_rms(d.track_errors), "pu", len(d.track_errors)),
    }


def _rms(values) -> float:
    return float(np.sqrt(np.mean(np.square(values)))) if values else 0.0


def traced_metrics(plan_times, alloc_mb, tracer, d: Drive, untraced: Drive, ref: SpeedReference) -> dict:
    """Every per-layer metric, as name -> value, from the traced drive ``d``."""
    s = tracer.summary()
    steps = len(d.steps)
    wall = d.wall
    per_step_ms = 1e3 / steps

    def observed_mean(name):
        vals = tracer.observed[name]
        return float(np.mean(vals)) if len(vals) else 0.0

    m = {
        "network.plan.ms": statistics.median(plan_times) * 1e3,
        "network.plan.alloc_mb": alloc_mb,
        f"{PF}.calls": s.calls(PF) / steps,
        f"{PF}.ms_p50": s.median(PF) * 1e3,
        f"{PF}.iters_mean": observed_mean(PF),
        f"{PF}.fail": tracer.failures.get(PF, 0),
        f"{PCC}.calls": s.calls(PCC) / steps,
        f"{PCC}.pf_calls_per_call": s.children_per_call(PCC, PF),
        "linmodel.build_rx.ms": s.median("linmodel.build_rx") * 1e3,
        "stability.compute_gamma.ms": s.median("stability.compute_gamma") * 1e3,
        f"{GAINS}.calls": s.calls(GAINS) / steps,
        f"{GAINS}.us_p50": s.median(GAINS) * 1e6,
        f"{GAINS}.clipped_frac": observed_mean(GAINS),
        "scheduler.draw_samples.ms": s.median("scheduler.draw_samples") * 1e3,
        f"{STEP_DER}.calls": s.calls(STEP_DER) / steps,
        f"{STEP_DER}.us_p50": s.median(STEP_DER) * 1e6,
        "droop.droop_input.us_p50": s.median("droop.droop_input") * 1e6,
        "droop.project_capability.clipped_frac": observed_mean("droop.project_capability"),
    }
    for name in SELF_TIMED:
        m[f"{name}.self_ms"] = s.self_total(name) * per_step_ms
    m["driver.self_ms"] = (wall - s.top_level_total) * per_step_ms
    m["trace.wall_ms"] = wall * per_step_ms
    # both sides scaled to the reference host speed, so that host drift
    # between the untraced and traced drives does not read as overhead
    traced_steps, _ = d.corrected(ref)
    untraced_steps, _ = untraced.corrected(ref)
    m["trace.overhead_frac"] = float(np.mean(traced_steps) / np.mean(untraced_steps)) - 1.0
    m["plant.v_violation_frac"] = d.violations / max(d.bus_samples, 1)
    m["scheduler.track_err_rms"] = _rms(d.track_errors)
    return m


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> {"value", "unit"}
    detail: dict  # report-only values, sample counts, digests, failures
    tracer: spans.Tracer | None = None


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Result:
    """Set up workload ``name`` repeatedly, drive it for ``seconds`` and check every output.

    Untraced, ``metrics`` holds the end-to-end metrics.  Traced, the
    first third of ``seconds`` runs untraced as the overhead reference
    and ``metrics`` holds the per-layer metrics of the rest.
    """
    cls = WORKLOADS[name]
    checker = Checker()
    pf_sink: list = []
    tracer = None
    ref = SpeedReference(cls.memory_bound)
    with captured_power_flows(pf_sink):
        alloc_mb = plan_alloc_mb(cls, seed, tiny) if trace else 0.0
        pf_sink.clear()
        wl, setup_times, setup_wall, plan_times = set_up(cls, seed, tiny, ref)
        for args, kwargs, sol in pf_sink:
            checker.power_flow(args, kwargs, sol)
        pf_sink.clear()
        if not trace:
            d = untraced = drive(wl, seconds, checker, pf_sink, ref)
        else:
            untraced = drive(wl, seconds / 3.0, checker, pf_sink, ref)
            tracer = spans.Tracer()
            with tracer.install():
                d = drive(wl, 2.0 * seconds / 3.0, checker, pf_sink, ref, tracer)
    digests = untraced.digests + (d.digests if trace else [])
    checker.same("pass digests", digests)
    full = untraced_metrics(wl, setup_times, setup_wall, untraced, ref, checker)
    if trace:
        values = traced_metrics(plan_times, alloc_mb, tracer, d, untraced, ref)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        metrics = {k: {"value": full[k][0], "unit": unit} for k, unit in END_TO_END.items()}
    detail = {
        "workload": name,
        "step": wl.unit,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in full.items()},
        "digest": digests[0] if digests else None,
        "passes": len(digests),
        "failures": checker.messages,
    }
    return Result(checker.failed == 0, checker.attempted, checker.failed, metrics, detail, tracer)
