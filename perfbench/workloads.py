"""The benchmark's four workloads, each a closed loop over ``ClosedLoop``.

A workload's set-up builds the feeder, its sweep plan, the seeded
profiles and (track-37) the frozen model.  A pass is a fixed sequence
of steps, about one wall second long, that ``reset`` replays
bit-identically; a step is one scheduling period (period-37, track-37)
or one simulated second (day-6bus, replay-5000).  ``step`` returns the wall time of the
scheduling period it ran, when that is only part of the step.

``tiny`` shrinks every workload to a few steps on small feeders, for
the benchmark's own tests.
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter

import numpy as np

from droopsched import droop, network, scenarios, scheduler

from .closedloop import ClosedLoop, leaves, make_profiles, pv_units, tso_gain

TAU_S = scheduler.SchedulerConfig().tau_s
FREQ_AMP = 0.001  # square-wave frequency excursion, pu
HALF_PERIOD_S = 300.0


class Workload:
    name = ""
    unit = "period"  # what one step is
    period_is_step = True  # else step() returns the wall time of the period it ran
    memory_bound = False  # which SpeedReference kernel the steps resemble
    sim_s_per_step = TAU_S
    pass_steps = 0

    def __init__(self, seed: int, tiny: bool = False):
        t0 = perf_counter()
        self.plan_s = 0.0
        self.plan_alloc_mb = 0.0  # measured only while tracemalloc is tracing
        self.loop = self.build(np.random.default_rng(seed), seed, tiny)
        self.setup_s = perf_counter() - t0

    def _feeder(self, make) -> network.NetworkModel:
        """Build a feeder and its lazy sweep plan, timing the plan."""
        model = make()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t0 = perf_counter()
        model.plan()
        self.plan_s = perf_counter() - t0
        self.plan_alloc_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        return model

    def build(self, rng, seed, tiny) -> ClosedLoop:
        raise NotImplementedError

    def reset(self) -> None:
        self.loop.reset()

    def step(self, k: int) -> float | None:
        raise NotImplementedError


class Period37(Workload):
    """Back-to-back full periods on the 37-bus-shaped feeder, 8 PV at leaves."""

    name = "period-37"

    def build(self, rng, seed, tiny):
        model = self._feeder(scenarios.ieee37_shaped_feeder)
        self.pass_steps = 3 if tiny else 15
        nodes = np.sort(rng.choice(leaves(model), size=8, replace=False))
        prof = make_profiles(
            rng, model.n, len(nodes), int(self.pass_steps * TAU_S) + 1,
            load_base=0.02, pv_peak=0.3, freq_amp=FREQ_AMP, half_period_s=HALF_PERIOD_S,
        )
        return ClosedLoop(model, pv_units(nodes, s_max=0.35), prof, seed)

    def reset(self):
        super().reset()
        self._anchor(0)

    def _anchor(self, t):
        self.loop.apply_profiles(t)
        self.loop.at_setpoints()
        return self.loop.solve(t)

    def step(self, k):
        t = int(k * TAU_S)
        self.loop.period(t, *self._anchor(t))
        return None


class Day6Bus(Workload):
    """Closed-loop midday window at 1 s on the bundled 6-bus feeder."""

    name = "day-6bus"
    unit = "sim-second"
    period_is_step = False
    sim_s_per_step = 1.0

    def build(self, rng, seed, tiny):
        model = self._feeder(scenarios.six_bus_feeder)
        duration = 61 if tiny else 1201
        self.pass_steps = duration - 1
        units = scenarios.six_bus_pv_units()
        prof = make_profiles(
            rng, model.n, len(units), duration,
            load_base=0.03, pv_peak=0.4, freq_amp=FREQ_AMP, half_period_s=HALF_PERIOD_S,
        )
        off = int(rng.integers(duration // 4, duration // 3))
        outage = (int(rng.integers(len(units))), off, off + int(rng.integers(duration // 5, duration // 4)))
        return ClosedLoop(model, units, prof, seed, outage=outage)

    def reset(self):
        super().reset()
        self.loop.apply_profiles(0)
        self.loop.solve(0)

    def step(self, k):
        t = k + 1
        return self.loop.second(t, schedule=t % TAU_S == 0)


class Replay5000(Workload):
    """1-s plant replay on a 5000-bus random feeder, 100 PV on frequency droop."""

    name = "replay-5000"
    unit = "sim-second"
    sim_s_per_step = 1.0
    memory_bound = True  # dense mat-vecs over the 400 MB sweep plan

    def build(self, rng, seed, tiny):
        n, m = (60, 5) if tiny else (5000, 100)
        # one fixed feeder topology; the workload seed drives placement and profiles
        model = self._feeder(lambda: scenarios.random_radial_feeder(n, np.random.default_rng(5000)))
        self.pass_steps = 3 if tiny else 4
        nodes = np.sort(rng.choice(np.arange(1, n + 1), size=m, replace=False))
        prof = make_profiles(
            rng, n, m, self.pass_steps + 1,
            load_base=0.3 / n, pv_peak=0.4 / m, freq_amp=FREQ_AMP, half_period_s=HALF_PERIOD_S,
        )
        gains = droop.DroopGains(k_pf=-tso_gain(prof) / m)
        return ClosedLoop(model, pv_units(nodes, s_max=0.5 / m, gains=gains), prof, seed)

    def reset(self):
        super().reset()
        self.loop.apply_profiles(0)
        self.loop.solve(0)

    def step(self, k):
        return self.loop.second(k + 1, schedule=False)


class Track37(Workload):
    """Repeated schedule_step on a frozen 37-bus model with a DER on every bus."""

    name = "track-37"

    def build(self, rng, seed, tiny):
        model = self._feeder(scenarios.ieee37_shaped_feeder)
        self.pass_steps = 20 if tiny else 1000
        nodes = np.arange(1, model.n + 1)
        prof = make_profiles(
            rng, model.n, len(nodes), 2,
            load_base=0.01, pv_peak=0.07, freq_amp=FREQ_AMP, half_period_s=HALF_PERIOD_S,
        )
        loop = ClosedLoop(model, pv_units(nodes, s_max=0.08), prof, seed)
        loop.apply_profiles(1)
        loop.at_setpoints()
        p, q = loop.solve(1)
        self.frozen = loop.anchor(1, p, q)
        self.frozen_sol = loop.sol
        return loop

    def reset(self):
        super().reset()
        self.loop.sol = self.frozen_sol

    def step(self, k):
        self.loop.broadcast(*self.frozen)
        return None


WORKLOADS = {w.name: w for w in (Period37, Day6Bus, Replay5000, Track37)}
