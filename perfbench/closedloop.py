"""Closed-loop plant simulation composed only of droopsched's public functions.

One simulated second: apply the profiles, build bus injections, solve a
warm-started power flow, run a scheduling period when one is due, then
advance every online DER's filter dynamics under its droop law,
sub-stepped so that dt < tau.  A scheduling period (measurement -> R/X
-> H/P0 -> sensitivity model -> gamma -> ``schedule_step`` -> broadcast)
anchors the model at the deviation coordinates of the DERs: p_ctrl is
each unit's output minus its setpoint, and H/P0 are taken at the
dispatch injections (plant injections minus those deviations), so the
broadcast exchange is scheduled and P0 = 0.

All state lives on the ``ClosedLoop`` object and ``reset`` restores it,
so every pass of a workload replays bit-identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from droopsched import droop, linmodel, network, scenarios, scheduler, stability

V_STAR = 1.0
OMEGA_STAR = 1.0
TAU = 0.2  # DER inner-loop time constant (s), as in the bundled 6-bus units
N_SUB = 10  # DER sub-steps per simulated second: dt = 0.1 s < TAU
RESERVE = 0.9  # PV setpoint as a share of available power: headroom for droop up
LOAD_PF_Q = 0.4  # reactive / active consumption of every load
TRACK_SHARE = 0.02  # TSO droop requirement at full frequency swing, share of PV peak


@dataclass
class Profiles:
    """1-second inputs: row t of each array is simulated second t."""

    load_p: np.ndarray  # (T, n) consumption magnitudes
    load_q: np.ndarray  # (T, n)
    pv: np.ndarray  # (T, m) available PV power per unit
    omega: np.ndarray  # (T,)


def make_profiles(rng, n, m, duration, load_base, pv_peak, freq_amp, half_period_s) -> Profiles:
    """Seeded midday profiles from the ``scenarios`` generators.

    Loads follow one half-cycle of ``daily_load_shape`` over the window,
    scaled per bus; PV follows a clear-sky arc peaking inside the window,
    scaled per unit; frequency is a square wave of seeded amplitude.
    """
    shape = scenarios.daily_load_shape(duration - 1, 1.0, swing=0.3, period_s=2.0 * duration)
    load_p = np.outer(shape, load_base * rng.uniform(0.7, 1.3, n))
    t_mid = duration * rng.uniform(0.3, 0.7)
    arc = scenarios.clear_sky_availability(duration - 1, 1.0, t_mid=t_mid, half_width=3.0 * duration)
    pv = np.outer(arc, pv_peak * rng.uniform(0.9, 1.1, m))
    amp = freq_amp * rng.uniform(0.8, 1.2)
    omega = scenarios.square_wave_frequency(
        duration - 1, amplitude=amp, half_period_s=half_period_s, omega_star=OMEGA_STAR
    )
    return Profiles(load_p, LOAD_PF_Q * load_p, pv, omega)


def tso_gain(prof: Profiles) -> float:
    """Aggregate frequency-droop gain asking TRACK_SHARE of PV peak at full swing."""
    swing = float(np.max(np.abs(prof.omega - OMEGA_STAR)))
    return TRACK_SHARE * float(prof.pv.max(axis=0).sum()) / swing


def pv_units(nodes, s_max, gains=None) -> list[droop.DerUnit]:
    return [
        droop.DerUnit(
            node=int(node),
            cap=droop.CapabilitySet(kind=droop.PV, s_max=s_max, pf_min=0.8),
            tau_p=TAU,
            tau_q=TAU,
            gains=gains or droop.DroopGains(),
        )
        for node in nodes
    ]


def leaves(model: network.NetworkModel) -> list[int]:
    model.plan()  # orients branches away from the substation
    senders = {b.frm for b in model.branches}
    return sorted(b.to for b in model.branches if b.to not in senders)


class ClosedLoop:
    """Plant state, scheduler state and the per-step operations on them."""

    def __init__(self, model, units, prof: Profiles, seed: int, outage=None):
        self.model = model
        self.template = list(units)
        self.prof = prof
        self.seed = seed
        self.cfg = scheduler.SchedulerConfig()
        self.outage = outage  # (unit index, first offline second, first online second)
        n = model.n
        self.tau_p = np.full(n, TAU)
        self.tau_q = np.full(n, TAU)
        for u in units:
            self.tau_p[u.node - 1] = u.tau_p
            self.tau_q[u.node - 1] = u.tau_q
        self.r_t = tso_gain(prof)
        self.reset()

    def reset(self) -> None:
        self.units = list(self.template)
        self.state = scheduler.SchedulerState.initial(
            [u.node for u in self.units], self.model.n, self.cfg, seed=self.seed
        )
        self.sol = None
        self.k_period = 0
        self.last_period = None  # (sm, rho, stab, broadcast) of the latest period
        self.der_points: list[droop.DerUnit] = []
        self.digest = hashlib.sha256()

    def apply_profiles(self, t: int) -> None:
        """Available power, setpoints and online status at second ``t``."""
        for i, u in enumerate(self.units):
            online = True
            if self.outage is not None and self.outage[0] == i:
                online = not (self.outage[1] <= t < self.outage[2])
            if online != u.online:
                u = replace(u, online=online, p_c=0.0, q_c=0.0, gains=droop.DroopGains())
            a = float(self.prof.pv[t, i])
            self.units[i] = replace(u, cap=replace(u.cap, p_avail=a), p_star=RESERVE * a)

    def at_setpoints(self) -> None:
        """Bypass the DER dynamics: every unit outputs its setpoint."""
        self.units = [replace(u, p_c=u.p_star, q_c=u.q_star) for u in self.units]

    def injections(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        p = -self.prof.load_p[t]
        q = -self.prof.load_q[t]
        for u in self.units:
            if u.online:
                p[u.node - 1] += u.p_c
                q[u.node - 1] += u.q_c
        return p, q

    def solve(self, t: int):
        p, q = self.injections(t)
        self.sol = network.solve_power_flow(self.model, p, q, warm=self.sol)
        return p, q

    def period(self, t: int, p: np.ndarray, q: np.ndarray) -> None:
        """Scheduling period anchored at the latest power flow."""
        self.broadcast(*self.anchor(t, p, q))

    def anchor(self, t: int, p: np.ndarray, q: np.ndarray):
        """Measurement -> R/X -> H/P0 -> sensitivity model -> stability gate."""
        n = self.model.n
        dev_p = np.zeros(n)
        dev_q = np.zeros(n)
        for u in self.units:
            if u.online:
                dev_p[u.node - 1] = u.p_c - u.p_star
                dev_q[u.node - 1] = u.q_c - u.q_star
        rho = linmodel.SchedulingPoint(
            v_meas=self.sol.v[1:],
            r_t=self.r_t,
            omega=float(self.prof.omega[t]),
            omega_star=OMEGA_STAR,
            v_star=V_STAR,
            timestamp=float(t),
        )
        p0, q0 = p - dev_p, q - dev_q
        rx = linmodel.build_rx(self.model)
        hp0 = linmodel.build_pcc_sensitivity(self.model, rho, p0, q0)
        sm = linmodel.build_sensitivity_model(self.model, rho, dev_p, dev_q, p0, q0, rx=rx, hp0=hp0)
        stab = stability.StabilityParams(gamma=stability.compute_gamma(sm, self.tau_p, self.tau_q))
        return sm, rho, stab

    def broadcast(self, sm, rho, stab) -> None:
        """``schedule_step`` on a built model, then hand the gains to the units."""
        self.state, gains = scheduler.schedule_step(
            self.state, sm, rho, self.units, self.cfg, stab, [self.seed, self.k_period]
        )
        self.k_period += 1
        self.units = [replace(u, gains=gains[u.node]) if u.node in gains else u for u in self.units]
        self.last_period = (sm, rho, stab, gains)

    def dynamics(self, t: int) -> None:
        """One second of DER filter dynamics at the latest bus voltages."""
        omega = float(self.prof.omega[t])
        v = self.sol.v
        dt = 1.0 / N_SUB
        for i, u in enumerate(self.units):
            if not u.online:
                continue
            v_local = float(v[u.node])
            for _ in range(N_SUB):
                u_p, u_q = droop.droop_input(u, v_local, V_STAR, omega, OMEGA_STAR)
                u = droop.step_der(u, u_p, u_q, dt)
                self.der_points.append(u)
            self.units[i] = u

    def second(self, t: int, schedule: bool) -> float | None:
        """One closed-loop second; returns the period's wall time if one ran."""
        t0 = perf_counter()
        self.apply_profiles(t)
        p, q = self.solve(t)
        period_s = None
        if schedule:
            self.period(t, p, q)
            period_s = perf_counter() - t0
        self.dynamics(t)
        return period_s

    def record_digest(self, gains) -> None:
        """Fold a broadcast into the pass digest."""
        for node in sorted(gains):
            g = gains[node]
            self.digest.update(np.array([node, g.k_pv, g.k_pf, g.k_qv, g.k_qf]).tobytes())

    def final_digest(self) -> str:
        d = self.digest.copy()
        if self.sol is not None:
            d.update(self.sol.v.tobytes())
        d.update(np.array([(u.p_c, u.q_c) for u in self.units]).tobytes())
        return d.hexdigest()

