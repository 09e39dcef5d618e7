"""DER unit model: droop input law, capability projection, filter dynamics.

Each DER unit tracks its input command through first-order
inner-loop dynamics,

    tau_p * dp/dt = u_p - p,      tau_q * dq/dt = u_q - q,

integrated with forward Euler.  Commands come from a generalized 2x2
droop matrix acting on local voltage and network frequency deviations.
After every integration step the operating point is projected onto the
unit's capability set, so hardware limits hold regardless of what the
droop law asks for.

Capability kinds:

* ``pv-inverter`` - apparent-power disk of radius s_max, minimum power
  factor cone |q| <= p*tan(acos(pf_min)), and 0 <= p <= p_avail.
* ``flexible-load`` - active power on [p_min, p_max] with reactive power
  slaved to a fixed power factor (q = p * tan(acos(pf_fixed)), so the
  sign of q follows the sign of p).

Generation is positive, consumption negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "DroopGains",
    "CapabilitySet",
    "DerUnit",
    "CapabilityError",
    "droop_input",
    "project_capability",
    "step_der",
    "tso_requirement",
    "load_der_units",
]

PV = "pv-inverter"
LOAD = "flexible-load"


class CapabilityError(ValueError):
    """Raised for inconsistent capability data (empty feasible set)."""


@dataclass
class DroopGains:
    k_pv: float = 0.0
    k_pf: float = 0.0
    k_qv: float = 0.0
    k_qf: float = 0.0

    def __post_init__(self):
        for v in (self.k_pv, self.k_pf, self.k_qv, self.k_qf):
            if not math.isfinite(v):
                raise ValueError("droop gains must be finite")


@dataclass
class CapabilitySet:
    kind: str
    s_max: float = 1.0
    pf_min: float = 0.9
    p_min: float = 0.0
    p_max: float = 0.0
    pf_fixed: float = 1.0
    p_avail: float = 0.0

    def __post_init__(self):
        if self.kind not in (PV, LOAD):
            raise CapabilityError(f"unknown capability kind {self.kind!r}")
        if self.kind == PV:
            if not 0.0 < self.s_max < math.inf:
                raise CapabilityError("s_max must be finite and positive")
            if not 0.0 < self.pf_min <= 1.0:
                raise CapabilityError("pf_min must lie in (0, 1]")
            if not self.p_avail >= 0.0:
                raise CapabilityError("empty feasible set: p_avail must be >= 0")
        else:
            if not self.p_min <= self.p_max:
                raise CapabilityError("empty feasible set: p_min must be <= p_max")
            if not 0.0 < self.pf_fixed <= 1.0:
                raise CapabilityError("pf_fixed must lie in (0, 1]")

    def contains(self, p: float, q: float, tol: float = 1e-9) -> bool:
        if self.kind == PV:
            t = math.tan(math.acos(self.pf_min))
            return (
                p * p + q * q <= self.s_max**2 + tol
                and abs(q) <= p * t + tol
                and -tol <= p <= self.p_avail + tol
            )
        t = math.tan(math.acos(self.pf_fixed))
        return self.p_min - tol <= p <= self.p_max + tol and abs(q - p * t) <= tol


@dataclass
class DerUnit:
    node: int
    cap: CapabilitySet
    tau_p: float = 0.2
    tau_q: float = 0.2
    p_c: float = 0.0
    q_c: float = 0.0
    p_star: float = 0.0
    q_star: float = 0.0
    gains: DroopGains = field(default_factory=DroopGains)
    online: bool = True

    def __post_init__(self):
        if not self.node >= 1:
            raise ValueError(f"node must be >= 1 (bus 0 is the substation), got {self.node!r}")
        if not 0.0 < self.tau_p < math.inf:
            raise ValueError("tau_p must be finite and positive")
        if not 0.0 < self.tau_q < math.inf:
            raise ValueError("tau_q must be finite and positive")


def droop_input(
    unit: DerUnit,
    v_local: float,
    v_star: float,
    omega: float,
    omega_star: float,
) -> tuple[float, float]:
    """Generalized droop law: setpoint plus gain matrix times deviations."""
    dv = v_local - v_star
    dw = omega - omega_star
    g = unit.gains
    u_p = unit.p_star + g.k_pv * dv + g.k_pf * dw
    u_q = unit.q_star + g.k_qv * dv + g.k_qf * dw
    return u_p, u_q


def tso_requirement(k_agg: float, omega: float, omega_star: float) -> float:
    """Required PCC active-power adjustment for the measured frequency."""
    return k_agg * (omega - omega_star)


def _seg_project(p: float, q: float, a, b) -> tuple[float, float]:
    """Euclidean projection of (p, q) onto the segment a-b."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return ax, ay
    t = ((p - ax) * dx + (q - ay) * dy) / denom
    t = min(1.0, max(0.0, t))
    return ax + t * dx, ay + t * dy


def _pv_project(cap: CapabilitySet, p: float, q: float) -> tuple[float, float]:
    # p_avail may be overwritten after construction, so it is checked here too
    if not cap.p_avail >= 0.0:
        raise CapabilityError("empty feasible set: p_avail must be >= 0")
    if cap.contains(p, q, 1e-12):
        return p, q
    s = cap.s_max
    theta = math.acos(cap.pf_min)
    t = math.tan(theta)
    p_cap = min(cap.p_avail, s)
    if p_cap == 0.0:
        return 0.0, 0.0

    # boundary of the feasible region as cone segments, circle arcs and
    # (when p_avail binds inside the disk) a vertical chord
    candidates = []
    p_knee = min(p_cap, s * cap.pf_min)
    for sign in (1.0, -1.0):
        candidates.append(_seg_project(p, q, (0.0, 0.0), (p_knee, sign * t * p_knee)))
    if p_cap > s * cap.pf_min:
        # arc between the cone and either the chord at p_cap or the p-axis point
        ang_hi = theta
        ang_lo = math.acos(p_cap / s)
        ang = math.atan2(abs(q), max(p, 1e-300))
        ang_cl = min(ang_hi, max(ang_lo, ang))
        qq = s * math.sin(ang_cl)
        candidates.append((s * math.cos(ang_cl), math.copysign(qq, q)))
    if p_cap < s:
        q_cap = min(t * p_cap, math.sqrt(max(s * s - p_cap * p_cap, 0.0)))
        candidates.append(_seg_project(p, q, (p_cap, -q_cap), (p_cap, q_cap)))

    best = min(candidates, key=lambda c: (c[0] - p) * (c[0] - p) + (c[1] - q) * (c[1] - q))
    return best


def _load_project(cap: CapabilitySet, p: float, q: float) -> tuple[float, float]:
    # p_min and p_max may be overwritten after construction, so they are checked here too
    if not cap.p_min <= cap.p_max:
        raise CapabilityError("empty feasible set: p_min must be <= p_max")
    t = math.tan(math.acos(cap.pf_fixed))
    # nearest point on the line q = t*p, then clamp the active power range
    w = (p + t * q) / (1.0 + t * t)
    w = min(cap.p_max, max(cap.p_min, w))
    return w, t * w


def project_capability(cap: CapabilitySet, p: float, q: float) -> tuple[float, float]:
    """Euclidean projection of an operating point onto the capability set.

    Raises ValueError when ``p`` or ``q`` is not finite.
    """
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    if cap.kind == PV:
        return _pv_project(cap, p, q)
    return _load_project(cap, p, q)


def step_der(unit: DerUnit, u_p: float, u_q: float, dt: float) -> DerUnit:
    """Advance a unit by one forward-Euler step of its filter dynamics.

    The new outputs are projected onto the unit's capability set.
    Requires 0 < dt < min(tau_p, tau_q) so the explicit update stays in
    the monotone regime.

    Returns a new unit built by the ``DerUnit`` constructor, so its
    validation runs on the result; every field but ``p_c`` and ``q_c`` is
    the input's.  The input unit is not mutated.
    """
    tau_p = unit.tau_p
    tau_q = unit.tau_q
    if not 0.0 < dt < min(tau_p, tau_q):
        raise ValueError("dt must satisfy 0 < dt < min(tau_p, tau_q)")
    p_c = unit.p_c
    q_c = unit.q_c
    p = p_c + dt / tau_p * (u_p - p_c)
    q = q_c + dt / tau_q * (u_q - q_c)
    p, q = project_capability(unit.cap, p, q)
    # positional, in field order: keywords or dataclasses.replace cost several times more per call
    return DerUnit(
        unit.node, unit.cap, tau_p, tau_q, p, q, unit.p_star, unit.q_star, unit.gains, unit.online
    )


def load_der_units(path) -> list[DerUnit]:
    """Parse a DER placement table ``node,kind,s_rating_pu,tau_p_s,tau_q_s,pf_min``.

    ``pv-inverter`` rows map s_rating to the apparent-power limit and
    pf_min to the power-factor cone; ``flexible-load`` rows map
    s_rating to the consumption range [-s_rating, 0] and pf_min to the
    fixed power factor.
    """
    units = []
    with open(path) as fh:
        header = fh.readline()
        if not header or header.strip().split(",")[0].lower() != "node":
            raise ValueError(f"{path}: missing 'node,kind,...' header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            try:
                node = int(parts[0])
                kind = parts[1].strip()
                s_rating = float(parts[2])
                tau_p = float(parts[3])
                tau_q = float(parts[4])
                pf = float(parts[5])
                if kind == PV:
                    cap = CapabilitySet(kind=PV, s_max=s_rating, pf_min=pf, p_avail=0.0)
                elif kind == LOAD:
                    cap = CapabilitySet(kind=LOAD, p_min=-s_rating, p_max=0.0, pf_fixed=pf)
                else:
                    raise ValueError(f"unknown kind {kind!r}")
                units.append(DerUnit(node=node, cap=cap, tau_p=tau_p, tau_q=tau_q))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return units
