"""DER unit model: droop input law, capability projection, filter dynamics.

Each DER unit tracks its input command through first-order
inner-loop dynamics,

    tau_p * dp/dt = u_p - p,      tau_q * dq/dt = u_q - q,

integrated with forward Euler.  Commands come from a generalized 2x2
droop matrix acting on local voltage and network frequency deviations.
After every integration step the operating point is projected onto the
unit's capability set, so hardware limits hold regardless of what the
droop law asks for; a PV point that already lies within 1e-12 of its
set is kept as it is.

A capability set is frozen: its constructor checks the limits and computes
the slope tan(acos(pf)) once, and nothing re-checks or re-derives them.  A
new ``p_avail`` makes a new set (``dataclasses.replace``).

Capability kinds:

* ``pv-inverter`` - apparent-power disk of radius s_max, minimum power
  factor cone |q| <= p*tan(acos(pf_min)), and 0 <= p <= p_avail; a
  p_avail of +inf leaves the disk as the only upper limit.
* ``flexible-load`` - active power on [p_min, p_max], both finite, with
  reactive power slaved to a fixed power factor (q = p *
  tan(acos(pf_fixed)), so the sign of q follows the sign of p).

Both sets are projected without angles.  A load's set lies on the line
q = t p, so a request is projected onto that line and its p clamped to
[p_min, p_max]; no term scales with the width of the range.  A PV set is
symmetric in q, so (p, |q|) is projected onto its upper half and the
result takes the sign of q; the projection is the nearest of three
candidates: the point on the cone edge, the radial point s z/|z| when it
lies on the arc, and the point on the half chord at min(p_avail, s_max).

Generation is positive, consumption negative.  The DER table reader,
``load_der_units``, lives in ``scenarios``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .network import _is_bus_id

__all__ = [
    "DroopGains",
    "CapabilitySet",
    "DerUnit",
    "CapabilityError",
    "droop_input",
    "project_capability",
    "step_der",
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


@dataclass(frozen=True, slots=True)
class CapabilitySet:
    kind: str
    s_max: float = 1.0
    pf_min: float = 0.9
    p_min: float = 0.0
    p_max: float = 0.0
    pf_fixed: float = 1.0
    p_avail: float = 0.0
    # tan(acos(pf)) of the PV cone or of the load's fixed power factor
    _tan: float = field(init=False, repr=False, compare=False)

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
            # an infinite limit would make the segment projection return NaN;
            # a NaN one fails the range test below, as an empty set
            for name, limit in (("p_min", self.p_min), ("p_max", self.p_max)):
                if math.isinf(limit):
                    raise CapabilityError(f"{name} must be finite")
            if not self.p_min <= self.p_max:
                raise CapabilityError("empty feasible set: p_min must be <= p_max")
            if not 0.0 < self.pf_fixed <= 1.0:
                raise CapabilityError("pf_fixed must lie in (0, 1]")
        pf = self.pf_min if self.kind == PV else self.pf_fixed
        object.__setattr__(self, "_tan", math.tan(math.acos(pf)))

    def contains(self, p: float, q: float, tol: float = 1e-9) -> bool:
        if self.kind == PV:
            return _pv_inside(self, p, q, tol)
        return self.p_min - tol <= p <= self.p_max + tol and abs(q - p * self._tan) <= tol


@dataclass(slots=True)
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
        node = self.node
        # a plain int skips the predicate: step_der builds 1000 units per simulated second of the 5000-bus replay
        if type(node) is not int and not _is_bus_id(node):
            raise ValueError(f"node must be an integer bus, got {node!r}")
        if node < 1:
            raise ValueError(f"node must be >= 1 (bus 0 is the substation), got {node!r}")
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


def _pv_inside(cap: CapabilitySet, p: float, q: float, tol: float) -> bool:
    """Whether (p, q) lies within ``tol`` of a PV set: disk, cone, p range."""
    return (
        p * p + q * q <= cap.s_max**2 + tol
        and abs(q) <= p * cap._tan + tol
        and -tol <= p <= cap.p_avail + tol
    )


def _pv_project(cap: CapabilitySet, p: float, q: float) -> tuple[float, float]:
    # only called for a point outside the set, so (p, q) is not the origin;
    # the set is symmetric in q: project (p, |q|) onto its upper half, whose
    # boundary is the cone edge, the arc and the half chord at p_cap
    s = cap.s_max
    t = cap._tan
    p_cap = min(cap.p_avail, s)
    p_knee = min(p_cap, s * cap.pf_min)
    q_abs = abs(q)
    candidates = [_seg_project(p, q_abs, (0.0, 0.0), (p_knee, t * p_knee))]
    # the radial point, if it lies on the arc; if not, the nearest arc point is
    # an arc end, which the cone edge or the chord already holds.  z must lie in
    # the cone too: p / r rounds to 1 once p passes about 1e7 |q|, so the arc
    # test alone admits a radial point off a pf_min = 1 cone by more than 1e-9
    r = math.hypot(p, q_abs)
    if q_abs <= t * p and s * cap.pf_min <= s * (p / r) <= p_cap:
        candidates.append((s * (p / r), s * (q_abs / r)))
    if p_cap < s:
        q_cap = min(t * p_cap, math.sqrt(s * s - p_cap * p_cap))
        candidates.append(_seg_project(p, q_abs, (p_cap, 0.0), (p_cap, q_cap)))
    # |c - z|^2 less the common |z|^2, halved: far from the set, the full squared
    # distances round to one tie, and 2 z could overflow
    bp, bq = min(candidates, key=lambda c: c[0] * (0.5 * c[0] - p) + c[1] * (0.5 * c[1] - q_abs))
    return bp, math.copysign(bq, q)


def project_capability(cap: CapabilitySet, p: float, q: float) -> tuple[float, float]:
    """Euclidean projection of an operating point onto the capability set.

    A PV point that lies within 1e-12 of the set (``contains`` with
    ``tol=1e-12``) is returned as given, the same floats; only a point
    outside that band is projected.  A flexible-load point is always
    projected onto its segment.

    Raises ValueError when ``p`` or ``q`` is not finite; the set, frozen
    and checked at construction, is never empty.
    """
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    if cap.kind == PV:
        if _pv_inside(cap, p, q, 1e-12):
            return p, q
        return _pv_project(cap, p, q)
    t = cap._tan
    p = min(cap.p_max, max(cap.p_min, (p + t * q) / (1.0 + t * t)))
    return p, t * p


def step_der(unit: DerUnit, u_p: float, u_q: float, dt: float) -> DerUnit:
    """Advance a unit by one forward-Euler step of its filter dynamics.

    The new outputs are projected onto the unit's capability set.
    Requires 0 < dt < min(tau_p, tau_q), which keeps the update monotone
    for one unit whose voltage is held.  It does not make the coupled
    loop stable, where every unit's step moves the voltage the others
    see: on the 37-bus feeder with 8 leaf units and k_pv = k_qv = -20,
    the Euler map at dt = 0.1 s has spectral radius 1.26.

    Returns a new unit built by the ``DerUnit`` constructor, so its
    validation runs on the result; every field but ``p_c`` and ``q_c`` is
    the input's.  The input unit is not mutated.
    """
    tau_p = unit.tau_p
    tau_q = unit.tau_q
    if not (0.0 < dt < tau_p and dt < tau_q):
        raise ValueError("dt must satisfy 0 < dt < min(tau_p, tau_q)")
    p_c = unit.p_c
    q_c = unit.q_c
    p = p_c + dt / tau_p * (u_p - p_c)
    q = q_c + dt / tau_q * (u_q - q_c)
    # through the module global, so a wrapper installed there sees the call
    p, q = project_capability(unit.cap, p, q)
    # positional, in field order: keywords or dataclasses.replace cost several times more per call
    return DerUnit(
        unit.node, unit.cap, tau_p, tau_q, p, q, unit.p_star, unit.q_star, unit.gains, unit.online
    )

