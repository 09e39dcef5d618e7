"""Bundled desk-scale feeders and synthetic profile generators.

The package ships a small 6-bus radial feeder with three PV units at the
feeder extremities, a parameterized random-feeder generator for property
sweeps, and synthetic clear-sky irradiance / load / frequency profiles
at 1-second resolution.  These stand in for proprietary measurement
datasets while keeping the same resolution and shape.
"""

from __future__ import annotations

import numpy as np

from .droop import PV, CapabilitySet, DerUnit
from .network import Branch, Bus, NetworkModel

__all__ = [
    "six_bus_feeder",
    "six_bus_pv_units",
    "random_radial_feeder",
    "ieee37_shaped_feeder",
    "clear_sky_availability",
    "daily_load_shape",
    "square_wave_frequency",
]


def six_bus_feeder() -> NetworkModel:
    """Bundled 6-bus feeder: trunk 0-1-2-3-4 with laterals 2-5 and 3-6."""
    branches = [
        Branch(0, 1, 0.020, 0.024),
        Branch(1, 2, 0.028, 0.030),
        Branch(2, 3, 0.032, 0.030),
        Branch(3, 4, 0.030, 0.026),
        Branch(2, 5, 0.026, 0.022),
        Branch(3, 6, 0.024, 0.022),
    ]
    return NetworkModel(buses=[Bus(i) for i in range(7)], branches=branches)


def six_bus_pv_units() -> list[DerUnit]:
    """Three PV inverters at the feeder ends of the bundled 6-bus feeder: 0.4 pu, pf 0.8, tau 0.2 s."""
    return [
        DerUnit(node=node, cap=CapabilitySet(kind=PV, s_max=0.40, pf_min=0.80), tau_p=0.2, tau_q=0.2)
        for node in (4, 5, 6)
    ]


def random_radial_feeder(n_bus: int, rng: np.random.Generator) -> NetworkModel:
    """Random tree: bus j attaches to a uniformly chosen earlier bus, r and x uniform on [0.005, 0.05]."""
    branches = []
    for j in range(1, n_bus + 1):
        parent = int(rng.integers(0, j))
        branches.append(Branch(parent, j, float(rng.uniform(0.005, 0.05)), float(rng.uniform(0.005, 0.05))))
    return NetworkModel(buses=[Bus(i) for i in range(n_bus + 1)], branches=branches)


def ieee37_shaped_feeder() -> NetworkModel:
    """36-branch feeder with depth/branching statistics like the 37-bus system."""
    rng = np.random.default_rng(37)
    branches = []
    parent_pool = [0]
    next_id = 1
    while next_id <= 36:
        parent = parent_pool[int(rng.integers(0, len(parent_pool)))]
        branches.append(
            Branch(parent, next_id, float(rng.uniform(0.004, 0.02)), float(rng.uniform(0.004, 0.02)))
        )
        # bias toward extending recent nodes so long laterals appear
        parent_pool.append(next_id)
        if len(parent_pool) > 6:
            parent_pool.pop(0)
        next_id += 1
    return NetworkModel(buses=[Bus(i) for i in range(37)], branches=branches)


def clear_sky_availability(duration_s: float, peak: float, t_mid: float, half_width: float) -> np.ndarray:
    """Parabolic irradiance arc at 1-second resolution, clipped at zero."""
    t = np.arange(0.0, duration_s + 1.0)
    arc = peak * (1.0 - ((t - t_mid) / half_width) ** 2)
    return np.maximum(arc, 0.0)


def daily_load_shape(duration_s: float, base: float, swing: float = 0.0, period_s: float = 86400.0) -> np.ndarray:
    """Smooth consumption magnitude (positive numbers) at 1-second resolution."""
    t = np.arange(0.0, duration_s + 1.0)
    return base + swing * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / period_s))


def square_wave_frequency(duration_s: float, amplitude: float = 0.001, half_period_s: float = 600.0, omega_star: float = 1.0) -> np.ndarray:
    """Frequency replay alternating +/- amplitude with 2-second linear transitions."""
    t = np.arange(0.0, duration_s + 1.0)
    phase = (t % (2.0 * half_period_s)) / half_period_s
    sign = np.where(phase < 1.0, 1.0, -1.0)
    # ramp the edges over 2 s to avoid replay steps
    edge = np.minimum(np.minimum(phase, np.abs(phase - 1.0)), np.abs(phase - 2.0))
    ramp = np.clip(edge * half_period_s / 2.0, 0.0, 1.0)
    return omega_star + amplitude * sign * ramp
