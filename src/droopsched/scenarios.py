"""Every input of the package: table readers, bundled feeders and synthetic profiles.

Feeders and DER placements are read from CSV tables by ``load_network``
and ``load_der_units``.  Both tables share one format: a header row,
then one comma-separated row per record with a fixed field count; blank
lines and ``#`` comments are skipped, and an error in a row names it as
``path:line:``.

The package also ships a small 6-bus radial feeder with three PV units
at the feeder extremities, a parameterized random-feeder generator for
property sweeps, and synthetic clear-sky irradiance / load / frequency
profiles at 1-second resolution.  These stand in for proprietary
measurement datasets while keeping the same resolution and shape.  The
generators raise ValueError for a negative or non-finite duration, a
width or period that is not positive, or any other argument that is not
finite.
"""

from __future__ import annotations

import numpy as np

from .droop import LOAD, PV, CapabilitySet, DerUnit
from .network import Branch, NetworkDataError, NetworkModel

__all__ = [
    "load_network",
    "load_der_units",
    "six_bus_feeder",
    "six_bus_pv_units",
    "random_radial_feeder",
    "ieee37_shaped_feeder",
    "clear_sky_availability",
    "daily_load_shape",
    "square_wave_frequency",
]


def _read_table(path, first: tuple[str, ...], header: str, n_fields: int, parse, error=ValueError) -> list:
    """``parse(fields)`` of every row of the CSV table at ``path``, in order.

    The file is read as UTF-8, whatever the locale, and a leading
    byte-order mark is dropped.  The first line is the header: its first
    field, in any case, must be one of ``first``, or ``error`` is raised
    saying the ``header`` is missing.  Blank lines and ``#`` comments are
    skipped; every other row must have ``n_fields`` comma-separated
    fields.  A line that is not UTF-8 or a row with another count raises
    ``error``, and a ValueError from ``parse`` raises as ``error`` unless
    it already is one (a subclass keeps its type), each with a
    ``path:line:`` prefix.
    """
    # bytes, split into lines as text mode splits them, each decoded where its
    # row is read: text mode decodes in chunks, so it cannot name the line of
    # a byte that is not UTF-8.  An empty file has one empty line, no header
    with open(path, "rb") as fh:
        lines = fh.read().splitlines() or [b""]
    records = []
    for lineno, line in enumerate(lines, start=1):
        try:
            # utf-8-sig: a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
            line = line.decode("utf-8-sig" if lineno == 1 else "utf-8").strip()
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{lineno}: {exc}") from exc
        if lineno == 1:
            if line.split(",")[0].lower() not in first:
                raise error(f"{path}: missing '{header}' header")
        elif line and not line.startswith("#"):
            fields = line.split(",")
            if len(fields) != n_fields:
                raise error(f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
            try:
                records.append(parse(fields))
            except ValueError as exc:
                raise (type(exc) if isinstance(exc, error) else error)(f"{path}:{lineno}: {exc}") from exc
    return records


def load_network(path) -> NetworkModel:
    """Feeder from a branch table ``from,to,r_pu,x_pu``, one row per branch.

    A header row is required; blank lines and ``#`` comments are skipped.
    The n rows must join buses 0..n, 0 the substation, into a tree; they
    may come in any order, each either way round, and the model stores
    them by receiving bus.  Raises NetworkDataError.
    """
    return NetworkModel(_read_table(path, ("from", "frm"), "from,to,r_pu,x_pu", 4, _branch, NetworkDataError))


def _branch(fields: list[str]) -> Branch:
    frm, to, r, x = fields
    return Branch(int(frm), int(to), float(r), float(x))


def _der_unit(fields: list[str]) -> DerUnit:
    node, kind = int(fields[0]), fields[1].strip()
    s_rating, tau_p, tau_q, pf = map(float, fields[2:])
    if kind == PV:
        cap = CapabilitySet(kind=PV, s_max=s_rating, pf_min=pf, p_avail=0.0)
    elif kind == LOAD:
        cap = CapabilitySet(kind=LOAD, p_min=-s_rating, p_max=0.0, pf_fixed=pf)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return DerUnit(node=node, cap=cap, tau_p=tau_p, tau_q=tau_q)


def load_der_units(path) -> list[DerUnit]:
    """Parse a DER placement table ``node,kind,s_rating_pu,tau_p_s,tau_q_s,pf_min``.

    ``pv-inverter`` rows map s_rating to the apparent-power limit and
    pf_min to the power-factor cone; ``flexible-load`` rows map
    s_rating to the consumption range [-s_rating, 0] and pf_min to the
    fixed power factor.  Raises ValueError, or CapabilityError for an
    inconsistent capability set.
    """
    return _read_table(path, ("node",), "node,kind,...", 6, _der_unit)


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
    return NetworkModel(branches)


def six_bus_pv_units() -> list[DerUnit]:
    """Three PV inverters at the feeder ends of the bundled 6-bus feeder: 0.4 pu, pf 0.8, tau 0.2 s."""
    return [
        DerUnit(node=node, cap=CapabilitySet(kind=PV, s_max=0.40, pf_min=0.80), tau_p=0.2, tau_q=0.2)
        for node in (4, 5, 6)
    ]


def random_radial_feeder(n_bus: int, rng: np.random.Generator) -> NetworkModel:
    """Random tree: bus j attaches to a uniformly chosen earlier bus, r and x uniform on [0.005, 0.05].

    Per bus, in stream order: the parent, then r and x from one
    two-value draw, which yields the same floats as two scalar draws.
    """
    branches = []
    for j in range(1, n_bus + 1):
        parent = int(rng.integers(0, j))
        branches.append(Branch(parent, j, *rng.uniform(0.005, 0.05, 2).tolist()))
    return NetworkModel(branches)


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
    return NetworkModel(branches)


def _check_profile_args(duration_s: float, positive: dict, finite: dict) -> None:
    """Raise ValueError naming the first bad argument of a profile generator."""
    if not 0.0 <= duration_s < np.inf:
        raise ValueError("duration_s must be finite and >= 0")
    for name, value in positive.items():
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive")
    for name, value in finite.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")


def clear_sky_availability(duration_s: float, peak: float, t_mid: float, half_width: float) -> np.ndarray:
    """Parabolic irradiance arc at 1-second resolution, clipped at zero."""
    _check_profile_args(duration_s, {"half_width": half_width}, {"peak": peak, "t_mid": t_mid})
    t = np.arange(0.0, duration_s + 1.0)
    arc = peak * (1.0 - ((t - t_mid) / half_width) ** 2)
    return np.maximum(arc, 0.0)


def daily_load_shape(duration_s: float, base: float, swing: float = 0.0, period_s: float = 86400.0) -> np.ndarray:
    """Smooth consumption magnitude (positive numbers) at 1-second resolution."""
    _check_profile_args(duration_s, {"period_s": period_s}, {"base": base, "swing": swing})
    t = np.arange(0.0, duration_s + 1.0)
    return base + swing * 0.5 * (1.0 - np.cos(2.0 * np.pi * t / period_s))


def square_wave_frequency(duration_s: float, amplitude: float = 0.001, half_period_s: float = 600.0, omega_star: float = 1.0) -> np.ndarray:
    """Frequency replay alternating +/- amplitude with 2-second linear transitions."""
    _check_profile_args(duration_s, {"half_period_s": half_period_s}, {"amplitude": amplitude, "omega_star": omega_star})
    t = np.arange(0.0, duration_s + 1.0)
    phase = (t % (2.0 * half_period_s)) / half_period_s
    sign = np.where(phase < 1.0, 1.0, -1.0)
    # ramp the edges over 2 s to avoid replay steps
    edge = np.minimum(np.minimum(phase, np.abs(phase - 1.0)), np.abs(phase - 2.0))
    ramp = np.clip(edge * half_period_s / 2.0, 0.0, 1.0)
    return omega_star + amplitude * sign * ramp
