"""DER model tests: droop law, capability projection, filter dynamics."""

import copy
import math
import pickle
import re
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from droopsched.droop import (
    LOAD,
    PV,
    CapabilityError,
    CapabilitySet,
    DerUnit,
    DroopGains,
    _pv_inside,
    droop_input,
    project_capability,
    step_der,
)
from droopsched.linmodel import SchedulingPoint, SensitivityModel
from droopsched.scenarios import load_der_units
from droopsched.scheduler import SchedulerConfig
from droopsched.stability import StabilityParams

from .oracles import grid_project


def pv_cap(s_max=1.0, pf_min=0.8, p_avail=1.0):
    return CapabilitySet(kind=PV, s_max=s_max, pf_min=pf_min, p_avail=p_avail)


def pv_unit(**kw):
    defaults = dict(node=1, cap=pv_cap(), tau_p=0.2, tau_q=0.2, p_star=0.2, q_star=0.0)
    defaults.update(kw)
    return DerUnit(**defaults)


def grid_project_pv(cap, point, res=1e-3):
    """Dense grid search over the feasible region (independent oracle)."""
    t = math.tan(math.acos(cap.pf_min))
    p_cap = min(cap.s_max, cap.p_avail)
    best, bd = None, np.inf
    for pv in np.arange(0.0, p_cap + res, res):
        pv = min(pv, p_cap)
        qmax = min(math.sqrt(max(cap.s_max**2 - pv * pv, 0.0)), t * pv)
        qs = np.arange(-qmax, qmax + res, res)
        qs = np.clip(qs, -qmax, qmax)
        if not len(qs):
            qs = np.array([0.0])
        d = (pv - point[0]) ** 2 + (qs - point[1]) ** 2
        k = int(np.argmin(d))
        if d[k] < bd:
            bd, best = d[k], (pv, float(qs[k]))
    return np.array(best)


class TestDroopInput:
    def test_zero_deviation_returns_setpoints(self):
        u = pv_unit(gains=DroopGains(-1.0, -2.0, -3.0, -4.0))
        assert droop_input(u, 1.0, 1.0, 1.0, 1.0) == (0.2, 0.0)

    def test_zero_gains_ignore_deviations(self):
        u = pv_unit()
        assert droop_input(u, 1.3, 1.0, 0.97, 1.0) == (0.2, 0.0)

    def test_single_term_arithmetic(self):
        u = pv_unit(gains=DroopGains(k_pv=-0.5))
        up, uq = droop_input(u, 1.02, 1.0, 1.0, 1.0)
        assert up == pytest.approx(0.19)
        assert uq == 0.0


class TestProjectCapability:
    def test_interior_point_unchanged(self):
        cap = pv_cap()
        assert project_capability(cap, 0.5, 0.1) == (0.5, 0.1)

    @pytest.mark.parametrize("q", [1.0, -1.0, 1.0 - 2.0**-24])
    def test_far_point_at_unit_power_factor_lands_on_the_chord(self, q):
        # p / r rounds to 1 here, which used to admit the radial point
        # (1, q / r), 1.49e-8 off the line q = 0; test_output_is_feasible
        # found it, a step from (0, 1) toward (2^50, 0) with dt = 2^-24 tau
        cap = pv_cap(pf_min=1.0)
        p, q_out = project_capability(cap, 2.0**26, q)
        assert (p, q_out) == (1.0, 0.0) and cap.contains(p, q_out, tol=1e-12)

    def test_pure_reactive_request_lands_on_cone(self):
        # at p = 0 the power-factor cone admits only q = 0, so a pure-q
        # request cannot stay on the q-axis: the Euclidean projection
        # slides up the cone edge (here all the way to the disk corner,
        # confirmed by the grid oracle)
        cap = pv_cap(s_max=1.0, pf_min=0.8, p_avail=10.0)
        p, q = project_capability(cap, 0.0, 2.0)
        assert (p, q) == pytest.approx((0.8, 0.6), abs=1e-12)
        ref = grid_project_pv(cap, (0.0, 2.0))
        assert np.linalg.norm(np.array([p, q]) - ref) < 3e-3
        # shrink the request inside the disk: projection stays on the edge line
        p, q = project_capability(cap, 0.0, 0.2)
        assert q == pytest.approx(p * math.tan(math.acos(0.8)), abs=1e-12)

    def test_disk_cone_corner_case(self):
        # frozen value from a 1e-4-resolution dense grid search
        p, q = project_capability(pv_cap(s_max=1.0, pf_min=0.8, p_avail=10.0), 0.9, 0.9)
        assert (p, q) == pytest.approx((0.8, 0.6), abs=1e-12)

    def test_available_power_clamp(self):
        cap = pv_cap(s_max=1.0, pf_min=0.8, p_avail=0.3)
        p, q = project_capability(cap, 0.9, 0.0)
        assert (p, q) == pytest.approx((0.3, 0.0), abs=1e-12)

    def test_matches_grid_oracle_random(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            cap = pv_cap(
                s_max=float(rng.uniform(0.4, 1.2)),
                pf_min=float(rng.uniform(0.3, 0.99)),
                p_avail=float(rng.uniform(0.05, 1.5)),
            )
            z = rng.uniform(-1.5, 1.5, 2)
            got = np.array(project_capability(cap, z[0], z[1]))
            ref = grid_project_pv(cap, z)
            assert np.linalg.norm(got - ref) < 3e-3

    @pytest.mark.parametrize("scale", [1e3, 1e20, 1e150])
    @pytest.mark.parametrize("s_max, p_avail", [(1.0, 10.0), (2.5, 1.5)])
    @pytest.mark.parametrize("direction", [(1.0, 0.1), (1.0, -0.1), (1.0, 1.0), (0.2, -1.0)])
    def test_far_request_matches_grid_oracle(self, scale, s_max, p_avail, direction):
        # at (1e150, 1e149) the squared distances to every candidate rounded to
        # one tie, and the cone knee (0.8, 0.6) won over the arc point (0.995, 0.0995).
        # z and every point on the ray from its projection c towards z share c, so
        # the grid search is run from the point of that ray 0.1 s_max from c; the
        # knee, found in place of the arc point, fails there by 0.047 s_max
        cap = pv_cap(s_max=s_max, pf_min=0.8, p_avail=p_avail)
        z = scale * s_max * np.array(direction)
        got = np.array(project_capability(cap, *z))
        ray = (z - got) / scale
        near = got + 0.1 * s_max * ray / np.linalg.norm(ray)
        p_cap = min(s_max, p_avail)

        def feasible(p, q):
            return (p * p + q * q <= s_max * s_max) & (np.abs(q) <= 0.75 * p) & (p <= p_cap)

        ref = grid_project(feasible, near, (0.0, -s_max), (p_cap, s_max), 1e-3 * s_max)
        assert np.linalg.norm(got - ref) < 0.03 * s_max

    def test_first_order_optimality_random(self):
        # <z - proj, y - proj> <= 0 for all feasible y characterizes the
        # Euclidean projection onto a convex set
        rng = np.random.default_rng(13)
        for _ in range(50):
            cap = pv_cap(
                s_max=float(rng.uniform(0.4, 1.2)),
                pf_min=float(rng.uniform(0.3, 0.99)),
                p_avail=float(rng.uniform(0.05, 1.5)),
            )
            z = rng.uniform(-1.5, 1.5, 2)
            proj = np.array(project_capability(cap, z[0], z[1]))
            for _ in range(60):
                y = rng.uniform(-1.5, 1.5, 2)
                if cap.contains(y[0], y[1], tol=0.0):
                    assert (z - proj) @ (y - proj) <= 1e-9

    def test_nonexpansive(self):
        rng = np.random.default_rng(14)
        cap = pv_cap(s_max=1.0, pf_min=0.7, p_avail=0.8)
        for _ in range(100):
            a = rng.uniform(-2, 2, 2)
            b = rng.uniform(-2, 2, 2)
            pa = np.array(project_capability(cap, a[0], a[1]))
            pb = np.array(project_capability(cap, b[0], b[1]))
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_flexible_load_segment(self):
        cap = CapabilitySet(kind=LOAD, p_min=-0.5, p_max=0.0, pf_fixed=0.9)
        t = math.tan(math.acos(0.9))
        p, q = project_capability(cap, -0.2, -0.2 * t)
        assert (p, q) == pytest.approx((-0.2, -0.2 * t), abs=1e-12)
        p, q = project_capability(cap, -2.0, 0.0)
        assert p == pytest.approx(-0.5)
        assert q == pytest.approx(-0.5 * t)

    def test_load_nonexpansive(self):
        rng = np.random.default_rng(15)
        cap = CapabilitySet(kind=LOAD, p_min=-0.4, p_max=0.1, pf_fixed=0.95)
        for _ in range(100):
            a = rng.uniform(-1, 1, 2)
            b = rng.uniform(-1, 1, 2)
            pa = np.array(project_capability(cap, a[0], a[1]))
            pb = np.array(project_capability(cap, b[0], b[1]))
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    @pytest.mark.parametrize("k", [0, 8, 12, 16, 154, 300])
    def test_load_nearest_point_does_not_depend_on_the_range_width(self, k):
        # the segment used to be parameterized from its far end p_min, so p - p_min
        # cancelled: off by 1e-8 at k = 8, 1.6e-5 at k = 12, (0, 0) from k = 16
        cap = CapabilitySet(kind=LOAD, p_min=-(10.0**k), p_max=0.0, pf_fixed=0.9)
        cos, sin = 0.9, math.sqrt(1.0 - 0.81)
        along = -0.5 * cos - 0.1 * sin  # the request's coordinate along the line
        p, q = project_capability(cap, -0.5, -0.1)
        assert p == pytest.approx(along * cos, rel=1e-15)
        assert q == pytest.approx(along * sin, rel=1e-15)
        assert project_capability(cap, 0.3, -0.2) == (0.0, 0.0)

    def test_empty_set_raises(self):
        for limits in ({"p_min": 0.2, "p_max": -0.2}, {"p_min": np.nan}, {"p_max": np.nan}):
            with pytest.raises(CapabilityError, match="empty feasible set"):
                CapabilitySet(kind=LOAD, **{"p_min": -0.2, "p_max": 0.0, **limits})
        for bad in (-0.5, np.nan):
            with pytest.raises(CapabilityError, match="empty feasible set"):
                pv_cap(p_avail=bad)
            # a set is frozen, so an empty one cannot be made by assignment either,
            # and a replaced one goes through the constructor's check
            cap = pv_cap()
            with pytest.raises(FrozenInstanceError):
                cap.p_avail = bad
            with pytest.raises(CapabilityError, match="^empty feasible set: p_avail must be >= 0$"):
                replace(cap, p_avail=bad)
        # so does a flexible load's range
        for name, bad in (("p_min", 0.3), ("p_max", -0.5), ("p_min", np.nan)):
            cap = CapabilitySet(kind=LOAD, p_min=-0.2, p_max=0.0, pf_fixed=0.95)
            with pytest.raises(FrozenInstanceError):
                setattr(cap, name, bad)
            with pytest.raises(CapabilityError, match="^empty feasible set: p_min must be <= p_max$"):
                replace(cap, **{name: bad})

    @pytest.mark.parametrize("name, bad", [("p_min", -np.inf), ("p_max", np.inf), ("p_min", np.inf), ("p_max", -np.inf)])
    def test_load_with_an_infinite_limit_is_refused_by_name(self, name, bad):
        # it was accepted, and the projection then returned (nan, nan) even for
        # a point of the set
        with pytest.raises(CapabilityError, match=f"^{name} must be finite$"):
            CapabilitySet(kind=LOAD, **{"p_min": -0.5, "p_max": 0.0, "pf_fixed": 0.9, name: bad})

    def test_unlimited_pv_availability_leaves_the_disk_as_the_limit(self):
        # p_avail = +inf is legal: it means unlimited
        unlimited, at_rating = pv_cap(p_avail=np.inf), pv_cap(p_avail=1.0)
        for p, q in [(2.0, 0.0), (0.9, 0.5), (0.3, -0.1), (-1.0, 3.0)]:
            assert project_capability(unlimited, p, q) == project_capability(at_rating, p, q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["p", "q"])
    @pytest.mark.parametrize(
        "cap",
        [pv_cap(), CapabilitySet(kind=LOAD, p_min=-0.4, p_max=0.1, pf_fixed=0.95)],
        ids=[PV, LOAD],
    )
    def test_nonfinite_point_raises(self, cap, which, bad):
        point = {"p": 0.05, "q": 0.0, which: bad}
        with pytest.raises(ValueError, match=f"^{which} must be finite$"):
            project_capability(cap, point["p"], point["q"])

    @pytest.mark.parametrize("q", [0.0, 1e200, -1e300])
    def test_point_far_outside_the_set_lands_in_it(self, q):
        # the candidate ranking squares offsets near 1e200; float ** raised
        # OverflowError there, a product gives inf
        cap = CapabilitySet(kind="pv-inverter", s_max=1.0, pf_min=0.8, p_avail=1.0)
        p_c, q_c = project_capability(cap, 1e200, q)
        assert cap.contains(p_c, q_c, tol=1e-12)

    @pytest.mark.parametrize("s_max", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_s_max(self, s_max):
        with pytest.raises(CapabilityError, match="^s_max must be finite and positive$"):
            pv_cap(s_max=s_max)


@st.composite
def capability_sets(draw, kind):
    """Capability sets of one kind, degenerate ones included: pf 1.0 (a
    segment on the p axis), p_avail 0 (a single point), p_min == p_max."""
    pf = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    if kind == PV:
        s_max = draw(st.floats(0.1, 2.0))
        p_avail = s_max * draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
        return CapabilitySet(kind=PV, s_max=s_max, pf_min=pf, p_avail=p_avail)
    p_min = draw(st.floats(-2.0, 1.0))
    p_max = p_min + draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    return CapabilitySet(kind=LOAD, p_min=p_min, p_max=p_max, pf_fixed=pf)


def feasible_points(cap, rng, count=300):
    """Points of the set from its own parametrisation, about a third of them
    on its boundary; independent of project_capability."""
    u = np.clip(rng.uniform(-0.25, 1.25, (2, count)), 0.0, 1.0)
    if cap.kind == PV:
        t = math.tan(math.acos(cap.pf_min))
        p = u[0] * min(cap.p_avail, cap.s_max)
        q_max = np.minimum(t * p, np.sqrt(np.maximum(cap.s_max**2 - p * p, 0.0)))
        q = q_max * (2.0 * u[1] - 1.0)
    else:
        t = math.tan(math.acos(cap.pf_fixed))
        p = cap.p_min + u[0] * (cap.p_max - cap.p_min)
        q = p * t
    pts = np.column_stack([p, q])
    return pts[[cap.contains(a, b, tol=0.0) for a, b in pts.tolist()]]


points = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


@pytest.mark.parametrize("kind", [PV, LOAD])
class TestProjectCapabilityProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), z=points, seed=st.integers(0, 2**32 - 1))
    def test_feasible_idempotent_and_nearest(self, kind, data, z, seed):
        cap = data.draw(capability_sets(kind))
        proj = np.array(project_capability(cap, *z))
        assert cap.contains(*proj)
        assert np.hypot(*(np.array(project_capability(cap, *proj)) - proj)) <= 1e-12
        ys = feasible_points(cap, np.random.default_rng(seed))
        assert len(ys) > 0
        dist = np.hypot(*(np.array(z) - proj))
        assert np.all(dist <= np.hypot(*(np.array(z) - ys).T) + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), a=points, b=points)
    def test_non_expansive(self, kind, data, a, b):
        cap = data.draw(capability_sets(kind))
        pa = np.array(project_capability(cap, *a))
        pb = np.array(project_capability(cap, *b))
        assert np.hypot(*(pa - pb)) <= np.hypot(*(np.array(a) - np.array(b))) + 1e-12


@settings(max_examples=300, deadline=None)
@given(data=st.data(), z=points)
def test_pv_projection_is_mirror_symmetric_in_q(data, z):
    """A PV set is symmetric in q, and so is its projection, bit for bit (signed zeros too)."""
    cap = data.draw(capability_sets(PV))
    p, q = z
    mirrored = project_capability(cap, p, -q)
    p_out, q_out = project_capability(cap, p, q)
    assert [x.hex() for x in mirrored] == [p_out.hex(), (-q_out).hex()]


def pv_inequality(cap, p, q, tol):
    """The PV inside test written out: disk, cone and p range, each widened by tol."""
    t = math.tan(math.acos(cap.pf_min))
    return p * p + q * q <= cap.s_max**2 + tol and abs(q) <= p * t + tol and -tol <= p <= cap.p_avail + tol


OFFSETS = st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 1e-9, -1e-9])


@st.composite
def pv_points_near_edges(draw, cap):
    """A point on the disk, cone or p-range edge of a PV set, nudged by up to 1e-9."""
    t = math.tan(math.acos(cap.pf_min))
    u = draw(st.floats(-1.0, 1.0))
    edge = draw(st.sampled_from(["disk", "cone", "p_avail", "p_zero"]))
    if edge == "disk":
        a = u * math.acos(cap.pf_min)
        p, q = cap.s_max * math.cos(a), cap.s_max * math.sin(a)
    elif edge == "cone":
        p = abs(u) * cap.s_max
        q = math.copysign(t * p, u)
    elif edge == "p_avail":
        p, q = cap.p_avail, u * t * cap.p_avail
    else:
        p, q = 0.0, u * cap.s_max
    return p + draw(OFFSETS), q + draw(OFFSETS)


class TestPvInsideTest:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), tol=st.sampled_from([0.0, 1e-12, 1e-9]))
    def test_contains_and_projection_share_one_predicate(self, data, tol):
        cap = data.draw(capability_sets(PV))
        p, q = data.draw(st.one_of(points, pv_points_near_edges(cap)))
        inside = pv_inequality(cap, p, q, tol)
        assert cap.contains(p, q, tol) == _pv_inside(cap, p, q, tol) == inside
        if pv_inequality(cap, p, q, 1e-12):
            assert project_capability(cap, p, q) == (p, q)

    # s_max 0.5, cone slope 0.75 up to p 0.4, arc, then the chord at p_avail 0.45
    CAP = CapabilitySet(kind=PV, s_max=0.5, pf_min=0.8, p_avail=0.45)
    EDGES = {
        "disk": lambda e: (math.sqrt(0.25 + e) * math.cos(0.55), math.sqrt(0.25 + e) * math.sin(0.55)),
        "cone": lambda e: (0.2, 0.2 * math.tan(math.acos(0.8)) + e),
        "p_avail": lambda e: (0.45 + e, 0.1),
        "p_zero": lambda e: (-e, 0.0),
    }

    @pytest.mark.parametrize("edge", EDGES)
    def test_point_within_the_band_is_returned_as_given(self, edge):
        p, q = self.EDGES[edge](5e-13)
        assert not self.CAP.contains(p, q, tol=0.0)
        assert project_capability(self.CAP, p, q) == (p, q)

    @pytest.mark.parametrize("edge", EDGES)
    def test_point_beyond_the_band_is_projected(self, edge):
        p, q = self.EDGES[edge](1e-9)
        assert not self.CAP.contains(p, q, tol=1e-12)
        out = project_capability(self.CAP, p, q)
        assert out != (p, q)
        assert self.CAP.contains(*out, tol=1e-12)


def same_record(a, b) -> bool:
    """Field-by-field equality, private fields included, that also holds for array fields."""
    if is_dataclass(a):
        return type(a) is type(b) and all(same_record(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return bool(np.array_equal(a, b))


class TestRecords:
    CAP = CapabilitySet(kind=PV, s_max=0.5, pf_min=0.85, p_avail=0.3)
    LOAD_CAP = CapabilitySet(kind=LOAD, p_min=-0.4, p_max=0.1, pf_fixed=0.95)
    UNIT = DerUnit(node=4, cap=CAP, tau_p=0.3, tau_q=0.25, p_c=0.1, q_c=-0.02, gains=DroopGains(-1.0, -2.0))
    RHO = SchedulingPoint(v_meas=[1.01, 0.99], r_t=0.02, omega=1.001, omega_star=1.0, timestamp=3.0)
    SM = SensitivityModel(R=np.eye(2), X=2 * np.eye(2), v0=np.ones(2), H=np.full(4, 0.5), P0=0.1, rho=RHO)
    STAB = StabilityParams(gamma=0.7, kf_bound=2.0)
    CFG = SchedulerConfig(beta=0.2, cost_w_f=1.0)
    FROZEN = {
        "CapabilitySet": CAP,
        "CapabilitySet-load": LOAD_CAP,
        "SchedulingPoint": RHO,
        "SensitivityModel": SM,
        "StabilityParams": STAB,
        "SchedulerConfig": CFG,
    }
    # a field of a frozen record, a value its constructor rejects, and the error;
    # the first four once slipped past the projection's partial re-checks by assignment
    BAD_REPLACEMENTS = [
        ("CapabilitySet", "s_max", np.nan, CapabilityError, "s_max must be finite and positive"),
        ("CapabilitySet", "s_max", -1.0, CapabilityError, "s_max must be finite and positive"),
        ("CapabilitySet", "kind", "bogus", CapabilityError, "unknown capability kind 'bogus'"),
        ("CapabilitySet", "pf_min", 1.5, CapabilityError, "pf_min must lie in (0, 1]"),
        ("CapabilitySet-load", "pf_fixed", 1.5, CapabilityError, "pf_fixed must lie in (0, 1]"),
        ("SchedulingPoint", "v_meas", [1.0, -1.0], ValueError, "measured voltages must be strictly positive"),
        ("SensitivityModel", "X", np.diag([np.inf, 1.0]), ValueError, "X must be finite"),
        ("StabilityParams", "gamma", 0.0, ValueError, "gamma must be finite and positive"),
        ("SchedulerConfig", "beta", 1.0, ValueError, "beta must lie in (0, 1)"),
    ]

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))], ids=["deepcopy", "pickle"]
    )
    @pytest.mark.parametrize("record", [CAP, UNIT], ids=["CapabilitySet", "DerUnit"])
    def test_slotted_records_copy_and_pickle(self, record, clone):
        assert not hasattr(record, "__dict__")
        twin = clone(record)
        assert type(twin) is type(record) and twin == record and twin is not record
        assert same_record(twin, record)

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    @pytest.mark.parametrize("key", FROZEN)
    def test_frozen_records_copy_and_pickle(self, key, clone):
        record = self.FROZEN[key]
        twin = clone(record)
        assert twin is not record and same_record(twin, record)

    @pytest.mark.parametrize("key", FROZEN)
    def test_frozen_records_reject_assignment(self, key):
        record = self.FROZEN[key]
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))

    @pytest.mark.parametrize(
        "key, name, bad, error, message", BAD_REPLACEMENTS, ids=[f"{c[0]}-{c[1]}={c[2]}" for c in BAD_REPLACEMENTS]
    )
    def test_frozen_records_replace_through_the_constructor(self, key, name, bad, error, message):
        record = self.FROZEN[key]
        assert same_record(replace(record), record)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            replace(record, **{name: bad})

    def test_power_factor_slope_is_computed_at_construction(self):
        assert replace(self.CAP, pf_min=0.9)._tan == math.tan(math.acos(0.9))
        assert self.CAP._tan == math.tan(math.acos(0.85))
        assert self.LOAD_CAP._tan == math.tan(math.acos(0.95))
        assert replace(self.LOAD_CAP, pf_fixed=0.8)._tan == math.tan(math.acos(0.8))
        assert "_tan" not in repr(self.CAP)

    def test_replace_builds_through_the_constructor(self):
        assert replace(self.CAP, p_avail=0.2) == CapabilitySet(kind=PV, s_max=0.5, pf_min=0.85, p_avail=0.2)
        unit = replace(self.UNIT, cap=replace(self.CAP, p_avail=0.2), p_star=0.1)
        assert (unit.cap.p_avail, unit.p_star, unit.tau_q) == (0.2, 0.1, 0.25)
        with pytest.raises(CapabilityError, match="^s_max must be finite and positive$"):
            replace(self.CAP, s_max=-1.0)
        with pytest.raises(ValueError, match="^tau_p must be finite and positive$"):
            replace(self.UNIT, tau_p=0.0)


class TestStepDer:
    def test_equilibrium_state_unchanged(self):
        u = pv_unit(p_c=0.2, q_c=0.0)
        out = step_der(u, 0.2, 0.0, 0.01)
        assert out.p_c == pytest.approx(0.2)
        assert out.q_c == pytest.approx(0.0)

    def test_geometric_convergence_to_command(self):
        u = pv_unit(p_c=0.0, q_c=0.0, cap=pv_cap(p_avail=1.0))
        dt, tau = 0.01, u.tau_p
        ratio = 1 - dt / tau
        p = 0.0
        for k in range(200):
            u = step_der(u, 0.6, 0.0, dt)
            expected = 0.6 * (1 - ratio ** (k + 1))
            assert u.p_c == pytest.approx(expected, abs=1e-12)
        assert u.p_c == pytest.approx(0.6, abs=1e-3)

    def test_single_step_arithmetic(self):
        # tau 200 ms, dt 10 ms: one step covers 5% of the gap
        u = pv_unit(p_c=0.0, tau_p=0.2, cap=pv_cap(p_avail=1.0))
        out = step_der(u, 1.0, 0.0, 0.01)
        assert out.p_c == pytest.approx(0.05)

    def test_output_stays_feasible(self):
        rng = np.random.default_rng(9)
        u = pv_unit(p_c=0.1, q_c=0.0, cap=pv_cap(s_max=0.5, pf_min=0.8, p_avail=0.4))
        for _ in range(200):
            cmd = rng.uniform(-2, 2, 2)
            u = step_der(u, cmd[0], cmd[1], 0.01)
            assert u.cap.contains(u.p_c, u.q_c, tol=1e-9)

    def test_dt_bounds_enforced(self):
        u = pv_unit(tau_p=0.2, tau_q=0.05)
        with pytest.raises(ValueError):
            step_der(u, 0.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            step_der(u, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("v_local, p_star", [(np.nan, 0.2), (1.0, np.nan)])
    def test_nan_droop_input_raises(self, v_local, p_star):
        u = pv_unit(p_c=0.1, p_star=p_star, gains=DroopGains(k_pv=-1.0))
        u_p, u_q = droop_input(u, v_local, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^p must be finite$"):
            step_der(u, u_p, u_q, 0.01)

    @pytest.mark.parametrize("bad", [0.0, -0.2, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["tau_p", "tau_q"])
    def test_rejects_bad_time_constants(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
            pv_unit(**{name: bad})

    @pytest.mark.parametrize("node", [0, -3, np.int64(0)], ids=repr)
    def test_rejects_node_outside_the_feeder(self, node):
        with pytest.raises(ValueError, match="^node must be >= 1"):
            pv_unit(node=node)

    @pytest.mark.parametrize(
        "node", [1.5, 4.0, True, np.float64(2.0), np.True_, np.nan, -1.0, "3", None], ids=repr
    )
    def test_rejects_node_that_is_not_an_integer_bus(self, node):
        # 1.5 used to construct and fail later at an array index; True stood for bus 1;
        # "3" and None died on the range comparison with a bare TypeError
        with pytest.raises(ValueError, match=rf"^node must be an integer bus, got {re.escape(repr(node))}$"):
            pv_unit(node=node)

    @pytest.mark.parametrize("node", [3, np.int64(3), np.int32(2), np.uint8(1)], ids=repr)
    def test_accepts_integer_nodes_numpy_ones_included(self, node):
        assert pv_unit(node=node).node == node

    # a value other than the default for every DerUnit field but the
    # operating point, so a field the result does not carry over shows up
    UNIT = dict(
        node=3,
        tau_p=0.3,
        tau_q=0.25,
        p_star=0.1,
        q_star=-0.02,
        gains=DroopGains(-1.0, -2.0, -3.0, -4.0),
    )
    T_LOAD = math.tan(math.acos(0.9))
    # capability set, a start point in it, and a command whose Euler step stays
    # in it; a flexible load's set is a segment, so its only such command is
    # the start point itself
    CASES = {
        PV: (pv_cap(s_max=0.5, pf_min=0.8, p_avail=0.4), (0.15, 0.05), (0.2, 0.01)),
        LOAD: (
            CapabilitySet(kind=LOAD, p_min=-0.4, p_max=0.0, pf_fixed=0.9),
            (-0.2, -0.2 * T_LOAD),
            (-0.2, -0.2 * T_LOAD),
        ),
    }

    @pytest.mark.parametrize("clipped", [False, True], ids=["inside", "clipped"])
    @pytest.mark.parametrize("online", [True, False])
    @pytest.mark.parametrize("kind", [PV, LOAD])
    def test_result_is_replace_with_projected_step(self, kind, online, clipped):
        assert set(self.UNIT) | {"cap", "p_c", "q_c", "online"} == {f.name for f in fields(DerUnit)}
        cap, start, inside = self.CASES[kind]
        command = (3.0, -2.0) if clipped else inside
        u = DerUnit(**self.UNIT, cap=cap, p_c=start[0], q_c=start[1], online=online)
        before = copy.deepcopy(u)
        dt = 0.05
        p = u.p_c + dt / u.tau_p * (command[0] - u.p_c)
        q = u.q_c + dt / u.tau_q * (command[1] - u.q_c)
        assert cap.contains(p, q) != clipped
        p, q = project_capability(cap, p, q)
        out = step_der(u, *command, dt)
        expected = replace(u, p_c=p, q_c=q)
        for f in fields(DerUnit):
            assert getattr(out, f.name) == getattr(expected, f.name), f.name
        assert out is not u
        assert u == before


time_constants = st.floats(0.01, 10.0)
commands = st.floats(-1e300, 1e300)


@pytest.mark.parametrize("kind", [PV, LOAD])
class TestStepDerProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        start=points,
        cmd=st.tuples(commands, commands),
        taus=st.tuples(time_constants, time_constants),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_output_is_feasible(self, kind, data, start, cmd, taus, frac):
        cap = data.draw(capability_sets(kind))
        dt = min(taus) * frac
        assume(0.0 < dt < min(taus))
        u = DerUnit(node=1, cap=cap, tau_p=taus[0], tau_q=taus[1], p_c=start[0], q_c=start[1])
        out = step_der(u, *cmd, dt)
        assert cap.contains(out.p_c, out.q_c, tol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        taus=st.tuples(time_constants, time_constants),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_feasible_point_commanded_to_itself_stays(self, kind, data, seed, taus, frac):
        cap = data.draw(capability_sets(kind))
        dt = min(taus) * frac
        assume(0.0 < dt < min(taus))
        p, q = feasible_points(cap, np.random.default_rng(seed))[0].tolist()
        u = DerUnit(node=1, cap=cap, tau_p=taus[0], tau_q=taus[1], p_c=p, q_c=q)
        out = step_der(u, p, q, dt)
        assert np.hypot(out.p_c - p, out.q_c - q) <= 1e-12


class TestLoadDerUnits:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ders.csv"
        path.write_text(
            "node,kind,s_rating_pu,tau_p_s,tau_q_s,pf_min\n"
            "4,pv-inverter,0.5,0.2,0.2,0.8\n"
            "2,flexible-load,0.3,0.15,0.15,0.95\n"
        )
        units = load_der_units(path)
        assert units[0].node == 4 and units[0].cap.kind == PV
        assert units[0].cap.s_max == 0.5
        assert units[1].cap.p_min == -0.3 and units[1].cap.p_max == 0.0
        assert units[1].cap.pf_fixed == 0.95

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "ders.csv"
        path.write_text("node,kind,s_rating_pu,tau_p_s,tau_q_s,pf_min\n1,windmill,1,0.2,0.2,0.9\n")
        with pytest.raises(ValueError, match="ders.csv:2"):
            load_der_units(path)

    @pytest.mark.parametrize("node", ["0", "-3"])
    def test_node_outside_the_feeder(self, tmp_path, node):
        path = tmp_path / "ders.csv"
        path.write_text(
            "node,kind,s_rating_pu,tau_p_s,tau_q_s,pf_min\n"
            "2,pv-inverter,0.5,0.2,0.2,0.8\n"
            f"{node},pv-inverter,0.5,0.2,0.2,0.8\n"
        )
        with pytest.raises(ValueError, match="ders.csv:3: node must be >= 1"):
            load_der_units(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,flexible-load,-0.2,0.2,0.2,0.95", "empty feasible set: p_min must be <= p_max"),
            ("2,pv-inverter,0.5,0.2,0.2,1.5", r"pf_min must lie in \(0, 1\]"),
        ],
        ids=["negative-rating", "pf-above-one"],
    )
    def test_inconsistent_capability_keeps_its_error_type(self, tmp_path, row, message):
        path = tmp_path / "ders.csv"
        path.write_text(f"node,kind,s_rating_pu,tau_p_s,tau_q_s,pf_min\n{row}\n")
        with pytest.raises(CapabilityError, match=f"ders.csv:2: {message}$"):
            load_der_units(path)

    @pytest.mark.parametrize("rating", ["inf", "-inf"])
    def test_load_row_with_an_infinite_rating_is_refused(self, tmp_path, rating):
        # an inf rating made a load whose every projection was (nan, nan)
        path = tmp_path / "ders.csv"
        path.write_text(f"node,kind,s_rating_pu,tau_p_s,tau_q_s,pf_min\n2,flexible-load,{rating},0.2,0.2,0.9\n")
        with pytest.raises(CapabilityError, match="ders.csv:2: p_min must be finite$"):
            load_der_units(path)
