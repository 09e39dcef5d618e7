"""DER model tests: droop law, capability projection, filter dynamics."""

import copy
import math
from dataclasses import fields, replace

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
    droop_input,
    load_der_units,
    project_capability,
    step_der,
    tso_requirement,
)


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


class TestTsoRequirement:
    def test_nominal_frequency_zero(self):
        assert tso_requirement(0.02, 1.0, 1.0) == 0.0

    def test_paper_scale_arithmetic(self):
        assert tso_requirement(0.02, 1.001, 1.0) == pytest.approx(2e-5)

    def test_nonpositive_gain_convention(self):
        # with a nonpositive aggregate gain, over-frequency demands a
        # nonpositive adjustment
        assert tso_requirement(-0.02, 1.001, 1.0) <= 0.0


class TestProjectCapability:
    def test_interior_point_unchanged(self):
        cap = pv_cap()
        assert project_capability(cap, 0.5, 0.1) == (0.5, 0.1)

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

    def test_empty_set_raises(self):
        for limits in ({"p_min": 0.2, "p_max": -0.2}, {"p_min": np.nan}, {"p_max": np.nan}):
            with pytest.raises(CapabilityError, match="empty feasible set"):
                CapabilitySet(kind=LOAD, **{"p_min": -0.2, "p_max": 0.0, **limits})
        for bad in (-0.5, np.nan):
            with pytest.raises(CapabilityError, match="empty feasible set"):
                pv_cap(p_avail=bad)
            cap = pv_cap()
            cap.p_avail = bad
            with pytest.raises(CapabilityError, match="empty feasible set"):
                project_capability(cap, 0.1, 0.0)
        # so may a flexible load's range
        for name, bad in (("p_min", 0.3), ("p_max", -0.5), ("p_min", np.nan)):
            cap = CapabilitySet(kind=LOAD, p_min=-0.2, p_max=0.0, pf_fixed=0.95)
            setattr(cap, name, bad)
            with pytest.raises(CapabilityError, match="^empty feasible set: p_min must be <= p_max$"):
                project_capability(cap, 0.1, 0.0)

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

    @pytest.mark.parametrize("node", [0, -3, np.nan])
    def test_rejects_node_outside_the_feeder(self, node):
        with pytest.raises(ValueError, match="^node must be >= 1"):
            pv_unit(node=node)

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
