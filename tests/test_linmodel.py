"""Sensitivity-model tests: analytic R/X vs finite differences of the solver."""

import copy
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droopsched import linmodel
from droopsched.linmodel import (
    SchedulingPoint,
    SensitivityModel,
    build_pcc_sensitivity,
    build_rx,
    build_sensitivity_model,
)
from droopsched.network import Branch, NetworkModel, solve_power_flow
from droopsched.scenarios import ieee37_shaped_feeder, random_radial_feeder, six_bus_feeder

from .oracles import central_difference, eigvalsh_definite
from .test_network import chain, random_feeder


def flat_rho(n, k_agg=0.02, omega=1.0):
    return SchedulingPoint(v_meas=np.ones(n), r_t=k_agg, omega=omega, omega_star=1.0)


def loaded_point(rng, n, pv_buses=0):
    """Random loads, with 0.3 pu of PV injected at ``pv_buses`` random buses."""
    p = -rng.uniform(0.01, 0.04, n)
    p[rng.choice(n, pv_buses, replace=False)] += 0.3
    return p, -rng.uniform(0.0, 0.02, n)


def pcc_oracle(model, p, q):
    """Central differences of the PCC import over cold solves at tol 1e-13.

    Richardson-extrapolated from the steps 1e-4 and 2e-4, which cancels
    the step^2 term: on its own, step 1e-4 is off by 1.9e-8 at the
    117-bus feeder of ``sweep_cases``.
    """
    n = model.n

    def pcc(z):
        return solve_power_flow(model, z[:n], z[n:], tol=1e-13).p_pcc

    z = np.concatenate([p, q])
    return (4.0 * central_difference(pcc, z, 1e-4) - central_difference(pcc, z, 2e-4)) / 3.0


def cold_current_jacobian(model, p, q):
    """Central differences (step 1e-4) of the squared branch currents over cold solves at tol 1e-13."""
    n = model.n

    def i_sq(z):
        return solve_power_flow(model, z[:n], z[n:], tol=1e-13).i_sq

    return central_difference(i_sq, np.concatenate([p, q]), 1e-4)


def sweep_cases():
    """A loaded 37-bus point, then random feeders of 1 to 117 buses under load."""
    rng = np.random.default_rng(61)
    model = ieee37_shaped_feeder()
    cases = [(model, *loaded_point(rng, model.n, pv_buses=8))]
    for n in (1, 5, 30, 80, 117):
        cases.append((random_radial_feeder(n, rng), -rng.uniform(0.0, 0.02, n), -rng.uniform(0.0, 0.01, n)))
    return cases


def affine_voltage(sm, p, q):
    """The model's voltage estimate v = R p + X q + v0."""
    return sm.R @ p + sm.X @ q + sm.v0


def fd_voltage_jacobian(model, p0, q0, step=1e-5):
    """Central-difference d v / d p and d v / d q of the nonlinear solver."""
    n = model.n
    Jp = np.zeros((n, n))
    Jq = np.zeros((n, n))
    for k in range(n):
        d = np.zeros(n)
        d[k] = step
        vp = solve_power_flow(model, p0 + d, q0, tol=1e-12).v[1:]
        vm = solve_power_flow(model, p0 - d, q0, tol=1e-12).v[1:]
        Jp[:, k] = (vp - vm) / (2 * step)
        vp = solve_power_flow(model, p0, q0 + d, tol=1e-12).v[1:]
        vm = solve_power_flow(model, p0, q0 - d, tol=1e-12).v[1:]
        Jq[:, k] = (vp - vm) / (2 * step)
    return Jp, Jq


class TestBuildRx:
    def test_single_branch(self):
        model = chain([0.013], [0.021])
        R, X = build_rx(model)
        assert R == pytest.approx(np.array([[0.013]]))
        assert X == pytest.approx(np.array([[0.021]]))

    def test_three_bus_chain_by_inspection(self):
        r1, r2 = 0.01, 0.03
        model = chain([r1, r2], [0.02, 0.02])
        R, _ = build_rx(model)
        assert R == pytest.approx(np.array([[r1, r1], [r1, r1 + r2]]))

    def test_matches_finite_differences_of_solver(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.integers(2, 9))
            model = random_feeder(rng, n)
            R, X = build_rx(model)
            Jp, Jq = fd_voltage_jacobian(model, np.zeros(n), np.zeros(n))
            assert np.max(np.abs(R - Jp)) < 1e-3
            assert np.max(np.abs(X - Jq)) < 1e-3

    def test_positive_definite_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_feeder(rng, int(rng.integers(1, 9)))
            R, X = build_rx(model)
            assert np.max(np.abs(R - R.T)) == 0.0
            assert np.max(np.abs(X - X.T)) == 0.0
            assert np.linalg.eigvalsh(R)[0] > 1e-12
            assert np.linalg.eigvalsh(X)[0] > 1e-12

    @pytest.mark.parametrize(
        "name, rs, xs",
        [("R", [0.01, 0.0], [0.02, 0.02]), ("X", [0.01, 0.01], [0.0, 0.02])],
    )
    def test_zero_resistance_or_reactance_branch_is_singular(self, name, rs, xs):
        # NetworkModel admits r = 0 or x = 0, and the power flow solves
        model = chain(rs, xs)
        n = model.n
        p = np.array([-0.05, -0.05])
        solve_power_flow(model, p, np.zeros(n))
        with pytest.raises(ValueError, match=f"^{name} must be positive definite$"):
            build_sensitivity_model(model, flat_rho(n), np.zeros(n), np.zeros(n), p, np.zeros(n))


class TestPccSensitivity:
    def test_lossless_limit_active_entries_near_minus_one(self):
        # vanishing resistance: import = -sum(p) exactly, reactive has no effect
        model = chain([1e-9, 1e-9], [0.02, 0.03])
        n = model.n
        H, P0 = build_pcc_sensitivity(model, flat_rho(n), np.zeros(n), np.zeros(n))
        assert H[:n] == pytest.approx(-np.ones(n), abs=1e-5)
        assert H[n:] == pytest.approx(np.zeros(n), abs=1e-5)
        assert P0 == 0.0

    def test_lossy_two_bus_sign_and_fd_oracle(self):
        model = chain([0.02], [0.02])
        p0 = np.array([-0.1])
        q0 = np.array([0.0])
        H, _ = build_pcc_sensitivity(model, flat_rho(1), p0, q0)
        assert H[0] < 0.0

        def pcc(z):
            return solve_power_flow(model, z[:1], z[1:], tol=1e-12).p_pcc

        ref = central_difference(pcc, np.concatenate([p0, q0]), 1e-6)
        assert H == pytest.approx(ref, abs=1e-6)

    def test_matches_tight_cold_oracle_on_loaded_feeders(self):
        rng = np.random.default_rng(7)
        model = ieee37_shaped_feeder()
        cases = [(model, *loaded_point(rng, model.n, pv_buses=8)) for _ in range(3)]
        six = six_bus_feeder()
        cases += [
            (six, np.array([-0.05, -0.08, -0.04, 0.3, 0.3, 0.3]), np.array([-0.02, -0.03, -0.01, 0.0, 0.0, 0.0])),
            (six, np.full(6, -0.1), np.full(6, -0.05)),
        ]
        cases += [case for case in sweep_cases() if case[0].n in (30, 80, 117)]
        for model, p, q in cases:
            H, _ = build_pcc_sensitivity(model, flat_rho(model.n), p, q)
            # measured: 8.4e-11 at most; stepped flows stopped at residual 1e-10 were off by 1.5e-5 at n = 117
            assert np.max(np.abs(H - pcc_oracle(model, p, q))) <= 1e-8

    def test_every_stepped_flow_settles_in_one_sweep(self, monkeypatch):
        # each stepped flow starts on the base flow's tangent; started from the
        # base currents, they took up to 8 sweeps on these feeders
        flows = []
        kept = []  # each flow's injection arrays, as a caller that keeps its arguments holds them

        def counted(model, p_inj, q_inj, warm=None, **kwargs):
            start = None
            if warm is not None:
                # the warm record owns its currents, so keeping it keeps n floats
                assert warm.i_sq.base is None and warm.i_sq.shape == (model.n,)
                start = warm.i_sq.copy()
            sol = solve_power_flow(model, p_inj, q_inj, warm=warm, **kwargs)
            flows.append((start, sol))
            kept.append(((p_inj, q_inj), (p_inj.copy(), q_inj.copy())))
            return sol

        monkeypatch.setattr(linmodel, "solve_power_flow", counted)
        moved = 0.0
        for model, p, q in sweep_cases():
            flows.clear()
            kept.clear()
            given = p.copy(), q.copy()
            build_pcc_sensitivity(model, flat_rho(model.n), p, q)
            assert p.tobytes() == given[0].tobytes() and q.tobytes() == given[1].tobytes()
            # after the build, every flow's arrays still hold the injections it solved
            assert all(a.tobytes() == b.tobytes() for held, solved in kept for a, b in zip(held, solved))
            # the base flow, cold, then a +step and a -step flow per injection
            assert len(flows) == 4 * model.n + 1
            assert flows[0][0] is None and all(start is not None for start, _ in flows[1:])
            assert [sol.iterations for _, sol in flows[1:]] == [1] * (4 * model.n)
            moved = max(moved, max(np.max(np.abs(sol.i_sq - start)) for start, sol in flows[1:]))
        # the sweep stops once a sweep moves the currents by 10 tol = 1e-9 at most;
        # the largest first-sweep move measured here is 2.7e-10, at n = 117
        assert moved <= 1e-9


def tangent_pcc_row(model, T):
    """The PCC row of the current tangent: p_pcc sums r l - p over every branch."""
    r = np.array([b.r for b in model.branches])
    return r @ T - np.repeat([1.0, 0.0], model.n)


def assert_tangent_matches_oracles(model, p, q):
    T = linmodel._current_tangent(model, solve_power_flow(model, p, q, tol=1e-13))
    # cold flows stop once a sweep moves the currents by 1e-12 at most, which
    # the 2e-4 difference turns into up to 5e-9; measured 7.5e-9 at most
    assert np.max(np.abs(T - cold_current_jacobian(model, p, q))) <= 3e-8
    assert np.max(np.abs(tangent_pcc_row(model, T) - pcc_oracle(model, p, q))) <= 1e-8


class TestCurrentTangent:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 1.0))
    def test_matches_cold_central_differences(self, n, seed, scale):
        # loaded_point's loads and 0.3 pu PV, scaled down to none at scale 0
        rng = np.random.default_rng(seed)
        model = random_radial_feeder(n, rng)
        p, q = loaded_point(rng, n, pv_buses=int(rng.integers(0, n // 4 + 1)))
        assert_tangent_matches_oracles(model, scale * p, scale * q)

    def test_unloaded_feeder_has_zero_tangent(self):
        # no flow, no current: the base sweep stops at l = 0, and both Jacobians vanish
        model = random_radial_feeder(12, np.random.default_rng(3))
        n = model.n
        T = linmodel._current_tangent(model, solve_power_flow(model, np.zeros(n), np.zeros(n), tol=1e-13))
        assert T.shape == (n, 2 * n)
        assert np.array_equal(T, np.zeros((n, 2 * n)))
        H, _ = build_pcc_sensitivity(model, flat_rho(n), np.zeros(n), np.zeros(n))
        assert np.max(np.abs(tangent_pcc_row(model, T) - H)) <= 1e-8

    @pytest.mark.parametrize("rs, xs", [([0.02, 0.0, 0.01], [0.01, 0.03, 0.02]), ([0.02, 0.03, 0.01], [0.01, 0.0, 0.02])])
    def test_branch_without_resistance_or_reactance(self, rs, xs):
        model = NetworkModel([Branch(0, 1, rs[0], xs[0]), Branch(1, 2, rs[1], xs[1]), Branch(1, 3, rs[2], xs[2])])
        assert_tangent_matches_oracles(model, np.array([-0.1, 0.2, -0.15]), np.array([-0.05, 0.0, -0.04]))

    def test_same_inputs_give_bit_identical_output(self):
        model, p, q = sweep_cases()[0]
        base = solve_power_flow(model, p, q, tol=1e-13)
        assert np.array_equal(linmodel._current_tangent(model, base), linmodel._current_tangent(model, base))
        first = build_pcc_sensitivity(model, flat_rho(model.n), p, q)
        again = build_pcc_sensitivity(model, flat_rho(model.n), p, q)
        assert np.array_equal(first[0], again[0]) and first[1] == again[1]


class TestAffineAccuracy:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.model = random_feeder(rng, 5)
        n = self.model.n
        self.sm = build_sensitivity_model(
            self.model,
            flat_rho(n),
            p_ctrl=np.zeros(n),
            q_ctrl=np.zeros(n),
            p_base=np.zeros(n),
            q_base=np.zeros(n),
        )

    def test_small_injection_accuracy_vs_solver(self):
        rng = np.random.default_rng(17)
        n = self.sm.n
        for _ in range(10):
            p = rng.uniform(-0.05, 0.05, n)
            q = rng.uniform(-0.05, 0.05, n)
            pred = affine_voltage(self.sm, p, q)
            ref = solve_power_flow(self.model, p, q, tol=1e-12).v[1:]
            assert np.max(np.abs(pred - ref)) < 5e-3

    def test_first_order_error_scaling(self):
        rng = np.random.default_rng(4)
        n = self.sm.n
        p = rng.uniform(0.05, 0.15, n)
        q = rng.uniform(0.02, 0.08, n)

        def err(scale):
            pred = affine_voltage(self.sm, scale * p, scale * q)
            ref = solve_power_flow(self.model, scale * p, scale * q, tol=1e-12).v[1:]
            return np.max(np.abs(pred - ref))

        assert err(1.0) / err(0.5) >= 3.5


ASYMMETRIC = np.array([[1.0, 0.1], [0.0, 1.0]])


class TestSensitivityModelInvariants:
    VALID = dict(R=np.eye(2), X=np.eye(2), v0=np.ones(2), H=np.zeros(4), P0=0.0, rho=flat_rho(2))

    def test_rejects_non_pd(self):
        n = 2
        with pytest.raises(ValueError, match="positive definite"):
            SensitivityModel(
                R=np.zeros((n, n)),
                X=np.eye(n),
                v0=np.ones(n),
                H=np.zeros(2 * n),
                P0=0.0,
                rho=flat_rho(n),
            )

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SensitivityModel(
                R=np.array([[1.0, 0.1], [0.0, 1.0]]),
                X=np.eye(2),
                v0=np.ones(2),
                H=np.zeros(4),
                P0=0.0,
                rho=flat_rho(2),
            )

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(X=np.eye(3)), "R and X must be square and of one size"),
            (dict(R=np.ones((2, 3))), "R and X must be square and of one size"),
            (dict(R=np.ones(2)), "R and X must be square and of one size"),
            (dict(v0=np.ones(3)), "v0 must have shape (2,)"),
            (dict(H=np.zeros(2)), "H must have shape (4,)"),
            (dict(v0=np.array([1.0, np.nan])), "v0 must be finite"),
            (dict(H=np.array([0.0, -np.inf, 0.0, 0.0])), "H must be finite"),
            (dict(P0=np.nan), "P0 must be finite"),
            (dict(rho=flat_rho(3)), "rho.v_meas must have shape (2,)"),
            # finiteness is checked ahead of symmetry and definiteness
            (dict(R=np.array([[np.inf, 0.0], [0.0, 1.0]])), "R must be finite"),
            (dict(R=np.array([[1.0, np.nan], [np.nan, 1.0]])), "R must be finite"),
            (dict(X=np.array([[1.0, 0.0], [0.0, -np.inf]])), "X must be finite"),
            (dict(X=np.array([[1.0, np.nan], [0.0, 1.0]])), "X must be finite"),
            # R's checks come first, and each matrix is checked for symmetry before definiteness
            (dict(R=np.zeros((2, 2)), X=np.zeros((2, 2))), "R must be positive definite"),
            (dict(R=np.zeros((2, 2)), X=ASYMMETRIC), "R must be positive definite"),
            (dict(X=ASYMMETRIC), "X must be symmetric"),
            (dict(R=ASYMMETRIC, X=np.zeros((2, 2))), "R must be symmetric"),
            (dict(X=-np.eye(2)), "X must be positive definite"),
            # an empty matrix has no lambda_min to exceed 1e-12
            (dict(R=np.eye(0), X=np.eye(0), v0=np.ones(0), H=np.zeros(0), rho=flat_rho(0)), "R must be positive definite"),
        ],
    )
    def test_rejects_what_the_scheduler_cannot_use(self, kw, message):
        SensitivityModel(**self.VALID)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SensitivityModel(**{**self.VALID, **kw})

    @pytest.mark.parametrize(
        "name, vec, message",
        [
            ("p_ctrl", np.zeros(3), "p_ctrl must have shape (2,)"),
            ("q_ctrl", np.zeros((2, 1)), "q_ctrl must have shape (2,)"),
            ("p_ctrl", np.array([0.0, np.nan]), "v0 must be finite"),
        ],
    )
    def test_build_rejects_bad_controlled_injections(self, name, vec, message):
        model = chain([0.01, 0.02], [0.02, 0.01])
        ctrl = {"p_ctrl": np.zeros(2), "q_ctrl": np.zeros(2), name: vec}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_sensitivity_model(model, flat_rho(2), p_base=np.zeros(2), q_base=np.zeros(2), **ctrl)

    def test_exact_at_construction_point(self):
        rng = np.random.default_rng(31)
        model = random_feeder(rng, 4)
        n = model.n
        p_c = rng.uniform(-0.05, 0.05, n)
        q_c = rng.uniform(-0.05, 0.05, n)
        sol = solve_power_flow(model, p_c, q_c, tol=1e-12)
        rho = SchedulingPoint(v_meas=sol.v[1:], r_t=0.02, omega=1.0, omega_star=1.0)
        sm = build_sensitivity_model(model, rho, p_c, q_c, p_c, q_c)
        assert affine_voltage(sm, p_c, q_c) == pytest.approx(sol.v[1:], abs=1e-14)


def with_spectrum(seed, eigenvalues):
    """Symmetric matrix with the given eigenvalues, in a random orthonormal basis."""
    n = len(eigenvalues)
    basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    M = (basis * eigenvalues) @ basis.T
    return (M + M.T) / 2.0


class TestDefinitenessRule:
    """SensitivityModel accepts R and X exactly when eigvalsh puts lambda_min above 1e-12."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["R", "X"]),
        seed=st.integers(0, 2**32 - 1),
        lam_min=st.sampled_from([0.95e-12, 1.05e-12]),
        rest=st.lists(st.floats(2e-12, 1.0), max_size=7),
    )
    def test_matches_the_eigenvalue_rule_near_its_threshold(self, name, seed, lam_min, rest):
        M = with_spectrum(seed, [lam_min, *rest])
        n = M.shape[0]
        kw = dict(R=np.eye(n), X=np.eye(n), v0=np.ones(n), H=np.zeros(2 * n), P0=0.0, rho=flat_rho(n))
        kw[name] = M
        if eigvalsh_definite(M):
            SensitivityModel(**kw)
        else:
            with pytest.raises(ValueError, match=f"^{name} must be positive definite$"):
                SensitivityModel(**kw)

    def test_the_drawn_thresholds_fall_on_both_sides_of_the_rule(self):
        # so the property above exercises both outcomes
        for seed in range(5):
            assert not eigvalsh_definite(with_spectrum(seed, [0.95e-12, 0.5]))
            assert eigvalsh_definite(with_spectrum(seed, [1.05e-12, 0.5]))


class TestSchedulingPoint:
    FINITE = dict(v_meas=[1.0, 1.01], r_t=0.02, omega=1.0, omega_star=1.0, v_star=1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("v_meas", [1.0, np.nan]),
            ("v_meas", [np.inf, 1.0]),
            ("omega", np.nan),
            ("omega", np.inf),
            ("omega", -np.inf),
            ("omega_star", np.inf),
            ("r_t", np.nan),
            ("r_t", -np.inf),
            ("v_star", np.nan),
            ("timestamp", np.nan),
        ],
    )
    def test_non_finite_measurement_raises_naming_the_field(self, name, value):
        SchedulingPoint(**self.FINITE)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SchedulingPoint(**{**self.FINITE, name: value})

    @pytest.mark.parametrize("v_meas", [[[1.0, 1.01]], 1.0])
    def test_measurement_must_be_one_vector(self, v_meas):
        with pytest.raises(ValueError, match="^v_meas must be 1-D$"):
            SchedulingPoint(**{**self.FINITE, "v_meas": v_meas})


class TestRecordsOwnTheirArrays:
    """The frozen records store read-only copies: no later edit reaches them."""

    @staticmethod
    def records():
        v, R, X, v0, H = np.array([1.01, 0.99]), np.eye(2), 2.0 * np.eye(2), np.ones(2), np.full(4, 0.5)
        rho = SchedulingPoint(v_meas=v, r_t=0.02, omega=1.0, omega_star=1.0)
        sm = SensitivityModel(R=R, X=X, v0=v0, H=H, P0=0.1, rho=rho)
        return (v, R, X, v0, H), sm

    def test_a_caller_edit_does_not_reach_the_record(self):
        # the point used to alias the caller's v_meas, and the model its R
        (v, R, X, v0, H), sm = self.records()
        v[0] = np.nan
        R[0, 1] = 5.0
        X[:] = 0.0
        v0[1] = H[0] = np.inf
        assert np.array_equal(sm.rho.v_meas, [1.01, 0.99])
        assert np.array_equal(sm.R, np.eye(2)) and np.array_equal(sm.X, 2.0 * np.eye(2))
        assert np.array_equal(sm.v0, np.ones(2)) and np.array_equal(sm.H, np.full(4, 0.5))

    @pytest.mark.parametrize(
        "clone", [lambda r: r, copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["record", "copy", "deepcopy", "pickle"],
    )
    def test_writing_into_a_record_array_raises(self, clone):
        _, sm = self.records()
        sm = clone(sm)
        for a in (sm.rho.v_meas, sm.R, sm.X, sm.v0, sm.H):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert np.array_equal(sm.R, np.eye(2)) and sm.rho.v_meas[0] == 1.01


class TestRecordsCompareByIdentity:
    """``==`` on a record with array fields used to raise "truth value of an
    array ... is ambiguous"; equality and hash are by identity instead."""

    @pytest.mark.parametrize("which", ["rho", "sm"])
    def test_copy_differs_record_equals_itself_and_hashes(self, which):
        _, sm = TestRecordsOwnTheirArrays.records()
        record = sm if which == "sm" else sm.rho
        assert (replace(record) == record) is False
        assert (record == record) is True
        assert hash(record) == hash(record)
        assert len({record, replace(record)}) == 2
