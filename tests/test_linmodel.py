"""Sensitivity-model tests: analytic R/X vs finite differences of the solver."""

import numpy as np
import pytest

from droopsched.linmodel import (
    SchedulingPoint,
    SensitivityModel,
    build_pcc_sensitivity,
    build_rx,
    build_sensitivity_model,
    predict_voltage,
)
from droopsched.network import Branch, Bus, NetworkModel, solve_power_flow

from .oracles import central_difference
from .test_network import chain, random_feeder


def flat_rho(n, k_agg=0.02, omega=1.0):
    return SchedulingPoint(v_meas=np.ones(n), r_t=k_agg, omega=omega, omega_star=1.0)


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


class TestPccSensitivity:
    def test_lossless_limit_active_entries_near_minus_one(self):
        # vanishing resistance: import = -sum(p) exactly, reactive has no effect
        model = chain([1e-9, 1e-9], [0.02, 0.03])
        n = model.n
        H, P0 = build_pcc_sensitivity(model, flat_rho(n), np.zeros(n), np.zeros(n))
        assert H[:n] == pytest.approx(-np.ones(n), abs=1e-5)
        assert H[n:] == pytest.approx(np.zeros(n), abs=1e-5)
        assert P0 == 0.0

    def test_rejects_nonpositive_step(self):
        model = chain([0.01], [0.01])
        with pytest.raises(ValueError, match="step must be positive"):
            build_pcc_sensitivity(model, flat_rho(1), np.zeros(1), np.zeros(1), step=0.0)

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

    def test_p0_measures_offset_from_schedule(self):
        model = chain([0.02], [0.02])
        p0 = np.array([-0.1])
        q0 = np.array([0.0])
        base = solve_power_flow(model, p0, q0)
        _, P0 = build_pcc_sensitivity(model, flat_rho(1), p0, q0, p_sched=base.p_pcc - 0.03)
        assert P0 == pytest.approx(0.03, abs=1e-12)


class TestPredictVoltage:
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

    def test_zero_injections_give_v0(self):
        n = self.sm.n
        assert predict_voltage(self.sm, np.zeros(n), np.zeros(n)) == pytest.approx(self.sm.v0)

    def test_linearity_in_controllables(self):
        rng = np.random.default_rng(8)
        n = self.sm.n
        p1, q1 = rng.normal(0, 0.05, n), rng.normal(0, 0.05, n)
        p2, q2 = rng.normal(0, 0.05, n), rng.normal(0, 0.05, n)
        a = 0.3
        lhs = predict_voltage(self.sm, a * p1 + (1 - a) * p2, a * q1 + (1 - a) * q2)
        rhs = a * predict_voltage(self.sm, p1, q1) + (1 - a) * predict_voltage(self.sm, p2, q2)
        assert lhs == pytest.approx(rhs, abs=1e-14)
        double = predict_voltage(self.sm, 2 * p1, 2 * q1) - self.sm.v0
        single = predict_voltage(self.sm, p1, q1) - self.sm.v0
        assert double == pytest.approx(2 * single, abs=1e-14)

    def test_small_injection_accuracy_vs_solver(self):
        rng = np.random.default_rng(17)
        n = self.sm.n
        for _ in range(10):
            p = rng.uniform(-0.05, 0.05, n)
            q = rng.uniform(-0.05, 0.05, n)
            pred = predict_voltage(self.sm, p, q)
            ref = solve_power_flow(self.model, p, q, tol=1e-12).v[1:]
            assert np.max(np.abs(pred - ref)) < 5e-3

    def test_first_order_error_scaling(self):
        rng = np.random.default_rng(4)
        n = self.sm.n
        p = rng.uniform(0.05, 0.15, n)
        q = rng.uniform(0.02, 0.08, n)

        def err(scale):
            pred = predict_voltage(self.sm, scale * p, scale * q)
            ref = solve_power_flow(self.model, scale * p, scale * q, tol=1e-12).v[1:]
            return np.max(np.abs(pred - ref))

        assert err(1.0) / err(0.5) >= 3.5


class TestSensitivityModelInvariants:
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

    def test_exact_at_construction_point(self):
        rng = np.random.default_rng(31)
        model = random_feeder(rng, 4)
        n = model.n
        p_c = rng.uniform(-0.05, 0.05, n)
        q_c = rng.uniform(-0.05, 0.05, n)
        sol = solve_power_flow(model, p_c, q_c, tol=1e-12)
        rho = SchedulingPoint(v_meas=sol.v[1:], r_t=0.02, omega=1.0, omega_star=1.0)
        sm = build_sensitivity_model(model, rho, p_c, q_c, p_c, q_c)
        assert predict_voltage(sm, p_c, q_c) == pytest.approx(sol.v[1:], abs=1e-14)


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
