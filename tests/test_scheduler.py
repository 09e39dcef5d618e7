"""Scheduler tests: closed-form CVaR rows, gradients, saddle tracking, plug-and-play."""

import copy
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from droopsched.droop import PV, CapabilitySet, DerUnit, DroopGains
from droopsched.linmodel import SchedulingPoint, build_rx, build_sensitivity_model
from droopsched.network import solve_power_flow
from droopsched.scenarios import ieee37_shaped_feeder, random_radial_feeder, six_bus_feeder, six_bus_pv_units
from droopsched.scheduler import (
    SchedulerConfig,
    SchedulerState,
    _affine,
    draw_samples,
    freq_error,
    primal_dual_step,
    schedule_step,
)
from droopsched.stability import StabilityParams, check_gains, compute_gamma, project_gains

from .oracles import (
    central_difference,
    cost,
    initial_state_reference,
    lagrangian,
    primal_dual_reference,
    saa_cvar_row,
    saddle_point,
    scattered_response,
)


def desk_instance(
    omega=1.0005,
    pv_inj=0.30,
    noise_std=0.015,
    seed=101,
    phi=2e-3,
    psi=2e-3,
):
    """Frozen 3-DER / 6-bus overvoltage instance used in saddle tests.

    Built honestly from the nonlinear solver: PV units inject at their
    setpoints, producing measured overvoltage; the affine model is
    anchored there with zero droop deviations (initial gains are zero).

    The voltage step is 1 / (2 cost_w_pv^2), so the slowest gain mode is
    k_qv, which keeps 1 - (cost_w_qv / cost_w_pv)^2 = 8/9 of its distance
    to the saddle per step.
    """
    model = six_bus_feeder()
    n = model.n
    nodes = [4, 5, 6]
    p_base = np.zeros(n)
    q_base = np.zeros(n)
    p_base[[3, 4, 5]] = pv_inj  # nodes 4,5,6
    p_base[[0, 1]] = -0.02
    sol = solve_power_flow(model, p_base, q_base, tol=1e-12)
    rho = SchedulingPoint(v_meas=sol.v[1:], r_t=0.02, omega=omega, omega_star=1.0, timestamp=7.0)
    sm = build_sensitivity_model(model, rho, np.zeros(n), np.zeros(n), p_base, q_base)
    cfg = SchedulerConfig(
        phi=phi,
        psi=psi,
        beta=0.1,
        noise_std=noise_std,
        e_min=-2e-6,
        e_max=2e-6,
        cost_w_pv=0.03,
        cost_w_qv=0.01,
        cost_w_f=1.0,
    )
    taus = np.full(n, 0.2)
    stab = StabilityParams(gamma=compute_gamma(sm, taus, taus))
    state = SchedulerState.initial(nodes, n, cfg, seed=seed)
    return model, sm, rho, cfg, stab, state, nodes


def voltage_model(sm, state, rho):
    """The step's voltage prediction: the first output of ``_affine``."""
    return _affine(sm, state, rho)[0]


def row_curvature(state, sm, rho, cfg):
    """Each bus's dual-row curvature beta^2 sum_j J_ij^2 / (2 w_j^2) + phi, unit by unit.

    J_ij is the slope of bus i's voltage in gain j, R or X times unit j's
    measured deviation, and w_j that gain's cost weight.
    """
    d = np.full(sm.n, cfg.phi)
    for node in state.der_nodes:
        dv = rho.v_meas[node - 1] - rho.v_star
        d += cfg.beta**2 * ((sm.R[:, node - 1] * dv) ** 2 / (2 * cfg.cost_w_pv**2))
        d += cfg.beta**2 * ((sm.X[:, node - 1] * dv) ** 2 / (2 * cfg.cost_w_qv**2))
    return np.concatenate([d, d])


def dual_from(state, sm, rho, cfg, mu0):
    """mu after one step from mu = mu0 (a scalar for every row, or one per row).

    That is [mu0 + (l - phi mu0) / (2 d)]_+ for the step's CVaR rows l and
    their curvatures d.  Large taus keep the primal half from clipping.
    """
    taus = np.full(state.m, 100.0)
    start = replace(state, mu=np.full(2 * sm.n, mu0))
    return primal_dual_step(start, sm, rho, cfg, StabilityParams(gamma=1.0), taus, taus).mu


def step_rows(state, sm, rho, cfg):
    """The step's CVaR rows, read back from one dual update at mu = 0.1 / d.

    d >= phi, so the update 0.1 / d + (l - 0.1 phi / d) / (2 d) stays
    positive for every row l above -0.1, where the rows here lie.  It is
    at most 0.15 / d, so reading a row back costs a few 1e-17.
    """
    d = row_curvature(state, sm, rho, cfg)
    mu0 = 0.1 / d
    return (dual_from(state, sm, rho, cfg, mu0) - mu0) * (2 * d) + cfg.phi * mu0


def simple_state(nodes=(4, 5, 6), n=6, cfg=None, seed=0):
    cfg = cfg or SchedulerConfig()
    return SchedulerState.initial(list(nodes), n, cfg, seed=seed)


class TestSchedulerConfig:
    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(phi=-1.0), "phi must be finite and positive"),
            (dict(psi=np.nan), "psi must be finite and positive"),
            (dict(tau_s=np.nan), "tau_s must be finite and positive"),
            (dict(tau_s=np.inf), "tau_s must be finite and positive"),
            (dict(v_min=1.1), "v_min must be below v_max"),
            (dict(v_max=0.9), "v_min must be below v_max"),
            (dict(e_max=-0.02), "e_min must be below e_max"),
            (dict(noise_std=np.nan), "noise_std must be finite and nonnegative"),
            (dict(noise_std=np.inf), "noise_std must be finite and nonnegative"),
            (dict(beta=np.nan), r"beta must lie in \(0, 1\)"),
            (dict(cost_w_pv=np.nan), "cost_w_pv must be finite and positive, and so must its square"),
            (dict(cost_w_pv=-1.0), "cost_w_pv must be finite and positive, and so must its square"),
            (dict(cost_w_qv=-np.inf), "cost_w_qv must be finite and positive, and so must its square"),
            (dict(cost_w_f=np.nan), "cost_w_f must be finite and positive, and so must its square"),
            # a zero weight leaves its gain no curvature to scale the step by; a
            # square of 0 divided the row curvatures by zero, a subnormal one made
            # them inf, and one of inf froze the gains
            (dict(cost_w_pv=0.0), "cost_w_pv must be finite and positive, and so must its square"),
            (dict(cost_w_qv=1e-200), "cost_w_qv must be finite and positive, and so must its square"),
            (dict(cost_w_qv=1e-160), "cost_w_qv must be finite and positive, and so must its square"),
            (dict(cost_w_pv=1e200), "cost_w_pv must be finite and positive, and so must its square"),
            (dict(cost_w_f=0.0), "cost_w_f must be finite and positive, and so must its square"),
            (dict(cost_w_f=np.inf), "cost_w_f must be finite and positive, and so must its square"),
            (dict(v_min=-np.inf), "v_min must be finite"),
            (dict(v_max=np.inf), "v_max must be finite"),
            (dict(e_min=-np.inf), "e_min must be finite"),
            (dict(e_max=np.inf), "e_max must be finite"),
        ],
    )
    def test_rejects_nan_inf_and_out_of_range_naming_the_field(self, kw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SchedulerConfig(**kw)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v_min", "v_max", "e_min", "e_max"])
    def test_a_bound_that_is_not_finite_is_named_before_the_ordering(self, name, value):
        # a NaN v_min or e_max, and an inf on the wrong side, used to be reported as out of order
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SchedulerConfig(**{name: value})

    # a valid value other than the default, for every field
    OTHER = dict(
        phi=1e-3,
        psi=2e-3,
        beta=0.2,
        noise_std=0.02,
        v_min=0.9,
        v_max=1.1,
        e_min=-0.02,
        e_max=0.02,
        cost_w_pv=0.5,
        cost_w_qv=0.6,
        cost_w_f=1.0,
        tau_s=10.0,
    )

    @pytest.mark.parametrize("name", [f.name for f in fields(SchedulerConfig)])
    def test_replace_agrees_with_construction(self, name):
        value = self.OTHER[name]
        assert getattr(SchedulerConfig(), name) != value
        assert replace(SchedulerConfig(), **{name: value}) == SchedulerConfig(**{name: value})


class TestDrawSamples:
    def test_zero_noise_gives_zero_samples(self):
        cfg = SchedulerConfig(noise_std=0.0)
        s = draw_samples(np.ones(4), cfg, 3, 100)
        assert np.all(s == 0.0)

    def test_deterministic_under_seed(self):
        cfg = SchedulerConfig()
        a = draw_samples(np.ones(4), cfg, 17, 100)
        b = draw_samples(np.ones(4), cfg, 17, 100)
        assert np.array_equal(a, b)

    def test_moments(self):
        cfg = SchedulerConfig()
        v = np.array([1.0, 1.05])
        s = draw_samples(v, cfg, 5, 100_000)
        std = cfg.noise_std * v
        assert s.shape == (100_000, 2)
        assert np.all(np.abs(s.mean(axis=0)) < 3 * std / np.sqrt(100_000))
        assert s.std(axis=0) == pytest.approx(std, rel=0.02)

    def test_defaults_match_reported_protocol(self):
        cfg = SchedulerConfig()
        assert cfg.noise_std == 0.015
        assert cfg.phi == 3e-4
        assert cfg.beta == 0.1


class TestVoltageModel:
    def test_zero_gains_return_offset(self):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        assert voltage_model(sm, state, rho) == pytest.approx(sm.v0)

    def test_affine_in_kappa_v(self):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        rng = np.random.default_rng(0)
        k1 = rng.normal(0, 1, 2 * state.m)
        k2 = rng.normal(0, 1, 2 * state.m)
        a = 0.37
        vm = voltage_model(sm, replace(state, kappa_v=a * k1 + (1 - a) * k2), rho)
        v1 = voltage_model(sm, replace(state, kappa_v=k1), rho)
        v2 = voltage_model(sm, replace(state, kappa_v=k2), rho)
        assert vm == pytest.approx(a * v1 + (1 - a) * v2, abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        dv = rho.v_meas - rho.v_star
        idx = np.asarray(state.der_nodes) - 1
        for i_bus in range(sm.n):
            def vm_i(kv, i_bus=i_bus):
                return voltage_model(sm, replace(state, kappa_v=kv), rho)[i_bus]

            g = central_difference(vm_i, np.zeros(2 * state.m), 1e-6)
            expect = np.concatenate([sm.R[i_bus, idx] * dv[idx], sm.X[i_bus, idx] * dv[idx]])
            assert g == pytest.approx(expect, abs=1e-8)


class TestCvarConstraints:
    """Each row is beta x + sigma_i phi(Phi^-1(beta)): upper x = vm - v_max, lower x = v_min - vm."""

    def test_zero_noise_rows_are_beta_times_the_violation(self):
        _, sm, rho, cfg, _, state, _ = desk_instance(noise_std=0.0)
        vm = voltage_model(sm, state, rho)
        rows = cfg.beta * np.concatenate([vm - cfg.v_max, cfg.v_min - vm])
        assert (rows > 0).sum() == 3  # overvoltage at the three PV buses
        mu = dual_from(state, sm, rho, cfg, 0.0)
        assert np.all(mu[rows <= 0] == 0.0)
        assert mu == pytest.approx(np.maximum(rows, 0.0) / (2 * row_curvature(state, sm, rho, cfg)), rel=1e-14)

    @pytest.mark.parametrize("beta", [0.02, 0.1, 0.5, 0.9])
    def test_match_scipy_term_by_term(self, beta):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        cfg = replace(cfg, beta=beta, noise_std=0.02)
        rng = np.random.default_rng(9)
        state = replace(state, kappa_v=rng.normal(0, 0.5, 2 * state.m), kappa_f=rng.normal(0, 0.5, 2 * state.m))
        vm = voltage_model(sm, state, rho)
        spread = cfg.noise_std * rho.v_meas * norm.pdf(norm.isf(beta))
        expect = np.concatenate([beta * (vm - cfg.v_max) + spread, beta * (cfg.v_min - vm) + spread])
        assert step_rows(state, sm, rho, cfg) == pytest.approx(expect, rel=0, abs=1e-15)

    @pytest.mark.parametrize("beta", [1e-300, 1e-17, 1e-9])
    def test_tiny_risk_level_gives_finite_rows(self, beta):
        # 1 - beta rounds to 1 below about 1e-16, where inv_cdf(1 - beta) raises
        _, sm, rho, cfg, _, state, _ = desk_instance()
        cfg = replace(cfg, beta=beta)
        vm = voltage_model(sm, state, rho)
        spread = cfg.noise_std * rho.v_meas * norm.pdf(norm.isf(beta))
        upper = beta * (vm - cfg.v_max) + spread
        mu = dual_from(state, sm, rho, cfg, 0.0)
        assert np.all(np.isfinite(mu)) and np.all(upper > 0)
        assert mu[: sm.n] == pytest.approx(upper / (2 * row_curvature(state, sm, rho, cfg)[: sm.n]), rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        x=st.floats(-0.05, 0.05),
        noise_std=st.floats(1e-3, 0.05),
        beta=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_sample_average_row(self, x, noise_std, beta, seed):
        # a sample-average row misses the Gaussian one by O(sigma / sqrt(N)): its
        # CLT std is that of max(xi - q, 0), at most 0.71 sigma / sqrt(N) for beta <= 0.5;
        # over 480 rows of 40 random draws the worst miss was 1.45 sigma / sqrt(N)
        _, sm, rho, cfg, _, state, _ = desk_instance()
        vm = voltage_model(sm, state, rho)
        v_max = float(vm[0]) - x  # the first upper row sits at margin x
        cfg = replace(cfg, beta=beta, noise_std=noise_std, v_max=v_max, v_min=v_max - 0.1)
        n_samples = 10**5
        xi = draw_samples(rho.v_meas, cfg, seed, n_samples)
        rows = step_rows(state, sm, rho, cfg)
        tol = 5.0 * noise_std * rho.v_meas / np.sqrt(n_samples)
        for i in range(sm.n):
            assert abs(rows[i] - saa_cvar_row(vm[i] - cfg.v_max, xi[:, i], beta)) <= tol[i]
            assert abs(rows[sm.n + i] - saa_cvar_row(cfg.v_min - vm[i], -xi[:, i], beta)) <= tol[i]


class TestFreqError:
    def test_zero_when_all_terms_vanish(self):
        _, sm, rho0, cfg, _, state, _ = desk_instance(omega=1.0)
        # d_omega = 0 and zero gains: error reduces to P0 = 0
        assert freq_error(sm, state, rho0) == pytest.approx(0.0, abs=1e-15)

    def test_affine_slope_matches_finite_differences(self):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        def e_of(kf):
            return freq_error(sm, replace(state, kappa_f=kf), rho)

        g = central_difference(e_of, np.zeros(2 * state.m), 1e-5)
        idx = np.asarray(state.der_nodes) - 1
        expect = np.concatenate([sm.H[: sm.n][idx], sm.H[sm.n :][idx]]) * rho.d_omega
        assert g == pytest.approx(expect, abs=1e-10)

    def test_exact_cancellation(self):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        idx = np.asarray(state.der_nodes) - 1
        h_p = sm.H[: sm.n][idx]
        kf = np.zeros(2 * state.m)
        # put all response on the first unit's active-power gain
        kf[0] = rho.r_t / h_p[0]
        e = freq_error(sm, replace(state, kappa_f=kf), rho)
        assert e == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r_t", [0.02, -0.02])
    def test_zero_gains_leave_minus_the_tso_requirement(self, r_t):
        # the PCC adjustment is P0 = 0 here, so the error is -R_T d_omega: with a
        # nonpositive R_T, over-frequency leaves a nonnegative error
        _, sm, rho, _, _, state, _ = desk_instance(omega=1.001)
        e = freq_error(sm, state, replace(rho, r_t=r_t))
        assert e == pytest.approx(-r_t * 1e-3, rel=1e-9)
        assert np.sign(e) == -np.sign(r_t)

    @pytest.mark.parametrize("kf", [0.0, 0.01, -0.01])
    def test_band_rows_read_back_from_one_dual_update(self, kf):
        # lam0 = 1 / d_lam keeps both band multipliers positive after the
        # update lam0 + (r - psi lam0) / (2 d_lam), so the rows read back as
        # [e_min - e, e - e_max]
        _, sm, rho, _, stab, state, _ = desk_instance()
        cfg = SchedulerConfig(e_min=-0.01, e_max=0.02, cost_w_f=1.0)
        state = replace(state, kappa_f=np.full(2 * state.m, kf))
        e = freq_error(sm, state, rho)
        grad_e = _affine(sm, state, rho)[3]
        d_lam = grad_e @ (grad_e / (2.0 * state.w_f**2)) + cfg.psi
        lam0 = np.full(2, 1.0 / d_lam)
        taus = np.full(state.m, 100.0)
        out = primal_dual_step(replace(state, lam=lam0), sm, rho, cfg, stab, taus, taus)
        rows = (out.lam - lam0) * (2.0 * d_lam) + cfg.psi * lam0
        assert rows == pytest.approx([cfg.e_min - e, e - cfg.e_max], abs=1e-12)


class TestCost:
    def test_zero(self):
        state = simple_state()
        assert cost(state, SchedulerConfig()) == 0.0

    def test_single_active_gain_weighting(self):
        cfg = SchedulerConfig(cost_w_f=1.0)
        state = simple_state(cfg=cfg)
        kv = np.zeros(2 * state.m)
        kv[0] = 1.0  # one k_pv entry, weight 0.3
        assert cost(replace(state, kappa_v=kv), cfg) == pytest.approx(0.09)
        kv2 = np.zeros(2 * state.m)
        kv2[state.m] = 1.0  # one k_qv entry, weight 0.1
        assert cost(replace(state, kappa_v=kv2), cfg) == pytest.approx(0.01)

    def test_quadratic_homogeneity(self):
        cfg = SchedulerConfig(cost_w_f=1.0)
        rng = np.random.default_rng(2)
        state = simple_state(cfg=cfg)
        state = replace(state, kappa_v=rng.normal(0, 1, 2 * state.m), kappa_f=rng.normal(0, 1, 2 * state.m))
        c1 = cost(state, cfg)
        c2 = cost(replace(state, kappa_v=2 * state.kappa_v, kappa_f=2 * state.kappa_f), cfg)
        assert c2 == pytest.approx(4 * c1, rel=1e-12)

    def test_random_per_unit_weights_are_seeded_and_in_range(self):
        cfg = SchedulerConfig()  # cost_w_f None -> per-node draw
        s1 = simple_state(cfg=cfg, seed=42)
        s2 = simple_state(cfg=cfg, seed=42)
        assert np.array_equal(s1.w_f, s2.w_f)
        assert np.all((s1.w_f >= 0.9) & (s1.w_f <= 1.1))


class TestLagrangian:
    def test_reduces_to_cost_when_duals_zero(self):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        state = replace(state, kappa_v=np.full(2 * state.m, -0.2))
        assert lagrangian(state, sm, rho, cfg) == pytest.approx(cost(state, cfg))

    def test_strict_concavity_in_mu(self):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        rng = np.random.default_rng(3)
        mu1 = rng.uniform(0, 2, 2 * sm.n)
        mu2 = rng.uniform(0, 2, 2 * sm.n)
        mid = lagrangian(replace(state, mu=(mu1 + mu2) / 2), sm, rho, cfg)
        avg = 0.5 * lagrangian(replace(state, mu=mu1), sm, rho, cfg) + 0.5 * lagrangian(
            replace(state, mu=mu2), sm, rho, cfg
        )
        gap = cfg.phi / 8 * np.sum((mu1 - mu2) ** 2)
        assert mid >= avg + gap - 1e-12

    def test_matches_term_by_term_oracle(self):
        _, sm, rho, cfg, _, state, _ = desk_instance()
        rng = np.random.default_rng(4)
        state = replace(
            state,
            kappa_v=rng.normal(0, 0.5, 2 * state.m),
            kappa_f=rng.normal(0, 0.5, 2 * state.m),
            mu=rng.uniform(0, 3, 2 * sm.n),
            lam=rng.uniform(0, 3, 2),
        )
        _, e, _, _ = _affine(sm, state, rho)
        l_val = step_rows(state, sm, rho, cfg)
        r_val = np.array([cfg.e_min - e, e - cfg.e_max])
        expected = (
            cost(state, cfg)
            + state.mu @ l_val
            + state.lam @ r_val
            - cfg.phi / 2 * state.mu @ state.mu
            - cfg.psi / 2 * state.lam @ state.lam
        )
        assert lagrangian(state, sm, rho, cfg) == pytest.approx(expected, rel=1e-12)


class TestPrimalDualStep:
    def test_unconstrained_contraction_factor(self):
        # healthy voltages, zero duals: the step 1 / (2 max(w)^2) takes each gain
        # by 1 - (w / max(w))^2, so k_pv goes to 0 and k_qv keeps 8/9
        model, sm, rho, cfg, stab, state, nodes = desk_instance(
            pv_inj=0.0, noise_std=0.0, omega=1.0
        )
        cfg2 = SchedulerConfig(cost_w_f=1.0, e_min=-1.0, e_max=1.0)
        kv0 = np.array([0.5, -0.4, 0.3, -0.2, 0.1, -0.6])
        state = replace(state, kappa_v=kv0.copy())
        taus = np.full(3, 0.2)
        out = primal_dual_step(state, sm, rho, cfg2, stab, taus, taus)
        wv = np.array([0.3, 0.3, 0.3, 0.1, 0.1, 0.1])
        assert out.kappa_v == pytest.approx((1 - (wv / 0.3) ** 2) * kv0, rel=1e-12, abs=1e-15)
        assert np.all(out.mu == 0.0) and np.all(out.kappa_f == 0.0)

    def test_violated_row_raises_dual_by_half_its_jacobi_step(self):
        # noise-free rows are beta times the violation; from mu = 0 one step adds
        # that over twice the row's curvature beta^2 sum_j J_ij^2 / (2 w_j^2) + phi
        model, sm, rho, cfg, stab, state, nodes = desk_instance(noise_std=0.0)
        cfg2 = SchedulerConfig(phi=1e-8, noise_std=0.0, cost_w_f=1.0)
        vm = voltage_model(sm, state, rho)
        l0 = cfg2.beta * np.concatenate([vm - cfg2.v_max, cfg2.v_min - vm])
        taus = np.full(3, 0.2)
        out = primal_dual_step(state, sm, rho, cfg2, stab, taus, taus)
        violated = l0 > 0
        assert violated.any()
        d = row_curvature(state, sm, rho, cfg2)
        assert out.mu[violated] == pytest.approx(l0[violated] / (2 * d[violated]), rel=1e-12)
        assert np.all(out.mu[~violated] == 0.0)

    def test_nonnegativity_invariants(self):
        _, sm, rho, cfg, stab, state, _ = desk_instance()
        taus = np.full(3, 0.2)
        for _ in range(50):
            state = primal_dual_step(state, sm, rho, cfg, stab, taus, taus)
            assert np.all(state.mu >= 0)
            assert np.all(state.lam >= 0)

    def test_stability_gate_after_every_step(self):
        from droopsched.droop import DroopGains

        _, sm, rho, cfg, stab, state, _ = desk_instance()
        taus = np.full(3, 0.2)
        m = state.m
        for _ in range(60):
            state = primal_dual_step(state, sm, rho, cfg, stab, taus, taus)
            for i in range(m):
                g = DroopGains(k_pv=state.kappa_v[i], k_qv=state.kappa_v[m + i])
                assert check_gains(g, taus[i], taus[i], stab)

    def test_stale_model_rejected(self):
        _, sm, rho, cfg, stab, state, _ = desk_instance()
        rho2 = SchedulingPoint(
            v_meas=rho.v_meas, r_t=rho.r_t, omega=rho.omega, omega_star=1.0, timestamp=rho.timestamp + 30
        )
        with pytest.raises(ValueError, match="stale"):
            primal_dual_step(state, sm, rho2, cfg, stab, np.full(3, 0.2), np.full(3, 0.2))

    def test_model_of_an_equal_point_is_stale(self):
        # a field-wise twin of rho, timestamp included, is another measurement
        _, sm, rho, cfg, stab, state, _ = desk_instance()
        twin = replace(rho)
        assert twin.timestamp == rho.timestamp and np.array_equal(twin.v_meas, rho.v_meas)
        with pytest.raises(ValueError, match="^stale sensitivity model: built at another scheduling point$"):
            primal_dual_step(state, sm, twin, cfg, stab, np.full(3, 0.2), np.full(3, 0.2))

    @pytest.mark.parametrize("name", ["tau_p", "tau_q"])
    @pytest.mark.parametrize("bad", [np.full(1, 0.2), np.full(4, 0.2), np.full((3, 1), 0.2)], ids=["1", "4", "3x1"])
    def test_rejects_taus_not_one_per_online_unit(self, name, bad):
        # a length-1 tau used to broadcast over all three units without an error
        _, sm, rho, cfg, stab, state, _ = desk_instance()
        taus = {"tau_p": np.full(3, 0.2), "tau_q": np.full(3, 0.2), name: bad}
        with pytest.raises(ValueError, match=rf"^{name} must have shape \(3,\)$"):
            primal_dual_step(state, sm, rho, cfg, stab, **taus)

    @pytest.mark.parametrize("name", ["tau_p", "tau_q"])
    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -0.2])
    def test_rejects_time_constant_not_finite_and_positive(self, name, tau):
        # a NaN or negative tau let the unit's next gains past the stability gate
        _, sm, rho, cfg, stab, state, _ = desk_instance()
        taus = {"tau_p": np.full(3, 0.2), "tau_q": np.full(3, 0.2)}
        taus[name][0] = tau
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
            primal_dual_step(state, sm, rho, cfg, stab, **taus)

    def test_refuses_voltage_gains_diverged_past_the_bound(self):
        # such a state came back projected to the region's apex, hiding the divergence
        _, sm, rho, cfg, stab, state, _ = desk_instance()
        taus = np.full(3, 0.2)
        far = replace(state, kappa_v=np.full(2 * state.m, 2.0**65 * stab.gamma * 0.2))
        with pytest.raises(ValueError, match=r"^k / tau must lie within 2\*\*64 gamma where it clips: refused as diverged$"):
            primal_dual_step(far, sm, rho, cfg, stab, taus, taus)

    def test_rejects_a_state_built_for_another_feeder(self):
        # numpy used to fail broadcasting a (14,) mu against the (12,) rows
        _, sm, rho, cfg, stab, state, nodes = desk_instance()
        taus = np.full(3, 0.2)
        message = r"^mu must have shape \(12,\): the state was built for another feeder$"
        for other in (
            SchedulerState.initial(nodes, 7, cfg),
            replace(state, mu=np.zeros(14)),
            replace(state, mu=np.zeros(10)),
        ):
            with pytest.raises(ValueError, match=message):
                primal_dual_step(other, sm, rho, cfg, stab, taus, taus)
            with pytest.raises(ValueError, match=message):
                schedule_step(other, sm, rho, six_bus_pv_units(), cfg, stab, sample_seed=9)

    def test_gradient_signals_match_lagrangian_differences(self):
        # the rows are affine, so L is a quadratic in the gains, taken here with
        # the other gain block's response held at the starting point.  At the
        # refreshed multipliers the voltage step is its gradient times
        # 1 / (2 max(w)^2), and the frequency gains are its minimizer: its
        # gradient there is 0, so at the start it is 2 w_f^2 (kf - kf_out).
        # Taus of 100 s keep every pair inside the region and the box wide.
        _, sm, rho, cfg, stab, state, _ = desk_instance()
        rng = np.random.default_rng(31)
        state = replace(
            state,
            kappa_v=rng.normal(0, 0.3, 2 * state.m),
            kappa_f=rng.normal(0, 0.3, 2 * state.m),
            mu=rng.uniform(0.1, 2, 2 * sm.n),
            lam=rng.uniform(0.1, 2, 2),
        )
        taus = np.full(state.m, 100.0)
        out = primal_dual_step(state, sm, rho, cfg, stab, taus, taus)
        at = replace(state, mu=out.mu, lam=out.lam)
        h = 1e-7

        def L_of_kv(kv):
            return lagrangian(replace(at, kappa_v=kv), sm, rho, cfg, held=state)

        g_kv = central_difference(L_of_kv, state.kappa_v, h)
        step_v = 0.5 / max(cfg.cost_w_pv, cfg.cost_w_qv) ** 2
        assert g_kv == pytest.approx((state.kappa_v - out.kappa_v) / step_v, rel=1e-6, abs=1e-9)

        def L_of_kf(kf):
            return lagrangian(replace(at, kappa_f=kf), sm, rho, cfg, held=state)

        g_kf = central_difference(L_of_kf, state.kappa_f, h)
        assert np.abs(out.kappa_f).max() < stab.kf_bound
        assert g_kf == pytest.approx(2 * state.w_f**2 * (state.kappa_f - out.kappa_f), rel=1e-6, abs=1e-9)


def reference_step(state, sm, rho, cfg, stab, tau_p, tau_q):
    """The primal-dual step unit by unit: scalar project_gains per unit,
    scipy's normal density for the CVaR rows, the row curvatures summed
    unit by unit, and two evaluations of the voltage model, one for the
    dual and one for the gradient signals, with J.T applied to each
    bound's term separately."""
    n, m = sm.n, state.m
    idx = np.asarray(state.der_nodes) - 1
    dv = rho.v_meas - rho.v_star
    vm = voltage_model(sm, state, rho)
    spread = cfg.noise_std * rho.v_meas * norm.pdf(norm.isf(cfg.beta))
    l_val = np.concatenate([cfg.beta * (vm - cfg.v_max) + spread, cfg.beta * (cfg.v_min - vm) + spread])
    e = freq_error(sm, state, rho)
    r_val = np.array([cfg.e_min - e, e - cfg.e_max])
    ge = np.concatenate([sm.H[:n][idx], sm.H[n:][idx]]) * rho.d_omega
    mu = np.maximum(state.mu + (l_val - cfg.phi * state.mu) / (2 * row_curvature(state, sm, rho, cfg)), 0.0)
    lam = np.maximum(state.lam + (r_val - cfg.psi * state.lam) / (2 * (np.sum(ge**2 / (2 * state.w_f**2)) + cfg.psi)), 0.0)

    J = np.concatenate([sm.R[:, idx] * dv[idx], sm.X[:, idx] * dv[idx]], axis=1)
    s_v = J.T @ (cfg.beta * mu[:n]) - J.T @ (cfg.beta * mu[n:])
    s_f = (lam[1] - lam[0]) * ge

    wv = np.concatenate([np.full(m, cfg.cost_w_pv), np.full(m, cfg.cost_w_qv)])
    kappa_v = state.kappa_v - (2.0 * wv**2 * state.kappa_v + s_v) / (2 * max(cfg.cost_w_pv, cfg.cost_w_qv) ** 2)
    kappa_f = -s_f / (2.0 * state.w_f**2)
    for i in range(m):
        g = project_gains(
            DroopGains(k_pv=kappa_v[i], k_pf=kappa_f[i], k_qv=kappa_v[m + i], k_qf=kappa_f[m + i]),
            tau_p[i],
            tau_q[i],
            stab,
        )
        kappa_v[i], kappa_v[m + i] = g.k_pv, g.k_qv
        kappa_f[i], kappa_f[m + i] = g.k_pf, g.k_qf
    return replace(state, kappa_v=kappa_v, kappa_f=kappa_f, mu=mu, lam=lam)


class TestGatheredModel:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_linmodel_on_scattered_injections(self, seed):
        # unsorted online nodes, m < n, then a realigned drop-out and m = 0
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        model = random_radial_feeder(n, rng)
        nodes = [int(k) for k in rng.permutation(np.arange(1, n + 1))[: int(rng.integers(1, n))]]
        p_base, q_base = rng.uniform(-0.03, 0.03, (2, n))
        sol = solve_power_flow(model, p_base, q_base)
        rho = SchedulingPoint(
            v_meas=sol.v[1:], r_t=0.02, omega=1.0 + rng.uniform(-2e-3, 2e-3), omega_star=1.0, v_star=0.99
        )
        hp0 = (rng.uniform(-1.1, -0.9, 2 * n), float(rng.normal(0.0, 1e-3)))
        sm = build_sensitivity_model(model, rho, *rng.normal(0.0, 0.01, (2, n)), p_base, q_base, hp0=hp0)
        cfg = SchedulerConfig()
        full = SchedulerState.initial(nodes, n, cfg, seed=seed)
        full = replace(full, **{key: rng.normal(0.0, 1.0, 2 * full.m) for key in ("kappa_v", "kappa_f")})
        dropped = full.realigned([k for k in nodes if k != nodes[0]], cfg)
        for state in (full, dropped, full.realigned([], cfg)):
            p, q = scattered_response(state, rho, n, state.kappa_v, state.kappa_f)
            assert np.max(np.abs(voltage_model(sm, state, rho) - (sm.R @ p + sm.X @ q + sm.v0))) <= 1e-12
            e = sm.P0 + sm.H @ np.concatenate([p, q]) - rho.r_t * (rho.omega - rho.omega_star)
            assert abs(freq_error(sm, state, rho) - e) <= 1e-12


@st.composite
def step_cases(draw):
    """A random feeder, online subset, risk level, noise and iterate, drawn
    so that the stability projection clips some pairs and the box some
    frequency gains; every nonnegative iterate entry may be exactly zero."""
    n = draw(st.integers(2, 40))
    beta = draw(st.sampled_from([1e-300, 1e-17, 0.01, 0.1, 0.5, 0.9]))
    noise_std = draw(st.sampled_from([0.0, 0.015, 0.05]))
    zero_frac = draw(st.sampled_from([0.0, 0.5, 1.0]))
    kf_bound = draw(st.sampled_from([0.0, 1e-3, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_radial_feeder(n, rng)
    order = rng.permutation(np.arange(1, n + 1))
    m = 0 if rng.random() < 0.05 else int(rng.integers(1, n + 1))
    nodes = [int(k) for k in order[:m]]
    p_base, q_base = rng.uniform(-0.03, 0.03, (2, n))
    sol = solve_power_flow(model, p_base, q_base)
    rho = SchedulingPoint(
        v_meas=sol.v[1:], r_t=0.02, omega=1.0 + rng.uniform(-2e-3, 2e-3), omega_star=1.0,
        v_star=float(rng.choice([0.99, 1.0])), timestamp=3.0,
    )
    hp0 = (rng.uniform(-1.1, -0.9, 2 * n), float(rng.normal(0.0, 1e-3)))
    sm = build_sensitivity_model(model, rho, *rng.normal(0.0, 0.01, (2, n)), p_base, q_base, hp0=hp0)
    cfg = SchedulerConfig(beta=beta, noise_std=noise_std, e_min=-1e-3, e_max=1e-3)
    taus = rng.uniform(0.05, 1.0, (2, n))
    stab = StabilityParams(gamma=compute_gamma(sm, *taus), kf_bound=kf_bound)
    tau_p, tau_q = taus[:, order[:m] - 1]
    # scaled pairs up to 3 gamma in each coordinate: many lie outside the region
    a, b = stab.gamma * rng.uniform(-3.0, 3.0, (2, m))

    def nonneg(size):
        return np.where(rng.random(size) < zero_frac, 0.0, np.abs(rng.normal(0.0, 0.05, size)))

    state = replace(
        SchedulerState.initial(nodes, n, cfg, seed=int(rng.integers(100))),
        kappa_v=np.concatenate([a * tau_p, b * tau_q]),
        kappa_f=rng.normal(0.0, 2e-3, 2 * m),
        mu=nonneg(2 * n),
        lam=20.0 * nonneg(2),
    )
    units = [
        DerUnit(node=node, cap=CapabilitySet(kind=PV, s_max=0.4), tau_p=tp, tau_q=tq)
        for node, tp, tq in zip(nodes, tau_p.tolist(), tau_q.tolist())
    ]
    units += [DerUnit(node=int(node), cap=CapabilitySet(kind=PV, s_max=0.4), online=False) for node in order[m:]]
    return state, sm, rho, cfg, stab, units


def assert_same_state(state, ref):
    """Every field equal, arrays bit for bit (signed zeros included)."""
    for f in fields(state):
        got, want = getattr(state, f.name), getattr(ref, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name


class TestStepPinnedToReference:
    """The step's arithmetic is pinned bit for bit to an independent transcription of its formulas."""

    @settings(max_examples=100, deadline=None)
    @given(step_cases())
    def test_primal_dual_step_matches_reference_bit_for_bit(self, case):
        state, sm, rho, cfg, stab, units = case
        tau_p = np.array([u.tau_p for u in units if u.online])
        tau_q = np.array([u.tau_q for u in units if u.online])
        out = primal_dual_step(state, sm, rho, cfg, stab, tau_p, tau_q)
        assert_same_state(out, primal_dual_reference(state, sm, rho, cfg, stab, tau_p, tau_q))

    @settings(max_examples=100, deadline=None)
    @given(step_cases(), st.integers(0, 2**32 - 1))
    def test_schedule_step_state_and_broadcast_match_reference(self, case, seed):
        # the seed is not read: the rows are exact, so no samples are drawn
        state, sm, rho, cfg, stab, units = case
        out, broadcast = schedule_step(state, sm, rho, units, cfg, stab, sample_seed=seed)

        online = [u for u in units if u.online]
        tau_p = np.array([u.tau_p for u in online])
        tau_q = np.array([u.tau_q for u in online])
        ref = primal_dual_reference(state, sm, rho, cfg, stab, tau_p, tau_q)
        assert_same_state(out, ref)
        m = ref.m
        assert broadcast == {
            node: DroopGains(
                k_pv=float(ref.kappa_v[j]),
                k_pf=float(ref.kappa_f[j]),
                k_qv=float(ref.kappa_v[m + j]),
                k_qf=float(ref.kappa_f[m + j]),
            )
            for j, node in enumerate(ref.der_nodes)
        }
        assert tuple(broadcast) == ref.der_nodes
        assert all(type(v) is float for g in broadcast.values() for v in vars(g).values())


class TestFusedStep:
    def test_matches_unit_by_unit_reference(self):
        # tau_q far below tau_p makes k_qv / tau_q large: 789 of the 900
        # unit-steps here end on the stability boundary, and 1797 of the 1800
        # frequency gains at the box, behind which the upper band multiplier
        # grows to about 1250
        _, sm, rho, cfg, _, state, _ = desk_instance()
        tau_p, tau_q = np.full(sm.n, 1.0), np.full(sm.n, 0.005)
        stab = StabilityParams(gamma=compute_gamma(sm, tau_p, tau_q), kf_bound=3e-7)
        tau_p, tau_q = tau_p[:state.m], tau_q[:state.m]
        keys = ("kappa_v", "kappa_f", "mu", "lam")
        g, m = stab.gamma, state.m
        on_boundary = at_kf_bound = 0
        for _ in range(300):
            # one step from each visited point: the steps of unit size in the
            # curvature carry a rounding difference from one step into the next
            ref = reference_step(state, sm, rho, cfg, stab, tau_p, tau_q)
            state = primal_dual_step(state, sm, rho, cfg, stab, tau_p, tau_q)
            for key in keys:
                # relative to the entry: the upper band multiplier reaches 1250
                want = getattr(ref, key)
                assert np.all(np.abs(getattr(state, key) - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), key
            a, b = state.kappa_v[:m] / tau_p, state.kappa_v[m:] / tau_q
            quad = (a - b) ** 2 + 4 * g * (a + b) - 4 * g * g
            on_boundary += int(np.sum(quad > -stab.quad_margin - 1e-12 * (a - b) ** 2))
            at_kf_bound += int(np.sum(np.abs(state.kappa_f) == stab.kf_bound))
        assert on_boundary > 100 and at_kf_bound > 100

    def test_broadcast_across_drop_out(self):
        _, sm, rho, cfg, stab, state, _ = desk_instance()
        units = six_bus_pv_units()
        state, _ = schedule_step(state, sm, rho, units, cfg, stab, sample_seed=9)
        units[1].online = False
        out, broadcast = schedule_step(state, sm, rho, units, cfg, stab, sample_seed=10)
        assert out.der_nodes == (4, 6)
        m = out.m
        expected = {}
        for node in (4, 6):
            i = out.der_nodes.index(node)
            expected[node] = DroopGains(
                k_pv=float(out.kappa_v[i]),
                k_pf=float(out.kappa_f[i]),
                k_qv=float(out.kappa_v[m + i]),
                k_qf=float(out.kappa_f[m + i]),
            )
        assert broadcast == expected
        assert all(type(v) is float for g in broadcast.values() for v in vars(g).values())


class TestSaddleConvergence:
    def test_iterates_approach_oracle_saddle(self):
        model, sm, rho, cfg, stab, state, nodes = desk_instance()
        taus = np.full(3, 0.2)
        keys = ("kappa_v", "kappa_f", "mu", "lam")
        ref = saddle_point(sm, rho, nodes, cfg, state.w_f)

        # fixed point: started at the exact saddle, every key stays there.
        # The rows are affine, so no kink makes the iterates dither: the
        # largest deviation over 4000 steps is 1.2e-13 on this instance, on
        # the upper band multiplier of 17.7.
        at_saddle = replace(state, **{key: ref[key].copy() for key in keys})
        for _ in range(4000):
            at_saddle = primal_dual_step(at_saddle, sm, rho, cfg, stab, taus, taus)
            for key in keys:
                assert np.max(np.abs(getattr(at_saddle, key) - ref[key])) < 1e-12, key

        # approach from the cold start.  The slowest gain mode is k_qv, which
        # keeps 8/9 per step (desk_instance); the saddle has k_qv near -2.4.
        # Every key is within 5e-4 after 51 steps and within 1e-8 after 127.
        for _ in range(200):
            state = primal_dual_step(state, sm, rho, cfg, stab, taus, taus)
        for key in keys:
            assert np.max(np.abs(getattr(state, key) - ref[key])) < 5e-4, key

    @settings(max_examples=25, deadline=None)
    @given(step_cases())
    def test_random_instances_reach_the_saddle_and_again_after_a_drop_out(self, case):
        # taus of 1e6 s keep every pair deep inside the certified set and a box
        # of 10 holds the saddle's frequency gains, so the step's fixed point is
        # the oracle's.  The slowest gain mode, k_qv, keeps 8/9 per step: from
        # a drawn |kappa_v| of 64, the largest in 300 draws, that is 153 steps
        # to 1e-6.  Over those draws the worst took 190 steps from the drawn
        # start and 101 after the drop-out, which starts at the old saddle.
        state, sm, rho, cfg, stab, _ = case
        stab = replace(stab, kf_bound=10.0)
        keys = ("kappa_v", "kappa_f", "mu", "lam")
        for _ in range(2):
            ref = saddle_point(sm, rho, state.der_nodes, cfg, state.w_f)
            taus = np.full(state.m, 1e6)
            for _ in range(250):
                state = primal_dual_step(state, sm, rho, cfg, stab, taus, taus)
            for key in keys:
                assert np.max(np.abs(getattr(state, key) - ref[key]), initial=0.0) < 1e-6, key
            state = state.realigned(state.der_nodes[1:], cfg)

    def test_lagrangian_primal_descent_on_frozen_data(self):
        # at the refreshed multipliers, with the other gain block held, the
        # primal half cannot raise L: the voltage step is 1 / (the cost's
        # largest curvature), projected onto a convex set, and the frequency
        # gains are the box-clipped minimizer of a separable quadratic
        model, sm, rho, cfg, stab, state, nodes = desk_instance()
        taus = np.full(3, 0.2)
        # the duals restart from the same moderate values every step
        rng = np.random.default_rng(6)
        state = replace(state, mu=rng.uniform(0, 1, 2 * sm.n), lam=np.array([0.0, 0.0]))
        frozen_mu, frozen_lam = state.mu.copy(), state.lam.copy()
        for _ in range(40):
            nxt = primal_dual_step(state, sm, rho, cfg, stab, taus, taus)
            before = lagrangian(replace(state, mu=nxt.mu, lam=nxt.lam), sm, rho, cfg)
            assert lagrangian(nxt, sm, rho, cfg, held=state) <= before + 1e-12 * abs(before)
            state = replace(nxt, mu=frozen_mu, lam=frozen_lam)


class TestBoundedWithoutReset:
    def test_ten_thousand_steps_on_the_37_bus_feeder_stay_bounded(self):
        # a PV unit on each of the 36 buses, the default config, no reset.  The
        # sampled rows with their CVaR auxiliaries diverged here: max |kappa_v|
        # 671 at step 2000 and 3.7e14 at step 4000.  With the exact rows and
        # the curvature-scaled step the worst values over 10 000 steps are
        # max |kappa_v| 0.543, max mu 4.73 and lam 63.4; the iterate settles
        # at 0.514, 1.96 and 36.3.
        model = ieee37_shaped_feeder()
        n = model.n
        rng = np.random.default_rng(0)
        load = 0.01 * rng.uniform(0.7, 1.3, n)
        pv = 0.07 * rng.uniform(0.9, 1.1, n)
        p, q = -load + 0.9 * pv, -0.4 * load
        units = [
            DerUnit(node=i + 1, cap=CapabilitySet(kind=PV, s_max=0.08, pf_min=0.8, p_avail=float(pv[i])))
            for i in range(n)
        ]
        sol = solve_power_flow(model, p, q)
        rho = SchedulingPoint(v_meas=sol.v[1:], r_t=0.02 * pv.sum() / 0.001, omega=1.001, omega_star=1.0)
        sm = build_sensitivity_model(model, rho, np.zeros(n), np.zeros(n), p, q)
        taus = np.full(n, 0.2)
        stab = StabilityParams(gamma=compute_gamma(sm, taus, taus))
        cfg = SchedulerConfig()
        state = SchedulerState.initial([u.node for u in units], n, cfg)
        worst = np.zeros(3)
        for k in range(10_000):
            state, _ = schedule_step(state, sm, rho, units, cfg, stab, k)
            worst = np.maximum(worst, [np.abs(state.kappa_v).max(), state.mu.max(), state.lam.max()])
        assert worst[0] <= 1.0 and worst[1] <= 5.0 and worst[2] <= 100.0, worst


# online nodes on the 6-bus feeder that no unit may hold, with the error each raises
BAD_NODES = [
    ((4, 5, 0), "DER node 0 is not a bus of the feeder"),
    ((4, 5, 7), "DER node 7 is not a bus of the feeder"),
    ((4, 5, 4.5), "DER node 4.5 is not a bus of the feeder"),
    ((4, 5, True), "DER node True is not a bus of the feeder"),  # used to pass as bus 1
    ((4, 6, 6), "DER node 6 holds more than one online unit"),
]


class TestScheduleStep:
    def test_quiescent_system_is_fixed_point(self):
        model, sm, rho, cfg, stab, state, nodes = desk_instance(
            pv_inj=0.0, noise_std=0.0, omega=1.0
        )
        cfg2 = SchedulerConfig(noise_std=0.0, cost_w_f=1.0)
        units = six_bus_pv_units()
        state = SchedulerState.initial(nodes, sm.n, cfg2, seed=1)
        out, broadcast = schedule_step(state, sm, rho, units, cfg2, stab, sample_seed=2)
        assert np.all(out.kappa_v == 0.0)
        assert np.all(out.kappa_f == 0.0)
        for g in broadcast.values():
            assert (g.k_pv, g.k_pf, g.k_qv, g.k_qf) == (0.0, 0.0, 0.0, 0.0)

    def test_overvoltage_moves_colocated_der_hardest(self):
        # single overvoltage at bus 4 (a feeder end): after one cycle the
        # DER at bus 4 receives the largest-magnitude voltage-gain change,
        # matching the hand gradient: row scaling by R[:,j]*dv_j
        model = six_bus_feeder()
        n = model.n
        units = six_bus_pv_units()
        p_base = np.zeros(n)
        p_base[3] = 0.5  # bus 4 only
        sol = solve_power_flow(model, p_base, np.zeros(n), tol=1e-12)
        rho = SchedulingPoint(v_meas=sol.v[1:], r_t=0.02, omega=1.0, omega_star=1.0, timestamp=1.0)
        sm = build_sensitivity_model(model, rho, np.zeros(n), np.zeros(n), p_base, np.zeros(n))
        cfg = SchedulerConfig(noise_std=0.0, cost_w_f=1.0)
        taus = np.full(n, 0.2)
        stab = StabilityParams(gamma=compute_gamma(sm, taus, taus))
        state = SchedulerState.initial([4, 5, 6], n, cfg, seed=3)
        assert sol.v[4] > cfg.v_max  # scenario premise
        out, _ = schedule_step(state, sm, rho, units, cfg, stab, sample_seed=4)
        m = out.m
        change = np.abs(out.kappa_v[:m]) + np.abs(out.kappa_v[m:])
        assert np.argmax(change) == 0  # unit at bus 4
        assert change[0] > 0

    @pytest.mark.parametrize("nodes, message", BAD_NODES)
    def test_rejects_node_off_the_feeder_or_repeated(self, nodes, message):
        model, sm, rho, cfg, stab, state, _ = desk_instance()
        units = six_bus_pv_units()
        for u, node in zip(units, nodes):
            u.node = node  # DerUnit rejects node 0 at construction
        before = replace(state, kappa_v=state.kappa_v.copy(), mu=state.mu.copy())
        with pytest.raises(ValueError, match=f"^{message}"):
            schedule_step(state, sm, rho, units, cfg, stab, sample_seed=9)
        assert state.der_nodes == before.der_nodes
        assert np.array_equal(state.kappa_v, before.kappa_v) and np.array_equal(state.mu, before.mu)

    @pytest.mark.parametrize("nodes, message", BAD_NODES)
    def test_initial_rejects_node_off_the_feeder_or_repeated(self, nodes, message):
        # node 0 used to index bus n's column through -1, with no error
        with pytest.raises(ValueError, match=f"^{message}"):
            SchedulerState.initial(list(nodes), six_bus_feeder().n, SchedulerConfig())

    @pytest.mark.parametrize("nodes, message", BAD_NODES)
    def test_realigned_rejects_node_off_the_feeder_or_repeated(self, nodes, message):
        # realigned installs a node list; it used to return a state for any list
        cfg = SchedulerConfig()
        state = SchedulerState.initial([4, 5, 6], six_bus_feeder().n, cfg, seed=3)
        before = copy.deepcopy(state)
        with pytest.raises(ValueError, match=f"^{message}"):
            state.realigned(list(nodes), cfg)
        assert_same_state(state, before)
        assert state.der_nodes == (4, 5, 6)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("cost_w_f", [None, 1.0])
    @pytest.mark.parametrize(
        "nodes, n_bus",
        [([], 6), ([3], 6), ([4, 5, 6], 6), ([6, 4, 5], 6), (list(range(1, 37)), ieee37_shaped_feeder().n)],
        ids=["none", "one", "three", "permuted", "ieee37-all"],
    )
    def test_initial_is_the_first_written_state_bit_for_bit(self, nodes, n_bus, cost_w_f, seed):
        cfg = SchedulerConfig(cost_w_f=cost_w_f)
        state = SchedulerState.initial(nodes, n_bus, cfg, seed=seed)
        assert_same_state(state, initial_state_reference(nodes, n_bus, cfg, seed=seed))
        assert type(state.der_nodes) is tuple

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True, np.float64(2.0)], ids=repr)
    def test_initial_names_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        # each used to pass until a unit plugged in, then fail with numpy's message
        with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer, got {re.escape(repr(seed))}$"):
            SchedulerState.initial([], 6, SchedulerConfig(), seed=seed)

    @pytest.mark.parametrize("n_bus", [0, -1, 1.5, "6", None, True], ids=repr)
    def test_initial_names_an_n_bus_that_is_not_a_positive_integer(self, n_bus):
        with pytest.raises(ValueError, match=rf"^n_bus must be a positive integer, got {re.escape(repr(n_bus))}$"):
            SchedulerState.initial([], n_bus, SchedulerConfig())

    @pytest.mark.parametrize("seed, n_bus", [(0, 1), (np.int64(7), np.int32(6)), (2**70, 6)], ids=repr)
    def test_initial_accepts_integer_seeds_and_sizes_numpy_ones_included(self, seed, n_bus):
        state = SchedulerState.initial([1], n_bus, SchedulerConfig(), seed=seed)
        assert state.seed == seed and state.mu.shape == (2 * n_bus,)

    def test_frequency_weights_are_set_when_a_node_list_is_installed(self):
        # an unchanged list returns the state itself, so a cost_w_f passed
        # with it is not read; a new list fills or draws them from its config
        drawn = SchedulerState.initial([4, 5, 6], 6, SchedulerConfig(), seed=3)
        fixed = SchedulerConfig(cost_w_f=1.0)
        assert drawn.realigned([4, 5, 6], fixed) is drawn
        assert not np.any(drawn.w_f == 1.0)
        assert drawn.realigned([4, 5], fixed).w_f.tolist() == [1.0] * 4
        _, sm, rho, _, stab, _, _ = desk_instance()
        out, _ = schedule_step(drawn, sm, rho, six_bus_pv_units(), fixed, stab, sample_seed=0)
        assert out.w_f is drawn.w_f

    def test_realigned_state_shares_no_array_with_its_source(self):
        # realigned handed on mu and lam: writing s.mu[0] changed t.mu[0]
        cfg = SchedulerConfig()
        s = SchedulerState.initial([4, 5], 6, cfg)
        t = s.realigned([4, 5, 6], cfg)
        s.mu[0] = 7.0
        s.lam[0] = 7.0
        assert t.mu[0] == 0.0 and t.lam[0] == 0.0
        for name in ("kappa_v", "kappa_f", "mu", "lam", "w_f"):
            assert not np.shares_memory(getattr(s, name), getattr(t, name)), name

    def test_state_is_frozen_with_a_tuple_of_nodes(self):
        # a list could grow beside the per-unit arrays: m read 4 beside 6-entry gains
        state = simple_state()
        with pytest.raises(AttributeError):
            state.der_nodes.append(7)
        with pytest.raises(FrozenInstanceError):
            state.der_nodes = (4, 5, 6, 7)
        assert state.m == 3 and state.kappa_v.shape == (6,)

    def test_offline_unit_removed_without_touching_others(self):
        # the unit at bus 5 never participates: the others get the step over
        # the remaining units, whose row curvatures no longer hold bus 5's columns
        model, sm, rho, cfg, stab, state, nodes = desk_instance()
        state = replace(state, kappa_v=np.array([-0.1, -0.2, -0.3, 0.1, 0.2, 0.3]))
        units = six_bus_pv_units()
        units[1].online = False
        out, broadcast = schedule_step(state, sm, rho, units, cfg, stab, sample_seed=9)
        assert out.der_nodes == (4, 6)
        assert 5 not in broadcast
        remaining = state.realigned([4, 6], cfg)
        assert remaining.kappa_v.tolist() == [-0.1, -0.3, 0.1, 0.3]
        taus = np.array([u.tau_p for u in units if u.online]), np.array([u.tau_q for u in units if u.online])
        assert_same_state(out, primal_dual_reference(remaining, sm, rho, cfg, stab, *taus))
        for j, node in enumerate(out.der_nodes):
            assert broadcast[node] == DroopGains(out.kappa_v[j], out.kappa_f[j], out.kappa_v[2 + j], out.kappa_f[2 + j])
