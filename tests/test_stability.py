"""Stability gate tests: gamma, certified region, projection, closed loop."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from droopsched.droop import DroopGains
from droopsched.linmodel import SchedulingPoint, SensitivityModel, build_rx
from droopsched.scenarios import six_bus_feeder
from droopsched.stability import (
    StabilityParams,
    check_gains,
    closed_loop_matrix,
    compute_gamma,
    project_gains,
    project_voltage_gains,
)

from .oracles import lyapunov_value, power_iteration_lambda_max, two_clause_check_gains


def make_sm(R, X):
    n = R.shape[0]
    rho = SchedulingPoint(v_meas=np.ones(n), r_t=0.02, omega=1.0, omega_star=1.0)
    return SensitivityModel(R=R, X=X, v0=np.ones(n), H=np.zeros(2 * n), P0=0.0, rho=rho)


def six_bus_sm():
    model = six_bus_feeder()
    R, X = build_rx(model)
    return make_sm(R, X)


class TestComputeGamma:
    def test_identity(self):
        sm = make_sm(np.eye(2), np.eye(2))
        assert compute_gamma(sm, np.ones(2), np.ones(2)) == pytest.approx(1.0)

    def test_scaling_cancellation(self):
        sm = make_sm(2 * np.eye(2), 2 * np.eye(2))
        g = compute_gamma(sm, np.full(2, 0.5), np.full(2, 0.5))
        assert g == pytest.approx(1.0)

    def test_six_bus_matches_power_iteration(self):
        sm = six_bus_sm()
        n = sm.n
        taus = np.full(n, 0.2)
        g = compute_gamma(sm, taus, taus)
        GT = block_diag(sm.R, sm.X) @ np.diag(np.concatenate([taus, taus]))
        lam = power_iteration_lambda_max(GT)
        assert abs(g - 1.0 / lam) <= 1e-10 * abs(g)
        assert g > 0

    def test_positive_on_random_feeders(self):
        from droopsched.scenarios import random_radial_feeder

        rng = np.random.default_rng(23)
        for _ in range(10):
            model = random_radial_feeder(int(rng.integers(1, 9)), rng)
            R, X = build_rx(model)
            sm = make_sm(R, X)
            n = sm.n
            g = compute_gamma(sm, rng.uniform(0.1, 0.4, n), rng.uniform(0.1, 0.4, n))
            assert g > 0

    def test_rejects_bad_taus(self):
        sm = make_sm(np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            compute_gamma(sm, np.array([0.0]), np.array([0.2]))
        for name in ("tau_p", "tau_q"):
            for bad in (-0.2, np.nan, np.inf):
                taus = {"tau_p": np.array([0.2]), "tau_q": np.array([0.2]), name: np.array([bad])}
                with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
                    compute_gamma(sm, **taus)


class TestStabilityParams:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_or_non_positive_gamma(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be finite and positive$"):
            StabilityParams(gamma=gamma)

    @pytest.mark.parametrize("kf_bound", [np.nan, -1.0, -np.inf])
    def test_rejects_nan_or_negative_kf_bound(self, kf_bound):
        with pytest.raises(ValueError, match="^kf_bound must be non-negative$"):
            StabilityParams(gamma=1.0, kf_bound=kf_bound)

    @pytest.mark.parametrize("kf_bound", [0.0, np.inf])
    def test_accepts_zero_and_unbounded_kf_bound(self, kf_bound):
        assert StabilityParams(gamma=1.0, kf_bound=kf_bound).kf_bound == kf_bound


class TestCheckGains:
    def setup_method(self):
        self.params = StabilityParams(gamma=1.0)

    def test_zero_gains_always_pass(self):
        assert check_gains(DroopGains(), 0.2, 0.2, self.params)

    def test_scaled_gain_at_gamma_fails(self):
        # a = gamma, b = 0: quadratic evaluates to +gamma^2
        assert not check_gains(DroopGains(k_pv=0.2), 0.2, 0.2, self.params)

    def test_boundary_root_fails(self):
        u = (-2.0 + 2.0 * np.sqrt(2.0)) * self.params.gamma
        assert not check_gains(DroopGains(k_pv=u * 0.2), 0.2, 0.2, self.params)

    def test_sum_form_rejects_unstable_pair(self):
        # a=0.9, b=0.5 on R=X=T=I is genuinely unstable (det < 0); the
        # difference-form inequality would wrongly accept it
        sm = make_sm(np.eye(1), np.eye(1))
        params = StabilityParams(gamma=compute_gamma(sm, np.ones(1), np.ones(1)))
        gains = DroopGains(k_pv=0.9, k_qv=0.5)
        A = closed_loop_matrix(sm, np.array([0.9]), np.array([0.5]), np.ones(1), np.ones(1))
        assert np.linalg.eigvals(A).real.max() > 0
        assert not check_gains(gains, 1.0, 1.0, params)

    def test_deep_negative_pairs_pass(self):
        assert check_gains(DroopGains(k_pv=-1.0, k_qv=-1.2), 0.2, 0.2, self.params)

    @pytest.mark.parametrize("name", ["tau_p", "tau_q"])
    @pytest.mark.parametrize("tau", [np.nan, 0.0, -0.2, np.inf, -np.inf])
    def test_rejects_time_constant_not_finite_and_positive(self, name, tau):
        # a NaN tau made the quadratic NaN, a zero one divided by zero
        taus = {"tau_p": 0.2, "tau_q": 0.2, name: tau}
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
            check_gains(DroopGains(0.1, 0.0, 0.1, 0.0), params=StabilityParams(gamma=0.5), **taus)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-4.0, 2.0), st.integers(0, 2**32 - 1))
    def test_one_inequality_equals_two_clause_rule(self, log_gamma, seed):
        # pairs within 1e-6 gamma to 1e3 gamma of (gamma, gamma) and of the
        # boundary parabola, in random directions
        params = StabilityParams(gamma=10**log_gamma)
        g = params.gamma
        rng = np.random.default_rng(seed)
        count = 100
        w = g * rng.choice([-1.0, 1.0], count) * 10 ** rng.uniform(-3.0, 3.0, count)
        s = boundary_offset(params) - w * w / (2 * SQRT2 * g)
        a0 = np.concatenate([np.full(count, g), (s + w) / SQRT2])
        b0 = np.concatenate([np.full(count, g), (s - w) / SQRT2])
        r = g * 10 ** rng.uniform(-6.0, 3.0, 2 * count)
        theta = rng.uniform(0.0, 2 * np.pi, 2 * count)
        tau_p, tau_q = rng.uniform(0.05, 1.0, (2, 2 * count))
        k_pv = (a0 + r * np.cos(theta)) * tau_p
        k_qv = (b0 + r * np.sin(theta)) * tau_q
        verdicts = []
        for kp, kq, tp, tq in zip(k_pv.tolist(), k_qv.tolist(), tau_p.tolist(), tau_q.tolist()):
            verdict = check_gains(DroopGains(k_pv=kp, k_qv=kq), tp, tq, params)
            assert verdict == two_clause_check_gains(kp, kq, tp, tq, g)
            verdicts.append(verdict)
        assert any(verdicts[count:]) and not all(verdicts[count:])

    def test_locality(self):
        # the verdict for one unit depends only on its own pair and taus
        g1 = DroopGains(k_pv=-0.1, k_qv=-0.05)
        assert check_gains(g1, 0.2, 0.3, self.params) == check_gains(
            DroopGains(k_pv=-0.1, k_qv=-0.05, k_pf=5.0, k_qf=-5.0), 0.2, 0.3, self.params
        )


class TestProjectGains:
    def setup_method(self):
        self.params = StabilityParams(gamma=2.0)

    def feasible_grid_points(self, rng, count=200):
        g = self.params.gamma
        pts = []
        while len(pts) < count:
            a, b = rng.uniform(-8 * g, 1.5 * g, 2)
            if (a - b) ** 2 + 4 * g * (a + b) - 4 * g * g <= -self.params.quad_margin:
                pts.append((a, b))
        return pts

    def test_feasible_input_unchanged(self):
        gains = DroopGains(k_pv=-0.2, k_qv=-0.3)
        out = project_gains(gains, 0.2, 0.2, self.params)
        assert (out.k_pv, out.k_qv) == (gains.k_pv, gains.k_qv)

    @pytest.mark.parametrize("clip", [False, True], ids=["nothing-clips", "one-clips"])
    @pytest.mark.parametrize("short", ["k_pv", "k_qv", "tau_p", "tau_q"])
    def test_vector_projection_rejects_mismatched_shapes(self, short, clip):
        # a length-1 array used to broadcast silently, or to fail with a bare
        # boolean-index IndexError once a pair clipped
        arrays = {"k_pv": np.full(3, -0.1), "k_qv": np.full(3, -0.1), "tau_p": np.full(3, 0.2), "tau_q": np.full(3, 0.2)}
        if clip:
            arrays["k_qv"][1] = 10.0
        arrays[short] = arrays[short][:1]
        with pytest.raises(ValueError, match="^k_pv, k_qv, tau_p and tau_q must share one shape$"):
            project_voltage_gains(params=self.params, **arrays)

    @pytest.mark.parametrize("name", ["tau_p", "tau_q"])
    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -0.2])
    def test_vector_projection_rejects_time_constant_not_finite_and_positive(self, name, tau):
        # a NaN tau returned the pair unprojected, a negative one projected it
        # in the wrong scaling, and 0 or inf surfaced only downstream
        arrays = {"k_pv": np.full(3, 5.0), "k_qv": np.full(3, 5.0), "tau_p": np.full(3, 0.2), "tau_q": np.full(3, 0.2)}
        arrays[name][0] = tau
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
            project_voltage_gains(params=self.params, **arrays)

    @pytest.mark.parametrize("name", ["k_pv", "k_qv"])
    @pytest.mark.parametrize("gain", [np.nan, np.inf, -np.inf])
    def test_vector_projection_rejects_non_finite_gain(self, name, gain):
        # a NaN pair came back unprojected, an infinite one overflowed in
        # the projection; a pair that fails check_gains was returned either way
        arrays = {"k_pv": np.full(3, -0.1), "k_qv": np.full(3, -0.1), "tau_p": np.full(3, 0.2), "tau_q": np.full(3, 0.2)}
        arrays[name][1] = gain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^k_pv and k_qv must be finite$"):
                project_voltage_gains(params=self.params, **arrays)

    @pytest.mark.parametrize(
        "k_pv, k_qv, tau",
        [(1e300, 0.0, 1e-10), (0.0, -1e300, 1e-10), (-1e308, 1e308, 0.5), (1e307, 1e307, 1e-3)],
    )
    def test_projection_rejects_scaled_pair_that_overflows(self, k_pv, k_qv, tau):
        # finite gains whose k / tau overflowed warned "overflow encountered in divide"
        arrays = {"k_pv": np.full(3, -0.1), "k_qv": np.full(3, -0.1), "tau_p": np.full(3, 0.2), "tau_q": np.full(3, 0.2)}
        arrays["k_pv"][1], arrays["k_qv"][1] = k_pv, k_qv
        arrays["tau_p"][1] = arrays["tau_q"][1] = tau
        message = "^k_pv / tau_p and k_qv / tau_q must be finite: the scaled gains overflow$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                project_voltage_gains(params=self.params, **arrays)
            with pytest.raises(ValueError, match=message):
                project_gains(DroopGains(k_pv=k_pv, k_qv=k_qv), tau, tau, self.params)

    @pytest.mark.parametrize("name", ["k_pv", "k_qv"])
    @pytest.mark.parametrize("gain", [np.nan, np.inf, -np.inf])
    def test_scalar_projection_rejects_non_finite_gain(self, name, gain):
        gains = DroopGains()
        setattr(gains, name, gain)  # past the constructor's own check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^k_pv and k_qv must be finite$"):
                project_gains(gains, 0.2, 0.2, self.params)

    def test_zero_dimensional_pair_is_projected(self):
        g, tau = self.params.gamma, 0.2
        k_pv, k_qv = project_voltage_gains(np.float64(10 * g * tau), 10 * g * tau, tau, np.array(tau), self.params)
        assert k_pv.shape == k_qv.shape == ()
        assert check_gains(DroopGains(k_pv=float(k_pv), k_qv=float(k_qv)), tau, tau, self.params)

    def test_symmetric_large_pair_lands_at_half_gamma(self):
        # corrected-geometry analogue of the both-halfspaces case: along
        # a = b the boundary sits at a + b = gamma, i.e. a = b = gamma/2
        g = self.params.gamma
        tau = 0.2
        out = project_gains(DroopGains(k_pv=10 * g * tau, k_qv=10 * g * tau), tau, tau, self.params)
        assert out.k_pv / tau == pytest.approx(g / 2.0, rel=1e-5)
        assert out.k_qv / tau == pytest.approx(g / 2.0, rel=1e-5)

    def test_output_always_passes_check(self):
        # the second case has |a|, |b| up to 1e3 gamma, where the quadratic's
        # rounding outgrows a fixed inward step
        rng = np.random.default_rng(3)
        for params, spread, count in ((self.params, 10.0, 300), (StabilityParams(gamma=1e-3), 1e3, 3000)):
            g = params.gamma
            for _ in range(count):
                tau_p, tau_q = rng.uniform(0.1, 0.4, 2)
                gains = DroopGains(
                    k_pv=float(rng.uniform(-spread * g, spread * g)) * tau_p,
                    k_qv=float(rng.uniform(-spread * g, spread * g)) * tau_q,
                    k_pf=float(rng.uniform(-50, 50)),
                    k_qf=float(rng.uniform(-50, 50)),
                )
                out = project_gains(gains, tau_p, tau_q, params)
                assert check_gains(out, tau_p, tau_q, params)
                assert abs(out.k_pf) <= params.kf_bound
                assert abs(out.k_qf) <= params.kf_bound

    def test_first_order_optimality(self):
        # <z - proj, y - proj> <= 0 over feasible y certifies the projection
        rng = np.random.default_rng(5)
        ys = self.feasible_grid_points(rng)
        for _ in range(100):
            a0, b0 = rng.uniform(-12, 12, 2) * self.params.gamma
            out = project_gains(DroopGains(k_pv=a0 * 0.2, k_qv=b0 * 0.2), 0.2, 0.2, self.params)
            pa, pb = out.k_pv / 0.2, out.k_qv / 0.2
            for (ya, yb) in ys:
                ip = (a0 - pa) * (ya - pa) + (b0 - pb) * (yb - pb)
                assert ip <= 1e-7 * max(1.0, abs(a0), abs(b0))

    def test_matches_grid_oracle(self):
        # dense grid at 1e-4*gamma resolution: the analytic projection must
        # beat every feasible grid point, and the best grid distance must
        # agree with the analytic distance to within the stated tolerance
        # (grid-point *positions* slide along the flat boundary direction,
        # so only distances are pinned at this resolution)
        g = self.params.gamma
        res = 1e-4 * g
        for (a0, b0) in [(1.5 * g, 1.5 * g), (2.0 * g, -6.0 * g), (0.5 * g, 1.2 * g)]:
            out = project_gains(DroopGains(k_pv=a0, k_qv=b0), 1.0, 1.0, self.params)
            pa, pb = out.k_pv, out.k_qv
            d_proj = np.hypot(pa - a0, pb - b0)
            aa = np.arange(pa - 400 * res, pa + 400 * res, res)
            bb = np.arange(pb - 400 * res, pb + 400 * res, res)
            A, B = np.meshgrid(aa, bb)
            feas = (A - B) ** 2 + 4 * g * (A + B) - 4 * g * g <= -self.params.quad_margin
            d = np.hypot(A - a0, B - b0)
            d[~feas] = np.inf
            d_grid = d.min()
            assert d_proj <= d_grid + 1e-12
            assert d_grid - d_proj <= 2e-4 * g

    @pytest.mark.parametrize(
        "k_pv, k_qv",
        [(-0.24134243183401408, -0.28782471661715586), (-0.2996699900746597, -0.1590145015547797)],
    )
    def test_clipped_pair_far_above_gamma_passes_check(self, k_pv, k_qv):
        # |a|, |b| ~ 300 gamma: the quadratic's rounding exceeds a fixed inward step
        params = StabilityParams(gamma=1e-3)
        gains = DroopGains(k_pv=k_pv, k_qv=k_qv)
        assert not check_gains(gains, 1.0, 1.0, params)
        assert check_gains(project_gains(gains, 1.0, 1.0, params), 1.0, 1.0, params)

    @pytest.mark.parametrize("gamma", [1e-4, 4.6, 100.0])
    @pytest.mark.parametrize("tau_p, tau_q", [(0.2, 0.2), (0.05, 1.0)])
    def test_extreme_finite_pairs_stay_finite_certified_and_near(self, gamma, tau_p, tau_q):
        # the boundary cubic overflowed from about 1e100 gamma on, (-1e240, -2e240)
        # came back as -inf, and past about 1e28 gamma the rounding step put the
        # result farther out than the apex: (-1e200, -2e200) gave -9.6e285
        params = StabilityParams(gamma=gamma)
        angle = np.linspace(0.0, 2.0 * np.pi, 73)
        pairs = [np.array([[-1e200], [-2e200]]), np.array([[-1e240], [-2e240]])]
        pairs += [mag * np.array([np.cos(angle), np.sin(angle)]) for mag in 10.0 ** np.arange(0, 301, 10)]
        for k in pairs:
            tau = np.array([np.full(k.shape[1], tau_p), np.full(k.shape[1], tau_q)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = np.array(project_voltage_gains(k[0], k[1], tau[0], tau[1], params))
            assert np.isfinite(out).all()
            for k_pv, k_qv in out.T:
                assert check_gains(DroopGains(k_pv=k_pv, k_qv=k_qv), tau_p, tau_q, params)
            # the projection is Euclidean in the scaled pairs, and the apex of
            # the region that check_gains certifies is a = b = gamma / 2 less the margin
            ab, ab_out = k / tau, out / tau
            dist = np.hypot(*(ab_out - ab))
            apex_dist = np.hypot(*((4 * gamma * gamma - params.quad_margin) / (8 * gamma) - ab))
            assert np.all(dist <= apex_dist * (1.0 + 1e-9) + 1e-9 * gamma)


    @pytest.mark.parametrize("k_pv, k_qv", [(1.7e308, -1.7e308), (-1.7e308, -1e308), (1.7e308, 1.7e308), (1e308, -1e300)])
    def test_pairs_near_the_float_limit_go_to_the_apex_without_warning(self, k_pv, k_qv):
        # these warned "overflow encountered in subtract", "in add" or "in multiply"
        params = StabilityParams(gamma=4.6)
        apex = project_voltage_gains([1e150], [1e150], [1.0], [1.0], params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_voltage_gains([k_pv], [k_qv], [1.0], [1.0], params)
        assert np.array_equal(out, apex)
        assert check_gains(DroopGains(k_pv=out[0][0], k_qv=out[1][0]), 1.0, 1.0, params)

SQRT2 = np.sqrt(2.0)


def boundary_offset(params):
    """d of the certified region s <= d - w^2 / (2 sqrt2 gamma) in w = (a-b)/sqrt2, s = (a+b)/sqrt2."""
    g = params.gamma
    return (4 * g * g - params.quad_margin) / (4 * SQRT2 * g)


@st.composite
def scaled_pairs(draw, params, count):
    """Scaled pairs (a, b): signed magnitudes from 1e-3 gamma to 1e3 gamma, or
    points within a relative 1e-6 of the curve where the projection cubic
    has a double root (there the three-root form takes over from Cardano)."""
    g = params.gamma
    a, b = np.empty(count), np.empty(count)
    for i in range(count):
        if draw(st.booleans()):
            mag = st.floats(-3.0, 3.0)
            sign = st.sampled_from([-1.0, 1.0])
            a[i] = draw(sign) * g * 10 ** draw(mag)
            b[i] = draw(sign) * g * 10 ** draw(mag)
        else:
            # x^3 + p x + q = 0 with x = w/g has a double root at p = -3 (2|x0|)^(2/3),
            # p = 4 (1 + (s0 - d) / (sqrt2 g)); outside the region for |x0| > 4
            x0 = draw(st.sampled_from([-1.0, 1.0])) * 10 ** draw(st.floats(np.log10(5.0), 3.0))
            p = -3.0 * (2.0 * abs(x0)) ** (2.0 / 3.0) * (1.0 + draw(st.floats(-1e-6, 1e-6)))
            s0 = boundary_offset(params) + SQRT2 * g * (p / 4.0 - 1.0)
            a[i], b[i] = (s0 + x0 * g) / SQRT2, (s0 - x0 * g) / SQRT2
    return a, b


@st.composite
def projection_cases(draw, count=6):
    params = StabilityParams(gamma=10 ** draw(st.floats(-4.0, 2.0)))
    taus = st.lists(st.floats(0.05, 1.0), min_size=count, max_size=count)
    tau_p, tau_q = np.array(draw(taus)), np.array(draw(taus))
    a, b = draw(scaled_pairs(params, count))
    return params, tau_p, tau_q, a, b


def project_scaled(a, b, tau_p, tau_q, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k_pv, k_qv = project_voltage_gains(a * tau_p, b * tau_q, tau_p, tau_q, params)
    return k_pv / tau_p, k_qv / tau_q


class TestProjectionProperties:
    @settings(max_examples=150, deadline=None)
    @given(projection_cases())
    def test_feasible_idempotent_and_equal_to_scalar(self, case):
        params, tau_p, tau_q, a, b = case
        k_pv, k_qv = a * tau_p, b * tau_q
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out_pv, out_qv = project_voltage_gains(k_pv, k_qv, tau_p, tau_q, params)
            again_pv, again_qv = project_voltage_gains(out_pv, out_qv, tau_p, tau_q, params)
            scalar = [
                project_gains(DroopGains(k_pv=kp, k_qv=kq), tp, tq, params)
                for kp, kq, tp, tq in zip(k_pv, k_qv, tau_p, tau_q)
            ]
        for i, g in enumerate(scalar):
            assert (g.k_pv, g.k_qv) == (out_pv[i], out_qv[i])
            assert check_gains(g, tau_p[i], tau_q[i], params)
        scale = np.hypot(out_pv, out_qv) + params.gamma * tau_p
        assert np.all(np.hypot(again_pv - out_pv, again_qv - out_qv) <= 1e-12 * scale)

    @settings(max_examples=150, deadline=None)
    @given(projection_cases(), st.floats(-6.0, 3.0), st.integers(0, 2**32 - 1))
    def test_non_expansive(self, case, log_step, seed):
        # against an independent pair and against one 10^log_step * gamma away
        params, tau_p, tau_q, a, b = case
        rng = np.random.default_rng(seed)
        g = params.gamma
        step = g * 10**log_step
        near = (a + step * rng.standard_normal(a.size), b + step * rng.standard_normal(a.size))
        pa, pb = project_scaled(a, b, tau_p, tau_q, params)
        for ya, yb in (near, (a[::-1], b[::-1])):
            qa, qb = project_scaled(ya, yb, tau_p, tau_q, params)
            slack = 1e-10 * (np.hypot(a, b) + np.hypot(ya, yb) + g)
            assert np.all(np.hypot(pa - qa, pb - qb) <= np.hypot(a - ya, b - yb) + slack)

    @settings(max_examples=100, deadline=None)
    @given(projection_cases(count=1), st.integers(0, 2**32 - 1))
    def test_first_order_optimality(self, case, seed):
        # <z - P(z), y - P(z)> <= 0 for every feasible y certifies the projection;
        # y is sampled near P(z) along the boundary curve and inside it
        params, tau_p, tau_q, a, b = case
        g = params.gamma
        pa, pb = project_scaled(a, b, tau_p, tau_q, params)
        rng = np.random.default_rng(seed)
        w = (pa - pb) / SQRT2 + g * rng.choice([-1.0, 1.0], 200) * 10 ** rng.uniform(-6, 3, 200)
        s = boundary_offset(params) - w * w / (2 * SQRT2 * g) - g * 10 ** rng.uniform(-9, 3, 200)
        ya, yb = (s + w) / SQRT2, (s - w) / SQRT2
        feasible = (ya - yb) ** 2 + 4 * g * (ya + yb) - 4 * g * g <= -params.quad_margin
        ya, yb = ya[feasible], yb[feasible]
        assert ya.size > 50
        ip = (a - pa) * (ya - pa) + (b - pb) * (yb - pb)
        slack = 1e-10 * (np.hypot(a, b) + g) * (np.hypot(ya - pa, yb - pb) + np.hypot(a - pa, b - pb) + g)
        assert np.all(ip <= slack)


class TestLyapunovValue:
    def test_zero(self):
        sm = six_bus_sm()
        assert lyapunov_value(sm, np.zeros(2 * sm.n)) == 0.0

    def test_identity_basis_vector(self):
        sm = make_sm(np.eye(2), np.eye(2))
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert lyapunov_value(sm, e1) == pytest.approx(0.5)

    def test_matches_quadratic_form_oracle(self):
        sm = six_bus_sm()
        rng = np.random.default_rng(8)
        G = block_diag(sm.R, sm.X)
        for _ in range(20):
            dx = rng.standard_normal(2 * sm.n)
            ref = 0.5 * dx @ G @ dx
            assert lyapunov_value(sm, dx) == pytest.approx(ref, rel=1e-12)
            assert lyapunov_value(sm, dx) > 0

    def test_dimension_mismatch(self):
        sm = six_bus_sm()
        with pytest.raises(ValueError):
            lyapunov_value(sm, np.zeros(sm.n))


class TestClosedLoopMatrix:
    def test_zero_gains_diagonal(self):
        sm = six_bus_sm()
        n = sm.n
        tau = np.full(n, 0.2)
        A = closed_loop_matrix(sm, np.zeros(n), np.zeros(n), tau, tau)
        assert A == pytest.approx(-np.diag(np.full(2 * n, 5.0)))

    def test_single_bus_hand_expansion(self):
        r, x = 0.03, 0.05
        kpv, kqv = -0.4, -0.6
        tp, tq = 0.2, 0.25
        sm = make_sm(np.array([[r]]), np.array([[x]]))
        A = closed_loop_matrix(sm, np.array([kpv]), np.array([kqv]), np.array([tp]), np.array([tq]))
        expected = np.array(
            [
                [(kpv * r - 1) / tp, kpv * x / tp],
                [kqv * r / tq, (kqv * x - 1) / tq],
            ]
        )
        assert A == pytest.approx(expected, rel=1e-14)

    def test_certified_samples_are_stable(self):
        # the executable content of the stability theorem, desk-sized
        sm = six_bus_sm()
        n = sm.n
        rng = np.random.default_rng(42)
        taus_p = np.full(n, 0.2)
        taus_q = np.full(n, 0.2)
        params = StabilityParams(gamma=compute_gamma(sm, taus_p, taus_q))
        g = params.gamma
        n_pass = 0
        for _ in range(300):
            a = rng.uniform(-3 * g, 1.5 * g, n)
            b = rng.uniform(-3 * g, 1.5 * g, n)
            ok = all(
                check_gains(DroopGains(k_pv=a[i] * taus_p[i], k_qv=b[i] * taus_q[i]), taus_p[i], taus_q[i], params)
                for i in range(n)
            )
            if not ok:
                continue
            n_pass += 1
            A = closed_loop_matrix(sm, a * taus_p, b * taus_q, taus_p, taus_q)
            assert np.linalg.eigvals(A).real.max() < 0
        assert n_pass > 20

    def test_gate_not_vacuous(self):
        # both scaled gains far above gamma: rejected and genuinely unstable
        sm = six_bus_sm()
        n = sm.n
        taus = np.full(n, 0.2)
        params = StabilityParams(gamma=compute_gamma(sm, taus, taus))
        a = np.full(n, 10 * params.gamma)
        assert not check_gains(DroopGains(k_pv=a[0] * 0.2, k_qv=a[0] * 0.2), 0.2, 0.2, params)
        A = closed_loop_matrix(sm, a * taus, a * taus, taus, taus)
        assert np.linalg.eigvals(A).real.max() >= 0

    def test_lyapunov_decrease_along_trajectory(self):
        sm = six_bus_sm()
        n = sm.n
        rng = np.random.default_rng(4)
        taus = np.full(n, 0.2)
        params = StabilityParams(gamma=compute_gamma(sm, taus, taus))
        g = params.gamma
        # a certified sample away from the boundary
        a = rng.uniform(-2 * g, 0.3 * g, n)
        b = rng.uniform(-2 * g, 0.3 * g, n)
        A = closed_loop_matrix(sm, a * taus, b * taus, taus, taus)
        dt = 0.2 / 1000.0
        dx = rng.standard_normal(2 * n)
        v_prev = lyapunov_value(sm, dx)
        for _ in range(2000):
            dx = dx + dt * (A @ dx)
            v = lyapunov_value(sm, dx)
            assert v <= v_prev + 1e-9
            v_prev = v
