"""Online droop-gain scheduler: CVaR-constrained saddle-point tracking.

Every scheduling period the operator measures voltages and frequency,
rebuilds the affine feeder model around that point, and performs one
projected primal-dual gradient cycle on the regularized Lagrangian

    L = C(kappa) + mu' l(kappa_v, tau) + lambda' r(e(kappa_f))
        - phi/2 |mu|^2 - psi/2 |lambda|^2 + reg_tau/2 |tau|^2,

where C is a weighted quadratic gain cost, l stacks the per-bus
sample-average CVaR surrogates of the voltage chance constraints (upper
bounds first, lower bounds second), and r is the two-sided band on the
frequency-support tracking error.  Voltage gains are projected onto the
certified-stable set each update; duals and CVaR auxiliaries stay
nonnegative by clipping.

Cross-coupling between the voltage and frequency tasks is avoided by
feedforward: the voltage model uses the frequency gains broadcast in the
previous period, the tracking error uses the previous voltage gains.

Layouts: kappa_v = (k_pv per online unit, then k_qv per unit), kappa_f
analogous with (k_pf, k_qf).  mu has one entry per upper-bound row
followed by one per lower-bound row; lambda = (lower band edge, upper
band edge).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .droop import DerUnit, DroopGains, tso_requirement
from .linmodel import SchedulingPoint, SensitivityModel
from .stability import StabilityParams, project_voltage_gains
from .stability import project_gains  # noqa: F401  perfbench/spans.py wraps scheduler.project_gains by name

__all__ = [
    "SchedulerConfig",
    "SchedulerState",
    "draw_samples",
    "voltage_model",
    "cvar_constraints",
    "freq_error",
    "band_residual",
    "primal_dual_step",
    "schedule_step",
]

_WF_STREAM = 104729  # rng stream tag for per-node cost weights


@dataclass
class SchedulerConfig:
    """Step sizes, regularization, risk level, and constraint bounds.

    ``alpha_tau`` is the step size of the CVaR-auxiliary block; left
    unset it equals ``alpha_primal`` (the plain single-step iteration).
    The auxiliaries see an effective curvature of roughly (multiplier
    magnitude) x (sample density at the hinge kink), which on stiff
    instances is orders of magnitude above the gain blocks' curvature,
    so a smaller dedicated step keeps the iteration convergent without
    slowing the gains.  An auxiliary whose multiplier is zero feels only
    ``reg_tau`` and contracts only at the rate ``alpha_tau * reg_tau``
    per step, so a small ``alpha_tau`` slows those auxiliaries even
    though the gains keep their speed.
    """

    alpha_primal: float = 0.8
    alpha_dual: float = 0.4
    alpha_tau: float | None = None
    phi: float = 3e-4
    psi: float = 3e-4
    reg_tau: float = 3e-4
    beta: float = 0.1
    n_samples: int = 100
    noise_std: float = 0.015
    v_min: float = 0.95
    v_max: float = 1.05
    e_min: float = -0.01
    e_max: float = 0.01
    cost_w_pv: float = 0.3
    cost_w_qv: float = 0.1
    cost_w_f: float | None = None
    tau_s: float = 30.0

    def __post_init__(self):
        if self.alpha_tau is None:
            self.alpha_tau = self.alpha_primal
        for name in ("alpha_primal", "alpha_dual", "alpha_tau", "phi", "psi", "reg_tau", "tau_s"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be below v_max")
        if not self.e_min < self.e_max:
            raise ValueError("e_min must be below e_max")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and nonnegative")


@dataclass
class SchedulerState:
    der_nodes: list[int]
    kappa_v: np.ndarray
    kappa_f: np.ndarray
    cvar_hi: np.ndarray
    cvar_lo: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    prev_kappa_v: np.ndarray
    prev_kappa_f: np.ndarray
    w_f: np.ndarray
    seed: int = 0

    @property
    def m(self) -> int:
        return len(self.der_nodes)

    @classmethod
    def initial(cls, der_nodes: list[int], n_bus: int, cfg: SchedulerConfig, seed: int = 0):
        m = len(der_nodes)
        return cls(
            der_nodes=list(der_nodes),
            kappa_v=np.zeros(2 * m),
            kappa_f=np.zeros(2 * m),
            cvar_hi=np.zeros(n_bus),
            cvar_lo=np.zeros(n_bus),
            mu=np.zeros(2 * n_bus),
            lam=np.zeros(2),
            prev_kappa_v=np.zeros(2 * m),
            prev_kappa_f=np.zeros(2 * m),
            w_f=_freq_weights(der_nodes, cfg, seed),
            seed=seed,
        )

    def realigned(self, der_nodes: list[int], cfg: SchedulerConfig) -> "SchedulerState":
        """Carry per-unit slots over to a new online set (plug-and-play)."""
        if list(der_nodes) == self.der_nodes:
            return self
        old = {node: i for i, node in enumerate(self.der_nodes)}
        m_old = self.m
        m = len(der_nodes)

        def carry(vec):
            out = np.zeros(2 * m)
            for j, node in enumerate(der_nodes):
                if node in old:
                    i = old[node]
                    out[j] = vec[i]
                    out[m + j] = vec[m_old + i]
            return out

        return replace(
            self,
            der_nodes=list(der_nodes),
            kappa_v=carry(self.kappa_v),
            kappa_f=carry(self.kappa_f),
            prev_kappa_v=carry(self.prev_kappa_v),
            prev_kappa_f=carry(self.prev_kappa_f),
            w_f=_freq_weights(der_nodes, cfg, self.seed),
        )


def _freq_weights(der_nodes, cfg: SchedulerConfig, seed: int) -> np.ndarray:
    """Per-unit frequency-gain cost weights, fixed or drawn per node."""
    m = len(der_nodes)
    w = np.empty(2 * m)
    for j, node in enumerate(der_nodes):
        if cfg.cost_w_f is not None:
            w[j] = w[m + j] = cfg.cost_w_f
        else:
            rng = np.random.default_rng([seed, _WF_STREAM, node])
            w[j], w[m + j] = rng.uniform(0.9, 1.1, 2)
    return w


def draw_samples(v_meas: np.ndarray, cfg: SchedulerConfig, seed) -> np.ndarray:
    """Zero-mean Gaussian voltage-disturbance samples, (n_samples, n), per-bus std scaled.

    A fresh generator per call is deliberate: a period's samples depend
    only on the ``seed`` it is given, e.g. (run seed, period index), not
    on how many periods ran before.  The normal draw, not building the
    generator, is most of the cost: building it takes about 16 of 65 us
    for 100 x 36 samples on one core of a 2-vCPU Xeon.
    """
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.n_samples, len(v_meas))) * (cfg.noise_std * np.asarray(v_meas))


def _affine(sm: SensitivityModel, state: SchedulerState, rho: SchedulingPoint):
    """Voltage prediction, tracking error and their gain slopes at ``rho``.

    Gathers the online units' columns once: G = [R[:, idx], X[:, idx]]
    (n, 2m), h = [H_p[idx], H_q[idx]] (2m,), and u, the measured voltage
    deviation at each unit repeated for its p and its q slot.  The
    voltage prediction is affine in kappa_v with slope G u, the tracking
    error affine in kappa_f with slope h d_omega; the other gain block
    enters through the previous broadcast.
    """
    idx = np.asarray(state.der_nodes, dtype=np.intp) - 1
    G = np.concatenate([sm.R[:, idx], sm.X[:, idx]], axis=1)
    h = sm.H[np.concatenate([idx, idx + sm.n])]
    u = np.tile(rho.v_meas[idx] - rho.v_star, 2)
    d_omega = rho.d_omega
    vm = G @ (state.kappa_v * u + state.prev_kappa_f * d_omega) + sm.v0
    delivered = h @ (state.prev_kappa_v * u + state.kappa_f * d_omega) + sm.P0
    e = float(delivered - tso_requirement(rho.r_t, rho.omega, rho.omega_star))
    return vm, e, G * u, h * d_omega


def voltage_model(sm: SensitivityModel, state: SchedulerState, rho: SchedulingPoint) -> np.ndarray:
    """Deterministic voltage prediction, linear in the current kappa_v.

    The frequency response uses the previously broadcast gains as a
    feedforward term; the measured voltage deviation is held constant
    within the step.
    """
    return _affine(sm, state, rho)[0]


def _hinge_args(vm, samples, cvar_hi, cvar_lo, cfg):
    """Per-sample CVaR hinge arguments, (n_samples, n) each: upper rows, lower rows."""
    if np.any(cvar_hi < 0) or np.any(cvar_lo < 0):
        raise ValueError("CVaR auxiliaries must be nonnegative")
    return vm - cfg.v_max + samples + cvar_hi, cfg.v_min - vm - samples + cvar_lo


def _cvar_rows(arg_up, arg_lo, cvar_hi, cvar_lo, cfg) -> np.ndarray:
    up = np.maximum(arg_up, 0.0).mean(axis=0) - cvar_hi * cfg.beta
    lo = np.maximum(arg_lo, 0.0).mean(axis=0) - cvar_lo * cfg.beta
    return np.concatenate([up, lo])


def cvar_constraints(
    vm: np.ndarray,
    samples: np.ndarray,
    cvar_hi: np.ndarray,
    cvar_lo: np.ndarray,
    cfg: SchedulerConfig,
) -> np.ndarray:
    """Sample-average CVaR surrogate values, upper rows stacked over lower."""
    arg_up, arg_lo = _hinge_args(vm, samples, cvar_hi, cvar_lo, cfg)
    return _cvar_rows(arg_up, arg_lo, cvar_hi, cvar_lo, cfg)


def freq_error(sm: SensitivityModel, state: SchedulerState, rho: SchedulingPoint) -> float:
    """Tracking error of the PCC adjustment against the TSO requirement.

    Linear in the current kappa_f; the voltage-droop contribution to the
    exchange enters through the previous period's gains.
    """
    return _affine(sm, state, rho)[1]


def band_residual(e: float, cfg: SchedulerConfig) -> np.ndarray:
    """Two-sided band rows [e_min - e, e - e_max]; positive = violated."""
    return np.array([cfg.e_min - e, e - cfg.e_max])


def _signals(arg_up, arg_lo, mu, lam, J, grad_e, cfg):
    """(s_v, s_f, d_hi, d_lo) from the hinge arguments and the multipliers."""
    n = arg_up.shape[1]
    frac_up = (arg_up > 0.0).mean(axis=0)
    frac_lo = (arg_lo > 0.0).mean(axis=0)
    s_v = J.T @ (mu[:n] * frac_up - mu[n:] * frac_lo)
    d_hi = mu[:n] * (frac_up - cfg.beta)
    d_lo = mu[n:] * (frac_lo - cfg.beta)
    s_f = (lam[1] - lam[0]) * grad_e
    return s_v, s_f, d_hi, d_lo


def gradient_signals(
    state: SchedulerState,
    sm: SensitivityModel,
    rho: SchedulingPoint,
    samples: np.ndarray,
    cfg: SchedulerConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constraint-derivative signals at the state's current multipliers.

    Returns (s_v, s_f, d_hi, d_lo): the gain-directed signals stack the
    chain rule of the CVaR rows (through the voltage model) and of the
    tracking band (through the error slope); the auxiliary-directed
    signals hold the active-sample fractions against the risk level.
    The hinge subgradient convention is 1 for strictly positive
    arguments, 0 otherwise.
    """
    vm, _, J, grad_e = _affine(sm, state, rho)
    arg_up, arg_lo = _hinge_args(vm, samples, state.cvar_hi, state.cvar_lo, cfg)
    return _signals(arg_up, arg_lo, state.mu, state.lam, J, grad_e, cfg)


def primal_dual_step(
    state: SchedulerState,
    sm: SensitivityModel,
    rho: SchedulingPoint,
    samples: np.ndarray,
    cfg: SchedulerConfig,
    stab: StabilityParams,
    tau_p: np.ndarray,
    tau_q: np.ndarray,
) -> SchedulerState:
    """One dual-then-primal gradient cycle on the regularized Lagrangian.

    Duals ascend on the constraint values first; the primal gain and
    CVaR-auxiliary updates then use the refreshed multipliers, with the
    voltage-gain pairs projected onto the certified-stable set and the
    frequency gains clamped to the configured box.  The hinge arguments
    depend on neither multiplier, so the dual and the primal half share
    one evaluation of them and of the gathered model.
    """
    if sm.rho.timestamp != rho.timestamp:
        raise ValueError("stale sensitivity model: timestamp mismatch")
    m = state.m

    vm, e, J, grad_e = _affine(sm, state, rho)
    arg_up, arg_lo = _hinge_args(vm, samples, state.cvar_hi, state.cvar_lo, cfg)
    l_val = _cvar_rows(arg_up, arg_lo, state.cvar_hi, state.cvar_lo, cfg)
    r_val = band_residual(e, cfg)

    mu = np.maximum(state.mu + cfg.alpha_dual * (l_val - cfg.phi * state.mu), 0.0)
    lam = np.maximum(state.lam + cfg.alpha_dual * (r_val - cfg.psi * state.lam), 0.0)

    s_v, s_f, d_hi, d_lo = _signals(arg_up, arg_lo, mu, lam, J, grad_e, cfg)

    wv = np.concatenate([np.full(m, cfg.cost_w_pv), np.full(m, cfg.cost_w_qv)])
    kappa_v = state.kappa_v - cfg.alpha_primal * (2.0 * wv**2 * state.kappa_v + s_v)
    kappa_f = state.kappa_f - cfg.alpha_primal * (2.0 * state.w_f**2 * state.kappa_f + s_f)
    k_pv, k_qv = project_voltage_gains(kappa_v[:m], kappa_v[m:], tau_p, tau_q, stab)

    cvar_hi = np.maximum(state.cvar_hi - cfg.alpha_tau * (d_hi + cfg.reg_tau * state.cvar_hi), 0.0)
    cvar_lo = np.maximum(state.cvar_lo - cfg.alpha_tau * (d_lo + cfg.reg_tau * state.cvar_lo), 0.0)

    return replace(
        state,
        kappa_v=np.concatenate([k_pv, k_qv]),
        kappa_f=np.clip(kappa_f, -stab.kf_bound, stab.kf_bound),
        cvar_hi=cvar_hi,
        cvar_lo=cvar_lo,
        mu=mu,
        lam=lam,
    )


def schedule_step(
    state: SchedulerState,
    sm: SensitivityModel,
    rho: SchedulingPoint,
    ders: list[DerUnit],
    cfg: SchedulerConfig,
    stab: StabilityParams,
    sample_seed,
) -> tuple[SchedulerState, dict[int, DroopGains]]:
    """One full measurement -> dual -> signal -> primal cycle.

    Realigns the gain slots to the currently online units, draws this
    period's disturbance samples, performs one gradient cycle on the
    frozen measurement, rotates the feedforward gains, and returns the
    per-unit broadcast.
    """
    online = [u for u in ders if u.online]
    nodes = [u.node for u in online]
    state = state.realigned(nodes, cfg)
    tau_p = np.array([u.tau_p for u in online])
    tau_q = np.array([u.tau_q for u in online])

    samples = draw_samples(rho.v_meas, cfg, sample_seed)
    state = primal_dual_step(state, sm, rho, samples, cfg, stab, tau_p, tau_q)

    state = replace(state, prev_kappa_v=state.kappa_v.copy(), prev_kappa_f=state.kappa_f.copy())
    m = len(nodes)
    kv = state.kappa_v.tolist()
    kf = state.kappa_f.tolist()
    broadcast = {
        node: DroopGains(k_pv=kv[j], k_pf=kf[j], k_qv=kv[m + j], k_qf=kf[m + j])
        for j, node in enumerate(nodes)
    }
    return state, broadcast
