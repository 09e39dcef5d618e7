"""Online droop-gain scheduler: CVaR-constrained saddle-point tracking.

Every scheduling period the operator measures voltages and frequency,
rebuilds the affine feeder model around that point, and performs one
projected primal-dual cycle on the regularized Lagrangian

    L = C(kappa) + mu' l(kappa_v) + lambda' r(e(kappa_f))
        - phi/2 |mu|^2 - psi/2 |lambda|^2,

where C is a weighted quadratic gain cost, l stacks the per-bus CVaR
rows of the voltage chance constraints (upper bounds first, lower bounds
second), and r is the two-sided band on the frequency-support tracking
error.  Voltage gains are projected onto the certified-stable set each
update; duals stay nonnegative by clipping.

The rows are exact for the disturbance model of ``draw_samples``: bus i
sees a zero-mean Gaussian xi_i with std sigma_i = noise_std * v_i.  For
such a disturbance the auxiliary form of CVaR has a closed form,

    min_c E max(x + xi + c, 0) - beta c = beta x + sigma phi(Phi^-1(beta)),

which is beta times the mean of the worst beta-fraction of x + xi
(Rockafellar & Uryasev, J. Risk 2000).  With x = vm_i - v_max for the
upper row and v_min - vm_i for the lower one, each row is affine in
kappa_v: no samples are drawn and no auxiliary variable is carried.

Both tasks see one droop response x = kappa_v u + kappa_f d_omega, with
u the measured voltage deviation at each unit: the voltage model is
G x + v0 and the PCC exchange h x + P0.  Each gain block takes its
gradient through its own task only: kappa_v through the voltage rows,
kappa_f through the band rows.

The step takes its sizes from the problem's own curvature, as in the
regularized primal-dual methods of Koshal, Nedic & Shanbhag (SIAM J.
Optim. 2011), so no step size is configured:

* each multiplier moves by half its Jacobi step, (l - phi mu) / (2 d),
  with d the row's curvature once the gains are eliminated.  Both rows
  of bus i share d_i = beta^2 sum_j J_ij^2 / (2 w_j^2) + phi, with J the
  voltage slope and w_j the cost weight of gain j; both band rows share
  sum_j (h_j d_omega)^2 / (2 w_f,j^2) + psi.  The half damps the
  coupling between rows, which the diagonal leaves out;
* the voltage gains take one projected-gradient step of
  1 / (2 max(w_pv, w_qv)^2), the inverse of the cost's largest
  curvature.  The step is the same for both gains of a pair, so the
  projection onto the certified-stable set keeps the saddle as the
  fixed point;
* each frequency gain takes its exact minimizer -s_f / (2 w_f^2), with
  s_f its band-row signal, clipped to the gain box: the cost and the
  band rows are separable in kappa_f.

Layouts: kappa_v = (k_pv per online unit, then k_qv per unit), kappa_f
analogous with (k_pf, k_qf).  The 2n CVaR rows are the per-bus upper
bounds followed by the per-bus lower bounds, and mu shares that layout.
lambda = (lower band edge, upper band edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .droop import DerUnit, DroopGains
from .linmodel import SchedulingPoint, SensitivityModel
from .network import _is_bus_id
from .stability import StabilityParams, _project_in_place
from .stability import project_gains  # noqa: F401  perfbench/spans.py wraps scheduler.project_gains by name

__all__ = [
    "SchedulerConfig",
    "SchedulerState",
    "draw_samples",
    "freq_error",
    "primal_dual_step",
    "schedule_step",
]

_WF_STREAM = 104729  # rng stream tag for per-node cost weights
# Share of the Jacobi step the multipliers take.  The diagonal scale leaves
# out the coupling between rows: undamped, a 36-unit 37-bus instance
# overshoots to max mu 7.1 and lambda 171 before it settles at 2.0 and 36.
_DUAL_DAMPING = 0.5


@dataclass(frozen=True)
class SchedulerConfig:
    """Regularization, risk level, cost weights and constraint bounds.

    The step takes its sizes from these (module docstring), so none is
    set here.  ``beta`` is the risk level: each voltage row bounds the
    mean of the worst beta-fraction of the disturbed voltage.
    ``noise_std`` is the per-bus disturbance std per unit of measured
    voltage, so bus i's std is noise_std * v_i.  The cost weights and
    their squares must be finite and positive, since each one's curvature
    scales a step; ``cost_w_f`` None draws a weight per node.  The
    frequency weights are set when a node list is installed
    (``SchedulerState.initial`` and ``realigned``), so a state keeps the
    ones it was built with: a ``cost_w_f`` passed later to an unchanged
    node list is not read.
    """

    phi: float = 3e-4
    psi: float = 3e-4
    beta: float = 0.1
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
        for name in ("phi", "psi", "tau_s"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        for name in ("cost_w_pv", "cost_w_qv", "cost_w_f"):
            value = getattr(self, name)
            if name == "cost_w_f" and value is None:
                continue  # drawn per node
            # the step divides by the curvature 2 w^2, so w^2 must be a finite normal float too
            if not (0.0 < value and np.finfo(float).tiny <= value * value < np.inf):
                raise ValueError(f"{name} must be finite and positive, and so must its square")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        for name in ("v_min", "v_max", "e_min", "e_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be below v_max")
        if not self.e_min < self.e_max:
            raise ValueError("e_min must be below e_max")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and nonnegative")


@dataclass(frozen=True)
class SchedulerState:
    """The scheduler's iterate: online nodes, gains, multipliers and frequency weights.

    Frozen, with ``der_nodes`` a tuple, so a state's node list and its
    per-unit arrays change only together, as a new state.  A node list
    is checked where it is installed, by ``initial`` and ``realigned``;
    the bare constructor checks nothing (a check there would cost each
    step about 2.5% at 36 units), so a state built by hand is taken as
    valid.
    """

    der_nodes: tuple[int, ...]
    kappa_v: np.ndarray
    kappa_f: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    w_f: np.ndarray
    seed: int = 0

    @property
    def m(self) -> int:
        return len(self.der_nodes)

    @classmethod
    def initial(cls, der_nodes: list[int], n_bus: int, cfg: SchedulerConfig, seed: int = 0):
        """Zero gains and multipliers for ``der_nodes`` on a feeder of ``n_bus`` buses.

        The empty state (no units) realigned to ``der_nodes``, so the
        nodes are checked there.  Raises ValueError, naming the argument,
        unless ``n_bus`` is a positive integer, ``seed`` a nonnegative
        one (bools are neither) and the nodes distinct integer buses
        1..n_bus.
        """
        # the bus-id type rule: n_bus is the last bus id, and the seed keys each node's weight stream
        if not (_is_bus_id(n_bus) and n_bus >= 1):
            raise ValueError(f"n_bus must be a positive integer, got {n_bus!r}")
        if not (_is_bus_id(seed) and seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        empty = cls((), np.zeros(0), np.zeros(0), np.zeros(2 * n_bus), np.zeros(2), np.zeros(0), seed)
        return empty.realigned(der_nodes, cfg)

    def realigned(self, der_nodes: list[int], cfg: SchedulerConfig) -> "SchedulerState":
        """Carry per-unit slots over to a new online set (plug-and-play).

        The one place a node list enters a state: an unchanged list
        returns the state itself, and any other is checked first.  The
        frequency weights are drawn or filled from ``cfg`` for the new
        list only, so an unchanged list keeps the state's weights
        whatever ``cfg.cost_w_f`` says.  A new state shares no array with
        this one: the multipliers are carried over as copies.
        Raises ValueError unless the new nodes are distinct integer buses
        of the feeder the multipliers are sized for (1..len(mu) / 2).
        """
        nodes = tuple(der_nodes)
        if nodes == self.der_nodes:
            return self
        _check_nodes(nodes, len(self.mu) // 2)
        old = {node: i for i, node in enumerate(self.der_nodes)}
        m_old = self.m
        m = len(nodes)

        def carry(vec):
            out = np.zeros(2 * m)
            for j, node in enumerate(nodes):
                if node in old:
                    i = old[node]
                    out[j] = vec[i]
                    out[m + j] = vec[m_old + i]
            return out

        w_f = _freq_weights(nodes, cfg, self.seed)
        return SchedulerState(nodes, carry(self.kappa_v), carry(self.kappa_f), self.mu.copy(), self.lam.copy(), w_f, self.seed)


def _check_nodes(nodes, n_bus: int) -> None:
    """Raise ValueError unless the nodes are distinct integer buses 1..n_bus (no bools)."""
    seen = set()
    for node in nodes:
        if not (_is_bus_id(node) and 1 <= node <= n_bus):
            raise ValueError(f"DER node {node!r} is not a bus of the feeder (1..{n_bus})")
        if node in seen:
            raise ValueError(f"DER node {node} holds more than one online unit")
        seen.add(node)


def _freq_weights(der_nodes, cfg: SchedulerConfig, seed: int) -> np.ndarray:
    """Per-unit frequency-gain cost weights (k_pf slots, then k_qf), fixed or drawn per node."""
    if cfg.cost_w_f is not None:
        return np.full(2 * len(der_nodes), cfg.cost_w_f, dtype=float)
    draws = [np.random.default_rng([seed, _WF_STREAM, node]).uniform(0.9, 1.1, 2) for node in der_nodes]
    return np.reshape(draws, (-1, 2)).T.ravel()


def draw_samples(v_meas: np.ndarray, cfg: SchedulerConfig, seed, n_samples: int) -> np.ndarray:
    """Zero-mean Gaussian voltage-disturbance samples, (n_samples, n), per-bus std scaled.

    This is the disturbance model the step's CVaR rows are exact for:
    bus i's std is ``cfg.noise_std * v_meas[i]``.  The step itself draws
    nothing; the samples serve sample-average checks of those rows.  A
    fresh generator per call makes the samples depend only on ``seed``.
    """
    samples = np.random.default_rng(seed).standard_normal((n_samples, len(v_meas)))
    samples *= cfg.noise_std * np.asarray(v_meas)
    return samples


def _affine(sm: SensitivityModel, state: SchedulerState, rho: SchedulingPoint):
    """Voltage prediction, tracking error and their gain slopes at ``rho``.

    Gathers the online units' columns once: G = [R[:, idx], X[:, idx]]
    (n, 2m), h = [H_p[idx], H_q[idx]] (2m,), and u, the measured voltage
    deviation at each unit repeated for its p and its q slot.  Both
    tasks see the one droop response x = kappa_v u + kappa_f d_omega:
    the voltage prediction is G x + v0 and the exchange h x + P0.  The
    returned slopes are each task's own, G u in kappa_v for the voltage
    and h d_omega in kappa_f for the tracking error.
    """
    idx = np.asarray(state.der_nodes, dtype=np.intp) - 1
    G = np.concatenate((sm.R[:, idx], sm.X[:, idx]), axis=1)
    h = sm.H[np.concatenate((idx, idx + sm.n))]
    du = rho.v_meas[idx] - rho.v_star
    u = np.concatenate((du, du))
    d_omega = rho.d_omega
    x = state.kappa_v * u + state.kappa_f * d_omega
    vm = G @ x + sm.v0
    e = float(h @ x + sm.P0 - rho.r_t * d_omega)  # less the TSO requirement R_T d_omega
    return vm, e, G * u, h * d_omega


def freq_error(sm: SensitivityModel, state: SchedulerState, rho: SchedulingPoint) -> float:
    """Tracking error of the PCC adjustment against the TSO requirement.

    Affine in kappa_f and in kappa_v, through the one droop response of
    ``_affine``.
    """
    return _affine(sm, state, rho)[1]


def primal_dual_step(
    state: SchedulerState,
    sm: SensitivityModel,
    rho: SchedulingPoint,
    cfg: SchedulerConfig,
    stab: StabilityParams,
    tau_p: np.ndarray,
    tau_q: np.ndarray,
) -> SchedulerState:
    """One dual-then-primal cycle on the regularized Lagrangian.

    The multipliers take their damped Jacobi step on the constraint
    values first; the gains then use the refreshed multipliers, the
    voltage-gain pairs by one gradient step projected onto the
    certified-stable set, the frequency gains by their minimizer clamped
    to the configured box (step sizes in the module docstring).  Each
    CVaR row is beta times the predicted violation plus
    sigma_i phi(Phi^-1(beta)) (module docstring), so its slope in kappa_v
    is beta times the voltage slope.
    Raises ValueError for a stale model (``sm.rho`` is not ``rho``), for
    a state whose mu is not sized for this feeder (2n entries), unless
    tau_p and tau_q have shape (m,), one entry per online unit, finite
    and positive, or when an updated voltage-gain pair is not finite or
    clips with a scaled gain past 2^64 gamma (a diverged iteration,
    refused by stability._project_in_place).
    """
    if sm.rho is not rho:
        raise ValueError("stale sensitivity model: built at another scheduling point")
    n = sm.n
    if state.mu.shape != (2 * n,):
        raise ValueError(f"mu must have shape ({2 * n},): the state was built for another feeder")
    m = state.m
    for name, tau in (("tau_p", tau_p), ("tau_q", tau_q)):
        if np.shape(tau) != (m,):
            raise ValueError(f"{name} must have shape ({m},)")

    vm, e, J, grad_e = _affine(sm, state, rho)
    beta = cfg.beta
    # inv_cdf(beta), not inv_cdf(1 - beta): the density is even, and 1 - beta rounds to 1 for tiny beta
    tail = cfg.noise_std * rho.v_meas * NormalDist().pdf(NormalDist().inv_cdf(beta))
    l_val = beta * np.concatenate((vm - cfg.v_max, cfg.v_min - vm)) + np.concatenate((tail, tail))
    r_val = np.array([cfg.e_min - e, e - cfg.e_max])  # the band rows, positive = violated

    curv = np.empty(2 * m)  # the cost's curvature 2 w^2 in each voltage gain
    curv[:m] = 2.0 * cfg.cost_w_pv**2
    curv[m:] = 2.0 * cfg.cost_w_qv**2
    d = (J * J) @ (beta * beta / curv) + cfg.phi
    f_dir = grad_e / (2.0 * state.w_f**2)  # each kappa_f's minimizer per unit of lam[0] - lam[1]
    d_lam = grad_e @ f_dir + cfg.psi
    mu = np.maximum(state.mu + _DUAL_DAMPING / np.concatenate((d, d)) * (l_val - cfg.phi * state.mu), 0.0)
    lam = np.maximum(state.lam + _DUAL_DAMPING / d_lam * (r_val - cfg.psi * state.lam), 0.0)

    s_v = J.T @ (beta * (mu[:n] - mu[n:]))
    kappa_v = state.kappa_v - (curv * state.kappa_v + s_v) / (2.0 * max(cfg.cost_w_pv, cfg.cost_w_qv) ** 2)
    kappa_f = (lam[0] - lam[1]) * f_dir
    _project_in_place(kappa_v.reshape(2, m), np.array((tau_p, tau_q), dtype=float), stab)

    # positional, in field order: half the cost of dataclasses.replace
    return SchedulerState(
        state.der_nodes, kappa_v, kappa_f.clip(-stab.kf_bound, stab.kf_bound), mu, lam, state.w_f, state.seed
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

    Realigns the gain slots to the currently online units, performs one
    primal-dual cycle on the frozen measurement, and returns the per-unit
    broadcast.  Raises ValueError, before any work, when the online
    units' nodes differ from the state's and are not distinct integer
    buses of the feeder (``SchedulerState.realigned``); an unchanged list
    was checked when the state installed it.  The frequency weights are
    the state's, set when its node list was installed: while the online
    nodes stay the same, ``cfg.cost_w_f`` is not read.  ``sample_seed``
    is not read: the CVaR rows are exact, so the step draws no samples;
    it stays while callers pass it by position.
    """
    online = [u for u in ders if u.online]
    nodes = [u.node for u in online]
    state = state.realigned(nodes, cfg)
    tau_p = np.array([u.tau_p for u in online])
    tau_q = np.array([u.tau_q for u in online])

    state = primal_dual_step(state, sm, rho, cfg, stab, tau_p, tau_q)
    m = len(nodes)
    kv = state.kappa_v.tolist()
    kf = state.kappa_f.tolist()
    # positional fields k_pv, k_pf, k_qv, k_qf: about half the cost of keywords
    return state, dict(zip(nodes, map(DroopGains, kv[:m], kf[:m], kv[m:], kf[m:])))
