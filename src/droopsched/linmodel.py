"""Linear surrogate of the feeder around a scheduling point.

Bus voltage magnitudes are approximated as an affine map of injections,

    v  =  R p + X q + v0,

with R and X the voltage/active- and voltage/reactive-power sensitivity
matrices.  They are assembled analytically from the tree structure:
entry (i, j) sums the branch resistances (reactances) on the common part
of the root paths of buses i and j, which makes both matrices symmetric
positive definite by construction whenever every branch has a strictly
positive impedance component.

The PCC projection H and the flow constant P0 linearise the active power
drawn at the substation, H by central finite differences of the
nonlinear solver and P0 as the offset of the base exchange from the
reference (scheduled) exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkModel, solve_power_flow

__all__ = [
    "SchedulingPoint",
    "SensitivityModel",
    "build_rx",
    "build_pcc_sensitivity",
    "build_sensitivity_model",
    "predict_voltage",
]


@dataclass
class SchedulingPoint:
    """Measurement bundle a linearization is anchored to.

    ``r_t`` is the aggregate frequency-droop gain prescribed by the
    transmission operator; ``v_star``/``omega_star`` are the nominal
    voltage and frequency the droop laws regulate around.
    """

    v_meas: np.ndarray
    r_t: float
    omega: float
    omega_star: float
    v_star: float = 1.0
    timestamp: float = 0.0

    def __post_init__(self):
        self.v_meas = np.asarray(self.v_meas, dtype=float)
        for name in ("v_meas", "r_t", "omega", "omega_star", "v_star", "timestamp"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.v_meas <= 0):
            raise ValueError("measured voltages must be strictly positive")
        if self.omega_star <= 0:
            raise ValueError("nominal frequency must be positive")

    @property
    def d_omega(self) -> float:
        return self.omega - self.omega_star


@dataclass
class SensitivityModel:
    """Affine voltage/PCC model valid near ``rho``.

    ``H`` stacks d p_pcc / d p_j for every bus first, then
    d p_pcc / d q_j; ``v0`` is chosen by the caller's coordinate
    convention (see build_sensitivity_model).
    """

    R: np.ndarray
    X: np.ndarray
    v0: np.ndarray
    H: np.ndarray
    P0: float
    rho: SchedulingPoint

    def __post_init__(self):
        for name, M in (("R", self.R), ("X", self.X)):
            if not np.array_equal(M, M.T):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(M)[0] <= 1e-12:
                raise ValueError(f"{name} must be positive definite")

    @property
    def n(self) -> int:
        return self.R.shape[0]


def build_rx(model: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Common-path sensitivity matrices from the tree structure.

    R[i, j] is the sum of branch resistances shared by the root paths of
    buses i+1 and j+1 (X analogous with reactances).  The dense root-path
    indicator is built here from the sweep plan's preorder ranges: the
    branch at position k lies on the path of the bus fed from position
    pos[j] iff k <= pos[j] < end[k].
    """
    plan = model.plan()  # validates radiality
    pos = plan.pos[:, None]
    B = (np.arange(len(pos)) <= pos) & (pos < plan.end)
    R, X = ((B * w) @ B.T for w in plan.rx)
    # force exact symmetry despite the floating matmul
    return (R + R.T) / 2.0, (X + X.T) / 2.0


def build_pcc_sensitivity(
    model: NetworkModel,
    rho: SchedulingPoint,
    p_base: np.ndarray,
    q_base: np.ndarray,
    step: float = 1e-5,
    p_sched: float | None = None,
    tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Central-difference PCC sensitivities and linearization constant.

    ``H[k]`` is d p_pcc / d p_(k+1) for k < n and d p_pcc / d q_(k+1-n)
    for k >= n, evaluated at the base injections.  ``P0`` is the base
    exchange minus the scheduled exchange ``p_sched``; when no schedule
    is supplied the base point itself is the schedule and P0 = 0.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    n = model.n
    p_base = np.asarray(p_base, dtype=float)
    q_base = np.asarray(q_base, dtype=float)
    base = solve_power_flow(model, p_base, q_base, tol=tol)

    def pcc_at(p, q):
        return solve_power_flow(model, p, q, tol=tol, warm=base).p_pcc

    H = np.zeros(2 * n)
    for k in range(n):
        dp = np.zeros(n)
        dp[k] = step
        H[k] = (pcc_at(p_base + dp, q_base) - pcc_at(p_base - dp, q_base)) / (2 * step)
        H[n + k] = (pcc_at(p_base, q_base + dp) - pcc_at(p_base, q_base - dp)) / (2 * step)
    P0 = base.p_pcc - (p_sched if p_sched is not None else base.p_pcc)
    return H, float(P0)


def build_sensitivity_model(
    model: NetworkModel,
    rho: SchedulingPoint,
    p_ctrl: np.ndarray,
    q_ctrl: np.ndarray,
    p_base: np.ndarray,
    q_base: np.ndarray,
    rx: tuple[np.ndarray, np.ndarray] | None = None,
    hp0: tuple[np.ndarray, float] | None = None,
) -> SensitivityModel:
    """Assemble the full affine model anchored at ``rho``.

    ``p_ctrl``/``q_ctrl`` are the controlled injections in whatever
    coordinates the caller will feed back into the model (absolute
    outputs, or deviations from dispatch); the offset v0 is chosen so the
    model reproduces ``rho.v_meas`` exactly at those coordinates.
    ``p_base``/``q_base`` are the full bus injections the PCC
    linearization is taken at.  Precomputed (R, X) or (H, P0) pairs can
    be passed to skip their reconstruction.
    """
    R, X = rx if rx is not None else build_rx(model)
    if hp0 is not None:
        H, P0 = hp0
    else:
        H, P0 = build_pcc_sensitivity(model, rho, p_base, q_base)
    v0 = rho.v_meas - R @ p_ctrl - X @ q_ctrl
    return SensitivityModel(R=R, X=X, v0=v0, H=H, P0=P0, rho=rho)


def predict_voltage(sm: SensitivityModel, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Affine voltage estimate v = R p + X q + v0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (sm.n,) or q.shape != (sm.n,):
        raise ValueError(f"injection vectors must have shape ({sm.n},)")
    return sm.R @ p + sm.X @ q + sm.v0
