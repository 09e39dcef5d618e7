"""Decentralized stability gate for voltage-droop gains.

The small-signal closed loop of the droop-controlled feeder is

    T dx/dt = (K_v G - I) x,      G = blkdiag(R, X),  T = diag(tau),

with x the stacked active/reactive output deviations.  A quadratic
Lyapunov argument yields a sufficient stability test that couples each
unit's gain pair only through one network-wide constant

    gamma = lambda_min((G T)^-1) = 1 / lambda_max(G T)  >  0.

With a = k_pv / tau_p and b = k_qv / tau_q the certified region is

    (a - b)^2 + 4*gamma*(a + b) - 4*gamma^2 < 0,

intersected with (a < gamma or b < gamma); the quadratic inequality in
fact forces both linear ones.  Note the linear term couples the *sum*
a + b: this is what the Schur-complement expansion of the 2x2 symmetric
part produces, and the eigenvalue sweep in the test suite confirms the
sum form is the sound one.  The region is convex (a parabola sublevel
set), so candidate gains can be repaired by exact Euclidean projection.

Frequency-droop gains do not enter the voltage stability analysis; they
are kept bounded by a configurable box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .droop import DroopGains
from .linmodel import SensitivityModel

__all__ = [
    "StabilityParams",
    "compute_gamma",
    "check_gains",
    "project_gains",
    "lyapunov_value",
    "closed_loop_matrix",
]

_SQRT2 = np.sqrt(2.0)


@dataclass
class StabilityParams:
    """Network-wide stability constant and strictness margins."""

    gamma: float
    margin: float | None = None
    kf_bound: float = 10.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.margin is None:
            self.margin = 1e-6 * self.gamma
        if self.margin <= 0:
            raise ValueError("margin must be positive")

    @property
    def quad_margin(self) -> float:
        """Slack required of the quadratic form, scale-consistent with margin."""
        return 4.0 * self.gamma * self.margin


def compute_gamma(
    sm: SensitivityModel,
    tau_p: np.ndarray,
    tau_q: np.ndarray,
) -> float:
    """1 / lambda_max(G T), the larger over the blocks T_p^1/2 R T_p^1/2 and T_q^1/2 X T_q^1/2."""
    tau_p = np.asarray(tau_p, dtype=float)
    tau_q = np.asarray(tau_q, dtype=float)
    if np.any(tau_p <= 0) or np.any(tau_q <= 0):
        raise ValueError("time constants must be positive")
    n = sm.n
    if tau_p.shape != (n,) or tau_q.shape != (n,):
        raise ValueError(f"tau vectors must have shape ({n},)")
    lam_max = max(
        float(np.linalg.eigvalsh(sq[:, None] * M * sq)[-1])
        for M, sq in ((sm.R, np.sqrt(tau_p)), (sm.X, np.sqrt(tau_q)))
    )
    if lam_max <= 0:
        raise ValueError("sensitivity model is not positive definite")
    return 1.0 / lam_max


def _scaled(gains: DroopGains, tau_p: float, tau_q: float) -> tuple[float, float]:
    return gains.k_pv / tau_p, gains.k_qv / tau_q


def check_gains(
    gains: DroopGains,
    tau_p: float,
    tau_q: float,
    params: StabilityParams,
) -> bool:
    """True iff the voltage-gain pair satisfies the certified conditions.

    Strictness is enforced through params.margin; the boundary itself is
    rejected.
    """
    a, b = _scaled(gains, tau_p, tau_q)
    g = params.gamma
    quad = (a - b) ** 2 + 4.0 * g * (a + b) - 4.0 * g * g
    if quad > -params.quad_margin:
        return False
    return a <= g - params.margin or b <= g - params.margin


def _project_parabola(a: float, b: float, params: StabilityParams) -> tuple[float, float]:
    """Exact Euclidean projection of (a, b) onto the certified region."""
    g = params.gamma
    # rotate to w = (a-b)/sqrt2, s = (a+b)/sqrt2: region is s <= d - c/2 w^2
    w0 = (a - b) / _SQRT2
    s0 = (a + b) / _SQRT2
    c = 1.0 / (_SQRT2 * g)
    d = (4.0 * g * g - params.quad_margin) / (4.0 * _SQRT2 * g)
    if s0 <= d - 0.5 * c * w0 * w0:
        return a, b
    # land a hair inside the boundary so the check accepts despite rounding
    d -= 1e-12 * g
    # stationarity of the squared distance to the boundary curve:
    # (c^2/2) w^3 + (1 + c (s0 - d)) w - w0 = 0
    coeffs = [0.5 * c * c, 0.0, 1.0 + c * (s0 - d), -w0]
    roots = np.roots(coeffs)
    best = None
    best_d = np.inf
    for root in roots:
        if abs(root.imag) > 1e-9 * max(1.0, abs(root.real)):
            continue
        w = float(root.real)
        s = d - 0.5 * c * w * w
        dist = (w - w0) ** 2 + (s - s0) ** 2
        if dist < best_d:
            best_d = dist
            best = (w, s)
    w, s = best
    return (s + w) / _SQRT2, (s - w) / _SQRT2


def project_gains(
    gains: DroopGains,
    tau_p: float,
    tau_q: float,
    params: StabilityParams,
) -> DroopGains:
    """Repair a candidate gain set so it passes check_gains.

    Voltage gains are projected in (k_pv/tau_p, k_qv/tau_q) coordinates
    onto the certified region and rescaled; frequency gains are clamped
    to the configured box.
    """
    a, b = _scaled(gains, tau_p, tau_q)
    a2, b2 = _project_parabola(a, b, params)
    kf = params.kf_bound
    return DroopGains(
        k_pv=a2 * tau_p,
        k_pf=min(kf, max(-kf, gains.k_pf)),
        k_qv=b2 * tau_q,
        k_qf=min(kf, max(-kf, gains.k_qf)),
    )


def lyapunov_value(sm: SensitivityModel, dx: np.ndarray) -> float:
    """Quadratic energy 0.5 * dx' G dx of a state deviation."""
    dx = np.asarray(dx, dtype=float)
    n = sm.n
    if dx.shape != (2 * n,):
        raise ValueError(f"dx must have shape ({2 * n},)")
    return 0.5 * float(dx[:n] @ (sm.R @ dx[:n]) + dx[n:] @ (sm.X @ dx[n:]))


def closed_loop_matrix(
    sm: SensitivityModel,
    k_pv: np.ndarray,
    k_qv: np.ndarray,
    tau_p: np.ndarray,
    tau_q: np.ndarray,
) -> np.ndarray:
    """Small-signal state matrix T^-1 (K_v G - I) at full network dimension.

    Gain vectors hold one (possibly zero) entry per non-substation bus.
    """
    n = sm.n
    k_pv = np.asarray(k_pv, dtype=float)
    k_qv = np.asarray(k_qv, dtype=float)
    for name, vec in (("k_pv", k_pv), ("k_qv", k_qv), ("tau_p", tau_p), ("tau_q", tau_q)):
        if np.shape(vec) != (n,):
            raise ValueError(f"{name} must have shape ({n},)")
    KvG = np.block(
        [
            [k_pv[:, None] * sm.R, k_pv[:, None] * sm.X],
            [k_qv[:, None] * sm.R, k_qv[:, None] * sm.X],
        ]
    )
    A = KvG - np.eye(2 * n)
    tau = np.concatenate([np.asarray(tau_p, dtype=float), np.asarray(tau_q, dtype=float)])
    return A / tau[:, None]
