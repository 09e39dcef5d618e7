"""Decentralized stability gate for voltage-droop gains.

The small-signal closed loop of the droop-controlled feeder is

    T dx/dt = (K_v G - I) x,      G = blkdiag(R, X),  T = diag(tau),

with x the stacked active/reactive output deviations.  A quadratic
Lyapunov argument yields a sufficient stability test that couples each
unit's gain pair only through one network-wide constant

    gamma = lambda_min((G T)^-1) = 1 / lambda_max(G T)  >  0.

With a = k_pv / tau_p and b = k_qv / tau_q the certified region is

    (a - b)^2 + 4*gamma*(a + b) - 4*gamma^2 < 0,

which needs no linear side condition: the left side equals
(a - b - 2*gamma)^2 + 8*gamma*(a - gamma), and the same with a and b
swapped, so it forces both a < gamma and b < gamma.  Note the linear
term couples the *sum* a + b: this is what the Schur-complement
expansion of the 2x2 symmetric part produces, and the eigenvalue sweep
in the test suite confirms the sum form is the sound one.  The region
is convex (a parabola sublevel set), so candidate gains can be repaired
by exact Euclidean projection.

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
    "project_voltage_gains",
    "closed_loop_matrix",
]

_SQRT2 = np.sqrt(2.0)
_EPS = np.finfo(float).eps
# Bounds that keep the projection's intermediates finite: a scaled gain past
# _HUGE takes the overflow-free clip test of _outside, and a boundary cubic
# with |p| past _CUBIC_P or |q| past _CUBIC_Q is not solved, its pair taking
# the region's apex (see _onto_boundary).
_HUGE = 2.0**510
_CUBIC_P = 2.0**340
_CUBIC_Q = 2.0**510


@dataclass(frozen=True)
class StabilityParams:
    """Network-wide stability constant and strictness margin."""

    gamma: float
    kf_bound: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and positive")
        if not self.kf_bound >= 0.0:
            raise ValueError("kf_bound must be non-negative")

    @property
    def quad_margin(self) -> float:
        """Slack required of the quadratic form: 4 gamma times 1e-6 gamma."""
        return 4.0 * self.gamma * (1e-6 * self.gamma)


def _check_taus(tau_p: np.ndarray, tau_q: np.ndarray) -> None:
    """Raise ValueError unless every time constant is finite and positive."""
    for name, tau in (("tau_p", tau_p), ("tau_q", tau_q)):
        if not ((0.0 < tau) & (tau < np.inf)).all():
            raise ValueError(f"{name} must be finite and positive")


def compute_gamma(
    sm: SensitivityModel,
    tau_p: np.ndarray,
    tau_q: np.ndarray,
) -> float:
    """1 / lambda_max(G T), the larger over the blocks T_p^1/2 R T_p^1/2 and T_q^1/2 X T_q^1/2."""
    tau_p = np.asarray(tau_p, dtype=float)
    tau_q = np.asarray(tau_q, dtype=float)
    _check_taus(tau_p, tau_q)
    n = sm.n
    if tau_p.shape != (n,) or tau_q.shape != (n,):
        raise ValueError(f"tau vectors must have shape ({n},)")
    # R and X are positive definite (SensitivityModel checks), so lam_max > 0
    return 1.0 / max(
        float(np.linalg.eigvalsh(sq[:, None] * M * sq)[-1])
        for M, sq in ((sm.R, np.sqrt(tau_p)), (sm.X, np.sqrt(tau_q)))
    )


def _quad(a, b, g):
    """(a - b)^2 + 4 g (a + b) - 4 g^2, one evaluation order for the check and the projection."""
    diff = a - b
    return diff * diff + 4.0 * g * (a + b) - 4.0 * g * g


def check_gains(
    gains: DroopGains,
    tau_p: float,
    tau_q: float,
    params: StabilityParams,
) -> bool:
    """True iff the scaled voltage-gain pair lies in the certified region.

    The quadratic form must be at most -params.quad_margin, so the
    boundary itself is rejected, and so is a NaN.  Raises ValueError
    unless both time constants are finite and positive.
    """
    for name, tau in (("tau_p", tau_p), ("tau_q", tau_q)):
        if not 0.0 < tau < np.inf:
            raise ValueError(f"{name} must be finite and positive")
    return _quad(gains.k_pv / tau_p, gains.k_qv / tau_q, params.gamma) <= -params.quad_margin


def _nearest_root(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Root of x^3 + p x + q = 0 that is largest in magnitude among those of sign -q.

    That root is the foot point of the nearest boundary point: a root of
    the other sign is farther away, and between two roots of one sign the
    smaller is a distance maximum.
    """
    h = 0.5 * np.abs(q)
    p3 = p / 3.0
    disc = h * h + p3 * p3 * p3
    x = np.empty_like(h)
    one = disc >= 0.0
    # one real root: Cardano's u + v with uv = -p/3, summed as
    # (u^3 + v^3) / (u^2 - uv + v^2) so that no two terms cancel
    h1, p1 = h[one], p3[one]
    u = np.cbrt(h1 + np.sqrt(disc[one]))
    v = p1 / u
    x[one] = 2.0 * h1 / (u * u + p1 + v * v)
    # three real roots: the largest of 2 r cos((arccos t - 2 pi k) / 3)
    three = ~one
    r = np.sqrt(-p3[three])
    t = np.minimum(h[three] / (r * r * r), 1.0)
    x[three] = 2.0 * r * np.cos(np.arccos(t) / 3.0)
    return np.copysign(x, -q)


def _inward(w, s, g):
    """``s`` stepped inside by a bound on the rounding of the quadratic at (w, s).

    The bound includes the tau rescaling, and grows with |a|, |b| >> gamma:
    |a| + |b| = sqrt2 max(|s|, |w|), |a - b| = sqrt2 |w|, dquad/ds = 4 sqrt2 g.
    """
    big = np.maximum(np.abs(s), np.abs(w))
    err = 16.0 * _EPS * (2.0 * big * (2.0 * np.abs(w) + 2.0 * _SQRT2 * g) + 2.0 * w * w + 4.0 * g * g)
    return s - err / (4.0 * _SQRT2 * g)


def _onto_boundary(a: np.ndarray, b: np.ndarray, params: StabilityParams) -> tuple[np.ndarray, np.ndarray]:
    """Projection of scaled pairs outside the certified region onto its boundary.

    The boundary point is stepped inside by its rounding bound.  Where
    that step leaves it farther from the pair than the region's apex is,
    by more than a relative 1e-12 that keeps rounding-level ties (this
    starts near 1e28 gamma), or where the boundary cubic's coefficients
    are too large to solve without overflow, the pair goes to the apex,
    stepped inside the same way.
    """
    g = params.gamma
    # rotate to w = (a-b)/sqrt2, s = (a+b)/sqrt2: the region is s <= d - w^2 / (2 sqrt2 g)
    w0 = (a - b) / _SQRT2
    s0 = (a + b) / _SQRT2
    d = (4.0 * g * g - params.quad_margin) / (4.0 * _SQRT2 * g)
    # stationarity of the squared distance to the boundary curve in x = w / g:
    # x^3 + 4 (1 + (s0 - d) / (sqrt2 g)) x - 4 w0 / g = 0
    p = 4.0 * (1.0 + (s0 - d) / (_SQRT2 * g))
    q = -4.0 * w0 / g
    solvable = (np.abs(p) <= _CUBIC_P) & (np.abs(q) <= _CUBIC_Q)
    if not solvable.all():
        # x^3 + x = 0 has the root x = 0, the apex
        p, q = np.where(solvable, p, 1.0), np.where(solvable, q, 0.0)
    w = g * _nearest_root(p, q)
    s = _inward(w, d - w * w / (2.0 * _SQRT2 * g), g)
    s_apex = _inward(0.0, d, g)
    far = np.hypot(w - w0, s - s0) > np.hypot(w0, s_apex - s0) * (1.0 + 1e-12)
    if far.any():
        w, s = np.where(far, 0.0, w), np.where(far, s_apex, s)
    return (s + w) / _SQRT2, (s - w) / _SQRT2


def _outside(a: np.ndarray, b: np.ndarray, params: StabilityParams) -> np.ndarray:
    """``_quad(a, b, gamma) > -quad_margin`` without overflow, for pairs that may pass _HUGE.

    Past _HUGE, (a - b)^2 may overflow but is not needed.  Pairs with
    a != b differ by at least 2^-54 max(|a|, |b|), whose square exceeds
    the 8 gamma max(|a|, |b|) that the linear term can offset, so they
    lie outside; a pair with a == b lies inside iff a < 0.  check_gains,
    whose quadratic overflows to inf or NaN there, rejects the same pairs.
    """
    huge = np.maximum(np.abs(a), np.abs(b)) > _HUGE
    tame = _quad(np.where(huge, 0.0, a), np.where(huge, 0.0, b), params.gamma) > -params.quad_margin
    return np.where(huge, (a != b) | (a > 0.0), tame)


def _project_in_place(k: np.ndarray, tau: np.ndarray, params: StabilityParams) -> None:
    """project_voltage_gains on the stacked pairs k = (k_pv, k_qv), overwritten in place.

    ``k`` and ``tau`` = (tau_p, tau_q) are float arrays of one shape
    (2, ...), and the caller owns ``k``.  All time constants are checked
    in one pass, then all gains: a NaN pair would pass the region test
    unprojected, an infinite one would overflow in the projection, and so
    would a finite one whose scaled pair overflows.
    """
    # the reductions propagate NaN, which fails the comparisons
    tau_min = float(tau.min(initial=np.inf))
    if not (0.0 < tau_min and tau.max(initial=0.0) < np.inf):
        _check_taus(tau[0], tau[1])  # raises, naming tau_p or tau_q
    # |k| <= _HUGE tau_min bounds every |k / tau| by _HUGE, so the division
    # cannot overflow; the product is exact or, for huge tau, inf
    tame = np.abs(k).max(initial=0.0) <= _HUGE * tau_min
    if tame:
        ab = k / tau
        clip = _quad(ab[0, ...], ab[1, ...], params.gamma) > -params.quad_margin
    elif not np.isfinite(k).all():
        raise ValueError("k_pv and k_qv must be finite")
    else:
        with np.errstate(over="ignore"):
            ab = k / tau
        if not np.isfinite(ab).all():
            raise ValueError("k_pv / tau_p and k_qv / tau_q must be finite: the scaled gains overflow")
        clip = _outside(ab[0, ...], ab[1, ...], params)
    if clip.any():
        pairs = ab[0, ...][clip], ab[1, ...][clip]
        if tame:
            a, b = _onto_boundary(*pairs, params)
        else:
            # a pair past _HUGE may overflow in the rotation or in the boundary
            # cubic's coefficients, which then send it to the apex
            with np.errstate(over="ignore"):
                a, b = _onto_boundary(*pairs, params)
        # [i, ...] keeps 0-d rows as views, so the writes reach k
        k[0, ...][clip] = a * tau[0, ...][clip]
        k[1, ...][clip] = b * tau[1, ...][clip]


def project_voltage_gains(
    k_pv: np.ndarray,
    k_qv: np.ndarray,
    tau_p: np.ndarray,
    tau_q: np.ndarray,
    params: StabilityParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean projection of every unit's voltage-gain pair onto the certified region.

    Arrays of one shape, one entry per unit; the projection is taken in
    the scaled pairs (k_pv / tau_p, k_qv / tau_q), and its result passes
    check_gains.  A pair that already passes is returned bit-for-bit; a
    clipped pair lands a rounding-sized step inside the boundary, or at
    the region's apex for pairs so large (from about 1e28 gamma) that
    this step would take it farther out than the apex is.  The result
    stays finite for scaled pairs up to about 1e300 in magnitude.
    Returns new arrays.  Raises ValueError unless the four arrays share
    one shape, every time constant is finite and positive, every gain
    is finite and every scaled pair k / tau is finite.
    """
    if not np.shape(k_pv) == np.shape(k_qv) == np.shape(tau_p) == np.shape(tau_q):
        raise ValueError("k_pv, k_qv, tau_p and tau_q must share one shape")
    k = np.array((k_pv, k_qv), dtype=float)
    _project_in_place(k, np.array((tau_p, tau_q), dtype=float), params)
    return k[0, ...], k[1, ...]


def project_gains(
    gains: DroopGains,
    tau_p: float,
    tau_q: float,
    params: StabilityParams,
) -> DroopGains:
    """Repair a candidate gain set so it passes check_gains.

    Voltage gains go through project_voltage_gains; frequency gains are
    clamped to the configured box.
    """
    k_pv, k_qv = project_voltage_gains([gains.k_pv], [gains.k_qv], [tau_p], [tau_q], params)
    kf = params.kf_bound
    return DroopGains(
        k_pv=float(k_pv[0]),
        k_pf=min(kf, max(-kf, gains.k_pf)),
        k_qv=float(k_qv[0]),
        k_qf=min(kf, max(-kf, gains.k_qf)),
    )


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
