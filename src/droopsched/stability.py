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

The projection keeps every pair that check_gains accepts bit for bit,
at any magnitude, and moves every other pair a rounding-sized step
inside the boundary.  A pair that clips with a scaled gain past
2^64 gamma is not projected but refused by name, as the mark of a
diverged iteration, and so is a projected pair whose gains underflow
out of the region (subnormal k).  StabilityParams admits gamma within
[2^-400, 2^400], so that up to that bound no step of the projection
overflows and the strictness margin never underflows.

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
]

_SQRT2 = np.sqrt(2.0)
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class StabilityParams:
    """Network-wide stability constant and strictness margin."""

    gamma: float
    kf_bound: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and positive")
        # within this range and the projection's 2^64 gamma bound, no step of
        # the projection overflows, and quad_margin stays a normal float
        if not 2.0**-400 <= self.gamma <= 2.0**400:
            raise ValueError("gamma must lie within [2**-400, 2**400]")
        if not self.kf_bound >= 0.0:
            raise ValueError("kf_bound must be non-negative")

    @property
    def quad_margin(self) -> float:
        """Slack required of the quadratic form: 4 gamma times 1e-6 gamma."""
        return 4.0 * self.gamma * (1e-6 * self.gamma)


def _check_taus(tau_p, tau_q) -> None:
    """Raise ValueError unless every time constant, float or array entry, is finite and positive."""
    for name, tau in (("tau_p", tau_p), ("tau_q", tau_q)):
        if not np.all((0.0 < tau) & (tau < np.inf)):
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
    # one batched eigensolve of the scaled pair; R and X are positive
    # definite (SensitivityModel checks), so lam_max > 0
    sq = np.sqrt(np.array((tau_p, tau_q)))
    lam_max = np.linalg.eigvalsh(sq[:, :, None] * np.array((sm.R, sm.X)) * sq[:, None, :])[:, -1]
    return 1.0 / float(max(lam_max))


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
    unless both time constants are finite and positive, through the one
    time-constant check the projection uses too (``_check_taus``).
    """
    _check_taus(tau_p, tau_q)
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

    The boundary point is stepped inside by its rounding bound.  The
    pairs must lie within 2^64 gamma, as _project_in_place ensures: then,
    for every gamma that StabilityParams admits, no step overflows and
    the result is no farther from the pair than the region's apex is.
    """
    g = params.gamma
    # rotate to w = (a-b)/sqrt2, s = (a+b)/sqrt2: the region is s <= d - w^2 / (2 sqrt2 g)
    w0 = (a - b) / _SQRT2
    s0 = (a + b) / _SQRT2
    d = (4.0 * g * g - params.quad_margin) / (4.0 * _SQRT2 * g)
    # stationarity of the squared distance to the boundary curve in x = w / g:
    # x^3 + 4 (1 + (s0 - d) / (sqrt2 g)) x - 4 w0 / g = 0
    w = g * _nearest_root(4.0 * (1.0 + (s0 - d) / (_SQRT2 * g)), -4.0 * w0 / g)
    s = _inward(w, d - w * w / (2.0 * _SQRT2 * g), g)
    return (s + w) / _SQRT2, (s - w) / _SQRT2


def _project_in_place(k: np.ndarray, tau: np.ndarray, params: StabilityParams) -> None:
    """project_voltage_gains on the stacked pairs k = (k_pv, k_qv), overwritten in place.

    ``k`` and ``tau`` = (tau_p, tau_q) are float arrays of one shape
    (2, ...), and the caller owns ``k``.  All time constants are checked
    in one pass.  A pair clips exactly where check_gains rejects it: a
    quadratic that overflows to inf or NaN clips, and so does every
    non-finite gain or scaled pair, so the gains are checked on the
    clipped pairs only.  A clipped pair with a scaled gain past 2^64
    gamma, an infinite k / tau included, is refused before any pair is
    projected, and so is a result whose gains round out of the region
    (products k = a tau in subnormals); ``k`` is then left unchanged.
    """
    # the reductions propagate NaN, which fails the comparisons
    if not (0.0 < tau.min(initial=np.inf) and tau.max(initial=0.0) < np.inf):
        _check_taus(tau[0], tau[1])  # raises, naming tau_p or tau_q
    g = params.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        ab = k / tau
        # a quadratic that overflows to inf clips, and a NaN one fails <= and
        # clips too: check_gains, in Python floats, rejects both without a warning
        clip = ~(_quad(ab[0, ...], ab[1, ...], g) <= -params.quad_margin)
    if clip.any():
        if not np.isfinite(k[:, clip]).all():
            raise ValueError("k_pv and k_qv must be finite")
        pairs, t = ab[:, clip], tau[:, clip]
        if not np.abs(pairs).max() <= 2.0**64 * g:
            raise ValueError("k / tau must lie within 2**64 gamma where it clips: refused as diverged")
        out = np.array(_onto_boundary(pairs[0], pairs[1], params)) * t
        # check_gains's own test: a subnormal product rounds by more than the inward step
        if not (_quad(out[0] / t[0], out[1] / t[1], g) <= -params.quad_margin).all():
            raise ValueError("the projected gains underflow out of the certified region: tau too small")
        k[:, clip] = out


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
    check_gains.  A pair that already passes is returned bit-for-bit, at
    any magnitude; a clipped pair lands a rounding-sized step inside the
    boundary, no farther from the pair than the region's apex is.
    Returns new arrays.  Raises ValueError unless the four arrays share
    one shape, every time constant is finite and positive and every gain
    is finite; for the whole array when one clipped pair has a scaled
    gain past 2^64 gamma, an infinite one included (a diverged
    iteration); and when a projected gain underflows out of the region
    (subnormal k).
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
