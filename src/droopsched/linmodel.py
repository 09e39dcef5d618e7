"""Linear surrogate of the feeder around a scheduling point.

Bus voltage magnitudes are approximated as an affine map of injections,

    v  =  R p + X q + v0,

with R and X the voltage/active- and voltage/reactive-power sensitivity
matrices.  They are assembled analytically from the tree structure:
entry (i, j) sums the branch resistances (reactances) on the common part
of the root paths of buses i and j, so R = B diag(r) B^T with B the
invertible root-path indicator.  Both are symmetric by construction; R
is positive definite exactly when every branch has r > 0, and X exactly
when every branch has x > 0.  A feeder may have a branch with r = 0 or
x = 0 (not both), and the power flow solves on it, but SensitivityModel
rejects the singular matrix that results.

The PCC projection H and the flow constant P0 linearise the active power
drawn at the substation, H by central finite differences of the
nonlinear solver.  P0 is the offset of the base exchange from the
scheduled one; build_pcc_sensitivity takes the base point as the
schedule, so its P0 is 0, and a caller with another schedule passes its
own (H, P0) to build_sensitivity_model through ``hp0``.

H costs 4n + 1 power flows: one at the base point, then a +step and a
-step flow per injection.  Each stepped flow starts from the exact
tangent of the base flow.  The sweep is a
fixed point l = g(l; p, q) on the squared branch currents, so at the
converged base their derivative is T = (I - dg/dl)^-1 dg/d(p, q), read
off the base's flows, currents and voltages; the stepped flow's
currents differ from l_base + step T e_j by a term of order step^2
only, and one sweep settles them.  T also gives H exactly: p_pcc sums
r l - p over every branch, so d p_pcc = r . dl - dp.  H stays the
central difference of the 4n + 1 flows while the benchmark pins those
nested flows (ROADMAP items 1a and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .network import NetworkModel, PowerFlowSolution, solve_power_flow

__all__ = [
    "SchedulingPoint",
    "SensitivityModel",
    "build_rx",
    "build_pcc_sensitivity",
    "build_sensitivity_model",
]

_FD_STEP = 1e-5  # central-difference step of H, in per-unit injection
_FD_TOL = 1e-10  # power-flow tolerance of every solve behind H


def _read_only(a) -> np.ndarray:
    """A read-only float copy, so that a record's array is its own."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _rebuild(record):
    # copies and pickles go through the constructor, so their arrays are read-only too
    return (type(record), tuple(getattr(record, f.name) for f in fields(record)))


def _has_cholesky(a) -> bool:
    """Whether the symmetric matrix ``a`` is positive definite.

    An empty matrix has no lambda_min, so it is not.
    """
    if not a.size:
        return False
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class SchedulingPoint:
    """Measurement bundle a linearization is anchored to.

    ``r_t`` is the aggregate frequency-droop gain prescribed by the
    transmission operator; ``v_star``/``omega_star`` are the nominal
    voltage and frequency the droop laws regulate around.  ``v_meas`` is
    stored as a read-only copy.  Equality and hash are by identity: a
    field-wise ``==`` would compare arrays, whose truth value is ambiguous.
    """

    v_meas: np.ndarray
    r_t: float
    omega: float
    omega_star: float
    v_star: float = 1.0
    timestamp: float = 0.0

    __reduce__ = _rebuild

    def __post_init__(self):
        object.__setattr__(self, "v_meas", _read_only(self.v_meas))
        if self.v_meas.ndim != 1:
            raise ValueError("v_meas must be 1-D")
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


@dataclass(frozen=True, eq=False)
class SensitivityModel:
    """Affine voltage/PCC model valid near ``rho``.

    ``H`` stacks d p_pcc / d p_j for every bus first, then
    d p_pcc / d q_j; ``P0`` is the exchange's offset from its schedule,
    0 from build_pcc_sensitivity, whose base point is the schedule, or a
    caller's own value passed through build_sensitivity_model's ``hp0``;
    ``v0`` is chosen by the caller's coordinate convention (see
    build_sensitivity_model).  Construction checks that R and X are
    n x n, finite, symmetric and positive definite, that v0 and
    rho.v_meas have n entries and H 2n, and that v0, H and P0 are
    finite.  Each matrix, R before X, is checked in one pass: its
    symmetry, then lambda_min > 1e-12 as a Cholesky factorization of
    M - 1e-12 I, which exists exactly when every eigenvalue of M exceeds
    1e-12.  R, X, v0 and H are stored as read-only copies.  Equality and
    hash are by identity, as for SchedulingPoint.
    """

    R: np.ndarray
    X: np.ndarray
    v0: np.ndarray
    H: np.ndarray
    P0: float
    rho: SchedulingPoint

    __reduce__ = _rebuild

    def __post_init__(self):
        for name in ("R", "X", "v0", "H"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        shape = self.R.shape
        if len(shape) != 2 or shape[0] != shape[1] or self.X.shape != shape:
            raise ValueError("R and X must be square and of one size")
        n = shape[0]
        for name, vec, size in (("v0", self.v0, n), ("H", self.H, 2 * n), ("rho.v_meas", self.rho.v_meas, n)):
            if np.shape(vec) != (size,):
                raise ValueError(f"{name} must have shape ({size},)")
        for name in ("v0", "H", "P0", "R", "X"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        for name, M in (("R", self.R), ("X", self.X)):
            if not np.array_equal(M, M.T):
                raise ValueError(f"{name} must be symmetric")
            if not _has_cholesky(M - 1e-12 * np.eye(n)):
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
    plan = model.plan()  # built when the model was constructed
    pos = plan.pos[:, None]
    B = (np.arange(len(pos)) <= pos) & (pos < plan.end)
    R, X = ((B * w) @ B.T for w in plan.rxz[:2])
    # force exact symmetry despite the floating matmul
    return (R + R.T) / 2.0, (X + X.T) / 2.0


def _current_tangent(model: NetworkModel, base: PowerFlowSolution) -> np.ndarray:
    """Exact d i_sq / d (p, q) of the power flow at the converged ``base``.

    The sweep iterates l = g(l; p, q) on the squared branch currents l:
    P and Q are the subtree sums of r l - p and x l - q, the squared
    voltage at a bus is v_sub^2 less the path sum of the drops
    2 (r P + x Q) - |z|^2 l, and g = (P^2 + Q^2) / v_from, v_from the
    squared sending-end voltage.  At the fixed point the tangent is
    T = (I - dg/dl)^-1 dg/d(p, q), with both Jacobians read off the base.
    A loss r l enters P as a load of r l does, so dg/dl is
    -r dg/dp - x dg/dq, less the loss term's own share of the drops.
    Rows follow ``model.branches``; columns are d/dp_j for every bus,
    then d/dq_j, as in H.
    """
    plan = model.plan()
    n = model.n
    k = np.arange(n)
    # preorder positions: sub[a, b] iff b is in the subtree of a, up[a, b] iff b is a strict ancestor of a
    sub = ((k[:, None] <= k) & (k < plan.end[:, None])).astype(float)
    up = sub.T - np.eye(n)
    l, P, Q = (a.take(plan.order) for a in (base.i_sq, base.p_flow, base.q_flow))
    # squared sending-end voltages: the substation's, then the voltage of the bus each position feeds
    v_from = np.concatenate((base.v[:1], base.v[1:].take(plan.bus))).take(plan.par) ** 2
    r, x, z = plan.rxz
    lv = (l / v_from)[:, None]
    # g moves with the flows it squares, and against its sending-end voltage
    gp = (-2.0 * P / v_from)[:, None] * sub - 2.0 * lv * ((up * r) @ sub)
    gq = (-2.0 * Q / v_from)[:, None] * sub - 2.0 * lv * ((up * x) @ sub)
    eye_less_gl = gp * r + gq * x + lv * (up * z)
    eye_less_gl.flat[:: n + 1] += 1.0
    T = np.linalg.solve(eye_less_gl, np.concatenate((gp, gq), axis=1))
    return T.take(plan.inv, axis=0).take(np.concatenate((plan.pos, plan.pos + n)), axis=1)


def build_pcc_sensitivity(
    model: NetworkModel,
    rho: SchedulingPoint,
    p_base: np.ndarray,
    q_base: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Central-difference PCC sensitivities and linearization constant.

    ``H[k]`` is d p_pcc / d p_(k+1) for k < n and d p_pcc / d q_(k+1-n)
    for k >= n, evaluated at the base injections.  ``P0`` is the base
    exchange minus the scheduled one; the base point is the schedule, so
    P0 is 0.0 (a caller's own P0 goes through build_sensitivity_model's
    ``hp0``).  ``rho`` is not read; it stays while callers pass it by
    position.

    Every flow solves to ``_FD_TOL``: first the base point, then per
    injection, p before q and bus by bus, a +step and a -step flow.
    Each stepped flow starts from the base currents moved along the
    exact tangent T of the base flow (``_current_tangent``), which is
    off the stepped solution by a second-order term only, so it settles
    in one sweep.  One warm record serves every flow: its currents are
    refilled before each, which is safe because solve_power_flow reads
    ``warm`` once and keeps nothing of it.
    """
    n = model.n
    p_base = np.asarray(p_base, dtype=float)
    q_base = np.asarray(q_base, dtype=float)
    base = solve_power_flow(model, p_base, q_base, tol=_FD_TOL)
    steps = _FD_STEP * _current_tangent(model, base).T
    # row j: the start of column j's +step and -step flow (a - s is a + (-s) bit for bit)
    starts = (base.i_sq + steps, base.i_sq - steps)
    # the warm record owns its currents: a caller that keeps a flow's
    # arguments then keeps one (n,) vector, not the starts
    warm = replace(base, i_sq=np.empty(n))
    pcc = np.empty((2, 2 * n))  # p_pcc of the +step flows, then of the -step flows
    for j in range(2 * n):
        row, bus = divmod(j, n)
        for k, step in enumerate((_FD_STEP, -_FD_STEP)):
            inj = [p_base, q_base]
            stepped = inj[row] = inj[row].copy()  # a new array per flow: a caller may keep a flow's arguments
            stepped[bus] += step
            warm.i_sq[...] = starts[k][j]
            pcc[k, j] = solve_power_flow(model, *inj, tol=_FD_TOL, warm=warm).p_pcc
    H = (pcc[0] - pcc[1]) / (2 * _FD_STEP)
    return H, 0.0


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
    for name, vec in (("p_ctrl", p_ctrl), ("q_ctrl", q_ctrl)):
        if np.shape(vec) != (model.n,):
            raise ValueError(f"{name} must have shape ({model.n},)")
    R, X = rx if rx is not None else build_rx(model)
    if hp0 is not None:
        H, P0 = hp0
    else:
        H, P0 = build_pcc_sensitivity(model, rho, p_base, q_base)
    v0 = rho.v_meas - R @ p_ctrl - X @ q_ctrl
    return SensitivityModel(R=R, X=X, v0=v0, H=H, P0=P0, rho=rho)
