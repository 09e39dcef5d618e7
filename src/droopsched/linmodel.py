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
nonlinear solver and P0 as the offset of the base exchange from the
reference (scheduled) exchange.  H costs 4n + 1 power flows: one at the
base point, then a +step and a -step flow per injection.  The
injections are stepped one row at a time (p, then q), bus by bus in the
sweep plan's preorder.  Each +step flow starts from the +step solution
before it in its row (the base, for the first), corrected by a
path-only prediction: a +step moves the flow by the step on exactly the
branches of its bus's root path, and in preorder consecutive root paths
differ only in the new bus's branch and the subtrees that just closed.
Each -step flow starts from the mirror image 2 i_base - i_plus of the
+step flow just solved, which matches the -step solution to second
order in the step, so it converges in about one sweep.  H stays a
central difference, not an exact adjoint, while the benchmark pins
those 4n + 1 nested flows (ROADMAP items 1 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .network import NetworkModel, solve_power_flow

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
    d p_pcc / d q_j; ``v0`` is chosen by the caller's coordinate
    convention (see build_sensitivity_model).  Construction checks that
    R and X are n x n, finite, symmetric and positive definite, that v0
    and rho.v_meas have n entries and H 2n, and that v0, H and P0 are
    finite.  R, X, v0 and H are stored as read-only copies.  Equality and
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
    plan = model.plan()  # built when the model was constructed
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
    p_sched: float | None = None,
) -> tuple[np.ndarray, float]:
    """Central-difference PCC sensitivities and linearization constant.

    ``H[k]`` is d p_pcc / d p_(k+1) for k < n and d p_pcc / d q_(k+1-n)
    for k >= n, evaluated at the base injections.  ``P0`` is the base
    exchange minus the scheduled exchange ``p_sched``; when no schedule
    is supplied the base point itself is the schedule and P0 = 0.
    ``rho`` is not read; it stays while callers pass it by position.

    Every flow solves to ``_FD_TOL``: first the base point, then per
    injection a +step and a -step flow, the p row before the q row and
    each row in the sweep plan's preorder.  A +step flow is warm-started
    from the +step solution before it in its row (the base, for the
    first), whose squared currents are moved onto the new root path: on
    each branch that joins the path, by the increment
    ``((P - step)^2 + Q^2) / v_from - i_base`` of the base flows P, Q and
    sending-end voltage (``Q - step`` in the q row), and on each branch
    that leaves it, back by its own increment.  A -step flow is
    warm-started from the mirror ``2 i_base - i_plus`` of the +step
    flow's branch currents.  One guess record and one mirror record
    serve every flow: their currents are refilled before each, which is
    safe because solve_power_flow reads ``warm`` once and keeps nothing
    of it.
    """
    n = model.n
    plan = model.plan()
    p_base = np.asarray(p_base, dtype=float)
    q_base = np.asarray(q_base, dtype=float)
    base = solve_power_flow(model, p_base, q_base, tol=_FD_TOL)
    twice_base = 2.0 * base.i_sq
    guess = replace(base, i_sq=np.empty(n))
    mirror = replace(base, i_sq=np.empty(n))
    # path increments of a +step in p and in q, per branch in model order
    v_from = base.v[[b.frm for b in model.branches]] ** 2
    P, Q = base.p_flow, base.q_flow
    p_inc = ((P - _FD_STEP) ** 2 + Q * Q) / v_from - base.i_sq
    q_inc = (P * P + (Q - _FD_STEP) ** 2) / v_from - base.i_sq
    # walking the preorder, position k joins the root path, and every branch
    # whose subtree ends just before k (end == k) leaves it
    branch = plan.order.tolist()
    leaving = [[] for _ in range(n + 1)]
    for j, e in enumerate(plan.end.tolist()):
        leaving[e].append(branch[j])

    def stepped(row, bus, step):
        inj = [p_base, q_base]
        inj[row] = inj[row].copy()
        inj[row][bus] += step
        return inj

    def central(row, bus):
        plus = solve_power_flow(model, *stepped(row, bus, _FD_STEP), tol=_FD_TOL, warm=guess)
        np.subtract(twice_base, plus.i_sq, mirror.i_sq)
        np.copyto(guess.i_sq, plus.i_sq)  # where the row's next +step flow starts
        minus = solve_power_flow(model, *stepped(row, bus, -_FD_STEP), tol=_FD_TOL, warm=mirror)
        return (plus.p_pcc - minus.p_pcc) / (2 * _FD_STEP)

    H = np.zeros(2 * n)
    for row, inc in enumerate((p_inc, q_inc)):
        g = guess.i_sq
        np.copyto(g, base.i_sq)
        for k, bus in enumerate(plan.bus.tolist()):
            if leaving[k]:
                g[leaving[k]] -= inc[leaving[k]]
            g[branch[k]] += inc[branch[k]]
            H[row * n + bus] = central(row, bus)
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
