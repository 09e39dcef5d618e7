"""Radial distribution network model and DistFlow power-flow solver.

The feeder is a tree rooted at the substation (bus 0), which is modelled
as an infinite bus at fixed voltage.  The nonlinear power flow is solved
with the Backward-Forward Sweep: branch active/reactive flows are
accumulated from the leaves toward the root using the loss terms of the
previous iterate, squared voltage magnitudes are then propagated from
the root toward the leaves, and branch currents are refreshed from the
new flows and sending-end voltages.  All quantities are per-unit on a
common power base.

Both passes are O(n) array operations over one depth-first preorder of
the branches, in which every subtree is a contiguous range: the
backward pass is a difference of prefix sums over those ranges, and the
forward pass a prefix sum of the voltage drops in which each subtree's
drop is cancelled once its range closes.

Sign convention: bus injections are positive for generation and negative
for consumption; the power drawn at the point of common coupling (PCC)
is positive when the feeder imports from the transmission grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Bus",
    "Branch",
    "NetworkModel",
    "PowerFlowSolution",
    "NetworkDataError",
    "PowerFlowError",
    "validate_radial",
    "solve_power_flow",
    "load_network",
]


_MAX_ITER = 100  # sweep iterations before solve_power_flow gives up


class NetworkDataError(ValueError):
    """Raised for malformed network topology or branch data."""


class PowerFlowError(RuntimeError):
    """Raised when the sweep fails to converge or hits an infeasible state."""


@dataclass
class Bus:
    id: int


@dataclass
class Branch:
    frm: int
    to: int
    r: float
    x: float


@dataclass
class NetworkModel:
    """Radial feeder: buses (0 = substation) and branches."""

    buses: list[Bus]
    branches: list[Branch]
    v_sub: float = 1.0
    _plan: "_SweepPlan | None" = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        """Number of non-substation buses."""
        return len(self.buses) - 1

    def plan(self) -> "_SweepPlan":
        if self._plan is None:
            self._plan = _build_plan(self)
        return self._plan


@dataclass
class PowerFlowSolution:
    """Converged sweep result.  ``v`` covers all buses, index 0 = substation."""

    v: np.ndarray
    p_flow: np.ndarray
    q_flow: np.ndarray
    i_sq: np.ndarray
    p_pcc: float
    converged: bool
    iterations: int


@dataclass
class _SweepPlan:
    """Branches laid out in depth-first preorder for O(n) sweeps.

    Every array is indexed by preorder position k, except ``pos``.  The
    subtree hanging from the branch at k (inclusive) is the contiguous
    range ``k:end[k]``, so a subtree sum is a difference of prefix sums
    and the branches on the root path of position k are the j <= k with
    ``end[j] > k``.  ``par[k]`` is the position of the parent branch
    plus one, or 0 for a branch leaving the substation, and indexes an
    array that carries the substation value in slot 0.  ``bus[k]`` is
    the row (bus id - 1) of the bus the branch feeds, ``pos[j]`` the
    position of the branch feeding bus j + 1, and ``order[k]`` the
    caller's index of the branch, with ``inv`` its inverse.
    """

    order: np.ndarray
    inv: np.ndarray
    bus: np.ndarray
    pos: np.ndarray
    end: np.ndarray
    par: np.ndarray
    root: np.ndarray
    rx: np.ndarray
    rx_sq: np.ndarray


def _build_plan(model: NetworkModel) -> _SweepPlan:
    pre = validate_radial(model)
    branches = [model.branches[e] for e in pre]
    order = np.array(pre, dtype=np.intp)
    bus = np.array([b.to - 1 for b in branches], dtype=np.intp)
    pos = np.argsort(bus)
    # parent position + 1 (0 = substation), via the branch feeding the sender
    par = np.concatenate(([0], pos + 1))[[b.frm for b in branches]]
    # subtree sizes in one reverse pass: children sit after their parent
    size = [1] * len(pre)
    parents = par.tolist()
    for k in range(len(pre) - 1, -1, -1):
        if parents[k]:
            size[parents[k] - 1] += size[k]
    end = np.arange(len(pre)) + size
    rx = np.array([[b.r for b in branches], [b.x for b in branches]])
    return _SweepPlan(
        order, np.argsort(order), bus, pos, end, par, np.flatnonzero(par == 0), rx, (rx * rx).sum(axis=0)
    )


def validate_radial(model: NetworkModel) -> list[int]:
    """Check the branch set forms a tree rooted at bus 0 and return its preorder.

    Returns the branch indices in depth-first preorder from the
    substation, so every subtree is contiguous in it and its reverse runs
    leaves-to-root.  Branches listed child-first are reoriented in place
    to point away from the substation.  Raises NetworkDataError on
    cycles, disconnected buses, duplicate branches, or unknown bus ids.
    """
    ids = [b.id for b in model.buses]
    if sorted(ids) != list(range(len(ids))):
        raise NetworkDataError("bus ids must be 0..n with 0 the substation")
    n_bus = len(ids)
    if len(model.branches) != n_bus - 1:
        raise NetworkDataError(
            "cycle detected or disconnected node: "
            f"expected {n_bus - 1} branches, got {len(model.branches)}"
        )
    seen_pairs = set()
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}
    for e, br in enumerate(model.branches):
        if br.frm not in adj or br.to not in adj:
            raise NetworkDataError(f"branch ({br.frm},{br.to}) references unknown bus")
        if br.r < 0 or br.x < 0 or (br.r == 0 and br.x == 0):
            raise NetworkDataError(f"branch ({br.frm},{br.to}) needs r,x >= 0, not both zero")
        key = (min(br.frm, br.to), max(br.frm, br.to))
        if key in seen_pairs:
            raise NetworkDataError(f"duplicate branch {key}")
        seen_pairs.add(key)
        adj[br.frm].append((br.to, e))
        adj[br.to].append((br.frm, e))

    # depth-first preorder from the substation, orienting parent->child;
    # with n_bus - 1 branches, reaching every bus means the graph is a tree
    visited = {0}
    pre: list[int] = []
    stack = [(0, other, e) for other, e in adj[0]]
    while stack:
        node, other, e = stack.pop()
        if other in visited:
            continue
        visited.add(other)
        br = model.branches[e]
        if br.frm != node:
            # branch was listed child-first; reorient away from the root
            br.frm, br.to = node, other
        pre.append(e)
        stack.extend((other, nxt, f) for nxt, f in adj[other])
    if len(visited) != n_bus:
        missing = sorted(set(ids) - visited)
        raise NetworkDataError(f"disconnected node {missing[0]}")
    return pre


def solve_power_flow(
    model: NetworkModel,
    p_inj: np.ndarray,
    q_inj: np.ndarray,
    tol: float = 1e-8,
    warm: "PowerFlowSolution | None" = None,
) -> PowerFlowSolution:
    """Backward-Forward Sweep over the DistFlow recursion.

    ``p_inj``/``q_inj`` are indexed over non-substation buses (bus 1..n).
    Converged solutions satisfy the flow, voltage-drop and current
    equations with max residual <= tol.  ``warm`` seeds voltages and
    branch currents from a previous solution; a flat start is used
    otherwise.  Branch arrays of the result follow ``model.branches``.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    plan = model.plan()
    n = model.n
    p = np.asarray(p_inj, dtype=float)
    q = np.asarray(q_inj, dtype=float)
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError(f"injections must have shape ({n},)")
    inj = np.stack((p, q))
    if not np.isfinite(inj).all():
        raise ValueError("injections must be finite")

    # everything below is in preorder position
    inj = inj[:, plan.bus]
    rx, rx_sq, end, last, par = plan.rx, plan.rx_sq, plan.end, plan.end - 1, plan.par
    v_sub_sq = model.v_sub**2
    if warm is None:
        v_sq = np.full(n, v_sub_sq)
        i_sq = np.zeros(n)
    else:
        v_sq = warm.v[1:][plan.bus] ** 2
        i_sq = warm.i_sq[plan.order]

    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        # backward: subtree sums of injections and previous-iterate losses
        y = rx * i_sq - inj
        s = y.cumsum(axis=1)
        S = s[:, last] - s + y
        # forward: squared-voltage drops summed along each root path
        drop = 2.0 * (rx * S).sum(axis=0) - rx_sq * i_sq
        v_sq_new = v_sub_sq - (drop - np.bincount(end, drop, minlength=n + 1)[:n]).cumsum()
        if (v_sq_new <= 0.0).any():
            raise PowerFlowError(
                "negative squared voltage encountered: operating point infeasible"
            )
        # squared voltages with the substation in slot 0, indexed by par
        v_ext = np.concatenate(([v_sub_sq], v_sq_new))
        i_sq_new = (S * S).sum(axis=0) / v_ext[par]
        dv = np.abs(np.sqrt(v_sq_new) - np.sqrt(v_sq)).max()
        di = np.abs(i_sq_new - i_sq).max()
        v_sq = v_sq_new
        i_sq = i_sq_new
        if dv <= tol and di <= 10.0 * tol:
            # verify the DistFlow residuals at the final iterate
            if _residuals(plan, inj, S, i_sq, v_ext) <= tol:
                converged = True
                break
    if not converged:
        raise PowerFlowError(f"no convergence within {_MAX_ITER} iterations")

    v = np.concatenate(([model.v_sub], np.sqrt(v_sq[plan.pos])))
    p_pcc = float(S[0, plan.root].sum())
    P, Q = S[:, plan.inv]
    return PowerFlowSolution(v, P, Q, i_sq[plan.inv], p_pcc, True, iterations)


def _residuals(plan, inj, S, i_sq, v_ext) -> float:
    # the current equation holds exactly: i_sq is computed from S and v_ext
    nb = len(i_sq)
    child = np.stack([np.bincount(plan.par, w, minlength=nb + 1)[1:] for w in S])
    res_flow = S - (child - inj + plan.rx * i_sq)
    res_drop = (v_ext[plan.par] - v_ext[1:]) - (
        2.0 * (plan.rx * S).sum(axis=0) - plan.rx_sq * i_sq
    )
    return float(max(np.abs(res_flow).max(), np.abs(res_drop).max()))


def load_network(path) -> NetworkModel:
    """Parse a branch table ``from,to,r_pu,x_pu`` (header required, bus 0 implicit)."""
    branches = []
    max_bus = 0
    with open(path) as fh:
        header = fh.readline()
        if not header or header.strip().split(",")[0].lower() not in ("from", "frm"):
            raise NetworkDataError(f"{path}: missing 'from,to,r_pu,x_pu' header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise NetworkDataError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                frm, to = int(parts[0]), int(parts[1])
                r, x = float(parts[2]), float(parts[3])
            except ValueError as exc:
                raise NetworkDataError(f"{path}:{lineno}: {exc}") from exc
            branches.append(Branch(frm, to, r, x))
            max_bus = max(max_bus, frm, to)
    buses = [Bus(i) for i in range(max_bus + 1)]
    model = NetworkModel(buses, branches)
    validate_radial(model)
    return model
