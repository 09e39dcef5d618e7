"""Radial distribution network model and DistFlow power-flow solver.

A feeder is its branch table: n branches joining buses 0..n into a tree
rooted at the substation (bus 0), which is modelled as an infinite bus
at fixed voltage; ``scenarios.load_network`` reads one from a CSV file.
The nonlinear power flow is solved with the Backward-Forward Sweep:
branch active/reactive flows are accumulated from the leaves toward the
root using the loss terms of the previous iterate, squared voltage
magnitudes are then propagated from the root toward the leaves, and
branch currents are refreshed from the new flows and sending-end
voltages.  All quantities are per-unit on a common power base.

Both passes are O(n) array operations over one depth-first preorder of
the branches, in which every subtree is a contiguous range: the
backward pass is a difference of prefix sums over those ranges, and the
forward pass a prefix sum of the voltage drops in which each subtree's
drop is cancelled once its range closes.  On feeders of a few dozen
buses a sweep costs numpy calls, not arithmetic, so the sweep plan
precomputes every operand an iteration would otherwise rebuild (one
product of its impedance rows with the currents gives every loss term),
and the residual check reuses the iteration's terms.  Its reductions are
direct ufunc or arg-reductions (``a[a.argmax()]``), never the
``ndarray.max``/``.sum``/``.all`` methods: at this size each method call
costs 1-2 us of Python wrapper, several times the reduction itself.  The
same holds for its accumulations, which call ``np.add.accumulate``, the
loop behind ``ndarray.cumsum`` without its wrapper, and for the
temporaries: the subtree sums and the residual rows are formed in place.
A sweep that diverges is stopped before its squared flows can overflow:
an injection or a change in squared current past ``_DIVERGED`` raises
PowerFlowError.  A ``NetworkModel``
is validated, oriented and planned once, when constructed, and is
immutable, so no plan goes stale; ``dataclasses.replace`` changes one.

Sign convention: bus injections are positive for generation and negative
for consumption; the power drawn at the point of common coupling (PCC)
is positive when the feeder imports from the transmission grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Branch",
    "NetworkModel",
    "PowerFlowSolution",
    "NetworkDataError",
    "PowerFlowError",
    "solve_power_flow",
]


_MAX_ITER = 100  # sweep iterations before solve_power_flow gives up
# Per unit, far beyond any flow a sweep converges on: an injection or a change
# in squared current past it means the sweep diverges.  Below it, with
# impedances and squared voltages of order one, squaring a flow cannot
# overflow within _MAX_ITER sweeps.
_DIVERGED = 1e100


_BUS_ID = (int, np.integer)  # the types of a bus id, bool excepted


class NetworkDataError(ValueError):
    """Raised for malformed network topology or branch data."""


class PowerFlowError(RuntimeError):
    """Raised when the sweep fails to converge or hits an infeasible state."""


class Branch(NamedTuple):
    frm: int
    to: int
    r: float
    x: float


@dataclass(frozen=True)
class NetworkModel:
    """Radial feeder of n branches over buses 0..n (0 = substation), immutable.

    Construction checks ``v_sub`` and that the branches form a tree over
    buses 0..n, stores them in the caller's order as ``Branch`` rows
    (sender, receiver, r, x) pointing away from the substation, whatever
    (frm, to, r, x) sequence each row was given as, and builds the sweep
    plan.
    """

    branches: tuple[Branch, ...]
    v_sub: float = 1.0
    _plan: "_SweepPlan" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.v_sub < np.inf:
            raise NetworkDataError("v_sub must be finite and positive")
        pre, ends = _preorder(self.branches)
        # a row that already is its Branch(sender, receiver, r, x) is kept: at
        # n = 5000 a NamedTuple call per row would cost 2 ms, a fifth of the build
        rows = zip(ends, self.branches)
        branches = tuple(b if type(b) is Branch and b.frm == s else Branch(s, t, b[2], b[3]) for (s, t), b in rows)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "_plan", _build_plan(branches, pre))

    @property
    def n(self) -> int:
        """Number of non-substation buses, one per branch."""
        return len(self.branches)

    @property
    def buses(self) -> range:
        """Bus ids 0..n, 0 the substation."""
        return range(self.n + 1)

    def plan(self) -> "_SweepPlan":
        return self._plan

    def __reduce__(self):
        # copies and pickles go through the constructor, so each is validated
        # and planned again; copying the plan would lose its read-only rows
        return (type(self), (self.branches, self.v_sub))


@dataclass(slots=True)
class PowerFlowSolution:
    """Converged sweep result.  ``v`` covers all buses, index 0 = substation.

    ``residual`` is the largest flow-balance and voltage-drop residual of
    the returned iterate, the value the sweep stopped at (<= its tol).
    Slotted, with ``p_flow`` and ``q_flow`` as two arrays rather than
    views of a shared one, so a caller that keeps every solution of a
    finite-difference sweep holds no more than it must.
    """

    v: np.ndarray
    p_flow: np.ndarray
    q_flow: np.ndarray
    i_sq: np.ndarray
    p_pcc: float
    converged: bool
    iterations: int
    residual: float


@dataclass(frozen=True, slots=True)
class _SweepPlan:
    """Branches laid out in depth-first preorder for O(n) sweeps.

    Every array is indexed by preorder position k, except ``pos`` and
    ``par2``.  The subtree hanging from the branch at k (inclusive) is
    the contiguous range ``k:end[k]``, and ``last[k] = end[k] - 1`` its
    final position, so a subtree sum is a difference of prefix sums and
    the branches on the root path of position k are the j <= k with
    ``end[j] > k``.  ``par[k]`` is the position of the parent branch
    plus one, or 0 for a branch leaving the substation, and indexes an
    array that carries the substation value in slot 0.  ``par2`` indexes
    a flattened (2, n) array: entry k of a row goes to its parent's
    entry in the same row, an entry of a branch leaving the substation
    to 2n (first row) or 2n + 1 (second row), so the first 2n bins of
    one ``np.bincount`` are the child sums of both rows, contiguous.
    ``bus[k]`` is the row (bus id - 1) of the bus the branch feeds,
    ``pos[j]`` the position of the branch feeding bus j + 1, and
    ``order[k]`` the caller's index of the branch, with ``inv`` its
    inverse.  ``rxz`` holds the rows ``[r, x, r^2 + x^2]``, and ``rx2``
    is ``2 rxz[:2]``, which doubles exactly, so ``rx2 * S`` summed over
    rows is ``2 (rxz[:2] * S)`` summed over rows bit for bit.  These two
    impedance arrays are read-only.
    The index arrays are not: numpy's ``take`` and ``bincount`` copy a
    read-only index array on every call, several times per iteration.
    """

    order: np.ndarray
    inv: np.ndarray
    bus: np.ndarray
    pos: np.ndarray
    end: np.ndarray
    last: np.ndarray
    par: np.ndarray
    par2: np.ndarray
    root: np.ndarray
    rxz: np.ndarray
    rx2: np.ndarray


def _build_plan(branches: tuple[Branch, ...], pre: list[int]) -> _SweepPlan:
    # branches point away from the substation; pre is their preorder
    nb = len(pre)
    order = np.array(pre, dtype=np.intp)
    frm, to, r, x = zip(*(branches[e] for e in pre))
    bus = np.array(to, dtype=np.intp) - 1
    pos = np.argsort(bus)
    # parent position + 1 (0 = substation), via the branch feeding the sender
    par = np.concatenate(([0], pos + 1)).take(frm)
    # subtree sizes in one reverse pass: children sit after their parent
    size = [1] * nb
    parents = par.tolist()
    for k in range(nb - 1, -1, -1):
        if parents[k]:
            size[parents[k] - 1] += size[k]
    end = np.arange(nb) + size
    rxz = np.array((r, x, (0.0,) * nb))
    rx = rxz[:2]
    rxz[2] = (rx * rx).sum(axis=0)
    rx2 = 2.0 * rx
    for a in (rxz, rx2):
        a.setflags(write=False)
    return _SweepPlan(
        order, np.argsort(order), bus, pos, end, end - 1, par,
        np.concatenate((np.where(par > 0, par - 1, 2 * nb), np.where(par > 0, par - 1 + nb, 2 * nb + 1))),
        np.flatnonzero(par == 0), rxz, rx2,
    )


def _preorder(branches) -> tuple[list[int], list[tuple[int, int]]]:
    """Check the n branches form a tree over buses 0..n and return its preorder.

    Returns the branch indices in depth-first preorder from the
    substation, so every subtree is contiguous in it and its reverse runs
    leaves-to-root, and the (sender, receiver) buses of each branch, the
    sender the end nearer the substation.  Reads its arguments only.
    Raises NetworkDataError, naming the row, for a bus id that is a bool
    or not an integer (numpy integers are integers); and on cycles,
    disconnected buses, duplicate branches, unknown bus ids, impedances
    that are negative, zero in both parts or not finite, or a feeder with
    no bus besides the substation.
    """
    n_bus = len(branches) + 1
    if n_bus < 2:
        raise NetworkDataError("feeder needs at least one bus besides the substation")
    seen_pairs = set()
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n_bus)}
    for e, (frm, to, r, x) in enumerate(branches):
        if type(frm) is bool or type(to) is bool or not (isinstance(frm, _BUS_ID) and isinstance(to, _BUS_ID)):
            raise NetworkDataError(f"branch ({frm},{to}) needs integer bus ids")
        if frm not in adj or to not in adj:
            raise NetworkDataError(f"branch ({frm},{to}) references unknown bus")
        if not (0.0 <= r < np.inf and 0.0 <= x < np.inf) or (r == 0 and x == 0):
            raise NetworkDataError(f"branch ({frm},{to}) needs finite r,x >= 0, not both zero")
        key = (frm, to) if frm < to else (to, frm)
        if key in seen_pairs:
            raise NetworkDataError(f"duplicate branch {key}")
        seen_pairs.add(key)
        adj[frm].append((to, e))
        adj[to].append((frm, e))

    # depth-first preorder from the substation, recording each sender; with
    # n branches over n + 1 buses, reaching every bus means the graph is a
    # tree, and a cycle always leaves some bus unreached
    visited = {0}
    pre: list[int] = []
    ends = [(0, 0)] * len(branches)
    stack = [(0, other, e) for other, e in adj[0]]
    while stack:
        node, other, e = stack.pop()
        if other in visited:
            continue
        visited.add(other)
        ends[e] = (node, other)
        pre.append(e)
        stack.extend([(other, nxt, f) for nxt, f in adj[other]])
    if len(visited) != n_bus:
        missing = sorted(set(adj) - visited)
        raise NetworkDataError(f"cycle detected or disconnected node {missing[0]}")
    return pre, ends


def solve_power_flow(
    model: NetworkModel,
    p_inj: np.ndarray,
    q_inj: np.ndarray,
    tol: float = 1e-8,
    warm: "PowerFlowSolution | None" = None,
) -> PowerFlowSolution:
    """Backward-Forward Sweep over the DistFlow recursion.

    ``p_inj``/``q_inj`` are indexed over non-substation buses (bus 1..n).
    The branch currents are the only iterate: each iteration derives
    flows and squared voltages from them, and the sweep stops once the
    currents settle and the flow, voltage-drop and current equations hold
    with max residual <= tol.  ``warm`` contributes only its branch
    currents, which must have shape (n,); they are read once, on entry,
    and the result keeps no reference to them, so a caller may refill
    and reuse one warm record.  A cold start begins from zero currents.
    Branch arrays of the result follow ``model.branches``.

    Raises ValueError for a bad tol, shape or non-finite injection, and
    PowerFlowError for a negative squared voltage, a diverging sweep (an
    injection or a change in squared currents past ``_DIVERGED``) or no
    convergence within ``_MAX_ITER`` sweeps.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    plan = model.plan()
    n = model.n
    p = np.asarray(p_inj, dtype=float)
    q = np.asarray(q_inj, dtype=float)
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError(f"injections must have shape ({n},)")
    inj = np.array((p, q))
    mag = np.abs(inj).ravel()
    mag = mag[mag.argmax()]  # NaN if any entry is NaN
    if not mag <= _DIVERGED:
        if not np.isfinite(mag):
            raise ValueError("injections must be finite")
        raise PowerFlowError(f"injection of magnitude {mag:.3g} p.u. diverges the sweep")
    if warm is not None and warm.i_sq.shape != (n,):
        raise ValueError(f"warm.i_sq must have shape ({n},): the warm solution is of another feeder")

    # everything below is in preorder position
    inj = inj.take(plan.bus, axis=1)
    rxz, rx2, end, last, par = plan.rxz, plan.rx2, plan.end, plan.last, plan.par
    v_sub_sq = model.v_sub**2
    # squared voltages with the substation in slot 0, indexed by par
    v_ext = np.empty(n + 1)
    v_ext[0] = v_sub_sq
    v_sq = v_ext[1:]
    i_sq = np.zeros(n) if warm is None else warm.i_sq.take(plan.order)
    zi = rxz * i_sq  # loss terms r i, x i and |z|^2 i of the current iterate, kept in place
    zi_rx, zi_z = zi[:2], zi[2]
    t = np.empty((2, n))  # scratch: 2 rx S, then S^2
    t0, t1 = t
    low = np.empty(n, dtype=bool)  # where v_sq <= 0, refilled every iteration

    for iterations in range(1, _MAX_ITER + 1):
        # backward: subtree sums of injections and previous-iterate losses
        y = zi_rx - inj
        s = np.add.accumulate(y, axis=1)
        S = s.take(last, axis=1)
        S -= s
        S += y
        # forward: squared-voltage drops summed along each root path
        np.multiply(rx2, S, t)
        drop2 = t0 + t1  # 2 (r P + x Q)
        drop = drop2 - zi_z
        drop -= np.bincount(end, drop, minlength=n + 1)[:n]
        np.subtract(v_sub_sq, np.add.accumulate(drop, out=drop), v_sq)
        # (v_sq <= 0).any(), NaN entries not counted
        np.less_equal(v_sq, 0.0, low)
        if low[low.argmax()]:
            raise PowerFlowError(
                "negative squared voltage encountered: operating point infeasible"
            )
        v_from = v_ext.take(par)
        np.multiply(S, S, t)
        i_sq_new = t0 + t1
        i_sq_new /= v_from
        d = i_sq_new - i_sq
        np.abs(d, d)
        di = d[d.argmax()]  # NaN if any entry is NaN
        if not di <= _DIVERGED:
            raise PowerFlowError(f"sweep diverged: squared currents changed by {di:.3g} p.u.")
        i_sq = i_sq_new
        np.multiply(rxz, i_sq, zi)
        # the residuals at this iterate depend only on the change in currents
        if di <= 10.0 * tol:
            residual = _residuals(plan, inj, S, zi_rx, zi_z, v_sq, v_from, drop2)
            if residual <= tol:
                break
    else:
        raise PowerFlowError(f"no convergence within {_MAX_ITER} iterations")

    v = np.empty(n + 1)
    v[0] = model.v_sub
    np.sqrt(v_sq.take(plan.pos), v[1:])
    p_pcc = float(np.add.reduce(S[0].take(plan.root)))
    P, Q = S[0].take(plan.inv), S[1].take(plan.inv)
    return PowerFlowSolution(v, P, Q, i_sq.take(plan.inv), p_pcc, True, iterations, residual)


def _residuals(plan, inj, S, zi_rx, zi_z, v_sq, v_from, drop2) -> float:
    # zi_rx, zi_z: loss terms of the current iterate, v_from: sending-end
    # squared voltages, drop2: 2 (r P + x Q) of S, overwritten.  The current
    # equation holds exactly: the current iterate is computed from S and v_from.
    # every (2, n) array here is contiguous, so it is read flattened
    nb2 = 2 * len(v_sq)
    child = np.bincount(plan.par2, S.ravel(), minlength=nb2 + 2)[:nb2]
    res = np.empty(nb2 + len(v_sq))  # flow rows, then the voltage-drop row
    flow, drop = res[:nb2], res[nb2:]
    np.subtract(child, inj.ravel(), flow)
    flow += zi_rx.ravel()
    np.subtract(S.ravel(), flow, flow)
    np.subtract(v_from, v_sq, drop)
    drop -= np.subtract(drop2, zi_z, drop2)
    np.abs(res, res)
    return float(res[res.argmax()])  # NaN if any entry is NaN
