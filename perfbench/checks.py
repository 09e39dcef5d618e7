"""Independent output checks, run outside every timed region.

Power-flow residuals are recomputed here from the returned
``PowerFlowSolution`` and the public branch data with O(n) child sums
(``np.bincount`` over the sending bus), not with the solver's own
residual routine.  Every failed check and every exception raised by a
step counts against the run's ``failed`` total.
"""

from __future__ import annotations

import inspect
import traceback

import numpy as np

from droopsched import network, stability

# Squaring the returned magnitudes back into v^2 rounds in the last
# bits; this slack covers that and nothing else (tolerances are >= 1e-12).
_ROUNDING_SLACK = 1e-13
_MAX_MESSAGES = 5
_PF_SIGNATURE = inspect.signature(network.solve_power_flow)


class BranchArrays:
    """Branch endpoints and impedances of a feeder, in branch order."""

    def __init__(self, model: network.NetworkModel):
        model.plan()  # orients every branch away from the substation
        self.n_bus = len(model.buses)
        self.frm = np.array([b.frm for b in model.branches], dtype=np.intp)
        self.to = np.array([b.to for b in model.branches], dtype=np.intp)
        self.r = np.array([b.r for b in model.branches])
        self.x = np.array([b.x for b in model.branches])
        self.v_sub = model.v_sub


def distflow_residual(br: BranchArrays, p_inj, q_inj, sol: network.PowerFlowSolution) -> float:
    """Largest DistFlow residual of ``sol`` for injections ``p_inj``/``q_inj``.

    Covers the branch flow balances, the squared-voltage drops, the
    branch currents, the substation voltage and the reported PCC power.
    """
    P, Q, i_sq = sol.p_flow, sol.q_flow, sol.i_sq
    v_sq = sol.v**2
    child_p = np.bincount(br.frm, weights=P, minlength=br.n_bus)[br.to]
    child_q = np.bincount(br.frm, weights=Q, minlength=br.n_bus)[br.to]
    child = br.to - 1
    res = (
        P - (child_p - np.asarray(p_inj)[child] + br.r * i_sq),
        Q - (child_q - np.asarray(q_inj)[child] + br.x * i_sq),
        v_sq[br.frm] - v_sq[br.to] - (2.0 * (br.r * P + br.x * Q) - (br.r**2 + br.x**2) * i_sq),
        i_sq - (P * P + Q * Q) / v_sq[br.frm],
    )
    worst = max(float(np.max(np.abs(r))) for r in res)
    return max(worst, abs(sol.v[0] - br.v_sub), abs(sol.p_pcc - P[br.frm == 0].sum()))


class Checker:
    """Counts checked outputs and failures; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._branches: dict[int, tuple[network.NetworkModel, BranchArrays]] = {}

    def _record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < _MAX_MESSAGES:
                self.messages.append(what)
        return ok

    def power_flow(self, args, kwargs, sol) -> bool:
        """Check one captured ``solve_power_flow`` call against its own tol."""
        bound = _PF_SIGNATURE.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        model = a["model"]
        if id(model) not in self._branches:
            self._branches[id(model)] = (model, BranchArrays(model))
        br = self._branches[id(model)][1]
        res = distflow_residual(br, a["p_inj"], a["q_inj"], sol)
        ok = sol.converged and res <= a["tol"] + _ROUNDING_SLACK
        return self._record(ok, f"power flow residual {res:.3e} > tol {a['tol']:.1e}")

    def gains(self, node, gains, tau_p, tau_q, stab) -> bool:
        ok = stability.check_gains(gains, tau_p, tau_q, stab)
        return self._record(ok, f"broadcast gains of node {node} fail check_gains: {gains}")

    def der_point(self, unit) -> bool:
        ok = unit.cap.contains(unit.p_c, unit.q_c)
        return self._record(ok, f"DER at node {unit.node} outside its capability: ({unit.p_c}, {unit.q_c})")

    def same(self, what: str, values: list) -> bool:
        ok = len(set(values)) <= 1
        return self._record(ok, f"{what} differ: {values}")

    def error(self, exc: BaseException) -> None:
        text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self._record(False, f"step raised {text}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
