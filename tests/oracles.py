"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: the power
flow oracle hands the raw DistFlow residual system to a generic root
finder, the residual oracle evaluates that system at a returned
solution with child sums from ``np.bincount``, projections are checked
by grid search / first-order optimality, eigenvalues come from dense
general-purpose solvers, and the scheduler's saddle point comes from a
Newton solve of its dual-eliminated objective, which certifies its own
accuracy through a gradient bound and raises when it cannot.  The
scheduler's CVaR rows are checked two ways: term by term with scipy's
normal density and quantile, and against ``saa_cvar_row``, the
sample-average row minimized exactly over its auxiliary.

The module also holds the references only the tests evaluate, kept out
of the package because nothing in it calls them:

* ``cost`` and ``lagrangian``, the scheduler's objective and its
  regularized Lagrangian, whose finite differences the gradient-signal
  test checks.  ``lagrangian`` builds the voltage model, the closed-form
  CVaR rows, the tracking error and the band rows itself, from the units'
  droop responses scattered onto bus vectors (``scattered_response``) and
  the model's R, X, H, v0 and P0; it calls no scheduler code.
* ``closed_loop_matrix``, the small-signal state matrix
  T^-1 (K_v G - I) whose eigenvalues the stability tests sweep to confirm
  that the gate certifies stable loops.
* ``lyapunov_value``, the energy 0.5 dx' blkdiag(R, X) dx the stability
  tests track along closed-loop trajectories.
* ``two_clause_check_gains``, the stability gate as first written: the
  quadratic inequality and the linear clause (a or b below gamma with a
  1e-6 gamma margin), against which the one-inequality gate is checked.
* ``eigvalsh_definite`` and ``two_call_gamma``, the definiteness rule
  of ``SensitivityModel`` and the gamma of ``compute_gamma`` as first
  written, one ``eigvalsh`` call per matrix, against which the
  Cholesky test and the batched eigensolve are checked.
* ``initial_state_reference``, ``SchedulerState.initial`` as first
  written, its fields filled in directly and its frequency-cost weights
  slot by slot, against which the state realigned from the empty one is
  checked bit for bit.
* ``dfs_plan``, the sweep plan of a feeder from a recursive depth-first
  search, against which the preorder, parents, subtree ranges and
  oriented rows of ``NetworkModel`` are checked exactly: the preorder
  sets the order of the sweep's sums, so it sets its rounding.
* ``primal_dual_reference``, the scheduler's primal-dual step written
  with ``np.tile``, ``np.clip`` and separate projected halves, against
  which the step is checked bit for bit: half a Jacobi step for the
  multipliers, a step of 1 / (2 max(w_pv, w_qv)^2) for the voltage
  gains and the clipped minimizer for the frequency gains.  It calls no
  scheduler code; of the stability module it uses only the boundary
  projection.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import NormalDist

import numpy as np
from scipy import optimize
from scipy.stats import norm

from droopsched.scheduler import _WF_STREAM, SchedulerState
from droopsched.stability import _onto_boundary


def distflow_root(model, p_inj, q_inj, tol=1e-12):
    """Solve the DistFlow equations with scipy's root finder.

    Unknowns are stacked (P, Q, v_sq) per branch / non-substation bus.
    Returns the bus voltage magnitudes (including the substation) and the
    PCC active power.  The root is certified by its own residual, max |F|
    <= tol, not by the solver's success flag: hybr can report "not making
    good progress" at a point whose residual is already at rounding level.
    """
    nb = len(model.branches)
    n = len(model.buses) - 1
    frm = np.array([b.frm for b in model.branches])
    to = np.array([b.to for b in model.branches])
    r = np.array([b.r for b in model.branches])
    x = np.array([b.x for b in model.branches])
    children = [np.flatnonzero(frm == model.branches[e].to) for e in range(nb)]

    def residual(z):
        P = z[:nb]
        Q = z[nb : 2 * nb]
        v_sq = z[2 * nb :]
        v_ext = np.concatenate(([model.v_sub**2], v_sq))
        i_sq = (P * P + Q * Q) / v_ext[frm]
        res = np.empty(2 * nb + n)
        for e in range(nb):
            cs_p = P[children[e]].sum()
            cs_q = Q[children[e]].sum()
            j = to[e] - 1
            res[e] = P[e] - (cs_p - p_inj[j] + r[e] * i_sq[e])
            res[nb + e] = Q[e] - (cs_q - q_inj[j] + x[e] * i_sq[e])
            res[2 * nb + j] = (v_ext[frm[e]] - v_sq[j]) - (
                2 * (r[e] * P[e] + x[e] * Q[e]) - (r[e] ** 2 + x[e] ** 2) * i_sq[e]
            )
        return res

    z0 = np.concatenate([np.zeros(2 * nb), np.full(n, model.v_sub**2)])
    sol = optimize.root(residual, z0, method="hybr", tol=tol)
    worst = np.abs(residual(sol.x)).max()
    if not worst <= tol:
        raise AssertionError(f"DistFlow root not certified: max residual {worst:.3g} ({sol.message})")
    P = sol.x[:nb]
    v = np.concatenate(([model.v_sub], np.sqrt(sol.x[2 * nb :])))
    p_pcc = P[np.flatnonzero(frm == 0)].sum()
    return v, float(p_pcc)


def distflow_residual(model, p_inj, q_inj, sol):
    """Largest DistFlow residual of a power-flow solution, from branch data only.

    Covers every branch's flow balance, squared-voltage drop and current
    equation.  The flows of a bus's child branches are summed by one
    ``np.bincount`` over the sending buses, and the squared voltages are
    the returned magnitudes squared back.  Branches must point away from
    the substation, as ``NetworkModel`` stores them.
    """
    frm = np.array([b.frm for b in model.branches])
    to = np.array([b.to for b in model.branches])
    r = np.array([b.r for b in model.branches])
    x = np.array([b.x for b in model.branches])
    P, Q, i_sq = sol.p_flow, sol.q_flow, sol.i_sq
    v_sq = sol.v * sol.v
    n_bus = len(model.buses)
    child_p = np.bincount(frm, weights=P, minlength=n_bus)[to]
    child_q = np.bincount(frm, weights=Q, minlength=n_bus)[to]
    res = (
        P - (child_p - np.asarray(p_inj)[to - 1] + r * i_sq),
        Q - (child_q - np.asarray(q_inj)[to - 1] + x * i_sq),
        (v_sq[frm] - v_sq[to]) - (2.0 * (r * P + x * Q) - (r * r + x * x) * i_sq),
        i_sq - (P * P + Q * Q) / v_sq[frm],
    )
    return max(float(np.abs(part).max()) for part in res)


def dfs_plan(rows):
    """The sweep plan of a tree, by a recursive depth-first search from bus 0.

    ``rows`` are (frm, to, r, x) tuples over buses 0..n in any order and
    orientation.  The search enters each bus's children highest id
    first and counts each subtree's size on its way back, so it shares
    no code and no stack discipline with ``NetworkModel``'s walk.
    Returns ``bus``, ``pos``, ``par``, ``end`` and ``root`` as lists with
    the meaning of the ``_SweepPlan`` fields, and the branches as
    (sender, receiver, r, x) tuples by receiving bus.
    """
    n = len(rows)
    neighbours = {i: [] for i in range(n + 1)}
    for frm, to, r, x in rows:
        neighbours[frm].append((to, r, x))
        neighbours[to].append((frm, r, x))
    bus, par, end = [], [], []
    branches = [None] * n

    def visit(sender, receiver, r, x, parent_pos):
        k = len(bus)
        bus.append(receiver - 1)
        par.append(parent_pos)
        end.append(None)
        branches[receiver - 1] = (sender, receiver, r, x)
        size = 1
        for child, cr, cx in sorted(neighbours[receiver], key=lambda nbr: -nbr[0]):
            if child != sender:
                size += visit(receiver, child, cr, cx, k + 1)
        end[k] = k + size
        return size

    for child, r, x in sorted(neighbours[0], key=lambda nbr: -nbr[0]):
        visit(0, child, r, x, 0)
    pos = [bus.index(j) for j in range(n)]
    root = [k for k in range(n) if par[k] == 0]
    return bus, pos, par, end, root, branches


def grid_project(feasible, point, lo, hi, resolution):
    """Dense 2-D grid search projection: nearest feasible grid point."""
    px = np.arange(lo[0], hi[0] + resolution, resolution)
    py = np.arange(lo[1], hi[1] + resolution, resolution)
    best = None
    best_d = np.inf
    # chunk rows to bound memory
    for xv in px:
        mask = feasible(np.full_like(py, xv), py)
        if not mask.any():
            continue
        qs = py[mask]
        d = (xv - point[0]) ** 2 + (qs - point[1]) ** 2
        k = int(np.argmin(d))
        if d[k] < best_d:
            best_d = d[k]
            best = (float(xv), float(qs[k]))
    assert best is not None, "empty feasible grid"
    return np.array(best)


def power_iteration_lambda_max(M, iters=20000, tol=1e-14, seed=0):
    """Dominant eigenvalue of a matrix with real positive spectrum."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(M.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = M @ z
        nw = np.linalg.norm(w)
        z = w / nw
        lam_new = float(z @ (M @ z))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def central_difference(fun, x0, step):
    """Central finite differences of ``fun`` over a 1-D ``x0``, one column per coordinate.

    A scalar function gives its gradient; a vector function its Jacobian.
    """
    x0 = np.asarray(x0, dtype=float)
    return np.stack([(fun(x0 + e) - fun(x0 - e)) / (2 * step) for e in step * np.eye(x0.size)], axis=-1)


def saddle_point(sm, rho, nodes, cfg, w_f):
    """Exact regularized saddle point on frozen data, certified to 1e-9.

    Each gain block takes its gradient through its own task only, with
    the other block's droop response held: the voltage model sees the
    frequency gains' response as an offset on v0, and the tracking error
    sees the voltage gains' response as an offset on P0.  For fixed
    offsets, maximizing the Lagrangian over the nonnegative multipliers
    in closed form (best response mu = [l]_+ / phi, lambda = [r]_+ / psi)
    leaves the minimization over z = (kappa_v, kappa_f) of

        F(z) = C(kappa) + |[l]_+|^2 / (2 phi) + |[r]_+|^2 / (2 psi).

    The rows l and r are affine in z, so F is C^1, piecewise quadratic
    (one piece per set of positive rows) and strongly convex with modulus
    sigma = min(2 w_pv^2, 2 w_qv^2, 2 w_f^2).  A damped Newton iteration
    on the piece of the current point finds the minimizer, and at the
    returned point |z - z*| <= |grad F(z)| / sigma.  The best responses'
    Lipschitz constants carry that bound to mu and lambda.  If the bound
    exceeds 1e-9 in any key, AssertionError is raised instead of
    returning an uncertified point.

    The saddle is the fixed point of that solve in its offsets: the
    offsets of the last minimizer are fed back until a pass moves no
    entry of z by more than 1e-12, and AssertionError is raised if 50
    passes do not get there.

    All model arithmetic below is written out independently of the
    package's scheduler code; the CVaR rows take scipy's normal density
    at its upper beta-quantile (``norm.isf``).
    """
    n = sm.R.shape[0]
    m = len(nodes)
    idx = np.asarray(nodes, dtype=int) - 1
    dv = rho.v_meas - rho.v_star
    d_om = rho.omega - rho.omega_star
    wv = np.concatenate([np.full(m, cfg.cost_w_pv), np.full(m, cfg.cost_w_qv)])
    curv = np.concatenate([2 * wv**2, 2 * np.asarray(w_f) ** 2])
    # CVaR row k is A[k] @ kappa_v + l0[k], upper bounds first
    sgn = np.repeat([1.0, -1.0], n)
    cols = np.concatenate([sm.R[:, idx], sm.X[:, idx]], axis=1)
    u = np.concatenate([dv[idx], dv[idx]])
    jv = cols * u
    A = cfg.beta * sgn[:, None] * np.vstack([jv, jv])
    spread = cfg.noise_std * rho.v_meas * norm.pdf(norm.isf(cfg.beta))
    bound = np.concatenate([np.full(n, cfg.v_max), np.full(n, -cfg.v_min)])
    # band row k is B[k] @ kappa_f + r0[k]
    h = np.concatenate([sm.H[:n][idx], sm.H[n:][idx]])
    ge = h * d_om
    B = np.outer([-1.0, 1.0], ge)

    def solve(v0, e0):
        l0 = cfg.beta * (sgn * np.concatenate([v0, v0]) - bound) + np.concatenate([spread, spread])
        r0 = np.array([cfg.e_min - e0, e0 - cfg.e_max])

        def parts(z):
            l = A @ z[: 2 * m] + l0
            r = B @ z[2 * m :] + r0
            F = 0.5 * z @ (curv * z) + l[l > 0] @ l[l > 0] / (2 * cfg.phi) + r[r > 0] @ r[r > 0] / (2 * cfg.psi)
            g = curv * z + np.concatenate([A.T @ np.maximum(l, 0.0) / cfg.phi, B.T @ np.maximum(r, 0.0) / cfg.psi])
            return F, g, l > 0, r > 0

        z = np.zeros(4 * m)
        F, g, on_l, on_r = parts(z)
        for _ in range(200):
            hess = np.diag(curv)
            hess[: 2 * m, : 2 * m] += A[on_l].T @ A[on_l] / cfg.phi
            hess[2 * m :, 2 * m :] += B[on_r].T @ B[on_r] / cfg.psi
            step = np.linalg.solve(hess, g)
            t = 1.0
            while t > 1e-12:
                F_new, g_new, l_new, r_new = parts(z - t * step)
                if F_new <= F - 1e-4 * t * (g @ step):
                    break
                t /= 2
            else:
                break  # no decrease left to resolve
            z, F, g, on_l, on_r = z - t * step, F_new, g_new, l_new, r_new
            if np.linalg.norm(g) == 0.0:
                break

        dist = np.linalg.norm(g) / curv.min(initial=np.inf)  # no units: no gains to bound
        lip_mu = np.sqrt((A**2).sum(axis=1)).max() / cfg.phi
        lip_lam = np.linalg.norm(ge) / cfg.psi
        err = dist * max(1.0, lip_mu, lip_lam)
        if not err <= 1e-9:
            raise AssertionError(f"saddle point not certified: error bound {err:.3g}")
        return z, np.maximum(A @ z[: 2 * m] + l0, 0.0) / cfg.phi, np.maximum(B @ z[2 * m :] + r0, 0.0) / cfg.psi

    z = np.zeros(4 * m)
    for _ in range(50):
        kv, kf = z[: 2 * m], z[2 * m :]
        z_new, mu, lam = solve(sm.v0 + cols @ (kf * d_om), sm.P0 + h @ (kv * u) - rho.r_t * d_om)
        moved = np.abs(z_new - z).max(initial=0.0)
        z = z_new
        if moved <= 1e-12:
            return dict(kappa_v=z[: 2 * m], kappa_f=z[2 * m :], mu=mu, lam=lam)
    raise AssertionError(f"saddle point not a fixed point of its offsets: last pass moved {moved:.3g}")


def saa_cvar_row(x, xi, beta):
    """The sample-average CVaR row: min over c of mean(max(x + xi + c, 0)) - beta c.

    The objective is convex and piecewise linear in c, with slope
    -beta left of every breakpoint -(x + xi_s) and 1 - beta right of
    them all, so one breakpoint minimizes it.  With a = x + xi sorted in
    descending order, c = -a_k gives (sum_{j<k} a_j - k a_k) / N + beta a_k;
    every breakpoint is evaluated and the least value returned.
    """
    a = np.sort(x + np.asarray(xi, dtype=float))[::-1]
    k = np.arange(a.size)
    above = np.concatenate([[0.0], np.cumsum(a)[:-1]])
    return float(np.min((above - k * a) / a.size + beta * a))


def cost(state, cfg):
    """Weighted quadratic control effort of the scheduled gains."""
    m = state.m
    wv = np.concatenate([np.full(m, cfg.cost_w_pv), np.full(m, cfg.cost_w_qv)])
    return float(np.sum((wv * state.kappa_v) ** 2) + np.sum((state.w_f * state.kappa_f) ** 2))


def scattered_response(state, rho, n, kv, kf):
    """Droop responses of the online units, unit by unit, on a bus vector."""
    m = state.m
    p, q = np.zeros(n), np.zeros(n)
    for j, node in enumerate(state.der_nodes):
        dv = rho.v_meas[node - 1] - rho.v_star
        p[node - 1] = kv[j] * dv + kf[j] * rho.d_omega
        q[node - 1] = kv[m + j] * dv + kf[m + j] * rho.d_omega
    return p, q


def lagrangian(state, sm, rho, cfg, held=None):
    """Regularized Lagrangian value at the state's primal/dual point.

    The voltage model takes the state's voltage gains with the frequency
    gains of ``held``; the tracking error takes the voltage gains of
    ``held`` with the state's frequency gains.  By default ``held`` is the
    state itself, so both see the one droop response of its gains; a
    fixed ``held`` gives the function whose gradient in each gain block
    is the step's signal, taken through that block's own task only.
    Each CVaR row is beta x + sigma phi(Phi^-1(1 - beta)), the quantile
    from scipy's inverse survival function.
    """
    n = sm.R.shape[0]
    held = state if held is None else held
    p, q = scattered_response(state, rho, n, state.kappa_v, held.kappa_f)
    vm = sm.R @ p + sm.X @ q + sm.v0
    p, q = scattered_response(state, rho, n, held.kappa_v, state.kappa_f)
    e = sm.P0 + sm.H[:n] @ p + sm.H[n:] @ q - rho.r_t * (rho.omega - rho.omega_star)
    spread = cfg.noise_std * rho.v_meas * norm.pdf(norm.isf(cfg.beta))
    upper = cfg.beta * (vm - cfg.v_max) + spread
    lower = cfg.beta * (cfg.v_min - vm) + spread
    l_val = np.concatenate([upper, lower])
    r_val = np.array([cfg.e_min - e, e - cfg.e_max])
    return (
        cost(state, cfg)
        + float(state.mu @ l_val)
        + float(state.lam @ r_val)
        - 0.5 * cfg.phi * float(state.mu @ state.mu)
        - 0.5 * cfg.psi * float(state.lam @ state.lam)
    )


def closed_loop_matrix(sm, k_pv, k_qv, tau_p, tau_q):
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


def lyapunov_value(sm, dx):
    """Quadratic energy 0.5 * dx' G dx of a state deviation, G = blkdiag(R, X)."""
    dx = np.asarray(dx, dtype=float)
    n = sm.n
    if dx.shape != (2 * n,):
        raise ValueError(f"dx must have shape ({2 * n},)")
    return 0.5 * float(dx[:n] @ (sm.R @ dx[:n]) + dx[n:] @ (sm.X @ dx[n:]))


def two_clause_check_gains(k_pv, k_qv, tau_p, tau_q, gamma):
    """Stability gate with its linear clause: quadratic slack, then a or b below gamma."""
    a, b = k_pv / tau_p, k_qv / tau_q
    margin = 1e-6 * gamma
    if (a - b) * (a - b) + 4.0 * gamma * (a + b) - 4.0 * gamma * gamma > -(4.0 * gamma * margin):
        return False
    return a <= gamma - margin or b <= gamma - margin


def eigvalsh_definite(M) -> bool:
    """SensitivityModel's definiteness rule by eigenvalues: lambda_min(M) > 1e-12."""
    return bool(np.linalg.eigvalsh(M)[0] > 1e-12)


def two_call_gamma(sm, tau_p, tau_q) -> float:
    """1 / lambda_max(G T) from one eigvalsh call per scaled block, R's then X's."""
    return 1.0 / max(
        float(np.linalg.eigvalsh(sq[:, None] * M * sq)[-1])
        for M, sq in ((sm.R, np.sqrt(tau_p)), (sm.X, np.sqrt(tau_q)))
    )


def initial_state_reference(der_nodes, n_bus, cfg, seed=0):
    """Zero gains and multipliers for ``der_nodes``, each frequency-cost weight filled slot by slot.

    A fixed ``cfg.cost_w_f`` fills both slots of every unit; otherwise
    each node draws its (k_pf, k_qf) pair from its own stream.  The nodes
    are taken as valid.
    """
    m = len(der_nodes)
    w = np.empty(2 * m)
    for j, node in enumerate(der_nodes):
        if cfg.cost_w_f is not None:
            w[j] = w[m + j] = cfg.cost_w_f
        else:
            rng = np.random.default_rng([seed, _WF_STREAM, node])
            w[j], w[m + j] = rng.uniform(0.9, 1.1, 2)
    return SchedulerState(
        der_nodes=tuple(der_nodes),
        kappa_v=np.zeros(2 * m),
        kappa_f=np.zeros(2 * m),
        mu=np.zeros(2 * n_bus),
        lam=np.zeros(2),
        w_f=w,
        seed=seed,
    )


def primal_dual_reference(state, sm, rho, cfg, stab, tau_p, tau_q):
    """One dual-then-primal cycle written without the scheduler's helpers.

    Same arithmetic in the same order as ``scheduler.primal_dual_step``,
    so every returned array must match it bit for bit; the inputs are
    taken as valid.
    """
    n, m = sm.n, len(state.der_nodes)
    idx = np.asarray(state.der_nodes, dtype=np.intp) - 1
    G = np.concatenate([sm.R[:, idx], sm.X[:, idx]], axis=1)
    h = sm.H[np.concatenate([idx, idx + n])]
    u = np.tile(rho.v_meas[idx] - rho.v_star, 2)
    d_omega = rho.omega - rho.omega_star
    x = state.kappa_v * u + state.kappa_f * d_omega
    vm = G @ x + sm.v0
    e = float(h @ x + sm.P0 - rho.r_t * (rho.omega - rho.omega_star))

    sigma = cfg.noise_std * rho.v_meas
    phi_z = NormalDist().pdf(NormalDist().inv_cdf(cfg.beta))
    l_val = cfg.beta * np.concatenate([vm - cfg.v_max, cfg.v_min - vm]) + np.tile(sigma * phi_z, 2)
    r_val = np.array([cfg.e_min - e, e - cfg.e_max])
    curv = np.concatenate([np.full(m, 2.0 * cfg.cost_w_pv**2), np.full(m, 2.0 * cfg.cost_w_qv**2)])
    d = (G * u) ** 2 @ (cfg.beta * cfg.beta / curv) + cfg.phi
    f_dir = (h * d_omega) / (2.0 * state.w_f**2)
    mu = np.maximum(state.mu + 0.5 / np.tile(d, 2) * (l_val - cfg.phi * state.mu), 0.0)
    lam = np.maximum(state.lam + 0.5 / ((h * d_omega) @ f_dir + cfg.psi) * (r_val - cfg.psi * state.lam), 0.0)

    s_v = (G * u).T @ (cfg.beta * (mu[:n] - mu[n:]))
    kappa_v = state.kappa_v - (curv * state.kappa_v + s_v) / (2.0 * max(cfg.cost_w_pv, cfg.cost_w_qv) ** 2)
    kappa_f = (lam[0] - lam[1]) * f_dir
    k_pv, k_qv = kappa_v[:m].copy(), kappa_v[m:].copy()
    a, b = k_pv / tau_p, k_qv / tau_q
    g = stab.gamma
    clip = (a - b) * (a - b) + 4.0 * g * (a + b) - 4.0 * g * g > -stab.quad_margin
    if clip.any():
        a, b = _onto_boundary(a[clip], b[clip], stab)
        k_pv[clip] = a * tau_p[clip]
        k_qv[clip] = b * tau_q[clip]

    return replace(
        state,
        kappa_v=np.concatenate([k_pv, k_qv]),
        kappa_f=np.clip(kappa_f, -stab.kf_bound, stab.kf_bound),
        mu=mu,
        lam=lam,
    )
