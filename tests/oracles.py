"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: the power
flow oracle hands the raw DistFlow residual system to a generic root
finder, the residual oracle evaluates that system at a returned
solution with child sums from ``np.bincount``, projections are checked
by grid search / first-order optimality, eigenvalues come from dense general-purpose solvers, and the scheduler's
saddle point comes from an exact solve of the slack-variable QP of its
CVaR-constrained Lagrangian, which certifies its own accuracy through a
subgradient bound and raises when it cannot.

The module also holds the references only the tests evaluate, kept out
of the package because nothing in it calls them:

* ``cost`` and ``lagrangian``, the scheduler's objective and its
  regularized Lagrangian, whose finite differences the gradient-signal
  test checks.  ``lagrangian`` builds the voltage model, the CVaR rows,
  the tracking error and the band rows itself, from the units' droop
  responses scattered onto bus vectors (``scattered_response``) and the
  model's R, X, H, v0 and P0; it calls no scheduler code.
* ``closed_loop_matrix``, the small-signal state matrix
  T^-1 (K_v G - I) whose eigenvalues the stability tests sweep to confirm
  that the gate certifies stable loops.
* ``lyapunov_value``, the energy 0.5 dx' blkdiag(R, X) dx the stability
  tests track along closed-loop trajectories.
* ``two_clause_check_gains``, the stability gate as first written: the
  quadratic inequality and the linear clause (a or b below gamma with a
  1e-6 gamma margin), against which the one-inequality gate is checked.
* ``primal_dual_reference``, the scheduler's primal-dual step as first
  written (``np.tile``, ``mean``, ``np.clip``, separate projected halves),
  against which the step is checked bit for bit.  It calls no scheduler
  code; of the stability module it uses only the boundary projection.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import optimize

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
    """Central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for k in range(x0.size):
        e = np.zeros_like(x0)
        e[k] = step
        g[k] = (fun(x0 + e) - fun(x0 - e)) / (2 * step)
    return g


def saddle_point(sm, rho, nodes, xi, cfg, w_f):
    """Exact regularized saddle point on frozen data, certified to 5e-5.

    Maximizing the Lagrangian over the nonnegative multipliers in closed
    form (best response mu = [l]_+ / phi, lambda = [r]_+ / psi) leaves the
    minimization over z = (kappa_v, kappa_f, tau), tau >= 0, of

        F(z) = C(kappa) + reg_tau/2 |tau|^2 + |[l]_+|^2 / (2 phi)
               + |[r]_+|^2 / (2 psi).

    F is strongly convex with modulus sigma = min(2 w_pv^2, 2 w_qv^2,
    2 w_f^2, reg_tau), but it is not smooth: every sample hinge in l
    puts a kink into F, and the CVaR auxiliaries of rows with a positive
    multiplier sit on one at the minimum.  Three steps find and certify
    the minimizer:

    1. Slack QP.  As in the linear-programming form of CVaR (Rockafellar
       & Uryasev, J. Risk 2000), slack variables take the hinges and the
       [.]_+^2 terms out of the objective, which leaves a smooth convex
       QP for SLSQP.  A row's hinge average is the largest of its Ns + 1
       top-k partial averages of the sorted samples, so one slack per row
       with Ns + 1 linear cuts replaces one slack per sample.
    2. Polish.  On the piece of F the QP solution lies on (strictly
       active samples, the sample at its kink, rows with a positive
       multiplier, auxiliaries at their bound) the optimality conditions
       are linear.  Solving them exactly removes the QP solver's error.
    3. Certificate.  At the polished point an explicit eps-subgradient g
       of F plus the normal cone of tau >= 0 gives
       |z - z*| <= (|g| + sqrt(|g|^2 + 2 sigma eps)) / sigma, and the
       best responses' Lipschitz constants carry that bound to mu and
       lambda.  If the bound exceeds 5e-5 in any key, AssertionError is
       raised instead of returning an uncertified point.

    All model arithmetic below is written out independently of the
    package's scheduler code.
    """
    n = sm.R.shape[0]
    m = len(nodes)
    nr = 2 * n  # CVaR rows, upper bounds first
    nz = 4 * m + nr
    ns = xi.shape[0]
    idx = np.asarray(nodes, dtype=int) - 1
    dv = rho.v_meas - rho.v_star
    d_om = rho.omega - rho.omega_star
    wv = np.concatenate([np.full(m, cfg.cost_w_pv), np.full(m, cfg.cost_w_qv)])
    curv = np.concatenate([2 * wv**2, 2 * np.asarray(w_f) ** 2, np.full(nr, cfg.reg_tau)])
    # hinge arguments of row k are y_k + c[k], with y = sgn * v_pred + tau
    sgn = np.repeat([1.0, -1.0], n)
    jv = np.concatenate([sm.R[:, idx] * dv[idx], sm.X[:, idx] * dv[idx]], axis=1)
    jy = sgn[:, None] * np.vstack([jv, jv])
    y0 = sgn * np.concatenate([sm.v0, sm.v0])
    c = np.concatenate([xi - cfg.v_max, cfg.v_min - xi], axis=1).T
    ge = np.concatenate([sm.H[:n][idx], sm.H[n:][idx]]) * d_om
    e0 = sm.P0 - rho.r_t * d_om

    def terms(z):
        kv, kf, tau = z[: 2 * m], z[2 * m : 4 * m], z[4 * m :]
        y = y0 + jy @ kv + tau
        e = e0 + ge @ kf
        return kv, kf, tau, y, np.array([cfg.e_min - e, e - cfg.e_max])

    # 1. slack QP over x = (z, hinge averages h, [l]_+ slacks u, [r]_+ slacks s):
    # min 1/2 x' diag(hess) x  s.t.  h_k >= (j y_k + top_kj) / ns,
    # u >= h - beta tau, s >= r, and tau, u, s >= 0
    j = np.arange(ns + 1)
    top = np.concatenate([np.zeros((nr, 1)), np.cumsum(-np.sort(-c, axis=1), axis=1)], axis=1)
    k = np.arange(nr)
    cuts = np.zeros((nr, ns + 1, nz + 2 * nr + 2))
    cuts[:, :, : 2 * m] = j[:, None] * jy[:, None, :] / ns
    cuts[k, :, 4 * m + k] = j / ns
    cuts[k, :, nz + k] = -1.0
    lift = np.zeros((nr, nz + 2 * nr + 2))
    lift[k, nz + k] = 1.0
    lift[k, 4 * m + k] = -cfg.beta
    lift[k, nz + nr + k] = -1.0
    band = np.zeros((2, nz + 2 * nr + 2))
    band[:, 2 * m : 4 * m] = np.outer([-1.0, 1.0], ge)
    band[[0, 1], [-2, -1]] = -1.0
    A = np.vstack([cuts.reshape(-1, nz + 2 * nr + 2), lift, band])
    b = np.concatenate(
        [-(j * y0[:, None] + top).ravel() / ns, np.zeros(nr), [e0 - cfg.e_min, cfg.e_max - e0]]
    )
    hess = np.concatenate([curv, np.zeros(nr), np.full(nr, 1 / cfg.phi), np.full(2, 1 / cfg.psi)])
    qp = optimize.minimize(
        lambda x: (0.5 * x @ (hess * x), hess * x),
        np.zeros(hess.size),
        jac=True,
        method="SLSQP",
        bounds=[(None, None)] * (4 * m)
        + [(0.0, None)] * nr
        + [(None, None)] * nr
        + [(0.0, None)] * (nr + 2),
        constraints=dict(type="ineq", fun=lambda x: b - A @ x, jac=lambda x: -A),
        options=dict(maxiter=1000, ftol=1e-16),
    )

    def polish(z):
        """Solve the linear optimality conditions of the piece z lies on."""
        snap = 1e-6  # well above the QP solver's error, below sample gaps
        _, _, tau, y, r = terms(z)
        a = y[:, None] + c
        on = a > snap  # strictly active samples
        cnt = on.sum(axis=1)
        tot = np.where(on, c, 0.0).sum(axis=1)
        pos = (np.maximum(a, 0.0).mean(axis=1) - cfg.beta * tau) > 0
        s_k = np.argmin(np.abs(a), axis=1)
        kink = np.flatnonzero(pos & (np.abs(a[k, s_k]) <= snap))
        free = pos & (tau > snap)
        active_band = r > 0

        def residual(v):
            kv, kf, tau, y, r = terms(v[:nz])
            mu = np.where(pos, ((cnt * y + tot) / ns - cfg.beta * tau) / cfg.phi, 0.0)
            lam = np.where(active_band, r / cfg.psi, 0.0)
            w = mu * cnt / ns  # weight of y_k in the subgradient
            w[kink] += v[nz:]
            return np.concatenate(
                [
                    curv[: 2 * m] * kv + jy.T @ w,
                    curv[2 * m : 4 * m] * kf + (lam[1] - lam[0]) * ge,
                    np.where(free, cfg.reg_tau * tau + w - cfg.beta * mu, tau),
                    y[kink] + c[kink, s_k[kink]],
                ]
            )

        # the residual is affine in v: read its matrix off unit vectors
        r0 = residual(np.zeros(nz + kink.size))
        M = np.column_stack([residual(e) - r0 for e in np.eye(r0.size)])
        v = np.linalg.solve(M, -r0)
        v -= np.linalg.solve(M, residual(v))
        z = v[:nz].copy()
        z[4 * m :] = np.where(free, np.maximum(z[4 * m :], 0.0), 0.0)
        return z

    def certified_error(z):
        """Bound on the distance of every returned key from the exact saddle."""
        kink = 1e-9  # any threshold is sound: eps pays for the |a| it admits
        kv, kf, tau, y, r = terms(z)
        a = y[:, None] + c
        mu = np.maximum(np.maximum(a, 0.0).mean(axis=1) - cfg.beta * tau, 0.0) / cfg.phi
        lam = np.maximum(r, 0.0) / cfg.psi
        # any slope between these fractions is an eps-subgradient slope of
        # the hinge average; take the one that zeroes the tau condition
        lo = (a > kink).mean(axis=1)
        hi = (a >= -kink).mean(axis=1)
        want = cfg.beta - cfg.reg_tau * tau / np.where(mu > 0, mu, 1.0)
        slope = np.clip(want, lo, hi)
        g_tau = cfg.reg_tau * tau + mu * (slope - cfg.beta)
        g = np.linalg.norm(
            np.concatenate(
                [
                    curv[: 2 * m] * kv + jy.T @ (mu * slope),
                    curv[2 * m : 4 * m] * kf + (lam[1] - lam[0]) * ge,
                    np.where(tau > 0, g_tau, np.minimum(g_tau, 0.0)),
                ]
            )
        )
        eps = np.sum(mu * np.where(np.abs(a) <= kink, np.abs(a), 0.0).mean(axis=1))
        sigma = curv.min()
        dist = (g + np.sqrt(g * g + 2 * sigma * eps)) / sigma
        lip_mu = np.sqrt((jy**2).sum(axis=1) + (1 + cfg.beta) ** 2).max() / cfg.phi
        lip_lam = np.linalg.norm(ge) / cfg.psi
        return dist * max(1.0, lip_mu, lip_lam), mu, lam

    z = polish(qp.x[:nz])
    err, mu, lam = certified_error(z)
    if not err <= 5e-5:
        raise AssertionError(f"saddle point not certified: error bound {err:.3g} ({qp.message})")
    kv, kf, tau, _, _ = terms(z)
    return dict(kappa_v=kv, kappa_f=kf, cvar=tau, mu=mu, lam=lam)


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


def lagrangian(state, sm, rho, samples, cfg):
    """Regularized Lagrangian value at the state's primal/dual point.

    The voltage model takes the current voltage gains with the previous
    frequency gains, the tracking error the previous voltage gains with
    the current frequency gains, as the scheduler's feedforward does.
    """
    n = sm.R.shape[0]
    p, q = scattered_response(state, rho, n, state.kappa_v, state.prev_kappa_f)
    vm = sm.R @ p + sm.X @ q + sm.v0
    p, q = scattered_response(state, rho, n, state.prev_kappa_v, state.kappa_f)
    e = sm.P0 + sm.H[:n] @ p + sm.H[n:] @ q - rho.r_t * (rho.omega - rho.omega_star)
    upper = np.maximum(vm - cfg.v_max + samples + state.cvar[:n], 0.0).mean(axis=0)
    lower = np.maximum(cfg.v_min - vm - samples + state.cvar[n:], 0.0).mean(axis=0)
    l_val = np.concatenate([upper, lower]) - cfg.beta * state.cvar
    r_val = np.array([cfg.e_min - e, e - cfg.e_max])
    return (
        cost(state, cfg)
        + float(state.mu @ l_val)
        + float(state.lam @ r_val)
        - 0.5 * cfg.phi * float(state.mu @ state.mu)
        - 0.5 * cfg.psi * float(state.lam @ state.lam)
        + 0.5 * cfg.reg_tau * float(state.cvar @ state.cvar)
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


def primal_dual_reference(state, sm, rho, samples, cfg, stab, tau_p, tau_q):
    """One dual-then-primal cycle in the formulas the scheduler first used.

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
    vm = G @ (state.kappa_v * u + state.prev_kappa_f * d_omega) + sm.v0
    delivered = h @ (state.prev_kappa_v * u + state.kappa_f * d_omega) + sm.P0
    e = float(delivered - rho.r_t * (rho.omega - rho.omega_star))

    arg = np.concatenate([vm - cfg.v_max + samples, cfg.v_min - vm - samples], axis=1) + state.cvar
    l_val = np.maximum(arg, 0.0).mean(axis=0) - state.cvar * cfg.beta
    r_val = np.array([cfg.e_min - e, e - cfg.e_max])
    mu = np.maximum(state.mu + cfg.alpha_dual * (l_val - cfg.phi * state.mu), 0.0)
    lam = np.maximum(state.lam + cfg.alpha_dual * (r_val - cfg.psi * state.lam), 0.0)

    frac = (arg > 0.0).mean(axis=0)
    w = mu * frac
    s_v = (G * u).T @ (w[:n] - w[n:])
    d = mu * (frac - cfg.beta)
    s_f = (lam[1] - lam[0]) * (h * d_omega)

    wv = np.concatenate([np.full(m, cfg.cost_w_pv), np.full(m, cfg.cost_w_qv)])
    kappa_v = state.kappa_v - cfg.alpha_primal * (2.0 * wv**2 * state.kappa_v + s_v)
    kappa_f = state.kappa_f - cfg.alpha_primal * (2.0 * state.w_f**2 * state.kappa_f + s_f)
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
        cvar=np.maximum(state.cvar - cfg.alpha_tau * (d + cfg.reg_tau * state.cvar), 0.0),
        mu=mu,
        lam=lam,
    )
