"""Classical conjugate-direction baselines under exact line search.

Conjugate gradients, dense BFGS, and memoryless BFGS all terminate on a
strictly convex quadratic in exactly as many steps as the grade of the
gradient-generated subspace, walking the same constrained minimizers with
mutually conjugate (and pairwise parallel) directions. They are the reference
the arbitrary-step method is audited against.
"""

import numpy as np

from .errors import DegenerateBasisError, NotPositiveDefiniteError
from .trace import BREAKDOWN, CONVERGED, IterateRecord, IterateTrace
from .util import norm


def exact_line_search(prob, x, p):
    """Minimizing step length along p from x: alpha = -g'p / p'Hp.

    Zero is a legitimate return (when p is orthogonal to the gradient);
    nonpositive curvature p'Hp is not and raises.
    """
    p = np.asarray(p, dtype=float)
    h_p = prob.hessian_action(p)
    curv = float(p @ h_p)
    if curv <= 0.0:
        raise NotPositiveDefiniteError(
            f"line search direction has nonpositive curvature p'Hp = {curv:.3e}"
        )
    return -float(prob.gradient(x) @ p) / curv


def bfgs_inverse_update(M, p, h_p):
    """BFGS update of an inverse approximation M along p with image h_p = Hp.

    M+ = (I - rho p(Hp)')M(I - rho (Hp)p') + rho pp', rho = 1/p'Hp, formed
    with two outer products in O(n^2). It keeps M symmetric positive definite
    and gives M+ Hp = p. On a quadratic the update is invariant to the step
    length taken along p, so p itself serves as the difference pair.
    """
    M = np.asarray(M, dtype=float)
    p = np.asarray(p, dtype=float)
    h_p = np.asarray(h_p, dtype=float)
    pHp = float(p @ h_p)
    if pHp <= 0.0:
        raise NotPositiveDefiniteError(
            f"direction has nonpositive curvature p'Hp = {pHp:.3e}"
        )
    rho = 1.0 / pHp
    m_y = M @ h_p
    cross = np.outer(p, m_y)
    scale = rho * (1.0 + rho * float(h_p @ m_y))
    return M - rho * (cross + cross.T) + scale * np.outer(p, p)


def memoryless_bfgs_inverse_action(p, h_p, v):
    """Mv for the BFGS inverse update of the identity along the latest pair.

    M = (I - rho p(Hp)')(I - rho (Hp)p') + rho pp', rho = 1/p'Hp, applied
    without forming it:

        Mv = v - rho [(p'v) Hp + ((Hp)'v) p] + rho (1 + rho (Hp)'Hp)(p'v) p.
    """
    p = np.asarray(p, dtype=float)
    h_p = np.asarray(h_p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not p.any():
        raise DegenerateBasisError("direction is zero")
    pHp = float(p @ h_p)
    if pHp <= 0.0:
        raise NotPositiveDefiniteError(
            f"direction has nonpositive curvature p'Hp = {pHp:.3e}"
        )
    rho = 1.0 / pHp
    pv = float(p @ v)
    yv = float(h_p @ v)
    return (v - rho * (pv * h_p + yv * p)
            + rho * (1.0 + rho * float(h_p @ h_p)) * pv * p)


def cg_solve(prob, x0, tol=1e-9, max_iter=None):
    """Conjugate gradients with exact line search.

    Stops when ||g|| <= tol * (1 + ||g0||). Needing more than n + 1
    iterations on an exact quadratic signals numerical breakdown and is
    reported in the trace status, never retried.
    """
    x = prob._check_vector(x0, name="x0")
    g = prob.gradient(x)
    g_norm = norm(g)
    threshold = tol * (1.0 + g_norm)
    trace = IterateTrace(meta={"method": "cg", "tol": tol})
    cap = max_iter if max_iter is not None else prob.n + 1
    p = -g
    for k in range(cap):
        if g_norm <= threshold:
            return trace.finish(CONVERGED, x, g_norm)
        h_p = prob.hessian_action(p)
        curv = float(p @ h_p)
        if curv <= 0.0:
            return trace.finish(BREAKDOWN, x, g_norm,
                                reason="nonpositive curvature along search direction")
        alpha = -float(g @ p) / curv
        trace.records.append(IterateRecord(
            k=k, x=x, g=g, p=p, alpha=alpha, grad_norm=g_norm, h_p=h_p,
        ))
        x = x + alpha * p
        g_next = prob.gradient(x)
        p = -g_next + (float(g_next @ h_p) / curv) * p
        g = g_next
        g_norm = norm(g)
    if g_norm <= threshold:
        return trace.finish(CONVERGED, x, g_norm)
    return trace.finish(BREAKDOWN, x, g_norm,
                        reason=f"no convergence within {cap} iterations")


def qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-9, max_iter=None):
    """Quasi-Newton solve under exact line search with an inverse approximation.

    variant
        "bfgs": the inverse approximation M, kept as a dense n x n matrix,
        accumulates every update from M0 = I.
        "memoryless": M is the update of the identity by the latest
        direction pair only, applied from that pair with no n x n array.

    The direction is p = -Mg, so no system is solved. A direction that is
    not a descent direction (g'p >= 0) means M lost positive definiteness
    and ends the run. Termination matches :func:`cg_solve`.
    """
    if variant not in ("bfgs", "memoryless"):
        raise ValueError(f"unknown variant {variant!r}")
    x = prob._check_vector(x0, name="x0")
    g = prob.gradient(x)
    g_norm = norm(g)
    threshold = tol * (1.0 + g_norm)
    trace = IterateTrace(meta={"method": variant, "tol": tol})
    cap = max_iter if max_iter is not None else prob.n + 1
    M = np.eye(prob.n) if variant == "bfgs" else None
    pair = None
    for k in range(cap):
        if g_norm <= threshold:
            return trace.finish(CONVERGED, x, g_norm)
        if M is not None:
            p = -(M @ g)
        elif pair is not None:
            p = -memoryless_bfgs_inverse_action(*pair, g)
        else:
            p = -g
        if float(g @ p) >= 0.0:
            return trace.finish(BREAKDOWN, x, g_norm,
                                reason="approximation lost positive definiteness")
        h_p = prob.hessian_action(p)
        curv = float(p @ h_p)
        if curv <= 0.0:
            return trace.finish(BREAKDOWN, x, g_norm,
                                reason="nonpositive curvature along search direction")
        alpha = -float(g @ p) / curv
        trace.records.append(IterateRecord(
            k=k, x=x, g=g, p=p, alpha=alpha, grad_norm=g_norm, h_p=h_p,
        ))
        x = x + alpha * p
        g = prob.gradient(x)
        g_norm = norm(g)
        if M is not None:
            M = bfgs_inverse_update(M, p, h_p)
        else:
            pair = (p, h_p)
    if g_norm <= threshold:
        return trace.finish(CONVERGED, x, g_norm)
    return trace.finish(BREAKDOWN, x, g_norm,
                        reason=f"no convergence within {cap} iterations")
