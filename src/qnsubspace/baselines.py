"""Classical conjugate-direction baselines under exact line search.

Conjugate gradients, dense BFGS, and memoryless BFGS all terminate on a
strictly convex quadratic in exactly as many steps as the grade of the
gradient-generated subspace, walking the same constrained minimizers with
mutually conjugate (and pairwise parallel) directions. They are the reference
the arbitrary-step method is audited against.
"""

import numpy as np
from numpy.linalg import norm
from scipy.linalg import cho_factor, cho_solve

from .errors import DegenerateBasisError, NotPositiveDefiniteError
from .trace import BREAKDOWN, CONVERGED, IterateRecord, IterateTrace


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


def bfgs_update(B, p, h_p):
    """Dense BFGS update of B along direction p with curvature image h_p = Hp.

    B+ = B - (Bp)(Bp)'/(p'Bp) + (Hp)(Hp)'/(p'Hp). On a quadratic the update
    is invariant to the step length taken along p, so p itself serves as the
    difference pair.
    """
    B = np.asarray(B, dtype=float)
    p = np.asarray(p, dtype=float)
    h_p = np.asarray(h_p, dtype=float)
    Bp = B @ p
    pBp = float(p @ Bp)
    pHp = float(p @ h_p)
    if pBp <= 0.0 or pHp <= 0.0:
        raise NotPositiveDefiniteError(
            f"update curvatures must be positive: p'Bp = {pBp:.3e}, p'Hp = {pHp:.3e}"
        )
    B_next = B - np.outer(Bp, Bp) / pBp + np.outer(h_p, h_p) / pHp
    return 0.5 * (B_next + B_next.T)


def memoryless_bfgs_update(p, h_p):
    """BFGS update applied to the identity: keeps only the latest pair.

    B+ = I - pp'/(p'p) + (Hp)(Hp)'/(p'Hp).
    """
    p = np.asarray(p, dtype=float)
    h_p = np.asarray(h_p, dtype=float)
    pp = float(p @ p)
    if pp == 0.0:
        raise DegenerateBasisError("direction is zero")
    pHp = float(p @ h_p)
    if pHp <= 0.0:
        raise NotPositiveDefiniteError(
            f"direction has nonpositive curvature p'Hp = {pHp:.3e}"
        )
    n = p.shape[0]
    B_next = np.eye(n) - np.outer(p, p) / pp + np.outer(h_p, h_p) / pHp
    return 0.5 * (B_next + B_next.T)


def cg_solve(prob, x0, tol=1e-9, max_iter=None):
    """Conjugate gradients with exact line search.

    Stops when ||g|| <= tol * (1 + ||g0||). Needing more than n + 1
    iterations on an exact quadratic signals numerical breakdown and is
    reported in the trace status, never retried.
    """
    x = prob._check_vector(x0, name="x0")
    g = prob.gradient(x)
    threshold = tol * (1.0 + norm(g))
    trace = IterateTrace(meta={"method": "cg", "tol": tol})
    cap = max_iter if max_iter is not None else prob.n + 1
    p = -g
    for k in range(cap):
        if norm(g) <= threshold:
            return trace.finish(CONVERGED, x, norm(g))
        h_p = prob.hessian_action(p)
        curv = float(p @ h_p)
        if curv <= 0.0:
            return trace.finish(BREAKDOWN, x, norm(g),
                                reason="nonpositive curvature along search direction")
        alpha = -float(g @ p) / curv
        trace.records.append(IterateRecord(
            k=k, x=x, g=g, p=p, alpha=alpha, grad_norm=float(norm(g)), h_p=h_p,
        ))
        x = x + alpha * p
        g_next = prob.gradient(x)
        p = -g_next + (float(g_next @ h_p) / curv) * p
        g = g_next
    if norm(g) <= threshold:
        return trace.finish(CONVERGED, x, norm(g))
    return trace.finish(BREAKDOWN, x, norm(g),
                        reason=f"no convergence within {cap} iterations")


def qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-9, max_iter=None):
    """Quasi-Newton solve under exact line search with a dense approximation.

    variant
        "bfgs": the approximation accumulates every update from B0 = I.
        "memoryless": the approximation is rebuilt from the identity and the
        latest direction pair only.

    The approximation is kept dense and refactored each iteration; no factor
    updating. Termination matches :func:`cg_solve`.
    """
    if variant not in ("bfgs", "memoryless"):
        raise ValueError(f"unknown variant {variant!r}")
    x = prob._check_vector(x0, name="x0")
    g = prob.gradient(x)
    threshold = tol * (1.0 + norm(g))
    trace = IterateTrace(meta={"method": variant, "tol": tol})
    cap = max_iter if max_iter is not None else prob.n + 1
    B = np.eye(prob.n)
    for k in range(cap):
        if norm(g) <= threshold:
            return trace.finish(CONVERGED, x, norm(g))
        try:
            p = cho_solve(cho_factor(B, lower=True), -g)
        except np.linalg.LinAlgError:
            return trace.finish(BREAKDOWN, x, norm(g),
                                reason="approximation lost positive definiteness")
        h_p = prob.hessian_action(p)
        curv = float(p @ h_p)
        if curv <= 0.0:
            return trace.finish(BREAKDOWN, x, norm(g),
                                reason="nonpositive curvature along search direction")
        alpha = -float(g @ p) / curv
        trace.records.append(IterateRecord(
            k=k, x=x, g=g, p=p, alpha=alpha, grad_norm=float(norm(g)), h_p=h_p,
        ))
        x = x + alpha * p
        g = prob.gradient(x)
        if variant == "bfgs":
            B = bfgs_update(B, p, h_p)
        else:
            B = memoryless_bfgs_update(p, h_p)
    if norm(g) <= threshold:
        return trace.finish(CONVERGED, x, norm(g))
    return trace.finish(BREAKDOWN, x, norm(g),
                        reason=f"no convergence within {cap} iterations")
