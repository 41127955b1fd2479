"""Classical conjugate-direction baselines under exact line search.

Conjugate gradients, dense BFGS, and memoryless BFGS all terminate on a
strictly convex quadratic in exactly as many steps as the grade of the
gradient-generated subspace, walking the same constrained minimizers with
mutually conjugate (and pairwise parallel) directions. They are the reference
the arbitrary-step method is audited against.

All three run :func:`_exact_line_search_loop` and differ only in the next
direction they form from the new gradient g and the last pair (p, Hp): CG
takes -g + c p, the solver's conjugate-direction rule, and the quasi-Newton
variants -Mg, with M an inverse approximation updated by the pair. An
iteration takes one H-product, Hp, and carries the gradient as g + alpha Hp,
the form of Hestenes and Stiefel's CG; the gradient is evaluated only where
the run may end, by the stopping rule of ``trace.Run``, which the
arbitrary-step solver shares.
"""

import math

import numpy as np

from .algorithm import _upcoming_direction, newton_scaling
from .errors import DegenerateBasisError, NotPositiveDefiniteError
from .trace import BREAKDOWN, CONVERGED, IterateRecord, Run
from .util import check_run_limits


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
    # the scalars take rho before they scale a vector: (p'v) Hp can overflow
    # where rho (p'v) Hp does not
    rpv = rho * float(p @ v)
    ryv = rho * float(h_p @ v)
    return v - (rpv * h_p + ryv * p) + (1.0 + rho * float(h_p @ h_p)) * rpv * p


def _exact_line_search_loop(prob, x0, method, tol, max_iter, next_direction):
    """Exact line search from x0 along -g, then along ``next_direction(g, p,
    h_p)`` of the gradient and the last direction with its image Hp. The
    gradient after a step is carried as g + alpha Hp, and the run stops by
    the rule of ``trace.Run``.

    Breakdowns are reported in the trace, never retried: a gradient that is
    not finite; a direction that does not descend (g'p >= 0), so the
    approximation it comes from lost positive definiteness; curvature
    p'Hp <= 0; and more than ``max_iter`` iterations, default n + 1, which an
    exact quadratic never needs. Invalid ``tol`` or ``max_iter`` raise
    PolicyError before the first gradient.
    """
    check_run_limits(tol, max_iter)
    x = prob._check_vector(x0, name="x0")
    run = Run(prob, x, tol, {"method": method, "tol": tol})
    g, g_norm = run.g0, run.g0_norm
    cap = max_iter if max_iter is not None else prob.n + 1

    for k in range(cap + 1):
        if not math.isfinite(g_norm):
            return run.finish(BREAKDOWN, f"gradient is not finite at iterate {k}")
        if g_norm <= run.threshold:
            return run.finish(CONVERGED)
        if k == cap:
            return run.finish(BREAKDOWN, f"no convergence within {cap} iterations")
        p = -g if k == 0 else next_direction(g, p, h_p)
        if float(g @ p) >= 0.0:
            return run.finish(BREAKDOWN, "approximation lost positive definiteness")
        h_p = prob.hessian_action(p)
        try:
            alpha = newton_scaling(g, p, h_p)
        except NotPositiveDefiniteError:
            return run.finish(BREAKDOWN, "nonpositive curvature along search direction")
        run.trace.records.append(IterateRecord(x=x, g=g, p=p, alpha=alpha,
                                               grad_norm=g_norm, h_p=h_p))
        x = x + alpha * p
        g, g_norm = run.gradient_at(x, g + alpha * h_p)


def cg_solve(prob, x0, tol=1e-9, max_iter=None):
    """Conjugate gradients with exact line search: the next direction is
    -g + c p, c = g'Hp / p'Hp, conjugate to p. Stops as
    :func:`_exact_line_search_loop` does."""
    return _exact_line_search_loop(
        prob, x0, "cg", tol, max_iter,
        lambda g, p, h_p: _upcoming_direction(g, p, h_p)[1])


def qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-9, max_iter=None):
    """Quasi-Newton solve under exact line search along -Mg.

    variant "bfgs" keeps the inverse approximation M as a dense n x n matrix
    that accumulates every update from M0 = I; "memoryless" applies the update
    of the identity by the latest direction pair, with no n x n array. Stops
    as :func:`cg_solve` does.
    """
    if variant == "bfgs":
        M = np.eye(prob.n)

        def next_direction(g, p, h_p):
            nonlocal M
            M = bfgs_inverse_update(M, p, h_p)
            return -(M @ g)
    elif variant == "memoryless":
        def next_direction(g, p, h_p):
            return -memoryless_bfgs_inverse_action(p, h_p, g)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _exact_line_search_loop(prob, x0, variant, tol, max_iter, next_direction)
