"""Classical conjugate-direction baselines under exact line search.

Conjugate gradients, dense BFGS, and memoryless BFGS all terminate on a
strictly convex quadratic in exactly as many steps as the grade of the
gradient-generated subspace, walking the same constrained minimizers with
mutually conjugate (and pairwise parallel) directions. They are the reference
the arbitrary-step method is audited against.

Each is a direction rule of ``algorithm._iterate``, the solver's own loop,
formed from the new gradient g and the last pair (p, Hp): CG takes -g + c p,
the solver's conjugate-direction rule, and the quasi-Newton variants -Mg,
with M an inverse approximation updated by the pair, looked up by variant
in ``_QN_VARIANTS``. An iteration takes one H-product and carries the
gradient as g + alpha Hp, the form of Hestenes and Stiefel's CG. The method
table of :mod:`~qnsubspace.verification` runs them through this module.
"""

import numpy as np

from .algorithm import ORACLE, StepPolicy, _iterate, _upcoming_direction
from .errors import DegenerateBasisError, NotPositiveDefiniteError
from .trace import BREAKDOWN


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


class _Baseline:
    """A baseline's rule: -g, then ``next_direction(g, p, h_p)`` of the last
    direction and its image. A direction must descend, and the cap, default
    n + 1, which an exact quadratic never needs, ends a run as a breakdown."""

    descends = True
    cap_over_n = 1
    at_cap = BREAKDOWN
    exhausted = None

    def __init__(self, method, next_direction):
        self.method, self._next, self._last = method, next_direction, None

    def begin(self, tol, max_iter, mode, steps):
        return {"method": self.method, "tol": tol}, None

    def start(self, image, x, g, g_norm, trace):
        pass

    def direction(self, g):
        return -g if self._last is None else self._next(g, *self._last)

    def update(self, k, record, x_next, g_next, converged):
        self._last = record.p, record.h_p


def cg_solve(prob, x0, tol=1e-9, max_iter=None):
    """Conjugate gradients with exact line search: the next direction is
    -g + c p, c = g'Hp / p'Hp, conjugate to p. Stops as :class:`_Baseline`
    does."""
    rule = _Baseline("cg", lambda g, p, h_p: _upcoming_direction(g, p, h_p)[1])
    return _iterate(prob, x0, rule, StepPolicy.exact_line_search(), ORACLE, tol, max_iter)


def _dense_bfgs(n):
    """-Mg, M an n x n array that every pair updates from I."""
    M = np.eye(n)

    def next_direction(g, p, h_p):
        nonlocal M
        M = bfgs_inverse_update(M, p, h_p)
        return -(M @ g)
    return next_direction


# The direction rule of each quasi-Newton variant on a problem of dimension n.
_QN_VARIANTS = {
    "bfgs": _dense_bfgs,
    "memoryless": lambda n: lambda g, p, h_p: -memoryless_bfgs_inverse_action(p, h_p, g),
}


def qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-9, max_iter=None):
    """Quasi-Newton solve under exact line search along -Mg.

    variant "bfgs" keeps the inverse approximation M as a dense n x n matrix
    that accumulates every update from M0 = I; "memoryless" applies the update
    of the identity by the latest direction pair, with no n x n array. Stops
    as :func:`cg_solve` does.
    """
    rule = _QN_VARIANTS.get(variant) if isinstance(variant, str) else None
    if rule is None:
        raise ValueError(f"unknown variant {variant!r}")
    return _iterate(prob, x0, _Baseline(variant, rule(prob.n)),
                    StepPolicy.exact_line_search(), ORACLE, tol, max_iter)
