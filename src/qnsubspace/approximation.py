"""Restricted Newton steps, and the operators that copy the Hessian on a span.

For a basis S of a subspace, the restricted Newton step from x solves
(S'HS) b = -S'g(x) and moves by S b. Over a set of mutually H-conjugate
directions the system diagonalizes and each coefficient reduces to the
one-dimensional scaling -g'q / q'Hq. :func:`extend_step` grows a restricted
Newton step by one direction in closed form, without refactoring anything.

A :class:`SpanApprox` acts as sigma times identity on the orthogonal
complement of span(P) and as H on span(P) itself:

    B = sigma (I - P (P'P)^-1 P') + HP (P'HP)^-1 (HP)'

Only the columns P and their images HP enter, so the construction works
matrix-free. It is symmetric positive definite for any sigma > 0, reproduces
B P = HP exactly, and with P drawn from the method's direction recursion its
inverse applied to the negative gradient extends the current restricted
Newton step by one scaled conjugate direction.

The solver takes this direction in closed form (``algorithm.solve_direction``);
the operator here is its reference, so B is formed as the n x n matrix of the
formula above and solved densely.
"""

from typing import NamedTuple

import numpy as np

from .errors import DegenerateBasisError, NotPositiveDefiniteError
from .util import cosine_alignment, norm

# Two spanning vectors closer than this (in 1 - |cos|) collapse to one column.
COLLAPSE_TOL = 1e-10

# Relative floor for the 2x2 determinant in extend_step; below it the new
# gradient is (numerically) inside the current span.
EXTEND_DET_RTOL = 1e-14


def newton_scaling(g, q, h_q):
    """Coefficient b = -g'q / q'Hq making x + b q stationary along q."""
    curv = float(q @ h_q)
    if curv <= 0.0:
        raise NotPositiveDefiniteError(
            f"direction has nonpositive curvature q'Hq = {curv:.3e}"
        )
    return -float(g @ q) / curv


def _upcoming_direction(g_hat, q, h_q):
    """(c, -g_hat + c q): the next direction conjugate to q from the gradient
    g_hat at the minimizer along q, c = g_hat'Hq / q'Hq, or 0 while q = 0 (the
    solver's q before its first step and once its span is exhausted)."""
    q_h_q = float(q @ h_q)
    coef = float(g_hat @ h_q) / q_h_q if q_h_q > 0.0 else 0.0
    return coef, -g_hat + coef * q


class SubspaceNewtonStep(NamedTuple):
    """Restricted Newton step: the move itself plus its basis coefficients."""

    step: np.ndarray
    scalings: np.ndarray


def subspace_newton_general(basis, prob, x):
    """Newton step from x restricted to span(basis).

    Parameters
    ----------
    basis : sequence of ndarray
        Linearly independent spanning vectors; may be empty (zero step).
        ``scalings[i]`` pairs with ``basis[i]``.
    prob : QuadraticProblem
        Supplies the gradient and the Hessian action; H is never factored.
    x : ndarray
        Point the step is taken from.
    """
    cols = [np.asarray(v, dtype=float) for v in basis]
    x = np.asarray(x, dtype=float)
    if not cols:
        return SubspaceNewtonStep(np.zeros_like(x), np.zeros(0))
    S = np.column_stack(cols)
    HS = np.column_stack([prob.hessian_action(v) for v in cols])
    G = S.T @ HS
    G = 0.5 * (G + G.T)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(
            "basis is linearly dependent (projected Hessian is singular)"
        ) from exc
    b = np.linalg.solve(G, -(S.T @ prob.gradient(x)))
    return SubspaceNewtonStep(S @ b, b)


class StepExtension(NamedTuple):
    """Result of growing a restricted Newton step by one direction.

    ``direction`` is the increment beta * g_hat + gamma * q_prev: the next
    conjugate direction, already scaled so that adding it to the previous
    constrained minimizer lands exactly on the next one.
    """

    step: np.ndarray
    beta: float
    gamma: float
    direction: np.ndarray


def extend_step(newton_prev, q_prev, g_hat, h_action):
    """Extend a restricted Newton step across one more direction, in closed form.

    Given the Newton step ``newton_prev`` over the current span from some
    point x, the most recent conjugate direction ``q_prev``, and the gradient
    ``g_hat`` at the minimizer over that span, returns the Newton step from x
    over the span grown by g_hat. The 2x2 system in (g_hat, q_prev) is solved
    with the explicit adjugate:

        D     = (g'Hg)(q'Hq) - (g'Hq)^2
        beta  = -(g'g)(q'Hq) / D
        gamma =  (g'g)(q'Hg) / D

    beta and the product gamma * q_prev do not depend on the scaling of
    q_prev. A determinant at or below the relative floor means the span
    cannot grow: the minimizer over it is already stationary (or the inputs
    are degenerate), reported as :class:`DegenerateBasisError`.
    """
    newton_prev = np.asarray(newton_prev, dtype=float)
    q_prev = np.asarray(q_prev, dtype=float)
    g_hat = np.asarray(g_hat, dtype=float)
    h_g = np.asarray(h_action(g_hat), dtype=float)
    h_q = np.asarray(h_action(q_prev), dtype=float)
    gg = float(g_hat @ g_hat)
    g_h_g = float(g_hat @ h_g)
    q_h_q = float(q_prev @ h_q)
    g_h_q = float(g_hat @ h_q)
    det = g_h_g * q_h_q - g_h_q**2
    if det <= EXTEND_DET_RTOL * gg * q_h_q:
        raise DegenerateBasisError(
            "new gradient adds no direction: converged or degenerate state"
        )
    beta = -gg * q_h_q / det
    gamma = gg * g_h_q / det
    direction = beta * g_hat + gamma * q_prev
    return StepExtension(newton_prev + direction, beta, gamma, direction)


class SpanApprox:
    """B = sigma * (complement projector) + (H restricted to span P).

    Parameters
    ----------
    P : ndarray (n, m)
        Independent spanning columns; m = 0 gives B = sigma * I of any
        dimension.
    HP : ndarray (n, m)
        Hessian images of the columns of P.
    sigma : float
        Positive scaling on the orthogonal complement of span(P).
    """

    def __init__(self, P, HP, sigma):
        sigma = float(sigma)
        if sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        P = np.atleast_2d(np.asarray(P, dtype=float))
        HP = np.atleast_2d(np.asarray(HP, dtype=float))
        if P.shape != HP.shape:
            raise ValueError("P and HP must have identical shapes")
        if P.shape[1] > P.shape[0]:
            raise ValueError("more spanning columns than dimensions")
        self.sigma = sigma
        # the approximation depends only on span(P), so rescale each column
        # to unit length: mixed column scales would square into the Gram
        # factorizations and needlessly amplify rounding
        if P.shape[1]:
            scales = np.linalg.norm(P, axis=0)
            if np.any(scales == 0.0):
                raise DegenerateBasisError("zero spanning column")
            P = P / scales
            HP = HP / scales
        self.P = P
        self.HP = HP
        self.n = P.shape[0]
        self.rank = P.shape[1]
        self.matrix = sigma * np.eye(self.n)
        if self.rank:
            cross = P.T @ HP
            asym = np.abs(cross - cross.T).max()
            # catches mismatched or wrong-operator images, which are off by
            # order one; kept loose because images learned from gradient
            # differences carry absolute noise that the column normalization
            # above inflates on very small columns
            if asym > 1e-4 * max(1.0, np.abs(cross).max()):
                raise ValueError(
                    "HP is inconsistent with P: P'HP is not symmetric "
                    f"(defect {asym:.3e})"
                )
            gram = P.T @ P
            cross = 0.5 * (cross + cross.T)
            try:
                np.linalg.cholesky(gram)
                np.linalg.cholesky(cross)
            except np.linalg.LinAlgError as exc:
                raise DegenerateBasisError(
                    "spanning columns are dependent or have lost conjugacy"
                ) from exc
            self.matrix -= sigma * P @ np.linalg.solve(gram, P.T)
            self.matrix += HP @ np.linalg.solve(cross, HP.T)

    def matvec(self, v):
        """Bv."""
        v = np.asarray(v, dtype=float)
        if self.rank == 0:
            return self.sigma * v
        return self.matrix @ v

    def solve(self, rhs):
        """The p solving B p = rhs."""
        rhs = np.asarray(rhs, dtype=float)
        if self.rank == 0:
            return rhs / self.sigma
        return np.linalg.solve(self.matrix, rhs)


def span_collapses(newton_step, align_gap):
    """Whether the two-vector span drops to the single column q: the Newton
    step is zero, or ``align_gap = 1 - cosine_alignment(newton_step, q)`` is
    within COLLAPSE_TOL."""
    return bool(norm(newton_step) == 0.0 or align_gap <= COLLAPSE_TOL)


def build_two_vector(newton_step, h_newton_step, q, h_q, sigma):
    """Approximation spanned by the current restricted Newton step and the
    latest conjugate direction, or by q alone where the span collapses.
    A zero q is an error.
    """
    q = np.asarray(q, dtype=float)
    h_q = np.asarray(h_q, dtype=float)
    if norm(q) == 0.0:
        raise DegenerateBasisError("conjugate direction is zero")
    newton_step = np.asarray(newton_step, dtype=float)
    h_newton_step = np.asarray(h_newton_step, dtype=float)
    if span_collapses(newton_step, 1.0 - cosine_alignment(newton_step, q)):
        return SpanApprox(q[:, None], h_q[:, None], sigma)
    return SpanApprox(
        np.column_stack([newton_step, q]),
        np.column_stack([h_newton_step, h_q]),
        sigma,
    )


def newton_sigma(q, h_q, g):
    """The complement scaling that turns the next solve into a full Newton step.

    For the upcoming conjugate direction q (normalized with unit coefficient
    on the negated subspace gradient) and the current gradient g, the unique
    value is sigma = -q'Hq / q'g. It is the reciprocal of the Newton scaling
    of q at the same point, hence positive in any consistent state; where
    rounding makes it nonpositive or not finite, DegenerateBasisError.
    """
    q = np.asarray(q, dtype=float)
    g = np.asarray(g, dtype=float)
    slope = float(q @ g)
    if abs(slope) <= 1e-300 or abs(slope) <= 1e-15 * norm(q) * norm(g):
        raise DegenerateBasisError(
            "q'g vanishes: the point is already optimal over the extended span"
        )
    sigma = -float(q @ np.asarray(h_q, dtype=float)) / slope
    if not 0.0 < sigma < np.inf:
        raise DegenerateBasisError(f"Newton scaling {sigma:.4g} is not a finite "
                                   "positive number")
    return sigma
