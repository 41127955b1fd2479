"""The dense reference for the solver's Hessian approximation.

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
formula above and solved densely. The module holds only what the traced
benchmark still binds on ``algorithm``, :class:`SpanApprox` and
:func:`build_two_vector`, plus their collapse rule, whose tolerance
verification reads; the package namespace exports none of them. It moves
to the test oracles when the benchmark stops reading them (ROADMAP item 1).
"""

import numpy as np

from .errors import DegenerateBasisError
from .util import norm

# Two spanning vectors closer than this (in 1 - |cos|) collapse to one column.
COLLAPSE_TOL = 1e-10


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
    step is zero, or ``align_gap = 1 - |cos(newton_step, q)|`` is within
    COLLAPSE_TOL."""
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
    # |cos(pN, q)|, 0 for a zero pN, which collapses whatever its gap
    pn_norm = norm(newton_step)
    cos = abs(float(newton_step @ q)) / (pn_norm * norm(q)) if pn_norm else 0.0
    if span_collapses(newton_step, 1.0 - min(1.0, cos)):
        return SpanApprox(q[:, None], h_q[:, None], sigma)
    return SpanApprox(
        np.column_stack([newton_step, q]),
        np.column_stack([h_newton_step, h_q]),
        sigma,
    )
