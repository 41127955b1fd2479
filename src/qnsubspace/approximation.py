"""Positive definite approximations that copy the Hessian on a chosen span.

A :class:`SpanApprox` acts as sigma times identity on the orthogonal
complement of span(P) and as H on span(P) itself:

    B = sigma (I - P (P'P)^-1 P') + HP (P'HP)^-1 (HP)'

Only the columns P and their images HP enter, so the construction works
matrix-free. It is symmetric positive definite for any sigma > 0, reproduces
B P = HP exactly, and with P drawn from the method's direction recursion its
inverse applied to the negative gradient extends the current restricted
Newton step by one scaled conjugate direction.

The solver takes this direction in closed form (``algorithm.solve_direction``);
the operator here is its reference. B is never formed: with m spanning
columns it is sigma I plus a correction of rank at most 2m, so products and
solves cost O(n m) each, the solve by the Woodbury identity on a 2m x 2m
capacitance matrix.
"""

import numpy as np
from numpy.linalg import norm
from scipy.linalg import lapack

from .errors import DegenerateBasisError
from .util import cosine_alignment

# Two spanning vectors closer than this (in 1 - |cos|) collapse to one column.
COLLAPSE_TOL = 1e-10

# Near-threshold band around COLLAPSE_TOL worth surfacing to callers.
COLLAPSE_WARN_BAND = (1e-12, 1e-8)

SOLVE_RESIDUAL_RTOL = 1e-9


class SpanApprox:
    """B = sigma * (complement projector) + (H restricted to span P).

    Parameters
    ----------
    P : ndarray (n, m)
        Independent spanning columns; m = 0 gives B = sigma * I.
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
        if self.rank:
            m = self.rank
            U = np.hstack([P, HP])
            UtU = U.T @ U
            gram = UtU[:m, :m]
            cross = UtU[:m, m:]
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
            cross = 0.5 * (cross + cross.T)
            # LAPACK is called directly throughout: on these 2m x 2m systems
            # the scipy.linalg wrappers' input checks cost about ten times
            # the factorization or solve itself
            self._gram_chol, info_gram = lapack.dpotrf(gram, lower=1)
            self._cross_chol, info_cross = lapack.dpotrf(cross, lower=1)
            if info_gram or info_cross:
                raise DegenerateBasisError(
                    "spanning columns are dependent or have lost conjugacy"
                )
            # B = sigma I + U C U' with U = [P, HP] and
            # C = diag(-sigma (P'P)^-1, (P'HP)^-1), so by the Woodbury
            # identity only the capacitance C^-1 + U'U / sigma needs a
            # factor. It is symmetric but indefinite, hence LU.
            cap = UtU / sigma
            cap[:m, :m] -= gram / sigma
            cap[m:, m:] += cross
            self._cap_lu, self._cap_piv, info = lapack.dgetrf(cap)
            if info:
                raise DegenerateBasisError(
                    "capacitance matrix of the low-rank solve is singular"
                )
            self._U = U

    def matvec(self, v):
        """Bv without materializing B."""
        v = np.asarray(v, dtype=float)
        if self.rank == 0:
            return self.sigma * v
        proj = self.P @ lapack.dpotrs(self._gram_chol, self.P.T @ v, lower=1)[0]
        curv = self.HP @ lapack.dpotrs(self._cross_chol, self.HP.T @ v, lower=1)[0]
        return self.sigma * (v - proj) + curv

    def solve(self, rhs):
        """Solve B p = rhs by the Woodbury identity, in O(n m), refined once.

        B^-1 rhs = (rhs - U S^-1 U' rhs / sigma) / sigma, with S the 2m x 2m
        capacitance factored at construction; no n x n matrix is formed.
        """
        rhs = np.asarray(rhs, dtype=float)
        p = self._woodbury(rhs)
        # one step of iterative refinement. The Woodbury form subtracts two
        # terms of size ||rhs|| / sigma and alone leaves residuals near
        # 1e-14 ||rhs|| on n = 512, cond 100 spans, where a dense Cholesky
        # solve reaches 7e-16; the refined residual is about 1e-16
        p += self._woodbury(rhs - self.matvec(p))
        res = norm(self.matvec(p) - rhs)
        if res > SOLVE_RESIDUAL_RTOL * max(norm(rhs), 1e-300):
            raise DegenerateBasisError(f"direction solve residual {res:.3e} exceeds "
                                       f"{SOLVE_RESIDUAL_RTOL:.0e} * ||rhs||")
        return p

    def _woodbury(self, rhs):
        if self.rank == 0:
            return rhs / self.sigma
        corr = self._U @ lapack.dgetrs(self._cap_lu, self._cap_piv, self._U.T @ rhs)[0]
        return (rhs - corr / self.sigma) / self.sigma

    def with_sigma(self, sigma):
        """Same span data under a different complement scaling."""
        return SpanApprox(self.P, self.HP, sigma)


def build_full_memory(history, sigma):
    """Approximation spanned by a whole conjugate direction history.

    An empty history gives sigma * I. Columns must be independent (they are
    whenever the directions are genuinely conjugate).
    """
    if len(history) == 0:
        return SpanApprox(np.zeros((0, 0)), np.zeros((0, 0)), sigma)
    P, HP = history.matrices()
    return SpanApprox(P, HP, sigma)


def span_collapses(newton_step, align_gap):
    """Whether the two-vector span drops to the single column q: the Newton
    step is zero, or ``align_gap = 1 - cosine_alignment(newton_step, q)`` is
    within COLLAPSE_TOL. The operator is unchanged by the drop."""
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
    of q at the same point, hence positive in any consistent state.
    """
    q = np.asarray(q, dtype=float)
    g = np.asarray(g, dtype=float)
    slope = float(q @ g)
    if abs(slope) <= 1e-300 or abs(slope) <= 1e-15 * norm(q) * norm(g):
        raise DegenerateBasisError(
            "q'g vanishes: the point is already optimal over the extended span"
        )
    return -float(q @ np.asarray(h_q, dtype=float)) / slope


def delta_factor(g_hat, q_prev, b_action, h_action):
    """Correction ratio comparing true curvature with approximated curvature
    along the subspace gradient:

        delta = [ (g'Hg)(q'Hq) - (g'Hq)^2 ] / [ (g'Bg)(q'Hq) - (g'Hq)^2 ]

    Diagnostic only: scaling the next conjugate direction by delta repairs a
    step computed with a stale approximation B in place of H.
    """
    g_hat = np.asarray(g_hat, dtype=float)
    q_prev = np.asarray(q_prev, dtype=float)
    h_g = np.asarray(h_action(g_hat), dtype=float)
    h_q = np.asarray(h_action(q_prev), dtype=float)
    b_g = np.asarray(b_action(g_hat), dtype=float)
    q_h_q = float(q_prev @ h_q)
    g_h_q = float(g_hat @ h_q)
    num = float(g_hat @ h_g) * q_h_q - g_h_q**2
    den = float(g_hat @ b_g) * q_h_q - g_h_q**2
    if num <= 0.0 or den <= 0.0:
        raise DegenerateBasisError(
            f"delta factor undefined: numerator {num:.3e}, denominator {den:.3e}"
        )
    return num / den
