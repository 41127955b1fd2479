"""Independent reference computations the tests compare against.

Everything here is deliberately written from scratch on top of numpy, scipy
and fractions: no imports from the package under test. The per-record
references for the trace checks take the tolerances they compare against
from the caller. The rational oracle
replays the whole iteration on a 2x2 instance in exact arithmetic, so the
expected trace values carry no rounding at all.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar


# ---------------------------------------------------------------------------
# exact rational arithmetic for the 2x2 hand instance


def _solve2(A, b):
    """Cramer solve of a 2x2 rational system."""
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if det == 0:
        raise ZeroDivisionError("singular rational system")
    return (
        (b[0] * A[1][1] - A[0][1] * b[1]) / det,
        (A[0][0] * b[1] - b[0] * A[1][0]) / det,
    )


def _matvec2(A, v):
    return (A[0][0] * v[0] + A[0][1] * v[1], A[1][0] * v[0] + A[1][1] * v[1])


def _dot2(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _axpy2(a, x, y):
    return (a * x[0] + y[0], a * x[1] + y[1])


def _span_approx2(H, q, sigma):
    """Rational B = sigma (I - qq'/q'q) + (Hq)(Hq)'/(q'Hq) for one column."""
    hq = _matvec2(H, q)
    qq = _dot2(q, q)
    qhq = _dot2(q, hq)
    B = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for i in range(2):
        for j in range(2):
            eye = Fraction(1) if i == j else Fraction(0)
            B[i][j] = sigma * (eye - q[i] * q[j] / qq) + hq[i] * hq[j] / qhq
    return B


def rational_unit_trace(sigma=Fraction(1)):
    """Exact trace of the unit-step iteration on H=diag(1,2), c=(-1,-1).

    Replays the recursion in Fractions: direction solve, unit step, new
    conjugate direction q = p - newton_prev, coefficient g'q/q'Hq + alpha,
    Newton step update, and the rank-one span approximation (the two memory
    vectors are parallel on this trajectory, so one column always suffices).
    Returns the iterates, directions, and Newton steps as Fraction tuples.
    """
    H = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
    c = (Fraction(-1), Fraction(-1))
    x = (Fraction(0), Fraction(0))
    xs = [x]
    ps, qs, newtons = [], [], []
    g = _axpy2(Fraction(1), _matvec2(H, x), c)
    newton = (Fraction(0), Fraction(0))
    B = [[sigma, Fraction(0)], [Fraction(0), sigma]]
    for _ in range(3):
        p = _solve2(B, (-g[0], -g[1]))
        x = _axpy2(Fraction(1), p, x)  # alpha = 1
        ps.append(p)
        xs.append(x)
        g_next = _axpy2(Fraction(1), _matvec2(H, x), c)
        q = (p[0] - newton[0], p[1] - newton[1])
        if q == (Fraction(0), Fraction(0)):
            qs.append(q)
            newton = (newton[0] - p[0], newton[1] - p[1])  # move actually taken
            newtons.append(newton)
            break
        hq = _matvec2(H, q)
        coef = _dot2(g, q) / _dot2(q, hq) + Fraction(1)
        newton = (-coef * q[0], -coef * q[1])  # (1 - alpha) term vanishes
        qs.append(q)
        newtons.append(newton)
        if g_next == (Fraction(0), Fraction(0)):
            break
        B = _span_approx2(H, q, sigma)
        g = g_next
    return {"x": xs, "p": ps, "q": qs, "newton": newtons}


def rational_newton_sigma():
    """The complement scaling that lands the second unit step on the solution.

    Derived directly from the defining property: with memory column q0, the
    sigma for which B(sigma) d = -g1 holds for d = x* - x1. Both components
    of the resulting rational equation give the same sigma; returned exact.
    """
    H = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
    c = (Fraction(-1), Fraction(-1))
    xstar = (Fraction(1), Fraction(1, 2))  # solves Hx = -c
    x1 = (Fraction(1), Fraction(1))  # after p0 = -g0 = (1, 1)
    q0 = (Fraction(1), Fraction(1))
    g1 = _axpy2(Fraction(1), _matvec2(H, x1), c)
    d = (xstar[0] - x1[0], xstar[1] - x1[1])
    hq = _matvec2(H, q0)
    qq = _dot2(q0, q0)
    qhq = _dot2(q0, hq)
    # B d = sigma (d - q (q'd)/q'q) + hq (hq'd)/q'Hq  ==  -g1
    proj = _dot2(q0, d) / qq
    curv = _dot2(hq, d) / qhq
    sigmas = set()
    for i in range(2):
        complement = d[i] - q0[i] * proj
        rhs = -g1[i] - hq[i] * curv
        if complement != 0:
            sigmas.add(rhs / complement)
    if len(sigmas) != 1:
        raise AssertionError(f"inconsistent sigma components: {sigmas}")
    return sigmas.pop()


# ---------------------------------------------------------------------------
# brute-force Krylov references


def krylov_matrix(H, g0, k):
    """Columns g0, Hg0, ..., H^(k-1) g0, each normalized to unit length."""
    cols = []
    v = np.asarray(g0, dtype=float)
    for _ in range(k):
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        cols.append(v / nv)
        v = H @ (v / nv)
    return np.column_stack(cols) if cols else np.zeros((len(g0), 0))


def grade_by_rank(H, g0):
    """Grade as the numerical rank of the full Krylov matrix."""
    K = krylov_matrix(np.asarray(H, float), g0, len(g0))
    return int(np.linalg.matrix_rank(K))


def dense_solution(H, c):
    """The minimizer, solving Hx + c = 0 by LU with one refinement step."""
    H = np.asarray(H, float)
    c = np.asarray(c, float)
    x = np.linalg.solve(H, -c)
    x += np.linalg.solve(H, -(H @ x + c))
    return x


def brute_krylov_minimizer(H, c, x0, k):
    """Minimize the quadratic over x0 + (span of the first k Krylov columns).

    The raw power basis gets ill-conditioned quickly, so orthonormalize it
    first; the projected system then inherits the conditioning of H itself.
    """
    H = np.asarray(H, float)
    x0 = np.asarray(x0, float)
    g0 = H @ x0 + np.asarray(c, float)
    if k == 0:
        return x0.copy()
    Q = np.linalg.qr(krylov_matrix(H, g0, k))[0]
    y = np.linalg.solve(Q.T @ H @ Q, -(Q.T @ g0))
    return x0 + Q @ y


def line_search_oracle(H, c, x, p):
    """Step minimizing the quadratic along p, by scalar minimization."""
    H = np.asarray(H, float)
    c = np.asarray(c, float)
    x = np.asarray(x, float)
    p = np.asarray(p, float)

    def phi(a):
        z = x + a * p
        return 0.5 * z @ H @ z + c @ z

    res = minimize_scalar(phi)
    return float(res.x)


def span_approx_dense(P, HP, sigma):
    """The approximation assembled literally from its defining formula."""
    P = np.atleast_2d(np.asarray(P, float))
    HP = np.atleast_2d(np.asarray(HP, float))
    n = P.shape[0]
    if P.shape[1] == 0:
        return sigma * np.eye(n)
    proj = P @ np.linalg.solve(P.T @ P, P.T)
    curv = HP @ np.linalg.solve(P.T @ HP, HP.T)
    return sigma * (np.eye(n) - proj) + curv


def bfgs_update_dense(B, p, h_p):
    """The BFGS update of B itself along p with h_p = Hp:

    B+ = B - (Bp)(Bp)'/(p'Bp) + (Hp)(Hp)'/(p'Hp).
    """
    Bp = B @ p
    return B - np.outer(Bp, Bp) / (p @ Bp) + np.outer(h_p, h_p) / (p @ h_p)


def memoryless_bfgs_dense(p, h_p):
    """The BFGS update of the identity along the latest pair only:

    B+ = I - pp'/(p'p) + (Hp)(Hp)'/(p'Hp).
    """
    return bfgs_update_dense(np.eye(len(p)), p, h_p)


def operator_matrix(matvec, n):
    """The n x n matrix of a linear operator, one unit vector at a time."""
    return np.column_stack([matvec(e) for e in np.eye(n)])


# ---------------------------------------------------------------------------
# the rank-one step extension (criterion 3)

# Relative floor for the 2x2 determinant in extend_step; below it the new
# gradient is (numerically) inside the current span.
EXTEND_DET_RTOL = 1e-14


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
    are degenerate), reported as ``np.linalg.LinAlgError``.
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
        raise np.linalg.LinAlgError(
            "new gradient adds no direction: converged or degenerate state"
        )
    beta = -gg * q_h_q / det
    gamma = gg * g_h_q / det
    direction = beta * g_hat + gamma * q_prev
    return StepExtension(newton_prev + direction, beta, gamma, direction)


# ---------------------------------------------------------------------------
# per-pair references for the vectorized trace checks


def pairwise_conjugacy_defect(directions, h_images):
    """max over i != j of |h_i'p_j| / (||h_i|| ||p_j||), one pair at a time.

    Pairs with a zero norm are skipped; 0.0 when no pair is left.
    """
    worst = 0.0
    for i, h_i in enumerate(h_images):
        for j, p_j in enumerate(directions):
            denom = np.linalg.norm(h_i) * np.linalg.norm(p_j)
            if i != j and denom != 0.0:
                worst = max(worst, abs(float(h_i @ p_j)) / denom)
    return worst


def subspace_minimizers(H, c, x0, Q):
    """Minimizers of the quadratic over x0 + span of the first k columns of Q.

    One dense solve per k = 0, ..., m for the m orthonormal columns of Q.
    """
    H = np.asarray(H, float)
    x0 = np.asarray(x0, float)
    g0 = H @ x0 + np.asarray(c, float)
    out = [x0.copy()]
    for k in range(1, Q.shape[1] + 1):
        Qk = Q[:, :k]
        out.append(x0 + Qk @ np.linalg.solve(Qk.T @ H @ Qk, -(Qk.T @ g0)))
    return out


def krylov_reference(H, c, x0, rtol):
    """Grade and subspace minimizers of the gradient-generated space, one
    eigenvalue at a time.

    Eigenvalues less than ``rtol * max(1, ||H||_1)`` apart form one cluster;
    a cluster counts when g0's component in it exceeds ``rtol * ||g0||``.
    The power basis is built in the touched span's diagonal coordinates with
    two modified Gram-Schmidt passes per column, one column at a time, and
    stops at a residual below the same tolerance. Returns
    ``(grade, [minimizer(0), ..., minimizer(grade)])``, each minimizer from a
    dense projected solve.
    """
    H = np.asarray(H, float)
    x0 = np.asarray(x0, float)
    g0 = H @ x0 + np.asarray(c, float)
    n = len(g0)
    tol = rtol * max(1.0, np.linalg.norm(H, 1))
    evals, evecs = np.linalg.eigh(H)
    mu, weights, axes = [], [], []
    i = 0
    while i < n:
        j = i + 1
        while j < n and evals[j] - evals[j - 1] <= tol:
            j += 1
        component = evecs[:, i:j] @ (evecs[:, i:j].T @ g0)
        weight = np.linalg.norm(component)
        if weight > rtol * np.linalg.norm(g0):
            mu.append(np.mean(evals[i:j]))
            weights.append(weight)
            axes.append(component / weight)
        i = j
    mu, weights = np.array(mu), np.array(weights)
    columns = []
    if len(mu):
        v = weights / np.linalg.norm(weights)
        for _ in range(len(mu)):
            columns.append(v)
            t = mu * v
            for _ in range(2):
                for u in columns:
                    t = t - (u @ t) * u
            res = np.linalg.norm(t)
            if res <= tol:
                break
            v = t / res
    out = [x0.copy()]
    for k in range(1, len(columns) + 1):
        Qk = np.column_stack(axes) @ np.column_stack(columns[:k])
        out.append(x0 + Qk @ np.linalg.solve(Qk.T @ H @ Qk, -(Qk.T @ g0)))
    return len(columns), out


# ---------------------------------------------------------------------------
# per-record references for the trace checks' array expressions
#
# These are the loops the checks ran before they stacked each record field
# into one array, one record and one vector helper call at a time. ``V`` is
# the verification module, which the tolerances and status names are read
# from; the vector helpers are written out here. They are compared with the
# checks on finite traces only: how a check treats a NaN is pinned by its
# own tests, not by these loops.


def line_angle(u, v):
    """Angle between the lines of u and v from the chord of their unit vectors."""
    uu = u / np.linalg.norm(u)
    vv = v / np.linalg.norm(v)
    if uu @ vv < 0.0:
        vv = -vv
    return 2.0 * np.arcsin(min(1.0, 0.5 * np.linalg.norm(uu - vv)))


def alignment(u, v):
    """|cos(u, v)|, 0.0 if either is zero."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return min(1.0, abs(float(u @ v)) / (nu * nv))


def onset_findings(trace, oracle, V):
    """{name: (passed, value)} of the three newton-onset findings decided per
    record: the misses from the grade on, the first unit step past it, and
    the angles of the new directions before it. A record's iteration is its
    position, and the iteration count is the number of records."""
    r = oracle.grade
    x_star = oracle.solution
    x_scale = 1.0 + np.linalg.norm(x_star)
    count = len(trace.records)
    out = {}
    onset = trace.records[r:]
    if onset:
        worst = max(np.linalg.norm(rec.x + rec.p - x_star) for rec in onset) / x_scale
        out["full Newton step from the grade onward"] = (worst <= V.NEWTON_ONSET_RTOL, worst)
    else:
        out["full Newton step from the grade onward"] = (True, None)

    unit_ks = [k for k, rec in enumerate(trace.records)
               if k >= r and abs(rec.alpha - 1.0) <= V.UNIT_STEP_ATOL]
    if unit_ks:
        passed = trace.status == V.CONVERGED and count == min(unit_ks) + 1
    else:
        passed = trace.status != V.CONVERGED or count <= r
    out["unit step past the grade terminates on the spot"] = (passed, None)

    angle_tol = (V.ANGLE_TOL_ILL if oracle.condition_number > V.ILL_CONDITIONED
                 else V.ANGLE_TOL)
    worst_angle = 0.0
    for k, rec in enumerate(trace.records):
        if k >= r or rec.q is None or rec.exhausted:
            continue
        floor = V.DIRECTION_FLOOR * (1.0 + np.linalg.norm(rec.x) + np.linalg.norm(rec.p))
        if np.linalg.norm(rec.q) < floor:
            continue
        worst_angle = max(worst_angle,
                          line_angle(rec.q, oracle.conjugate_directions[:, k]))
    out["new directions parallel to reference conjugate directions"] = (
        worst_angle <= angle_tol, worst_angle)
    return out


def unit_step_findings(trace, oracle, V):
    """{name: (passed, value)} of the two unit-step-count findings decided per
    record: unit lengths, and the memory-collapse rule on each pN and q."""
    out = {"every step has unit length": (
        all(abs(rec.alpha - 1.0) <= V.UNIT_STEP_ATOL for rec in trace.records), None)}
    wide, gaps = False, []
    for rec in (rec for rec in trace.records if rec.sigma is not None):
        pN, q = rec.newton_step, rec.q
        gap = None if pN is None or q is None else 1.0 - alignment(pN, q)
        if gap is None or not (rec.exhausted or np.linalg.norm(pN) == 0.0
                               or gap <= V.COLLAPSE_TOL):
            wide = True
        if gap is not None and np.linalg.norm(pN) and np.linalg.norm(q):
            gaps.append(gap)
    out["memory stays a single direction"] = (not wide, max(gaps, default=None))
    return out


def baseline_findings(trace, oracle, V):
    """{name: (passed, value)} of the conjugate-baseline finding decided per
    record: each iterate j in 1..r against subspace minimizer j."""
    x_scale = 1.0 + np.linalg.norm(oracle.solution)
    worst = 0.0
    for j, rec in enumerate(trace.records):
        if 1 <= j <= oracle.grade:
            worst = max(worst, np.linalg.norm(rec.x - oracle.minimizers[:, j]) / x_scale)
    if trace.final_x is not None and trace.status == V.CONVERGED:
        worst = max(worst, np.linalg.norm(trace.final_x - oracle.solution) / x_scale)
    return {"iterates are the subspace minimizers": (worst <= V.ITERATE_MATCH_RTOL, worst)}
