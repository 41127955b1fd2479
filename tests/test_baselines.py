"""Conjugate-direction baselines: inverse updates and r-step runs under exact
line search."""

import functools
import json

import numpy as np
import pytest
from numpy.linalg import norm

from qnsubspace import (
    BREAKDOWN,
    CONVERGED,
    DegenerateBasisError,
    KrylovOracle,
    NotPositiveDefiniteError,
    QuadraticProblem,
    StepPolicy,
    bfgs_inverse_update,
    cg_solve,
    generate_problem,
    memoryless_bfgs_inverse_action,
    qn_exact_ls_solve,
)
from qnsubspace import algorithm, baselines

import oracles


def two_by_two():
    return QuadraticProblem(np.diag([1.0, 2.0]), np.array([-1.0, -1.0]))


def test_cg_hand_values_on_the_two_by_two():
    # H = diag(1, 2), c = (-1, -1), start at the origin. First direction
    # (1, 1) with step 2/3, second direction (4/9, -2/9) with step 3/4,
    # landing on the solution (1, 1/2). All values checked by hand.
    trace = cg_solve(two_by_two(), np.zeros(2), tol=1e-12)
    assert trace.status == CONVERGED
    assert trace.iterations == 2
    assert trace.records[0].alpha == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert trace.records[1].alpha == pytest.approx(3.0 / 4.0, abs=1e-14)
    assert np.allclose(trace.records[1].x, [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)
    d1 = trace.records[1].p
    assert np.allclose(d1 / d1[0], [1.0, -0.5], atol=1e-13)  # parallel to (4/9, -2/9)
    assert np.allclose(trace.final_x, [1.0, 0.5], atol=1e-13)


@pytest.mark.parametrize("seed,n,r", [(30, 8, 5), (31, 10, 10), (32, 12, 3), (33, 6, 1)])
def test_cg_terminates_in_grade_iterations(seed, n, r):
    prob, x0 = generate_problem(n, r, cond=50.0, seed=seed)
    g0 = norm(prob.gradient(x0))
    # tol loose enough that the exactly-r landing (relative residual around
    # 1e-10 at full grade) is accepted without an extra cleanup iteration
    trace = cg_solve(prob, x0, tol=1e-8)
    assert trace.status == CONVERGED
    assert trace.iterations == r
    assert trace.final_grad_norm <= 1e-8 * (1.0 + g0)
    x_star = oracles.dense_solution(prob.H, prob.c)
    assert norm(trace.final_x - x_star) <= 1e-8 * (1.0 + norm(x_star))


def baseline(method):
    """The solve function of one baseline, called as f(prob, x0, **kwargs)."""
    if method == "cg":
        return cg_solve
    return functools.partial(qn_exact_ls_solve, variant=method)


@pytest.mark.parametrize("method", ["cg", "bfgs", "memoryless"])
def test_cg_iteration_cap_reports_breakdown(method):
    prob, x0 = generate_problem(8, 5, cond=20.0, seed=34)
    trace = baseline(method)(prob, x0, tol=1e-10, max_iter=2)
    assert trace.status == BREAKDOWN
    assert trace.reason == "no convergence within 2 iterations"
    assert trace.iterations == 2


def test_an_ascent_direction_ends_the_run_as_a_breakdown():
    # an approximation that stays positive definite never gives g'p >= 0, so
    # the loop is handed a rule with an ascent direction from the second
    # iteration on
    prob, x0 = generate_problem(8, 5, cond=20.0, seed=34)
    ascent = baselines._Baseline("ascent", lambda g, p, h_p: g)
    trace = algorithm._iterate(prob, x0, ascent, StepPolicy.exact_line_search(),
                               algorithm.ORACLE, 1e-10, None)
    assert (trace.status, trace.iterations) == (BREAKDOWN, 1)
    assert trace.reason == "approximation lost positive definiteness"
    # the run keeps its record and ends where that step landed
    first, = trace.records
    assert np.array_equal(first.p, -prob.gradient(x0))
    assert np.array_equal(trace.final_x, first.x + first.alpha * first.p)
    assert trace.final_grad_norm == norm(prob.gradient(trace.final_x))
    assert trace.meta == {"method": "ascent", "tol": 1e-10}


class GradientOverflowsAfterOneStep(QuadraticProblem):
    """A quadratic whose gradient has an infinite entry from its second call on.

    The baselines carry the gradient as g + alpha Hp, so that call comes where
    the carried gradient would end the run, after the last step.
    """

    calls = 0

    def gradient(self, x):
        self.calls += 1
        g = super().gradient(x)
        if self.calls >= 2:
            g[0] = np.inf
        return g


@pytest.mark.parametrize("method", ["cg", "bfgs", "memoryless"])
def test_a_non_finite_gradient_ends_the_run_as_a_breakdown(method):
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=98)
    far = x0.copy()
    far[2] = 1e308  # g0 overflows, so the tolerance tol * (1 + |g0|) is inf too
    with np.errstate(over="ignore"):
        trace = baseline(method)(prob, far)
    assert (trace.status, trace.iterations) == (BREAKDOWN, 0)
    assert trace.reason == "gradient is not finite at iterate 0"
    assert trace.final_grad_norm == np.inf

    trace = baseline(method)(GradientOverflowsAfterOneStep(prob.H, prob.c), x0)
    assert (trace.status, trace.iterations) == (BREAKDOWN, 3)
    assert trace.reason == "gradient is not finite at iterate 3"


def test_memoryless_converges_where_its_products_would_overflow():
    # at x0[2] = 1e150 the unscaled (p'v) Hp of the inverse action is about
    # 1e450; scaled by rho = 1/p'Hp first, memoryless takes cg's 6 steps
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=98)
    far = x0.copy()
    far[2] = 1e150
    for method in ("cg", "bfgs", "memoryless"):
        trace = baseline(method)(prob, far)
        assert (trace.status, trace.iterations) == (CONVERGED, 6), method


def test_bfgs_update_secant_property_is_hereditary():
    prob, x0 = generate_problem(7, 7, cond=30.0, seed=35)
    oracle = KrylovOracle(prob, x0)
    M = np.eye(7)
    dirs = [oracle.conjugate_directions[:, k].copy() for k in range(4)]
    for p in dirs:
        M = bfgs_inverse_update(M, p, prob.hessian_action(p))
    assert np.allclose(M, M.T)
    assert np.linalg.eigvalsh(M).min() > 0.0
    # conjugacy of the update directions preserves every earlier secant pair
    for p in dirs:
        h_p = prob.hessian_action(p)
        assert np.allclose(M @ h_p, p, atol=1e-9 * (1.0 + norm(p)))


def test_bfgs_update_rejects_nonpositive_curvature():
    with pytest.raises(NotPositiveDefiniteError):
        bfgs_inverse_update(np.eye(3), np.ones(3), -np.ones(3))
    with pytest.raises(NotPositiveDefiniteError):
        bfgs_inverse_update(np.eye(3), np.zeros(3), np.zeros(3))


def test_memoryless_update_secant_and_guards():
    rng = np.random.default_rng(36)
    prob, _ = generate_problem(5, 5, cond=9.0, seed=36)
    p = rng.standard_normal(5)
    h_p = prob.hessian_action(p)
    M = oracles.operator_matrix(lambda v: memoryless_bfgs_inverse_action(p, h_p, v), 5)
    assert np.allclose(M, M.T)
    assert np.linalg.eigvalsh(M).min() > 0.0
    assert np.allclose(memoryless_bfgs_inverse_action(p, h_p, h_p), p,
                       atol=1e-12 * norm(p))
    with pytest.raises(DegenerateBasisError):
        memoryless_bfgs_inverse_action(np.zeros(5), np.zeros(5), p)
    with pytest.raises(NotPositiveDefiniteError):
        memoryless_bfgs_inverse_action(p, -h_p, p)


def test_inverse_updates_invert_the_dense_references():
    prob, x0 = generate_problem(10, 10, cond=50.0, seed=37)
    trace = qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-8)
    assert trace.iterations == 10
    B = M = np.eye(10)
    for rec in trace.records:
        B = oracles.bfgs_update_dense(B, rec.p, rec.h_p)
        M = bfgs_inverse_update(M, rec.p, rec.h_p)
        assert np.abs(M @ B - np.eye(10)).max() <= 1e-10

    trace = qn_exact_ls_solve(prob, x0, variant="memoryless", tol=1e-8)
    assert trace.iterations == 10
    for prev, rec in zip(trace.records, trace.records[1:]):
        B = oracles.memoryless_bfgs_dense(prev.p, prev.h_p)
        ref = -np.linalg.solve(B, rec.g)
        assert norm(rec.p - ref) <= 1e-10 * norm(ref)


@pytest.mark.parametrize("variant", ["bfgs", "memoryless"])
@pytest.mark.parametrize("seed,n,r", [(40, 8, 5), (41, 9, 9), (42, 7, 2)])
def test_quasi_newton_terminates_in_grade_iterations(variant, seed, n, r):
    prob, x0 = generate_problem(n, r, cond=50.0, seed=seed)
    trace = qn_exact_ls_solve(prob, x0, variant=variant, tol=1e-8)
    assert trace.status == CONVERGED
    assert trace.iterations == r
    x_star = oracles.dense_solution(prob.H, prob.c)
    assert norm(trace.final_x - x_star) <= 1e-8 * (1.0 + norm(x_star))
    assert trace.meta["method"] == variant


def test_unknown_variant_rejected():
    prob, x0 = generate_problem(4, 4, cond=5.0, seed=43)
    with pytest.raises(ValueError, match="variant"):
        qn_exact_ls_solve(prob, x0, variant="dfp")


def test_all_baselines_walk_the_same_directions():
    prob, x0 = generate_problem(9, 6, cond=80.0, seed=44)
    oracle = KrylovOracle(prob, x0)
    traces = [
        cg_solve(prob, x0, tol=1e-10),
        qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-10),
        qn_exact_ls_solve(prob, x0, variant="memoryless", tol=1e-10),
    ]
    for k in range(6):
        ref = oracle.conjugate_directions[:, k].copy()
        for trace in traces:
            p = trace.records[k].p
            cosine = abs(float(p @ ref)) / (norm(p) * norm(ref))
            assert np.arccos(min(cosine, 1.0)) <= 1e-6
            # each baseline's iterate sits on the constrained minimizer path
            assert norm(trace.records[k].x - oracle.minimizer(k)) \
                <= 1e-7 * (1.0 + norm(oracle.minimizer(k)))


def test_trace_is_deterministic_and_serializable():
    prob, x0 = generate_problem(8, 4, cond=15.0, seed=45)
    a = cg_solve(prob, x0, tol=1e-10).to_dict()
    b = cg_solve(prob, x0, tol=1e-10).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["iterations"]["sigma"] is None
    assert a["iterations"]["k"] == [0, 1, 2, 3]
