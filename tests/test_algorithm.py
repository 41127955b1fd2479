"""Arbitrary-step subspace iteration: exact hand values, recursions, policies."""

import functools
import json

import numpy as np
import pytest
from numpy.linalg import norm

from qnsubspace import (
    BREAKDOWN,
    CONVERGED,
    KrylovOracle,
    MATRIX_FREE,
    MAX_ITER,
    ORACLE,
    NotPositiveDefiniteError,
    PolicyError,
    QuadraticProblem,
    SigmaPolicy,
    StepPolicy,
    cg_solve,
    check_newton_onset,
    generate_problem,
    qn_exact_ls_solve,
    subspace_qn_solve,
    traces_match,
)
from qnsubspace import algorithm, approximation

import oracles


def two_by_two():
    return QuadraticProblem(np.diag([1.0, 2.0]), np.array([-1.0, -1.0]))


def vecs(pairs):
    return [np.array([float(a), float(b)]) for a, b in pairs]


def test_unit_steps_follow_the_exact_rational_trajectory():
    ref = oracles.rational_unit_trace()
    trace = subspace_qn_solve(two_by_two(), np.zeros(2), tol=1e-12)
    assert trace.status == CONVERGED
    assert trace.iterations == 3  # grade 2 plus one
    xs, ps, qs, newtons = (vecs(ref[key]) for key in ("x", "p", "q", "newton"))
    for k, rec in enumerate(trace.records):
        assert rec.alpha == 1.0
        assert np.allclose(rec.x, xs[k], atol=1e-12)
        assert np.allclose(rec.p, ps[k], atol=1e-12)
        assert np.allclose(rec.q, qs[k], atol=1e-12)
        assert np.allclose(rec.newton_step, newtons[k], atol=1e-12)
    assert np.allclose(trace.final_x, xs[3], atol=1e-12)
    assert [rec.exhausted for rec in trace.records] == [False, False, True]
    # both memory vectors stay parallel on this trajectory
    assert [oracles.alignment(rec.newton_step, rec.q) for rec in trace.records[:2]] \
        == [1.0, 1.0]


def test_termination_scaling_lands_one_step_early():
    sigma = float(oracles.rational_newton_sigma())
    assert sigma == pytest.approx(4.0 / 3.0, abs=1e-15)
    trace = subspace_qn_solve(
        two_by_two(), np.zeros(2), sigmas=SigmaPolicy.newton_at(0), tol=1e-12,
    )
    assert trace.status == CONVERGED
    assert trace.iterations == 2  # exactly the grade
    assert trace.records[0].sigma == pytest.approx(sigma, abs=1e-12)
    assert np.allclose(trace.final_x, [1.0, 0.5], atol=1e-12)


def test_rescaled_termination_sigma_loses_the_early_finish():
    for scale in (0.9, 1.1):
        trace = subspace_qn_solve(
            two_by_two(), np.zeros(2),
            sigmas=SigmaPolicy.newton_at(0, scale=scale), tol=1e-12,
        )
        assert trace.status == CONVERGED
        assert trace.iterations == 3


def test_initial_identity_scaling():
    trace = subspace_qn_solve(two_by_two(), np.zeros(2),
                              initial_sigma=2.0, tol=1e-12)
    assert trace.meta["initial_sigma"] == 2.0
    assert np.allclose(trace.records[0].p, [0.5, 0.5], atol=1e-15)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(PolicyError, match="initial"):
            subspace_qn_solve(two_by_two(), np.zeros(2), initial_sigma=bad)


def test_start_scaling_from_the_termination_rule():
    # with no memory the upcoming direction is -g itself, so the computed
    # start scale is the Rayleigh quotient g'Hg / g'g = 3/2 here, and the
    # first unit step lands on the first constrained minimizer
    trace = subspace_qn_solve(
        two_by_two(), np.zeros(2), sigmas=SigmaPolicy.newton_at(-1), tol=1e-12,
    )
    assert trace.meta["initial_sigma"] == pytest.approx(1.5, abs=1e-14)
    assert np.allclose(trace.records[0].x + trace.records[0].p,
                       [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)


def test_grade_one_problem_needs_one_step_when_tuned():
    prob, x0 = generate_problem(5, 1, cond=10.0, seed=60)
    tuned = subspace_qn_solve(prob, x0, sigmas=SigmaPolicy.newton_at(-1),
                              tol=1e-10)
    assert tuned.status == CONVERGED
    assert tuned.iterations == 1
    generic = subspace_qn_solve(prob, x0, tol=1e-10)
    assert generic.status == CONVERGED
    assert generic.iterations == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_steps_reach_full_newton_at_the_grade(seed):
    prob, x0 = generate_problem(9, 5, cond=20.0, seed=70 + seed)
    x_star = oracles.dense_solution(prob.H, prob.c)
    trace = subspace_qn_solve(
        prob, x0, steps=StepPolicy.uniform(), sigmas=SigmaPolicy.uniform(),
        tol=1e-8, max_iter=9, seed=seed,
    )
    for rec in trace.records:
        if rec.k >= 5:
            assert rec.exhausted
            miss = norm(rec.x + rec.p - x_star)
            assert miss <= 1e-7 * (1.0 + norm(x_star))
        else:
            assert not rec.exhausted


def test_no_unit_step_means_no_termination():
    prob, x0 = generate_problem(8, 4, cond=10.0, seed=80)
    trace = subspace_qn_solve(
        prob, x0, steps=StepPolicy.uniform(), sigmas=SigmaPolicy.uniform(),
        tol=1e-9, max_iter=8, seed=3,
    )
    assert trace.status == MAX_ITER
    assert trace.iterations == 8


def test_unit_step_past_the_grade_terminates_on_the_spot():
    prob, x0 = generate_problem(8, 4, cond=15.0, seed=81)
    for k0 in (4, 5, 6):
        trace = subspace_qn_solve(
            prob, x0, steps=StepPolicy.unit_after(k0),
            sigmas=SigmaPolicy.uniform(), tol=1e-8, max_iter=k0 + 3, seed=11,
        )
        assert trace.status == CONVERGED
        assert trace.iterations == k0 + 1
        assert trace.records[-1].alpha == 1.0


def test_exact_search_recovers_classical_termination():
    prob, x0 = generate_problem(10, 6, cond=40.0, seed=82)
    trace = subspace_qn_solve(prob, x0, steps=StepPolicy.exact_line_search(),
                              tol=1e-9)
    assert trace.status == CONVERGED
    assert trace.iterations == 6
    # minimizing along each direction keeps the tracked correction at zero
    for rec in trace.records:
        scale = 1.0 + norm(rec.x) + norm(rec.p)
        assert norm(rec.newton_step) <= 1e-8 * scale


@pytest.mark.parametrize("seed", [0, 5])
def test_matrix_free_matches_oracle_field_by_field(seed):
    prob, x0 = generate_problem(8, 5, cond=25.0, seed=90 + seed)
    kw = dict(steps=StepPolicy.uniform(), sigmas=SigmaPolicy.uniform(),
              tol=1e-8, max_iter=9, seed=seed)
    a = subspace_qn_solve(prob, x0, mode=ORACLE, **kw)
    b = subspace_qn_solve(prob, x0, mode=MATRIX_FREE, **kw)
    same, mismatches = traces_match(a, b, rtol=1e-6)
    assert same, mismatches


def count_work(monkeypatch):
    """Call counters on the problem's gradient and Hessian-product oracles."""
    counts = {"gradient": 0, "hessian_action": 0}
    for name in counts:
        method = getattr(QuadraticProblem, name)

        def counted(self, v, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, v)

        monkeypatch.setattr(QuadraticProblem, name, counted)
    return counts


# oracle mode carries the gradient as g + alpha Hp and evaluates it at x0 and
# where it would end the run, here once; matrix-free mode evaluates one per step
@pytest.mark.parametrize("mode, steps, hess, grads", [
    (ORACLE, StepPolicy.unit(), lambda k: k, lambda k: 2),
    (MATRIX_FREE, StepPolicy.unit(), lambda k: 0, lambda k: k + 1),
    (ORACLE, StepPolicy.exact_line_search(), lambda k: k, lambda k: 2),
    # the exact step's probe costs one gradient per iteration without H
    (MATRIX_FREE, StepPolicy.exact_line_search(), lambda k: 0, lambda k: 2 * k + 1),
])
def test_one_hessian_image_per_iteration(monkeypatch, mode, steps, hess, grads):
    prob, x0 = generate_problem(12, 6, cond=20.0, seed=97)
    counts = count_work(monkeypatch)
    trace = subspace_qn_solve(prob, x0, steps=steps, mode=mode, tol=1e-9)
    k = trace.iterations
    assert trace.status == CONVERGED
    assert k >= 6
    assert counts == {"gradient": grads(k), "hessian_action": hess(k)}


@pytest.mark.parametrize("solve, max_iter, status, iterations", [
    (cg_solve, None, CONVERGED, 6),
    (qn_exact_ls_solve, None, CONVERGED, 6),
    (functools.partial(qn_exact_ls_solve, variant="memoryless"), None, CONVERGED, 6),
    (cg_solve, 3, BREAKDOWN, 3),
    (qn_exact_ls_solve, 3, BREAKDOWN, 3),
    (functools.partial(qn_exact_ls_solve, variant="memoryless"), 3, BREAKDOWN, 3),
    (subspace_qn_solve, 3, MAX_ITER, 3),
], ids=["cg", "bfgs", "memoryless", "cg-cap", "bfgs-cap", "memoryless-cap",
        "oracle-max-iter"])
def test_a_carried_gradient_is_evaluated_once_where_the_run_ends(
        monkeypatch, solve, max_iter, status, iterations):
    # the baselines carry the gradient as oracle mode does: one H-product per
    # iteration, and gradients only at x0 and where the run ends
    prob, x0 = generate_problem(12, 6, cond=20.0, seed=97)
    counts = count_work(monkeypatch)
    trace = solve(prob, x0, tol=1e-9, max_iter=max_iter)
    assert (trace.status, trace.iterations) == (status, iterations)
    assert counts == {"gradient": 2, "hessian_action": iterations}


class _DriftingCurvature(QuadraticProblem):
    """H's action off by one part in a million, so a gradient carried as
    g + alpha Hp drifts from the one evaluated at the same point."""

    def hessian_action(self, v):
        return (1.0 + 1e-6) * super().hessian_action(v)


@pytest.mark.parametrize("solve", [
    cg_solve,
    qn_exact_ls_solve,
    functools.partial(qn_exact_ls_solve, variant="memoryless"),
    subspace_qn_solve,
    functools.partial(subspace_qn_solve, steps=StepPolicy.exact_line_search()),
    functools.partial(subspace_qn_solve, steps=StepPolicy.uniform(),
                      sigmas=SigmaPolicy.uniform()),
    functools.partial(subspace_qn_solve, sigmas=SigmaPolicy.newton_at(2)),
    functools.partial(subspace_qn_solve, mode=MATRIX_FREE),
], ids=["cg", "bfgs", "memoryless", "unit", "exact", "uniform", "newton-at",
        "matrix-free"])
def test_a_run_reports_only_gradients_it_evaluated(solve):
    # the drift leaves unit steps short of tol, so most of these runs end
    # without converging; whatever the status, a run reports the gradient at
    # its final point, and converges only where that one passes
    tol = 1e-9
    for seed in range(6):
        prob, x0 = generate_problem(12, 6, cond=100.0, seed=110 + seed)
        prob = _DriftingCurvature(prob.H, prob.c)
        for max_iter in (None, 3):
            trace = solve(prob, x0, tol=tol, max_iter=max_iter)
            assert trace.final_grad_norm == norm(prob.gradient(trace.final_x))
            if trace.status == CONVERGED:
                residual = norm(prob.H @ trace.final_x + prob.c)
                assert residual <= tol * (1.0 + norm(prob.H @ x0 + prob.c))


class _OneWrongImage(QuadraticProblem):
    """H's action, except that call ``j`` (counted from 1) returns
    ``edit(v, Hv)``: a curvature oracle that errs once."""

    def __init__(self, prob, j, edit):
        super().__init__(prob.H, prob.c)
        self.j, self.edit, self.calls = j, edit, 0

    def hessian_action(self, v):
        self.calls += 1
        h_v = super().hessian_action(v)
        return self.edit(v, h_v) if self.calls == self.j else h_v


def _off_line(v, h_v):
    """Hv plus a unit vector orthogonal to v: p'Hp, hence the exact step,
    is unchanged, but the gradient carried as g + alpha Hp is not."""
    e = np.random.default_rng(0).standard_normal(v.size)
    e -= (e @ v) / (v @ v) * v
    return h_v + e / norm(e)


@pytest.mark.parametrize("solve, j, edit", [
    # unit steps: the last step's image is zero, so the carried gradient
    # stays at the previous one, and the budget ends the run
    (subspace_qn_solve, 5, lambda v, h_v: 0.0 * h_v),
    (cg_solve, 4, _off_line),
    (qn_exact_ls_solve, 4, _off_line),
    (functools.partial(qn_exact_ls_solve, variant="memoryless"), 4, _off_line),
], ids=["unit", "cg", "bfgs", "memoryless"])
def test_a_run_whose_carried_gradient_fails_converges_if_the_evaluated_one_passes(
        solve, j, edit):
    prob, x0 = generate_problem(8, 4, cond=10.0, seed=0)
    tol = 1e-9
    threshold = tol * (1.0 + norm(prob.gradient(x0)))
    trace = solve(_OneWrongImage(prob, j, edit), x0, tol=tol, max_iter=j)
    last = trace.records[-1]
    assert norm(last.g + last.alpha * last.h_p) > threshold
    assert (trace.status, trace.iterations, trace.reason) == (CONVERGED, j, "")
    assert trace.final_grad_norm == norm(prob.gradient(trace.final_x)) <= threshold


@pytest.mark.parametrize("j, edit, tol, status, iterations", [
    # the first image negated: q'Hq < 0 after the first step
    (1, lambda v, h_v: -h_v, 1e-9, BREAKDOWN, 1),
    # the fourth image off by 1e-6 along its vector: the step at the grade
    # leaves a q of 2.7e-7 with q'Hq = -2.6e-14, and |g| 7.7e-7
    (4, lambda v, h_v: h_v - 1e-6 * v / norm(v), 1e-9, BREAKDOWN, 5),
    (4, lambda v, h_v: h_v - 1e-6 * v / norm(v), 1e-6, CONVERGED, 5),
], ids=["negated-breakdown", "perturbed-breakdown", "perturbed-converged"])
def test_degenerate_curvature_after_a_step_ends_the_run(j, edit, tol, status,
                                                         iterations):
    prob, x0 = generate_problem(8, 4, cond=10.0, seed=0)
    trace = subspace_qn_solve(_OneWrongImage(prob, j, edit), x0, tol=tol)
    assert (trace.status, trace.iterations) == (status, iterations)
    last = trace.records[-1]
    assert last.newton_step is None and last.sigma is None
    if status == BREAKDOWN:
        assert trace.reason.startswith("degenerate curvature q'Hq = ")
        assert trace.reason.endswith(" with gradient above tolerance")
        assert last.q is None
    else:
        # the converging record keeps the direction whose curvature failed
        assert last.q is not None and float(last.q @ last.h_q) < 0.0
    assert trace.final_grad_norm == norm(prob.gradient(trace.final_x))


@pytest.mark.parametrize("mode, at, iterations, grads, hess", [
    (ORACLE, 4, 6, 2, 7),
    (ORACLE, -1, 7, 2, 8),
    (MATRIX_FREE, 4, 6, 8, 0),
    (MATRIX_FREE, -1, 7, 9, 0),
])
def test_a_newton_at_sigma_costs_one_image(monkeypatch, mode, at, iterations, grads, hess):
    # the termination-forcing value probes one image along the gradient at
    # the restricted minimizer: one H-product, or matrix-free one gradient
    prob, x0 = generate_problem(12, 6, cond=20.0, seed=97)
    counts = count_work(monkeypatch)
    trace = subspace_qn_solve(prob, x0, sigmas=SigmaPolicy.newton_at(at), mode=mode,
                              tol=1e-9)
    assert (trace.status, trace.iterations) == (CONVERGED, iterations)
    assert counts == {"gradient": grads, "hessian_action": hess}


def test_the_solver_computes_no_alignment(monkeypatch):
    # no step reads whether pN and q are parallel: verification derives it
    calls = []
    collapses = approximation.span_collapses

    def counted(newton_step, align_gap):
        calls.append(1)
        return collapses(newton_step, align_gap)

    monkeypatch.setattr(approximation, "span_collapses", counted)
    prob, x0 = generate_problem(12, 6, cond=20.0, seed=97)
    for steps in (StepPolicy.unit(), StepPolicy.uniform()):
        trace = subspace_qn_solve(prob, x0, steps=steps, tol=1e-9, max_iter=10, seed=3)
        assert any(rec.sigma is not None and not rec.exhausted
                   for rec in trace.records)
    assert calls == []


def test_no_operator_is_built_or_solved_once_the_span_is_exhausted(monkeypatch):
    calls = {"SpanApprox": 0, "build_two_vector": 0, "solve_direction": 0}
    for name in calls:
        original = getattr(algorithm, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(algorithm, name, counted)
    prob, x0 = generate_problem(12, 6, cond=20.0, seed=97)
    trace = subspace_qn_solve(prob, x0, steps=StepPolicy.uniform(), tol=1e-9,
                              max_iter=10, seed=3)
    exhausted = [rec.k for rec in trace.records if rec.exhausted]
    assert exhausted and exhausted == list(range(exhausted[0], trace.iterations))
    assert trace.records[-2].exhausted and trace.records[-2].sigma is not None
    # no operator at all, and one closed-form direction per iteration up to
    # and including the first exhausted one
    assert calls == {"SpanApprox": 0, "build_two_vector": 0,
                     "solve_direction": exhausted[0] + 1}


def test_a_dependent_memory_past_exhaustion_no_longer_raises():
    # a one-column operator built from the stored Newton step on exhausted
    # iterations raises DegenerateBasisError here; the solver builds none
    trace = subspace_qn_solve(*generate_problem(12, 6, cond=1e3, seed=6),
                              steps=StepPolicy.uniform(), mode=ORACLE,
                              max_iter=36, seed=0)
    assert trace.status == CONVERGED and trace.iterations == 23
    exhausted = [rec for rec in trace.records if rec.exhausted]
    assert len(exhausted) == 12 and exhausted[-1] is trace.records[-1]
    # the converging record keeps no memory: it sets no sigma
    assert [rec.sigma is not None for rec in exhausted] == [True] * 11 + [False]


@pytest.mark.parametrize("mode", [ORACLE, MATRIX_FREE])
def test_a_vanishing_upcoming_direction_falls_back_to_the_default_sigma(mode):
    # at k = 3 = grade - 1 the span is complete, so the upcoming direction
    # the termination scaling needs is rounding noise (2e-13 to 4e-13 of the
    # terms it is formed from); the scaling computed from it is 3e-10 to
    # 4e-10, and the directions from the grade on then miss the solution
    # by 5e-3 to 1e-2 relative
    prob, x0 = generate_problem(128, 4, cond=100.0, seed=[11, 28])
    trace = subspace_qn_solve(prob, x0, steps=StepPolicy.constant(0.5),
                              sigmas=SigmaPolicy.newton_at(3), mode=mode)
    assert [w.split(":")[0] for w in trace.warnings] == ["iteration 3"]
    assert "sigma policy fell back to 1" in trace.warnings[0]
    assert trace.records[3].sigma == 1.0
    report = check_newton_onset(trace, KrylovOracle(prob, x0))
    onset = [f for f in report.findings
             if f.name == "full Newton step from the grade onward"]
    assert len(onset) == 1 and onset[0].passed


@pytest.mark.parametrize("r, at, steps, mode", [
    (10, 9, StepPolicy.constant(0.5), ORACLE),
    (10, 9, StepPolicy.constant(0.5), MATRIX_FREE),
    (10, 9, StepPolicy.uniform(), ORACLE),
    (10, 10, StepPolicy.uniform(), MATRIX_FREE),
    (10, 10, StepPolicy.constant(0.5), ORACLE),
    (10, 10, StepPolicy.constant(0.5), MATRIX_FREE),
    (12, 11, StepPolicy.uniform(), ORACLE),
    (16, 16, StepPolicy.constant(0.5), ORACLE),
    (18, 17, StepPolicy.constant(0.5), ORACLE),
    (18, 18, StepPolicy.constant(0.5), MATRIX_FREE),
])
def test_a_nonpositive_newton_scaling_falls_back_to_the_default_sigma(r, at, steps, mode):
    # at cond 1e2 rounding makes -q'Hq / q'g negative at iteration ``at``
    # (-2.279 for the first case), which no sigma policy may emit
    prob, x0 = generate_problem(2 * r, r, cond=100.0, seed=r)
    trace = subspace_qn_solve(prob, x0, steps=steps, sigmas=SigmaPolicy.newton_at(at),
                              mode=mode, max_iter=4 * r, seed=1)
    assert trace.status == CONVERGED, (trace.status, trace.reason)
    assert any(w.startswith(f"iteration {at}: sigma policy fell back to 1 (Newton "
                            "scaling -") for w in trace.warnings), trace.warnings
    assert trace.records[at].sigma == 1.0


@pytest.mark.parametrize("r, at, steps", [
    (12, 12, StepPolicy.uniform()),
    (18, 18, StepPolicy.constant(0.5)),
    (20, 20, StepPolicy.constant(0.5)),
])
def test_a_newton_scaling_near_zero_still_converges(r, at, steps):
    # oracle runs of the same ensemble whose Newton value at ``at`` is so near
    # zero that rounding decides its sign; they converge either way
    prob, x0 = generate_problem(2 * r, r, cond=100.0, seed=r)
    trace = subspace_qn_solve(prob, x0, steps=steps, sigmas=SigmaPolicy.newton_at(at),
                              mode=ORACLE, max_iter=4 * r, seed=1)
    assert trace.status == CONVERGED, (trace.status, trace.reason)


class _NegatedCurvature(QuadraticProblem):
    """H's action negated; gradients stay those of the convex problem."""

    def hessian_action(self, v):
        return -super().hessian_action(v)


def test_a_nonpositive_exact_step_is_a_breakdown():
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=1)
    prob = _NegatedCurvature(prob.H, prob.c)
    cg = cg_solve(prob, x0)
    trace = subspace_qn_solve(prob, x0, steps=StepPolicy.exact_line_search(),
                              mode=ORACLE)
    assert (trace.status, trace.iterations, trace.reason) == (
        cg.status, cg.iterations, cg.reason) == (
        BREAKDOWN, 0, "nonpositive curvature along search direction")
    # matrix-free mode takes Hp from gradient differences, never from H
    trace = subspace_qn_solve(prob, x0, steps=StepPolicy.exact_line_search(),
                              mode=MATRIX_FREE)
    assert (trace.status, trace.iterations) == (CONVERGED, 3)


def test_a_nonpositive_start_scaling_falls_back_to_the_default_sigma():
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=1)
    prob = _NegatedCurvature(prob.H, prob.c)
    trace = subspace_qn_solve(prob, x0, steps=StepPolicy.exact_line_search(),
                              sigmas=SigmaPolicy.newton_at(-1, default=2.0))
    assert trace.meta["initial_sigma"] == 2.0
    assert len(trace.warnings) == 1
    assert trace.warnings[0].startswith(
        "iteration -1: sigma policy fell back to 2 (Newton scaling -")
    assert trace.status == BREAKDOWN


@pytest.mark.parametrize("mode", [ORACLE, MATRIX_FREE])
@pytest.mark.parametrize("newton_at", [False, True])
def test_unit_steps_converge_within_twice_cg(mode, newton_at):
    # unit steps outside the exact-arithmetic envelope: grades to 16 and
    # conditions to 1e3 on n = 2r, where finite termination is lost to
    # rounding but convergence must not be
    worst = 0.0
    for r in range(1, 17):
        sigmas = SigmaPolicy.newton_at(r - 2) if newton_at else SigmaPolicy.constant()
        for cond in (10.0, 100.0, 1e3):
            prob, x0 = generate_problem(2 * r, r, cond=cond, seed=r)
            trace = subspace_qn_solve(prob, x0, sigmas=sigmas, mode=mode,
                                      max_iter=6 * r)
            assert trace.status == CONVERGED, (r, cond, trace.status, trace.reason)
            worst = max(worst, trace.iterations / cg_solve(prob, x0).iterations)
    assert worst <= 2.0


@pytest.mark.parametrize("mode", [ORACLE, MATRIX_FREE])
def test_a_non_finite_gradient_is_a_breakdown(mode):
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=98)
    start = x0.copy()
    start[2] = np.nan
    trace = subspace_qn_solve(prob, start, mode=mode)
    assert (trace.status, trace.iterations) == (BREAKDOWN, 0)
    assert trace.reason == "gradient is not finite at iterate 0"

    # the start scaling is not asked for at an infinite gradient
    start[2] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        trace = subspace_qn_solve(prob, start, sigmas=SigmaPolicy.newton_at(-1),
                                  mode=mode)
    assert (trace.status, trace.iterations) == (BREAKDOWN, 0)
    assert trace.reason == "gradient is not finite at iterate 0"

    with np.errstate(over="ignore", invalid="ignore"):
        trace = subspace_qn_solve(prob, x0, steps=StepPolicy.constant(1e308),
                                  mode=mode)
    assert (trace.status, trace.iterations) == (BREAKDOWN, 1)
    assert trace.reason == "gradient is not finite at iterate 1"
    assert not np.isfinite(trace.final_grad_norm)


def test_learned_action_reproduces_hessian_images():
    prob, x0 = generate_problem(7, 7, cond=12.0, seed=91)
    rng = np.random.default_rng(91)
    x = x0 + rng.standard_normal(7)
    newton_prev = rng.standard_normal(7)
    q = rng.standard_normal(7)
    p = newton_prev + q
    alpha = 0.7
    g = prob.gradient(x)
    g_next = prob.gradient(x + alpha * p)
    # the matrix-free image of the step, and the slope at the restricted
    # minimizer, g + H pN, as the solver takes them
    h_p = (g_next - g) / alpha
    h_newton_prev = prob.H @ newton_prev
    h_q, h_newton_next, got_coef = algorithm._conjugate_images(
        h_p, h_newton_prev, q, g + h_newton_prev, alpha)
    assert np.allclose(h_p, prob.H @ p, atol=1e-10 * (1 + norm(prob.H @ p)))
    assert np.allclose(h_q, prob.H @ q, atol=1e-9 * (1 + norm(prob.H @ q)))
    coef = float((g + prob.H @ newton_prev) @ q) / float(q @ prob.H @ q) + alpha
    assert got_coef == pytest.approx(coef, rel=1e-9)
    target = (1.0 - alpha) * newton_prev - coef * q
    assert np.allclose(h_newton_next, prob.H @ target,
                       atol=1e-9 * (1 + norm(prob.H @ target)))


def test_learned_action_replays_the_matrix_free_solver():
    prob, x0 = generate_problem(12, 8, cond=50.0, seed=5)
    trace = subspace_qn_solve(prob, x0, steps=StepPolicy.uniform(),
                              sigmas=SigmaPolicy.uniform(), mode=MATRIX_FREE,
                              seed=2, max_iter=20)
    recs = trace.records
    g_after = [rec.g for rec in recs[1:]] + [prob.gradient(trace.final_x)]
    h_newton = np.zeros(prob.n)
    replayed = 0
    for rec, g_next in zip(recs, g_after):
        if not rec.exhausted:
            h_p = (g_next - rec.g) / rec.alpha
            h_q, h_newton_next, _ = algorithm._conjugate_images(
                h_p, h_newton, rec.q, rec.g + h_newton, rec.alpha)
            assert np.array_equal(h_q, rec.h_q)
            assert np.array_equal(h_newton_next, rec.h_newton_step)
            replayed += 1
        h_newton = rec.h_newton_step
    assert replayed > 0


def test_learned_action_guards():
    q = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NotPositiveDefiniteError):
        algorithm._conjugate_images(-q, np.zeros(3), q, np.zeros(3), 1.0)


def test_step_policy_validation():
    with pytest.raises(PolicyError):
        StepPolicy.constant(0.0)
    with pytest.raises(PolicyError):
        StepPolicy.uniform(2.0, 1.0)
    with pytest.raises(PolicyError):
        StepPolicy.uniform(-0.01, 0.01)  # entirely inside the rejected band
    with pytest.raises(PolicyError):
        StepPolicy.schedule([])
    with pytest.raises(PolicyError):
        StepPolicy.schedule([1.0, 0.0])
    with pytest.raises(PolicyError):
        StepPolicy.unit_after(-1)
    # numbers must be finite reals, not bools; start must be an integer
    for bad in (float("nan"), float("inf"), True, "2", None):
        with pytest.raises(PolicyError, match="finite number"):
            StepPolicy.constant(bad)
    with pytest.raises(PolicyError, match="finite number"):
        StepPolicy.schedule([1.0, float("nan")])
    with pytest.raises(PolicyError, match="must be a list"):
        StepPolicy.schedule(5)
    with pytest.raises(PolicyError, match="integer"):
        StepPolicy.unit_after(2.7)


def test_random_steps_avoid_the_zero_band():
    pol = StepPolicy.uniform(-1.0, 1.0)
    rng = np.random.default_rng(0)
    draws = [pol.alpha(k, None, rng) for k in range(500)]
    assert all(abs(a) >= 0.05 for a in draws)
    assert min(draws) < 0.0 < max(draws)


def test_an_exact_step_of_zero_is_refused():
    # an exact step is zero only where g'p is exactly 0, which no run has met;
    # the policy refuses it rather than hand the solver a step that goes nowhere
    pol = StepPolicy.exact_line_search()
    assert pol.alpha(3, lambda: 0.5, None) == 0.5
    with pytest.raises(PolicyError, match="step policy produced zero at iteration 3"):
        pol.alpha(3, lambda: 0.0, None)


def test_schedule_policy_runs_out():
    # a step policy that fails mid-run ends it as a breakdown that keeps the
    # records taken and the run's metadata
    prob, x0 = generate_problem(6, 4, cond=8.0, seed=92)
    for steps, iterations, reason in [
        (StepPolicy.schedule([0.5]), 1, "step schedule exhausted at iteration 1"),
        (StepPolicy.uniform(-0.0500001, 0.0500001), 0,
         "could not draw a step outside the rejected band"),
    ]:
        trace = subspace_qn_solve(prob, x0, steps=steps, tol=1e-12, max_iter=5)
        assert (trace.status, trace.reason) == (BREAKDOWN, reason)
        assert trace.iterations == len(trace.records) == iterations
        assert trace.meta["step_policy"] == steps.spec()
        x = x0
        if iterations:  # the run ends where its last recorded step lands
            last = trace.records[-1]
            x = last.x + last.alpha * last.p
        assert np.array_equal(trace.final_x, x)
        assert trace.final_grad_norm == norm(prob.gradient(x))


@pytest.mark.parametrize("at, iterations", [(-1, 0), (0, 1)])
def test_a_sigma_policy_that_fails_mid_run_ends_it_as_a_breakdown(at, iterations):
    # the smallest positive double times a Newton value below 1/2 rounds to 0
    prob = QuadraticProblem(np.diag([0.1, 0.2, 0.3]), np.array([-1.0, -1.0, -1.0]))
    sigmas = SigmaPolicy.newton_at(at, scale=5e-324)
    trace = subspace_qn_solve(prob, np.zeros(3), sigmas=sigmas, tol=1e-12)
    assert (trace.status, trace.iterations) == (BREAKDOWN, iterations)
    assert trace.reason == f"sigma policy produced 0.0 at iteration {at}"
    assert trace.meta["sigma_policy"] == sigmas.spec()


@pytest.mark.parametrize("at", [-1, 0])
def test_an_overflowing_newton_value_falls_back_to_the_default_sigma(at):
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=1)
    trace = subspace_qn_solve(prob, x0, sigmas=SigmaPolicy.newton_at(at, scale=1e308))
    assert (trace.status, trace.iterations) == (CONVERGED, 4)
    assert trace.iterations == subspace_qn_solve(prob, x0).iterations
    assert trace.meta["initial_sigma"] == 1.0
    assert trace.warnings == [f"iteration {at}: sigma policy fell back to 1 "
                              "(scaled Newton value inf is not finite)"]
    assert trace.records[0].sigma == 1.0


@pytest.mark.parametrize("solve", [
    cg_solve, qn_exact_ls_solve, subspace_qn_solve,
], ids=["cg", "bfgs", "qn-subspace"])
@pytest.mark.parametrize("limits, message", [
    ({"max_iter": -1}, "max_iter must be non-negative"),
    ({"max_iter": 2.5}, "max_iter must be an integer"),
    ({"max_iter": True}, "max_iter must be an integer"),
    ({"tol": -1.0}, "tol must be positive"),
    ({"tol": 0.0}, "tol must be positive"),
    ({"tol": float("nan")}, "tol must be a finite number"),
    ({"tol": "x"}, "tol must be a finite number"),
])
def test_invalid_run_limits_raise_before_the_first_gradient(monkeypatch, solve, limits,
                                                            message):
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=1)
    counts = count_work(monkeypatch)
    with pytest.raises(PolicyError, match=message):
        solve(prob, x0, **limits)
    assert counts == {"gradient": 0, "hessian_action": 0}


def test_sigma_policy_validation():
    with pytest.raises(PolicyError):
        SigmaPolicy.constant(0.0)
    with pytest.raises(PolicyError):
        SigmaPolicy.uniform(0.0, 2.0)
    with pytest.raises(PolicyError):
        SigmaPolicy.newton_at(0, scale=0.0)
    with pytest.raises(PolicyError, match="finite number"):
        SigmaPolicy.uniform(0.5, float("inf"))
    with pytest.raises(PolicyError, match="integer"):
        SigmaPolicy.newton_at(1.5)
    with pytest.raises(PolicyError, match="unknown sigma policy kind"):
        SigmaPolicy.from_spec({"kind": "newton"})


def test_policy_descriptors_and_specs():
    assert StepPolicy.unit().spec() == {"kind": "unit"}
    assert StepPolicy.uniform(0.1, 2.0).descriptor() == "uniform[0.1:2]"
    assert StepPolicy.schedule([1.0, 0.5]).spec() == {
        "kind": "schedule", "values": [1.0, 0.5]}
    assert SigmaPolicy.newton_at(3, scale=1.1).descriptor() == "newton-at[3]*1.1"
    assert SigmaPolicy.uniform(0.5, 2.0).spec() == {
        "kind": "uniform", "lo": 0.5, "hi": 2.0}
    # every kind of both classes: spec and label as written to traces and
    # summary tables, and from_spec inverts spec
    cases = [
        (StepPolicy.unit(), {"kind": "unit"}, "unit"),
        (StepPolicy.constant(0.5), {"kind": "constant", "value": 0.5},
         "constant[0.5]"),
        (StepPolicy.uniform(-1.0, 1.5), {"kind": "uniform", "lo": -1.0, "hi": 1.5},
         "uniform[-1:1.5]"),
        (StepPolicy.exact_line_search(), {"kind": "exact"}, "exact"),
        (StepPolicy.schedule([1.0, 0.5, -2]),
         {"kind": "schedule", "values": [1.0, 0.5, -2.0]}, "schedule[1:0.5:-2]"),
        (StepPolicy.unit_after(4),
         {"kind": "unit-after", "start": 4, "lo": 0.1, "hi": 2.0}, "unit-after[4]"),
        (SigmaPolicy.constant(), {"kind": "constant", "value": 1.0}, "constant[1]"),
        (SigmaPolicy.uniform(0.7, 1.9), {"kind": "uniform", "lo": 0.7, "hi": 1.9},
         "uniform[0.7:1.9]"),
        (SigmaPolicy.newton_at(2, scale=1.1),
         {"kind": "newton-at", "at": 2, "scale": 1.1, "default": 1.0},
         "newton-at[2]*1.1"),
        (SigmaPolicy.newton_at(-1, default=0.8),
         {"kind": "newton-at", "at": -1, "scale": 1.0, "default": 0.8},
         "newton-at[-1]"),
    ]
    for policy, spec, label in cases:
        assert policy.spec() == spec
        assert policy.descriptor() == label
        assert type(policy).from_spec(policy.spec()) == policy
    # a spec leaves out what the constructors default
    assert StepPolicy.from_spec({}) == StepPolicy.unit()
    assert SigmaPolicy.from_spec({}) == SigmaPolicy.constant(1.0)
    assert StepPolicy.from_spec({"kind": "unit-after", "start": 4}) \
        == StepPolicy.unit_after(4)


def test_sigma_fallback_past_exhaustion_warns():
    prob, x0 = generate_problem(6, 2, cond=6.0, seed=96)
    trace = subspace_qn_solve(
        prob, x0, steps=StepPolicy.constant(0.5),
        sigmas=SigmaPolicy.newton_at(3), tol=1e-10, max_iter=6,
    )
    assert any("fell back" in w for w in trace.warnings)
    assert trace.records[3].sigma == 1.0


def test_start_at_the_solution_converges_without_stepping():
    prob, x0 = generate_problem(5, 3, cond=7.0, seed=93)
    trace = subspace_qn_solve(prob, oracles.dense_solution(prob.H, prob.c), tol=1e-9)
    assert trace.status == CONVERGED
    assert trace.iterations == 0
    assert trace.records == []


def test_unknown_mode_rejected():
    prob, x0 = generate_problem(4, 2, cond=5.0, seed=94)
    with pytest.raises(ValueError, match="mode"):
        subspace_qn_solve(prob, x0, mode="dense")


def test_seeded_runs_are_identical():
    prob, x0 = generate_problem(7, 4, cond=18.0, seed=95)
    kw = dict(steps=StepPolicy.uniform(), sigmas=SigmaPolicy.uniform(),
              tol=1e-8, max_iter=8)
    a = subspace_qn_solve(prob, x0, seed=(2, 7), **kw)
    b = subspace_qn_solve(prob, x0, seed=(2, 7), **kw)
    assert json.dumps(a.to_dict(), sort_keys=True) \
        == json.dumps(b.to_dict(), sort_keys=True)
    assert a.to_dict()["meta"]["seed"] == [2, 7]
    c = subspace_qn_solve(prob, x0, seed=(2, 8), **kw)
    assert c.records[0].alpha != a.records[0].alpha
