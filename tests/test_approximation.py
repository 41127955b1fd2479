import numpy as np
import pytest
from numpy.linalg import norm

from qnsubspace import (
    DegenerateBasisError,
    KrylovOracle,
    SpanApprox,
    build_two_vector,
    generate_problem,
    newton_sigma,
    solve_direction,
)

import oracles


def sample_span(n=7, m=2, seed=0, cond=30.0):
    prob, _ = generate_problem(n, n, cond=cond, seed=seed)
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, m))
    return prob, P, prob.H @ P


def test_matches_defining_formula():
    prob, P, HP = sample_span()
    for sigma in (0.3, 1.0, 5.0):
        B = SpanApprox(P, HP, sigma)
        ref = oracles.span_approx_dense(P, HP, sigma)
        assert np.allclose(oracles.operator_matrix(B.matvec, 7), ref,
                           atol=1e-10 * norm(ref))
        v = np.linspace(-1, 1, 7)
        assert np.allclose(B.matvec(v), ref @ v, atol=1e-10 * norm(ref))
        assert np.allclose(B.solve(v), np.linalg.solve(ref, v), atol=1e-8)


def test_positive_definite_and_reproduces_images():
    prob, P, HP = sample_span(seed=3)
    B = SpanApprox(P, HP, 0.7)
    assert np.linalg.eigvalsh(oracles.operator_matrix(B.matvec, 7)).min() > 0.0
    for j in range(P.shape[1]):
        assert np.allclose(B.matvec(P[:, j]), HP[:, j], atol=1e-9 * norm(HP[:, j]))


def test_column_scaling_is_irrelevant():
    prob, P, HP = sample_span(seed=4)
    D = np.diag([1e-6, 1e4])
    a = oracles.operator_matrix(SpanApprox(P, HP, 1.3).matvec, 7)
    b = oracles.operator_matrix(SpanApprox(P @ D, HP @ D, 1.3).matvec, 7)
    assert np.allclose(a, b, atol=1e-8 * norm(a))


def test_rank_zero_and_sigma_validation():
    B = SpanApprox(np.zeros((0, 0)), np.zeros((0, 0)), 2.0)
    v = np.array([1.0, -2.0])
    assert np.allclose(B.solve(v), v / 2.0)
    with pytest.raises(ValueError):
        SpanApprox(np.zeros((0, 0)), np.zeros((0, 0)), 0.0)
    with pytest.raises(DegenerateBasisError):
        SpanApprox(np.zeros((3, 1)), np.zeros((3, 1)), 1.0)


def test_rejects_inconsistent_images():
    prob, P, HP = sample_span(seed=5)
    wrong = HP.copy()
    wrong[:, 0] = np.roll(wrong[:, 0], 1)  # image of some other operator
    with pytest.raises(ValueError, match="not symmetric"):
        SpanApprox(P, wrong, 1.0)


def test_rejects_dependent_columns():
    prob, P, HP = sample_span(seed=6)
    P[:, 1] = 2.0 * P[:, 0]
    HP[:, 1] = 2.0 * HP[:, 0]
    with pytest.raises(DegenerateBasisError):
        SpanApprox(P, HP, 1.0)


def test_rejects_images_that_lost_conjugacy():
    # P'HP = -P'P is symmetric, so the consistency check passes, but it is
    # not positive definite
    prob, P, _ = sample_span(seed=15)
    with pytest.raises(DegenerateBasisError, match="lost conjugacy"):
        SpanApprox(P, -P, 1.0)


def test_with_sigma_changes_only_the_complement():
    prob, P, HP = sample_span(seed=7)
    B1 = SpanApprox(P, HP, 1.0)
    B2 = SpanApprox(P, HP, 4.0)
    for j in range(P.shape[1]):
        assert np.allclose(B2.matvec(P[:, j]), HP[:, j], atol=1e-9 * norm(HP[:, j]))
    v = np.linalg.qr(np.column_stack([P, np.ones(7)]))[0][:, -1]  # orthogonal to P
    # the curvature part is sigma-independent, so the difference is pure scaling
    assert np.allclose(B2.matvec(v) - B1.matvec(v), 3.0 * v, atol=1e-9)


def test_two_vector_collapse_rules():
    prob, P, HP = sample_span(seed=8)
    pn, q = P[:, 0], P[:, 1]
    h_pn, h_q = HP[:, 0], HP[:, 1]
    assert build_two_vector(pn, h_pn, q, h_q, 1.0).rank == 2
    assert build_two_vector(np.zeros(7), np.zeros(7), q, h_q, 1.0).rank == 1
    assert build_two_vector(-0.4 * q, -0.4 * h_q, q, h_q, 1.0).rank == 1
    with pytest.raises(DegenerateBasisError):
        build_two_vector(pn, h_pn, np.zeros(7), np.zeros(7), 1.0)


def test_full_memory_equals_direct_construction():
    prob, P, HP = sample_span(n=6, m=3, seed=9)
    ref = oracles.span_approx_dense(P, HP, 1.1)
    assert np.allclose(oracles.operator_matrix(SpanApprox(P, HP, 1.1).matvec, 6),
                       ref, atol=1e-10 * norm(ref))
    empty = SpanApprox(np.zeros((6, 0)), np.zeros((6, 0)), 3.0)
    assert empty.rank == 0
    assert empty.sigma == 3.0
    assert np.array_equal(oracles.operator_matrix(empty.matvec, 6), 3.0 * np.eye(6))


def test_solve_direction_residual():
    prob, P, HP = sample_span(seed=10)
    B = SpanApprox(P, HP, 0.9)
    g = np.linspace(1, 7, 7)
    p = B.solve(-g)
    assert norm(B.matvec(p) + g) <= 1e-9 * norm(g)


def test_low_rank_solve_matches_the_dense_operator_at_n512():
    # spans of the solver's memory: one conjugate direction, the restricted
    # Newton step with the next direction, and a full memory of eight
    # directions, at the largest supported size
    prob, x0 = generate_problem(512, 12, cond=100.0, seed=14)
    oracle = KrylovOracle(prob, x0)
    Q = np.column_stack([oracle.conjugate_direction(k) for k in range(8)])
    HQ = prob.H @ Q
    newton = oracle.minimizer(2) - x0
    NQ = np.column_stack([newton, Q[:, 2]])
    rhs = [prob.gradient(oracle.minimizer(2)),
           np.random.default_rng(14).standard_normal(512)]
    for sigma in (0.5, 1.0, 30.0):
        cases = [
            (build_two_vector(np.zeros(512), np.zeros(512), Q[:, 0], HQ[:, 0], sigma),
             Q[:, :1]),
            (build_two_vector(newton, prob.H @ newton, Q[:, 2], HQ[:, 2], sigma), NQ),
            (SpanApprox(Q, HQ, sigma), Q),
        ]
        for B, P in cases:
            assert B.rank == P.shape[1]
            ref = oracles.span_approx_dense(P, prob.H @ P, sigma)
            for g in rhs:
                p = B.solve(-g)
                assert norm(ref @ p + g) <= 1e-9 * norm(g)
                assert norm(p - np.linalg.solve(ref, -g)) <= 1e-9 * norm(p)


def test_applied_to_upcoming_direction_gives_scaled_subspace_gradient():
    # With memory column q_{k-1}, the approximation sends the upcoming
    # conjugate direction (unit coefficient on the negated subspace gradient)
    # to minus sigma times that subspace gradient.
    prob, x0 = generate_problem(7, 5, cond=25.0, seed=11)
    oracle = KrylovOracle(prob, x0)
    for k in (1, 2, 3):
        q_prev = oracle.conjugate_direction(k - 1)
        ghat = prob.gradient(oracle.minimizer(k))
        h_q = prob.hessian_action(q_prev)
        coef = float(ghat @ h_q) / float(q_prev @ h_q)
        q_up = -ghat + coef * q_prev
        for sigma in (0.6, 1.0, 2.5):
            B = SpanApprox(q_prev[:, None], h_q[:, None], sigma)
            got = B.matvec(q_up)
            want = -sigma * ghat
            assert norm(got - want) <= 1e-9 * (1 + norm(want))


def test_closed_form_direction_solves_the_two_vector_approximation():
    # From a point of the current Krylov space the restricted Newton step
    # and the latest conjugate direction span the memory, and the closed
    # form is the dense two-vector approximation's quasi-Newton direction.
    prob, x0 = generate_problem(9, 6, cond=25.0, seed=16)
    oracle = KrylovOracle(prob, x0)
    rng = np.random.default_rng(16)
    for k in (1, 2, 3):
        Q = np.column_stack([oracle.conjugate_direction(j) for j in range(k)])
        x = x0 + Q @ rng.uniform(0.2, 1.5, k)
        g = prob.gradient(x)
        newton = oracle.minimizer(k) - x
        q_prev = Q[:, -1]
        # at k = 1 the Newton step is parallel to q and the span is q alone
        P = Q if k == 1 else np.column_stack([newton, q_prev])
        for sigma in (0.6, 1.0, 2.5):
            got = solve_direction(g, newton, prob.hessian_action(newton),
                                  q_prev, prob.hessian_action(q_prev), sigma)
            want = np.linalg.solve(oracles.span_approx_dense(P, prob.H @ P, sigma), -g)
            assert norm(got - want) <= 1e-9 * (1 + norm(want))


def test_newton_sigma_lands_on_the_next_restricted_minimizer():
    prob, x0 = generate_problem(6, 4, cond=12.0, seed=12)
    oracle = KrylovOracle(prob, x0)
    k = 2
    x = oracle.minimizer(k)
    g = prob.gradient(x)
    q_prev = oracle.conjugate_direction(k - 1)
    h_q = prob.hessian_action(q_prev)
    coef = float(g @ h_q) / float(q_prev @ h_q)
    q_up = -g + coef * q_prev
    sigma = newton_sigma(q_up, prob.hessian_action(q_up), g)
    assert sigma > 0.0
    B = SpanApprox(q_prev[:, None], h_q[:, None], sigma)
    p = B.solve(-g)
    # the solve must land on the next constrained minimizer exactly
    ref = oracle.minimizer(k + 1)
    assert norm(x + p - ref) <= 1e-9 * (1 + norm(ref))


def test_newton_sigma_degenerate_guard():
    q = np.array([1.0, 0.0])
    h_q = np.array([2.0, 0.0])
    with pytest.raises(DegenerateBasisError):
        newton_sigma(q, h_q, np.array([0.0, 1.0]))  # q'g = 0
    with pytest.raises(DegenerateBasisError, match="not a finite positive"):
        newton_sigma(q, h_q, np.array([1.0, 0.0]))  # -q'Hq / q'g = -2
