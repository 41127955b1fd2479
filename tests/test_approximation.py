"""Properties of the paper's approximation B, formed densely by
``oracles.span_approx``, and of the solver's closed form of its direction."""

import numpy as np
import pytest
from numpy.linalg import norm

from qnsubspace import (
    DegenerateBasisError,
    KrylovOracle,
    generate_problem,
    solve_direction,
)
from qnsubspace.algorithm import _newton_value

import oracles


def sample_span(n=7, m=2, seed=0, cond=30.0):
    prob, _ = generate_problem(n, n, cond=cond, seed=seed)
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, m))
    return prob, P, prob.H @ P


def test_positive_definite_and_reproduces_images():
    prob, P, HP = sample_span(seed=3)
    B = oracles.span_approx(P, HP, 0.7)
    assert np.linalg.eigvalsh(B).min() > 0.0
    for j in range(P.shape[1]):
        assert np.allclose(B @ P[:, j], HP[:, j], atol=1e-9 * norm(HP[:, j]))


def test_column_scaling_is_irrelevant():
    prob, P, HP = sample_span(seed=4)
    D = np.diag([1e-6, 1e4])
    a = oracles.span_approx(P, HP, 1.3)
    b = oracles.span_approx(P @ D, HP @ D, 1.3)
    assert np.allclose(a, b, atol=1e-8 * norm(a))


def test_with_sigma_changes_only_the_complement():
    prob, P, HP = sample_span(seed=7)
    B1 = oracles.span_approx(P, HP, 1.0)
    B2 = oracles.span_approx(P, HP, 4.0)
    for j in range(P.shape[1]):
        assert np.allclose(B2 @ P[:, j], HP[:, j], atol=1e-9 * norm(HP[:, j]))
    v = np.linalg.qr(np.column_stack([P, np.ones(7)]))[0][:, -1]  # orthogonal to P
    # the curvature part is sigma-independent, so the difference is pure scaling
    assert np.allclose(B2 @ v - B1 @ v, 3.0 * v, atol=1e-9)
    # with an empty span, B is sigma I
    assert np.array_equal(oracles.span_approx(np.zeros((6, 0)), np.zeros((6, 0)), 3.0),
                          3.0 * np.eye(6))


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
            B = oracles.span_approx(q_prev[:, None], h_q[:, None], sigma)
            got = B @ q_up
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
            want = np.linalg.solve(oracles.span_approx(P, prob.H @ P, sigma), -g)
            assert norm(got - want) <= 1e-9 * (1 + norm(want))


def test_newton_value_lands_on_the_next_restricted_minimizer():
    prob, x0 = generate_problem(6, 4, cond=12.0, seed=12)
    oracle = KrylovOracle(prob, x0)
    k = 2
    x = oracle.minimizer(k)
    g = prob.gradient(x)
    q_prev = oracle.conjugate_direction(k - 1)
    h_q = prob.hessian_action(q_prev)
    # at the restricted minimizer the restricted Newton step is zero, and
    # the upcoming direction is -g + (g'Hq / q'Hq) q
    sigma = _newton_value(lambda x, g, v: prob.hessian_action(v), x, g,
                          np.zeros(6), q_prev, h_q, False)
    assert sigma > 0.0
    p = np.linalg.solve(oracles.span_approx(q_prev[:, None], h_q[:, None], sigma), -g)
    # the solve must land on the next constrained minimizer exactly
    ref = oracle.minimizer(k + 1)
    assert norm(x + p - ref) <= 1e-9 * (1 + norm(ref))


def test_newton_value_degenerate_guard():
    # a 2-D state with no memory (q = 0), so the upcoming direction is
    # -(g + H pN), where the restricted Newton step's image H pN is chosen
    H = np.diag([2.0, 1.0])

    def image(x, g, v):
        return H @ v

    x, zero = np.zeros(2), np.zeros(2)
    with pytest.raises(DegenerateBasisError, match="q'g vanishes"):
        # upcoming direction (-1, 0) against g = (0, 1): q'g = 0
        _newton_value(image, x, np.array([0.0, 1.0]), np.array([1.0, -1.0]),
                      zero, zero, False)
    with pytest.raises(DegenerateBasisError, match="not a finite positive"):
        # upcoming direction (1, 0) against g = (1, 0): -q'Hq / q'g = -2
        _newton_value(image, x, np.array([1.0, 0.0]), np.array([-2.0, 0.0]),
                      zero, zero, False)
