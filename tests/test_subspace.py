import numpy as np
import pytest
from numpy.linalg import norm

from qnsubspace import (
    DegenerateBasisError,
    KrylovOracle,
    NotPositiveDefiniteError,
    extend_step,
    generate_problem,
    newton_scaling,
    subspace_newton_general,
)

import oracles


def test_newton_scaling_explicit():
    # -g'q / q'Hq on fixed numbers: -(1*2 + 3*1) / (2*2 + 1*4) = -5/8
    g = np.array([1.0, 3.0])
    q = np.array([2.0, 1.0])
    h_q = np.array([2.0, 4.0])
    assert newton_scaling(g, q, h_q) == pytest.approx(-5.0 / 8.0)
    with pytest.raises(NotPositiveDefiniteError):
        newton_scaling(g, q, -h_q)


def test_newton_scaling_is_exact_line_search():
    prob, x0 = generate_problem(5, 4, cond=10.0, seed=0)
    x = np.array([0.4, -0.2, 1.0, 0.0, 0.3])
    p = np.array([1.0, 2.0, -1.0, 0.5, 0.0])
    b = newton_scaling(prob.gradient(x), p, prob.hessian_action(p))
    ref = oracles.line_search_oracle(prob.H, prob.c, x, p)
    # Brent's default xtol caps the oracle's own accuracy near 1e-8
    assert b == pytest.approx(ref, abs=1e-6)


def test_subspace_newton_reaches_restricted_minimizer():
    prob, x0 = generate_problem(6, 5, cond=25.0, seed=2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6)
    basis = [rng.standard_normal(6) for _ in range(3)]
    step, scalings = subspace_newton_general(basis, prob, x)
    assert scalings.shape == (3,)
    g_after = prob.gradient(x + step)
    g_before_norm = norm(prob.gradient(x))
    for v in basis:
        assert abs(g_after @ v) <= 1e-9 * g_before_norm * norm(v)
    # minimality inside the affine subspace
    f0 = prob.objective(x + step)
    for v in basis:
        assert prob.objective(x + step + 1e-3 * v) >= f0 - 1e-12


def test_subspace_newton_conjugate_basis_decomposes():
    prob, x0 = generate_problem(7, 5, cond=20.0, seed=3)
    oracle = KrylovOracle(prob, x0)
    qs = [oracle.conjugate_direction(k) for k in range(3)]
    x = x0 + 0.7 * qs[0] - 0.2 * qs[1]
    step, scalings = subspace_newton_general(qs, prob, x)
    g = prob.gradient(x)
    for b, q in zip(scalings, qs):
        assert b == pytest.approx(newton_scaling(g, q, prob.hessian_action(q)),
                                  rel=1e-9, abs=1e-12)
    assert np.allclose(step, sum(b * q for b, q in zip(scalings, qs)))


def test_subspace_newton_edge_cases():
    prob, x0 = generate_problem(4, 3, cond=8.0, seed=4)
    step, scalings = subspace_newton_general([], prob, x0)
    assert not step.any() and scalings.size == 0
    v = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateBasisError):
        subspace_newton_general([v, v], prob, x0)


def test_extend_step_composes_to_minimizers():
    prob, x0 = generate_problem(8, 6, cond=40.0, seed=5)
    oracle = KrylovOracle(prob, x0)
    g0 = prob.gradient(x0)
    beta0 = newton_scaling(g0, -g0, prob.hessian_action(-g0))
    step = beta0 * (-g0)
    q_prev = step.copy()
    assert norm(x0 + step - oracle.minimizer(1)) <= 1e-10 * (1 + norm(step))
    for k in range(1, 6):
        g_hat = prob.gradient(x0 + step)
        ext = extend_step(step, q_prev, g_hat, prob.hessian_action)
        assert np.allclose(ext.step, step + ext.direction)
        assert np.allclose(ext.direction, ext.beta * g_hat + ext.gamma * q_prev)
        step, q_prev = ext.step, ext.direction
        ref = oracle.minimizer(k + 1)
        assert norm(x0 + step - ref) <= 1e-9 * (1 + norm(ref))


def test_extend_step_direction_is_scale_invariant():
    prob, x0 = generate_problem(6, 4, cond=15.0, seed=6)
    oracle = KrylovOracle(prob, x0)
    ghat = prob.gradient(oracle.minimizer(1))
    q = oracle.conjugate_direction(0)
    a = extend_step(np.zeros(6), q, ghat, prob.hessian_action)
    b = extend_step(np.zeros(6), 3.7 * q, ghat, prob.hessian_action)
    assert np.allclose(a.direction, b.direction, rtol=1e-12)
    assert a.beta == pytest.approx(b.beta, rel=1e-12)


def test_extend_step_degenerate_at_optimum():
    prob, x0 = generate_problem(5, 3, cond=10.0, seed=7)
    oracle = KrylovOracle(prob, x0)
    q = oracle.conjugate_direction(2)  # last direction: minimizer(3) = x*
    g_hat = np.zeros(5)  # gradient at the minimizer
    with pytest.raises(DegenerateBasisError):
        extend_step(np.zeros(5), q, g_hat, prob.hessian_action)
