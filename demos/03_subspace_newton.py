"""Restricted Newton steps and the recursion that grows them.

A Newton step restricted to one direction is an exact line search in
disguise. Restricted to a basis S it solves the projected system
(S'HS) b = -S'g and jumps straight to the minimizer over that affine
subspace. Growing such a step one conjugate direction at a time needs only
the gradient at the current minimizer, the previous direction, and Hessian
products: the next direction is -g_hat + c q with c = g_hat'Hq / q'Hq, the
solver's own two-term recursion, and one exact step along it lands on the
next Krylov minimizer without any projected solve.
"""

import numpy as np

from qnsubspace import KrylovOracle, generate_problem, newton_scaling

prob, x0 = generate_problem(n=8, grade=6, cond=40.0, seed=5)
oracle = KrylovOracle(prob, x0)

# one direction: the Newton scaling -g'p / p'Hp is the exact line search
# step, so the slope along p vanishes where it lands
rng = np.random.default_rng(0)
x = x0 + rng.standard_normal(prob.n)
p = rng.standard_normal(prob.n)
beta = newton_scaling(prob.gradient(x), p, prob.hessian_action(p))
slope = prob.gradient(x + beta * p) @ p / np.linalg.norm(p)
print(f"newton scaling {beta:+.6f}: slope g'p/|p| after the step = {slope:.2e}")

# several directions: the projected solve lands on the minimizer over the
# affine subspace, so the new gradient is orthogonal to every basis vector
S = rng.standard_normal((prob.n, 3))
HS = np.column_stack([prob.hessian_action(v) for v in S.T])
step = S @ np.linalg.solve(S.T @ HS, -(S.T @ prob.gradient(x)))
g_after = prob.gradient(x + step)
worst = max(abs(g_after @ v) / np.linalg.norm(v) for v in S.T)
print(f"restricted Newton over 3 directions: worst |g'v|/|v| after = {worst:.2e}")

# grow the step one conjugate direction at a time from the steepest
# descent start; each partial step hits the next Krylov minimizer
g0 = prob.gradient(x0)
step = newton_scaling(g0, -g0, prob.hessian_action(-g0)) * (-g0)
q = step.copy()
print("\ncomposed extension vs Krylov minimizers:")
for k in range(1, oracle.grade):
    miss = np.linalg.norm(x0 + step - oracle.minimizer(k))
    print(f"  k={k}: miss {miss:.2e}")
    g_hat = prob.gradient(x0 + step)
    h_q = prob.hessian_action(q)
    d = -g_hat + float(g_hat @ h_q) / float(q @ h_q) * q
    q = newton_scaling(g_hat, d, prob.hessian_action(d)) * d
    step = step + q
final = np.linalg.norm(x0 + step - oracle.solution)
print(f"  k={oracle.grade}: miss {final:.2e} (the solution)")
