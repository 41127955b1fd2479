"""Positive definite operators that copy the Hessian on a chosen span.

The approximation B acts as H on span(P) and as sigma times the identity
on the orthogonal complement. Built from the method's own direction pairs
it turns the next quasi-Newton solve into a restricted Newton step plus
one new scaled conjugate direction, and a specific sigma makes that solve
a full Newton step onto the next Krylov minimizer. The solver uses that
split as a closed form and never builds the operator; this demo builds it
densely from the formula

    B = sigma (I - P (P'P)^-1 P') + HP (P'HP)^-1 (HP)'
"""

import numpy as np

from qnsubspace import KrylovOracle, generate_problem, solve_direction


def approximation(P, HP, sigma):
    """B of the formula above, as an n x n matrix."""
    B = sigma * (np.eye(len(P)) - P @ np.linalg.solve(P.T @ P, P.T))
    return B + HP @ np.linalg.solve(P.T @ HP, HP.T)


prob, x0 = generate_problem(n=7, grade=5, cond=20.0, seed=11)
oracle = KrylovOracle(prob, x0)

# span the first two conjugate directions
P = oracle.conjugate_directions[:, :2]
B = approximation(P, prob.H @ P, sigma=3.0)

eigs = np.linalg.eigvalsh(B)
print(f"eigenvalues of B: {np.round(eigs, 6)}")
print(f"reproduces curvature on the span: |BP - HP| = "
      f"{np.abs(B @ P - prob.H @ P).max():.2e}")

v = np.array([1.0, -2.0, 0.5, 0.0, 1.0, 0.0, -1.0])
W = np.column_stack([P, prob.H @ P])
v -= W @ np.linalg.lstsq(W, v, rcond=None)[0]  # project out span(P) + span(HP)
print(f"acts as sigma*I off the span and its image: |Bv - 3v| = "
      f"{np.linalg.norm(B @ v - 3.0 * v):.2e}")

# full-memory variant: span every conjugate direction so far
Q3 = oracle.conjugate_directions[:, :3]
H_Q3 = prob.H @ Q3
x3 = oracle.minimizer(3)

# with the tuned sigma* = -q'Hq / q'g of the upcoming conjugate direction q
# (the negated subspace gradient made conjugate to the previous direction),
# solving B p = -g from the third minimizer lands exactly on the fourth
g3 = prob.gradient(x3)
q2 = oracle.conjugate_directions[:, 2].copy()
h_q2 = prob.hessian_action(q2)
coef = float(g3 @ h_q2) / float(q2 @ h_q2)
q_up = -g3 + coef * q2
sigma_star = -float(q_up @ prob.hessian_action(q_up)) / float(q_up @ g3)
p = np.linalg.solve(approximation(Q3, H_Q3, sigma_star), -g3)
miss = np.linalg.norm(x3 + p - oracle.minimizer(4))
print(f"\ntuned sigma {sigma_star:.4f}: one solve from minimizer(3) "
      f"misses minimizer(4) by {miss:.2e}")

# any other sigma still moves along the right ray, just the wrong length
p_generic = np.linalg.solve(approximation(Q3, H_Q3, sigma=1.0), -g3)
cos = abs(p_generic @ p) / (np.linalg.norm(p_generic) * np.linalg.norm(p))
print(f"generic sigma 1.0: same direction (cos angle {cos:.12f}), "
      f"length ratio {np.linalg.norm(p_generic) / np.linalg.norm(p):.4f}")

# the solver's two-vector memory: the restricted Newton step from a point of
# the current Krylov space and the latest conjugate direction. Its solve is
# that Newton step plus the upcoming conjugate direction over sigma, which
# solve_direction computes without building B
x = x0 + Q3 @ [0.5, 1.2, 0.8]
g = prob.gradient(x)
newton = oracle.minimizer(3) - x
P2 = np.column_stack([newton, q2])
B2 = approximation(P2, prob.H @ P2, sigma=1.5)
closed = solve_direction(g, newton, prob.H @ newton, q2, h_q2, 1.5)
print(f"closed-form direction vs operator solve: "
      f"|difference| = {np.linalg.norm(closed - np.linalg.solve(B2, -g)):.2e}")
