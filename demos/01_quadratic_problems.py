"""Build quadratic test problems and query their Krylov-space references.

Every instance is a strictly convex quadratic f(x) = x'Hx/2 + c'x. The
generator controls the dimension, the condition number, and the grade: the
number of eigenvalue clusters the starting gradient actually touches, which
is exactly the number of iterations any conjugate-direction method needs.
"""

import numpy as np

from qnsubspace import KrylovOracle, QuadraticProblem, generate_problem

# a hand-built 2x2 instance with solution (1, 1/2)
prob = QuadraticProblem(np.diag([1.0, 2.0]), np.array([-1.0, -1.0]))
print(f"hand-built: n={prob.n}, cond={prob.condition_number():.1f}, "
      f"solution={KrylovOracle(prob).solution}")
print(f"gradient at origin: {prob.gradient(np.zeros(2))}")

# a generated instance: 8 dimensions but only 5 touched eigenvalues,
# so the effective difficulty is grade 5, not dimension 8
prob, x0 = generate_problem(n=8, grade=5, cond=30.0, seed=42)
oracle = KrylovOracle(prob, x0)
print(f"\ngenerated: n={prob.n}, cond={prob.condition_number():.1f}, "
      f"grade={oracle.grade}")

# minimizers over growing Krylov subspaces walk toward the solution;
# the grade-th one is the solution itself
for k in range(oracle.grade + 1):
    gap = np.linalg.norm(oracle.minimizer(k) - oracle.solution)
    print(f"  distance from minimizer({k}) to solution: {gap:.3e}")

# consecutive minimizer gaps are mutually conjugate directions
qs = [oracle.conjugate_directions[:, k].copy() for k in range(oracle.grade)]
worst = max(
    abs(qs[i] @ prob.hessian_action(qs[j]))
    for i in range(len(qs)) for j in range(i)
)
print(f"\nworst off-diagonal q_i' H q_j: {worst:.3e}")
