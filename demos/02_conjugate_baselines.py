"""Run the three classical baselines and watch them walk the same path.

Conjugate gradients, BFGS, and memoryless BFGS all use exact line search
here. On a quadratic they generate parallel search directions and land on
the same iterates, finishing in exactly as many steps as the problem's
grade. That shared behavior is the reference the quasi-Newton subspace
method is measured against.
"""

import numpy as np

from qnsubspace import KrylovOracle, cg_solve, generate_problem, qn_exact_ls_solve


def line_angle(u, v):
    """Angle between the lines of u and v, from the chord of their unit
    vectors: accurate near zero, where arccos of u'v/(|u||v|) is not."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    if u @ v < 0.0:
        v = -v
    return 2.0 * np.arcsin(min(1.0, 0.5 * np.linalg.norm(u - v)))


prob, x0 = generate_problem(n=10, grade=6, cond=25.0, seed=7)
oracle = KrylovOracle(prob, x0)
print(f"instance: n={prob.n}, grade={oracle.grade}, "
      f"cond={prob.condition_number():.1f}\n")

traces = {
    "cg": cg_solve(prob, x0, tol=1e-8),
    "bfgs": qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-8),
    "memoryless": qn_exact_ls_solve(prob, x0, variant="memoryless", tol=1e-8),
}

for name, trace in traces.items():
    err = np.linalg.norm(trace.final_x - oracle.solution)
    print(f"{name:>10}: {trace.status} in {trace.iterations} iterations "
        f"(grade {oracle.grade}), |x - x*| = {err:.2e}")

# search directions agree across methods up to scale, and match the
# oracle's conjugate directions; a record's iteration is its position
print("\nper-iteration direction angles against the oracle (radians):")
for name, trace in traces.items():
    angles = [
        line_angle(rec.p, oracle.conjugate_directions[:, k].copy())
        for k, rec in enumerate(trace.records)
    ]
    print(f"{name:>10}: max {max(angles):.2e}")
