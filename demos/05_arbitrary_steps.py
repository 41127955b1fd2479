"""Finite termination without any line search.

The solver is handed random step lengths it has no control over. It still
collects the full set of conjugate directions in grade-many iterations;
after that the search direction is the exact remaining gap to the
solution, and the first unit step terminates. With the tuned complement
scaling even the random-step phase is skipped and every step is a Newton
step, matching conjugate gradients' iteration count with no line search.
"""

import numpy as np

from qnsubspace import (
    KrylovOracle,
    SigmaPolicy,
    StepPolicy,
    cg_solve,
    generate_problem,
    subspace_qn_solve,
    traces_match,
)

prob, x0 = generate_problem(n=9, grade=6, cond=20.0, seed=3)
oracle = KrylovOracle(prob, x0)
r = oracle.grade
print(f"instance: n={prob.n}, grade={r}, cond={prob.condition_number():.1f}\n")

# random steps for r iterations, then unit steps: terminates immediately
trace = subspace_qn_solve(
    prob, x0,
    steps=StepPolicy.unit_after(r),
    tol=1e-8, seed=1,
)
print(f"random-then-unit steps: {trace.status} in {trace.iterations} iterations")
for rec in trace.records:
    note = "exhausted" if rec.exhausted else "collecting"
    print(f"  k={rec.k}: alpha={rec.alpha:+.3f}  |g|={rec.grad_norm:.2e}  {note}")

# after the grade the proposed step is the exact remaining gap
final = trace.records[r]
gap = np.linalg.norm((final.x + final.p) - oracle.solution)
print(f"at k={r} the proposed step lands {gap:.2e} from the solution\n")

# tuned sigma at iteration r-2 makes the final steps full Newton steps:
# exactly r unit-step iterations, same count as cg with exact line search
tuned = subspace_qn_solve(
    prob, x0,
    steps=StepPolicy.unit(),
    sigmas=SigmaPolicy.newton_at(r - 2),
    tol=1e-8,
)
cg = cg_solve(prob, x0, tol=1e-8)
print(f"unit steps, tuned sigma: {tuned.iterations} iterations")
print(f"cg with exact line search: {cg.iterations} iterations\n")

# gradient-difference mode never touches H and replays the same trajectory
replay = subspace_qn_solve(
    prob, x0,
    steps=StepPolicy.unit_after(r),
    mode="matrix-free",
    tol=1e-8, seed=1,
)
same, mismatches = traces_match(trace, replay, rtol=1e-6)
print(f"matrix-free replay matches the direct run: {same} "
      f"({len(mismatches)} mismatched fields)")
