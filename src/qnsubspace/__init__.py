"""Quasi-Newton subspace methods with finite termination on quadratics.

The package provides strictly convex quadratic test problems with exact
Krylov-space references (:mod:`~qnsubspace.problem`), classical
conjugate-direction baselines (:mod:`~qnsubspace.baselines`), the
arbitrary-step quasi-Newton solver with its Newton scaling, whose direction
is that of a curvature-copying Hessian approximation in closed form
(:mod:`~qnsubspace.algorithm`), and independent checks of the solver's
termination claims (:mod:`~qnsubspace.verification`). That approximation's
dense reference is not part of this API; it stays in
:mod:`~qnsubspace.approximation`.
"""

from .algorithm import (
    MATRIX_FREE,
    ORACLE,
    SigmaPolicy,
    StepPolicy,
    newton_scaling,
    solve_direction,
    subspace_qn_solve,
)
from .baselines import (
    bfgs_inverse_update,
    cg_solve,
    memoryless_bfgs_inverse_action,
    qn_exact_ls_solve,
)
from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    PolicyError,
)
from .problem import (
    KrylovOracle,
    QuadraticProblem,
    generate_problem,
    krylov_grade,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from .trace import (
    BREAKDOWN,
    CONVERGED,
    MAX_ITER,
    IterateRecord,
    IterateTrace,
)
from .verification import (
    CheckReport,
    Finding,
    check_conjugate_baseline,
    check_exact_search_count,
    check_newton_onset,
    check_unit_step_counts,
    traces_match,
    verify_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BREAKDOWN",
    "CONVERGED",
    "CheckReport",
    "DegenerateBasisError",
    "DimensionMismatchError",
    "Finding",
    "IterateRecord",
    "IterateTrace",
    "KrylovOracle",
    "MATRIX_FREE",
    "MAX_ITER",
    "NotPositiveDefiniteError",
    "ORACLE",
    "PolicyError",
    "QuadraticProblem",
    "SigmaPolicy",
    "StepPolicy",
    "bfgs_inverse_update",
    "cg_solve",
    "check_conjugate_baseline",
    "check_exact_search_count",
    "check_newton_onset",
    "check_unit_step_counts",
    "generate_problem",
    "krylov_grade",
    "load_problem",
    "memoryless_bfgs_inverse_action",
    "newton_scaling",
    "problem_from_dict",
    "problem_to_dict",
    "qn_exact_ls_solve",
    "save_problem",
    "solve_direction",
    "subspace_qn_solve",
    "traces_match",
    "verify_trace",
]
