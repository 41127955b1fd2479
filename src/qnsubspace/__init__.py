"""Quasi-Newton subspace methods with finite termination on quadratics.

The package provides strictly convex quadratic test problems with exact
Krylov-space references (:mod:`~qnsubspace.problem`), classical
conjugate-direction baselines (:mod:`~qnsubspace.baselines`), restricted
Newton steps with their rank-one extension and the reference Hessian
approximation, formed as a matrix, that copies curvature on a chosen span
(:mod:`~qnsubspace.approximation`), the arbitrary-step quasi-Newton solver,
whose direction is that approximation's in closed form
(:mod:`~qnsubspace.algorithm`), and independent checks of its termination
claims (:mod:`~qnsubspace.verification`).
"""

from .algorithm import (
    MATRIX_FREE,
    ORACLE,
    SigmaPolicy,
    StepPolicy,
    solve_direction,
    subspace_qn_solve,
)
from .approximation import (
    SpanApprox,
    StepExtension,
    SubspaceNewtonStep,
    build_two_vector,
    extend_step,
    newton_scaling,
    newton_sigma,
    subspace_newton_general,
)
from .baselines import (
    bfgs_inverse_update,
    cg_solve,
    exact_line_search,
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
    "SpanApprox",
    "StepExtension",
    "StepPolicy",
    "SubspaceNewtonStep",
    "bfgs_inverse_update",
    "build_two_vector",
    "cg_solve",
    "check_conjugate_baseline",
    "check_exact_search_count",
    "check_newton_onset",
    "check_unit_step_counts",
    "exact_line_search",
    "extend_step",
    "generate_problem",
    "krylov_grade",
    "load_problem",
    "memoryless_bfgs_inverse_action",
    "newton_scaling",
    "newton_sigma",
    "problem_from_dict",
    "problem_to_dict",
    "qn_exact_ls_solve",
    "save_problem",
    "solve_direction",
    "subspace_newton_general",
    "subspace_qn_solve",
    "traces_match",
    "verify_trace",
]
