"""Quasi-Newton subspace methods with finite termination on quadratics.

The package provides strictly convex quadratic test problems with exact
Krylov-space references (:mod:`~qnsubspace.problem`), classical
conjugate-direction baselines (:mod:`~qnsubspace.baselines`), restricted
Newton steps with their rank-one extension and the reference Hessian
approximations, formed as matrices, that copy curvature on a chosen span
(:mod:`~qnsubspace.approximation`), the arbitrary-step quasi-Newton solver,
whose direction is that approximation's in closed form
(:mod:`~qnsubspace.algorithm`), and independent checks of its termination
claims (:mod:`~qnsubspace.verification`).
"""

from .algorithm import (
    MATRIX_FREE,
    ORACLE,
    LearnedAction,
    SigmaPolicy,
    StepPolicy,
    learn_h_action,
    solve_direction,
    subspace_qn_solve,
)
from .approximation import (
    SpanApprox,
    StepExtension,
    SubspaceNewtonStep,
    build_full_memory,
    build_two_vector,
    delta_factor,
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
    krylov_minimizer,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from .trace import (
    BREAKDOWN,
    CONVERGED,
    MAX_ITER,
    DirectionHistory,
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
    "DirectionHistory",
    "Finding",
    "IterateRecord",
    "IterateTrace",
    "KrylovOracle",
    "LearnedAction",
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
    "build_full_memory",
    "build_two_vector",
    "cg_solve",
    "check_conjugate_baseline",
    "check_exact_search_count",
    "check_newton_onset",
    "check_unit_step_counts",
    "delta_factor",
    "exact_line_search",
    "extend_step",
    "generate_problem",
    "krylov_grade",
    "krylov_minimizer",
    "learn_h_action",
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
