"""Independent checks of the termination and direction claims on traces.

Every check recomputes its reference quantities from the problem data
(Krylov-space minimizers, conjugate directions, the exact solution). Of the
recorded vectors it trusts only x and p, plus q and pN on qn-subspace records.
A record's iteration is its position and the count is the number of records;
a file's ``status.iterations`` is written from the records and never read,
and its ``status.kind`` is trusted. A record whose q is all exact zeros is
exhausted, the solver's own rule: the recorded ``exhausted`` flag is the
solver's report, which no check reads.
The checks take those references from one :class:`KrylovOracle` of the
problem and start point, which every trace of that problem can share.

:data:`METHODS` is the method table: one row per method kind holds what
``qnsubspace run`` reads of a spec method and how it runs one, and the checks
:func:`verify_trace` holds its traces to. Adding a method is adding a row.

A check stacks each record field it reads once, as the rows of one array,
and computes every per-record quantity (distances, angles, alignments) in
one array expression. ``tests/oracles.py`` keeps the per-record loops the
checks replaced, with their vector helpers written out, as references the
tests compare them against.

A finding over many records or pairs takes the worst of their values, and
always through :func:`_worst`: a NaN among them makes the finding's value
NaN, and the finding fails.
"""

from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import algorithm, baselines
from .algorithm import MATRIX_FREE, ORACLE, SigmaPolicy, StepPolicy
from .errors import PolicyError
from .problem import ILL_CONDITIONED, KrylovOracle
from .trace import CONVERGED, IterateRecord
from .util import norm

# |alpha - 1| below this counts as a deliberate unit step.
UNIT_STEP_ATOL = 1e-12

# pN and q closer than this in 1 - |cos(pN, q)| span one direction: the
# memory collapses to q.
COLLAPSE_TOL = 1e-10

# Relative distance of x_k + p_k from the exact solution once the generated
# subspace is complete.
NEWTON_ONSET_RTOL = 1e-7

# Angle between computed and reference conjugate directions; relaxed for
# badly conditioned problems.
ANGLE_TOL = 1e-6
ANGLE_TOL_ILL = 1e-4

ORTHOGONALITY_RTOL = 1e-8
BASELINE_GRAD_RTOL = 1e-8
ITERATE_MATCH_RTOL = 1e-7

# Conjugacy between recorded directions degrades with grade and conditioning
# (the classical loss of orthogonality); 1e-6 holds with margin through
# grade 16 at condition 1e2.
CONJUGACY_TOL = 1e-6

# Directions smaller than this fraction of the trajectory scale carry too
# few correct digits for their angle to mean anything: they are recovered
# from a difference of problem-sized quantities, so their relative accuracy
# is bounded by noise/size. Parallelism is only asserted above the floor.
DIRECTION_FLOOR = 1e-6


@dataclass
class Finding:
    name: str
    passed: bool
    detail: str = ""
    value: float | None = None

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        out = f"{tag} {self.name}"
        if self.detail:
            out += f": {self.detail}"
        return out


@dataclass
class CheckReport:
    check: str
    findings: list = field(default_factory=list)

    def add(self, name, passed, detail="", value=None):
        self.findings.append(Finding(name, bool(passed), detail, value))

    @property
    def passed(self):
        return all(f.passed for f in self.findings)

    def failures(self):
        return [f for f in self.findings if not f.passed]

    def lines(self):
        return [f.line() for f in self.findings]


def _rows(vectors, n):
    """The vectors as the rows of one (len(vectors), n) float array."""
    return np.array(vectors, dtype=float).reshape(len(vectors), n)


def _dots(A, B):
    """u @ v of each pair of rows of two (K, n) arrays, bit for bit: matmul of
    1 x n by n x 1 blocks calls the dot that u @ v calls, here on contiguous
    rows, as ``norm`` makes a strided vector before its dot."""
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _norms(A):
    """``norm`` of each row of a (K, n) array, bit for bit."""
    return np.sqrt(_dots(A, A))


def _angles(U, V):
    """Angle between the lines of each pair of rows of two (K, n) arrays.

    Taken from the chord between the unit rows, signs aligned, which stays
    accurate near zero where arccos of their inner product does not; a NaN
    chord reads as the widest angle, pi. ValueError on a zero row.
    """
    u_norms, v_norms = _norms(U), _norms(V)
    if not (u_norms.all() and v_norms.all()):
        raise ValueError("cannot normalize the zero vector")
    U = U / u_norms[:, None]
    V = V / v_norms[:, None]
    V[_dots(U, V) < 0.0] *= -1.0
    return 2.0 * np.arcsin(np.fmin(1.0, 0.5 * _norms(U - V)))


def _worst(values):
    """max(0.0, v_0, v_1, ...) of a float array, NaN if any value is NaN."""
    return float(np.maximum.reduce(values, initial=0.0))


def _count_findings(report, trace, name, counts, r):
    """Add "run converged" and ``name``: the number of records is in ``counts``."""
    count = len(trace.records)
    report.add("run converged", trace.status == CONVERGED, f"status {trace.status}")
    report.add(name, count in counts, f"{count} iterations, grade {r}")


def check_newton_onset(trace, oracle):
    """Verify the finite-termination behaviour of an arbitrary-step run.

    Once the iteration count reaches the grade r of the generated subspace,
    every solve must return the full Newton step, and the first unit step
    taken from then on must land exactly on the minimizer. Before that, each
    new direction must be parallel to the reference conjugate direction, and
    the tracked restricted Newton step must point at the current subspace
    minimizer (checked through gradient orthogonality). ``oracle`` is the
    :class:`KrylovOracle` of the problem and start point.
    """
    prob = oracle.problem
    r = oracle.grade
    x_star = oracle.solution
    x_scale = 1.0 + norm(x_star)
    report = CheckReport(check="newton-onset")
    records = trace.records
    count = len(records)
    ks = np.arange(count)
    alphas = np.array([rec.alpha for rec in records], dtype=float)
    X = _rows([rec.x for rec in records], prob.n)
    P = _rows([rec.p for rec in records], prob.n)

    if count > r:
        worst = _worst(_norms(X[r:] + P[r:] - x_star)) / x_scale
        report.add(
            "full Newton step from the grade onward",
            worst <= NEWTON_ONSET_RTOL,
            f"max relative miss {worst:.3e} over {count - r} iterations "
            f"(grade {r})",
            worst,
        )
    else:
        report.add(
            "full Newton step from the grade onward", True,
            f"run ended before reaching the grade ({r})",
        )

    unit_ks = ks[r:][np.abs(alphas[r:] - 1.0) <= UNIT_STEP_ATOL]
    converged = trace.status == CONVERGED
    if unit_ks.size:
        k_unit = int(unit_ks.min())
        ok, detail = converged and count == k_unit + 1, (
            f"first unit step at iteration {k_unit}; run ended with status "
            f"{trace.status} after {count} iterations")
    elif converged and count <= r:
        ok, detail = True, "converged before the grade; nothing to check"
    elif converged:
        ok, detail = False, (f"gradient fell below tolerance after {count} "
                             "iterations without any unit step past the grade")
    else:
        ok, detail = True, "no unit step taken at or past the grade, and no termination"
    report.add("unit step past the grade terminates on the spot", ok, detail)

    # each new direction q before the grade, where it is measurable, against
    # the reference conjugate direction of its iteration
    angle_tol = ANGLE_TOL_ILL if prob.condition_number() > ILL_CONDITIONED else ANGLE_TOL
    new = [i for i, rec in enumerate(records[:r]) if rec.q is not None and rec.q.any()]
    Q = _rows([records[i].q for i in new], prob.n)
    floor = DIRECTION_FLOOR * (1.0 + _norms(X[new]) + _norms(P[new]))
    measured = ~(_norms(Q) < floor)
    worst_angle = _worst(_angles(Q[measured],
                                 oracle.conjugate_directions.T[ks[new][measured]]))
    checked = int(measured.sum())
    report.add(
        "new directions parallel to reference conjugate directions",
        worst_angle <= angle_tol,
        f"max angle {worst_angle:.3e} rad over {checked} directions "
        f"(tolerance {angle_tol:.0e}; {len(new) - checked} below the measurable floor)",
        worst_angle,
    )

    # each gradient at x_k + alpha_k p_k + pN_k against the first
    # min(k + 1, r) reference conjugate directions
    g0_norm = norm(prob.gradient(records[0].x)) if records else 0.0
    worst_orth = 0.0
    pairs = 0
    tracked = [i for i, rec in enumerate(records) if rec.newton_step is not None]
    if tracked and g0_norm > 0.0:
        X_hat = (X[tracked] + alphas[tracked, None] * P[tracked]
                 + _rows([records[i].newton_step for i in tracked], prob.n))
        G_hat = prob.H @ np.ascontiguousarray(X_hat.T) + prob.c[:, None]
        Q = oracle.conjugate_directions
        # a reference column is exactly zero once the minimizers stop moving;
        # its component |g'0| is 0, so it scales to 0 and no NaN is formed
        denom = g0_norm * np.linalg.norm(Q, axis=0)
        scaled = np.divide(np.abs(G_hat.T @ Q), denom, where=denom > 0.0,
                           out=np.zeros((len(tracked), Q.shape[1])))
        mask = np.arange(r)[None, :] < np.minimum(ks[tracked] + 1, r)[:, None]
        pairs = int(mask.sum())
        worst_orth = _worst(scaled[mask])
    report.add(
        "restricted Newton step reaches the subspace minimizer",
        worst_orth <= ORTHOGONALITY_RTOL,
        f"max scaled gradient component {worst_orth:.3e} over {pairs} pairs",
        worst_orth,
    )
    return report


def check_unit_step_counts(trace, oracle):
    """Verify the iteration count of an all-unit-step run.

    With every step of length one the method terminates in r+1 iterations,
    or in r when the complement scaling was set to the termination-forcing
    value at iteration r-2 (the starting identity scale when r is 1). The
    memory must collapse to a single direction throughout, by the solver's
    rule on the pN and q recorded with each sigma; a record without them fails.
    """
    r = oracle.grade
    report = CheckReport(check="unit-step-count")
    records = trace.records
    count = len(records)

    alphas = np.array([rec.alpha for rec in records], dtype=float)
    off = np.flatnonzero(np.abs(alphas - 1.0) > UNIT_STEP_ATOL).tolist()
    report.add(
        "every step has unit length", not off,
        "" if not off else f"non-unit steps at iterations {off}",
    )
    _count_findings(report, trace, "iteration count within one of the grade", (r, r + 1), r)

    sigmas = SigmaPolicy.from_spec(trace.meta.get("sigma_policy", {}))
    newton_tuned = sigmas.at == r - 2 and sigmas.scale == 1.0
    expected = r if newton_tuned else r + 1
    report.add(
        "iteration count matches the scaling rule",
        count == expected,
        f"expected {expected} ({'termination-forcing' if newton_tuned else 'generic'}"
        f" scaling), got {count}",
    )

    # the iterations with a sigma, of which those without pN or q are wide
    sig = [i for i, rec in enumerate(records) if rec.sigma is not None]
    both = [i for i in sig if records[i].newton_step is not None and records[i].q is not None]
    PN = _rows([records[i].newton_step for i in both], oracle.problem.n)
    Q = _rows([records[i].q for i in both], oracle.problem.n)
    pn_norms, q_norms = _norms(PN), _norms(Q)
    nonzero = (pn_norms != 0.0) & (q_norms != 0.0)  # else |cos| is 0 by convention
    cos = np.divide(np.abs(_dots(PN, Q)), pn_norms * q_norms,
                    where=nonzero, out=np.zeros(len(both)))
    gaps = 1.0 - np.minimum(1.0, cos)
    # one direction where pN is zero or within COLLAPSE_TOL of q's line,
    # unless the span was already exhausted: q is all exact zeros
    single = ~Q.any(axis=1) | (pn_norms == 0.0) | (gaps <= COLLAPSE_TOL)
    narrow = {i for i, one in zip(both, single) if one}
    wide = [i for i in sig if i not in narrow]
    gaps = gaps[nonzero]
    worst_gap = _worst(gaps) if gaps.size else None
    detail = [f"two-direction memory at iterations {wide}"] if wide else []
    if gaps.size:
        detail.append(f"max 1 - |cos(pN, q)| {worst_gap:.3e} over {gaps.size} "
                      f"iterations (COLLAPSE_TOL {COLLAPSE_TOL:.0e})")
    report.add("memory stays a single direction", not wide, "; ".join(detail),
               worst_gap)
    return report


def check_exact_search_count(trace, oracle):
    """Verify the iteration count of an exact-line-search run.

    Minimizing along each direction keeps the tracked restricted Newton step
    at zero, so every direction is a conjugate direction and the method
    terminates in exactly the grade, like the classical baselines.
    """
    r = oracle.grade
    report = CheckReport(check="exact-search-count")
    _count_findings(report, trace, "iteration count equals the grade", (r,), r)
    return report


def _conjugacy_defect(P, HP):
    """max over i != j of |p_i'Hp_j| / (||Hp_i|| ||p_j||) for the columns p_i
    of P and Hp_i of HP, pairs with a zero norm left out; 0.0 for fewer than
    two directions."""
    denom = np.outer(np.linalg.norm(HP, axis=0), np.linalg.norm(P, axis=0))
    keep = denom != 0.0
    np.fill_diagonal(keep, False)
    return _worst(np.abs(HP.T @ P)[keep] / denom[keep])


def check_conjugate_baseline(trace, oracle):
    """Verify a conjugate-direction baseline run against the problem.

    Checks r-step termination, the terminal gradient, mutual conjugacy of
    the recorded directions, orthogonality of each gradient to all earlier
    directions, and that each iterate is the Krylov-space minimizer. The
    gradients and the directions' images come from the problem, not from
    the recorded ``g`` and ``h_p``.
    """
    prob = oracle.problem
    r = oracle.grade
    x_star = oracle.solution
    report = CheckReport(check="conjugate-baseline")

    _count_findings(report, trace, "terminates in exactly the subspace grade", (r,), r)

    # one product H[x_0 ... x_K, final_x, p_0 ... p_K] gives the gradients
    # G = HX + c and the images HP, not the ones the run recorded
    xs = [rec.x for rec in trace.records]
    if trace.final_x is not None:
        xs.append(trace.final_x)
    M = np.column_stack(xs + [rec.p for rec in trace.records]) if xs \
        else np.zeros((prob.n, 0))
    HM = prob.H @ M
    G = HM[:, :len(xs)] + prob.c[:, None]
    P, HP = M[:, len(xs):], HM[:, len(xs):]
    g0_norm = norm(G[:, 0]) if trace.records else 0.0
    g_scale = BASELINE_GRAD_RTOL * (1.0 + g0_norm)
    final_norm = norm(G[:, -1]) if trace.final_x is not None else None
    report.add(
        "terminal gradient below threshold",
        final_norm is not None and final_norm <= g_scale,
        f"|g| = {final_norm:.3e}, threshold {g_scale:.3e}"
        if final_norm is not None else "no terminal gradient recorded",
        final_norm,
    )

    defect = _conjugacy_defect(P, HP)
    report.add(
        "directions mutually conjugate", defect <= CONJUGACY_TOL,
        f"max scaled cross-curvature {defect:.3e} over {P.shape[1]} directions",
        defect,
    )

    # every gradient g_j, the final one included, against every p_i, i < j;
    # a zero recorded direction has an unbounded scaled component
    worst_orth = 0.0
    if g0_norm > 0.0:
        denom = g0_norm * np.linalg.norm(P, axis=0)
        scaled = np.divide(np.abs(G.T @ P), denom, where=denom > 0.0,
                           out=np.full((G.shape[1], P.shape[1]), np.inf))
        worst_orth = _worst(scaled[np.tri(*scaled.shape, k=-1, dtype=bool)])
    report.add(
        "gradients orthogonal to all earlier directions",
        worst_orth <= ORTHOGONALITY_RTOL,
        f"max scaled component {worst_orth:.3e}",
        worst_orth,
    )

    # iterate j against minimizer j, for j in 1..r
    x_scale = 1.0 + norm(x_star)
    m = min(len(trace.records), r + 1)
    misses = _norms(M[:, 1:m].T - oracle.minimizers.T[1:m]) / x_scale
    if trace.final_x is not None and trace.status == CONVERGED:
        misses = np.append(misses, norm(trace.final_x - x_star) / x_scale)
    worst_iter = _worst(misses)
    report.add(
        "iterates are the subspace minimizers",
        worst_iter <= ITERATE_MATCH_RTOL,
        f"max relative distance {worst_iter:.3e}",
        worst_iter,
    )
    return report


def _field_mismatch(name, a, b, rtol):
    """How one field differs between two traces, or None when it matches.

    Flags (unset reads as False) must be equal; numbers and vectors must
    agree to ``rtol`` relative to the larger magnitude.
    """
    if isinstance(a, (bool, np.bool_)) or isinstance(b, (bool, np.bool_)):
        return None if bool(a) == bool(b) else f"{name} {a} vs {b}"
    if a is None or b is None:
        return None if a is b else f"{name} present in only one trace"
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    size = abs if a.ndim == 0 else norm
    d = float(size(a - b) / (1.0 + max(size(a), size(b))))
    return None if d <= rtol else f"{name} differs by {d:.3e}"


def traces_match(a, b, rtol=1e-6):
    """Field-by-field comparison of two traces of the same run.

    Returns (matched, mismatches) where mismatches is a list of strings
    locating every field of every record, and of the terminal state, that
    differs by more than rtol relative to the larger magnitude.
    """
    mismatches = []
    if a.status != b.status:
        mismatches.append(f"status: {a.status} vs {b.status}")
    if a.reason != b.reason:
        mismatches.append(f"reason: {a.reason!r} vs {b.reason!r}")
    if len(a.records) != len(b.records):
        mismatches.append(
            f"record count: {len(a.records)} vs {len(b.records)}"
        )

    pairs = [(f"record {k}: {f.name}", getattr(ra, f.name), getattr(rb, f.name))
             for k, (ra, rb) in enumerate(zip(a.records, b.records))
             for f in fields(IterateRecord)]
    pairs += [("final x", a.final_x, b.final_x),
              ("final grad_norm", a.final_grad_norm, b.final_grad_norm)]
    mismatches += filter(None, (_field_mismatch(*pair, rtol) for pair in pairs))
    return (not mismatches, mismatches)


# A row of the method table: the spec fields its kind takes besides "kind";
# ``resolve(mspec)``, its runs' settings and label (PolicyError for a bad spec);
# ``run(prob, x0, seed, **kw)``, through the solver's module, where the traced
# benchmark wraps it; ``checks(trace)``, the checks its traces pass, the one on
# termination first.
_MethodKind = namedtuple("_MethodKind", "fields resolve run checks")


def _baseline(kind, solver, **settings):
    """The row of a baseline that ``baselines.<solver>`` runs with ``settings``."""
    return _MethodKind((), lambda mspec: (settings, kind),
                       lambda prob, x0, seed, **kw: getattr(baselines, solver)(prob, x0, **kw),
                       lambda trace: [check_conjugate_baseline])


def _subspace_resolve(mspec):
    steps = StepPolicy.from_spec(mspec.get("step", {}))
    sigmas = SigmaPolicy.from_spec(mspec.get("sigma", {}))
    mode = mspec.get("mode", ORACLE)
    if mode not in (ORACLE, MATRIX_FREE):
        raise PolicyError(f"unknown mode {mode!r}")
    return ({"steps": steps, "sigmas": sigmas, "mode": mode},
            f"qn-subspace({mode},step={steps.descriptor()},sigma={sigmas.descriptor()})")


def _subspace_checks(trace):
    policy = trace.meta.get("step_policy", {})
    if not isinstance(policy, dict) or not isinstance(policy.get("kind", ""), str):
        raise ValueError(f"step_policy {policy!r} is not a step policy spec")
    # the iteration-count check each step policy kind is held to
    count = {"unit": [check_unit_step_counts], "exact": [check_exact_search_count]}
    return [check_newton_onset] + count.get(policy.get("kind"), [])


# Every method a trace can come from, the baselines first.
METHODS = {
    "cg": _baseline("cg", "cg_solve"),
    "bfgs": _baseline("bfgs", "qn_exact_ls_solve", variant="bfgs"),
    "memoryless": _baseline("memoryless", "qn_exact_ls_solve", variant="memoryless"),
    "qn-subspace": _MethodKind(
        ("step", "sigma", "mode"), _subspace_resolve,
        lambda prob, x0, seed, **kw: algorithm.subspace_qn_solve(prob, x0, seed=seed, **kw),
        _subspace_checks),
}


def verify_trace(trace, prob, x0, oracle=None):
    """Run every check that the method table holds this trace's method to.

    ``oracle`` is the :class:`KrylovOracle` of ``prob`` from ``x0``, built
    here when not given; pass one to share its eigendecomposition and
    minimizers across the traces of one problem. Returns a list of
    CheckReport; ValueError for a method without a row or a qn-subspace
    trace whose ``step_policy`` is not a policy spec.
    """
    method = trace.meta.get("method", "")
    row = METHODS.get(method) if isinstance(method, str) else None
    if row is None:
        raise ValueError(f"no checks registered for method {method!r}")
    checks = row.checks(trace)
    oracle = KrylovOracle(prob, x0) if oracle is None else oracle
    return [check(trace, oracle) for check in checks]
