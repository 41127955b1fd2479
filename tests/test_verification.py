"""Trace checks: they pass on honest runs and catch doctored ones."""

import copy
import json
from dataclasses import fields

import warnings

import numpy as np
import pytest
from numpy.linalg import norm

from qnsubspace import (
    MATRIX_FREE,
    ORACLE,
    IterateRecord,
    IterateTrace,
    KrylovOracle,
    SigmaPolicy,
    StepPolicy,
    cg_solve,
    check_conjugate_baseline,
    check_exact_search_count,
    check_newton_onset,
    check_unit_step_counts,
    generate_problem,
    krylov_grade,
    qn_exact_ls_solve,
    subspace_qn_solve,
    traces_match,
    verify_trace,
)
from qnsubspace import verification as V
from qnsubspace.util import norm

import oracles


def copy_trace(trace):
    # not a to_dict round trip: a file leaves out g and the Hessian images
    return copy.deepcopy(trace)


def test_direction_angle_basics():
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    assert V._angles(e1, -3.0 * e1).tolist() == [0.0]  # the line, not the sign
    assert V._angles(e1, e2)[0] == pytest.approx(np.pi / 2, abs=1e-12)
    tiny = V._angles(e1, e1 + 1e-9 * e2)[0]
    assert tiny == pytest.approx(1e-9, rel=1e-6)  # stays accurate near zero
    with pytest.raises(ValueError):
        V._angles(e1, np.zeros((1, 2)))


def test_norm_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(6)
    matrix = rng.standard_normal((9, 4))
    vectors = [
        rng.standard_normal(37),
        matrix[:, 2],  # a strided column
        np.array([5e-324, -2.2250738585072014e-308 / 3, 1e-310]),  # subnormals
        np.array([-0.0]),
        np.array([-0.0, -0.0, 0.0]),
        np.array([1e200, -3e200, 2.0]),  # the squared norm overflows to inf
    ]
    assert not matrix[:, 2].flags.c_contiguous
    for v in vectors:
        with np.errstate(over="ignore"):
            want = np.linalg.norm(v)
            got = norm(v)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), v
    assert got == np.inf


def test_newton_onset_check_raises_no_warning_on_a_zero_reference_column():
    prob, x0 = generate_problem(128, 128, cond=100.0, seed=0)
    oracle = KrylovOracle(prob, x0)
    # the minimizers stop moving before the grade: a reference column is zero
    assert not np.linalg.norm(oracle.conjugate_directions, axis=0).all()
    trace = subspace_qn_solve(prob, x0, seed=1, max_iter=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = verify_trace(trace, prob, x0)
    onset = reports[0].findings[-1]
    assert onset.name == "restricted Newton step reaches the subspace minimizer"
    assert np.isfinite(onset.value)


def test_baseline_check_passes_on_an_honest_run():
    prob, x0 = generate_problem(8, 5, cond=30.0, seed=100)
    report = check_conjugate_baseline(cg_solve(prob, x0, tol=1e-10),
                                      KrylovOracle(prob, x0))
    assert report.check == "conjugate-baseline"
    assert report.passed
    assert len(report.findings) == 6
    assert all(line.startswith("PASS") for line in report.lines())


def test_baseline_check_of_an_empty_trace_fails_without_raising():
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=1)
    report = check_conjugate_baseline(IterateTrace(meta={"method": "cg"}),
                                      KrylovOracle(prob, x0))
    assert len(report.findings) == 6
    assert {f.name for f in report.failures()} == {
        "run converged", "terminates in exactly the subspace grade",
        "terminal gradient below threshold"}


def test_baseline_check_catches_a_doctored_direction():
    prob, x0 = generate_problem(8, 5, cond=30.0, seed=100)
    trace = copy_trace(cg_solve(prob, x0, tol=1e-10))
    rng = np.random.default_rng(0)
    trace.records[2].p = rng.standard_normal(8)
    report = check_conjugate_baseline(trace, KrylovOracle(prob, x0))
    assert not report.passed
    failed = {f.name for f in report.failures()}
    assert "directions mutually conjugate" in failed


def findings(trace, oracle):
    return [(rep.check, f.name, f.passed, f.value) for rep in
            verify_trace(trace, oracle.problem, oracle.origin, oracle) for f in rep.findings]


# Honest runs of every method: the baselines, and qn-subspace with unit and
# exact steps in both modes.
HONEST_SOLVERS = {
    "cg": lambda prob, x0: cg_solve(prob, x0, tol=1e-10),
    "bfgs": lambda prob, x0: qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-10),
    "memoryless": lambda prob, x0: qn_exact_ls_solve(prob, x0, variant="memoryless",
                                                     tol=1e-10),
    **{f"{kind}-{mode}": lambda prob, x0, steps=steps, mode=mode: subspace_qn_solve(
        prob, x0, steps=steps, mode=mode, tol=1e-10, seed=1)
       for kind, steps in (("unit", StepPolicy.unit()),
                           ("exact", StepPolicy.exact_line_search()))
       for mode in (ORACLE, MATRIX_FREE)},
}


@pytest.mark.parametrize("doctor", ["random", "none"])
@pytest.mark.parametrize("solve", HONEST_SOLVERS.values(), ids=HONEST_SOLVERS)
def test_the_fields_a_file_leaves_out_change_no_finding(tmp_path, solve, doctor):
    # the checks read x and p, and q and pN on qn-subspace records: not the
    # gradients a run recorded, which may be carried values, nor the Hessian
    # images, which they take from the problem
    prob, x0 = generate_problem(8, 5, cond=30.0, seed=100)
    oracle = KrylovOracle(prob, x0)
    trace = solve(prob, x0)
    want = findings(trace, oracle)
    assert want and all(passed for _, _, passed, _ in want)
    doctored = copy_trace(trace)
    rng = np.random.default_rng(1)
    for rec in doctored.records:
        for attr in ("g", "h_p", "h_q", "h_newton_step"):
            setattr(rec, attr, rng.standard_normal(8) if doctor == "random" else None)
    assert findings(doctored, oracle) == want

    paths = tmp_path / "honest.json", tmp_path / "doctored.json"
    trace.save(paths[0])
    doctored.save(paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert findings(IterateTrace.load(paths[0]), oracle) == want

    doctored.final_grad_norm = 1e3
    assert findings(doctored, oracle) == want


def save_with_k(path, trace, renumber):
    """Save ``trace`` with its file's k column renumbered: the records have
    no k, so only a file can give one."""
    trace.save(path)
    doc = json.loads(path.read_text())
    doc["iterations"]["k"] = [renumber(k) for k in doc["iterations"]["k"]]
    path.write_text(json.dumps(doc))


def rolled_q(trace):
    rec = trace.records[2]
    rec.q = np.roll(rec.q, 3)
    return rec


# (run, doctor that moves one record's q or pN and returns the record, the
# finding the move fails)
FLAGGED = {
    "uniform-rolled-q": (
        lambda prob, x0: subspace_qn_solve(prob, x0, steps=StepPolicy.uniform(),
                                           seed=1, max_iter=40),
        rolled_q, "new directions parallel to reference conjugate directions"),
    "unit-moved-pN": (lambda prob, x0: subspace_qn_solve(prob, x0, seed=1),
                      lambda trace: pN_off_the_line_of_q(trace),  # defined below
                      "memory stays a single direction"),
}


@pytest.mark.parametrize("solve, doctor, name", FLAGGED.values(), ids=FLAGGED)
def test_an_exhausted_flag_hides_no_failure(tmp_path, solve, doctor, name):
    # exhaustion is read from q, which the solver zeroes exactly where it
    # flags it: a record that claims an exhausted span keeps its findings
    prob, x0 = generate_problem(20, 8, cond=30.0, seed=5)
    oracle = KrylovOracle(prob, x0)
    doctored = copy_trace(solve(prob, x0))
    rec = doctor(doctored)
    assert not rec.exhausted and rec.q.any()
    want = findings(doctored, oracle)
    assert [passed for _, found, passed, _ in want if found == name] == [False]
    rec.exhausted = True
    assert findings(doctored, oracle) == want
    path = tmp_path / "flagged.json"
    doctored.save(path)
    loaded = IterateTrace.load(path)
    assert [r.exhausted for r in loaded.records] == [r.exhausted for r in doctored.records]
    assert findings(loaded, oracle) == want


@pytest.mark.parametrize("seed", [5, 6])
def test_the_solver_flags_exhaustion_exactly_where_q_is_zero(seed):
    prob, x0 = generate_problem(20, 8, cond=30.0, seed=seed)
    flagged = 0
    for solve in GRID_SOLVERS[3:]:
        trace = solve(prob, x0)
        for rec in trace.records:
            if rec.q is not None:
                assert rec.exhausted == (not rec.q.any())
                flagged += rec.exhausted
    assert flagged


def shift_k(trace, path):
    save_with_k(path, trace, lambda k: k - 3)


def zero_k(trace, path):
    save_with_k(path, trace, lambda k: 0)


def save_with_count(path, trace, count):
    """Save ``trace`` with ``count`` in place of its file's status.iterations."""
    trace.save(path)
    doc = json.loads(path.read_text())
    doc["status"]["iterations"] = count
    path.write_text(json.dumps(doc))


def iterations_off_by(change):
    def doctor(trace, path):
        # the count is the number of records: only a file can claim another
        save_with_count(path, trace, trace.iterations + change)
    return doctor


# Each doctor saves a trace with its file's k column or count changed.
COUNT_DOCTORS = {"k-3": shift_k, "k-0": zero_k,
                 "iterations+1": iterations_off_by(1), "iterations-1": iterations_off_by(-1)}


@pytest.mark.parametrize("doctor", COUNT_DOCTORS.values(), ids=COUNT_DOCTORS)
@pytest.mark.parametrize("solve", HONEST_SOLVERS.values(), ids=HONEST_SOLVERS)
def test_the_recorded_iteration_numbers_change_no_finding(tmp_path, solve, doctor):
    # a record's iteration is its position and the count is the number of
    # records, so a file's k column and status.iterations are not read
    prob, x0 = generate_problem(8, 5, cond=30.0, seed=100)
    oracle = KrylovOracle(prob, x0)
    trace = solve(prob, x0)
    assert trace.iterations == len(trace.records) > 3

    def lines(trace):
        return [(rep.check, f.name, f.passed, f.detail, f.value)
                for rep in verify_trace(trace, prob, x0, oracle) for f in rep.findings]

    want = lines(trace)
    honest, path = tmp_path / "honest.json", tmp_path / "doctored.json"
    trace.save(honest)
    doctor(trace, path)
    loaded = IterateTrace.load(path)
    assert loaded.iterations == len(loaded.records) == trace.iterations
    assert lines(loaded) == want
    # no record keeps a file's k: both files load to the same records
    assert traces_match(IterateTrace.load(honest), loaded, rtol=0.0) == (True, [])


def test_a_count_the_records_do_not_show_fails(tmp_path):
    # a cg run cut short of the grade, whose file claims the grade's count
    prob, x0 = generate_problem(16, 4, cond=10.0, seed=104)
    oracle = KrylovOracle(prob, x0)
    assert oracle.grade == 4
    path = tmp_path / "claims_4.json"
    save_with_count(path, cg_solve(prob, x0, max_iter=3), 4)
    trace = IterateTrace.load(path)
    assert len(trace.records) == 3
    finding, = (f for f in check_conjugate_baseline(trace, oracle).findings
                if f.name == "terminates in exactly the subspace grade")
    assert not finding.passed
    assert finding.detail == "3 iterations, grade 4"


def test_baseline_check_catches_a_wrong_count():
    prob, x0 = generate_problem(8, 5, cond=30.0, seed=101)
    trace = copy_trace(cg_solve(prob, x0, tol=1e-10))
    trace.records.pop()
    report = check_conjugate_baseline(trace, KrylovOracle(prob, x0))
    assert any(f.name == "terminates in exactly the subspace grade"
               for f in report.failures())


def test_newton_onset_check_passes_on_an_honest_run():
    prob, x0 = generate_problem(8, 4, cond=15.0, seed=102)
    trace = subspace_qn_solve(
        prob, x0, steps=StepPolicy.unit_after(6), sigmas=SigmaPolicy.uniform(),
        tol=1e-8, max_iter=9, seed=1,
    )
    report = check_newton_onset(trace, KrylovOracle(prob, x0))
    assert report.passed, [f.line() for f in report.failures()]


def test_newton_onset_check_catches_a_faked_unit_step():
    prob, x0 = generate_problem(8, 4, cond=15.0, seed=102)
    trace = subspace_qn_solve(
        prob, x0, steps=StepPolicy.uniform(), sigmas=SigmaPolicy.uniform(),
        tol=1e-9, max_iter=7, seed=2,
    )
    oracle = KrylovOracle(prob, x0)
    assert check_newton_onset(trace, oracle).passed
    doctored = copy_trace(trace)
    doctored.records[-1].alpha = 1.0  # claims a unit step the run never took
    report = check_newton_onset(doctored, oracle)
    assert any(f.name == "unit step past the grade terminates on the spot"
               for f in report.failures())


def test_unit_step_count_check():
    prob, x0 = generate_problem(7, 3, cond=9.0, seed=103)
    oracle = KrylovOracle(prob, x0)
    trace = subspace_qn_solve(prob, x0, tol=1e-9)
    report = check_unit_step_counts(trace, oracle)
    assert report.passed
    assert trace.iterations == 4

    tuned = subspace_qn_solve(prob, x0, sigmas=SigmaPolicy.newton_at(1),
                              tol=1e-9)
    assert tuned.iterations == 3
    assert check_unit_step_counts(tuned, oracle).passed

    # a generic run whose metadata claims the tuned scaling must fail
    liar = copy_trace(trace)
    liar.meta["sigma_policy"] = {"kind": "newton-at", "at": 1, "scale": 1.0}
    report = check_unit_step_counts(liar, oracle)
    assert any(f.name == "iteration count matches the scaling rule"
               for f in report.failures())

    # the memory collapse is derived from the recorded pN and q
    finding, = (f for f in check_unit_step_counts(trace, oracle).findings
                if f.name == "memory stays a single direction")
    assert finding.passed and 0.0 <= finding.value <= V.COLLAPSE_TOL
    assert "COLLAPSE_TOL" in finding.detail
    wide = copy_trace(trace)
    rec = wide.records[1]
    assert rec.sigma is not None
    off = np.arange(1.0, 8.0)
    rec.newton_step = rec.q + norm(rec.q) * (off / norm(off))
    finding, = (f for f in check_unit_step_counts(wide, oracle).findings
                if f.name == "memory stays a single direction")
    assert not finding.passed
    assert finding.detail.startswith("two-direction memory at iterations [1]")
    assert finding.value == 1.0 - oracles.alignment(rec.newton_step, rec.q) > 1e-3


# (run, field, record, the findings that read that field there): the record
# is never the first one a finding reads, so a check that passed a NaN over
# would see a finite worst value
NAN_CASES = {
    "onset": (lambda prob, x0: subspace_qn_solve(
                  prob, x0, steps=StepPolicy.constant(0.5), tol=1e-9, max_iter=9),
              "x", 6, {"full Newton step from the grade onward",
                       "restricted Newton step reaches the subspace minimizer"}),
    "memory": (lambda prob, x0: subspace_qn_solve(prob, x0, tol=1e-9),
               "newton_step", 2, {"memory stays a single direction",
                                  "restricted Newton step reaches the subspace minimizer"}),
    "iterates": (lambda prob, x0: cg_solve(prob, x0, tol=1e-9),
                 "x", 2, {"gradients orthogonal to all earlier directions",
                          "iterates are the subspace minimizers"}),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_a_nan_fails_every_finding_that_reads_it(case):
    solve, attr, k, names = NAN_CASES[case]
    prob, x0 = generate_problem(12, 4, cond=10.0, seed=2)
    honest = solve(prob, x0)
    oracle = KrylovOracle(prob, x0)
    assert oracle.grade == 4 and len(honest.records) > k

    def findings(trace):
        return {f.name: f for rep in verify_trace(trace, prob, x0, oracle)
                for f in rep.findings}

    assert all(findings(honest)[name].passed for name in names)
    doctored = copy_trace(honest)
    setattr(doctored.records[k], attr, np.full(prob.n, np.nan))
    failed = {name for name, f in findings(doctored).items() if not f.passed}
    assert names <= failed, case


def test_exact_search_count_check():
    prob, x0 = generate_problem(9, 5, cond=25.0, seed=104)
    trace = subspace_qn_solve(prob, x0, steps=StepPolicy.exact_line_search(),
                              tol=1e-9)
    oracle = KrylovOracle(prob, x0)
    assert check_exact_search_count(trace, oracle).passed
    cut = subspace_qn_solve(prob, x0, steps=StepPolicy.exact_line_search(),
                            tol=1e-9, max_iter=4)
    report = check_exact_search_count(cut, oracle)
    assert not report.passed


def test_verify_trace_dispatch():
    prob, x0 = generate_problem(6, 3, cond=8.0, seed=105)
    r = krylov_grade(prob, x0)
    assert r == 3

    checks = [rep.check for rep in verify_trace(cg_solve(prob, x0), prob, x0)]
    assert checks == ["conjugate-baseline"]

    unit_run = subspace_qn_solve(prob, x0, tol=1e-9)
    checks = [rep.check for rep in verify_trace(unit_run, prob, x0)]
    assert checks == ["newton-onset", "unit-step-count"]

    exact_run = subspace_qn_solve(prob, x0, steps=StepPolicy.exact_line_search())
    checks = [rep.check for rep in verify_trace(exact_run, prob, x0)]
    assert checks == ["newton-onset", "exact-search-count"]

    random_run = subspace_qn_solve(prob, x0, steps=StepPolicy.uniform(),
                                   tol=1e-8, max_iter=7, seed=9)
    checks = [rep.check for rep in verify_trace(random_run, prob, x0)]
    assert checks == ["newton-onset"]

    nameless = copy_trace(unit_run)
    nameless.meta["method"] = "simplex"
    with pytest.raises(ValueError):
        verify_trace(nameless, prob, x0)


def test_traces_match_reports_a_record_count_difference():
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=1)
    same, mismatches = traces_match(cg_solve(prob, x0), cg_solve(prob, x0, max_iter=1))
    assert not same
    assert "record count: 3 vs 1" in mismatches


def test_traces_match_reports_field_level_differences():
    prob, x0 = generate_problem(6, 4, cond=12.0, seed=106)
    a = subspace_qn_solve(prob, x0, steps=StepPolicy.uniform(), tol=1e-8,
                          max_iter=8, seed=4)
    same, mismatches = traces_match(a, copy_trace(a))
    assert same and mismatches == []

    b = copy_trace(a)
    b.records[1].q = b.records[1].q + 1e-3
    same, mismatches = traces_match(a, b, rtol=1e-6)
    assert not same
    assert any("record 1: q differs" in m for m in mismatches)

    c = copy_trace(a)
    c.records[0].sigma = None
    same, mismatches = traces_match(a, c)
    assert any("sigma present in only one trace" in m for m in mismatches)

    d = copy_trace(a)
    d.status = "breakdown"
    same, mismatches = traces_match(a, d)
    assert any(m.startswith("status:") for m in mismatches)

    def perturbed(value):
        return not value if isinstance(value, bool) else value + 1.0

    assert all(getattr(a.records[1], f.name) is not None for f in fields(IterateRecord))
    for f in fields(IterateRecord):
        e = copy_trace(a)
        setattr(e.records[1], f.name, perturbed(getattr(e.records[1], f.name)))
        same, mismatches = traces_match(a, e)
        assert not same and len(mismatches) == 1, (f.name, mismatches)
        assert mismatches[0].startswith(f"record 1: {f.name} ")

    e = copy_trace(a)
    e.final_grad_norm += 1.0
    assert traces_match(a, e)[1] == [
        f"final grad_norm differs by {1.0 / (2.0 + a.final_grad_norm):.3e}"]
    e = copy_trace(a)
    e.reason = "stopped early"
    assert traces_match(a, e)[1] == ["reason: '' vs 'stopped early'"]


# the seven method columns of the benchmark's CLI grid, with the CLI's budget
GRID_SOLVERS = (
    lambda prob, x0: cg_solve(prob, x0, max_iter=prob.n + 5),
    lambda prob, x0: qn_exact_ls_solve(prob, x0, variant="bfgs", max_iter=prob.n + 5),
    lambda prob, x0: qn_exact_ls_solve(prob, x0, variant="memoryless",
                                       max_iter=prob.n + 5),
    lambda prob, x0: subspace_qn_solve(prob, x0, mode=ORACLE, seed=1),
    lambda prob, x0: subspace_qn_solve(prob, x0, mode=MATRIX_FREE, seed=1),
    lambda prob, x0: subspace_qn_solve(prob, x0, steps=StepPolicy.unit_after(8),
                                       mode=MATRIX_FREE, seed=1),
    lambda prob, x0: subspace_qn_solve(prob, x0, steps=StepPolicy.exact_line_search(),
                                       mode=ORACLE, seed=1),
)


def per_pair_values(trace, prob, x0, basis):
    """The values of the findings the checks compute with matrix products,
    recomputed one pair at a time against per-k reference minimizers.

    Returns {(check, finding): (value, limit)}.
    """
    xs = oracles.subspace_minimizers(prob.H, prob.c, x0, basis)
    qs = [b - a for a, b in zip(xs, xs[1:])]
    r = len(qs)
    records = trace.records
    g0_norm = norm(prob.gradient(records[0].x)) if records else 0.0
    if trace.meta["method"] == "qn-subspace":
        angles = [0.0]
        orth = [0.0]
        for k, rec in enumerate(records):
            if k < r and rec.q is not None and rec.q.any() and \
                    norm(rec.q) >= V.DIRECTION_FLOOR * (1.0 + norm(rec.x) + norm(rec.p)):
                angles.append(oracles.line_angle(rec.q, qs[k]))
            if rec.newton_step is not None and g0_norm > 0.0:
                g_hat = prob.gradient(rec.x + rec.alpha * rec.p + rec.newton_step)
                orth += [abs(g_hat @ q) / (g0_norm * norm(q)) for q in qs[:k + 1]]
        return {
            ("newton-onset", "new directions parallel to reference conjugate directions"):
                (max(angles), V.ANGLE_TOL),
            ("newton-onset", "restricted Newton step reaches the subspace minimizer"):
                (max(orth), V.ORTHOGONALITY_RTOL),
        }

    with_image = [rec for rec in records if rec.h_p is not None]
    defect = oracles.pairwise_conjugacy_defect([rec.p for rec in with_image],
                                               [rec.h_p for rec in with_image])
    grads = [prob.gradient(rec.x) for rec in records]
    if trace.final_x is not None:
        grads.append(prob.gradient(trace.final_x))
    orth = [0.0]
    if g0_norm > 0.0:
        orth += [abs(g_j @ rec.p) / (g0_norm * norm(rec.p))
                 for j, g_j in enumerate(grads) for rec in records[:j]]
    x_star = oracles.dense_solution(prob.H, prob.c)
    x_scale = 1.0 + norm(x_star)
    misses = [norm(rec.x - xs[j]) / x_scale for j, rec in enumerate(records) if 1 <= j <= r]
    if trace.final_x is not None and trace.status == V.CONVERGED:
        misses.append(norm(trace.final_x - x_star) / x_scale)
    return {
        ("conjugate-baseline", "directions mutually conjugate"): (defect, V.CONJUGACY_TOL),
        ("conjugate-baseline", "gradients orthogonal to all earlier directions"):
            (max(orth), V.ORTHOGONALITY_RTOL),
        ("conjugate-baseline", "iterates are the subspace minimizers"):
            (max(misses, default=0.0), V.ITERATE_MATCH_RTOL),
    }


@pytest.mark.parametrize("grade, cond, seed", [(4, 10.0, 201), (8, 10.0, 202), (6, 100.0, 203)])
def test_matrix_product_checks_match_the_per_pair_reference(grade, cond, seed):
    prob, x0 = generate_problem(16, grade, cond=cond, seed=seed)
    oracle = KrylovOracle(prob, x0)
    compared = 0
    for solve in GRID_SOLVERS:
        trace = solve(prob, x0)
        shared = verify_trace(trace, prob, x0, oracle)
        fresh = verify_trace(trace, prob, x0)
        assert [(rep.check, f.name, f.passed, f.value) for rep in shared for f in rep.findings] \
            == [(rep.check, f.name, f.passed, f.value) for rep in fresh for f in rep.findings]
        found = {(rep.check, f.name): f for rep in shared for f in rep.findings}
        for key, (value, limit) in per_pair_values(trace, prob, x0, oracle.basis).items():
            assert found[key].passed == (value <= limit), key
            # the values are rounding residues, most far below 1e-12; the
            # summation order differs, so they agree to 1e-12 of max(1, |value|)
            assert found[key].value == pytest.approx(value, rel=1e-12, abs=1e-12), key
            compared += 1
    assert compared == 3 * 3 + 4 * 2


def swapped_q(trace):
    i, j = [k for k, rec in enumerate(trace.records) if rec.q is not None][:2]
    trace.records[i].q, trace.records[j].q = trace.records[j].q, trace.records[i].q


def pN_off_the_line_of_q(trace):
    rec = next(rec for rec in trace.records if rec.sigma is not None and rec.q is not None)
    off = np.arange(1.0, rec.q.size + 1.0)
    rec.newton_step = rec.q + norm(rec.q) * (off / norm(off))
    return rec


def reversed_q(trace):
    rec = next(rec for rec in trace.records if rec.q is not None)
    rec.q = -rec.q  # the same line, so the same angle


def zero_pN(trace):
    rec = next(rec for rec in trace.records if rec.sigma is not None)
    rec.newton_step = np.zeros_like(rec.x)


def without(attr):
    def doctor(trace):
        setattr(next(rec for rec in trace.records if rec.sigma is not None), attr, None)
    return doctor


def moved_iterate(trace):
    trace.records[1].x = trace.records[1].x + 1e-3


QN_DOCTORS = {"swapped-q": swapped_q, "reversed-q": reversed_q,
              "pN-off-q": pN_off_the_line_of_q, "zero-pN": zero_pN,
              "no-pN": without("newton_step"), "no-q": without("q")}

# the findings each check once decided record by record, and their references
REFERENCE_FINDINGS = {
    "newton-onset": oracles.onset_findings,
    "unit-step-count": oracles.unit_step_findings,
    "conjugate-baseline": oracles.baseline_findings,
}


@pytest.mark.parametrize("n, grade, cond", [
    (n, grade, cond) for n in (64, 128) for grade in (8, 16, 32) for cond in (10.0, 100.0)])
def test_array_checks_match_the_per_record_reference(n, grade, cond):
    prob, x0 = generate_problem(n, grade, cond=cond, seed=[n, grade, int(cond)])
    oracle = KrylovOracle(prob, x0)
    compared = set()
    for solve in GRID_SOLVERS:
        honest = solve(prob, x0)
        doctors = QN_DOCTORS if honest.meta["method"] == "qn-subspace" else \
            {"moved-iterate": moved_iterate}
        for label, doctor in {"honest": None, **doctors}.items():
            trace = copy_trace(honest)
            if doctor is not None:
                doctor(trace)
            for report in verify_trace(trace, prob, x0, oracle):
                reference = REFERENCE_FINDINGS.get(report.check)
                if reference is None:
                    continue
                found = {f.name: f for f in report.findings}
                for name, (passed, value) in reference(trace, oracle, V).items():
                    assert found[name].passed == passed, (label, name)
                    if value is None:
                        assert found[name].value is None, (label, name)
                    else:
                        assert abs(found[name].value - value) <= 1e-12 * max(1.0, abs(value)), \
                            (label, name)
                    compared.add((report.check, label))
    assert {check for check, _ in compared} == set(REFERENCE_FINDINGS)
    assert {label for _, label in compared} == {"honest", "moved-iterate", *QN_DOCTORS}
