"""Acceptance suite: nine numbered criteria, one verdict line each.

Each criterion sweeps seeded random instances at desk scale and prints a
single PASS/FAIL line (collected via _report, shown in the terminal summary).
Tolerances are pinned next to each criterion.
"""

import functools
import json
import time

import numpy as np
from numpy.linalg import norm

from qnsubspace import (
    CONVERGED,
    MATRIX_FREE,
    MAX_ITER,
    ORACLE,
    KrylovOracle,
    QuadraticProblem,
    SigmaPolicy,
    StepPolicy,
    cg_solve,
    generate_problem,
    newton_scaling,
    qn_exact_ls_solve,
    subspace_qn_solve,
    traces_match,
)
from qnsubspace.cli import main as cli_main

import _report
import oracles

N_INSTANCES = 100

BASELINE_GRAD_LIMIT = 1e-8     # criterion 1: terminal |g| / (1 + |g0|)
BASELINE_TIME_LIMIT = 5.0      # criterion 1: seconds for the full sweep
ANGLE_LIMIT = 1e-6             # criterion 2: radians (well conditioned)
COMPOSE_LIMIT = 1e-8           # criterion 3: relative to 1 + |minimizer|
MEMORY_AGREE_LIMIT = 1e-8      # criterion 4: relative step agreement
SPLIT_LIMIT = 1e-8             # criterion 4: step decomposition residual
LATE_NEWTON_LIMIT = 1e-7       # criterion 5a: relative to 1 + |x*|
ARBITRARY_TIME_LIMIT = 10.0    # criterion 5: seconds for all three parts
RUN_TOL = 1e-8                 # criteria 4, 5a, 5b, 7: termination threshold
NO_UNIT_TOL = 1e-9             # criterion 5c: threshold no random walk hits
TRACE_MATCH_RTOL = 1e-6        # criterion 7
HAND_TRACE_ATOL = 1e-12        # criterion 8


def criterion(name):
    """Record one verdict line for the wrapped test, then assert it."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                passed, detail = fn(*args, **kwargs)
            except Exception as exc:
                _report.record(name, False, f"unexpected error: {exc!r}")
                raise
            _report.record(name, passed, detail)
            assert passed, f"{name}: {detail}"
        return run
    return wrap


def spectrum_with_grade(r, n, seed):
    """n eigenvalues with exactly r distinct integer values 1..r."""
    rng = np.random.default_rng(seed)
    fill = rng.choice(np.arange(1, r + 1), size=n - r)
    return np.sort(np.concatenate([np.arange(1.0, r + 1.0), fill.astype(float)]))


def draw_instance(tag, max_n=16, max_r=8, max_cond=30.0):
    rng = np.random.default_rng(tag)
    n = int(rng.integers(2, max_n + 1))
    r = int(rng.integers(1, min(n, max_r) + 1))
    cond = float(np.exp(rng.uniform(np.log(2.0), np.log(max_cond))))
    prob, x0 = generate_problem(n, r, cond=cond, seed=tag)
    return prob, x0, r


_sweep_cache = None


def baseline_sweep():
    """100 instances (grades 1..16), each solved by the three baselines."""
    global _sweep_cache
    if _sweep_cache is None:
        started = time.perf_counter()
        runs = []
        for i in range(N_INSTANCES):
            r = 1 + i % 16
            n = r + 4
            prob, x0 = generate_problem(
                n, r, eigenvalues=spectrum_with_grade(r, n, 200 + i),
                seed=200 + i)
            traces = {
                "cg": cg_solve(prob, x0, tol=1e-8),
                "bfgs": qn_exact_ls_solve(prob, x0, variant="bfgs", tol=1e-8),
                "memoryless": qn_exact_ls_solve(prob, x0,
                                                variant="memoryless", tol=1e-8),
            }
            runs.append((prob, x0, r, traces))
        _sweep_cache = (runs, time.perf_counter() - started)
    return _sweep_cache


@criterion("criterion 1 (baselines finish in exactly the grade)")
def test_criterion_1_baseline_termination():
    runs, elapsed = baseline_sweep()
    bad = []
    worst_grad = 0.0
    for prob, x0, r, traces in runs:
        g0 = norm(prob.gradient(x0))
        for method, trace in traces.items():
            if trace.status != CONVERGED or trace.iterations != r:
                bad.append((method, r, trace.status, trace.iterations))
            worst_grad = max(worst_grad, trace.final_grad_norm / (1.0 + g0))
    passed = (not bad and worst_grad <= BASELINE_GRAD_LIMIT
              and elapsed <= BASELINE_TIME_LIMIT)
    return passed, (
        f"{3 * len(runs)} runs over grades 1..16; "
        f"{'all' if not bad else 3 * len(runs) - len(bad)} terminated in "
        f"exactly the grade; worst terminal |g|/(1+|g0|) {worst_grad:.2e} "
        f"(limit {BASELINE_GRAD_LIMIT:.0e}); sweep {elapsed:.2f}s "
        f"(limit {BASELINE_TIME_LIMIT:.0f}s)"
        + (f"; failures {bad[:3]}" if bad else "")
    )


@criterion("criterion 2 (all baselines walk the reference directions)")
def test_criterion_2_direction_agreement():
    runs, _ = baseline_sweep()
    worst = 0.0
    compared = 0
    for prob, x0, r, traces in runs:
        oracle = KrylovOracle(prob, x0)
        for k in range(r):
            dirs = [traces[m].records[k].p for m in ("cg", "bfgs", "memoryless")]
            dirs.append(oracle.conjugate_direction(k))
            for i in range(len(dirs)):
                for j in range(i + 1, len(dirs)):
                    worst = max(worst, oracles.line_angle(dirs[i], dirs[j]))
                    compared += 1
    return worst <= ANGLE_LIMIT, (
        f"worst pairwise angle {worst:.2e} rad over {compared} comparisons "
        f"(limit {ANGLE_LIMIT:.0e})"
    )


@criterion("criterion 3 (step extension composes to the subspace minimizers)")
def test_criterion_3_extension_composes():
    worst = 0.0
    checked = 0
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(3000 + i)
        n = int(rng.integers(2, 25))
        r = int(rng.integers(1, min(n, 10) + 1))
        cond = float(np.exp(rng.uniform(np.log(2.0), np.log(100.0))))
        prob, x0 = generate_problem(n, r, cond=cond, seed=3000 + i)
        oracle = KrylovOracle(prob, x0)

        g0 = prob.gradient(x0)
        step = newton_scaling(g0, -g0, prob.hessian_action(-g0)) * (-g0)
        q_prev = step.copy()
        ref = oracle.minimizer(1)
        worst = max(worst, norm(x0 + step - ref) / (1.0 + norm(ref)))
        checked += 1
        for k in range(1, r):
            g_hat = prob.gradient(x0 + step)
            ext = oracles.extend_step(step, q_prev, g_hat, prob.hessian_action)
            step, q_prev = ext.step, ext.direction
            ref = oracle.minimizer(k + 1)
            worst = max(worst, norm(x0 + step - ref) / (1.0 + norm(ref)))
            checked += 1
    return worst <= COMPOSE_LIMIT, (
        f"worst composed-step miss {worst:.2e} relative over {checked} "
        f"partial extensions on {N_INSTANCES} instances "
        f"(limit {COMPOSE_LIMIT:.0e})"
    )


@criterion("criterion 4 (two-direction memory equals full memory)")
def test_criterion_4_memory_equivalence():
    worst_agree = 0.0
    worst_split = 0.0
    for i in range(N_INSTANCES):
        prob, x0, r = draw_instance(10_000 + i)
        oracle = KrylovOracle(prob, x0)
        trace = subspace_qn_solve(
            prob, x0, steps=StepPolicy.uniform(), sigmas=SigmaPolicy.uniform(),
            mode=ORACLE, tol=RUN_TOL, max_iter=r + 4, seed=10_000 + i,
        )
        P = HP = np.zeros((prob.n, 0))  # the full memory, one column per direction
        sigma_prev = trace.meta["initial_sigma"]
        newton_prev = np.zeros(prob.n)
        for k, rec in enumerate(trace.records):
            scale = 1.0 + norm(rec.p)
            full = np.linalg.solve(oracles.span_approx(P, HP, sigma_prev), -rec.g)
            worst_agree = max(worst_agree, norm(full - rec.p) / scale)

            # reconstruct the step split from reference quantities alone:
            # the upcoming direction with unit coefficient on the negated
            # subspace gradient, which does not depend on the iterate
            if k < r:
                g_hat = prob.gradient(oracle.minimizer(k))
                if k == 0:
                    q_up = -g_hat
                else:
                    q_ref = oracle.conjugate_direction(k - 1)
                    h_q = prob.hessian_action(q_ref)
                    q_up = -g_hat + (float(g_hat @ h_q) / float(q_ref @ h_q)) * q_ref
                split = newton_prev + q_up / sigma_prev
            else:
                split = newton_prev
            worst_split = max(worst_split, norm(split - rec.p) / scale)

            if rec.q is not None and norm(rec.q) > 0.0:
                P, HP = np.column_stack([P, rec.q]), np.column_stack([HP, rec.h_q])
            sigma_prev = rec.sigma
            newton_prev = rec.newton_step
    passed = worst_agree <= MEMORY_AGREE_LIMIT and worst_split <= SPLIT_LIMIT
    return passed, (
        f"worst full-memory solve disagreement {worst_agree:.2e}, worst "
        f"step-split residual {worst_split:.2e} over {N_INSTANCES} runs "
        f"(limits {MEMORY_AGREE_LIMIT:.0e})"
    )


@criterion("criterion 5 (termination needs exactly one late unit step)")
def test_criterion_5_arbitrary_steps():
    started = time.perf_counter()
    worst_miss = 0.0
    stop_fail = []
    drift_fail = []
    for i in range(N_INSTANCES):
        prob, x0, r = draw_instance(10_000 + i)
        x_star = oracles.dense_solution(prob.H, prob.c)
        scale = 1.0 + norm(x_star)

        free = subspace_qn_solve(
            prob, x0, steps=StepPolicy.uniform(0.1, 2.0),
            sigmas=SigmaPolicy.uniform(0.5, 2.0),
            tol=RUN_TOL, max_iter=r + 4, seed=10_000 + i,
        )
        for k, rec in enumerate(free.records):
            if k >= r:
                worst_miss = max(worst_miss, norm(rec.x + rec.p - x_star) / scale)

        k0 = r + i % 3
        stopped = subspace_qn_solve(
            prob, x0, steps=StepPolicy.unit_after(k0),
            sigmas=SigmaPolicy.uniform(0.5, 2.0),
            tol=RUN_TOL, max_iter=k0 + 3, seed=10_000 + i,
        )
        if not (stopped.status == CONVERGED and stopped.iterations == k0 + 1
                and stopped.records[-1].alpha == 1.0):
            stop_fail.append((i, stopped.status, stopped.iterations, k0))

        drifting = subspace_qn_solve(
            prob, x0, steps=StepPolicy.uniform(0.1, 2.0),
            sigmas=SigmaPolicy.uniform(0.5, 2.0),
            tol=NO_UNIT_TOL, max_iter=r + 4, seed=10_000 + i,
        )
        if drifting.status != MAX_ITER:
            drift_fail.append((i, drifting.status, drifting.iterations))
    elapsed = time.perf_counter() - started
    passed = (worst_miss <= LATE_NEWTON_LIMIT and not stop_fail
              and not drift_fail and elapsed <= ARBITRARY_TIME_LIMIT)
    return passed, (
        f"(a) worst late-step miss {worst_miss:.2e} "
        f"(limit {LATE_NEWTON_LIMIT:.0e}); "
        f"(b) {N_INSTANCES - len(stop_fail)}/{N_INSTANCES} runs terminated on "
        f"their chosen late unit step; "
        f"(c) {N_INSTANCES - len(drift_fail)}/{N_INSTANCES} unit-free runs hit "
        f"the budget unterminated; {elapsed:.2f}s "
        f"(limit {ARBITRARY_TIME_LIMIT:.0f}s)"
        + (f"; stop failures {stop_fail[:3]}" if stop_fail else "")
        + (f"; drift failures {drift_fail[:3]}" if drift_fail else "")
    )


@criterion("criterion 6 (unit-step counts obey the scaling rule)")
def test_criterion_6_unit_step_counts():
    bad = []
    total = 0
    for r in range(1, 9):
        for seed in (600, 601):
            prob, x0 = generate_problem(
                12, r, eigenvalues=np.arange(1.0, 13.0), seed=seed + 10 * r)
            at = r - 2  # start-identity scaling when r is 1
            cases = (
                (None, r + 1, "generic"),
                (SigmaPolicy.newton_at(at), r, "tuned"),
                (SigmaPolicy.newton_at(at, scale=1.1), r + 1, "tuned+10%"),
                (SigmaPolicy.newton_at(at, scale=0.9), r + 1, "tuned-10%"),
            )
            for sigmas, want, label in cases:
                trace = subspace_qn_solve(prob, x0, sigmas=sigmas, tol=1e-9)
                total += 1
                if not (trace.status == CONVERGED and trace.iterations == want):
                    bad.append((label, r, trace.status, trace.iterations, want))
    return not bad, (
        f"{total - len(bad)}/{total} unit-step runs over grades 1..8 matched "
        "the expected count (tuned scaling -> r; generic and 10% rescaled -> "
        "r + 1)" + (f"; failures {bad[:4]}" if bad else "")
    )


@criterion("criterion 7 (gradient-difference mode replays the direct mode)")
def test_criterion_7_matrix_free_agreement():
    mismatched = []
    for i in range(N_INSTANCES):
        prob, x0, r = draw_instance(1000 + i)
        kw = dict(steps=StepPolicy.uniform(), sigmas=SigmaPolicy.uniform(),
                  tol=RUN_TOL, max_iter=r + 4, seed=(4, i))
        direct = subspace_qn_solve(prob, x0, mode=ORACLE, **kw)
        replay = subspace_qn_solve(prob, x0, mode=MATRIX_FREE, **kw)
        same, details = traces_match(direct, replay, rtol=TRACE_MATCH_RTOL)
        if not same:
            mismatched.append((i, details[:2]))
    return not mismatched, (
        f"{N_INSTANCES - len(mismatched)}/{N_INSTANCES} trace pairs agree on "
        f"every field within {TRACE_MATCH_RTOL:.0e}"
        + (f"; first mismatches {mismatched[:2]}" if mismatched else "")
    )


@criterion("criterion 8 (two-dimensional run reproduces the exact trajectory)")
def test_criterion_8_hand_trace():
    prob = QuadraticProblem(np.diag([1.0, 2.0]), np.array([-1.0, -1.0]))
    ref = oracles.rational_unit_trace()
    xs = [np.array([float(a), float(b)]) for a, b in ref["x"]]

    worst = 0.0
    trace = subspace_qn_solve(prob, np.zeros(2), tol=1e-12)
    ok = trace.status == CONVERGED and trace.iterations == 3
    for rec, x_ref in zip(trace.records, xs):
        worst = max(worst, norm(rec.x - x_ref))
    worst = max(worst, norm(trace.final_x - xs[3]))

    sigma_ref = float(oracles.rational_newton_sigma())
    tuned = subspace_qn_solve(prob, np.zeros(2),
                              sigmas=SigmaPolicy.newton_at(0), tol=1e-12)
    ok = ok and tuned.status == CONVERGED and tuned.iterations == 2
    worst = max(worst, abs(tuned.records[0].sigma - sigma_ref))
    worst = max(worst, norm(tuned.final_x - xs[3]))

    return ok and worst <= HAND_TRACE_ATOL, (
        f"unit-scaling run hits (1,1), (10/9,4/9), (1,1/2); retuned scaling "
        f"{sigma_ref:g} lands after two steps; worst deviation from the "
        f"rational reference {worst:.2e} (limit {HAND_TRACE_ATOL:.0e})"
    )


@criterion("criterion 9 (experiment runs reproduce byte for byte)")
def test_criterion_9_cli_reproducibility(tmp_path):
    spec = {
        "seed": 17,
        "tol": 1e-9,
        "problems": [
            {"n": 8, "r": 4, "cond": 25.0},
            {"n": 6, "r": 3, "cond": 9.0, "id": "alt"},
        ],
        "methods": [
            {"kind": "cg"},
            {"kind": "bfgs"},
            {"kind": "memoryless"},
            {"kind": "qn-subspace", "step": {"kind": "unit"}},
            {"kind": "qn-subspace", "mode": "matrix-free",
             "step": {"kind": "unit-after", "start": 5},
             "sigma": {"kind": "uniform"}},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["run", "--spec", str(spec_path), "--out-dir", str(out)])
        if code != 0:
            return False, f"run into {tag}/ exited with code {code}"
        outputs.append({name: (out / name).read_bytes()
                        for name in ("summary.csv", "curves.csv")})
    identical = outputs[0] == outputs[1]
    sizes = ", ".join(f"{name} {len(data)}B"
                      for name, data in sorted(outputs[0].items()))
    return identical, (
        f"repeated runs wrote identical tables ({sizes})"
        if identical else "repeated runs differ"
    )
