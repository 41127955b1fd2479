"""On-disk layout of trace and problem files: one line of sorted-key JSON."""

import json

import numpy as np

from qnsubspace import (
    BREAKDOWN,
    IterateTrace,
    StepPolicy,
    generate_problem,
    load_problem,
    save_problem,
    subspace_qn_solve,
)
from qnsubspace.problem import problem_to_dict


def one_line(payload):
    return json.dumps(payload, sort_keys=True) + "\n"


def sample_traces():
    prob, x0 = generate_problem(8, 5, cond=20.0, seed=3)
    run = subspace_qn_solve(prob, x0, steps=StepPolicy.uniform(), tol=1e-9,
                            max_iter=9, seed=4)
    run.meta["wall_time_ms"] = 1.25
    run.warnings.append("iteration 2: a warning")
    breakdown = IterateTrace(
        status=BREAKDOWN, reason="solver raised", final_x=np.asarray(x0),
        final_grad_norm=float(np.linalg.norm(prob.gradient(x0))),
        meta={"method": "cg"},
    )
    return run, breakdown


def test_trace_file_is_one_line_of_sorted_json(tmp_path):
    run, breakdown = sample_traces()
    assert len(run.records) > 1 and not breakdown.records
    for i, trace in enumerate((run, breakdown)):
        path = tmp_path / f"t{i}.json"
        trace.save(path)
        text = path.read_text()
        assert text == one_line(trace.to_dict())
        assert text.count("\n") == 1
        assert IterateTrace.load(path).to_dict() == trace.to_dict()


def test_indented_trace_files_still_load(tmp_path):
    run, _ = sample_traces()
    path = tmp_path / "indented.json"
    with open(path, "w") as fh:
        json.dump(run.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert IterateTrace.load(path).to_dict() == run.to_dict()


def test_problem_file_is_one_line_and_indented_files_load(tmp_path):
    prob, x0 = generate_problem(6, 3, cond=10.0, seed=5)
    path = tmp_path / "p.json"
    save_problem(path, prob, x0, seed=[5, 1], spec={"n": 6, "grade": 3})
    payload = problem_to_dict(prob, x0, seed=[5, 1], spec={"n": 6, "grade": 3})
    assert path.read_text() == one_line(payload)

    indented = tmp_path / "indented.json"
    with open(indented, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for p in (path, indented):
        loaded, x0_loaded, meta = load_problem(p)
        assert np.array_equal(loaded.H, prob.H)
        assert np.array_equal(loaded.c, prob.c)
        assert np.array_equal(x0_loaded, x0)
        assert meta == {"seed": [5, 1], "spec": {"n": 6, "grade": 3}}
