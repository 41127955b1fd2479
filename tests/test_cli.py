"""Experiment harness: subcommands, artifacts, exit codes, reproducibility."""

import base64
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qnsubspace import IterateTrace, cli, load_problem, problem, traces_match
from qnsubspace.cli import (
    EXIT_BREAKDOWN,
    EXIT_CHECK_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    SUMMARY_COLUMNS,
    main,
)


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


BASE_SPEC = {
    "seed": 7,
    "tol": 1e-9,
    "problems": [
        {"n": 6, "r": 3, "cond": 10.0},
        {"n": 5, "r": 2, "cond": 4.0, "id": "small"},
    ],
    "methods": [
        {"kind": "cg"},
        {"kind": "bfgs"},
        {"kind": "memoryless"},
        {"kind": "qn-subspace", "step": {"kind": "unit"}},
        {"kind": "qn-subspace", "mode": "matrix-free",
         "step": {"kind": "unit-after", "start": 4},
         "sigma": {"kind": "uniform"}},
    ],
}


# A run of cg, bfgs, memoryless and qn-subspace on one n = 6 problem, saved
# in the qnsubspace-trace-v2 form by the last release that wrote it.
V2_FIXTURE = Path(__file__).parent / "data" / "trace_v2"
V2_PROBLEM = V2_FIXTURE / "problems" / "p000.json"


def floats(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def b64(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_generate_writes_loadable_problems(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 3,
        "problems": [
            {"n": 6, "r": 3, "cond": 10.0},
            {"n": 4, "grade": 2, "cond": 5.0, "id": "tiny"},
        ],
    })
    out = tmp_path / "problems"
    assert main(["generate", "--spec", spec, "--out-dir", str(out)]) == EXIT_PASS
    printed = capsys.readouterr().out
    assert "p000: n=6 grade=3" in printed
    prob, x0, meta = load_problem(out / "tiny.json")
    assert prob.n == 4
    assert meta["seed"] == [3, 1]
    assert meta["spec"]["grade"] == 2


def test_run_writes_tables_and_traces(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", BASE_SPEC)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_PASS
    assert "all checks passed" in capsys.readouterr().out

    rows = read_rows(out / "summary.csv")
    assert len(rows) == 10  # 2 problems x 5 methods
    assert list(rows[0].keys()) == list(SUMMARY_COLUMNS)
    assert all(row["status"] == "converged" for row in rows)
    assert all(row["termination_check"] == "pass" for row in rows)
    for row in rows:
        if row["method"] == "cg":
            assert row["iterations"] == row["grade"]

    curves = read_rows(out / "curves.csv")
    assert {c["method"] for c in curves} >= {"cg", "bfgs", "memoryless"}
    # every run contributes its terminal gradient as a final curve point
    p000 = [c for c in curves if c["problem_id"] == "p000" and c["method"] == "cg"]
    assert [int(c["k"]) for c in p000] == [0, 1, 2, 3]

    traces = sorted((out / "traces").iterdir())
    assert len(traces) == 10
    payload = json.loads(traces[0].read_text())
    assert payload["schema"] == "qnsubspace-trace-v3"
    assert "wall_time_ms" in payload["meta"]

    # each problem file names the spectrum saved beside it
    problems = sorted(p.name for p in (out / "problems").iterdir())
    assert problems == ["p000.json", "p000.spectrum.npy",
                        "small.json", "small.spectrum.npy"]
    assert json.loads((out / "problems" / "small.json").read_text())["spectrum"] \
        == "small.spectrum.npy"


def test_run_is_reproducible_byte_for_byte(tmp_path):
    spec = write_spec(tmp_path / "spec.json", BASE_SPEC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--spec", spec, "--out-dir", str(out_a)]) == EXIT_PASS
    assert main(["run", "--spec", spec, "--out-dir", str(out_b)]) == EXIT_PASS
    for name in ("summary.csv", "curves.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_seed_override_changes_random_methods(tmp_path):
    spec_payload = {
        "seed": 7,
        "problems": [{"n": 6, "r": 3, "cond": 10.0, "seed": [9, 9]}],
        "methods": [{"kind": "qn-subspace",
                     "step": {"kind": "unit-after", "start": 4}}],
    }
    spec = write_spec(tmp_path / "spec.json", spec_payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--spec", spec, "--out-dir", str(out_a)])
    main(["run", "--spec", spec, "--out-dir", str(out_b), "--seed", "8"])
    # same problem and spectrum (its seed is pinned), different method randomness
    for name in ("p000.json", "p000.spectrum.npy"):
        assert (out_a / "problems" / name).read_bytes() \
            == (out_b / "problems" / name).read_bytes()
    assert (out_a / "curves.csv").read_bytes() != (out_b / "curves.csv").read_bytes()


def test_run_from_saved_problem(tmp_path):
    gen_spec = write_spec(tmp_path / "gen.json", {
        "seed": 11,
        "problems": [{"n": 6, "r": 4, "cond": 12.0, "id": "disk"}],
    })
    pdir = tmp_path / "problems"
    assert main(["generate", "--spec", gen_spec, "--out-dir", str(pdir)]) == EXIT_PASS

    run_spec = write_spec(tmp_path / "run.json", {
        "problems": [{"path": str(pdir / "disk.json")}],
        "methods": [{"kind": "cg"}],
    })
    out = tmp_path / "out"
    assert main(["run", "--spec", run_spec, "--out-dir", str(out)]) == EXIT_PASS
    rows = read_rows(out / "summary.csv")
    assert rows[0]["problem_id"] == "disk"
    assert rows[0]["grade"] == "4"
    assert rows[0]["iterations"] == "4"


def test_a_methods_mode_reaches_its_trace(tmp_path):
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": 5, "r": 2, "cond": 6.0}],
        "methods": [{"kind": "qn-subspace", "mode": "matrix-free"}],
    })
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_PASS
    trace = json.loads(next((out / "traces").glob("*.json")).read_text())
    assert trace["meta"]["mode"] == "matrix-free"
    assert "matrix-free" in trace["meta"]["method_label"]


def test_run_reports_failed_checks(tmp_path, capsys):
    # unit steps need grade + 1 iterations; capping at the grade leaves the
    # run unterminated and the iteration-count check red
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": 6, "r": 3, "cond": 9.0}],
        "methods": [{"kind": "qn-subspace", "step": {"kind": "unit"}}],
        "max_iter": 3,
    })
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_CHECK_FAIL
    assert "failed check" in capsys.readouterr().err
    row = read_rows(out / "summary.csv")[0]
    assert row["status"] == "max-iter"
    assert row["unit_step_check"] == "fail"


def test_run_reports_breakdowns(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": 6, "r": 3, "cond": 9.0}],
        "methods": [{"kind": "cg"}],
        "max_iter": 1,
    })
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_BREAKDOWN
    assert "breakdown" in capsys.readouterr().err
    row = read_rows(out / "summary.csv")[0]
    assert row["status"] == "breakdown"
    assert row["termination_check"] == "n/a"


def test_a_policy_failure_mid_run_keeps_the_runs_own_trace(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": 6, "r": 4, "cond": 8.0, "seed": 92}],
        "methods": [{"kind": "qn-subspace",
                     "step": {"kind": "schedule", "values": [0.5, 0.5]},
                     "sigma": {"kind": "constant", "value": 2.0}}],
    })
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_BREAKDOWN
    row = read_rows(out / "summary.csv")[0]
    assert (row["status"], row["iterations"]) == ("breakdown", "2")
    # one row per record plus the final gradient
    assert [r["k"] for r in read_rows(out / "curves.csv")] == ["0", "1", "2"]
    trace_path = next((out / "traces").glob("*.json"))
    meta = json.loads(trace_path.read_text())["meta"]
    assert meta["step_policy"] == {"kind": "schedule", "values": [0.5, 0.5]}
    assert meta["sigma_policy"] == {"kind": "constant", "value": 2.0}
    capsys.readouterr()

    code = main(["verify", "--trace", str(trace_path),
                 "--problem", str(out / "problems" / "p000.json")])
    assert code == EXIT_BREAKDOWN
    assert "step schedule exhausted at iteration 2" in capsys.readouterr().out


def test_verify_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 2,
        "problems": [{"n": 6, "r": 3, "cond": 10.0}],
        "methods": [{"kind": "cg"}],
    })
    out = tmp_path / "out"
    main(["run", "--spec", spec, "--out-dir", str(out)])
    capsys.readouterr()
    trace_path = next((out / "traces").glob("*.json"))
    problem_path = out / "problems" / "p000.json"

    code = main(["verify", "--trace", str(trace_path),
                 "--problem", str(problem_path)])
    printed = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "[conjugate-baseline]" in printed
    assert "all checks passed" in printed

    payload = json.loads(trace_path.read_text())
    p = payload["iterations"]["p"]
    rows = floats(p["data"]).reshape(-1, 6).copy()
    rows[1] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    p["data"] = b64(rows)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(payload))
    code = main(["verify", "--trace", str(doctored),
                 "--problem", str(problem_path)])
    printed = capsys.readouterr().out
    assert code == EXIT_CHECK_FAIL
    assert "FAIL" in printed


def test_verify_of_a_trace_with_an_infinite_final_gradient_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 2,
        "problems": [{"n": 6, "r": 3, "cond": 10.0}],
        "methods": [{"kind": "qn-subspace",
                     "step": {"kind": "constant", "value": 1e308}}],
    })
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):  # the step overflows the gradient
        assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_BREAKDOWN
    trace_path = next((out / "traces").glob("*.json"))
    assert '"final": {"grad_norm": Infinity, ' in trace_path.read_text()
    capsys.readouterr()

    code = main(["verify", "--trace", str(trace_path),
                 "--problem", str(out / "problems" / "p000.json")])
    assert code == EXIT_BREAKDOWN
    assert "gradient is not finite at iterate 1" in capsys.readouterr().out


def test_the_shared_parser_behaves_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 2, "tol": 1e-10, "problems": [{"n": 6, "r": 3, "cond": 10.0}],
        "methods": [{"kind": "cg"}, {"kind": "qn-subspace"}],
    })
    out = tmp_path / "out"
    commands = [
        ["run", "--spec", spec, "--out-dir", str(out)],
        ["verify", "--trace", "missing-problem.json"],  # --problem is required
        ["verify", "--trace", str(out / "traces" / "p000__m01_qn-subspace.json"),
         "--problem", str(out / "problems" / "p000.json")],
    ]

    def outcomes():
        seen = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            printed = capsys.readouterr()
            seen.append((code, printed.out, printed.err))
        return seen

    assert cli.build_parser() is cli.build_parser()
    shared = outcomes()
    assert [code for code, _, _ in shared] == [EXIT_PASS, EXIT_USAGE, EXIT_PASS]
    assert "the following arguments are required: --problem" in shared[1][2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert outcomes() == shared


def with_column(key, **changes):
    """Doctor of a v3 trace that replaces fields of column ``key``, each a
    function of the column and the record count."""
    return lambda d: d["iterations"][key].update(
        {name: change(d["iterations"][key], len(d["iterations"]["k"]))
         for name, change in changes.items()})


def doctored_verify(tmp_path, capsys, trace_path, problem_path, doctor):
    """Exit code and stderr of ``verify`` on a copy of the trace edited in
    place by ``doctor``."""
    payload = json.loads(trace_path.read_text())
    doctor(payload)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["verify", "--trace", str(doctored), "--problem", str(problem_path)])
    return code, capsys.readouterr().err


# Each case edits a column or the final state of a 6-dimensional trace. 32
# base64 characters are 3 whole floats, so they decode cleanly. A qn-subspace
# run that converges sets no sigma on its last record, so sigma lists its rows.
@pytest.mark.parametrize("corrupt", [
    with_column("x", data=lambda c, m: c["data"][:-5]),  # truncated: incorrect padding
    # whole base64 quanta dropped: 5 bytes left over
    with_column("p", data=lambda c, m: c["data"][:-4]),
    with_column("x", data=lambda c, m: "*" + c["data"][1:]),  # outside the alphabet
    with_column("q", data=lambda c, m: c["data"][:32]),  # shorter than its rows
    with_column("pN", data=lambda c, m: c["data"][:32]),
    lambda d: d["final"].update(x=d["final"]["x"][:3]),
    lambda d: d["iterations"].update(x=[1.0, 2.0, 3.0]),  # a number list for a column
    with_column("alpha", data=lambda c, m: b64(floats(c["data"])[:-1])),
    with_column("sigma", rows=lambda c, m: [*c["rows"][:-1], m]),  # out of range
    with_column("sigma", rows=lambda c, m: [-1, *c["rows"][1:]]),
    with_column("sigma", rows=lambda c, m: c["rows"][:-1]),  # fewer rows than data
    with_column("sigma", rows=lambda c, m: [*c["rows"], m - 1]),  # more rows than data
    with_column("sigma", rows=lambda c, m: c["rows"][::-1]),  # not increasing
    with_column("sigma", rows=lambda c, m: [0.0, *c["rows"][1:]]),  # not integers
    # a null x row: x lists every record but record 1
    with_column("x", data=lambda c, m: b64(np.delete(floats(c["data"]).reshape(m, -1), 1, 0)),
                rows=lambda c, m: [i for i in range(m) if i != 1]),
])
def test_verify_rejects_corrupt_vector_text(tmp_path, capsys, corrupt):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 2,
        "problems": [{"n": 6, "r": 3, "cond": 10.0}],
        "methods": [{"kind": "qn-subspace"}],
    })
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_PASS
    trace_path = next((out / "traces").glob("*.json"))
    assert json.loads(trace_path.read_text())["iterations"]["sigma"]["rows"] == [0, 1, 2]
    code, err = doctored_verify(tmp_path, capsys, trace_path,
                                out / "problems" / "p000.json", corrupt)
    assert code == EXIT_USAGE
    assert "cannot load trace" in err


# The qn-subspace trace of the v2 fixture's spec, as the previous v3 release
# wrote it: it still holds the g, h_p, h_q and h_pN columns.
FULL_V3_TRACE = Path(__file__).parent / "data" / "trace_v3_full" / "p000__m03_qn-subspace.json"


def test_v3_files_with_every_column_load_and_verify_the_same(tmp_path, capsys):
    columns = json.loads(FULL_V3_TRACE.read_text())["iterations"]
    assert all(columns[key] is not None for key in ("g", "h_p", "h_q", "h_pN"))
    full = IterateTrace.load(FULL_V3_TRACE)
    v2_path = V2_FIXTURE / "traces" / "p000__m03_qn-subspace.json"
    # the records of the v2 file of the same run, every field equal
    assert traces_match(full, IterateTrace.load(v2_path), rtol=0.0) == (True, [])
    assert all(rec.g is not None and rec.h_newton_step is not None
               for rec in full.records)
    lean = tmp_path / "lean.json"
    full.save(lean)
    assert IterateTrace.load(lean).records[0].g is None
    codes, printed = [], []
    for path in (FULL_V3_TRACE, lean):
        codes.append(main(["verify", "--trace", str(path), "--problem", str(V2_PROBLEM)]))
        printed.append(capsys.readouterr().out)
    assert codes == [EXIT_PASS, EXIT_PASS]
    assert printed[0] == printed[1]


@pytest.mark.parametrize("corrupt", [
    with_column("g", data=lambda c, m: c["data"][:-5]),  # truncated: incorrect padding
    # whole base64 quanta dropped: 5 bytes left over
    with_column("g", data=lambda c, m: c["data"][:-4]),
    with_column("g", data=lambda c, m: "*" + c["data"][1:]),  # outside the alphabet
    with_column("h_q", data=lambda c, m: c["data"][:32]),  # shorter than its rows
    with_column("h_pN", data=lambda c, m: c["data"][:32]),
])
def test_verify_rejects_corrupt_unread_columns_of_full_v3_files(tmp_path, capsys,
                                                                corrupt):
    code, err = doctored_verify(tmp_path, capsys, FULL_V3_TRACE, V2_PROBLEM, corrupt)
    assert code == EXIT_USAGE
    assert "cannot load trace" in err


# Each case edits record 1 or the final state of the 6-dimensional v2 trace.
@pytest.mark.parametrize("corrupt", [
    lambda rec, final: rec.update(g=rec["g"][:-5]),  # truncated: incorrect padding
    # whole base64 quanta dropped: 5 bytes left over
    lambda rec, final: rec.update(g=rec["g"][:-4]),
    lambda rec, final: rec.update(g="*" + rec["g"][1:]),  # outside the alphabet
    lambda rec, final: rec.update(h_q=rec["h_q"][:32]),
    lambda rec, final: rec.update(h_pN=rec["h_pN"][:32]),
    lambda rec, final: final.update(x=final["x"][:3]),
    lambda rec, final: rec.update(x=[1.0, 2.0, 3.0]),  # a v1 number list
])
def test_verify_rejects_corrupt_vector_text_of_v2_files(tmp_path, capsys, corrupt):
    code, err = doctored_verify(
        tmp_path, capsys, V2_FIXTURE / "traces" / "p000__m03_qn-subspace.json", V2_PROBLEM,
        lambda d: corrupt(d["iterations"][1], d["final"]))
    assert code == EXIT_USAGE
    assert "cannot load trace" in err


def test_verify_rejects_a_trace_of_another_dimension(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 2,
        "problems": [{"n": 6, "r": 3, "cond": 10.0}, {"n": 5, "r": 2, "cond": 4.0}],
        "methods": [{"kind": "cg"}],
    })
    out = tmp_path / "out"
    main(["run", "--spec", spec, "--out-dir", str(out)])
    capsys.readouterr()
    code = main(["verify", "--trace", str(out / "traces" / "p000__m00_cg.json"),
                 "--problem", str(out / "problems" / "p001.json")])
    assert code == EXIT_USAGE
    assert "cannot load trace" in capsys.readouterr().err


def test_verify_scans_the_trace_dimension_once(tmp_path, capsys, monkeypatch):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 2, "problems": [{"n": 6, "r": 3, "cond": 10.0}],
        "methods": [{"kind": "cg"}, {"kind": "qn-subspace"}]})
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_PASS
    capsys.readouterr()
    scans = []
    dimension = IterateTrace.dimension
    monkeypatch.setattr(IterateTrace, "dimension",
                        lambda trace: scans.append(trace) or dimension(trace))
    for path in sorted((out / "traces").iterdir()):
        scans.clear()
        assert main(["verify", "--trace", str(path),
                     "--problem", str(out / "problems" / "p000.json")]) == EXIT_PASS
        assert len(scans) == 1, path
        with pytest.raises(ValueError, match="^vectors of length 6, problem dimension 5$"):
            IterateTrace.load(path, 5)


@pytest.mark.parametrize("step_policy, code", [
    ("unit", EXIT_USAGE),
    ({"kind": ["unit"]}, EXIT_USAGE),
    (None, EXIT_PASS),  # absent: the count checks are skipped
])
def test_verify_rejects_a_malformed_step_policy(tmp_path, capsys, step_policy, code):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 2, "problems": [{"n": 6, "r": 3, "cond": 10.0}],
        "methods": [{"kind": "qn-subspace"}]})
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_PASS
    path = out / "traces" / "p000__m00_qn-subspace.json"
    doc = json.loads(path.read_text())
    if step_policy is None:
        del doc["meta"]["step_policy"]
    else:
        doc["meta"]["step_policy"] = step_policy
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--trace", str(path),
                 "--problem", str(out / "problems" / "p000.json")]) == code
    if code == EXIT_USAGE:
        assert "is not a step policy spec" in capsys.readouterr().err


GRID_METHODS = [
    {"kind": "cg"},
    {"kind": "bfgs"},
    {"kind": "memoryless"},
    {"kind": "qn-subspace", "step": {"kind": "unit"}, "mode": "oracle"},
    {"kind": "qn-subspace", "step": {"kind": "unit"}, "mode": "matrix-free"},
    {"kind": "qn-subspace", "step": {"kind": "unit-after", "start": 8},
     "mode": "matrix-free"},
    {"kind": "qn-subspace", "step": {"kind": "exact"}, "mode": "oracle"},
]


def count_reference_work(monkeypatch):
    """Call counters on the eigensolvers the problem module reaches, on the
    inverse behind each batch of Krylov minimizers and on dense solves."""
    counts = {"eigh": 0, "eigvalsh": 0, "inv": 0, "solve": 0}
    for name in counts:
        def counted(*args, _fn=getattr(problem.np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(problem.np.linalg, name, counted)
    return counts


def test_run_and_verify_decompose_each_problem_once(tmp_path, monkeypatch):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 4,
        "problems": [{"n": 16, "r": 6, "cond": 10.0}],
        "methods": GRID_METHODS,
    })
    out = tmp_path / "out"
    counts = count_reference_work(monkeypatch)
    main(["run", "--spec", spec, "--out-dir", str(out)])
    rows = read_rows(out / "summary.csv")
    assert len(rows) == 7
    assert (counts["eigh"], counts["eigvalsh"]) == (1, 0)
    assert counts["inv"] == 1
    assert counts["solve"] == 0

    # verify reads the spectrum that run saved
    problem_path = out / "problems" / "p000.json"
    traces = sorted((out / "traces").iterdir())
    for trace_path in traces:
        main(["verify", "--trace", str(trace_path), "--problem", str(problem_path)])
    assert (counts["eigh"], counts["eigvalsh"]) == (1, 0)
    assert counts["inv"] == 1 + len(traces)
    assert counts["solve"] == 0

    # a file that names no spectrum is decomposed once more
    bare = doctored_copy(tmp_path, problem_path,
                         lambda d: {k: v for k, v in d.items() if k != "spectrum"})
    main(["verify", "--trace", str(traces[0]), "--problem", str(bare)])
    assert (counts["eigh"], counts["eigvalsh"]) == (2, 0)
    assert counts["inv"] == 2 + len(traces)


# Runs CLI commands, given as a JSON list of argument lists, in an interpreter
# where any import of scipy raises, and prints their exit codes as JSON.
SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
from qnsubspace.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def test_generate_run_and_verify_need_no_scipy(tmp_path):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 5,
        "problems": [{"n": 8, "r": 4, "cond": 10.0}],
        "methods": GRID_METHODS,
    })

    def commands(out):
        return [
            ["generate", "--spec", spec, "--out-dir", str(out / "gen")],
            ["run", "--spec", spec, "--out-dir", str(out / "run")],
            ["verify", "--trace", str(out / "run" / "traces" / "p000__m01_bfgs.json"),
             "--problem", str(out / "run" / "problems" / "p000.json")],
        ]

    unguarded = [main(argv) for argv in commands(tmp_path / "unguarded")]
    assert unguarded == [EXIT_PASS] * 3
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED,
         json.dumps(commands(tmp_path / "guarded"))],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == unguarded


@pytest.mark.parametrize("payload,fragment", [
    ({"problems": [], "methods": [{"kind": "cg"}]}, "non-empty"),
    ({"problems": [{"n": 5, "r": 2, "cond": 4.0}], "methods": [{"kind": "sd"}]},
     "unknown method kind"),
    ({"problems": [{"r": 2}], "methods": [{"kind": "cg"}]}, "needs either"),
    ({"problems": [{"n": 5, "r": 2, "cond": 4.0}],
      "methods": [{"kind": "qn-subspace", "step": {"kind": "constant"}}]},
     "needs 'value'"),
    *[({"problems": [{"n": 5, "r": 2, "cond": 4.0}],
        "methods": [{"kind": "qn-subspace", **policy}]}, fragment)
      for policy, fragment in [
          ({"step": {"kind": "constant", "value": "abc"}}, "finite number"),
          ({"step": {"kind": "uniform", "lo": "x"}}, "finite number"),
          ({"step": {"kind": "unit-after", "start": "3"}}, "integer"),
          ({"step": {"kind": "schedule", "values": 5}}, "must be a list"),
          ({"sigma": {"kind": "constant", "value": None}}, "finite number"),
          ({"sigma": {"kind": "newton-at", "at": "x"}}, "integer"),
          ({"sigma": {"kind": "uniform", "hi": "2"}}, "finite number"),
          ({"step": {"kind": "constant", "value": float("nan")}}, "finite number"),
          ({"step": {"kind": "unit-after", "start": 2.7}}, "integer"),
          ({"sigma": {"kind": "newton-at", "at": 1.5}}, "integer"),
          ({"step": {"kind": "bogus"}}, "unknown step policy kind"),
          ({"sigma": "constant"}, "sigma policy must be an object"),
      ]],
    # problem files store the seed, and their codec holds no integer past 64 bits
    ({"problems": [{"n": 5, "r": 2, "cond": 4.0, "seed": 2**70}],
      "methods": [{"kind": "cg"}]}, "problems[0].seed: must be an integer"),
    ({"problems": [{"n": 5, "r": 2, "cond": 4.0, "seed": [3, 2**64]}],
      "methods": [{"kind": "cg"}]}, "problems[0].seed: must be an integer"),
    ({"seed": 2**70, "problems": [{"n": 5, "r": 2, "cond": 4.0}],
      "methods": [{"kind": "cg"}]}, "error: seed: must be an integer"),
    *[({"problems": [{"n": 5, "r": 2, "cond": 4.0}], "methods": [{"kind": "cg"}],
        **limits}, fragment)
      for limits, fragment in [
          ({"tol": "x"}, "tol must be a finite number"),
          ({"max_iter": "5"}, "max_iter must be an integer"),
          ({"max_iter": 2.5}, "max_iter must be an integer"),
          ({"tol": float("nan")}, "tol must be a finite number"),
      ]],
])
def test_bad_specs_exit_with_usage_code(tmp_path, capsys, payload, fragment):
    spec = write_spec(tmp_path / "spec.json", payload)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_USAGE
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "run"])
def test_seed_option_past_64_bits_exits_with_usage_code(tmp_path, capsys, command):
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": 5, "r": 2, "cond": 4.0}], "methods": [{"kind": "cg"}]})
    code = main([command, "--spec", spec, "--out-dir", str(tmp_path / "out"),
                 "--seed", str(2**70)])
    assert code == EXIT_USAGE
    assert "seed: must be an integer" in capsys.readouterr().err


CG = {"kind": "cg"}
UNIT_STEPS = {"kind": "qn-subspace", "step": {"kind": "unit"}}


def run_one(tmp_path, method=CG):
    """Run ``method`` on one problem; return the trace and problem file paths."""
    spec = write_spec(tmp_path / "spec.json", {
        "seed": 2, "problems": [{"n": 6, "r": 3, "cond": 10.0}],
        "methods": [method]})
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out-dir", str(out)]) == EXIT_PASS
    return (out / "traces" / f"p000__m00_{method['kind']}.json",
            out / "problems" / "p000.json")


def test_verify_rejects_a_truncated_problem_file(tmp_path, capsys):
    trace_path, problem_path = run_one(tmp_path)
    truncated = tmp_path / "truncated.json"
    truncated.write_bytes(problem_path.read_bytes()[:-40])
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace_path), "--problem", str(truncated)])
    assert code == EXIT_USAGE
    assert "cannot load problem" in capsys.readouterr().err


@pytest.mark.parametrize("field,text", [
    ("c", "null"),  # what orjson writes for a non-finite number
    ("x0", "null"),
    ("x0", "Infinity"),  # what json.dumps writes
])
def test_non_finite_problem_files_exit_with_usage_code(tmp_path, capsys, field, text):
    trace_path, problem_path = run_one(tmp_path)
    payload = json.loads(problem_path.read_text())
    payload[field][0] = "@"
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(payload).replace('"@"', text))
    assert_problem_rejected(tmp_path, capsys, trace_path, doctored)


def assert_problem_rejected(tmp_path, capsys, trace_path, problem_path):
    """``verify`` and a ``run`` spec naming the file both exit 2 on it."""
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace_path), "--problem", str(problem_path)])
    assert code == EXIT_USAGE
    assert "cannot load problem" in capsys.readouterr().err
    spec = write_spec(tmp_path / "from_file.json", {
        "problems": [{"path": str(problem_path)}], "methods": [{"kind": "cg"}]})
    code = main(["run", "--spec", spec, "--out-dir", str(tmp_path / "again")])
    assert code == EXIT_USAGE
    assert "cannot load" in capsys.readouterr().err


def doctored_copy(tmp_path, path, doctor):
    """Write ``doctor`` applied to the JSON of ``path`` into ``tmp_path``; return it."""
    doctored = tmp_path / f"doctored_{path.name}"
    doctored.write_text(json.dumps(doctor(json.loads(path.read_text()))))
    return doctored


@pytest.mark.parametrize("doctor", [
    lambda d: [1, 2],
    lambda d: {**d, "n": None},
    lambda d: {**d, "H": 5},
    lambda d: {**d, "c": {"a": 1}},
], ids=["list", "null-n", "number-H", "object-c"])
def test_problem_files_of_the_wrong_shape_exit_with_usage_code(tmp_path, capsys,
                                                                doctor):
    trace_path, problem_path = run_one(tmp_path)
    assert_problem_rejected(tmp_path, capsys, trace_path,
                            doctored_copy(tmp_path, problem_path, doctor))


@pytest.mark.parametrize("n", [2.7, True, 0, -2], ids=["fraction", "true", "zero", "negative"])
def test_a_problem_file_n_outside_the_cap_exits_with_usage_code(tmp_path, capsys, n):
    trace_path, problem_path = run_one(tmp_path)
    doctored = doctored_copy(tmp_path, problem_path, lambda d: {**d, "n": n})
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace_path), "--problem", str(doctored)])
    assert code == EXIT_USAGE
    assert f"n must be an integer in [1, 512], got {n!r}" in capsys.readouterr().err


class Unpickled:
    """Pickles to a call that makes the directory ``marker``, so that
    unpickling it leaves a trace on disk."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return os.mkdir, (self.marker,)


def rewritten(write):
    """Doctor of a saved spectrum: ``write(path, A)`` replaces the sidecar."""
    def doctor(problem_path):
        sidecar = problem_path.with_name(json.loads(problem_path.read_text())["spectrum"])
        write(sidecar, np.load(sidecar))
    return doctor


def edited(edit):
    """Doctor of a saved spectrum that applies ``edit`` to its array."""
    def write(sidecar, A):
        edit(A)
        np.save(sidecar, A)
    return rewritten(write)


def renamed(name):
    """Doctor of a problem file that names ``name`` (given the sidecar's path)
    as its spectrum, in place of the sidecar's bare name."""
    def doctor(problem_path):
        doc = json.loads(problem_path.read_text())
        doc["spectrum"] = name(problem_path.with_name(doc["spectrum"]))
        problem_path.write_text(json.dumps(doc))
    return doctor


def swap(A, i, j):
    A[0, [i, j]] = A[0, [j, i]]


BARE = "must be a bare file name"
SHAPE = "must hold a float64 (7, 6) array"
ORDER = "eigenvalues must be positive and ascending"


@pytest.mark.parametrize("doctor, fragment", [
    (renamed(str), BARE),  # an absolute path to the sidecar itself
    (renamed(lambda p: f"../{p.parent.name}/{p.name}"), BARE),
    (renamed(lambda p: ".."), BARE),
    (renamed(lambda p: 5), BARE),
    (rewritten(lambda p, A: p.unlink()), "No such file"),
    (rewritten(lambda p, A: np.save(p, A[:-1])), SHAPE),
    (rewritten(lambda p, A: np.save(p, A.T)), SHAPE),
    (rewritten(lambda p, A: np.save(p, A.astype(np.float32))), SHAPE),
    (rewritten(lambda p, A: np.save(p, A.astype(np.int64))), SHAPE),
    (rewritten(lambda p, A: np.savez(p.with_suffix(".npz"), A)
               or p.with_suffix(".npz").replace(p)), SHAPE),
    (edited(lambda A: A.__setitem__((3, 2), np.nan)), "must be finite"),
    (edited(lambda A: swap(A, 1, 2)), ORDER),
    (edited(lambda A: A.__setitem__((0, 0), 0.0)), ORDER),
    (edited(lambda A: A.__setitem__((0, 0), -1.0)), ORDER),
    (rewritten(lambda p, A: p.write_bytes(p.read_bytes()[:-8])), "Failed to read all data"),
    (rewritten(lambda p, A: p.write_bytes(p.read_bytes()[:20])), "EOF"),
    (rewritten(lambda p, A: p.write_bytes(b"")), "is empty"),
], ids=["absolute-name", "dotdot-name", "dotdot", "number-name", "missing",
        "short", "transposed", "float32", "int64", "npz", "nan", "non-ascending",
        "zero-eigenvalue", "negative-eigenvalue", "truncated-data",
        "truncated-header", "empty"])
def test_bad_spectra_exit_with_usage_code(tmp_path, capsys, doctor, fragment):
    trace_path, problem_path = run_one(tmp_path)
    doctor(problem_path)
    capsys.readouterr()
    assert main(["verify", "--trace", str(trace_path),
                 "--problem", str(problem_path)]) == EXIT_USAGE
    assert fragment in capsys.readouterr().err
    assert_problem_rejected(tmp_path, capsys, trace_path, problem_path)


def test_a_pickled_spectrum_is_never_unpickled(tmp_path, capsys):
    trace_path, problem_path = run_one(tmp_path)
    marker = tmp_path / "unpickled"
    rewritten(lambda p, A: np.save(p, np.array([Unpickled(marker)] * 2, dtype=object),
                                   allow_pickle=True))(problem_path)
    assert_problem_rejected(tmp_path, capsys, trace_path, problem_path)
    assert not marker.exists()
    with pytest.raises(ValueError, match="pickle"):
        load_problem(problem_path)
    assert not marker.exists()


def test_a_spectrum_header_is_checked_before_any_data_is_read(tmp_path, capsys,
                                                              monkeypatch):
    trace_path, problem_path = run_one(tmp_path)
    reads = []

    def counted(*args, _fromfile=np.fromfile, **kwargs):
        reads.append(kwargs.get("count"))
        return _fromfile(*args, **kwargs)

    monkeypatch.setattr(np, "fromfile", counted)
    verify = ["verify", "--trace", str(trace_path), "--problem", str(problem_path)]
    assert main(verify) == EXIT_PASS
    assert reads == [7 * 6]  # the saved sidecar: exactly its (n + 1) x n floats

    # a header that claims one row more than the data holds; np.load would
    # allocate the claimed shape first, which fails on memory, not on the
    # file, once the claim is larger than the machine
    def claim_a_row_more(sidecar, A):
        with open(sidecar, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": "<f8", "fortran_order": False,
                "shape": (A.shape[0] + 1, A.shape[1])})
            fh.write(A.tobytes())

    rewritten(claim_a_row_more)(problem_path)
    reads.clear()
    capsys.readouterr()
    assert main(verify) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cannot load problem" in err and SHAPE in err
    assert reads == []


def with_record(d, i, record):
    d["iterations"][i] = record(d["iterations"][i])
    return d


def with_columns(edit):
    """Doctor of a v3 trace that replaces its columns with ``edit`` of them."""
    return lambda d: {**d, "iterations": edit(d["iterations"])}


@pytest.mark.parametrize("version, doctor", [
    ("v3", lambda d: [d]),
    ("v3", lambda d: {**d, "status": "x"}),
    ("v3", lambda d: {**d, "iterations": None}),
    ("v3", with_columns(lambda c: {**c, "x": list(c["x"].values())})),
    ("v3", with_columns(lambda c: {**c, "k": None})),
    ("v3", with_columns(lambda c: {**c, "x": None})),
    ("v3", lambda d: {**d, "final": None}),
    ("v3", lambda d: {**d, "meta": []}),
    ("v3", with_columns(lambda c: {**c, "exhausted": c["exhausted"][:-1]})),
    ("v3", with_columns(lambda c: {key: v for key, v in c.items() if key != "p"})),
    ("v2", lambda d: with_record(d, 1, lambda rec: list(rec.values()))),
    ("v2", lambda d: with_record(d, 1, lambda rec: {**rec, "k": None})),
    ("v2", lambda d: with_record(d, 1, lambda rec: {**rec, "x": None})),
    # k entries that are no JSON integer: a fraction, text and a bool
    ("v3", with_columns(lambda c: {**c, "k": [0.5] + c["k"][1:]})),
    ("v3", with_columns(lambda c: {**c, "k": [0, "1"] + c["k"][2:]})),
    ("v3", with_columns(lambda c: {**c, "k": [0, True] + c["k"][2:]})),
    ("v2", lambda d: with_record(d, 1, lambda rec: {**rec, "k": 1.5})),
    # numbers that are no JSON number, and one past the float range
    ("v2", lambda d: with_record(d, 1, lambda rec: {**rec, "alpha": str(rec["alpha"])})),
    ("v2", lambda d: with_record(d, 1, lambda rec: {**rec, "grad_norm": True})),
    ("v2", lambda d: with_record(d, 1, lambda rec: {**rec, "sigma": "x"})),
    ("v2", lambda d: with_record(d, 1, lambda rec: {**rec, "alpha": 10**400})),
    ("v2", lambda d: {**d, "final": {**d["final"], "grad_norm": "abc"}}),
    ("v3", lambda d: {**d, "final": {**d["final"], "grad_norm": True}}),
], ids=["list", "text-status", "null-iterations", "list-record", "null-k",
        "null-x", "null-final", "list-meta", "short-exhausted", "no-p",
        "v2-list-record", "v2-null-k", "v2-null-x", "fractional-k", "text-k",
        "bool-k", "v2-fractional-k", "v2-text-alpha", "v2-bool-grad-norm",
        "v2-text-sigma", "v2-huge-alpha", "v2-text-final-grad-norm",
        "bool-final-grad-norm"])
def test_traces_of_the_wrong_shape_exit_with_usage_code(tmp_path, capsys, version,
                                                        doctor):
    if version == "v2":
        trace_path, problem_path = V2_FIXTURE / "traces" / "p000__m00_cg.json", V2_PROBLEM
    else:
        trace_path, problem_path = run_one(tmp_path)
    doctored = doctored_copy(tmp_path, trace_path, doctor)
    capsys.readouterr()
    code = main(["verify", "--trace", str(doctored), "--problem", str(problem_path)])
    assert code == EXIT_USAGE
    assert "cannot load trace" in capsys.readouterr().err


def test_v2_files_load_to_the_records_of_a_rerun_and_verify_the_same(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--spec", str(V2_FIXTURE / "spec.json"),
                 "--out-dir", str(out)]) == EXIT_PASS
    # the rerun's file also names its spectrum; H, c and x0 are the fixture's bits
    new_problem = out / "problems" / "p000.json"
    assert "spectrum" not in json.loads(V2_PROBLEM.read_text())
    assert json.loads(new_problem.read_text())["spectrum"] == "p000.spectrum.npy"
    (old_prob, old_x0, old_meta), (new_prob, new_x0, new_meta) = \
        load_problem(V2_PROBLEM), load_problem(new_problem)
    for a, b in ((old_prob.H, new_prob.H), (old_prob.c, new_prob.c), (old_x0, new_x0)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert old_meta == new_meta
    old_paths = sorted((V2_FIXTURE / "traces").iterdir())
    new_paths = sorted((out / "traces").iterdir())
    assert [p.name for p in old_paths] == [p.name for p in new_paths]
    assert len(old_paths) == 4
    for old_path, new_path in zip(old_paths, new_paths):
        assert json.loads(old_path.read_text())["schema"] == "qnsubspace-trace-v2"
        old, new = IterateTrace.load(old_path), IterateTrace.load(new_path)
        del old.meta["wall_time_ms"], new.meta["wall_time_ms"]
        # the v3 document holds every float as base64 of its bytes
        assert old.to_dict() == new.to_dict()
        capsys.readouterr()
        codes, printed = [], []
        # the fixture's problem goes through eigh, the rerun's through its sidecar
        for path, problem_path in ((old_path, V2_PROBLEM), (new_path, V2_PROBLEM),
                                   (old_path, new_problem)):
            codes.append(main(["verify", "--trace", str(path),
                               "--problem", str(problem_path)]))
            printed.append(capsys.readouterr().out)
        assert codes == [EXIT_PASS] * 3
        assert printed[0] == printed[1] == printed[2]


@pytest.mark.parametrize("name", sorted(p.name for p in (V2_FIXTURE / "traces").iterdir()))
def test_v2_records_without_g_load_and_verify_the_same(tmp_path, capsys, name):
    # v1, v2 and v3 records all need x, p, alpha and grad_norm, and no g
    path = V2_FIXTURE / "traces" / name
    lean = doctored_copy(tmp_path, path, lambda d: {**d, "iterations": [
        {key: v for key, v in rec.items() if key != "g"} for rec in d["iterations"]]})
    assert all("g" not in rec for rec in json.loads(lean.read_text())["iterations"])
    full, without_g = IterateTrace.load(path), IterateTrace.load(lean)
    assert all(rec.g is None for rec in without_g.records)
    for rec in full.records:
        rec.g = None
    assert traces_match(full, without_g, rtol=0.0) == (True, [])
    code, printed = verify_output(capsys, path, V2_PROBLEM)
    assert code == EXIT_PASS
    assert verify_output(capsys, lean, V2_PROBLEM) == (code, printed)


def verify_output(capsys, trace_path, problem_path):
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace_path), "--problem", str(problem_path)])
    return code, capsys.readouterr()


def test_a_collapsed_column_is_ignored(tmp_path, capsys):
    # files of the previous v3 release carry the flag the solver set; verify
    # derives it from pN and q, so all-false flags change no finding
    trace_path, problem_path = run_one(tmp_path, UNIT_STEPS)
    doctored = doctored_copy(tmp_path, trace_path, with_columns(
        lambda c: {**c, "collapsed": [False] * len(c["k"])}))
    assert IterateTrace.load(doctored).to_dict() == IterateTrace.load(trace_path).to_dict()
    code, printed = verify_output(capsys, trace_path, problem_path)
    assert code == EXIT_PASS
    assert "PASS memory stays a single direction" in printed.out
    assert verify_output(capsys, doctored, problem_path) == (code, printed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_zero_recorded_direction_fails_without_a_warning(tmp_path, capsys):
    # its scaled component against each later gradient is unbounded
    trace_path, problem_path = run_one(tmp_path)
    trace = IterateTrace.load(trace_path)
    trace.records[1].p = np.zeros_like(trace.records[1].p)
    trace.save(trace_path)
    code, printed = verify_output(capsys, trace_path, problem_path)
    assert code == EXIT_CHECK_FAIL
    assert "FAIL gradients orthogonal to all earlier directions: " \
        "max scaled component inf" in printed.out


@pytest.mark.parametrize("attr", ["q", "newton_step"])
def test_a_record_without_its_memory_fails_the_collapse_check(tmp_path, capsys, attr):
    trace_path, problem_path = run_one(tmp_path, UNIT_STEPS)
    trace = IterateTrace.load(trace_path)
    assert trace.records[0].sigma is not None
    setattr(trace.records[0], attr, None)
    trace.save(trace_path)
    code, printed = verify_output(capsys, trace_path, problem_path)
    assert code == EXIT_CHECK_FAIL
    assert "FAIL memory stays a single direction: two-direction memory at " \
        "iterations [0]" in printed.out
    assert "Traceback" not in printed.err


@pytest.mark.parametrize("n", [0, 513, 10**6])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_a_problem_n_outside_the_cap_is_refused_before_any_draw(
        tmp_path, capsys, monkeypatch, command, n):
    def draw(n, rng):
        raise AssertionError(f"drew an orthogonal {n} x {n} matrix")

    monkeypatch.setattr(problem, "_haar_orthogonal", draw)
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": n, "r": 2, "cond": 10.0}], "methods": [{"kind": "cg"}]})
    capsys.readouterr()
    assert main([command, "--spec", spec, "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "problems[0]: n must be an integer in [1, 512]" in err


@pytest.mark.parametrize("grade", [True, 2.0, 2.5, "2"])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_a_problem_grade_that_is_not_an_integer_is_refused_before_any_draw(
        tmp_path, capsys, monkeypatch, command, grade):
    def draw(n, rng):
        raise AssertionError(f"drew an orthogonal {n} x {n} matrix")

    monkeypatch.setattr(problem, "_haar_orthogonal", draw)
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": 6, "r": grade, "cond": 10.0}], "methods": [{"kind": "cg"}]})
    capsys.readouterr()
    assert main([command, "--spec", spec, "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"problems[0]: grade must be an integer in [1, 6], got {grade!r}" in err


@pytest.mark.parametrize("path", [0, 1, True, 3.5, ["a"], ""])
def test_a_problem_path_that_is_not_a_string_is_refused(tmp_path, path):
    # 0 would read a problem from stdin, and 1 and True the stdout descriptor
    prob, x0 = problem.generate_problem(6, 3, cond=10.0, seed=1)
    problem.save_problem(tmp_path / "piped.json", prob, x0)
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"path": path}], "methods": [{"kind": "cg"}]})
    with open(tmp_path / "piped.json") as stdin:
        done = subprocess.run(
            [sys.executable, "-m", "qnsubspace", "run", "--spec", spec,
             "--out-dir", str(tmp_path / "out")],
            stdin=stdin, capture_output=True, text=True,
        )
    assert done.returncode == EXIT_USAGE, done.stderr
    assert f"problems[0]: path must be a non-empty string, got {path!r}" in done.stderr
    assert "Traceback" not in done.stderr


def files_under(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("pid", ["../../escaped", "a/b", "a\\b", ".", "..", "",
                                 "a\0b", 5, True, ["a"]])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_a_problem_id_that_names_no_single_file_is_refused(tmp_path, capsys, command, pid):
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": 6, "r": 3, "cond": 10.0, "id": "fine"},
                     {"id": pid, "n": 4, "r": 2, "cond": 5.0}],
        "methods": [{"kind": "cg"}]})
    capsys.readouterr()
    code = main([command, "--spec", spec, "--out-dir", str(tmp_path / "out" / "a" / "b")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "problems[1]: id must name one file" in err and repr(pid) in err
    # checked before the first file is written, so not even the valid problem's
    assert files_under(tmp_path) == ["spec.json"]


@pytest.mark.parametrize("problems, pid", [
    ([{"id": "a", "n": 4, "r": 2, "cond": 5.0}, {"id": "a", "n": 6, "r": 3, "cond": 5.0}],
     "a"),
    ([{"n": 4, "r": 2, "cond": 5.0}, {"id": "p000", "n": 6, "r": 3, "cond": 5.0}], "p000"),
    ([{"n": 4, "r": 2, "cond": 5.0}, {"path": "PROBLEM"}], "p000"),
], ids=["explicit", "default", "path-stem"])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_problem_ids_are_unique(tmp_path, capsys, command, problems, pid):
    saved = tmp_path / "saved" / "p000.json"
    saved.parent.mkdir()
    problem.save_problem(saved, *problem.generate_problem(6, 3, cond=10.0, seed=1))
    problems = [{"path": str(saved)} if p.get("path") == "PROBLEM" else p for p in problems]
    spec = write_spec(tmp_path / "spec.json", {"problems": problems,
                                               "methods": [{"kind": "cg"}]})
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--spec", spec, "--out-dir", str(out)]) == EXIT_USAGE
    assert f"problems[1]: id {pid!r} is already the id of problems[0]" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed_arg, spec_seed", [
    (["--seed", "-1"], 0), (["--seed", str(2**64)], 0), ([], 1.5), ([], "7"), ([], -3)],
    ids=["option-negative", "option-past-64-bits", "spec-fraction", "spec-text",
         "spec-negative"])
@pytest.mark.parametrize("method", [UNIT_STEPS, CG], ids=["qn-subspace", "cg"])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_the_base_seed_is_checked_where_every_problem_has_its_own(
        tmp_path, capsys, command, method, seed_arg, spec_seed):
    spec = write_spec(tmp_path / "spec.json", {
        "seed": spec_seed, "problems": [{"n": 6, "r": 3, "cond": 10.0, "seed": 4}],
        "methods": [method]})
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--spec", spec, "--out-dir", str(out), *seed_arg]) == EXIT_USAGE
    assert "error: seed: must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spectrum, message", [
    ({"cond": float("inf")}, "cond must be a finite number of at least 1"),
    ({"cond": float("nan")}, "cond must be a finite number of at least 1"),
    ({"eigenvalues": [1.0, 2.0, 3.0, float("inf")]}, "eigenvalues must be finite"),
], ids=["inf-cond", "nan-cond", "inf-eigenvalue"])
def test_a_non_finite_spectrum_is_refused_before_any_draw(tmp_path, capsys, monkeypatch,
                                                          spectrum, message):
    def draw(n, rng):
        raise AssertionError(f"drew an orthogonal {n} x {n} matrix")

    monkeypatch.setattr(problem, "_haar_orthogonal", draw)
    # json.dumps writes the non-finite values as Infinity and NaN
    spec = write_spec(tmp_path / "spec.json", {
        "problems": [{"n": 4, "r": 2, **spectrum}], "methods": [{"kind": "cg"}]})
    capsys.readouterr()
    assert main(["run", "--spec", spec, "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"problems[0]: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("entry, field, value", [
    ({"n": 2**64, "r": 2, "cond": 5.0}, "n", 2**64),
    ({"n": 4, "r": 2**64, "cond": 5.0}, "r", 2**64),
    # an alias that generate_problem never reads is still recorded
    ({"n": 4, "r": 2, "grade": 10**23, "cond": 5.0}, "grade", 10**23),
    ({"n": 4, "r": 2, "cond": 10**30}, "cond", 10**30),
    ({"n": 2, "r": 2, "eigenvalues": [2**64, 2**65]}, "eigenvalues[0]", 2**64),
], ids=["n", "r", "grade", "cond", "eigenvalue"])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_a_recorded_integer_a_problem_file_cannot_hold_is_refused(
        tmp_path, capsys, command, entry, field, value):
    spec = write_spec(tmp_path / "spec.json", {"problems": [entry],
                                               "methods": [{"kind": "cg"}]})
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--spec", spec, "--out-dir", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: problems[0].{field}: integer {value} is outside " \
        "[-2**63, 2**64)" in err
    assert "Traceback" not in err
    assert not out.exists() or files_under(out) == []


ONE_CG_RUN = {"problems": [{"n": 4, "r": 2, "cond": 5.0}], "methods": [{"kind": "cg"}]}


@pytest.mark.parametrize("entry", ['{"n": 513, "r": 2, "cond": 5.0}',
                                   '{"n": 4, "r": 2, "cond": 1e999}',
                                   f'{{"n": 4, "r": 2, "cond": {2**65}}}'],
                         ids=["n-513", "cond-1e999", "cond-2**65"])
@pytest.mark.parametrize("command, existing", [("run", False), ("run", True),
                                               ("generate", False)],
                         ids=["run", "run-in-existing", "generate"])
def test_a_refused_first_problem_leaves_no_output_directory(tmp_path, capsys, command,
                                                            existing, entry):
    # the output directories are made once the first problem entry resolves,
    # and a directory that already existed is left as it is: run makes none
    # inside it
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"problems": [{entry}], "methods": [{{"kind": "cg"}}]}}')
    out = tmp_path / "out"
    if existing:
        out.mkdir()
    left = [out] if existing else []
    capsys.readouterr()
    target = out if existing else out / "a"
    assert main([command, "--spec", str(spec), "--out-dir", str(target)]) == EXIT_USAGE
    assert "error: problems[0]" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [*left, spec]


@pytest.mark.parametrize("make, fragments", [
    (lambda spec, out: spec.write_text("[]"), ["error: spec: must be a JSON object"]),
    (lambda spec, out: spec.write_text('"x"'), ["error: spec: must be a JSON object"]),
    (lambda spec, out: spec.mkdir(), ["error: cannot read spec {spec}: ",
                                      "Is a directory"]),
    (lambda spec, out: spec.write_bytes(b"\xff\xfe{}"),
     ["error: cannot read spec {spec}: ", "can't decode byte 0xff"]),
    (lambda spec, out: (write_spec(spec, ONE_CG_RUN), out.write_text("")),
     ["error: [Errno ", "'{out}"]),
    # past the 255-byte name limit of the common file systems
    (lambda spec, out: write_spec(spec, {**ONE_CG_RUN, "problems": [
        {"id": "a" * 300, "n": 4, "r": 2, "cond": 5.0}]}),
     ["error: [Errno ", "File name too long: '{out}"]),
], ids=["list-spec", "string-spec", "directory-spec", "non-utf8-spec",
        "out-dir-is-a-file", "id-past-the-name-limit"])
@pytest.mark.parametrize("command", ["run", "generate"])
def test_an_unusable_spec_or_output_path_exits_with_usage_code(tmp_path, capsys, command,
                                                               make, fragments):
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    make(spec, out)
    capsys.readouterr()
    assert main([command, "--spec", str(spec), "--out-dir", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    for fragment in fragments:
        assert fragment.format(spec=spec, out=out) in err


def test_run_takes_its_settings_from_the_spec_alone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == EXIT_PASS
    options = re.findall(r"(?m)^  (--[a-z-]+)", capsys.readouterr().out)
    assert sorted(options) == ["--out-dir", "--seed", "--spec"]


@pytest.mark.parametrize("flag", [["--tol", "1e-10"], ["--max-iter", "5"],
                                  ["--mode", "matrix-free"], ["--format", "json"]])
def test_the_removed_run_options_are_refused(tmp_path, capsys, flag):
    spec = write_spec(tmp_path / "spec.json", ONE_CG_RUN)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--spec", spec, "--out-dir", str(out), *flag])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_spec_file_exits_with_usage_code(tmp_path, capsys):
    code = main(["run", "--spec", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "problems": [{"n": 4, "r": 2, "cond": 5.0}],
        "methods": [{"kind": "cg"}],
    }))
    done = subprocess.run(
        [sys.executable, "-m", "qnsubspace", "run", "--spec", str(spec),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert done.returncode == EXIT_PASS, done.stderr
    assert "all checks passed" in done.stdout
