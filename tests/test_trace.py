"""On-disk layout of trace and problem files: one line of sorted-key JSON."""

import base64
import json
import math
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import orjson
import pytest

from qnsubspace import (
    BREAKDOWN,
    IterateRecord,
    IterateTrace,
    QuadraticProblem,
    StepPolicy,
    generate_problem,
    load_problem,
    save_problem,
    subspace_qn_solve,
    traces_match,
)
from qnsubspace.problem import problem_to_dict

RECORD_VECTORS = {"x": "x", "g": "g", "p": "p", "h_p": "h_p", "q": "q",
                  "pN": "newton_step", "h_q": "h_q", "h_pN": "h_newton_step"}
# The record vectors a file leaves out: its columns of them are null.
UNWRITTEN = {"g": "g", "h_p": "h_p", "h_q": "h_q", "h_pN": "h_newton_step"}
WRITTEN = {key: attr for key, attr in RECORD_VECTORS.items() if key not in UNWRITTEN}


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


def trace_text(trace):
    """File text of a trace: ``json.dumps`` of its sorted top-level fields,
    the record columns in them ``orjson.dumps`` with sorted keys."""
    payload = trace.to_dict()
    columns = orjson.dumps(payload["iterations"], option=orjson.OPT_SORT_KEYS).decode()
    payload["iterations"] = None
    text = json.dumps(payload, sort_keys=True)
    return text.replace('"iterations": null', f'"iterations": {columns}', 1) + "\n"


# One record of length 1: each float field is one base64 column in compact
# orjson text, and the top level keeps the stdlib's separators and spelling
# (1e-05).
TINY_TRACE_TEXT = (
    '{"final": {"grad_norm": 0.0, "x": [2.0]}, "iterations": {"alpha":{"data":'
    '"AAAAAAAAAEA=","rows":null},"exhausted":[false],"g":null,'
    '"grad_norm":{"data":"AAAAAAAA4D8=",'
    '"rows":null},"h_p":null,"h_pN":null,"h_q":null,"k":[0],"p":{"data":'
    '"AAAAAAAA4D8=","rows":null},"pN":null,"q":null,"sigma":{"data":'
    '"8WjjiLX45D4=","rows":null},"x":{"data":"AAAAAAAA8D8=","rows":null}}, '
    '"meta": {"method": "cg", "tol": 1e-05}, "schema": "qnsubspace-trace-v3", '
    '"status": {"iterations": 1, "kind": "converged", "reason": null}, '
    '"warnings": []}\n'
)


def tiny_trace():
    rec = IterateRecord(x=np.array([1.0]), g=np.array([-0.5]),
                        p=np.array([0.5]), alpha=2.0, grad_norm=0.5, sigma=1e-05,
                        exhausted=False)
    return IterateTrace(records=[rec], meta={"method": "cg", "tol": 1e-05}).finish(
        "converged", np.array([2.0]), 0.0)


def test_trace_file_is_one_line_of_sorted_json(tmp_path):
    run, breakdown = sample_traces()
    assert len(run.records) > 1 and not breakdown.records
    for i, (trace, want) in enumerate([(run, trace_text(run)),
                                       (breakdown, trace_text(breakdown)),
                                       (tiny_trace(), TINY_TRACE_TEXT)]):
        path = tmp_path / f"t{i}.json"
        trace.save(path)
        text = path.read_text()
        assert text == want
        assert text.count("\n") == 1
        # the benchmark finds the final state by this text
        assert '"final": ' in text
        loaded = IterateTrace.load(path)
        assert loaded.to_dict() == trace.to_dict()
        assert all(getattr(rec, attr) is None
                   for rec in loaded.records for attr in UNWRITTEN.values())
        with open(path) as fh:
            assert json.load(fh) == json.loads(one_line(trace.to_dict()))


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
    text = path.read_bytes()
    # save_problem adds the name of the spectrum it writes beside the file
    assert text == orjson.dumps({**payload, "spectrum": "p.spectrum.npy"},
                                option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    assert text.count(b"\n") == 1

    # an indented file loads the same, with or without the spectrum's name
    indented, bare = tmp_path / "indented.json", tmp_path / "bare.json"
    for p, doc in ((indented, json.loads(text)), (bare, payload)):
        with open(p, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for p in (path, indented, bare):
        loaded, x0_loaded, meta = load_problem(p)
        assert np.array_equal(loaded.H, prob.H)
        assert np.array_equal(loaded.c, prob.c)
        assert np.array_equal(x0_loaded, x0)
        assert meta == {"seed": [5, 1], "spec": {"n": 6, "grade": 3}}


# Values a decimal round trip could blur: signed zero, the smallest subnormal,
# a subnormal off the decimal grid, a huge magnitude and a repeating binary.
AWKWARD = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, -2.2250738585072014e-308 / 3])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def awkward_problem():
    """A problem whose c and x0 hold the awkward values."""
    prob, _ = generate_problem(5, 3, cond=10.0, seed=8)
    return QuadraticProblem(prob.H, AWKWARD), AWKWARD[::-1].copy()


def assert_loads_bit_for_bit(path, prob, x0):
    loaded, x0_loaded, meta = load_problem(path)
    assert same_bits(loaded.H, prob.H)
    assert same_bits(loaded.c, prob.c)
    assert same_bits(x0_loaded, x0)
    assert meta == {"seed": [8, 0], "spec": {"n": 5}}


def test_problem_files_round_trip_bit_for_bit(tmp_path):
    prob, x0 = awkward_problem()
    path = tmp_path / "p.json"
    save_problem(path, prob, x0, seed=[8, 0], spec={"n": 5})
    assert_loads_bit_for_bit(path, prob, x0)


def test_problem_files_of_the_stdlib_encoder_load_bit_for_bit(tmp_path):
    prob, x0 = awkward_problem()
    payload = problem_to_dict(prob, x0, seed=[8, 0], spec={"n": 5})
    one = tmp_path / "one_line.json"
    one.write_text(one_line(payload))
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for path in (one, indented):
        assert_loads_bit_for_bit(path, prob, x0)


def test_stdlib_json_reads_saved_problem_files(tmp_path):
    prob, x0 = awkward_problem()
    path = tmp_path / "p.json"
    save_problem(path, prob, x0, seed=[8, 0], spec={"n": 5})
    with open(path) as fh:
        data = json.load(fh)
    assert same_bits(data["H"], prob.H.ravel())
    assert same_bits(data["c"], prob.c)
    assert same_bits(data["x0"], x0)
    assert data["n"] == 5 and data["seed"] == [8, 0] and data["spec"] == {"n": 5}


def awkward_record(n):
    """A record whose vectors hold values a decimal round trip could blur."""
    rng = np.random.default_rng(n)
    special = np.array([-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300,
                        -1e-300, np.nextafter(1.0, 2.0), 1.0 / 3.0])
    vecs = [np.resize(np.concatenate([special, rng.standard_normal(n)]), n)
            for _ in RECORD_VECTORS]
    x, g, p, h_p, q, pN, h_q, h_pN = vecs
    return IterateRecord(x=x, g=g, p=p, alpha=1.0, grad_norm=1.0, h_p=h_p,
                         q=q, newton_step=pN, h_q=h_q, h_newton_step=h_pN,
                         sigma=1.0, exhausted=False)


def test_record_vectors_round_trip_bit_for_bit(tmp_path):
    for n in (1, 7, 64):
        rec = awkward_record(n)
        trace = IterateTrace(records=[rec], final_x=rec.x, final_grad_norm=0.0)
        path = tmp_path / f"n{n}.json"
        trace.save(path)
        loaded = IterateTrace.load(path).records[0]
        assert all(getattr(loaded, attr) is None for attr in UNWRITTEN.values())
        for attr in WRITTEN.values():
            want, got = getattr(rec, attr), getattr(loaded, attr)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # keeps -0.0 and subnormals
            assert got.dtype == np.float64 and got.flags.writeable


def test_record_scalars_round_trip_bit_for_bit(tmp_path):
    records = []
    for value in AWKWARD:
        rec = awkward_record(3)
        rec.alpha, rec.grad_norm, rec.sigma = value, -value, value
        records.append(rec)
    trace = IterateTrace(records=records, final_x=records[0].x, final_grad_norm=0.0)
    path = tmp_path / "scalars.json"
    trace.save(path)
    loaded = IterateTrace.load(path).records
    for rec, got in zip(records, loaded, strict=True):
        for name in ("alpha", "grad_norm", "sigma"):
            assert type(getattr(got, name)) is float
            assert same_bits(getattr(got, name), getattr(rec, name)), name


def test_non_finite_record_scalars_sit_inside_base64(tmp_path):
    odd = awkward_record(2)
    odd.alpha, odd.grad_norm, odd.sigma = np.nan, np.inf, -np.inf
    plain = awkward_record(2)
    trace = IterateTrace(records=[plain, odd], final_x=odd.x,
                         final_grad_norm=np.inf)
    path = tmp_path / "non_finite.json"
    trace.save(path)
    text = path.read_text()
    assert text == trace_text(trace)
    # the literals appear only in the final state
    final = '"final": {"grad_norm": Infinity, '
    assert text.startswith("{" + final)
    assert "NaN" not in text and text.count("Infinity") == 1
    columns = json.loads(text)["iterations"]
    for name, want in (("alpha", [1.0, np.nan]), ("grad_norm", [1.0, np.inf]),
                       ("sigma", [1.0, -np.inf])):
        assert columns[name]["rows"] is None
        assert same_bits(np.frombuffer(base64.b64decode(columns[name]["data"]), "<f8"),
                         want)
    loaded = IterateTrace.load(path)
    got = loaded.records[1]
    assert np.isnan(got.alpha)
    assert got.grad_norm == np.inf and got.sigma == -np.inf
    assert loaded.final_grad_norm == np.inf
    assert loaded.to_dict() == trace.to_dict()


# NaN, both infinities, signed zero, subnormals and a repeating binary.
NON_FINITE = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                       -2.2250738585072014e-308 / 3, 1.0 / 3.0])


def patterned_records(count, present):
    """``count`` records of length 3 with awkward values in every field;
    an optional field is set on the records ``present(k)`` holds."""
    records = []
    for k in range(count):
        vals = np.roll(NON_FINITE, k)

        def vec(j, vals=vals):
            return np.resize(np.roll(vals, j), 3)

        rec = IterateRecord(x=vec(0), g=vec(1), p=vec(2), alpha=vals[0],
                            grad_norm=vals[1])
        if present(k):
            rec.h_p, rec.q, rec.newton_step = vec(3), vec(4), vec(5)
            rec.h_q, rec.h_newton_step = vec(6), vec(7)
            rec.sigma, rec.exhausted = vals[2], k % 3 == 0
        records.append(rec)
    return records


@pytest.mark.parametrize("count, present", [
    (5, lambda k: k in (1, 3)),  # optional fields on some records only
    (5, lambda k: k != 4),  # on all but the last, as a converged run
    (4, lambda k: False),  # on none
    (4, lambda k: True),  # on all
    (0, lambda k: True),  # no records
], ids=["some", "all-but-last", "none", "all", "zero-records"])
def test_every_field_round_trips_bit_for_bit_in_each_presence_pattern(
        tmp_path, count, present):
    records = patterned_records(count, present)
    trace = IterateTrace(records=records, meta={"method": "qn-subspace"}).finish(
        "max-iter", np.resize(NON_FINITE, 3), 2.5)
    path = tmp_path / "trace.json"
    trace.save(path)
    columns = json.loads(path.read_text())["iterations"]
    rows = [k for k in range(count) if present(k)]
    for key in ("sigma", "q", "pN"):
        if not rows:
            assert columns[key] is None
        else:
            assert columns[key]["rows"] == (None if len(rows) == count else rows)
    assert all(columns[key] is None for key in UNWRITTEN)
    loaded = IterateTrace.load(path)
    assert loaded.dimension() == 3
    assert len(loaded.records) == count
    for rec, got in zip(records, loaded.records, strict=True):
        for f in fields(IterateRecord):
            want, value = getattr(rec, f.name), getattr(got, f.name)
            if f.name in UNWRITTEN.values():
                assert value is None, f.name
            elif want is None or f.name == "exhausted":
                assert value == want and type(value) is type(want), f.name
            elif f.name in ("alpha", "grad_norm", "sigma"):
                assert type(value) is float and same_bits(value, want), f.name
            else:
                assert value.dtype == np.float64 and value.flags.writeable
                assert same_bits(value, want), f.name
    assert same_bits(loaded.final_x, trace.final_x)
    assert trace_text(loaded) == trace_text(trace)  # NaN != NaN in a dict


def test_every_record_field_survives_a_json_round_trip():
    values = {"alpha": -0.375, "grad_norm": 2.5, "sigma": 1.75, "exhausted": False}
    for i, attr in enumerate(RECORD_VECTORS.values()):
        values[attr] = np.arange(5.0) + 10.0 * i
    names = {f.name for f in fields(IterateRecord)}
    assert set(values) == names
    assert all(values[f.name] != f.default for f in fields(IterateRecord)
               if not isinstance(values[f.name], np.ndarray))
    trace = IterateTrace(records=[IterateRecord(**values)])
    loaded = IterateTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    rec, got_rec = trace.records[0], loaded.records[0]
    for name in names:
        want, got = getattr(rec, name), getattr(got_rec, name)
        if name in UNWRITTEN.values():
            assert got is None, name
        elif isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
        else:
            assert type(got) is type(want) and got == want, name


def test_record_vectors_are_base64_and_final_x_is_numbers(tmp_path):
    run, _ = sample_traces()
    path = tmp_path / "run.json"
    run.save(path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == "qnsubspace-trace-v3"
    columns = payload["iterations"]
    count = len(run.records)
    assert columns["k"] == list(range(count))
    n = run.records[0].x.size
    assert all(columns[key] is None for key in UNWRITTEN)
    for key in [*WRITTEN, "alpha", "grad_norm", "sigma"]:
        column = columns[key]
        rows = column["rows"]
        width = 1 if key in ("alpha", "grad_norm", "sigma") else n
        assert len(base64.b64decode(column["data"], validate=True)) \
            == 8 * width * (count if rows is None else len(rows))
    final_x = payload["final"]["x"]
    assert len(final_x) == n
    assert all(type(v) is float for v in final_x)


def v1_document(trace):
    """The qnsubspace-trace-v1 document of a trace: one object per record,
    each vector a number list."""
    payload = trace.to_dict()
    payload["schema"] = "qnsubspace-trace-v1"
    payload["iterations"] = [
        {"k": k, "alpha": rec.alpha, "grad_norm": rec.grad_norm,
         "sigma": rec.sigma, "exhausted": rec.exhausted,
         **{key: None if getattr(rec, attr) is None else getattr(rec, attr).tolist()
            for key, attr in RECORD_VECTORS.items()}}
        for k, rec in enumerate(trace.records)]
    return payload


def test_v1_traces_with_number_lists_load_to_the_same_arrays(tmp_path):
    run, _ = sample_traces()
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(v1_document(run), indent=2, sort_keys=True))
    assert IterateTrace.load(path).to_dict() == run.to_dict()


def test_the_iteration_count_is_the_number_of_records():
    run, breakdown = sample_traces()
    assert run.iterations == len(run.records) > 0
    assert breakdown.iterations == 0
    with pytest.raises(AttributeError):
        run.iterations = 0


# A qn-subspace run saved in the qnsubspace-trace-v2 form.
V2_TRACE = Path(__file__).parent / "data" / "trace_v2" / "traces" / "p000__m03_qn-subspace.json"


@pytest.mark.parametrize("claim", [
    lambda status: status.pop("iterations"),
    lambda status: status.update(iterations="x"),
    lambda status: status.update(iterations=status["iterations"] + 1),
    lambda status: status.update(iterations=status["iterations"] - 1),
], ids=["missing", "text", "one-more", "one-less"])
@pytest.mark.parametrize("form", ["v1", "v2", "v3"])
def test_a_file_status_iterations_is_never_read(tmp_path, form, claim):
    honest = tmp_path / "honest.json"
    if form == "v2":
        shutil.copyfile(V2_TRACE, honest)
    else:
        run, _ = sample_traces()
        run.save(honest)
        if form == "v1":
            honest.write_text(json.dumps(v1_document(run)))
    doc = json.loads(honest.read_text())
    assert doc["schema"] == f"qnsubspace-trace-{form}"
    claim(doc["status"])
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    want, got = IterateTrace.load(honest), IterateTrace.load(doctored)
    assert got.iterations == len(got.records) == len(want.records) > 0
    assert traces_match(got, want, rtol=0.0) == (True, [])
    assert trace_text(got) == trace_text(want)


@pytest.mark.parametrize("form", ["v1", "v2", "v3"])
def test_a_file_k_is_required_but_never_kept(tmp_path, form):
    # a record's iteration is its position: a file's k is checked to be an
    # integer per record, and the records are the same whatever it holds
    honest = tmp_path / "honest.json"
    if form == "v2":
        shutil.copyfile(V2_TRACE, honest)
    else:
        run, _ = sample_traces()
        run.save(honest)
        if form == "v1":
            honest.write_text(json.dumps(v1_document(run)))
    doc = json.loads(honest.read_text())
    if form == "v3":
        doc["iterations"]["k"] = [k - 3 for k in doc["iterations"]["k"]]
    else:
        for rec in doc["iterations"]:
            rec["k"] -= 3
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    want, got = IterateTrace.load(honest), IterateTrace.load(doctored)
    assert traces_match(got, want, rtol=0.0) == (True, [])
    assert trace_text(got) == trace_text(want)
    assert json.loads(trace_text(got))["iterations"]["k"] == list(range(len(got.records)))


def form_document(form):
    """A sample run's document in ``form``; v2 is the saved qn-subspace run."""
    if form == "v2":
        return json.loads(V2_TRACE.read_text())
    run, _ = sample_traces()
    return v1_document(run) if form == "v1" else json.loads(trace_text(run))


@pytest.mark.parametrize("entry", [0.5, "1", True], ids=["fractional", "text", "bool"])
@pytest.mark.parametrize("form", ["v1", "v2", "v3"])
def test_a_file_k_that_is_not_a_json_integer_is_refused_by_name(form, entry):
    # a fraction, text and a bool are no iteration numbers, though int()
    # reads each as one
    doc = form_document(form)
    if form == "v3":
        doc["iterations"]["k"][1] = entry
    else:
        doc["iterations"][1]["k"] = entry
    with pytest.raises(ValueError, match=f"column k: entry {entry!r} is not an integer"):
        IterateTrace.from_dict(doc)


@pytest.mark.parametrize("entry", ["0.19635446424334713", True, [1.0]],
                         ids=["text", "bool", "list"])
@pytest.mark.parametrize("field", ["alpha", "grad_norm", "sigma"])
@pytest.mark.parametrize("form", ["v1", "v2"])
def test_a_record_number_that_is_not_a_json_number_is_refused_by_name(form, field, entry):
    # float() reads text and bools as numbers; a v3 file holds these as base64
    doc = form_document(form)
    doc["iterations"][1][field] = entry
    with pytest.raises(ValueError, match=f"{field} {re.escape(repr(entry))} is not a number"):
        IterateTrace.from_dict(doc)


@pytest.mark.parametrize("entry", ["abc", True, [1.0]], ids=["text", "bool", "list"])
@pytest.mark.parametrize("form", ["v1", "v2", "v3"])
def test_a_final_grad_norm_that_is_not_a_json_number_is_refused_by_name(form, entry):
    doc = form_document(form)
    doc["final"]["grad_norm"] = entry
    with pytest.raises(ValueError, match=f"final.grad_norm {re.escape(repr(entry))} is not"):
        IterateTrace.from_dict(doc)


@pytest.mark.parametrize("form", ["v1", "v2"])
def test_numbers_past_the_float_range_are_refused(form):
    doc = form_document(form)
    doc["iterations"][1]["alpha"] = 10**400
    with pytest.raises(ValueError, match="malformed trace: int too large"):
        IterateTrace.from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("form", ["v1", "v2", "v3"])
def test_any_json_number_or_null_loads_as_a_float_or_none(tmp_path, form):
    doc = form_document(form)
    if form != "v3":
        doc["iterations"][1].update(alpha=1, grad_norm=float("nan"), sigma=None)
        doc["iterations"][2].update(grad_norm=float("inf"), sigma=2)
    path = tmp_path / "numbers.json"
    for final, want in ((0, 0.0), (float("inf"), float("inf")), (None, None)):
        doc["final"]["grad_norm"] = final
        path.write_text(json.dumps(doc))  # NaN and Infinity as literals
        trace = IterateTrace.load(path)
        assert trace.final_grad_norm == want and type(trace.final_grad_norm) is type(want)
    if form != "v3":
        first, second = trace.records[1:3]
        assert type(first.alpha) is float and first.alpha == 1.0
        assert math.isnan(first.grad_norm) and first.sigma is None
        assert second.grad_norm == float("inf")
        assert type(second.sigma) is float and second.sigma == 2.0
