import json
import warnings

import numpy as np
import pytest
from numpy.linalg import norm

from qnsubspace import (
    DimensionMismatchError,
    KrylovOracle,
    NotPositiveDefiniteError,
    QuadraticProblem,
    cg_solve,
    generate_problem,
    krylov_grade,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    problem,
    save_problem,
    verify_trace,
)

import _report
import oracles


def small_problem():
    H = np.diag([1.0, 2.0, 5.0])
    c = np.array([1.0, -2.0, 0.5])
    return QuadraticProblem(H, c)


def test_gradient_objective_solution():
    prob = small_problem()
    x = np.array([0.3, -1.2, 2.0])
    assert np.allclose(prob.gradient(x), prob.H @ x + prob.c)
    assert prob.objective(x) == pytest.approx(0.5 * x @ prob.H @ x + prob.c @ x)
    xstar = KrylovOracle(prob).solution
    assert norm(prob.gradient(xstar)) <= 1e-12 * (1 + norm(prob.c))


def test_condition_number():
    assert small_problem().condition_number() == pytest.approx(5.0)


def test_validation_errors():
    with pytest.raises(DimensionMismatchError):
        QuadraticProblem(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        QuadraticProblem(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError, match="not symmetric"):
        QuadraticProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(NotPositiveDefiniteError):
        QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="cap"):
        QuadraticProblem(np.eye(600), np.zeros(600))
    prob = small_problem()
    with pytest.raises(DimensionMismatchError):
        prob.gradient(np.zeros(4))


def test_arrays_are_frozen():
    prob = small_problem()
    with pytest.raises(ValueError):
        prob.H[0, 0] = 9.0
    with pytest.raises(ValueError):
        prob.c[0] = 9.0


def block_rows(prob):
    """(first, last + 1) of each row block of H, in the order its next product reads them."""
    return [(rows.start, rows.stop) for _, rows in prob._blocks]


# 363..511 hold sizes whose half, n // 2, is not a multiple of 4 (363, 367,
# 383, 447, 511): there an edge off the row grid changes the bits of a row
PRODUCT_SIZES = [1, 2, 63, 64, 65, 362, 363, 367, 383, 401, 447, 448, 449, 511, 512]


def spd_problem(n, rng):
    """A symmetric, diagonally dominant and so positive definite H and a c."""
    A = rng.standard_normal((n, n))
    return QuadraticProblem(A + A.T + 6.0 * n * np.eye(n), rng.standard_normal(n))


@pytest.mark.parametrize("n", PRODUCT_SIZES)
def test_the_product_reads_h_in_row_blocks_of_at_most_a_mebibyte_on_a_64_row_grid(n):
    prob = QuadraticProblem(np.eye(n), np.zeros(n))
    edges = [first for first, _ in block_rows(prob)] + [n]
    assert edges[0] == 0 and edges == sorted(set(edges))
    assert all(edge % 64 == 0 for edge in edges[1:-1])
    # ceil(H.nbytes / 1 MiB) blocks: one for n <= 362, two from 363
    assert len(edges) - 1 == (1 if n <= 362 else 2)
    if n == 512:
        assert block_rows(prob) == [(0, 256), (256, 512)]
    for block, rows in prob._blocks:
        assert block.nbytes <= problem.PRODUCT_BLOCK_BYTES
        assert np.shares_memory(block, prob.H) and (block == prob.H[rows]).all()


@pytest.mark.parametrize("n", PRODUCT_SIZES)
def test_products_are_the_bits_of_h_at_v_in_either_block_order(n):
    rng = np.random.default_rng(n)
    prob = spd_problem(n, rng)
    V = rng.standard_normal((n, 3))
    for v in (V[:, 1], np.ascontiguousarray(V[:, 1])):  # strided, then contiguous
        h_v = (prob.H @ v).tobytes()
        g = (prob.H @ v + prob.c).tobytes()
        # two calls in a row read the blocks in the two orders
        orders = []
        for _ in range(2):
            orders.append(block_rows(prob))
            assert prob.hessian_action(v).tobytes() == h_v
        for _ in range(2):
            orders.append(block_rows(prob))
            assert prob.gradient(v).tobytes() == g
        assert orders[0] == orders[2] and orders[1] == orders[3]
        assert orders[1] == orders[0][::-1]


def test_grade_matches_rank_oracle():
    # distinct eigenvalues touched: 1, 2 (twice), 5 -> grade 3
    H = np.diag([1.0, 2.0, 2.0, 5.0, 7.0])
    c = np.array([1.0, 1.0, 0.5, 1.0, 0.0])  # eigenvalue 7 untouched
    prob = QuadraticProblem(H, c)
    x0 = np.zeros(5)
    assert krylov_grade(prob, x0) == oracles.grade_by_rank(H, prob.gradient(x0)) == 3


def test_the_grade_stops_where_a_krylov_vector_lies_in_the_span_numerically():
    # two eigenvalue clusters touched, 1.5e-10 apart: the second Krylov
    # vector is within RANK_RTOL * max(1, ||H||_1) of the first's line
    prob = QuadraticProblem(np.diag([1.0, 1.0 + 1.5e-10]), np.ones(2))
    oracle = KrylovOracle(prob)
    assert oracle._w.size == 2
    assert oracle.grade == 1
    trace = cg_solve(prob, np.zeros(2))
    assert (trace.status, trace.iterations) == ("converged", 1)
    assert all(report.passed for report in verify_trace(trace, prob, np.zeros(2), oracle))


def test_minimizer_matches_brute_force():
    rng = np.random.default_rng(5)
    for trial in range(10):
        prob, x0 = generate_problem(7, 5, cond=20.0, seed=trial)
        for k in range(6):
            ref = oracles.brute_krylov_minimizer(prob.H, prob.c, x0, k)
            got = KrylovOracle(prob, x0).minimizer(k)
            assert norm(got - ref) <= 1e-8 * (1 + norm(ref))
        x0b = rng.standard_normal(7)  # start points other than the origin
        gr = krylov_grade(prob, x0b)
        ref = oracles.brute_krylov_minimizer(prob.H, prob.c, x0b, gr)
        assert norm(KrylovOracle(prob, x0b).minimizer(gr) - ref) <= 1e-8 * (1 + norm(ref))


def reference_cases():
    rng = np.random.default_rng(8)
    for n, grade, cond in ((16, 6, 10.0), (64, 32, 100.0), (128, 32, 100.0),
                           (128, 64, 100.0)):
        prob, x0 = generate_problem(n, grade, cond=cond, seed=n + grade)
        yield prob, x0
        yield prob, rng.standard_normal(n)
    # six distinct eigenvalues with multiplicities 1, 3, 2, 4, 1, 5
    lam = np.repeat(np.geomspace(1.0, 50.0, 6), [1, 3, 2, 4, 1, 5])
    prob, x0 = generate_problem(16, 4, eigenvalues=lam, seed=9)
    yield prob, x0
    yield prob, rng.standard_normal(16)


def test_oracle_matches_the_per_eigenvalue_reference():
    grades = []
    for prob, x0 in reference_cases():
        oracle = KrylovOracle(prob, x0)
        grade, ref = oracles.krylov_reference(prob.H, prob.c, x0, problem.RANK_RTOL)
        assert oracle.grade == grade
        grades.append(grade)
        assert np.array_equal(oracle.minimizers[:, 0], x0)
        for k in range(1, grade + 1):
            assert norm(oracle.minimizers[:, k] - ref[k]) <= 1e-12 * norm(ref[k])
    assert grades[-2:] == [4, 6]  # clusters of repeated eigenvalues count once


@pytest.mark.parametrize("cond", [10.0, 1e2, 1e4])
def test_oracle_solution_agrees_with_the_dense_solve(cond):
    # the oracle solves through its eigendecomposition, the reference by LU
    for n in (16, 128, 256):
        for seed in range(3):
            prob, x0 = generate_problem(n, 8, cond=cond, seed=[n, seed])
            x_lu = oracles.dense_solution(prob.H, prob.c)
            x = KrylovOracle(prob, x0).solution
            assert norm(x - x_lu) <= 1e-12 * (1.0 + norm(x_lu))


def test_minimizer_endpoints_and_bounds():
    prob, x0 = generate_problem(6, 4, cond=10.0, seed=1)
    oracle = KrylovOracle(prob, x0)
    assert oracle.grade == 4
    assert np.array_equal(oracle.minimizer(0), x0)
    assert norm(oracle.minimizer(4) - oracles.dense_solution(prob.H, prob.c)) <= 1e-10
    with pytest.raises(ValueError):
        oracle.minimizer(5)
    with pytest.raises(ValueError):
        oracle.minimizer(-1)


def test_minimizer_gradient_orthogonality():
    prob, x0 = generate_problem(8, 6, cond=30.0, seed=3)
    oracle = KrylovOracle(prob, x0)
    g0n = norm(prob.gradient(x0))
    for k in range(1, 6):
        ghat = prob.gradient(oracle.minimizer(k))
        K = oracles.krylov_matrix(prob.H, prob.gradient(x0), k)
        assert np.abs(K.T @ ghat).max() <= 1e-9 * g0n


def test_conjugate_directions_are_conjugate():
    prob, x0 = generate_problem(8, 5, cond=30.0, seed=4)
    oracle = KrylovOracle(prob, x0)
    qs = [oracle.conjugate_directions[:, k].copy() for k in range(5)]
    for i in range(5):
        for j in range(i):
            cross = abs(qs[i] @ prob.hessian_action(qs[j]))
            assert cross <= 1e-9 * norm(qs[i]) * norm(qs[j]) * prob.condition_number()


def test_generate_problem_contract():
    prob, x0 = generate_problem(9, 4, cond=50.0, seed=11)
    assert np.array_equal(x0, np.zeros(9))
    assert krylov_grade(prob, x0) == 4
    w = np.linalg.eigvalsh(prob.H)
    assert np.allclose(np.sort(w), np.geomspace(1.0, 50.0, 9), rtol=1e-10)

    lam = np.array([1.0, 1.0, 3.0, 3.0, 8.0])
    prob2, x02 = generate_problem(5, eigenvalues=lam, seed=2)
    assert krylov_grade(prob2, x02) == 3  # grade defaults to distinct count

    # identical seeds must reproduce bit for bit
    a, _ = generate_problem(6, 3, cond=9.0, seed=7)
    b, _ = generate_problem(6, 3, cond=9.0, seed=7)
    assert np.array_equal(a.H, b.H) and np.array_equal(a.c, b.c)


def test_generate_problem_rejects_bad_requests():
    with pytest.raises(ValueError):
        generate_problem(4, 2)  # neither eigenvalues nor cond
    with pytest.raises(ValueError):
        generate_problem(4, 2, eigenvalues=[1, 2, 3, 4], cond=10.0)
    with pytest.raises(ValueError):
        generate_problem(4, 5, cond=10.0)  # grade above distinct count
    with pytest.raises(ValueError):
        generate_problem(4, 3, eigenvalues=[2.0, 2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        generate_problem(3, 1, cond=0.5)
    with pytest.raises(ValueError):
        generate_problem(3, 1, eigenvalues=[-1.0, 2.0, 3.0])


@pytest.mark.parametrize("n", [0, 513, 10**6, 6.0])
def test_generate_problem_checks_n_before_any_draw(monkeypatch, n):
    def draw(n, rng):
        raise AssertionError(f"drew an orthogonal {n} x {n} matrix")

    monkeypatch.setattr(problem, "_haar_orthogonal", draw)
    with pytest.raises(ValueError, match=r"n must be an integer in \[1, 512\]"):
        generate_problem(n, 2, cond=10.0)


@pytest.mark.parametrize("spectrum, message", [
    ({"cond": np.inf}, "cond must be a finite number of at least 1"),
    ({"cond": np.nan}, "cond must be a finite number of at least 1"),
    ({"cond": 0.5}, "cond must be a finite number of at least 1"),
    ({"cond": 10**400}, "cond must be a finite number of at least 1"),
    ({"cond": "10"}, "cond must be a finite number of at least 1"),
    ({"eigenvalues": [1.0, np.inf, 2.0, 3.0]}, "eigenvalues must be finite"),
    ({"eigenvalues": [1.0, np.nan, 2.0, 3.0]}, "eigenvalues must be finite"),
    ({"eigenvalues": [1.0, 2.0, 3.0]}, "eigenvalues must have length 4"),
], ids=["inf", "nan", "below-one", "past-float", "text", "inf-eigenvalue",
        "nan-eigenvalue", "short-eigenvalues"])
def test_generate_problem_checks_the_spectrum_before_any_draw(monkeypatch, spectrum,
                                                              message):
    def draw(n, rng):
        raise AssertionError(f"drew an orthogonal {n} x {n} matrix")

    monkeypatch.setattr(problem, "_haar_orthogonal", draw)
    with pytest.raises(ValueError, match=message):
        generate_problem(4, 2, **spectrum)


@pytest.mark.parametrize("grade", [True, 2.0, 2.5, "2", 0, 5])
def test_generate_problem_checks_grade_before_any_draw(monkeypatch, grade):
    def draw(n, rng):
        raise AssertionError(f"drew an orthogonal {n} x {n} matrix")

    monkeypatch.setattr(problem, "_haar_orthogonal", draw)
    with pytest.raises(ValueError, match=r"grade must be an integer in \[1, 4\], got "):
        generate_problem(4, grade, cond=10.0)


def test_ill_conditioned_warning():
    with pytest.warns(UserWarning, match="condition number"):
        generate_problem(4, 2, cond=1e9, seed=0)


def test_problem_round_trip(tmp_path):
    prob, x0 = generate_problem(5, 3, cond=12.0, seed=9)
    d = problem_to_dict(prob, x0, seed=9, spec={"cond": 12.0})
    back, x0b, meta = problem_from_dict(d)
    assert np.array_equal(back.H, prob.H)
    assert np.array_equal(back.c, prob.c)
    assert np.array_equal(x0b, x0)
    assert meta["seed"] == 9 and meta["spec"] == {"cond": 12.0}

    path = tmp_path / "instance.json"
    save_problem(path, prob, x0, seed=9)
    again, x0c, _ = load_problem(path)
    assert np.array_equal(again.H, prob.H) and np.array_equal(x0c, x0)
    payload = json.loads(path.read_text())
    assert payload["n"] == 5 and len(payload["H"]) == 25  # row-major flat


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_rejected(tmp_path, bad):
    with pytest.raises(ValueError, match="c must be finite"):
        QuadraticProblem(np.eye(3), [bad, 1.0, 2.0])
    with pytest.raises(ValueError, match="H must be finite"):
        QuadraticProblem(np.diag([1.0, bad, 2.0]), np.ones(3))

    # the problem file would hold null for it, which reads back as NaN
    prob = small_problem()
    x0 = np.array([0.0, bad, 0.0])
    path = tmp_path / "p.json"
    with pytest.raises(ValueError, match="x0 must be finite"):
        save_problem(path, prob, x0)
    assert not path.exists()
    d = problem_to_dict(prob)
    d["x0"] = x0.tolist()
    with pytest.raises(ValueError, match="x0 must be finite"):
        problem_from_dict(d)


# n as a problem file may give it, with the H and c of that many (rounded) rows
@pytest.mark.parametrize("n, rows", [(2.7, 2), (True, 1), (0, 0), (-2, 2)],
                         ids=["fraction", "true", "zero", "negative"])
def test_a_problem_file_n_must_be_an_integer_in_range(n, rows):
    d = {"n": n, "H": np.eye(rows).ravel().tolist(), "c": [1.0] * rows}
    with pytest.raises(ValueError, match=rf"n must be an integer in \[1, 512\], got {n!r}"):
        problem_from_dict(d)


# H whose sum with its transpose overflows, and the H a problem keeps: a
# symmetric one as it is, and one a rounding off symmetric averaged.
HUGE = [(np.diag([1e308, 1e308]), np.diag([1e308, 1e308])),
        (np.array([[1e308, 1.0], [1.0 + 2.0**-52, 1e308]]),
         np.array([[1e308, 1.0], [1.0, 1e308]]))]


@pytest.mark.parametrize("H, want", HUGE, ids=["symmetric", "asymmetric"])
def test_symmetrizing_a_huge_h_keeps_it_finite(tmp_path, H, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warns before it gives inf
        prob = QuadraticProblem(H, np.ones(2))
        assert np.isfinite(prob.gradient(np.ones(2))).all()
        path = tmp_path / "huge.json"
        save_problem(path, prob)
        loaded, _, _ = load_problem(path)
    assert np.array_equal(prob.H, want)
    assert np.array_equal(loaded.H, want)


def test_symmetrizing_keeps_the_average_of_a_finite_sum_bit_for_bit():
    tiny = 5e-324
    # halving each entry first would round this pair's average to 2 * tiny
    H = np.array([[2.0, tiny], [5 * tiny, 2.0]])
    assert QuadraticProblem(H, np.ones(2)).H[0, 1] == 3 * tiny
    rng = np.random.default_rng(0)
    for scale in (1e-300, 1.0, 1e300):
        A = rng.standard_normal((6, 6))
        H = (A @ A.T + np.eye(6) + 1e-14 * rng.standard_normal((6, 6))) * scale
        want = 0.5 * (H + H.T)
        got = QuadraticProblem(H, np.ones(6)).H
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), scale


@pytest.mark.parametrize("field", ["H", "c", "x0"])
def test_null_entries_in_a_problem_file_are_rejected(field):
    d = problem_to_dict(small_problem())
    d[field][1] = None
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        problem_from_dict(d)


def with_h(edit):
    """The dict form of ``small_problem`` with ``edit`` applied to its list H."""
    d = problem_to_dict(small_problem())
    d["H"] = edit(d["H"])
    return d


def replaced(i, value):
    return lambda H: H[:i] + [value] + H[i + 1:]


# How entries of H that are not plain numbers are taken: booleans and text
# that spells a number are read as numbers, as np.asarray reads them.
@pytest.mark.parametrize("edit", [
    replaced(0, True), replaced(1, False), replaced(4, "2"), replaced(8, " 5e0 "),
], ids=["true", "false", "numeric-text", "spaced-text"])
def test_entries_of_h_that_read_as_numbers_load(edit):
    prob, _, _ = problem_from_dict(with_h(edit))
    assert np.array_equal(prob.H, small_problem().H)


@pytest.mark.parametrize("edit, error, message", [
    (lambda H: np.reshape(H, (3, 3)).tolist(), ValueError,
     "H must hold 9 row-major entries, got 9"),
    (replaced(4, [2.0]), ValueError, "inhomogeneous shape"),
    (replaced(4, "two"), ValueError, "could not convert string to float: 'two'"),
    (replaced(4, {"a": 2.0}), ValueError, "malformed problem: float() argument"),
    (lambda H: 5, ValueError, "H must hold 9 row-major entries, got 1"),
    (lambda H: "1.0", ValueError, "H must hold 9 row-major entries, got 1"),
], ids=["nested-rows", "nested-entry", "text", "object-entry", "number", "text-H"])
def test_malformed_h_is_rejected(edit, error, message):
    with pytest.raises(error) as info:
        problem_from_dict(with_h(edit))
    assert type(info.value) is error
    assert message in str(info.value)


def spectrum_errors(H, evals, evecs):
    """max|V'V - I| and max|HV - V diag(lambda)| / max(1, max|H|)."""
    n = H.shape[0]
    return (np.abs(evecs.T @ evecs - np.eye(n)).max(),
            np.abs(H @ evecs - evecs * evals).max() / max(1.0, np.abs(H).max()))


def test_the_spectrum_check_constant_leaves_a_tenfold_margin():
    worst = [0.0, 0.0]
    cases = [generate_problem(n, cond=cond, seed=n)[0]
             for n in (6, 16, 64, 256, 512) for cond in (1.0, 1e2, 1e4, 1e8)]
    # repeated eigenvalues, where eigh picks any basis of each eigenspace
    cases += [generate_problem(n, eigenvalues=np.repeat([1.0, 2.0, 5.0, 7.0], n // 4),
                               seed=n)[0] for n in (8, 64)]
    for prob in cases:
        errors = spectrum_errors(prob.H, *prob.spectrum)
        worst = [max(w, e / prob.n) for w, e in zip(worst, errors)]
    _report.record(
        "spectrum check constant", 10 * max(worst) <= problem.SPECTRUM_RTOL,
        f"eigh over n 6..512, cond 1..1e8 and repeated eigenvalues: worst "
        f"max|V'V - I| {worst[0]:.2e} n, scaled max|HV - V diag(lambda)| "
        f"{worst[1]:.2e} n (SPECTRUM_RTOL {problem.SPECTRUM_RTOL:.0e} n)")
    assert 10 * max(worst) <= problem.SPECTRUM_RTOL


def scaled_top_eigenvalue(A):
    A[0, -1] *= 1.0 + 1e-9


def swapped_columns(A):
    A[1:, [3, 4]] = A[1:, [4, 3]]


def noisy_vectors(A):
    A[1:] += 1e-9 * np.random.default_rng(0).standard_normal(A[1:].shape)


def flipped_column(A):
    A[1:, 2] *= -1.0


def saved_with_spectrum(tmp_path, doctor=None):
    """A saved n = 16 problem, its sidecar rewritten as ``doctor`` leaves it."""
    prob, x0 = generate_problem(16, 6, cond=100.0, seed=4)
    path = tmp_path / "p.json"
    save_problem(path, prob, x0)
    sidecar = tmp_path / json.loads(path.read_text())["spectrum"]
    A = np.load(sidecar)
    if doctor is not None:
        doctor(A)
        np.save(sidecar, A)
    return prob, path, A


@pytest.mark.parametrize("doctor", [scaled_top_eigenvalue, swapped_columns, noisy_vectors])
def test_a_doctored_spectrum_is_rejected(tmp_path, doctor):
    _, path, _ = saved_with_spectrum(tmp_path, doctor)
    with pytest.raises(ValueError, match="does not decompose H"):
        load_problem(path)


@pytest.mark.parametrize("doctor", [None, flipped_column])
def test_a_saved_spectrum_loads_read_only(tmp_path, doctor):
    # a column of either sign is an eigenvector
    prob, path, A = saved_with_spectrum(tmp_path, doctor)
    loaded, x0, _ = load_problem(path)
    evals, evecs = loaded.spectrum
    assert np.array_equal(evals, A[0]) and np.array_equal(evecs, A[1:])
    assert not evals.flags.writeable and not evecs.flags.writeable
    if doctor is None:
        # eigh's own output on the same H, so the reference is the same
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(loaded.spectrum, prob.spectrum))
        assert np.array_equal(KrylovOracle(loaded, x0).minimizers,
                              KrylovOracle(prob, x0).minimizers)


def test_a_problem_is_decomposed_at_most_once(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    prob, x0 = generate_problem(8, 4, cond=30.0, seed=2)
    assert calls == []  # the generator hands over no spectrum
    cond = prob.condition_number()
    oracles_ = [KrylovOracle(prob, x0), KrylovOracle(prob, np.ones(8))]
    assert [oracle.problem.condition_number() for oracle in oracles_] == [cond, cond]
    assert oracles_[0].solution is not None
    assert calls == ["eigh"]
