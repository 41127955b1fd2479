"""The package's public surface: what ``from qnsubspace import *`` gives."""

import importlib.util
import types

import qnsubspace


def test_all_lists_every_public_name_once_and_sorted():
    public = {name for name, value in vars(qnsubspace).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert qnsubspace.__all__ == sorted(qnsubspace.__all__)
    assert len(set(qnsubspace.__all__)) == len(qnsubspace.__all__)
    assert set(qnsubspace.__all__) == public
    for name in qnsubspace.__all__:
        assert getattr(qnsubspace, name) is not None


def test_the_restricted_newton_constructions_are_not_shipped():
    assert len(qnsubspace.__all__) == 36
    gone = ("StepExtension", "SubspaceNewtonStep", "extend_step", "subspace_newton_general")
    for name in gone:
        assert not hasattr(qnsubspace, name)


def test_each_reference_quantity_has_one_implementation():
    # the angle, the alignment and the dense solve live in tests/oracles.py;
    # the library's solution is KrylovOracle.solution
    for name in ("unit", "cosine_alignment", "direction_angle"):
        assert not hasattr(qnsubspace.util, name)
    assert not hasattr(qnsubspace.QuadraticProblem, "solution")


def test_each_scaling_formula_has_one_implementation():
    # -g'q / q'Hq is newton_scaling, and sigma = -q'Hq / q'g is computed by
    # the solver alone; the dense reference operator stays out of the API
    for name in ("newton_sigma", "exact_line_search", "SpanApprox", "build_two_vector"):
        assert name not in qnsubspace.__all__
        assert not hasattr(qnsubspace, name)
    assert not hasattr(qnsubspace.algorithm, "newton_sigma")
    assert not hasattr(qnsubspace.baselines, "exact_line_search")


def test_the_dense_reference_operator_is_not_shipped():
    # its one dense form is tests/oracles.py's span_approx; the traced
    # benchmark only looks these two placeholders up on the algorithm module
    assert importlib.util.find_spec("qnsubspace.approximation") is None
    assert qnsubspace.algorithm.SpanApprox is None
    assert qnsubspace.algorithm.build_two_vector is None
    assert len(qnsubspace.__all__) == 36
