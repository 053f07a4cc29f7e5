import json
from fractions import Fraction as F

import numpy as np
import pytest

from jacbif import (
    ContinuationSettings,
    ProblemSpec,
    branch_switch,
    continue_branch,
    find_degenerate,
    jacobi_params,
    linearization_coeffs,
    sign_classification,
)
from jacbif.output import (
    CSV_COLUMNS,
    branch_to_csv,
    branch_to_dict,
    branch_to_json,
    format_float,
    linearization_to_dict,
    linearization_to_json,
    to_json,
)


@pytest.fixture(scope="module")
def small_branch():
    spec = ProblemSpec(jacobi_params(1, 0), 2.0, N=32)
    settings = ContinuationSettings(max_steps=6, ds_max=0.01)
    start = branch_switch(1, spec, 1e-3, +1)
    return continue_branch(start, spec, settings)


def test_format_float_round_trips():
    rng = np.random.default_rng(5)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_float(float(x))) == float(x)


def test_to_json_is_valid_json():
    obj = {"a": 1, "b": [1.5, -2.75e-13], "c": {"d": "x", "e": None, "f": True}}
    assert json.loads(to_json(obj)) == obj


def _item_by_item(obj, indent=0) -> str:
    """The writer's format, each list written one item at a time."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = [
            "\n" + pad + "  " + json.dumps(k) + ": " + _item_by_item(v, indent + 2)
            for k, v in obj.items()
        ]
        return "{" + ",".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_item_by_item(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    assert obj is None
    return "null"


def test_float_lists_are_written_as_item_by_item():
    obj = {
        "floats": [1.5, -2.75e-13, float("nan"), float("inf"), 0.1, -0.0],
        "numpy": list(np.array([1.0, 1.0 / 3.0, -7e300])) + [np.float32(0.1)],
        "mixed": [1.0, 2, True, None, 3.5, np.float64(0.25), np.int64(4)],
        "bools": [True, False],
        "empty": [],
        "nested": {"a": [[], [0.5], [[1.0, 2.0], []]], "b": (1.5, 2.5), "c": [None]},
        "scalars": [np.float64("nan"), 1e-320],
    }
    assert to_json(obj) == _item_by_item(obj) + "\n"
    assert to_json([]) == "[]\n" and to_json([2.0]) == "[2]\n"


def test_branch_dict_matches_json(small_branch):
    assert json.loads(branch_to_json(small_branch)) == json.loads(
        json.dumps(branch_to_dict(small_branch))
    )


def test_branch_json_schema(small_branch):
    doc = json.loads(branch_to_json(small_branch))
    assert set(doc) == {"spec", "k", "direction", "points", "folds"}
    assert set(doc["spec"]) == {"alpha", "beta", "q", "N", "M"}
    assert doc["k"] == 1 and doc["direction"] == 1
    point = doc["points"][0]
    assert set(point) == {
        "s",
        "lambda",
        "coeffs",
        "sigma_min",
        "crossings",
        "critical_points",
        "residual_norm",
    }
    assert len(point["coeffs"]) == small_branch.spec.N
    assert doc["folds"] == []


def test_csv_flattening_matches_points(small_branch):
    text = branch_to_csv(small_branch)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) - 1 == len(small_branch.points)
    first = lines[1].split(",")
    p = small_branch.points[0]
    assert float(first[0]) == p.s
    assert float(first[1]) == p.lam
    assert float(first[2]) == pytest.approx(p.u(-1.0), rel=1e-15)
    assert float(first[3]) == pytest.approx(p.u(1.0), rel=1e-15)
    assert int(first[5]) == p.crossings


def test_json_round_trip_preserves_floats(small_branch):
    doc = json.loads(branch_to_json(small_branch))
    for got, p in zip(doc["points"], small_branch.points):
        assert got["lambda"] == p.lam
        assert got["coeffs"] == list(p.u.coeffs)


def test_serialization_deterministic(small_branch):
    assert branch_to_json(small_branch) == branch_to_json(small_branch)
    assert branch_to_csv(small_branch) == branch_to_csv(small_branch)


def test_fold_serialization():
    spec = ProblemSpec(jacobi_params(1, 0), 2.0)
    rec = find_degenerate(1, spec)
    branch = rec.branch
    doc = json.loads(branch_to_json(branch))
    assert len(doc["folds"]) == 1
    fold = doc["folds"][0]
    assert set(fold) == {
        "lambda_star",
        "coeffs",
        "null_direction",
        "crossings",
        "critical_points",
    }
    assert fold["lambda_star"] == rec.lambda_star


def test_linearization_json():
    params = jacobi_params(F(3, 2), F(1, 2))
    table = linearization_coeffs(2, params)
    report = sign_classification(2, params)
    doc = json.loads(linearization_to_json(table, report))
    assert set(doc) == {"k", "alpha", "beta", "coeffs", "i3", "h_k", "classification"}
    assert doc["k"] == 2
    assert doc["classification"] == ["positive"] * 5
    assert len(doc["coeffs"]) == 5
    assert linearization_to_dict(table)["classification"] == []
