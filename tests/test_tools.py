"""The repository's scripts under tools/, loaded by path: each imports only
the stdlib at module level."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

LOWER = {"unit": "s", "better": "lower", "bound": 0.25}


def test_one_run_is_its_own_median_and_quartiles():
    assert bench_pairs.summary([2.0]) == {"median": 2.0, "q1": 2.0,
                                          "q3": 2.0, "runs": [2.0]}
    assert bench_pairs.summary([1.0, 3.0]) == {"median": 2.0, "q1": 1.5,
                                               "q3": 2.5, "runs": [1.0, 3.0]}


@pytest.mark.parametrize("parent, change, wins, iqr", [
    ([2.0], [1.0], 1, 0.0),
    ([2.0, 4.0], [1.0, 5.0], 1, 1.0),
])
def test_compare_records_one_pair_and_two(parent, change, wins, iqr):
    record = bench_pairs.compare(LOWER, parent, change)
    assert record["pairs"] == len(parent)
    assert (record["wins"], record["ties"]) == (wins, 0)
    assert record["parent_iqr"] == iqr
    assert record["change_over_parent"] == (
        record["change"]["median"] / record["parent"]["median"])
    assert record["within_bound"] == (record["relative_worsening"] <= 0.25)
