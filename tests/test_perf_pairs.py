"""The verdicts of ``scripts/perf_pairs.py``, on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "hits", "better": "higher", "bound": 0.25}
PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def test_gain_needs_nine_wins_in_ten_and_a_median_past_the_iqr(perf_pairs):
    change = [p - 1.0 for p in PARENT]
    assert perf_pairs.verdict(LOWER, PARENT, change) == "gain"
    # Higher-is-better mirrors it.
    assert perf_pairs.verdict(HIGHER, change, PARENT) == "gain"
    # One tie: still nine wins in ten.
    tied = change[:-1] + [PARENT[-1]]
    assert perf_pairs.verdict(LOWER, PARENT, tied) == "gain"
    # Two ties: eight wins are not enough.
    assert perf_pairs.verdict(LOWER, PARENT, change[:-2] + PARENT[-2:]) == (
        "within bound"
    )
    # Ten wins by less than the parent's IQR (0.2) are no gain.
    slight = [p - 0.05 for p in PARENT]
    assert perf_pairs.verdict(LOWER, PARENT, slight) == "within bound"


def test_worse_past_the_bound(perf_pairs):
    assert perf_pairs.verdict(LOWER, PARENT, [p * 1.3 for p in PARENT]) == (
        "worse"
    )
    assert perf_pairs.verdict(LOWER, PARENT, [p * 1.2 for p in PARENT]) == (
        "within bound"
    )
    assert perf_pairs.verdict(HIGHER, PARENT, [p * 0.7 for p in PARENT]) == (
        "worse"
    )


def test_unresolved_when_the_parent_spreads_past_the_bound(perf_pairs):
    # Bimodal parent: IQR 10 on a median of 15, wider than 25%.
    parent = [10.0, 20.0] * 5
    change = [20.0, 10.0] * 5
    assert perf_pairs.verdict(LOWER, parent, change) == "unresolved"
    # Every change run beating every parent run resolves it, and a
    # median better by more than the IQR (10) makes that a gain.
    assert perf_pairs.verdict(LOWER, parent, [9.0] * 10) == "within bound"
    assert perf_pairs.verdict(LOWER, parent, [4.0] * 10) == "gain"
    assert perf_pairs.verdict(LOWER, parent, [9.0] * 8 + [20.0] * 2) == (
        "unresolved"
    )


def test_summary_rows_carry_the_verdict(perf_pairs):
    pairs = [({"wall_s": p}, {"wall_s": p - 1.0}) for p in PARENT]
    header, row = perf_pairs.summarize([LOWER], pairs)
    assert header.endswith("verdict")
    assert row.startswith("wall_s") and row.endswith("gain")
    assert "10/10" in row
