import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.25},
]
SPREAD = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # quartile range 0.9


def _runs(parent: list[float], change: list[float]) -> list[dict]:
    """Ten synthetic pairs: both metrics read each side's value, run_s as is, rate negated."""
    runs = []
    for pair, values in enumerate(zip(parent, change), start=1):
        for side, value in zip(bench_pairs.SIDES, values):
            runs.append({"pair": pair, "side": side, "correct": True, "run_s": value,
                         "rate": -value})
    return runs


@pytest.mark.parametrize(
    "change, resolved",
    [
        ([v - 2.0 for v in SPREAD[:9]] + [SPREAD[9] + 1.0], True),  # 9 wins beyond the spread
        ([v - 2.0 for v in SPREAD[:8]] + [v + 1.0 for v in SPREAD[8:]], False),  # 8 wins
        ([v - 0.1 for v in SPREAD], False),  # 10 wins, inside the spread
        ([v - 2.0 for v in SPREAD[:9]] + [SPREAD[9]], True),  # a tie counts for neither side
        ([v - 2.0 for v in SPREAD[:8]] + SPREAD[8:], False),  # two ties: 8 wins
    ],
    ids=["9-wins-beyond", "8-wins", "10-wins-inside", "9-wins-and-a-tie", "8-wins-2-ties"],
)
def test_a_gain_counts_with_9_of_10_wins_beyond_the_parents_quartile_range(change, resolved):
    summary = bench_pairs.summarize(_runs(SPREAD, change), METRICS)
    for name in ("run_s", "rate"):  # lower is better for run_s, higher for rate
        assert summary[name]["parent_iqr"] == pytest.approx(0.9)
        assert summary[name]["gain_resolved"] is resolved, name
    assert summary["run_s"]["change_wins"] == summary["rate"]["change_wins"]


def _gains(runs: list[dict]) -> list[bool]:
    summary = bench_pairs.summarize(runs, METRICS)
    return [summary[name]["gain_resolved"] for name in ("run_s", "rate")]


def test_a_gain_counts_its_wins_over_every_pair_run():
    # 8 wins beyond the spread; the last two change runs return no metric, so 8 of 10 pairs
    runs = _runs(SPREAD, [v - 2.0 for v in SPREAD])
    for run in runs[-3::2]:
        assert run["side"] == "change"
        del run["run_s"], run["rate"]
    assert _gains(runs) == [False, False]
    assert _gains(runs[:-4]) == [True, True]  # the 8 pairs alone


def test_a_gain_does_not_count_with_an_incorrect_run_or_more_failed_ops():
    runs = _runs(SPREAD, [v - 2.0 for v in SPREAD])  # 10 wins beyond the spread
    assert _gains(runs) == [True, True]
    runs[1]["correct"] = False
    assert _gains(runs) == [False, False]
    runs[1]["correct"] = True
    runs[1]["failed"] = 1  # a change run fails an operation the parent did not
    assert runs[1]["side"] == "change" and _gains(runs) == [False, False]
    runs[0]["failed"] = 1  # as many failed at the parent
    assert _gains(runs) == [True, True]


def test_a_loss_never_counts_as_a_gain():
    summary = bench_pairs.summarize(_runs(SPREAD, [v + 2.0 for v in SPREAD]), METRICS)
    assert summary["run_s"]["parent_wins"] == summary["rate"]["parent_wins"] == 10
    assert not summary["run_s"]["gain_resolved"] and not summary["rate"]["gain_resolved"]
