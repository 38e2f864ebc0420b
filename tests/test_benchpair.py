"""The summary ``tools/benchpair.py`` prints, on fixed samples: no benchmark
runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
_SPEC = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)


def test_quartiles_are_inclusive_and_one_sample_is_both():
    assert benchpair.quartiles([0.9, 1.0, 1.0, 1.1, 1.2]) == (1.0, 1.1)
    assert benchpair.quartiles([2.0, 1.0, 4.0, 3.0]) == (1.75, 3.25)
    assert benchpair.quartiles([3.0]) == (3.0, 3.0)


def test_a_change_that_wins_every_pair_by_more_than_the_spread_is_a_gain():
    s = benchpair.summarize([1.0, 1.1, 0.9, 1.0, 1.2], [0.8, 0.85, 0.8, 0.9, 0.82],
                            "lower", 0.25)
    assert (s["parent_median"], s["change_median"]) == (1.0, 0.82)
    assert (s["parent_q1"], s["parent_q3"]) == (1.0, 1.1)
    assert (s["won"], s["pairs"], s["verdict"]) == (5, 5, "gain")
    assert s["share"] == pytest.approx(-0.18)
    assert s["worse"] == pytest.approx(-0.18)


def test_ties_count_for_neither_side():
    s = benchpair.summarize([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.9, 1.1], "lower", 0.25)
    assert (s["won"], s["verdict"]) == (1, "within")
    assert s["share"] == 0.0


def test_a_median_worse_by_more_than_the_bound_share_is_worse():
    # The bound is a share of the parent's median: 0.1 is 10%, not 0.1 MB.
    parent, change = [100.0, 101.0, 99.0, 100.0], [111.0, 112.0, 110.0, 111.0]
    s = benchpair.summarize(parent, change, "lower", 0.1)
    assert (s["won"], s["verdict"]) == (0, "worse")
    assert s["worse"] == pytest.approx(0.11)
    assert benchpair.summarize(parent, [109.0] * 4, "lower", 0.1)["verdict"] == "within"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 2.0, 1.0, 2.0, 1.5]  # quartiles 1.0 and 2.0: 67% of the median
    s = benchpair.summarize(parent, [1.6, 1.9, 1.2, 2.1, 1.7], "lower", 0.25)
    assert s["verdict"] == "unresolved"
    # Every change run beats every parent run, so the metric did not worsen;
    # the medians differ by less than the parent's quartile distance, so it
    # is no gain either.
    s = benchpair.summarize(parent, [0.9] * 5, "lower", 0.25)
    assert (s["won"], s["verdict"]) == (5, "within")


def test_higher_is_better_flips_the_sign():
    s = benchpair.summarize([10.0, 10.0, 10.0], [8.0, 8.0, 8.0], "higher", 0.1)
    assert (s["won"], s["verdict"]) == (0, "worse")
    assert s["share"] == pytest.approx(-0.2) and s["worse"] == pytest.approx(0.2)


def test_a_row_shows_the_share_beside_the_bound():
    s = benchpair.summarize([0.164, 0.160, 0.170], [0.158, 0.157, 0.161], "lower", 0.25)
    row = benchpair.format_row("bounds", "wall_s", s)
    assert row.split() == ["bounds", "wall_s", "0.164", "0.158", "3/3", "0.162", "0.167",
                           "-3.7%", "25%", "gain"]
