"""Smoke + shape tests for the experiment harnesses (small configs; the
full paper-scale sweeps are the benchmarks)."""

import pytest

from repro.experiments import (
    format_fig3,
    format_fig4,
    format_fig5,
    format_fig6,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    run_capacity_sweep,
    run_fig5,
    run_fig6,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)


def test_table1_rows_and_formatting():
    rows = run_table1()
    # The paper's 12 options plus the O13 fault-tolerance, O16
    # deployment and O17 degradation extensions (O14 and O15 were
    # deleted; the later keys keep their numbers).
    assert len(rows) == 15
    assert rows[12][0] == "O13: Fault tolerance"
    assert rows[12][2:] == ["No", "No"]     # both paper apps: off
    assert rows[13][0] == "O16: Deployment (worker processes)"
    assert rows[13][2:] == ["1", "1"]       # both paper apps: one process
    assert rows[14][0] == "O17: Degradation policy"
    assert rows[14][2:] == ["No", "No"]     # both paper apps: off
    text = format_table1(rows)
    assert "COPS-FTP" in text and "Yes: LRU" in text


def test_table2_matches_expected_and_lists_divergences():
    result = run_table2()
    assert result.matches_expected, result.vs_expected
    assert result.vs_declared == []
    text = format_table2(result)
    assert "Exact match" not in text
    assert "26 classes x 15 options, 101 non-empty cells" in text
    assert "Handle x O1 (+): generated subclass deleted" in text
    assert "ClientConfiguration x O3 (+): the uses_codec field" in text


def test_table3_categories_and_ratio():
    result = run_table3()
    assert set(result.categories) == {"Reused code", "Removed code",
                                      "Added code", "Generated code"}
    for metrics in result.categories.values():
        assert metrics.ncss > 0
    # The paper's point: hand-written code is a small minority.
    assert result.handwritten_fraction() < 0.25
    # Reused dominates the hand-written side, as in the paper.
    assert (result.categories["Reused code"].ncss
            > result.categories["Added code"].ncss)
    assert "TABLE 3" in format_table3(result)


def test_table4_categories_and_ratio():
    result = run_table4()
    assert result.total.ncss > 0
    # "only ~20% of the total code would need to be programmed".  Our
    # application facade carries a CLI flag + builder kwarg per
    # extension option (write path, procs, degradation, poller)
    # that the paper's COPS-HTTP never had, so the measured
    # fraction sits above the paper's 20% — but it must stay a clear
    # minority.
    assert result.application_fraction() < 1 / 3
    # Generated code is the largest single category, as in the paper.
    biggest = max(result.categories, key=lambda k: result.categories[k].ncss)
    assert biggest == "Generated code"
    assert "TABLE 4" in format_table4(result)


@pytest.fixture(scope="module")
def small_sweep():
    return run_capacity_sweep(client_counts=(4, 48), duration=10.0,
                              warmup=3.0)


def test_fig3_sweep_structure(small_sweep):
    assert set(small_sweep) == {"apache", "cops"}
    for pts in small_sweep.values():
        assert [p.clients for p in pts] == [4, 48]
        assert all(p.throughput > 0 for p in pts)
    text = format_fig3(small_sweep)
    assert "FIG 3" in text and "COPS-HTTP" in text and "Apache" in text


def test_fig4_formatting(small_sweep):
    text = format_fig4(small_sweep)
    assert "FIG 4" in text and "Jain" in text


def test_fig5_ratios_track_quotas():
    points, portal_only = run_fig5(ratios=((1, 1), (1, 4)), clients=176,
                                   duration=15.0, warmup=4.0)
    flat, skewed = points
    assert flat.measured_ratio == pytest.approx(1.0, abs=0.25)
    assert skewed.measured_ratio > 2.5
    assert portal_only > flat.portal_throughput
    assert "FIG 5" in format_fig5(points, portal_only)


def test_fig6_control_lowers_response_time():
    points = run_fig6(client_counts=(8, 64), duration=12.0, warmup=3.0)
    by_key = {(p.clients, p.overload_control): p for p in points}
    heavy_no = by_key[(64, False)]
    heavy_ctl = by_key[(64, True)]
    assert heavy_ctl.response_mean < 0.75 * heavy_no.response_mean
    assert heavy_ctl.throughput > 0.85 * heavy_no.throughput
    light_no = by_key[(8, False)]
    light_ctl = by_key[(8, True)]
    # Under light load the control changes nothing.
    assert light_ctl.throughput == pytest.approx(light_no.throughput, rel=0.1)
    assert "FIG 6" in format_fig6(points)
