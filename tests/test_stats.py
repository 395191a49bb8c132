"""Intervals, uniformity test, analytic rates, Monte Carlo summaries."""

import math

import numpy as np
import pytest

from entswap.protocol import SessionConfig
from entswap.stats import (
    SWEEP_CSV_HEADER,
    analytic_detection,
    analytic_eve_key,
    chi2_sf_3df,
    efficiency_report,
    half_width,
    monte_carlo,
    per_check_mismatch,
    per_group_eve_success,
    sweep_csv_row,
    uniformity_test,
    wilson_interval,
)


def test_wilson_interval_known_value():
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.2366, abs=2e-4)
    assert hi == pytest.approx(0.7634, abs=2e-4)
    assert half_width((lo, hi)) == pytest.approx((hi - lo) / 2)


def test_wilson_interval_edges_and_errors():
    lo, hi = wilson_interval(0, 50)
    assert abs(lo) < 1e-12 and 0 < hi < 0.1
    lo, hi = wilson_interval(50, 50)
    assert 0.9 < lo < 1 and abs(hi - 1.0) < 1e-12
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(-1, 4)


def test_chi2_sf_3df_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for x in [0.01, 0.1, 0.5, 1.0, 2.0, 3.5, 7.815, 11.345, 16.266, 25.0, 40.0]:
        assert chi2_sf_3df(x) == pytest.approx(scipy_stats.chi2.sf(x, 3), abs=1e-12)


def test_chi2_sf_3df_reference_points():
    assert chi2_sf_3df(0.0) == 1.0
    # classic 3-df critical values
    assert chi2_sf_3df(7.815) == pytest.approx(0.05, abs=5e-4)
    assert chi2_sf_3df(11.345) == pytest.approx(0.01, abs=1e-4)
    with pytest.raises(ValueError):
        chi2_sf_3df(-0.5)


def test_uniformity_test_behavior():
    stat, p = uniformity_test([100, 100, 100, 100])
    assert stat == 0.0 and p == 1.0
    stat, p = uniformity_test([400, 0, 0, 0])
    assert p < 1e-12
    _, p = uniformity_test([90, 110, 95, 105])
    assert p > 0.05
    with pytest.raises(ValueError):
        uniformity_test([5, 5, 5, 5])  # too few samples
    with pytest.raises(ValueError):
        uniformity_test([50, 50, 50])
    with pytest.raises(ValueError):
        uniformity_test([50, 50, 50, -10])


def test_per_check_mismatch_values():
    assert per_check_mismatch("none") == 0.0
    assert per_check_mismatch("type1") == 0.0
    assert per_check_mismatch("type2") == pytest.approx(0.5, abs=1e-9)
    assert per_check_mismatch("type3") == pytest.approx(0.75, abs=1e-9)
    with pytest.raises(ValueError):
        per_check_mismatch("type9")


def test_per_group_eve_success_values():
    assert per_group_eve_success("none") is None
    assert per_group_eve_success("type1") == pytest.approx(0.25, abs=1e-9)
    assert per_group_eve_success("type2") == pytest.approx(0.5, abs=1e-9)
    assert per_group_eve_success("type3") == pytest.approx(1.0, abs=1e-9)


def test_analytic_detection_curves():
    for k, expected in [(1, 0.5), (2, 0.75), (3, 0.875), (4, 0.9375)]:
        assert analytic_detection("type2", k) == pytest.approx(expected, abs=1e-9)
    for k in (1, 2, 3, 4):
        assert analytic_detection("type3", k) == pytest.approx(1 - 0.25**k, abs=1e-9)
        assert analytic_detection("none", k) == 0.0
        assert analytic_detection("type1", k) == 0.0
    with pytest.raises(ValueError):
        analytic_detection("type2", 0)
    with pytest.raises(ValueError):
        analytic_detection("bogus", 1)


def test_analytic_eve_key_values():
    assert analytic_eve_key("none", 4) is None
    assert analytic_eve_key("type1", 4) == pytest.approx(1 / 256, abs=1e-12)
    assert analytic_eve_key("type2", 2) == pytest.approx(0.25, abs=1e-9)
    assert analytic_eve_key("type3", 5) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        analytic_eve_key("type1", 0)


def test_monte_carlo_honest_channel():
    report = monte_carlo(SessionConfig(n_groups=3), kind="none", trials=40, seed=8)
    assert report.detection_rate == 0.0
    assert report.key_agreement_rate == 1.0
    assert report.eve_key_rate is None and report.eve_key_interval is None
    assert report.analytic_eve_key is None
    assert sum(report.outcome_counts) == 40 * 3
    assert report.strategy == "none" and report.k_checked == 2


def test_monte_carlo_reproducible():
    config = SessionConfig(n_groups=2, check_fraction=1.0)
    a = monte_carlo(config, kind="type2", trials=30, seed=4)
    b = monte_carlo(config, kind="type2", trials=30, seed=4)
    assert a == b
    c = monte_carlo(config, kind="type2", trials=30, seed=5)
    assert a != c


def test_monte_carlo_fast_and_slow_guesser_agree_in_law():
    config = SessionConfig(n_groups=1, check_fraction=1.0)
    fast = monte_carlo(config, kind="type1", trials=4000, seed=6)
    slow = monte_carlo(config, kind="type1", trials=400, seed=6, backend="statevector")
    assert fast.detection_rate == 0.0 and slow.detection_rate == 0.0
    assert fast.key_agreement_rate == 1.0 and slow.key_agreement_rate == 1.0
    # both estimates sit inside loose 5-sigma bands around 1/4
    for report in (fast, slow):
        sigma = math.sqrt(0.25 * 0.75 / report.trials)
        assert abs(report.eve_key_rate - 0.25) < 5 * sigma
    # honest outcomes uniform in both paths
    for report in (fast, slow):
        counts = np.asarray(report.outcome_counts)
        expected = counts.sum() / 4
        assert (abs(counts - expected) < 5 * math.sqrt(expected)).all()


def test_monte_carlo_detects_channel_attacks():
    config = SessionConfig(n_groups=2, check_fraction=1.0)
    report = monte_carlo(config, kind="type2", trials=300, seed=10)
    sigma3 = 3 * half_width(report.detection_interval)
    assert abs(report.detection_rate - 0.75) <= sigma3
    report = monte_carlo(config, kind="type3", trials=300, seed=10)
    sigma3 = 3 * half_width(report.detection_interval)
    assert abs(report.detection_rate - 0.9375) <= sigma3
    assert report.eve_key_rate == 1.0  # replacer always reconstructs the key


def test_monte_carlo_rejects_bad_arguments():
    config = SessionConfig(n_groups=1)
    with pytest.raises(ValueError):
        monte_carlo(config, kind="nope", trials=10)
    with pytest.raises(ValueError):
        monte_carlo(config, kind="none", trials=0)


def test_mc_report_json_shape():
    report = monte_carlo(SessionConfig(n_groups=1), kind="type1", trials=50, seed=1)
    payload = report.to_json_dict()
    assert set(payload) == {
        "strategy",
        "n_groups",
        "k_checked",
        "trials",
        "seed",
        "detection_rate",
        "detection_interval",
        "eve_key_rate",
        "eve_key_interval",
        "key_agreement_rate",
        "outcome_counts",
        "analytic_detection",
        "analytic_eve_key",
    }
    assert len(payload["detection_interval"]) == 2
    assert len(payload["outcome_counts"]) == 4


def test_efficiency_report_exact_values():
    report = efficiency_report(16, 0.5)
    assert report.raw_bits_per_group == 4.0
    assert report.raw_bits_per_particle == 1.0
    assert report.k_checked == 8
    assert report.net_bits_per_particle == 1.0 - 8 / 16
    report = efficiency_report(5, 0.4)
    assert report.k_checked == 2
    assert report.net_bits_per_particle == 1.0 - 2 / 5
    assert report.reference_bits_per_pair == {"this_scheme_raw": 2.0, "bb84": 1.0, "b92": 0.5}
    payload = report.to_json_dict()
    assert payload["raw_bits_per_group"] == 4.0


def test_sweep_csv_row_layout():
    assert SWEEP_CSV_HEADER == (
        "strategy",
        "n_groups",
        "k_checked",
        "trials",
        "detection_rate",
        "ci",
        "analytic",
        "eve_key_rate",
        "agreement_rate",
    )
    report = monte_carlo(SessionConfig(n_groups=1), kind="none", trials=40, seed=2)
    row = sweep_csv_row(report)
    assert len(row) == len(SWEEP_CSV_HEADER)
    assert row[0] == "none"
    assert row[7] == ""  # no adversary, no key-rate column
    report = monte_carlo(SessionConfig(n_groups=1), kind="type1", trials=40, seed=2)
    row = sweep_csv_row(report)
    assert row[7] != ""
    assert float(row[6]) == 0.0
