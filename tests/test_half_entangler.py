"""A layout that exists only here, run through every path that takes one.

The "half entangler" fabricates a GHZ state on pair a only and leaves pair b
as declared; Eve Bell-measures her GHZ qubit with one half of a private phi+
pair and guesses Alice's outcome uniformly.  Every ``stats`` entry point
takes it as it takes a kind tag, and ``adversary.LAYOUTS`` is never touched.
"""

import dataclasses

import pytest

from entswap.adversary import LAYOUTS, STRATEGY_KINDS, Layout, UnsupportedAttackError, make_strategy
from entswap.bell import BELL_ORDER, BellIndex
from entswap.protocol import FixedList, SessionConfig, run_session
from entswap.stats import (
    analytic_detection,
    analytic_eve_key,
    class_table,
    half_width,
    joint_table,
    monte_carlo,
    monte_carlo_sweep,
    per_check_mismatch,
    per_group_eve_success,
)
from test_layout import (
    _eve_ensemble,
    _guesses_are_maximizers,
    _posteriors,
    _square_root_measurement,
    _yuen_kennedy_lax,
)

PHI = BellIndex.PHI_PLUS

HALF = Layout(
    "half",
    systems={"main": (("ghz", ("1", "2", "5")), ("b", ("3", "4")), (PHI, ("6", "7")))},
    alice=("main", ("1", "3")),
    bob=("main", ("2", "4")),
    eve=(("main", ("5", "6")),),
    order=("alice", "bob", "eve"),
    guess=lambda eve: BELL_ORDER,
)

CONFIG = SessionConfig(n_groups=4, check_fraction=0.25)
TRIALS = 4000


@pytest.fixture(autouse=True)
def layouts_untouched():
    before = dict(LAYOUTS)
    yield
    assert LAYOUTS == before and STRATEGY_KINDS == tuple(before)


def test_sessions_run_under_the_layout():
    for seed in range(20):
        report = run_session(SessionConfig(n_groups=4, check_fraction=0.5, seed=seed), HALF)
        assert report.adversary_kind == "half"
        assert report.verdict in ("accept", "abort")
        assert len(report.eve.per_group_correct) == 4


def test_the_exact_rates():
    assert abs(sum(joint_table(HALF).values()) - 1.0) <= 1e-12
    assert per_check_mismatch(HALF) == pytest.approx(0.5, abs=1e-12)
    assert per_group_eve_success(HALF) == pytest.approx(0.25, abs=1e-12)
    for k in range(1, 5):
        assert analytic_detection(HALF, k) == pytest.approx(1.0 - 0.5**k, abs=1e-12)
    assert analytic_eve_key(HALF, 4) == pytest.approx(0.25**4, abs=1e-15)


@pytest.mark.parametrize("a", [s for s in BELL_ORDER if s is not PHI], ids=str)
def test_a_declared_pair_it_does_not_place_must_be_phi_plus(a):
    # the GHZ factor stands in for pair a whatever was declared, so only phi+ is modeled there
    with pytest.raises(UnsupportedAttackError, match=r"declared \("):
        joint_table(HALF, a, PHI)
    with pytest.raises(UnsupportedAttackError):
        class_table(HALF, a, PHI)
    config = SessionConfig(n_groups=1, pair_states=FixedList((a, PHI)))
    with pytest.raises(UnsupportedAttackError):
        run_session(config, HALF)
    with pytest.raises(UnsupportedAttackError):
        monte_carlo(config, kind=HALF, trials=5)


@pytest.mark.parametrize("b", BELL_ORDER, ids=str)
def test_every_declared_pair_it_places_gives_the_same_rates(b):
    table = class_table(HALF, PHI, b)
    assert table.probs[table.mismatch].sum() == pytest.approx(0.5, abs=1e-12)
    assert table.probs[table.eve_ok].sum() == pytest.approx(0.25, abs=1e-12)


def test_eves_outcome_is_independent_of_alices():
    pairs = {}
    for (alice, _, eve), p in joint_table(HALF).items():
        pairs[alice, eve] = pairs.get((alice, eve), 0.0) + p
    assert len(pairs) == 16
    # each of the 16 (alice, eve) cells carries 1/4 * 1/4
    assert all(abs(p - 1 / 16) <= 1e-12 for p in pairs.values())


def test_each_layout_object_is_its_own_cache_key():
    assert class_table(HALF) is class_table(HALF)
    assert class_table("type2") is class_table(make_strategy("type2"))
    copy = dataclasses.replace(HALF)
    assert class_table(copy) is not class_table(HALF)
    assert joint_table(copy) == joint_table(HALF)


@pytest.mark.parametrize("backend", ["table", "statevector"])
def test_both_backends_agree_with_the_analytic_rates(backend):
    report = monte_carlo(CONFIG, kind=HALF, trials=TRIALS, seed=5, backend=backend)
    assert report.strategy == "half"
    assert report.analytic_detection == analytic_detection(HALF, CONFIG.k_checked)
    assert report.analytic_eve_key == analytic_eve_key(HALF, CONFIG.n_groups)
    # two Wilson 95% half-widths: about four standard errors
    assert abs(report.detection_rate - report.analytic_detection) <= 2 * half_width(report.detection_interval)
    assert abs(report.eve_key_rate - report.analytic_eve_key) <= 2 * half_width(report.eve_key_interval)
    assert sum(report.outcome_counts) == CONFIG.n_groups * TRIALS


def test_the_sweep_is_monte_carlo_at_each_k():
    reports = monte_carlo_sweep(CONFIG, HALF, range(1, 5), TRIALS, 9)
    for k, report in zip(range(1, 5), reports):
        config = SessionConfig(n_groups=4, check_fraction=k / 4)
        assert report == monte_carlo(config, kind=HALF, trials=TRIALS, seed=9)


def test_the_uniform_guess_is_bayes_optimal():
    assert _guesses_are_maximizers(HALF, HALF.guess)
    best = sum(max(masses.values()) for masses in _posteriors(HALF).values())
    assert best == pytest.approx(0.25, abs=1e-12)


def test_no_measurement_beats_the_uniform_guess():
    weighted = _eve_ensemble(HALF, PHI, PHI)
    success, asymmetry, worst = _yuen_kennedy_lax(weighted, _square_root_measurement(weighted))
    assert abs(success - per_group_eve_success(HALF)) <= 1e-12
    assert asymmetry <= 1e-12
    assert worst >= -1e-12
