"""The table Monte Carlo backend against the statevector backend and its tables.

The statevector backend runs one full session per trial and is the
reference: every kind's table batch must agree with it in law.  The class
tables the sampler draws from must be the marginals of the oracle's joint
tables, and a batch's working set must stay bounded by the chunk size.
"""

import tracemalloc

import numpy as np
import pytest

from entswap.adversary import LAYOUTS, STRATEGY_KINDS, UnsupportedAttackError
from entswap.bell import BELL_ORDER, BellIndex, swap_partner
from entswap.protocol import FixedList, RandomKnown, SessionConfig
from entswap.stats import (
    CHUNK_TRIALS,
    chunk_sizes,
    class_table,
    half_width,
    joint_table,
    monte_carlo,
    wilson_interval,
)

PSI_P = BellIndex.PSI_PLUS

STATEVECTOR_TRIALS = 1000
TABLE_TRIALS = 20_000

# (kind, declared pair states) compared in law; none and type1 also with
# publicly random declared pairs, the only kinds that allow them
LAW_CASES = [(kind, None) for kind in STRATEGY_KINDS] + [
    ("none", RandomKnown(seed=11)),
    ("type1", RandomKnown(seed=12)),
]


def _successes(report) -> dict[str, int]:
    rates = {"detection": report.detection_rate, "agreement": report.key_agreement_rate}
    if report.eve_key_rate is not None:
        rates["eve key"] = report.eve_key_rate
    return {name: round(rate * report.trials) for name, rate in rates.items()}


@pytest.mark.parametrize("kind, policy", LAW_CASES, ids=str)
def test_table_backend_agrees_in_law_with_statevector(kind, policy):
    kwargs = {} if policy is None else {"pair_states": policy}
    config = SessionConfig(n_groups=4, check_fraction=0.5, **kwargs)
    table = monte_carlo(config, kind=kind, trials=TABLE_TRIALS, seed=7)
    reference = monte_carlo(config, kind=kind, trials=STATEVECTOR_TRIALS, seed=7, backend="statevector")
    assert (table.eve_key_rate is None) == (reference.eve_key_rate is None)
    want = _successes(reference)
    for name, got in _successes(table).items():
        gap = abs(got / TABLE_TRIALS - want[name] / STATEVECTOR_TRIALS)
        # two Wilson 95% half-widths from each side: about four standard errors
        band = 2 * (
            half_width(wilson_interval(got, TABLE_TRIALS))
            + half_width(wilson_interval(want[name], STATEVECTOR_TRIALS))
        )
        assert gap <= band, (kind, name, got, want[name], band)
    assert sum(table.outcome_counts) == 4 * TABLE_TRIALS
    assert table.analytic_detection == reference.analytic_detection
    assert table.analytic_eve_key == reference.analytic_eve_key


@pytest.mark.parametrize("kind", ["none", "type1"])
@pytest.mark.parametrize("a", BELL_ORDER, ids=str)
@pytest.mark.parametrize("b", BELL_ORDER, ids=str)
def test_class_table_is_the_marginal_of_the_joint_table(kind, a, b):
    joint = joint_table(kind, a, b)
    classes = class_table(kind, a, b)
    guess = LAYOUTS[kind].guess
    expected: dict[tuple[bool, bool], np.ndarray] = {}
    for (alice, bob, *eve), p in joint.items():
        label = (bob is not swap_partner(a, b, alice), guess is None or guess(tuple(eve), 0) is alice)
        expected.setdefault(label, np.zeros(4))[alice.ordinal] += p
    labels = list(zip(classes.mismatch.tolist(), classes.eve_ok.tolist()))
    assert sorted(labels) == sorted(expected)
    total = sum(cells.sum() for cells in expected.values())
    for i, label in enumerate(labels):
        cells = expected[label]
        assert classes.probs[i] == pytest.approx(cells.sum() / total, abs=1e-12)
        np.testing.assert_allclose(classes.alice[i], cells / cells.sum(), atol=1e-12)
    # the channel is untouched: fragments never mismatch, whatever the pairs
    assert not classes.mismatch.any()
    assert abs(sum(joint.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", ["type2", "type3"])
def test_phi_only_attacks_reject_other_declared_pairs(kind):
    with pytest.raises(UnsupportedAttackError):
        joint_table(kind, PSI_P, PSI_P)
    config = SessionConfig(n_groups=1, pair_states=FixedList((PSI_P, PSI_P)))
    with pytest.raises(UnsupportedAttackError):
        monte_carlo(config, kind=kind, trials=5)


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="backend"):
        monte_carlo(SessionConfig(n_groups=1), kind="none", trials=5, backend="vectorized")


def test_table_batches_are_a_pure_function_of_their_arguments():
    config = SessionConfig(n_groups=3, check_fraction=0.5)
    a = monte_carlo(config, kind="type2", trials=CHUNK_TRIALS + 5, seed=4)
    b = monte_carlo(config, kind="type2", trials=CHUNK_TRIALS + 5, seed=4)
    assert a == b
    assert monte_carlo(config, kind="type2", trials=500, seed=5).outcome_counts != (
        monte_carlo(config, kind="type2", trials=500, seed=4).outcome_counts
    )


@pytest.mark.parametrize("trials", [1, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS + 1])
def test_chunk_planner_covers_trials_in_bounded_chunks(trials):
    sizes = list(chunk_sizes(trials))
    assert sum(sizes) == trials
    assert all(0 < size <= CHUNK_TRIALS for size in sizes)
    # planned lazily: a huge batch costs no list of chunk sizes up front
    assert next(chunk_sizes(10**15)) == CHUNK_TRIALS


def test_large_batch_memory_is_bounded_by_the_chunk():
    bound_mb = 64
    config = SessionConfig(n_groups=100_000)
    tracemalloc.start()
    try:
        report = monte_carlo(config, kind="type1", trials=3 * CHUNK_TRIALS + 1, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert report.detection_rate == 0.0 and report.key_agreement_rate == 1.0
    assert sum(report.outcome_counts) == 100_000 * (3 * CHUNK_TRIALS + 1)
