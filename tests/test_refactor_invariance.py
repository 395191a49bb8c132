"""Seeded outputs pinned before the per-attack layouts were unified.

The expected values were recorded from the enumeration-per-kind code that
preceded ``adversary.LAYOUTS``.  Session reports and sampled Monte Carlo
fields must stay byte-identical; analytic values, now marginals of a joint
outcome table, may only drift in the last few ulps.

The digests of sessions over random and fixed pair states, of sessions given
their own seed sequence, and of whole statevector Monte Carlo reports were
recorded from the session that still spawned its two streams with
``SeedSequence.spawn(2)`` and built every fragment with ``swap_partner`` and
``group_key_fragment``.
"""

import hashlib
import json

import numpy as np
import pytest

from entswap.adversary import STRATEGY_KINDS, make_strategy
from entswap.bell import BELL_ORDER
from entswap.protocol import FixedList, RandomKnown, SessionConfig, run_session
from entswap.stats import (
    analytic_detection,
    analytic_eve_key,
    monte_carlo,
    per_check_mismatch,
    per_group_eve_success,
)

SESSION_SEED = 2718

# sha256 of json.dumps(report.to_json_dict(), sort_keys=True)
SESSION_DIGESTS = {
    ("none", 4, 0.5): "79c414211408ac6e0bac66c29eb48ba428bb4d4522f35666f28c327edb8edf7f",
    ("none", 16, 0.25): "e5067f282095ecc2a04c9f70af24f52de7b6a1e5067f721fe507f684834f3a29",
    ("type1", 4, 0.5): "a31177e7bbd79d3248b14dbfa08042a7d04046b8c13ad268913f756a776c99d0",
    ("type1", 16, 0.25): "98fbf10202a808fc338992cf27f7e06de38b2c63fda464fc38103433675aabe9",
    ("type2", 4, 0.5): "36eff41d90aa2ef3d57d9c55b919488d284906f3f14dc39337ae38a19a025e1c",
    ("type2", 16, 0.25): "c6a8180c26f583b09e98fc26f027b83058d4d91128d744eb404a77ee6957315c",
    ("type3", 4, 0.5): "dafa7e9a35dcc1207fc1ba152b914175bfd9d8a46e935c67249f7057f5f537ec",
    ("type3", 16, 0.25): "6369e121403defa1576bae3c831e29e80d613882f01676c21895dc44e4bb5665",
}

# as SESSION_DIGESTS, for 8 groups at fraction 0.5 over each pair-state policy
_FIXED = FixedList(tuple(BELL_ORDER[(3 * i + i // 4) % 4] for i in range(16)))
POLICIES = {"random:99": RandomKnown(seed=99), "fixed": _FIXED}
POLICY_DIGESTS = {
    ("none", "random:99"): "45281f41af35d871a64dd5deea31f3556b56bf509630f5ba51bc41e2088da20c",
    ("none", "fixed"): "94bdbeb4a9392748881bc2edc2e4dd77c65d7c48fa883faeadc79719c7b0fc29",
    ("type1", "random:99"): "2f9ccebd6fe882ea8f3e3061d5e5dfa8ae2e2a64d4c978cc87ea57146b3bbf75",
    ("type1", "fixed"): "b2917eba51369ddc7d2489ad0b903c619ba81b306286876235ce7786961a3fc9",
}

# as SESSION_DIGESTS, for 8 groups at fraction 0.25 given
# seed_seq=SeedSequence(SESSION_SEED, spawn_key=(5,))
SEED_SEQ_DIGESTS = {
    "none": "66074db72f1f8ac60002717a3be6d850ebfa30f47d8201f63e4be8b543bd82b3",
    "type1": "42f125b94b23d3e2aedbe2d7131299f7219356768564610d63c25187906f6ec1",
    "type2": "0ea5306d9b58e03065f50e12305e170383c726f5f08565827ee5e061a1b84fb0",
    "type3": "d222b4ecc5e12de65866f10726d03ef48a7819e685354004e011ee1681315de2",
}

# sha256 of the whole MC_SAMPLED run's report, json.dumps(..., sort_keys=True)
MC_DIGESTS = {
    "type1": "ae7a72afeb3aed70454ef4c4b97dbcaf3754c7c5175a9b8747f44dc778d2c0e9",
    "type2": "2eafa156a5f24dafe71c83ace997ad963ff15b117bb6af0c7c3a1e7ed97a95d4",
    "type3": "d1221b14cde0a05a43fd8a2caa2a6e4ff41f8e4bcb8cdc1efd69b94c223414b9",
}

# monte_carlo(SessionConfig(n_groups=4, check_fraction=0.5), kind, trials=30, seed=314)
MC_SAMPLED = {
    "type2": {
        "k_checked": 2,
        "detection_rate": 0.7666666666666667,
        "detection_interval": [0.5907167384187784, 0.8820761185551049],
        "eve_key_rate": 0.06666666666666667,
        "eve_key_interval": [0.018477023791270378, 0.2132345836261692],
        "key_agreement_rate": 0.03333333333333333,
        "outcome_counts": [31, 30, 24, 35],
    },
    "type3": {
        "k_checked": 2,
        "detection_rate": 0.9,
        "detection_interval": [0.7437891742081593, 0.9654001112526658],
        "eve_key_rate": 1.0,
        "eve_key_interval": [0.8864866068260312, 0.9999999999999999],
        "key_agreement_rate": 0.0,
        "outcome_counts": [31, 30, 24, 35],
    },
}
MC_ANALYTIC = {
    "type2": (0.75, 0.06249999999999961),
    "type3": (0.9374999999999998, 0.9999999999999964),
}

# (per_check_mismatch, per_group_eve_success, analytic_detection k=1..4,
#  analytic_eve_key n=4)
ANALYTIC = {
    "none": (0.0, None, (0.0, 0.0, 0.0, 0.0), None),
    "type1": (0.0, 0.24999999999999978, (0.0, 0.0, 0.0, 0.0), 0.003906249999999986),
    "type2": (0.5, 0.4999999999999992, (0.5, 0.75, 0.875, 0.9375), 0.06249999999999961),
    "type3": (
        0.7499999999999996,
        0.9999999999999991,
        (0.7499999999999996, 0.9374999999999998, 0.9843749999999999, 0.99609375),
        0.9999999999999964,
    ),
}

TOL = 1e-12


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _close(got, want) -> bool:
    if want is None:
        return got is None
    return got is not None and abs(got - want) <= TOL


@pytest.mark.parametrize("kind, n, fraction", sorted(SESSION_DIGESTS))
def test_session_reports_are_byte_identical(kind, n, fraction):
    config = SessionConfig(n_groups=n, check_fraction=fraction, seed=SESSION_SEED)
    report = run_session(config, make_strategy(kind))
    assert _digest(report.to_json_dict()) == SESSION_DIGESTS[(kind, n, fraction)]


@pytest.mark.parametrize("kind, policy", sorted(POLICY_DIGESTS))
def test_sessions_over_each_pair_state_policy_are_byte_identical(kind, policy):
    config = SessionConfig(n_groups=8, pair_states=POLICIES[policy], check_fraction=0.5, seed=SESSION_SEED)
    report = run_session(config, make_strategy(kind))
    assert _digest(report.to_json_dict()) == POLICY_DIGESTS[(kind, policy)]


@pytest.mark.parametrize("kind", sorted(SEED_SEQ_DIGESTS))
def test_sessions_given_a_seed_sequence_are_byte_identical(kind):
    config = SessionConfig(n_groups=8, check_fraction=0.25, seed=SESSION_SEED)
    seed_seq = np.random.SeedSequence(SESSION_SEED, spawn_key=(5,))
    report = run_session(config, make_strategy(kind), seed_seq=seed_seq)
    assert _digest(report.to_json_dict()) == SEED_SEQ_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(MC_DIGESTS))
def test_statevector_monte_carlo_reports_are_byte_identical(kind):
    report = monte_carlo(
        SessionConfig(n_groups=4, check_fraction=0.5), kind=kind, trials=30, seed=314, backend="statevector"
    )
    assert _digest(report.to_json_dict()) == MC_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(MC_SAMPLED))
def test_monte_carlo_sampled_fields_unchanged(kind):
    report = monte_carlo(
        SessionConfig(n_groups=4, check_fraction=0.5), kind=kind, trials=30, seed=314, backend="statevector"
    )
    payload = report.to_json_dict()
    assert {key: payload[key] for key in MC_SAMPLED[kind]} == MC_SAMPLED[kind]
    detection, eve_key = MC_ANALYTIC[kind]
    assert _close(payload["analytic_detection"], detection)
    assert _close(payload["analytic_eve_key"], eve_key)


def test_analytic_values_within_last_ulps():
    assert set(ANALYTIC) == set(STRATEGY_KINDS)
    for kind, (mismatch, per_group, curve, eve_key) in ANALYTIC.items():
        assert _close(per_check_mismatch(kind), mismatch), kind
        assert _close(per_group_eve_success(kind), per_group), kind
        for k, want in enumerate(curve, 1):
            assert _close(analytic_detection(kind, k), want), (kind, k)
        assert _close(analytic_eve_key(kind, 4), eve_key), kind
    assert per_group_eve_success("none") is None
