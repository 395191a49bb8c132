"""Seeded outputs pinned before the per-attack layouts were unified.

The expected values were recorded from the enumeration-per-kind code that
preceded ``adversary.LAYOUTS``.  Session reports and sampled Monte Carlo
fields must stay byte-identical; analytic values, now marginals of a joint
outcome table, may only drift in the last few ulps.
"""

import hashlib
import json

import pytest

from entswap.adversary import STRATEGY_KINDS, make_strategy
from entswap.protocol import SessionConfig, run_session
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


def _close(got, want) -> bool:
    if want is None:
        return got is None
    return got is not None and abs(got - want) <= TOL


@pytest.mark.parametrize("kind, n, fraction", sorted(SESSION_DIGESTS))
def test_session_reports_are_byte_identical(kind, n, fraction):
    config = SessionConfig(n_groups=n, check_fraction=fraction, seed=SESSION_SEED)
    report = run_session(config, make_strategy(kind))
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SESSION_DIGESTS[(kind, n, fraction)]


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
