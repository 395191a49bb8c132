"""Report and message JSON: keys are the record's fields, values plain JSON."""

import json
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from entswap.adversary import STRATEGY_KINDS, UnsupportedAttackError, make_strategy
from entswap.protocol import (
    AllPhiPlus,
    FixedList,
    RandomKnown,
    SessionConfig,
    run_session,
)
from entswap.stats import efficiency_report, monte_carlo


def _field_names(record) -> list[str]:
    return [f.name for f in fields(record)]


def test_record_json_keys_are_its_fields_in_order():
    report = run_session(SessionConfig(3, seed=4), make_strategy("type1"))
    records = [
        monte_carlo(SessionConfig(2), kind="type1", trials=5),
        report.eve,
        efficiency_report(4, 0.5),
        report.groups[0],
    ]
    # GroupRecord states its keys by hand, so a field it leaves out fails here
    for record in records:
        assert list(record.to_json_dict()) == _field_names(record), type(record).__name__
    assert [m.kind for m in report.transcript] == ["measured", "check_request", "verdict"]
    for message in report.transcript:
        wire = message.to_json_dict()
        assert list(wire) == ["kind", "sender", "payload"]
        assert list(wire["payload"]) == _field_names(message), message.kind


def _assert_plain_json(payload: dict) -> None:
    # repr tells a tuple from a list and a numpy scalar from a Python number
    assert repr(json.loads(json.dumps(payload))) == repr(payload)


# SessionConfig arguments it takes, and ones it must reject
_VALID = {
    "n_groups": st.one_of(st.integers(1, 8), st.integers(1, 8).map(np.int64)),
    "check_fraction": st.one_of(
        st.floats(0.01, 1.0),
        st.fractions(Fraction(1, 10), 1, max_denominator=10),
        st.sampled_from([1, np.float32(0.25), np.float64(1.0)]),
    ),
    "seed": st.one_of(st.integers(0, 2**32), st.integers(0, 1000).map(np.uint32)),
}
_INVALID = {
    "n_groups": st.sampled_from([0, -1, True, 2.0, 2.5, Fraction(2)]),
    "check_fraction": st.one_of(
        st.floats(-1.0, 0.0),
        st.floats(1.0, 2.0, exclude_min=True),
        st.sampled_from([float("nan"), True, "0.5", Fraction(3, 2)]),
    ),
    "seed": st.sampled_from([-1, False, 1.0]),
}


@st.composite
def _config_inputs(draw) -> dict:
    """Keyword arguments of a SessionConfig, at most one of them out of range
    or of a wrong type; its pair-state policy may be bad as well."""
    kwargs = {name: draw(values) for name, values in _VALID.items()}
    if draw(st.booleans()):
        bad = draw(st.sampled_from(sorted(_INVALID)))
        kwargs[bad] = draw(_INVALID[bad])
    n = kwargs["n_groups"]
    length = 2 * int(n) if isinstance(n, (int, np.integer)) and n > 0 else 0
    fixed = st.one_of(
        st.lists(st.integers(0, 3), min_size=length, max_size=length),
        st.lists(st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.0, (0, 1)])), max_size=17),
    )
    kwargs["pair_states"] = draw(
        st.one_of(
            st.just(AllPhiPlus()),
            st.integers(-1, 1000),  # made a RandomKnown by the test, which may reject it
            fixed.map(tuple),  # made a FixedList by the test, which may reject it
        )
    )
    return kwargs


@settings(max_examples=100, deadline=None, database=None)
@given(inputs=_config_inputs())
def test_every_config_that_constructs_gives_plain_json_reports(inputs):
    policy = inputs["pair_states"]
    try:
        if isinstance(policy, int):
            inputs["pair_states"] = RandomKnown(policy)
        if isinstance(policy, tuple):
            inputs["pair_states"] = FixedList(policy)
        config = SessionConfig(**inputs)
    except (ValueError, TypeError):
        return
    event("constructs")
    for kind in STRATEGY_KINDS:
        try:
            session = run_session(config, make_strategy(kind))
        except UnsupportedAttackError:
            with pytest.raises(UnsupportedAttackError):
                monte_carlo(config, kind=kind, trials=3)
            continue
        _assert_plain_json(session.to_json_dict())
        _assert_plain_json(monte_carlo(config, kind=kind, trials=3, seed=config.seed).to_json_dict())
