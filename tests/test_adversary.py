"""Adversary strategies: channel corruption, Eve's measurements, guessing."""

import numpy as np
import pytest

from entswap.adversary import (
    LAYOUTS,
    STRATEGY_KINDS,
    UnsupportedAttackError,
    corrupt_channels,
    eve_guess_key,
    eve_measure,
    make_strategy,
    measure,
)
from entswap.bell import BELL_ORDER, BellIndex
from entswap.protocol import SessionConfig, run_session
from entswap.statevector import identify_bell, make_bell, tensor

PHI = BellIndex.PHI_PLUS
PSI = BellIndex.PSI_PLUS
ALL_PHI = [(PHI, PHI)]


def test_make_strategy_kinds():
    assert STRATEGY_KINDS == ("none", "type1", "type2", "type3")
    for kind in STRATEGY_KINDS:
        assert make_strategy(kind) is LAYOUTS[kind]
        assert make_strategy(kind).kind == kind
    with pytest.raises(ValueError):
        make_strategy("type4")


def test_honest_channel_layout():
    layout = make_strategy("none")
    (systems,) = corrupt_channels(layout, [(PHI, PSI)])
    assert set(systems) == {"main"}
    assert layout.eve == ()
    assert layout.alice == ("main", ("1", "3"))
    assert layout.bob == ("main", ("2", "4"))
    expected = tensor(make_bell(PHI, "1", "2"), make_bell(PSI, "3", "4"))
    assert np.array_equal(systems["main"].amplitudes, expected.amplitudes)


def test_guesser_leaves_channel_untouched():
    honest = corrupt_channels(make_strategy("none"), [(PHI, PHI)])[0]
    attacked = corrupt_channels(make_strategy("type1"), [(PHI, PHI)])[0]
    assert np.array_equal(honest["main"].amplitudes, attacked["main"].amplitudes)
    assert set(attacked) == {"main", "eve"}
    assert make_strategy("type1").eve == (("eve", ("1p", "3p")),)


def test_entangler_layout_and_restriction():
    layout = make_strategy("type2")
    (systems,) = corrupt_channels(layout, ALL_PHI)
    assert systems["main"].num_qubits == 6
    assert systems["main"].labels == ("1", "2", "5", "3", "4", "6")
    assert layout.eve == (("main", ("5", "6")),)
    with pytest.raises(UnsupportedAttackError, match=r"declared \(phi\+, psi\+\)"):
        corrupt_channels(make_strategy("type2"), [(PHI, PSI)])


def test_replacer_layout_and_restriction():
    layout = make_strategy("type3")
    (systems,) = corrupt_channels(layout, ALL_PHI)
    assert set(systems) == {"alice_side", "bob_side"}
    assert layout.alice == ("alice_side", ("1", "3"))
    assert layout.bob == ("bob_side", ("2p", "4p"))
    # she measures the pairs Bob will touch first, then Alice's partners
    assert layout.eve == (("bob_side", ("1p", "3p")), ("alice_side", ("2", "4")))
    with pytest.raises(UnsupportedAttackError):
        corrupt_channels(make_strategy("type3"), [(PSI, PHI)])


def test_channel_measure_collapses_system():
    rng = np.random.default_rng(1)
    layout = make_strategy("none")
    (systems,) = corrupt_channels(layout, [(PHI, PHI)])
    outcome = measure(systems, layout.alice, rng)
    assert outcome in BELL_ORDER
    assert identify_bell(systems["main"], "1", "3") is outcome


def test_noeve_measure_is_inert():
    layout = make_strategy("none")
    channels = corrupt_channels(layout, ALL_PHI)
    before = channels[0]["main"].amplitudes.copy()
    assert eve_measure(layout, channels, np.random.default_rng(0)) == [()]
    assert np.array_equal(channels[0]["main"].amplitudes, before)
    assert eve_guess_key(layout, [], [], np.random.default_rng(0)) is None


def test_entangler_outcomes_are_term_paired():
    # physical order: alice, bob, then eve; her outcome must always combine
    # the two phase bits and copy alice's parity bit
    layout = make_strategy("type2")
    n = 300
    channels = corrupt_channels(layout, ALL_PHI * n)
    rng = np.random.default_rng(11)
    alice = [measure(systems, layout.alice, rng) for systems in channels]
    bob = [measure(systems, layout.bob, rng) for systems in channels]
    for a, b, (e,) in zip(alice, bob, eve_measure(layout, channels, rng)):
        assert b.parity == a.parity
        assert e is BellIndex((a.phase ^ b.phase, a.parity))
    # both bob branches actually occur given alice phi+
    given_phi = {b for a, b in zip(alice, bob) if a is PHI}
    assert given_phi == {BellIndex.PHI_PLUS, BellIndex.PHI_MINUS}


def test_replacer_learns_alice_exactly_and_steers_bob():
    layout = make_strategy("type3")
    n = 100
    channels = corrupt_channels(layout, ALL_PHI * n)
    rng = np.random.default_rng(12)
    alice = [measure(systems, layout.alice, rng) for systems in channels]
    eve = eve_measure(layout, channels, rng)
    bob = [measure(systems, layout.bob, rng) for systems in channels]
    for a, b, (bob_facing, alice_facing) in zip(alice, bob, eve):
        # her alice-facing halves replay alice's outcome verbatim
        assert alice_facing is a
        # bob's outcome is pinned by her bob-facing measurement
        assert b is bob_facing


def test_guesser_success_rate_is_about_one_quarter():
    report = run_session(
        SessionConfig(n_groups=400, check_fraction=0.01, seed=21),
        make_strategy("type1"),
    )
    hits = sum(report.eve.per_group_correct)
    # 5 sigma around 100 of 400
    assert abs(hits - 100) < 5 * np.sqrt(400 * 0.25 * 0.75)


def test_eve_report_shapes_and_key_alignment():
    report = run_session(SessionConfig(n_groups=4, seed=9), make_strategy("type1"))
    eve = report.eve
    assert len(eve.per_group_correct) == 4
    # guessed key covers unchecked groups only, like the session key
    assert len(eve.guessed_key) == len(report.alice_key) == 8
    payload = eve.to_json_dict()
    assert set(payload) == {"guessed_key", "full_key_correct", "per_group_correct"}


def test_replacer_always_knows_the_full_key():
    for seed in range(5):
        report = run_session(SessionConfig(n_groups=3, seed=seed), make_strategy("type3"))
        assert report.eve.full_key_correct
        assert all(report.eve.per_group_correct)
