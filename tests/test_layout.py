"""Per-attack layouts and the joint outcome tables built from them."""

import dataclasses

import pytest

from entswap.adversary import LAYOUTS, STRATEGY_KINDS, make_strategy
from entswap.bell import BELL_ORDER, BellIndex, swap_partner
from entswap.stats import class_table, joint_table, per_check_mismatch, per_group_eve_success

PHI = BellIndex.PHI_PLUS

# reachable (alice, bob, *eve) cells per kind
NONZERO_CELLS = {"none": 4, "type1": 16, "type2": 8, "type3": 16}


def test_layouts_drive_the_strategy_kinds():
    assert STRATEGY_KINDS == tuple(LAYOUTS)
    for kind, layout in LAYOUTS.items():
        assert make_strategy(kind).kind == layout.kind == kind


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_joint_table_is_a_distribution_with_uniform_alice(kind):
    table = joint_table(kind)
    layout = LAYOUTS[kind]
    assert len(table) == NONZERO_CELLS[kind]
    assert all(len(key) == 2 + len(layout.eve) for key in table)
    assert all(p > 0.0 for p in table.values())
    assert abs(sum(table.values()) - 1.0) <= 1e-12
    for a in BELL_ORDER:
        alice = sum(p for key, p in table.items() if key[0] is a)
        assert abs(alice - 0.25) <= 1e-12


@pytest.mark.parametrize("kind", ["none", "type1"])
def test_untouched_channels_never_mismatch(kind):
    assert all(b is swap_partner(PHI, PHI, a) for a, b, *_ in joint_table(kind))
    assert per_check_mismatch(kind) == 0.0


def reference_classes(kind, a, b):
    """(mismatch, eve_ok) -> p(alice) cells, walked cell by cell over the joint table.

    Each cell's fragments mismatch when Bob's outcome is not the swap partner
    of Alice's; Eve's guess is averaged over her equally likely guesses.
    """
    layout = LAYOUTS[kind]
    classes = {}
    for (alice, bob, *eve), p in joint_table(kind, a, b).items():
        guesses = layout.guess(tuple(eve)) if layout.guess is not None else (None,)
        for guess in guesses:
            guessed = layout.guess is None or guess is alice
            label = (bob is not swap_partner(a, b, alice), guessed)
            cells = classes.setdefault(label, [0.0] * 4)
            cells[alice.ordinal] += p / len(guesses)
    return classes


SUPPORTED_PAIRS = [
    (kind, a, b)
    for kind, layout in LAYOUTS.items()
    for a in BELL_ORDER
    for b in BELL_ORDER
    if not layout.phi_only or a is b is PHI
]


@pytest.mark.parametrize("kind, a, b", SUPPORTED_PAIRS, ids=str)
def test_class_table_masses_match_the_cell_walk(kind, a, b):
    reference = reference_classes(kind, a, b)
    table = class_table(kind, a, b)
    labels = list(zip(table.mismatch.tolist(), table.eve_ok.tolist()))
    assert sorted(labels) == sorted(reference)
    for label, prob, alice in zip(labels, table.probs, table.alice):
        cells = reference[label]
        assert abs(prob - sum(cells)) <= 1e-12
        assert all(abs(x - c / sum(cells)) <= 1e-12 for x, c in zip(alice, cells))


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_analytic_rates_match_the_cell_walk(kind):
    reference = reference_classes(kind, PHI, PHI)
    mismatch = sum(sum(cells) for (m, _), cells in reference.items() if m)
    guessed = sum(sum(cells) for (_, ok), cells in reference.items() if ok)
    assert abs(per_check_mismatch(kind) - mismatch) <= 1e-12
    if LAYOUTS[kind].guess is None:
        assert per_group_eve_success(kind) is None
    else:
        assert abs(per_group_eve_success(kind) - guessed) <= 1e-12


# each attack's order with Eve moved to the other side of Bob
EVE_ELSEWHERE = {
    "type1": ("alice", "eve", "bob"),
    "type2": ("alice", "eve", "bob"),
    "type3": ("alice", "bob", "eve"),
}


@pytest.mark.parametrize("kind", sorted(EVE_ELSEWHERE))
def test_eve_position_leaves_the_joint_table_alone(kind, monkeypatch):
    # Eve and Bob measure disjoint qubits, so their order cannot change the law
    expected = joint_table(kind)  # cached under the real layout before the swap
    layout = LAYOUTS[kind]
    assert layout.order != EVE_ELSEWHERE[kind]
    monkeypatch.setitem(LAYOUTS, kind, dataclasses.replace(layout, order=EVE_ELSEWHERE[kind]))
    moved = joint_table.__wrapped__(kind)
    assert set(moved) == set(expected)
    assert all(abs(moved[cell] - p) <= 1e-12 for cell, p in expected.items())


def test_unknown_kind_raises():
    for fn in (joint_table, per_check_mismatch, per_group_eve_success, make_strategy):
        with pytest.raises(ValueError):
            fn("type4")
