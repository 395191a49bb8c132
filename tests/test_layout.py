"""Per-attack layouts and the joint outcome tables built from them."""

import pytest

from entswap.adversary import LAYOUTS, STRATEGY_KINDS, make_strategy
from entswap.bell import BELL_ORDER, BellIndex, swap_partner
from entswap.stats import joint_table, per_check_mismatch, per_group_eve_success

PHI = BellIndex.PHI_PLUS

# reachable (alice, bob, *eve) cells per kind
NONZERO_CELLS = {"none": 4, "type1": 16, "type2": 8, "type3": 16}


def test_layouts_drive_the_strategy_kinds():
    assert STRATEGY_KINDS == tuple(LAYOUTS)
    for kind, layout in LAYOUTS.items():
        assert make_strategy(kind).kind == kind
        assert isinstance(make_strategy(kind), layout.strategy)


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


def test_unknown_kind_raises():
    for fn in (joint_table, per_check_mismatch, per_group_eve_success, make_strategy):
        with pytest.raises(ValueError):
            fn("type4")
